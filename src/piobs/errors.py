"""Exception hierarchy for the piobs package.

The CLI maps these onto exit codes: bad input (3), structural
infeasibility (2), numerical failure (4).
"""


class PiobsError(Exception):
    """Base class for all piobs errors."""


class InputError(PiobsError):
    """Invalid user input: malformed files, bad flags, inconsistent config."""


class DimensionError(InputError):
    """Matrix or vector dimensions are incompatible with the operation."""


class RankDeficiencyError(InputError):
    """A matrix required to have full rank does not (e.g. the output matrix C)."""


class NotObservableError(PiobsError):
    """Pole placement was requested for a pair (A, C) that is not observable."""


class NotDetectableError(PiobsError):
    """The pair (A, C) is not detectable, so no stabilizing observer exists.

    Carries the offending eigenvalues: unstable modes at which the PBH
    rank test fails.
    """

    def __init__(self, witnesses):
        self.witnesses = tuple([complex(w) for w in witnesses])
        listing = ", ".join([format_eigenvalue(w) for w in self.witnesses])
        super().__init__(
            f"pair (A, C) is not detectable: unstable unobservable "
            f"eigenvalue(s) {{{listing}}}"
        )


class NumericalError(PiobsError):
    """A numerical procedure failed (non-convergence, loss of accuracy)."""


class SingularMatrixError(NumericalError):
    """A linear solve hit an exactly singular matrix."""


class SimulationDivergenceError(NumericalError):
    """A simulated state norm exceeded the overflow guard."""

    def __init__(self, step, norm, limit):
        self.step = int(step)
        self.norm = float(norm)
        self.limit = float(limit)
        super().__init__(
            f"simulation aborted at step {self.step}: state norm "
            f"{self.norm:.3e} exceeded the overflow limit {self.limit:.3e}"
        )


def format_eigenvalue(z):
    """Render a complex eigenvalue compactly, dropping a zero imaginary part."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}j"
