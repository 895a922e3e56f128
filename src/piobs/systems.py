"""Plant model: a discrete-time LTI system x(k+1) = A x(k) + B u(k), y = C x."""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, InputError, RankDeficiencyError


@dataclass(frozen=True)
class SystemRealization:
    """State-space realization (A, B, C) with n states, m inputs, p outputs.

    The output matrix C must have full row rank p at ``tol_rank``, the rank
    tolerance of every design of this system; the constructor enforces this
    because the whole observer construction rests on it. ``name`` is a
    string, or None for a system file whose name is null. Arrays are stored
    read-only, so instances are safe to share across threads.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    name: str = ""
    tol_rank: float = field(default=linalg.DEFAULT_TOL_RANK, repr=False)

    def __post_init__(self):
        if self.name is not None and not isinstance(self.name, str):
            raise InputError(f"name must be a string, got {self.name!r}")
        A = linalg.as_square(self.A, "A")
        B = linalg.as_matrix(self.B, "B")
        C = linalg.as_matrix(self.C, "C")
        n = A.shape[0]
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected n={n}")
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} columns, expected n={n}")
        p = C.shape[0]
        if p > n:
            raise DimensionError(f"C has more rows (p={p}) than states (n={n})")
        if linalg.numerical_rank(C, self.tol_rank) < p:
            raise RankDeficiencyError(
                f"output matrix C must have full row rank p={p}"
            )
        for arr in (A, B, C):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"SystemRealization{label}(n={self.n}, m={self.m}, p={self.p})"
