"""File formats: system descriptions, design reports, traces.

Systems and reports are JSON; traces are CSV. All floating-point numbers are
written with 17 significant digits, which round-trips IEEE doubles exactly
and makes reports byte-identical across runs with the same inputs and seed.
"""

import contextlib
import json

import numpy as np

from . import analysis, linalg
from .design import DesignConfig, PiObserver, VerificationReport
from .errors import DimensionError, InputError
from .systems import SystemRealization

REPORT_FORMAT = "pi-observer-design-report"
ANALYSIS_FORMAT = "pi-observer-analysis"
VERIFICATION_FORMAT = "pi-observer-verification"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# JSON emission with fixed float formatting


_FLOAT_FORMAT = "%.17g"


def _format_float(x):
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return _FLOAT_FORMAT % float(x)


def dumps_doc(obj, indent=0):
    """Serialize to JSON with floats at 17 significant digits.

    The standard json encoder offers no control over float formatting, so
    this walks the structure itself. Key order is preserved (insertion
    order), which together with the fixed number format makes output
    deterministic.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_doc(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dumps_doc(v, indent + 2) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join([f"{inner}{s}" for s in parts]) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to a report document")


@contextlib.contextmanager
def path_errors(path, verb):
    """Turn an OSError raised in the block into an :class:`InputError`: cannot <verb> <path>."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot {verb} {path}: {exc}") from exc


def write_doc(doc, path):
    text = dumps_doc(doc) + "\n"  # serialized first: a failure leaves no file
    with path_errors(path, "write"), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def matrix_to_doc(M):
    return [[float(v) for v in row] for row in np.atleast_2d(np.asarray(M, dtype=float))]


def complex_to_doc(z):
    z = complex(z)
    return [z.real, z.imag]


def spectrum_to_doc(values):
    return [complex_to_doc(z) for z in values]


def complex_from_doc(item, context="complex value"):
    if not (isinstance(item, (list, tuple)) and len(item) == 2):
        raise InputError(f"{context}: expected a [re, im] pair, got {item!r}")
    re, im = item
    if not linalg.is_real(re) or not linalg.is_real(im):
        raise InputError(f"{context}: expected numeric [re, im] pair, got {item!r}")
    return complex(float(re), float(im))


def matrix_from_doc(doc, key):
    """Parse a matrix field, naming the offending row on error; its owner checks the shape."""
    if key not in doc:
        raise InputError(f"missing required field {key!r}")
    raw = doc[key]
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{key}: expected a non-empty array of rows")
    width = None
    out = []
    for i, row in enumerate(raw, start=1):
        if not isinstance(row, list) or not row:
            raise InputError(f"{key}: row {i} must be a non-empty array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(
                f"{key}: row {i} has {len(row)} entries, expected {width}"
            )
        for j, v in enumerate(row, start=1):
            if not linalg.is_real(v):
                raise InputError(
                    f"{key}: row {i}, column {j}: expected a number, got {v!r}"
                )
        out.append([float(v) for v in row])
    return np.array(out)


# ---------------------------------------------------------------------------
# System files


def _load_json(path):
    try:
        with path_errors(path, "read"), open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for bytes not UTF-8
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def load_matrix(path, key):
    """Read a JSON file holding one matrix, an array of rows, named ``key`` in errors."""
    return matrix_from_doc({key: _load_json(path)}, key)


def load_system(path, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Read a system file and construct the validated realization."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    try:
        A = matrix_from_doc(doc, "A")
        B = matrix_from_doc(doc, "B")
        C = matrix_from_doc(doc, "C")
        return SystemRealization(A=A, B=B, C=C, name=doc.get("name", ""), tol_rank=tol_rank)
    except InputError as exc:
        # keep the subclass (dimension / rank deficiency) while adding the path
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Design reports


def _system_header(system):
    return {"name": system.name, "n": system.n, "m": system.m, "p": system.p}


def _config_to_doc(observer):
    cfg = observer.config
    return {
        "target_poles": spectrum_to_doc(observer.assigned_poles),
        "phi": matrix_to_doc(observer.phi),
        "lambda": matrix_to_doc(observer.lambda_block)
        if observer.lambda_block.size else [],
        "margin": cfg.margin,
        "tol_rank": observer.system.tol_rank,
        "tol_eig": cfg.tol_eig,
        "seed": cfg.seed,
    }


def design_report_doc(observer, verification):
    """Full feasible-design report: gains, witnesses, spectra, residuals."""
    system = observer.system
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "system": _system_header(system),
        "verdict": "feasible",
        "config": _config_to_doc(observer),
        "gains": {
            "L": matrix_to_doc(observer.L),
            "F": matrix_to_doc(observer.F),
        },
        "intermediates": {
            "K": matrix_to_doc(observer.K),
            "T": matrix_to_doc(observer.T),
            "X": matrix_to_doc(observer.X),
        },
        "poles": {
            "assigned": spectrum_to_doc(observer.assigned_poles),
            "inherited": spectrum_to_doc(observer.inherited_poles),
        },
        "spectra": {
            "plant": spectrum_to_doc(linalg.eigenvalues(system.A)),
            "closed_loop": spectrum_to_doc(
                linalg.eigenvalues(system.A + observer.K @ system.C)
            ),
            "phi": spectrum_to_doc(linalg.eigenvalues(observer.phi)),
            "augmented": spectrum_to_doc(verification.augmented_spectrum),
        },
        "residuals": {
            "phi_identity": verification.phi_residual,
            "similarity": verification.similarity_residual,
            "spectrum_split_distance": verification.spectrum_distance,
        },
        "stability": {
            "spectral_radius": verification.spectral_radius,
            "margin": verification.margin,
            "schur_stable": verification.schur_ok,
        },
    }


def infeasible_report_doc(system, witnesses):
    """The report of a design refused as undetectable at ``system.tol_rank``."""
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "system": _system_header(system),
        "verdict": "infeasible",
        "witnesses": spectrum_to_doc(witnesses),
        "tolerances": {"tol_rank": system.tol_rank},
    }


def load_report(path):
    """Read a design report document with light structural validation."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT:
        raise InputError(f"{path}: not a design report document")
    if doc.get("verdict") not in ("feasible", "infeasible"):
        raise InputError(f"{path}: missing or invalid 'verdict'")
    _object(doc, "tolerances")  # its tol_rank is checked where ranks are taken
    return doc


def report_tol_rank(doc):
    """The checked ``tol_rank`` of a report: in ``config`` if feasible, else ``tolerances``."""
    key = "config" if doc["verdict"] == "feasible" else "tolerances"
    tol_rank = _object(doc, key).get("tol_rank", linalg.DEFAULT_TOL_RANK)
    linalg.check_tol_rank(tol_rank)
    return tol_rank


def _object(doc, key):
    """The JSON object ``doc[key]``, {} when absent; :class:`InputError` for another type."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise InputError(f"report field {key!r} must be an object, got {type(value).__name__}")
    return value


def _poles_from_doc(poles, key):
    items = poles.get(key, [])
    if not isinstance(items, list):
        raise InputError(f"poles.{key}: expected an array of pairs, got {type(items).__name__}")
    return tuple([complex_from_doc(item, f"poles.{key}") for item in items])


def observer_from_report(system, doc):
    """Rebuild a :class:`PiObserver` from a feasible report and its system.

    Fields of the wrong JSON type raise :class:`InputError` naming the field;
    :class:`DesignConfig` checks the config values as read, and
    :class:`PiObserver` the shapes and entries of the matrices.
    """
    if doc.get("verdict") != "feasible":
        raise InputError("report is infeasible; it carries no gains to rebuild")
    n, p = system.n, system.p
    sysinfo = _object(doc, "system")
    if sysinfo.get("n") != n or sysinfo.get("p") != p:
        raise DimensionError(
            f"report was produced for a system with n={sysinfo.get('n')}, "
            f"p={sysinfo.get('p')}; this system has n={n}, p={p}"
        )
    gains = _object(doc, "gains")
    inter = _object(doc, "intermediates")
    cfg = _object(doc, "config")
    poles = _object(doc, "poles")
    lam = matrix_from_doc(cfg, "lambda") if cfg.get("lambda", []) else np.zeros((n - p, p))
    assigned = _poles_from_doc(poles, "assigned")
    inherited = _poles_from_doc(poles, "inherited")
    config = DesignConfig(
        target_poles=assigned or None,
        phi=matrix_from_doc(cfg, "phi"),
        lambda_block=lam,
        **{key: cfg[key] for key in ("margin", "tol_eig", "seed") if key in cfg},
    )
    return PiObserver(
        system=system,
        L=matrix_from_doc(gains, "L"),
        F=matrix_from_doc(gains, "F"),
        K=matrix_from_doc(inter, "K"),
        T=matrix_from_doc(inter, "T"),
        X=matrix_from_doc(inter, "X"),
        phi=config.phi,
        lambda_block=lam,
        assigned_poles=assigned, inherited_poles=inherited, config=config,
    )


# ---------------------------------------------------------------------------
# Analysis and verification documents


def analysis_report_doc(system):
    """Run the structural analysis of a system at its ``tol_rank`` and assemble its document.

    A detectable pair whose PBH verdict and q disagree is a
    :class:`NumericalError`, as in a design.
    """
    A, C = system.A, system.C
    verdict = analysis.is_detectable(A, C, system.tol_rank)
    dec = analysis.kalman_decompose(A, C, system.tol_rank)
    q = dec.q
    if verdict:
        analysis.observability_verdict(verdict.classifications, q)
    doc = {
        "format": ANALYSIS_FORMAT,
        "version": FORMAT_VERSION,
        "system": _system_header(system),
        "eigenvalues": [
            {
                "value": complex_to_doc(c.eigenvalue),
                "magnitude": c.magnitude,
                "stable": c.stable,
                "observable": c.observable,
            }
            for c in verdict.classifications
        ],
        "detectable": verdict.detectable,
        "observable": q == system.n,
        "observable_dimension": q,
        "witnesses": spectrum_to_doc(verdict.witnesses),
        "tolerances": {"tol_rank": system.tol_rank},
    }
    if q < system.n:
        recon = float(np.max(np.abs(dec.reconstruct() - A)))
        unobs = dec.unobservable_eigenvalues
        doc["decomposition"] = {
            "q": dec.q,
            "unobservable_eigenvalues": spectrum_to_doc(unobs),
            "a22_schur_stable": bool(analysis.is_schur_stable(dec.A22)),
            "reconstruction_residual": recon,
        }
    return doc


def verification_to_doc(report):
    """Serialize a :class:`VerificationReport`."""
    assert isinstance(report, VerificationReport)
    return {
        "format": VERIFICATION_FORMAT,
        "version": FORMAT_VERSION,
        "passed": report.passed,
        "failed_checks": list(report.failed_checks()),
        "stability": {
            "spectral_radius": report.spectral_radius,
            "margin": report.margin,
            "schur_stable": report.schur_ok,
        },
        "spectra": {
            "augmented": spectrum_to_doc(report.augmented_spectrum),
            "predicted": spectrum_to_doc(report.predicted_spectrum),
            "pairing_distance": report.spectrum_distance,
            "ok": report.spectrum_ok,
        },
        "residuals": {
            "similarity": report.similarity_residual,
            "similarity_ok": report.similarity_ok,
            "phi_identity": report.phi_residual,
            "phi_identity_ok": report.phi_ok,
        },
    }


# ---------------------------------------------------------------------------
# Trace files


_TRACE_BLOCK_ROWS = 256


def _check_finite(columns):
    """Raise on the first non-finite entry, in the row-major order of the CSV."""
    finite = [np.isfinite(c).reshape(c.shape[0], -1).all(axis=1) for c in columns]
    if all(f.all() for f in finite):
        return
    k = min(int(np.argmin(f)) for f in finite if not f.all())
    row = np.concatenate([np.atleast_1d(c[k]) for c in columns])
    raise ValueError(f"cannot serialize non-finite number {row[~np.isfinite(row)][0]}")


def trace_csv_text(trace, comments, out):
    """Stream a trace as CSV, after leading comment lines, to the text stream ``out``.

    Each block of 256 rows is formatted from slices of the trace arrays and
    written at once, so neither the whole text nor the stacked trace is ever
    held. Every entry is checked for finiteness before the first byte is
    written, so a non-finite trace raises ValueError and writes nothing.
    """
    columns = (trace.x, trace.xhat, trace.v, trace.err_inf, trace.v_inf)
    _check_finite(columns)
    n = trace.x.shape[1]
    p = trace.v.shape[1]
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xhat{i + 1}" for i in range(n)]
        + [f"v{i + 1}" for i in range(p)]
        + ["err_inf", "v_inf"]
    )
    row = "%d," + ",".join([_FLOAT_FORMAT] * (2 * n + p + 2)) + "\n"
    out.write("".join([f"# {line}\n" for line in comments]) + ",".join(header) + "\n")
    for start in range(0, trace.x.shape[0], _TRACE_BLOCK_ROWS):
        stop = start + _TRACE_BLOCK_ROWS
        block = np.column_stack([c[start:stop] for c in columns]).tolist()
        out.write("".join([row % (k, *r) for k, r in enumerate(block, start)]))
