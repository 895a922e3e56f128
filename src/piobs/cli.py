"""Command-line front end: analyze, design, simulate, verify, batch.

Exit codes: 0 success/feasible, 2 infeasible (detectability fails),
3 input or parse error, 4 numerical failure or failed verification.
"""

import argparse
import pathlib
import sys

import numpy as np

from . import analysis, linalg
from . import design as design_mod
from . import reportio, sim
from .errors import InputError, NotDetectableError, PiobsError, format_eigenvalue

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 means "infeasible"
    # here, so remap usage problems to the input-error code.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_complex(text):
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _parse_vector(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from exc


def _add_design_flags(p):
    p.add_argument("--pole", action="append", type=_parse_complex, default=None,
                   metavar="Z", help="target observer pole (repeatable; complex "
                   "accepted as e.g. 0.3+0.1j); defaults to a conjugate-closed "
                   "fan of poles at magnitude 0.3")
    phi = p.add_mutually_exclusive_group()
    phi.add_argument("--phi-scalar", type=float, default=None, metavar="S",
                     help="integral-loop matrix phi = S * identity (default 0.5)")
    phi.add_argument("--phi-file", default=None, metavar="FILE",
                     help="JSON file holding phi as an array of arrays")
    p.add_argument("--lambda-file", default=None, metavar="FILE",
                   help="JSON file holding the free lambda block")
    p.add_argument("--margin", type=float, default=design_mod.DEFAULT_MARGIN,
                   help="stability margin: require spectral radius < 1 - margin")
    p.add_argument("--tol-rank", type=float, default=linalg.DEFAULT_TOL_RANK,
                   help="relative rank tolerance (default %(default)g)")
    p.add_argument("--tol-eig", type=float, default=linalg.DEFAULT_TOL_EIG,
                   help="eigenvalue comparison tolerance (default %(default)g)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized placement steps")


def build_parser():
    parser = _Parser(prog="piobs",
                     description="Design, verify and simulate proportional-"
                                 "integral observers for discrete-time LTI systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="eigenvalue/detectability analysis of a system",
                       parents=[], description="Classify eigenvalues, test "
                       "detectability and observability, summarize the "
                       "observability decomposition.")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--tol-rank", type=float, default=linalg.DEFAULT_TOL_RANK,
                   help="relative rank tolerance (default %(default)g)")
    p.add_argument("--out", default=None, help="write the analysis JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("design", help="synthesize observer gains L and F")
    p.add_argument("system", help="system JSON file")
    _add_design_flags(p)
    p.add_argument("--out", default=None,
                   help="write the design report here (default: stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="co-simulate plant and observer")
    p.add_argument("system", help="system JSON file")
    p.add_argument("report", help="design report JSON file")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--x0", type=_parse_vector, default=None, metavar="CSV")
    p.add_argument("--xhat0", type=_parse_vector, default=None, metavar="CSV")
    p.add_argument("--v0", type=_parse_vector, default=None, metavar="CSV")
    p.add_argument("--input", choices=("zero", "constant", "step", "random"),
                   default="zero")
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="amplitude for constant/step/random inputs")
    p.add_argument("--step-onset", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=sim.DEFAULT_CONVERGENCE_TOL,
                   help="convergence threshold on max(err_inf, v_inf) / max(1, |x|_inf)")
    p.add_argument("--out", default=None,
                   help="write the trace CSV here (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="re-check a design report against a system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("report", help="design report JSON file")
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--out", default=None, help="write the verification JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="design observers for many system files")
    p.add_argument("systems", nargs="+", help="system JSON files")
    _add_design_flags(p)
    p.add_argument("--out-dir", default=None,
                   help="directory for per-system design reports")
    p.set_defaults(func=cmd_batch)

    return parser


def _config_from_args(args):
    linalg.check_tol_rank(args.tol_rank)  # refused once, before any system is read
    phi, lam = args.phi_scalar, None
    if args.phi_file is not None:
        phi = reportio.load_matrix(args.phi_file, "phi")
    if args.lambda_file is not None:
        lam = reportio.load_matrix(args.lambda_file, "lambda")
    return design_mod.DesignConfig(
        target_poles=tuple(args.pole) if args.pole else None,
        phi=phi,
        lambda_block=lam,
        margin=args.margin,
        tol_eig=args.tol_eig,
        seed=args.seed,
    )


def cmd_analyze(args):
    system = reportio.load_system(args.system, tol_rank=args.tol_rank)
    doc = reportio.analysis_report_doc(system)
    name = system.name or args.system
    print(f"system {name}: n={system.n}, m={system.m}, p={system.p}")
    print(f"{'eigenvalue':>24}  {'magnitude':>12}  {'stable':>6}  {'observable':>10}")
    for entry in doc["eigenvalues"]:
        z = complex(entry["value"][0], entry["value"][1])
        print(f"{format_eigenvalue(z):>24}  {entry['magnitude']:>12.6g}  "
              f"{'yes' if entry['stable'] else 'no':>6}  "
              f"{'yes' if entry['observable'] else 'no':>10}")
    print(f"detectable: {'yes' if doc['detectable'] else 'no'}")
    print(f"observable: {'yes' if doc['observable'] else 'no'} "
          f"(observable dimension {doc['observable_dimension']} of {system.n})")
    if doc["witnesses"]:
        listing = ", ".join(
            [format_eigenvalue(complex(w[0], w[1])) for w in doc["witnesses"]]
        )
        print(f"unstable unobservable eigenvalues: {listing}")
    if "decomposition" in doc:
        dec = doc["decomposition"]
        print(f"decomposition: q={dec['q']}, unobservable block "
              f"{'Schur stable' if dec['a22_schur_stable'] else 'UNSTABLE'}, "
              f"reconstruction residual {dec['reconstruction_residual']:.3e}")
    if args.out:
        reportio.write_doc(doc, args.out)
    return EXIT_OK


def _design_file(path, config, tol_rank, out):
    """Design for ``path`` loaded at ``tol_rank``, report to ``out`` or stdout; exit 0 or 2."""
    system = reportio.load_system(path, tol_rank=tol_rank)
    try:
        observer = design_mod.design_pi_observer(system, config)
    except NotDetectableError as exc:
        doc = reportio.infeasible_report_doc(system, exc.witnesses)
        if out:
            reportio.write_doc(doc, out)
        else:
            print(reportio.dumps_doc(doc))
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    doc = reportio.design_report_doc(observer, observer.verification)
    if out:
        reportio.write_doc(doc, out)
        print(f"feasible: spectral radius {observer.verification.spectral_radius:.9g}, "
              f"report written to {out}")
    else:
        print(reportio.dumps_doc(doc))
    return EXIT_OK


def cmd_design(args):
    return _design_file(args.system, _config_from_args(args), args.tol_rank, args.out)


def _input_signal_from_args(args, m):
    if args.input == "zero":
        return sim.ZeroInput()
    if args.input == "constant":
        return sim.ConstantInput(value=tuple(args.amplitude * np.ones(m)))
    if args.input == "step":
        return sim.StepInput(value=tuple(args.amplitude * np.ones(m)),
                             onset=args.step_onset)
    return sim.RandomInput(amplitude=args.amplitude, seed=args.seed)


def cmd_simulate(args):
    doc = reportio.load_report(args.report)
    system = reportio.load_system(args.system, tol_rank=reportio.report_tol_rank(doc))
    observer = reportio.observer_from_report(system, doc)
    config = sim.SimulationConfig(
        horizon=args.horizon,
        x0=args.x0,
        xhat0=args.xhat0,
        v0=args.v0,
        input_signal=_input_signal_from_args(args, system.m),
        convergence_tol=args.tol,
    )
    trace = sim.run_simulation(system, observer, config)
    rate, _ = sim.fit_decay_rate(trace)
    converged = trace.converged_step if trace.converged_step is not None else "never"
    summary = (f"converged_step={converged} tail_converged={trace.tail_converged} "
               f"decay_rate={rate:.6g} tol={args.tol:g}")
    if args.out:
        with reportio.path_errors(args.out, "write"), open(args.out, "w", encoding="utf-8") as fh:
            reportio.trace_csv_text(trace, [summary], fh)
        print(summary)
    else:
        reportio.trace_csv_text(trace, [summary], sys.stdout)
    return EXIT_OK


def cmd_verify(args):
    doc = reportio.load_report(args.report)
    system = reportio.load_system(args.system, tol_rank=reportio.report_tol_rank(doc))
    if doc["verdict"] == "infeasible":
        if not analysis.is_detectable(system.A, system.C, system.tol_rank):
            print("infeasible verdict confirmed: pair (A, C) is not detectable")
            return EXIT_INFEASIBLE
        print("report claims infeasible but the system is detectable",
              file=sys.stderr)
        return EXIT_NUMERICAL
    observer = reportio.observer_from_report(system, doc)
    report = design_mod.verify_design(observer, args.margin)
    for name, (ok, detail) in report.checks().items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.out:
        reportio.write_doc(reportio.verification_to_doc(report), args.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_batch(args):
    config = _config_from_args(args)
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    reports = [str(out_dir / f"{pathlib.Path(path).stem}.report.json") if out_dir else None
               for path in args.systems]
    if out_dir:
        for i, report_path in enumerate(reports):
            if report_path in reports[:i]:
                first = args.systems[reports.index(report_path)]
                raise InputError(f"{first} and {args.systems[i]} would both write {report_path}")
        with reportio.path_errors(out_dir, "write"):
            out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for path, report_path in zip(args.systems, reports):
        try:
            status = _design_file(path, config, args.tol_rank, report_path)
            note = "feasible" if status == EXIT_OK else "infeasible"
        except PiobsError as exc:
            status = _status_for(exc)
            note = f"error: {exc}"
        print(f"[{status}] {path}: {note}")
        worst = max(worst, status)
    return worst


def _status_for(exc):
    if isinstance(exc, NotDetectableError):
        return EXIT_INFEASIBLE
    if isinstance(exc, InputError):
        return EXIT_INPUT
    return EXIT_NUMERICAL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PiobsError as exc:
        print(f"piobs: error: {exc}", file=sys.stderr)
        return _status_for(exc)


if __name__ == "__main__":
    sys.exit(main())
