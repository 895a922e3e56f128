"""The three benchmark workloads, each run inside one worker process.

Every workload is a closed loop: one caller issues one operation at a time,
and ``cli-session`` runs its ``piobs`` processes one after another. Each
operation is timed alone, in whole passes over the workload's operation
list, until the operations have taken ``seconds`` in total. The correctness
gates check every pass outside the timed region and are never skipped. The
workloads use public ``piobs`` names, plus the module attributes that the
traced run wraps (``piobs.reportio``, ``piobs.linalg``, ``piobs.cli``),
always looked up at call time so the wrappers are seen.

Why these workloads, and which layer each one stresses, is written down in
``perfbench/README.md``.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import piobs
import piobs.cli
import piobs.reportio

import plants
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Relative trajectory deviation from the per-step reference, and relative
#: error-recurrence residual, that still count as rounding.
ROUNDING_TOL = 1e-9


def percentile(values, q):
    """The q-th percentile (0 < q < 100), exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


class Timed:
    """Best-of-repeats durations of operations run in whole passes.

    ``operations(k)`` gives pass k as a list of (key, tag, operation); an
    operation that comes back in a later pass under the same key repeats the
    same work. Passes repeat until the operations have taken ``seconds`` in
    total, and at least ``min_passes`` times. Each operation's time is the
    least over its repeats: the repeats are spread over the run, so the
    minimum drops the sub-second jitter of a shared machine (not its slow
    phases of a minute or more). ``gate(k, outcomes)`` checks each pass
    after it ran, outside the timed region.
    """

    def __init__(self, operations, seconds, gate, tracer=None, min_passes=1):
        self.best, self.tag_of = {}, {}
        self.count = 0
        self.passes = 0
        busy = 0.0
        while self.passes < min_passes or busy < seconds:
            outcomes = []
            for key, tag, op in operations(self.passes):
                if tracer is not None:
                    tracer.op += 1
                t0 = time.perf_counter()
                outcomes.append(op())
                elapsed = time.perf_counter() - t0
                busy += elapsed
                self.count += 1
                self.best[key] = min(elapsed, self.best.get(key, elapsed))
                self.tag_of[key] = tag
            if tracer is not None:
                tracer.paused = True
            gate(self.passes, outcomes)
            if tracer is not None:
                tracer.paused = False
            self.passes += 1

    def times(self, tag=None):
        """Best time (s) of every distinct operation, or of those with ``tag``."""
        return [t for key, t in self.best.items() if tag is None or self.tag_of[key] == tag]

    def mean_ms(self):
        times = self.times()
        return 1e3 * sum(times) / len(times)


def _call(fn, *args):
    """Run one operation, turning its exception into an outcome."""
    try:
        return "ok", fn(*args)
    except piobs.NotDetectableError as exc:
        return "infeasible", exc.witnesses
    except piobs.NumericalError as exc:
        return "refused", exc
    except Exception as exc:  # any other exception is a defect; a gate reports it
        return "error", f"{type(exc).__name__}: {exc}"


class Workload:
    """A seeded input set, its timed loop, its gates and its metrics."""

    #: Operations run outside the timed loop (counted as attempted).
    EXTRA_OPS = 0
    #: Passes every timed loop makes at least.
    MIN_PASSES = 1
    #: Whole-process timings the traced run takes first (cli-session only).
    processes = None

    def __init__(self, seed):
        self.seed = seed
        self.failures = []
        # Operations whose output is wrong (a failed correctness gate): they
        # count as failed and make the run incorrect. Operations the program
        # refused with a typed NumericalError on an input it should handle
        # are counted apart, as refusals, and reported as their own metrics.
        self.failed_ops = 0
        self.refused_ops = 0

    def fail(self, message):
        self.failures.append(message)

    def prepare(self):
        """Work a fresh process does before its first timed operation."""

    def finish(self):
        """Gates that run once, after all timed passes."""

    def close(self):
        """Remove what the workload wrote."""

    def peak_rss(self):
        return peak_rss_mb()

    def timed(self, seconds, tracer=None):
        return Timed(self.operations, seconds, self.gate, tracer, self.MIN_PASSES)

    def run_traced(self, seconds):
        """Untraced, then traced, half runs over the same passes."""
        untraced = self.timed(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.timed(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        return untraced, traced, tracer


# ---------------------------------------------------------------------------
# design-sweep


class DesignSweep(Workload):
    """Designs for two seeded populations (plants.sweep_population).

    Every pass designs all the small plants (n <= 16) of both populations
    and one of ``SLICES`` slices of the larger ones, so a run repeats each
    cheap design about eight times and each expensive one about twice.
    """

    POPULATIONS = 2
    SLICES = MIN_PASSES = 4
    SMALL_N = 16

    def __init__(self, seed):
        super().__init__(seed)
        self.populations = [plants.sweep_population(seed, k) for k in range(self.POPULATIONS)]
        self.warmup = plants.make_plant(np.random.default_rng([seed, 9]), 6, 2, "observable")
        self.refused, self.feasible = {}, {}
        self.excess, self.pole_error = [], []
        self.q_mismatch = None
        self.current = []

    def prepare(self):
        piobs.design_pi_observer((self.warmup.A, self.warmup.B, self.warmup.C))

    def operations(self, k):
        self.current = [((pop, j), pl) for pop, population in enumerate(self.populations)
                        for j, pl in enumerate(population)
                        if pl.n <= self.SMALL_N or j % self.SLICES == k % self.SLICES]
        return [(key, pl.n, lambda pl=pl: _call(piobs.design_pi_observer, (pl.A, pl.B, pl.C)))
                for key, pl in self.current]

    def gate(self, k, outcomes):
        tol_eig = piobs.DesignConfig().tol_eig
        for ((pop, _), plant), (kind, value) in zip(self.current, outcomes):
            problem = None
            if not plant.feasible:
                if kind != "infeasible":
                    problem = f"undetectable plant gave {kind}: {value}"
                else:
                    dist = piobs.linalg.pairing_distance(value, plant.witnesses)
                    if dist > tol_eig:
                        problem = f"witnesses {value} miss {plant.witnesses} by {dist:.3e}"
            elif kind == "ok":
                problem = self._check_design(plant, value)
            elif kind != "refused":
                problem = f"feasible plant gave {kind}: {value}"
            if plant.feasible:
                self.feasible[plant.n] = self.feasible.get(plant.n, 0) + 1
                self.refused[plant.n] = self.refused.get(plant.n, 0) + (kind == "refused")
                self.refused_ops += kind == "refused"
            if problem:
                self.failed_ops += 1
                self.fail(f"population {pop} {plant.name} (n={plant.n}, p={plant.p}, "
                          f"{plant.kind}), pass {k}: {problem}")
        if self.q_mismatch is None:
            self.q_mismatch = sum(1 for population in self.populations for pl in population
                                  if pl.feasible
                                  and piobs.observable_dimension(pl.A, pl.C) != pl.q)

    def _check_design(self, plant, obs):
        rep = piobs.verify_design(obs)
        if not (rep.schur_ok and rep.similarity_ok and rep.phi_ok):
            return f"verify_design failed {rep.failed_checks()}"
        reportio = piobs.reportio
        text = reportio.dumps_doc(reportio.design_report_doc(obs, rep))
        back = reportio.observer_from_report(obs.system, json.loads(text))
        if not (np.array_equal(back.L, obs.L) and np.array_equal(back.F, obs.F)):
            return "report round trip changed L or F"
        # The promise: the targets, phi and the constructed hidden spectrum.
        promised = max([abs(z) for z in obs.assigned_poles]
                       + [abs(z) for z in plant.hidden]
                       + [abs(z) for z in piobs.linalg.eigenvalues(obs.phi)])
        self.excess.append(rep.spectral_radius - promised)
        closed = piobs.linalg.eigenvalues(obs.system.A + obs.K @ obs.system.C)
        self.pole_error.append(piobs.linalg.pairing_distance(
            closed, list(obs.assigned_poles) + list(obs.inherited_poles)))
        return None

    def refusals(self):
        """Refused/feasible designs per size, for the sizes with a refusal."""
        return {n: f"{self.refused[n]}/{self.feasible[n]}" for n in sorted(self.refused)
                if self.refused[n]}

    def named(self, timed):
        ms = [1e3 * t for t in timed.times()]
        return {
            "design_per_s": (1e3 * len(ms) / sum(ms), "designs/s", len(ms)),
            "design_p50_ms": (statistics.median(ms), "ms", len(ms)),
            "design_p90_ms": (percentile(ms, 90), "ms", len(ms)),
            "design_radius_excess": (max(self.excess), "dimensionless", len(self.excess)),
            "design_refusal_share_n64": (self.refused[64] / self.feasible[64],
                                         "refused/feasible", self.feasible[64]),
            "q_mismatch": (self.q_mismatch, "count", sum(map(len, self.populations))),
        }

    def layer_metrics(self, untraced, layer):
        out = {
            "analysis.q_mismatch": self.q_mismatch,
            "design.pole_error_max": max(self.pole_error),
            "design.refusal_share": sum(self.refused.values()) / sum(self.feasible.values()),
            "design.refusal_share.n64": self.refused[64] / self.feasible[64],
            "design.radius_excess": max(self.excess),
        }
        for n in (8, 24, 48, 64):
            out[f"design.ms.n{n}"] = 1e3 * statistics.median(untraced.times(n))
        return out


# ---------------------------------------------------------------------------
# simulate-long


class SimulateLong(Workload):
    EXTRA_OPS = 1  # the divergent-plant run
    #: Long against the CLI default of 200 steps, and short enough (about
    #: 0.1 s) that a run repeats each simulation some eighty times; at 20 000
    #: steps the best-of time spread three times as much from seed to seed.
    HORIZON = 5_000
    #: Steps compared against the per-step reference at the start of each run.
    PREFIX = 200

    def __init__(self, seed):
        super().__init__(seed)
        self.plants = plants.simulation_plants(seed)
        self.divergent = plants.divergent_plant(np.random.default_rng([seed, 4]))
        self.inputs = [piobs.RandomInput(amplitude=1.0, seed=seed * 10 + i)
                       for i in range(len(self.plants))]
        self.deviation = 0.0

    def prepare(self):
        self.systems = [piobs.SystemRealization(pl.A, pl.B, pl.C, name=pl.name)
                        for pl in self.plants + [self.divergent]]
        self.observers = [piobs.design_pi_observer(s) for s in self.systems]

    def _simulate(self, i):
        config = piobs.SimulationConfig(horizon=self.HORIZON, input_signal=self.inputs[i])
        trace = piobs.run_simulation(self.systems[i], self.observers[i], config)
        rate, _ = piobs.fit_decay_rate(trace)
        return trace, rate

    def operations(self, k):
        return [(i, pl.n, lambda i=i: _call(self._simulate, i)) for i, pl in enumerate(self.plants)]

    def _reference_deviation(self, i, trace):
        """Largest relative deviation of x, xhat, v from step_plant/step_observer."""
        system, observer, signal = self.systems[i], self.observers[i], self.inputs[i]
        # RandomInput draws a (horizon, m) uniform block row by row, so a
        # shorter draw from the same seed is its prefix.
        U = np.random.default_rng(signal.seed).uniform(
            -signal.amplitude, signal.amplitude, size=(self.PREFIX, system.m))
        x, xhat, v = np.ones(system.n), np.zeros(system.n), np.zeros(system.p)
        scale = max(1.0, float(np.abs(trace.x[:self.PREFIX + 1]).max()))
        dev = 0.0
        for k in range(self.PREFIX):
            x_next, y = piobs.step_plant(system, x, U[k])
            xhat, v = piobs.step_observer(system, observer, xhat, v, y, U[k])
            x = x_next
            dev = max(dev, float(np.abs(trace.x[k + 1] - x).max()),
                      float(np.abs(trace.xhat[k + 1] - xhat).max()),
                      float(np.abs(trace.v[k + 1] - v).max()))
        return dev / scale

    def gate(self, k, outcomes):
        for i, (kind, value) in enumerate(outcomes):
            problems = []
            if kind != "ok":
                problems.append(f"simulation gave {kind}: {value}")
            else:
                trace, rate = value
                dev = self._reference_deviation(i, trace)
                self.deviation = max(self.deviation, dev)
                residual = piobs.error_dynamics_check(trace, self.observers[i])
                scale = max(1.0, float(np.abs(trace.x).max()))
                if dev > ROUNDING_TOL:
                    problems.append(f"trajectory deviates from the per-step reference by {dev:.3e}")
                if residual > ROUNDING_TOL * scale:
                    problems.append(f"error-recurrence residual {residual:.3e}")
                if not rate < 1.0:
                    problems.append(f"fitted decay rate {rate} is not below 1")
            if problems:
                self.failed_ops += 1
                self.fail(f"{self.plants[i].name} pass {k}: " + "; ".join(problems))

    def finish(self):
        """The doubling plant must abort at the first step where 2**k passes the guard."""
        system, observer = self.systems[-1], self.observers[-1]
        try:
            piobs.run_simulation(system, observer, piobs.SimulationConfig(horizon=200))
        except piobs.SimulationDivergenceError as exc:
            expected = 0
            while 2.0 ** expected <= exc.limit:
                expected += 1
            if exc.step == expected:
                return
            self.fail(f"divergent plant aborted at step {exc.step}, expected {expected}")
        else:
            self.fail("divergent plant did not abort")
        self.failed_ops += 1

    def steps_per_s(self, timed, n=None):
        times = timed.times(n)
        return len(times) * self.HORIZON / sum(times)

    def named(self, timed):
        return {
            "sim_steps_per_s": (self.steps_per_s(timed), "steps/s", timed.count),
            "sim_traj_dev": (self.deviation, "relative", timed.count),
        }

    def layer_metrics(self, untraced, layer):
        flops, nbytes = [], []
        for s in self.systems[:-1]:
            n, p, m = s.n, s.p, s.m
            # One kernel step: A x, (A - LC) xhat, B u, C x, C xhat, L y, F v,
            # the vector sums and one compare per entry in the max-abs guards.
            flops.append(4 * n * n + 2 * n * m + 8 * n * p + 6 * n + 3 * p)
            # Every matrix entry read once, plus the input row and the state
            # rows written.
            nbytes.append(8 * (2 * n * n + n * m + 3 * n * p + m + 2 * n + p))
        out = {
            "sim.kernel_flops_per_step": statistics.mean(flops),
            "sim.kernel_bytes_per_step": statistics.mean(nbytes),
            "sim.traj_dev": self.deviation,
        }
        for pl in self.plants:
            out[f"sim.steps_per_s.n{pl.n}"] = self.steps_per_s(untraced, pl.n)
        return out


# ---------------------------------------------------------------------------
# cli-session


class CliSession(Workload):
    #: The report check compares sessions, so it needs two of them.
    MIN_PASSES = 2
    HORIZON = 5_000
    #: What the installed ``piobs`` console script runs.
    ENTRY = "import sys; from piobs.cli import main; sys.exit(main())"
    COMMANDS = ("analyze", "design", "verify", "simulate", "batch")

    def __init__(self, seed):
        super().__init__(seed)
        self.main_plant, self.batch = plants.cli_plants(seed)
        self.work = ROOT / ".perfbench_work" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "batch").mkdir(parents=True)
        self.system = self._write(self.main_plant, self.work / "system.json")
        self.batch_files = [self._write(pl, self.work / "batch" / f"{pl.name}.json")
                            for pl in self.batch]
        self.reference_report = None
        self.in_process = False

    @staticmethod
    def _write(plant, path):
        doc = {"format": "pi-observer-system", "version": 1, "name": plant.name,
               "A": plant.A.tolist(), "B": plant.B.tolist(), "C": plant.C.tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def prepare(self):
        piobs.cli.build_parser()

    def session(self):
        """(subcommand, argv, expected exit code) of one session, in order."""
        w, seed = self.work, str(self.seed)
        report = str(w / "report.json")
        return [
            ("analyze", ["analyze", self.system], 0),
            ("design", ["design", self.system, "--seed", seed, "--out", report], 0),
            ("verify", ["verify", self.system, report], 0),
            ("simulate", ["simulate", self.system, report, "--horizon", str(self.HORIZON),
                          "--input", "random", "--seed", seed, "--out", str(w / "trace.csv")], 0),
            ("batch", ["batch", *self.batch_files, "--seed", seed,
                       "--out-dir", str(w / "reports")], 2),
        ]

    def _process(self, argv):
        proc = subprocess.run([sys.executable, "-c", self.ENTRY, *argv], cwd=self.work,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def _in_process(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = piobs.cli.main(argv)
        return code, out.getvalue()

    def operations(self, k):
        run = self._in_process if self.in_process else self._process
        return [(j, tag, lambda argv=argv: run(argv))
                for j, (tag, argv, _) in enumerate(self.session())]

    def gate(self, k, outcomes):
        bad = set()

        def fail(index, message):
            bad.add(index)
            self.fail(f"session {k}: {message}")

        for i, ((tag, _, expected), (code, _)) in enumerate(zip(self.session(), outcomes)):
            if code != expected:
                fail(i, f"piobs {tag} exited {code}, expected {expected}")
        report = (self.work / "report.json").read_bytes()
        if self.reference_report is None:
            self.reference_report = report
        elif report != self.reference_report:
            fail(1, "two design runs with the same --seed wrote different reports")
        with open(self.work / "trace.csv", encoding="utf-8") as fh:
            rows = sum(1 for line in fh if not line.startswith("#"))
        if rows != self.HORIZON + 2:
            fail(3, f"trace.csv has {rows} lines, expected {self.HORIZON + 2}")
        statuses = [line.split("]", 1)[0] + "]" for line in outcomes[-1][1].splitlines()
                    if line.startswith("[")]
        wanted = ["[0]" if pl.feasible else "[2]" for pl in self.batch]
        if statuses != wanted:
            fail(4, f"batch statuses {statuses} differ from the expected {wanted}")
        self.failed_ops += len(bad)

    def peak_rss(self):
        # The workload's own process only waits; the peak that matters is
        # that of the largest piobs process it ran.
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def named(self, timed):
        runs = timed.passes
        return {
            "cli_design_s": (timed.times("design")[0], "s", runs),
            "cli_simulate_s": (timed.times("simulate")[0], "s", runs),
            "cli_batch_per_s": (len(self.batch) / timed.times("batch")[0], "systems/s", runs),
        }

    def run_traced(self, seconds):
        """Two sessions of processes, then untraced and traced in-process halves."""
        self.processes = self.timed(0)
        self.in_process = True
        return super().run_traced(seconds)

    def layer_metrics(self, untraced, layer):
        trace_bytes = (self.work / "trace.csv").stat().st_size
        csv_ms = layer["reportio.trace_csv_text.ms"]
        simulate_ms = 1e3 * self.processes.times("simulate")[0]
        out = {
            "reportio.trace_bytes": trace_bytes,
            "reportio.trace_mb_per_s": trace_bytes / 1e6 / (csv_ms / 1e3),
            "reportio.trace_csv_share_of_cli_simulate": csv_ms / simulate_ms,
        }
        for tag in self.COMMANDS:
            main_ms = 1e3 * untraced.times(tag)[0]
            out[f"cli.main_ms.{tag}"] = main_ms
            out[f"cli.startup_ms.{tag}"] = 1e3 * self.processes.times(tag)[0] - main_ms
        return out


def span_metrics(st):
    """Per-layer metrics read straight off the spans, for any workload.

    "Per design" divides by the design_pi_observer calls in the traced run
    (and reads 0 without any); so does a metric of a layer the workload
    never reaches.
    """
    designs = st.count("design.design_pi_observer") or float("inf")
    out = {
        "analysis.pbh_rank_at.calls_per_design": st.count("analysis.pbh_rank_at") / designs,
        "analysis.observability_matrix.calls_per_design":
            st.count("analysis.observability_matrix") / designs,
        "analysis.self_ms_per_design": st.layer_self_ms("analysis") / designs,
        "linalg.numerical_rank.calls_per_design": st.count("linalg.numerical_rank") / designs,
        "linalg.self_ms_per_design": st.layer_self_ms("linalg") / designs,
        "design.place_poles.calls_per_design": st.count("design.place_poles") / designs,
        "design.place_poles.self_ms_per_design": st.self_ms("design.place_poles") / designs,
        "design.verify_design.calls_per_op": st.count("design.verify_design") / designs,
        "design.verify_design.ms": st.mean_ms("design.verify_design"),
        "kernels.simulate.self_ms":
            st.self_ms("kernels.simulate") / max(1, st.count("kernels.simulate")),
    }
    for name in ("sim.build_input", "sim.fit_decay_rate", "reportio.trace_csv_text",
                 "reportio.dumps_doc", "reportio.design_report_doc", "reportio.load_report",
                 "reportio.observer_from_report"):
        out[f"{name}.ms"] = st.mean_ms(name)
    return out


WORKLOADS = {"design-sweep": DesignSweep, "simulate-long": SimulateLong,
             "cli-session": CliSession}
