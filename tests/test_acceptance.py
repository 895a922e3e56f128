"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The randomized sweeps are
fully seeded, so every run exercises the same systems.
"""

import time

import numpy as np
import pytest

import gen_systems as gen
import oracles
from piobs import (
    DesignConfig,
    NotDetectableError,
    RandomInput,
    SimulationConfig,
    SystemRealization,
    ZeroInput,
    analysis,
    design_pi_observer,
    linalg,
    place_poles,
    run_simulation,
    verify_design,
)

SWEEP_SEED = 20260801
SWEEP_SIZE = 500


def report_pass(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}", flush=True)


@pytest.fixture(scope="module")
def design_sweep():
    """500 seeded random detectable systems with their designed observers."""
    rng = np.random.default_rng(SWEEP_SEED)
    started = time.perf_counter()
    out = []
    for _ in range(SWEEP_SIZE):
        system = gen.random_detectable_system(rng)
        observer = design_pi_observer(system)
        out.append((system, observer, verify_design(observer)))
    elapsed = time.perf_counter() - started
    print(f"\n[design sweep: {SWEEP_SIZE} systems in {elapsed:.1f} s]", flush=True)
    return out


def test_criterion_1_worked_scalar_design():
    system = SystemRealization(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    observer = design_pi_observer(
        system, DesignConfig(target_poles=(0.2,), phi=0.3)
    )
    assert abs(observer.L[0, 0] - 1.0) <= 1e-9
    assert abs(observer.F[0, 0] - 0.56) <= 1e-9
    spectrum = linalg.eigenvalues(observer.augmented())
    assert linalg.pairing_distance(spectrum, [0.2, 0.3]) <= 1e-9
    report_pass(1, "scalar design gives L=1.0, F=0.56, spectrum {0.2, 0.3}")


def test_criterion_2_randomized_sufficiency(design_sweep):
    assert len(design_sweep) == SWEEP_SIZE
    worst = max(rep.spectral_radius for _, _, rep in design_sweep)
    assert worst < 1.0 - 5e-7
    report_pass(
        2,
        f"{SWEEP_SIZE}/{SWEEP_SIZE} random detectable systems designed; "
        f"worst augmented radius {worst:.6f}",
    )


def test_criterion_3_spectrum_splitting(design_sweep):
    worst = max(rep.spectrum_distance for _, _, rep in design_sweep)
    assert worst <= 1e-6
    report_pass(
        3,
        f"augmented spectrum always splits into sigma(A+KC) and sigma(phi); "
        f"worst pairing distance {worst:.2e}",
    )


def test_criterion_4_necessity_with_witnesses():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    hits = 0
    for _ in range(100):
        system, bad = gen.random_nondetectable_system(rng)
        with pytest.raises(NotDetectableError) as err:
            design_pi_observer(system)
        witnesses = np.asarray(err.value.witnesses)
        for lam in bad:
            assert np.min(np.abs(witnesses - lam)) <= 1e-7
        for w in witnesses:
            assert min(abs(w - lam) for lam in bad) <= 1e-7
        hits += 1
    assert hits == 100
    report_pass(4, "100/100 hidden-unstable-mode systems rejected with the "
                   "correct witness eigenvalue")


def test_criterion_5_convergence_and_input_independence(design_sweep):
    rng = np.random.default_rng(SWEEP_SEED + 2)
    eligible = 0
    worst_gap = 0.0
    worst_step = 0
    for i, (system, observer, rep) in enumerate(design_sweep):
        if rep.spectral_radius > 0.9:
            continue
        eligible += 1
        x0 = rng.uniform(-1.0, 1.0, system.n)
        xhat0 = rng.uniform(-1.0, 1.0, system.n)
        traces = [
            run_simulation(
                system, observer,
                SimulationConfig(
                    horizon=500, x0=x0, xhat0=xhat0, v0=np.zeros(system.p),
                    input_signal=sig, convergence_tol=1e-6,
                ),
            )
            for sig in (RandomInput(amplitude=1.0, seed=i), ZeroInput())
        ]
        assert traces[0].converged_step is not None
        worst_step = max(worst_step, traces[0].converged_step)
        gap = max(
            np.abs(traces[0].e[:201] - traces[1].e[:201]).max(),
            np.abs(traces[0].v[:201] - traces[1].v[:201]).max(),
        )
        worst_gap = max(worst_gap, gap)
        assert gap <= 5e-9
    assert eligible == SWEEP_SIZE  # defaults keep every design below 0.9
    report_pass(
        5,
        f"all {eligible} designs converge below 1e-6 within 500 steps "
        f"(worst first crossing {worst_step}); error input-independence "
        f"gap {worst_gap:.1e}",
    )


def test_criterion_6_pole_placement_accuracy():
    rng = np.random.default_rng(SWEEP_SEED + 3)
    worst = worst_eig = 0.0
    for i in range(200):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, min(3, n) + 1))
        radius = float(rng.uniform(0.3, 1.3))
        A, C = gen.random_observable_pair(rng, n, p, radius)
        targets = list(np.linspace(0.1, 0.5, n).astype(complex))
        if n >= 2 and i % 2:
            targets[0] = 0.3 + 0.15j
            targets[1] = 0.3 - 0.15j
        K = place_poles(A, C, targets, seed=i)
        err = oracles.assignment_error(A, C, K, oracles.target_coeffs(targets))
        worst = max(worst, err)
        assert err <= 1e-6
        dist = linalg.pairing_distance(linalg.eigenvalues(A + K @ C), targets)
        worst_eig = max(worst_eig, dist)
        assert dist <= 1e-6
    report_pass(
        6, f"200/200 placements match the target polynomial and the target "
           f"poles; worst relative coefficient error {worst:.2e}, worst "
           f"eigenvalue distance {worst_eig:.2e}",
    )


def test_criterion_7_decomposition_fidelity():
    rng = np.random.default_rng(SWEEP_SEED + 4)
    for _ in range(100):
        system = gen.random_detectable_system(rng, force_unobservable=True)
        dec = analysis.kalman_decompose(system.A, system.C)
        assert dec.q < system.n
        assert np.abs(dec.reconstruct() - system.A).max() <= 1e-8
        assert analysis.is_observable(dec.A11, dec.C1)
        assert analysis.is_schur_stable(dec.A22)
    report_pass(7, "100/100 staircase decompositions reconstruct A, expose an "
                   "observable block and a Schur-stable hidden block")


def test_criterion_8_pbh_matches_exact_rational_oracle():
    rng = np.random.default_rng(SWEEP_SEED + 5)
    agreements = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, min(3, n) + 1))
        A, C = gen.random_integer_pair(rng, n, p)
        reps = np.unique(np.round(linalg.eigenvalues(A), 7))
        pbh = all(analysis.pbh_rank_at(A, C, z) == n for z in reps)
        exact = oracles.exact_observability_rank(A.tolist(), C.tolist()) == n
        assert pbh == exact
        agreements += 1
    assert agreements == 200
    report_pass(8, "200/200 integer pairs: PBH observability matches the "
                   "exact-rational observability-stack rank")


def test_criterion_9_free_block_invariance(design_sweep):
    rng = np.random.default_rng(SWEEP_SEED + 6)
    checked = 0
    worst = 0.0
    for system, _, _ in design_sweep:
        if system.n == system.p:
            continue
        lam_shape = (system.n - system.p, system.p)
        spectra = [
            linalg.eigenvalues(
                design_pi_observer(
                    system, DesignConfig(lambda_block=rng.standard_normal(lam_shape))
                ).augmented()
            )
            for _ in range(2)
        ]
        gap = linalg.pairing_distance(spectra[0], spectra[1])
        worst = max(worst, gap)
        assert gap <= 1e-6
        checked += 1
        if checked == 50:
            break
    assert checked == 50
    report_pass(
        9, f"50/50 designs keep the same augmented spectrum under two random "
           f"free blocks; worst multiset gap {worst:.2e}",
    )
