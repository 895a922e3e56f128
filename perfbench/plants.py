"""Seeded plant generator with known structure, for the piobs benchmark.

Plants are built in the coordinates of the observability (Kalman)
decomposition,

    A_blk = [[A11, 0], [A21, A22]],   C_blk = [C1, 0],

and then rotated by a random orthogonal Q (A = Q A_blk Q^T, C = C_blk Q^T).
A11 is a random rotation of a real block-diagonal matrix whose eigenvalues
are drawn with a minimum pairwise gap, and every diagonal block has output
columns of norm at least 0.5 in C1, so (A11, C1) is observable by
construction with a healthy PBH margin. Hence, exactly:

* q, the observable dimension, is the size of A11;
* the hidden (unobservable) spectrum is the spectrum of A22, chosen here;
* the witnesses of an undetectable plant are its unstable hidden eigenvalues.

The construction costs a few QR factorisations, so a whole population is
generated in well under a second even at n = 64; a rejection sampler on the
PBH margin does not finish at n >= 24. Only numpy is imported here: the
benchmark times ``import piobs`` separately.
"""

from dataclasses import dataclass

import numpy as np

#: Magnitude bands: stable observable, unstable observable, hidden stable,
#: hidden unstable (witness). Every band stays clear of the unit circle.
OBS_STABLE = (0.2, 0.95)
OBS_UNSTABLE = (1.03, 1.15)
HIDDEN_STABLE = (0.1, 0.8)
HIDDEN_UNSTABLE = (1.05, 1.3)
MIN_GAP = 0.05
#: Range of the unobservable share of the states of a plant that has one.
HIDDEN_SHARE = (0.15, 0.4)


@dataclass(frozen=True)
class Plant:
    """A plant (A, B, C) with its structure known by construction."""

    name: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    kind: str  # "observable", "unobservable" (but detectable) or "undetectable"
    q: int
    hidden: tuple  # eigenvalues of A22
    witnesses: tuple  # unstable hidden eigenvalues

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def feasible(self):
        return self.kind != "undetectable"


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _spectrum(rng, count, bands, taken):
    """``count`` conjugate-closed eigenvalues with magnitudes in ``bands``.

    ``bands`` is a list of (probability, (lo, hi)). New values keep MIN_GAP
    from every value in ``taken`` (which is extended in place).
    """
    out = []
    probs = np.array([b[0] for b in bands], dtype=float)
    probs /= probs.sum()
    while len(out) < count:
        lo, hi = bands[rng.choice(len(bands), p=probs)][1]
        r = rng.uniform(lo, hi)
        pair = count - len(out) >= 2 and rng.uniform() < 0.6
        z = r * np.exp(1j * rng.uniform(0.15, np.pi - 0.15)) if pair else r * rng.choice((-1.0, 1.0))
        new = (z, np.conj(z)) if pair else (complex(z),)
        if all(abs(a - b) >= MIN_GAP for a in new for b in taken):
            taken.extend(new)
            out.extend(new)
    return out


def _real_blocks(values):
    """Real block-diagonal matrix with the given conjugate-closed spectrum.

    Returns the matrix and the list of (start, size) of its diagonal blocks.
    """
    size = len(values)
    M = np.zeros((size, size))
    blocks = []
    i = 0
    for z in values:
        if z.imag < 0:
            continue
        if z.imag == 0:
            M[i, i] = z.real
            blocks.append((i, 1))
            i += 1
        else:
            M[i:i + 2, i:i + 2] = [[z.real, z.imag], [-z.imag, z.real]]
            blocks.append((i, 2))
            i += 2
    return M, blocks


def _observable_pair(rng, spectrum, p):
    """Observable (A11, C1) with the given spectrum, by construction."""
    D, blocks = _real_blocks(spectrum)
    q = D.shape[0]
    C1 = rng.standard_normal((p, q))
    for start, width in blocks:
        cols = C1[:, start:start + width]
        norm = np.linalg.norm(cols)
        if norm < 0.5:
            cols *= 0.5 / max(norm, 1e-3)
    Q1 = _orthogonal(rng, q)
    return Q1 @ D @ Q1.T, C1 @ Q1.T


def make_plant(rng, n, p, kind, m=1, name="", obs_bands=None):
    """One plant of ``kind`` with n states, p outputs and m inputs."""
    if kind == "observable":
        h = 0
    else:
        if n <= p:
            raise ValueError(f"{kind} plant needs n > p, got n={n}, p={p}")
        h = int(np.clip(round(n * rng.uniform(*HIDDEN_SHARE)), 1, n - p))
    q = n - h
    taken = []
    bands = obs_bands or [(0.85, OBS_STABLE), (0.15, OBS_UNSTABLE)]
    obs = _spectrum(rng, q, bands, taken)
    if kind == "undetectable":
        width = 2 if h >= 2 and rng.uniform() < 0.5 else 1
        witnesses = _spectrum(rng, width, [(1.0, HIDDEN_UNSTABLE)], taken)
        hidden = witnesses + _spectrum(rng, h - width, [(1.0, HIDDEN_STABLE)], taken)
    else:
        witnesses = []
        hidden = _spectrum(rng, h, [(1.0, HIDDEN_STABLE)], taken)
    A11, C1 = _observable_pair(rng, obs, p)
    A = np.zeros((n, n))
    A[:q, :q] = A11
    if h:
        D2, _ = _real_blocks(hidden)
        Q2 = _orthogonal(rng, h)
        A[q:, q:] = Q2 @ D2 @ Q2.T
        A[q:, :q] = 0.3 * rng.standard_normal((h, q)) / np.sqrt(q)
    C = np.zeros((p, n))
    C[:, :q] = C1
    Q = _orthogonal(rng, n)
    return Plant(
        name=name or f"{kind}-n{n}-p{p}",
        A=Q @ A @ Q.T,
        B=rng.standard_normal((n, m)),
        C=C @ Q.T,
        kind=kind,
        q=q,
        hidden=tuple(complex(z) for z in hidden),
        witnesses=tuple(complex(z) for z in witnesses),
    )


def divergent_plant(rng):
    """Plant with one exactly-doubling mode, for the overflow-abort check.

    A = diag(2, S) in unrotated coordinates with S a stable 2x2 block, so with
    x0 = ones and zero input x1(k) = 2**k holds exactly; the observer error is
    bounded, so the run aborts at the first k with 2**k above the guard.
    """
    z = 0.6 * np.exp(1j * rng.uniform(0.3, 2.5))
    A = np.zeros((3, 3))
    A[0, 0] = 2.0
    A[1:, 1:] = [[z.real, z.imag], [-z.imag, z.real]]
    C = np.array([[1.0, *rng.uniform(0.5, 1.5, 2)]])
    return Plant(name="divergent-n3-p1", A=A, B=rng.standard_normal((3, 1)), C=C,
                 kind="observable", q=3, hidden=(), witnesses=())


#: design-sweep population per size: most plants small, a tail at 24-48, a
#: few at 64. Counts per size are fixed, so seeds change matrices, not the mix.
SWEEP_SIZES = ((4, 10), (6, 10), (8, 10), (10, 10), (12, 10), (14, 10), (16, 10),
               (24, 8), (32, 6), (40, 6), (48, 6), (64, 4))


def sweep_population(seed, index=0):
    """One design-sweep population: about 60 % observable, 30 % detectable
    but unobservable and 10 % undetectable plants.

    The (n, p, kind) of every plant is fixed; the seed and the population
    index only draw the matrices. Kinds and output counts are interleaved so
    that every size holds a spread of both.
    """
    rng = np.random.default_rng([seed, 1, index])
    plants = []
    for n, count in SWEEP_SIZES:
        n_obs = round(0.6 * count)
        n_undet = max(1, round(0.1 * count))
        n_unobs = count - n_obs - n_undet
        kinds = []
        for i in range(count):
            # Spread the rarer kinds evenly through the size's plants.
            if len(kinds) - kinds.count("observable") < (i + 1) * (n_unobs + n_undet) / count - 0.5:
                kinds.append("unobservable" if kinds.count("unobservable") < n_unobs else "undetectable")
            else:
                kinds.append("observable")
        for i, kind in enumerate(kinds):
            p = 1 + i % 4
            if kind != "observable":
                p = min(p, n - 1)
            m = 1 + i % 2
            plants.append(make_plant(rng, n, p, kind, m=m, name=f"sweep-n{n}-{i}"))
    return plants


STABLE_ONLY = [(1.0, OBS_STABLE)]


def simulation_plants(seed):
    """Schur-stable observable plants (n, p) = (2, 1), (6, 2), (24, 4)."""
    rng = np.random.default_rng([seed, 2])
    return [make_plant(rng, n, p, "observable", m=m, name=f"sim-n{n}",
                       obs_bands=STABLE_ONLY)
            for n, p, m in ((2, 1, 1), (6, 2, 2), (24, 4, 2))]


def cli_plants(seed):
    """One stable detectable plant for the single-system commands, plus the
    batch set of 30 (n <= 8, three of them undetectable)."""
    rng = np.random.default_rng([seed, 3])
    main = make_plant(rng, 6, 2, "unobservable", m=1, name="cli-main",
                      obs_bands=STABLE_ONLY)
    batch = []
    for i in range(30):
        n = int(rng.integers(2, 9))
        kind = "undetectable" if i % 10 == 9 else ("unobservable" if i % 3 == 1 else "observable")
        p = int(rng.integers(1, min(3, n - 1 if kind != "observable" else n) + 1))
        batch.append(make_plant(rng, n, p, kind, m=1, name=f"batch-{i:02d}"))
    return main, batch
