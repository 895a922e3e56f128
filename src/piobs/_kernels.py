"""The co-simulation kernel: plant and observer advanced as one linear system.

The stacked state z = [x; xhat; v] obeys z(k+1) = Phi z(k) + Gamma u(k) with
Phi = [[A, 0, 0], [LC, A - LC, F], [C, -C, I]] and Gamma u = [Bu; Bu; 0]. One
matmul writes Bu into the x columns of the output rows; each block of rows then
copies it into its xhat columns and adds Phi z(k) in place, step by step. The
copy runs per block because a full-horizon copy between two column ranges of
one array makes numpy buffer an (H, n) temporary. The overflow guard runs once
per block of rows, and its first row over the limit is exactly the stepwise
abort step.
"""

import numpy as np

#: Rows advanced between two overflow checks.
_BLOCK = 256


@np.errstate(over="ignore", invalid="ignore")  # the guard below judges every row
def simulate(A, B, C, L, F, U, x0, xhat0, v0, limit):
    """Return ``(X, Xhat, V, abort_step)``, column views of one stacked array.

    ``abort_step`` is the first k whose state has an entry above ``limit`` in
    magnitude or a NaN, or -1 for a clean run.
    """
    A, B, C, L, F, U = (np.asarray(M, dtype=float) for M in (A, B, C, L, F, U))
    n, p, H = A.shape[0], C.shape[0], U.shape[0]
    LC = L @ C
    step = np.block([[A, np.zeros((n, n + p))], [LC, A - LC, F], [C, -C, np.eye(p)]]).dot
    Z = np.zeros((H + 1, 2 * n + p))
    Z[0] = np.concatenate([x0, xhat0, v0])
    np.matmul(U, B.T, out=Z[1:, :n])
    abort = -1
    for start in range(1, H + 1, _BLOCK):
        block = Z[start:start + _BLOCK]
        block[:, n:2 * n] = block[:, :n]
        prev = Z[start - 1]
        for z in block:
            z += step(prev)
            prev = z
        over = ~(np.abs(block).max(axis=1) <= limit)  # NaN rows too
        if over.any():
            abort = start + int(np.argmax(over))
            break
    return Z[:, :n], Z[:, n:2 * n], Z[:, 2 * n:], abort
