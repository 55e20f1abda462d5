"""Numerical kernels: truncated SVD and small-matrix inversion.

The top-k SVD follows one rule.  It is the full thin SVD where a sketch of
ell = min(max(k + 10, 25), min(N, J)) columns would cover half of min(N, J)
or more (2 ell >= min(N, J)), which for k <= 15 means min(N, J) <= 50.  There
a sketch saves no time and its singular values drift measurably from the
exact ones (4e-8 on a 50 x 30 Gaussian matrix at k = 5).  Everywhere else it
is a seeded range finder on that sketch with four orthonormalized power
iterations (Halko, Martinsson & Tropp 2011).  Every k <= 15 thus takes the
same path, and on the randomized one draws the same 25-column sketch for a
given seed, so its top-k factors are exactly the leading k of the top-15 ones.

Every product of a response matrix with a thin factor of several columns puts
the thin operand on the left and transposes the result back: the range finder
forms A Omega, A' Q and A W as (Omega' A')', (Q' A)' and (W' A')', and
``modularity``'s trace and ``estimation``'s simplex weights and rmsp
regression form R' pi and X C' as (pi' R)' and (C X')'.  (One-column products
time the same either way.)  OpenBLAS runs this orientation faster on tall
operands.  At 2000 x 1000 with 25 columns (2-core Xeon, OpenBLAS 0.3.31, 2
threads), A' Q takes 4.9 ms against 2.5 ms for (Q' A)', A W 3.3 ms against
2.5 ms, and one randomized SVD 67 ms against 51 ms.  The rule changes rounding only: each entry is the same dot product,
but BLAS may pick another kernel for it, so the last bit can differ from the
other orientation's.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRankError

SKETCH_MIN_WIDTH = 25
SKETCH_OVERSAMPLE = 10
POWER_ITERATIONS = 4
DEGENERATE_RTOL = 1e-12
PINV_FALLBACK_RTOL = 1e-10


def _check_spectrum(s: np.ndarray, k: int) -> None:
    if not (s[0] > 0.0 and s[k - 1] >= DEGENERATE_RTOL * s[0]):
        raise DegenerateRankError(
            f"matrix is numerically rank deficient: sigma_{k} = {s[k - 1]:.3g} "
            f"with sigma_1 = {s[0]:.3g}"
        )


def _decompose(a: np.ndarray, k: int, *, seed: int = 0):
    """Unchecked ``(u, s, vt)`` holding at least the top-k triplets of ``a``,
    by the module's one rule: for a given seed every k <= 15 gets the same
    path and the same leading triplets."""
    side = min(a.shape)
    if 2 * _sketch_width(k, side) >= side:
        return np.linalg.svd(a, full_matrices=False)
    return _randomized_svd(a, k, seed=seed)


def _sketch_width(k: int, side: int) -> int:
    return min(max(k + SKETCH_OVERSAMPLE, SKETCH_MIN_WIDTH), side)


def _randomized_svd(a: np.ndarray, k: int, *, seed: int = 0):
    """Halko-style range finder with orthonormalized power iterations."""
    ell = _sketch_width(k, min(a.shape))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((a.shape[1], ell))
    q, _ = np.linalg.qr((omega.T @ a.T).T)
    for _ in range(POWER_ITERATIONS):
        w, _ = np.linalg.qr((q.T @ a).T)
        q, _ = np.linalg.qr((w.T @ a.T).T)
    b = q.T @ a
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return q @ ub, s, vt


def solve_small_inverse(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Invert a square float matrix, falling back to the pseudo-inverse.

    Returns ``(inverse, used_pseudo)``.  The side is not limited (the
    estimators pass K x K Gram matrices).  The fallback triggers when the
    smallest singular value drops below 1e-10 times the largest (or the
    matrix is exactly zero), so a result is always produced.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[0] == 0.0 or s[-1] < PINV_FALLBACK_RTOL * s[0]:
        return np.linalg.pinv(matrix), True
    return np.linalg.inv(matrix), False
