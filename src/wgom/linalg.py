"""Numerical kernels: truncated SVD and small-matrix inversion.

The top-k SVD has two paths.  The randomized one is a seeded range finder
with four orthonormalized power iterations (Halko, Martinsson & Tropp 2011)
that sketches ell = min(max(k + 10, 25), min(N, J)) columns.  Every k <= 15
thus draws the same 25-column sketch for a given seed, and its top-k factors
are exactly the leading k of the top-15 ones.  The dense path is the full
thin SVD.  ``method="auto"`` takes it only where the sketch would cover half
of min(N, J) or more (2 ell >= min(N, J)), which for k <= 15 means
min(N, J) <= 50.  There a sketch saves no time and its singular values drift
measurably from the exact ones (4e-8 on a 50 x 30 Gaussian matrix at k = 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRankError, DimensionError

SKETCH_MIN_WIDTH = 25
SKETCH_OVERSAMPLE = 10
POWER_ITERATIONS = 4
DEGENERATE_RTOL = 1e-12
PINV_FALLBACK_RTOL = 1e-10
SMALL_INVERSE_MAX_SIDE = 64


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-k factors: left (N x k), singulars (k, nonincreasing), right (J x k)."""

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    @property
    def k(self) -> int:
        return len(self.singulars)

    def reconstruct(self) -> np.ndarray:
        """Best rank-k approximation left @ diag(singulars) @ right.T."""
        return (self.left * self.singulars) @ self.right.T


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> None:
    # Deterministic orientation: the largest-magnitude entry of each left
    # singular vector is made nonnegative (argmax already breaks ties low).
    for j in range(u.shape[1]):
        pivot = np.argmax(np.abs(u[:, j]))
        if u[pivot, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]


def _check_spectrum(s: np.ndarray, k: int) -> None:
    if s[0] <= 0.0 or s[k - 1] < DEGENERATE_RTOL * s[0]:
        raise DegenerateRankError(
            f"matrix is numerically rank deficient: sigma_{k} = {s[k - 1]:.3g} "
            f"with sigma_1 = {s[0]:.3g}"
        )


def top_k_svd(matrix, k: int, *, seed: int = 0, method: str = "auto") -> TruncatedSVD:
    """Top-k singular value decomposition of a dense real matrix.

    Parameters
    ----------
    matrix : (N, J) array_like
    k : int
        Number of leading singular triplets, 1 <= k <= min(N, J).
    seed : int
        Seed for the randomized path; ignored by the dense path.
    method : {"auto", "dense", "randomized"}
        "auto" picks dense when the randomized sketch of
        min(max(k + 10, 25), min(N, J)) columns would cover half of
        min(N, J) or more, randomized otherwise.

    Raises
    ------
    DimensionError
        If k exceeds min(N, J).
    DegenerateRankError
        If sigma_k < 1e-12 * sigma_1 (numerically rank deficient).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    n, m = a.shape
    if not 1 <= k <= min(n, m):
        raise DimensionError(f"k={k} outside [1, min(N, J)] = [1, {min(n, m)}]")
    if method not in ("auto", "dense", "randomized"):
        raise ValueError(f"unknown method {method!r}")
    return _leading(*_decompose(a, k, seed=seed, method=method), k)


def _decompose(a: np.ndarray, k: int, *, seed: int = 0, method: str = "auto"):
    """Unchecked ``(u, s, vt)`` holding at least the top-k triplets of ``a``.

    The dense path returns the full thin SVD.  The randomized path sketches
    ``_sketch_width(k, min(N, J))`` columns, 25 for every k <= 15, and
    ``"auto"`` chooses by that width, so for a given seed every k <= 15 gets
    the same path and the same leading triplets.
    """
    if method == "auto":
        side = min(a.shape)
        method = "dense" if 2 * _sketch_width(k, side) >= side else "randomized"
    if method == "dense":
        return np.linalg.svd(a, full_matrices=False)
    return _randomized_svd(a, k, seed=seed)


def _leading(u: np.ndarray, s: np.ndarray, vt: np.ndarray, k: int) -> TruncatedSVD:
    """The first k triplets of a decomposition as contiguous, sign-fixed
    copies, after the spectrum check at k.  Sign fixing is per column, so the
    result does not depend on how many triplets the decomposition holds."""
    _check_spectrum(s, k)
    u = u[:, :k].copy()
    s = s[:k].copy()
    vt = vt[:k, :].copy()
    _fix_signs(u, vt)
    return TruncatedSVD(left=u, singulars=s, right=vt.T.copy())


def _sketch_width(k: int, side: int) -> int:
    return min(max(k + SKETCH_OVERSAMPLE, SKETCH_MIN_WIDTH), side)


def _randomized_svd(a: np.ndarray, k: int, *, seed: int = 0):
    """Halko-style range finder with orthonormalized power iterations."""
    ell = _sketch_width(k, min(a.shape))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((a.shape[1], ell))
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(POWER_ITERATIONS):
        w, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ w)
    b = q.T @ a
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return q @ ub, s, vt


def solve_small_inverse(matrix) -> tuple[np.ndarray, bool]:
    """Invert a small square matrix, falling back to the pseudo-inverse.

    Returns ``(inverse, used_pseudo)``.  The fallback triggers when the
    smallest singular value drops below 1e-10 times the largest (or the matrix
    is exactly zero), so a result is always produced.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > SMALL_INVERSE_MAX_SIDE:
        raise DimensionError(
            f"matrix side {a.shape[0]} exceeds the small-inverse limit "
            f"{SMALL_INVERSE_MAX_SIDE}"
        )
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] < PINV_FALLBACK_RTOL * s[0]:
        return np.linalg.pinv(a), True
    return np.linalg.inv(a), False
