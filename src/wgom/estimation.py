"""Membership and item-parameter estimators.

Both estimators run one tail on row embeddings X: vertex search on the rows of
X, clamped simplex weights, row normalization, and an item-parameter
regression.  ``scgoma`` uses the left SVD factor of R as X and regresses on the
rank-K reconstruction; ``rmsp`` uses R for both.  The oracle variants
``ideal_scgoma`` / ``ideal_rmsp`` check that a noiseless expected matrix has
rank exactly K and then run the matching estimator, which recovers it exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateRankError
from .linalg import top_k_svd, solve_small_inverse
from .types import EstimationResult, MembershipMatrix, response_array
from .vertex_hunting import successive_projection

IDEAL_RANK_RTOL = 1e-10
IDEAL_EXTRA_RANK_RTOL = 1e-8


def _normalize_clamped(z: np.ndarray, k: int, method: str) -> np.ndarray:
    """Row-normalize a clamped weight matrix, patching all-zero rows.

    A row that clamps to zero carries no simplex information; it gets the
    uniform membership 1/k.  Patched rows are reported via a warning.
    """
    sums = z.sum(axis=1)
    dead = sums <= 0.0
    n_dead = int(dead.sum())
    if n_dead:
        if k > 1:
            # At k = 1 the fallback is the only possible membership anyway.
            warnings.warn(
                f"{method}: {n_dead} subject rows clamped to zero; assigned "
                f"uniform membership 1/{k}",
                RuntimeWarning,
                stacklevel=4,
            )
        z = z.copy()
        z[dead] = 1.0 / k
        sums = z.sum(axis=1)
    return z / sums[:, None]


def _check_exact_rank(matrix: np.ndarray, k: int) -> None:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[0] == 0.0 or len(s) < k or s[k - 1] <= IDEAL_RANK_RTOL * s[0]:
        raise DegenerateRankError(
            f"expected matrix has rank below {k} "
            f"(sigma_{k}/sigma_1 = {s[min(k, len(s)) - 1] / s[0] if s[0] else 0.0:.3g})"
        )
    if len(s) > k and s[k] > IDEAL_EXTRA_RANK_RTOL * s[0]:
        raise DegenerateRankError(
            f"expected matrix has rank above {k} "
            f"(sigma_{k + 1}/sigma_1 = {s[k] / s[0]:.3g}); "
            f"oracle recovery needs an exactly rank-{k} input"
        )


def _simplex_memberships(x: np.ndarray, k: int, method: str):
    """Vertex search on the rows of x, then Z = max(0, x C' (C C')^-1) for the
    corners C = x[vertices], row-normalized.  Returns (pi, vertices, C)."""
    vertices = successive_projection(x, k)
    corners = x[vertices.indices]
    gram_inv, _ = solve_small_inverse(corners @ corners.T)
    z = np.maximum(0.0, x @ corners.T @ gram_inv)
    return _normalize_clamped(z, k, method), vertices, corners


def _item_regression(target_t_pi: np.ndarray, pi: np.ndarray) -> np.ndarray:
    # Theta = M' Pi (Pi' Pi)^{-1} for the relevant target M, given M' Pi.
    gram_inv, _ = solve_small_inverse(pi.T @ pi)
    return target_t_pi @ gram_inv


def ideal_scgoma(expected, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    """Exact recovery from a noiseless expected matrix via its top-k SVD.

    Returns (membership, item_params), both exact up to one common column
    permutation for any valid model.  Raises ``DegenerateRankError`` unless
    the input has rank exactly k.
    """
    r0 = response_array(expected)
    _check_exact_rank(r0, k)
    result = scgoma(r0, k)
    return result.membership_hat, result.item_params_hat


def scgoma(responses, k: int, *, seed: int = 0) -> EstimationResult:
    """Spectral membership estimation from a noisy response matrix.

    Steps: top-k SVD of R; vertex search on the rows of the left factor U;
    clamped simplex weights Z = max(0, U C' (C C')^-1) for the corner rows
    C = U[I]; row normalization (rows that clamp to all-zero become uniform);
    item parameters regressed against the rank-k reconstruction.

    ``seed`` feeds the randomized SVD path used for large matrices.

    Raises
    ------
    DataFormatError
        If R has a nan or inf entry.
    DegenerateRankError
        If the top-k spectrum of R is numerically degenerate (including an
        all-zero response matrix).
    RankDeficiencyError
        If the vertex search exhausts the residual early.
    DimensionError
        If k exceeds min(N, J).
    """
    r = response_array(responses)
    svd = top_k_svd(r, k, seed=seed)
    pi, vertices, _ = _simplex_memberships(svd.left, k, "scgoma")
    # Rank-k reconstruction target, never materialized: Rhat' Pi = V Sigma (U' Pi).
    theta = _item_regression((svd.right * svd.singulars) @ (svd.left.T @ pi), pi)
    return EstimationResult(
        membership_hat=MembershipMatrix(pi),
        item_params_hat=theta,
        pure_index_set=vertices.indices.tolist(),
        singular_values=svd.singulars,
    )


def ideal_rmsp(expected, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    """Exact recovery via the raw rows; rank checked as in ``ideal_scgoma``."""
    r0 = response_array(expected)
    _check_exact_rank(r0, k)
    result = rmsp(r0, k)
    return result.membership_hat, result.item_params_hat


def rmsp(responses, k: int) -> EstimationResult:
    """Raw-row membership estimation: vertex search on R itself, no SVD.

    ``singular_values`` holds the singular values of the selected vertex rows
    R[I] (the rank-k system inverted here).  Errors mirror ``scgoma``; an
    all-zero response matrix surfaces as a vertex-search rank deficiency.
    """
    r = response_array(responses)
    pi, vertices, corners = _simplex_memberships(r, k, "rmsp")
    theta = _item_regression(r.T @ pi, pi)
    return EstimationResult(
        membership_hat=MembershipMatrix(pi),
        item_params_hat=theta,
        pure_index_set=vertices.indices.tolist(),
        singular_values=np.linalg.svd(corners, compute_uv=False),
    )
