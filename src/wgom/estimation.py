"""Membership and item-parameter estimators.

Both estimators run one tail on row embeddings X: vertex search on the rows of
X, clamped simplex weights, row normalization, and an item-parameter
regression.  ``scgoma`` uses the left SVD factor of R as X and regresses on the
rank-K reconstruction; ``rmsp`` uses R for both.  The oracle variants
``ideal_scgoma`` / ``ideal_rmsp`` check that a noiseless expected matrix has
rank exactly K and then run the matching estimator, which recovers it exactly.

``_sweep_fitter`` fits every K of a class-count sweep on an already checked R
from one decomposition: one top-K_max SVD for ``scgoma``, one K_max-pick
vertex search for ``rmsp``.  ``modularity.ClassCountSweep`` is its caller.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DegenerateRankError, DimensionError, RankDeficiencyError
from .linalg import TruncatedSVD, _decompose, _leading, solve_small_inverse, top_k_svd
from .types import EstimationResult, MembershipMatrix, response_array
from .vertex_hunting import VertexIndexSet, _projection_prefix, successive_projection

IDEAL_RANK_RTOL = 1e-10
IDEAL_EXTRA_RANK_RTOL = 1e-8


def _normalize_clamped(z: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Row-normalize a clamped weight matrix, patching all-zero rows in place.

    A row that clamps to zero carries no simplex information; it gets the
    uniform membership 1/k.  Returns (pi, number of patched rows).
    """
    dead = z.sum(axis=1) <= 0.0
    z[dead] = 1.0 / k
    return z / z.sum(axis=1)[:, None], int(dead.sum())


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


def _simplex_memberships(x: np.ndarray, vertices: VertexIndexSet):
    """Z = max(0, x C' (C C')^-1) for the corners C = x[vertices], row-normalized.
    Returns (pi, number of rows that clamped to zero, C)."""
    corners = x[vertices.indices]
    gram_inv, _ = solve_small_inverse(corners @ corners.T)
    z = np.maximum(0.0, x @ corners.T @ gram_inv)
    pi, n_clamped = _normalize_clamped(z, len(vertices))
    return pi, n_clamped, corners


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
    C = U[I]; row normalization (rows that clamp to all-zero become uniform,
    and the result's ``n_clamped_rows`` counts them); item parameters
    regressed against the rank-k reconstruction.

    ``seed`` feeds the randomized SVD path, taken when min(N, J) > 50 for
    k <= 15 (see ``linalg.top_k_svd``).

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
    return _scgoma_fit(r, top_k_svd(r, k, seed=seed))


def _scgoma_fit(r: np.ndarray, svd: TruncatedSVD) -> EstimationResult:
    vertices = successive_projection(svd.left, svd.k)
    pi, n_clamped, _ = _simplex_memberships(svd.left, vertices)
    # Rank-k reconstruction target, never materialized: Rhat' Pi = V Sigma (U' Pi).
    theta = _item_regression((svd.right * svd.singulars) @ (svd.left.T @ pi), pi)
    return EstimationResult(
        membership_hat=MembershipMatrix(pi),
        item_params_hat=theta,
        pure_index_set=vertices.indices.tolist(),
        singular_values=svd.singulars,
        n_clamped_rows=n_clamped,
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
    return _rmsp_fit(r, successive_projection(r, k))


def _rmsp_fit(r: np.ndarray, vertices: VertexIndexSet) -> EstimationResult:
    pi, n_clamped, corners = _simplex_memberships(r, vertices)
    theta = _item_regression(r.T @ pi, pi)
    return EstimationResult(
        membership_hat=MembershipMatrix(pi),
        item_params_hat=theta,
        pure_index_set=vertices.indices.tolist(),
        singular_values=np.linalg.svd(corners, compute_uv=False),
        n_clamped_rows=n_clamped,
    )


def _sweep_fitter(r: np.ndarray, estimator, k_max: int, *, seed: int = 0):
    """The per-k fit of a class-count sweep over k = 1..k_max on the checked
    response array ``r`` (as ``response_array`` returns it).

    Returns ``fit(k) -> EstimationResult``, which raises what the estimator
    raises at k.  ``estimator`` is ``"scgoma"``, ``"rmsp"`` or a callable
    ``(responses, k) -> EstimationResult``, which is called once per k.

    The built-in estimators decompose R once per sweep.  ``"scgoma"`` fits k
    on the first k triplets of one top-k_max SVD seeded with ``seed``; the
    spectrum check stays per k, on that prefix.  For k_max <= 15 this equals
    ``scgoma(R, k, seed=seed)`` exactly, since every k <= 15 takes the same
    SVD path and the same 25-column sketch.  For k_max > 15 the sweep
    sketches k_max + 10 columns (or goes dense where a single fit would
    sketch 25), so where a single fit is randomized the two agree only up to
    the sketch's accuracy.  ``"rmsp"`` gives k the first k picks of one
    k_max-pick vertex search, which are exactly the picks of a k-pick
    search, since the search is greedy; if that search stops after t picks,
    every k > t raises ``RankDeficiencyError``.

    Raises ``DimensionError`` if k_max lies outside [1, min(N, J)].
    """
    if not 1 <= k_max <= min(r.shape):
        raise DimensionError(f"k={k_max} outside [1, min(N, J)] = [1, {min(r.shape)}]")
    if callable(estimator):
        return partial(estimator, r)
    if estimator == "scgoma":
        factors = _decompose(r, k_max, seed=seed)

        def fit(k):
            return _scgoma_fit(r, _leading(*factors, k))

    elif estimator == "rmsp":
        vertices, failure = _projection_prefix(r, k_max)

        def fit(k):
            if k > len(vertices):
                raise RankDeficiencyError(f"k={k} needs {k} vertices: {failure}")
            return _rmsp_fit(r, VertexIndexSet(vertices.indices[:k]))

    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return fit
