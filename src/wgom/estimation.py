"""Membership and item-parameter estimators.

Both estimators run one tail on row embeddings X: vertex search on the rows of
X, clamped simplex weights, row normalization, and an item-parameter
regression.  ``scgoma`` uses the left SVD factor of R as X and regresses on the
rank-K reconstruction; ``rmsp`` uses R for both.  The oracle variants
``ideal_scgoma`` / ``ideal_rmsp`` check that a noiseless expected matrix has
rank exactly K and then run the matching estimator, which recovers it exactly.

``_sweep_fitter`` is the one route from a method name in ``METHODS`` and a K to
a fit.  It fits every K of a class-count sweep on an already checked R from one
decomposition and one vertex search: for ``scgoma`` one top-K_max SVD and one
lockstep search over its leading prefixes U[:, :K], for ``rmsp`` one
K_max-pick search on R.  Each fit has two stages.  The membership stage
(vertex search, clamped simplex weights, row normalization) gives all that
modularity scoring reads; the finishing stage (item regression, the singular
values of the inverted system, the frozen ``EstimationResult``) runs only for
a fit that is asked for.  A single fit, oracles included, is the K-th fit of
a one-K sweep; ``modularity.ClassCountSweep`` caches both stages of a longer
one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateRankError, DimensionError, RankDeficiencyError
from .linalg import TruncatedSVD, _check_spectrum, _decompose, _leading, _spectrum_rank, solve_small_inverse
from .types import EstimationResult, MembershipMatrix, _check_seed, _is_count, response_array
from .vertex_hunting import _projection_searches

METHODS = ("scgoma", "rmsp")
IDEAL_RANK_RTOL = 1e-10
IDEAL_EXTRA_RANK_RTOL = 1e-8


class _Memberships(NamedTuple):
    """The membership stage of a fit at k: the row-normalized memberships
    ``pi``, all that modularity scoring reads, and what finishing needs."""

    pi: np.ndarray
    n_clamped_rows: int
    vertices: np.ndarray
    # The rank-k system the fit inverted: scgoma's top-k TruncatedSVD of R,
    # rmsp's vertex rows R[I].
    system: TruncatedSVD | np.ndarray


def _normalize_clamped(z: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Row-normalize a clamped weight matrix in place.

    A row that clamps to zero carries no simplex information; it gets the
    uniform membership 1/k.  The rows are summed once, and only patched rows
    again.  Returns (pi, number of patched rows), where pi is ``z``.
    """
    sums = z.sum(axis=1)
    dead = (sums <= 0.0).nonzero()[0]
    if len(dead):
        z[dead] = 1.0 / k
        sums[dead] = z[dead].sum(axis=1)
    z /= sums[:, None]
    return z, len(dead)


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


def _simplex_memberships(x: np.ndarray, vertices: np.ndarray):
    """Z = max(0, x C' (C C')^-1) for the corners C = x[vertices], row-normalized.
    Returns (pi, number of rows that clamped to zero, C)."""
    corners = x[vertices]
    gram_inv, _ = solve_small_inverse(corners @ corners.T)
    z = np.maximum(0.0, x @ corners.T @ gram_inv)
    pi, n_clamped = _normalize_clamped(z, len(vertices))
    return pi, n_clamped, corners


def _item_regression(target_t_pi: np.ndarray, pi: np.ndarray) -> np.ndarray:
    # Theta = M' Pi (Pi' Pi)^{-1} for the relevant target M, given M' Pi.
    gram_inv, _ = solve_small_inverse(pi.T @ pi)
    return target_t_pi @ gram_inv


def _ideal_fit(expected, method: str, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    r0 = response_array(expected)
    if not _is_count(k):
        raise DimensionError(f"k={k!r} is not an integer")
    _check_exact_rank(r0, k)
    result = _single_fit(r0, method, k)
    return result.membership_hat, result.item_params_hat


def ideal_scgoma(expected, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    """Exact recovery from a noiseless expected matrix via its top-k SVD.

    Returns (membership, item_params), both exact up to one common column
    permutation for any valid model.  Raises ``DegenerateRankError`` unless
    the input has rank exactly k.
    """
    return _ideal_fit(expected, "scgoma", k)


def scgoma(responses, k: int, *, seed: int = 0) -> EstimationResult:
    """Spectral membership estimation from a noisy response matrix.

    Steps: top-k SVD of R; vertex search on the rows of the left factor U;
    clamped simplex weights Z = max(0, U C' (C C')^-1) for the corner rows
    C = U[I]; row normalization (rows that clamp to all-zero become uniform,
    and the result's ``n_clamped_rows`` counts them); item parameters
    regressed against the rank-k reconstruction.

    ``seed`` feeds the randomized SVD path, taken when min(N, J) > 50 for
    k <= 15 (see the ``linalg`` module docstring).

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
    return _single_fit(response_array(responses), "scgoma", k, seed=seed)


def _scgoma_fit(svd: TruncatedSVD, vertices: np.ndarray) -> _Memberships:
    pi, n_clamped, _ = _simplex_memberships(svd.left, vertices)
    return _Memberships(pi, n_clamped, vertices, svd)


def _scgoma_finish(fit: _Memberships) -> EstimationResult:
    svd = fit.system
    # Rank-k reconstruction target, never materialized: Rhat' Pi = V Sigma (U' Pi).
    theta = _item_regression((svd.right * svd.singulars) @ (svd.left.T @ fit.pi), fit.pi)
    return _result(fit, theta, svd.singulars)


def ideal_rmsp(expected, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    """Exact recovery via the raw rows; rank checked as in ``ideal_scgoma``."""
    return _ideal_fit(expected, "rmsp", k)


def rmsp(responses, k: int) -> EstimationResult:
    """Raw-row membership estimation: vertex search on R itself, no SVD.

    ``singular_values`` holds the singular values of the selected vertex rows
    R[I] (the rank-k system inverted here).  Errors mirror ``scgoma``; an
    all-zero response matrix surfaces as a vertex-search rank deficiency.
    """
    return _single_fit(response_array(responses), "rmsp", k)


def _rmsp_fit(r: np.ndarray, vertices: np.ndarray) -> _Memberships:
    pi, n_clamped, corners = _simplex_memberships(r, vertices)
    return _Memberships(pi, n_clamped, vertices, corners)


def _rmsp_finish(r: np.ndarray, fit: _Memberships) -> EstimationResult:
    theta = _item_regression(r.T @ fit.pi, fit.pi)
    return _result(fit, theta, np.linalg.svd(fit.system, compute_uv=False))


def _result(fit: _Memberships, theta: np.ndarray, singular_values: np.ndarray) -> EstimationResult:
    return EstimationResult(
        membership_hat=MembershipMatrix(fit.pi),
        item_params_hat=theta,
        pure_index_set=fit.vertices.tolist(),
        singular_values=singular_values,
        n_clamped_rows=fit.n_clamped_rows,
    )


def _single_fit(r: np.ndarray, method: str, k: int, *, seed: int = 0) -> EstimationResult:
    """The finished K-th fit of a one-K sweep: what every single fit returns."""
    memberships, finish = _sweep_fitter(r, method, k, seed=seed)
    return finish(memberships(k))


def _sweep_fitter(r: np.ndarray, estimator, k_max: int, *, seed: int = 0):
    """The two stages of each fit of a class-count sweep over k = 1..k_max on
    the checked response array ``r`` (as ``response_array`` returns it).

    Returns ``(memberships, finish)``.  ``memberships(k)`` runs the membership
    stage at k and raises what the estimator raises there; its ``pi`` is all
    that modularity scoring reads, so selecting a class count calls only
    this.  ``finish(memberships(k))`` runs the item regression and builds the
    ``EstimationResult``, only for the fits someone asks for.  ``estimator``
    is a name in ``METHODS``, and R is decomposed once per sweep.
    ``"scgoma"`` makes one top-k_max SVD seeded with ``seed`` and one
    lockstep search over its leading prefixes U[:, :k]
    (``vertex_hunting._projection_searches``).  It fits k on the first k
    triplets and the k-th search's picks, which are those of a k-pick search
    on U[:, :k].  The spectrum check stays per k, on that prefix; since it
    fails at every k past its first failure, signs are fixed once, on the
    longest passing prefix, and the search covers that prefix's ks.  For
    k_max <= 15 this equals ``scgoma(R, k, seed=seed)`` exactly, since every
    k <= 15 takes the same SVD path and the same 25-column sketch.  For
    k_max > 15 the sweep sketches k_max + 10 columns (or goes dense where a
    single fit would sketch 25), so where a single fit is randomized the two
    agree only up to the sketch's accuracy.  ``"rmsp"`` gives k the first k
    picks of one k_max-pick vertex search, which are exactly the picks of a
    k-pick search, since the search is greedy; if that search stops after t
    picks, every k > t raises ``RankDeficiencyError``.

    Raises ``DimensionError`` if k_max is not an integer (a bool is not) in
    [1, min(N, J)], and ``ConfigError`` for an unknown method name or a seed
    that is not an integer >= 0.
    """
    if not (_is_count(k_max) and 1 <= k_max <= min(r.shape)):
        raise DimensionError(f"k={k_max!r} outside [1, min(N, J)] = [1, {min(r.shape)}]")
    _check_seed(seed)
    if not isinstance(estimator, str) or estimator not in METHODS:
        raise ConfigError(f"unknown estimator {estimator!r}; expected one of {METHODS}")
    if estimator == "scgoma":
        u, s, vt = _decompose(r, k_max, seed=seed)
        # Signs are fixed per column, so one fix serves every passing prefix.
        k_ok = _spectrum_rank(s, k_max)
        top = _leading(u, s, vt, k_ok) if k_ok else None
        widths = range(1, k_ok + 1)
        searches = _projection_searches(top.left, widths, widths) if k_ok else []

        def scgoma_memberships(k):
            if k > k_ok:
                _check_spectrum(s, k)
            vertices, failure = searches[k - 1]
            if failure is not None:
                raise RankDeficiencyError(failure)
            prefix = TruncatedSVD(top.left[:, :k].copy(), top.singulars[:k].copy(), top.right[:, :k].copy())
            return _scgoma_fit(prefix, vertices)

        return scgoma_memberships, _scgoma_finish
    vertices, failure = _projection_searches(r, [r.shape[1]], [k_max])[0]

    def memberships(k):
        if k > len(vertices):
            raise RankDeficiencyError(f"k={k} needs {k} vertices: {failure}")
        return _rmsp_fit(r, vertices[:k])

    return memberships, lambda fit: _rmsp_finish(r, fit)
