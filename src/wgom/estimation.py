"""Membership and item-parameter estimators.

Both estimators run one pipeline on row embeddings X: vertex search on the
rows of X, clamped simplex weights, row normalization, and an item-parameter
regression.  ``scgoma`` uses the left SVD factor U of R as X and regresses on
the rank-K reconstruction; ``rmsp`` uses R for both.  U and V keep the
signs the SVD gives them: flipping a column of both negates both factors of
every product term a fit forms from them (row norms, X C', C C', U' Pi and
V Sigma (U' Pi)), and negation is exact, so no output bit depends on them.
The oracle variants
``ideal_scgoma`` / ``ideal_rmsp`` check that a noiseless expected matrix has
rank exactly K and then run the matching estimator, which recovers it exactly.

Every fit runs in ``_Sweep``: the fits of a class-count sweep over
K = 1..K_max from one decomposition and one vertex search.  Each fit has two
stages, each computed once per K.  The membership stage (``memberships``)
gives all that modularity scoring reads; the finishing stage (``fit``: item
regression, singular values, the frozen ``EstimationResult``) runs only for
a K that is asked for.  A single fit, oracles included, is the K-th fit of a
one-K sweep; ``modularity.ClassCountSweep`` is a sweep that also selects K.
Scgoma sweeps on one ``ResponseMatrix`` with one sketch width and seed
decompose once, as the immutable matrix keeps its newest decomposition; an
ndarray, which its caller may change, is decomposed on every call.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateRankError, DimensionError, RankDeficiencyError
from .linalg import _check_spectrum, _decompose, _sketch_width, solve_small_inverse
from .types import EstimationResult, MembershipMatrix, ResponseMatrix, _check_seed, _is_count, response_array
from .vertex_hunting import _projection_searches

METHODS = ("scgoma", "rmsp")
IDEAL_RANK_RTOL = 1e-10
IDEAL_EXTRA_RANK_RTOL = 1e-8


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


def _simplex_memberships(x: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, int]:
    """Z = max(0, x C' (C C')^-1) for the corners C = x[vertices], row-normalized.
    Returns (pi, number of rows that clamped to zero)."""
    corners = x[vertices]
    gram_inv, _ = solve_small_inverse(corners @ corners.T)
    z = np.maximum(0.0, (corners @ x.T).T @ gram_inv)
    return _normalize_clamped(z, len(vertices))


def _item_regression(target_t_pi: np.ndarray, pi: np.ndarray) -> np.ndarray:
    # Theta = M' Pi (Pi' Pi)^{-1} for the relevant target M, given M' Pi.
    gram_inv, _ = solve_small_inverse(pi.T @ pi)
    return target_t_pi @ gram_inv


class _Sweep:
    """The fits of a class-count sweep over k = 1..k_max of one response
    matrix, each stage computed once per k on first use.

    The constructor checks its arguments, then decomposes and searches once.
    ``"scgoma"`` makes one top-k_max SVD seeded with ``seed``, or reuses the
    read-only one a ``ResponseMatrix`` kept from a sweep with the same sketch
    width and seed (an ndarray keeps none), and runs one
    lockstep search over the prefixes U[:, :k] for every k up to k_max; k is
    fitted on the first k triplets and the picks a k-pick search on U[:, :k]
    makes, once its spectrum check passes.  For
    k_max <= 15 every fit equals ``scgoma(R, k, seed=seed)`` exactly: every
    k <= 15 takes the same SVD path and the same 25-column sketch.  Above
    that the sweep sketches k_max + 10 columns (or goes dense), so where a
    single fit is randomized the two agree only up to the sketch's accuracy.
    ``"rmsp"`` gives k the first k picks of one k_max-pick search on R,
    which are a k-pick search's, since the search is greedy.

    Raises ``DimensionError`` if k_max is not an integer (a bool is not) in
    [1, min(N, J)], and ``ConfigError`` for an unknown method name or a seed
    that is not an integer >= 0.
    """

    def __init__(self, responses, estimator="scgoma", k_max: int = 15, *, seed: int = 0):
        r = response_array(responses)
        if not (_is_count(k_max) and 1 <= k_max <= min(r.shape)):
            raise DimensionError(f"k={k_max!r} outside [1, min(N, J)] = [1, {min(r.shape)}]")
        _check_seed(seed)
        if not isinstance(estimator, str) or estimator not in METHODS:
            raise ConfigError(f"unknown estimator {estimator!r}; expected one of {METHODS}")
        self.responses, self.k_max = r, k_max
        self._memberships, self._fits = {}, {}
        if estimator == "rmsp":
            self._svd = None
            vertices, failure = _projection_searches(r, [r.shape[1]], [k_max])[0]
            self._searches = [
                (vertices[:k], None if k <= len(vertices) else f"k={k} needs {k} vertices: {failure}")
                for k in range(1, k_max + 1)
            ]
            return
        memo = responses._svd if isinstance(responses, ResponseMatrix) else {}
        key = (_sketch_width(k_max, min(r.shape)), seed)
        factors = memo.get(key)
        if factors is None:
            factors = _decompose(r, k_max, seed=seed)
            for factor in factors:
                factor.setflags(write=False)
            memo.clear()
            memo[key] = factors
        self._svd = factors
        widths = range(1, k_max + 1)
        self._searches = _projection_searches(self._svd[0][:, :k_max], widths, widths)

    def memberships(self, k: int) -> tuple[np.ndarray, int, np.ndarray]:
        """``(pi, n_clamped_rows, vertices)`` at k, from the rows X_k
        (U[:, :k] for scgoma, R for rmsp) at k's picks; ``pi`` is all that
        modularity scoring reads.  Raises what the estimator raises at k, or
        ``DimensionError`` unless k is an integer in [1, k_max]."""
        if not (_is_count(k) and 1 <= k <= self.k_max):
            raise DimensionError(f"k={k!r} outside [1, {self.k_max}], the sweep's k_max")
        if k not in self._memberships:
            if self._svd is not None:
                _check_spectrum(self._svd[1], k)
            vertices, failure = self._searches[k - 1]
            if failure is not None:
                raise RankDeficiencyError(failure)
            x = self.responses if self._svd is None else self._svd[0][:, :k]
            self._memberships[k] = (*_simplex_memberships(x, vertices), vertices)
        return self._memberships[k]

    def fit(self, k: int) -> EstimationResult:
        """The estimate at k; raises what ``memberships(k)`` raises."""
        pi, n_clamped, vertices = self.memberships(k)
        if k not in self._fits:
            if self._svd is None:
                target_t_pi = (pi.T @ self.responses).T
                singular_values = np.linalg.svd(self.responses[vertices], compute_uv=False)
            else:
                # Rank-k reconstruction target, never materialized:
                # Rhat' Pi = V Sigma (U' Pi).  Contiguous copies of the
                # factors keep BLAS's rounding that of a k-column SVD's.
                u, s, vt = self._svd
                singular_values = s[:k].copy()
                target_t_pi = (vt[:k].T.copy() * singular_values) @ (u[:, :k].copy().T @ pi)
            self._fits[k] = EstimationResult(
                membership_hat=MembershipMatrix(pi),
                item_params_hat=_item_regression(target_t_pi, pi),
                pure_index_set=vertices.tolist(),
                singular_values=singular_values,
                n_clamped_rows=n_clamped,
            )
        return self._fits[k]


def _ideal_fit(expected, method: str, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    r0 = response_array(expected)
    if not _is_count(k):
        raise DimensionError(f"k={k!r} is not an integer")
    _check_exact_rank(r0, k)
    result = _Sweep(r0, method, k).fit(k)
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
    return _Sweep(responses, "scgoma", k, seed=seed).fit(k)


def ideal_rmsp(expected, k: int) -> tuple[MembershipMatrix, np.ndarray]:
    """Exact recovery via the raw rows; rank checked as in ``ideal_scgoma``."""
    return _ideal_fit(expected, "rmsp", k)


def rmsp(responses, k: int) -> EstimationResult:
    """Raw-row membership estimation: vertex search on R itself, no SVD.

    ``singular_values`` holds the singular values of the selected vertex rows
    R[I] (the rank-k system inverted here).  Errors mirror ``scgoma``, and a
    row whose squared norm overflows float range is a ``DataFormatError``; an
    all-zero response matrix surfaces as a vertex-search rank deficiency.
    """
    return _Sweep(responses, "rmsp", k).fit(k)
