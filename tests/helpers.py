"""Independent oracles used across the test suite.

Everything here is deliberately naive (enumeration, double loops, full
decompositions) and built from numpy primitives only, so it cannot share a
failure mode with the library paths it checks.  The exceptions are
``select_by_single_fits``, which checks the class-count sweep against the
library's own single fits, ``leading``, which reads the library's
decompositions the way its estimators do, ``randomized_svd_reference``,
which is the library's range finder with every product in its plain
orientation, and ``sample_response_reference``, which is the sampler drawn
as one whole matrix.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

from wgom import (
    ConfigError,
    DegenerateRankError,
    DimensionError,
    DistributionRangeError,
    RankDeficiencyError,
    expected_responses,
    modularity,
    rmsp,
    scgoma,
)
from wgom.linalg import POWER_ITERATIONS, _check_spectrum, _sketch_width
from wgom.types import ResponseMatrix, SampleDiagnostics, _check_seed, response_array
from wgom.vertex_hunting import _projection_searches


TopK = namedtuple("TopK", "left singulars right")


def leading(u, s, vt, k) -> TopK:
    """The first k triplets of a decomposition such as ``linalg._decompose``
    returns, as copies with the decomposition's signs: left (N x k),
    singulars (k), right (J x k).  Raises ``DegenerateRankError`` where the
    estimators' spectrum check at k fails."""
    _check_spectrum(s, k)
    return TopK(u[:, :k].copy(), s[:k].copy(), vt[:k].T.copy())


def randomized_svd_reference(a, k, *, seed=0):
    """``linalg._randomized_svd`` with the tall operand on the left of every
    product (A Omega, A' Q, A W): the same sketch and the same arithmetic, so
    only rounding may differ from the library's."""
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((a.shape[1], _sketch_width(k, min(a.shape))))
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(POWER_ITERATIONS):
        w, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ w)
    ub, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
    return q @ ub, s, vt


def sample_response_reference(spec, seed):
    """``sampling.sample_response`` drawn as one whole matrix: all of R0, its
    admissibility check, the draws and then the retention mask, each in one
    call on the full N x J shape."""
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        _check_seed(seed)
    rng = np.random.default_rng(seed)
    r0 = expected_responses(spec)
    ok = spec.distribution.admissible(r0)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise DistributionRangeError(
            f"expected response at ({i}, {j}) = {r0[i, j]:.6g} lies outside the "
            f"admissible range {spec.distribution.range_description()} of "
            f"{spec.distribution.name}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        draws = spec.distribution.draw(r0, rng)
        np.abs(np.subtract(draws, r0, out=r0), out=r0)
    tau_hat = float(r0.max())
    gamma_hat = tau_hat * (tau_hat / spec.item_params.scale)
    if not math.isfinite(gamma_hat):
        raise ConfigError(
            f"{spec.distribution.name} draws overflow: the largest deviation from the mean, "
            f"squared over the item parameter scale {spec.item_params.scale:.6g}, is not finite"
        )
    if spec.sparsity < 1.0:
        draws *= rng.random(draws.shape) < spec.sparsity
    return ResponseMatrix._adopt(draws), SampleDiagnostics(tau_hat=tau_hat, gamma_hat=gamma_hat)


def brute_hamming(pi_hat, pi_true) -> float:
    """Exhaustive permutation minimum of the per-subject L1 discrepancy."""
    pi_hat = np.asarray(pi_hat, dtype=float)
    pi_true = np.asarray(pi_true, dtype=float)
    n, k = pi_hat.shape
    best = np.inf
    for perm in itertools.permutations(range(k)):
        best = min(best, np.abs(pi_hat - pi_true[:, perm]).sum() / n)
    return float(best)


def brute_relative(theta_hat, theta_true) -> float:
    """Exhaustive permutation minimum of the relative Frobenius discrepancy."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    k = theta_hat.shape[1]
    denom = np.linalg.norm(theta_true)
    best = np.inf
    for perm in itertools.permutations(range(k)):
        best = min(best, np.linalg.norm(theta_hat - theta_true[:, perm]) / denom)
    return float(best)


def modularity_double_sum(responses, memberships) -> float:
    """Literal double-sum fuzzy weighted modularity of A = R R'."""
    r = np.asarray(responses, dtype=float)
    pi = np.asarray(memberships, dtype=float)
    n = r.shape[0]
    a = r @ r.T
    a_plus = np.maximum(0.0, a)
    a_minus = np.maximum(0.0, -a)
    d_plus = a_plus.sum(axis=1)
    d_minus = a_minus.sum(axis=1)
    m_plus = d_plus.sum() / 2.0
    m_minus = d_minus.sum() / 2.0

    def part(adj, deg, m):
        if m <= 0.0:
            return 0.0
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += (adj[i, j] - deg[i] * deg[j] / (2.0 * m)) * float(pi[i] @ pi[j])
        return total / (2.0 * m)

    if m_plus + m_minus == 0.0:
        return 0.0
    q_plus = part(a_plus, d_plus, m_plus)
    q_minus = part(a_minus, d_minus, m_minus)
    return (m_plus * q_plus - m_minus * q_minus) / (m_plus + m_minus)


def random_row_stochastic(rng, n, k) -> np.ndarray:
    """Random membership rows via normalized exponentials (Dirichlet(1))."""
    raw = rng.exponential(size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


def block_pi(n, k, n_pure, mixed_row=None) -> np.ndarray:
    """Plain block membership: pure classes first, one fixed mixed row after."""
    pi = np.zeros((n, k))
    for cls in range(k):
        pi[cls * n_pure : (cls + 1) * n_pure, cls] = 1.0
    if mixed_row is None:
        mixed_row = np.full(k, 1.0 / k)
    pi[k * n_pure :] = mixed_row
    return pi


SPA_TIE_RTOL = 1e-12
SPA_ZERO_RESIDUAL_TOL = 1e-12


def spa_oracle(rows, k):
    """Successive projection on an explicit residual matrix: every pick takes
    the largest residual row norm (ties within 1e-12 relative to the lowest
    index) and deflates the whole residual, and the search stops where that
    norm, or a direction's after re-orthogonalization, is at most 1e-12 times
    the largest row norm of ``rows``.  Returns ``(vertices, failure)`` as
    each search of ``vertex_hunting._projection_searches`` does."""
    x = np.asarray(rows, dtype=float)
    n, d = x.shape
    residual = x.copy()
    floor = SPA_ZERO_RESIDUAL_TOL * np.linalg.norm(x, axis=1).max()
    basis = np.empty((k, d))
    chosen = np.empty(k, dtype=int)

    for t in range(k):
        norms = np.linalg.norm(residual, axis=1)
        top = norms.max()
        if top <= floor:
            return chosen[:t], (
                f"residual vanished after {t} of {k} selections "
                f"(max row norm {top:.3g})"
            )
        pick = int(np.flatnonzero(norms >= top * (1.0 - SPA_TIE_RTOL))[0])
        chosen[t] = pick

        direction = residual[pick].copy()
        if t:
            # One re-orthogonalization pass keeps the basis clean for
            # near-degenerate simplices.
            direction -= basis[:t].T @ (basis[:t] @ direction)
        norm = np.linalg.norm(direction)
        if norm <= floor:
            return chosen[:t], (
                f"selected direction collapsed after re-orthogonalization "
                f"at step {t + 1} of {k}"
            )
        direction /= norm
        basis[t] = direction
        residual -= np.outer(residual @ direction, direction)

    return chosen, None


def spa_search(rows, k):
    """``(vertices, failure)`` of one k-pick search on all columns of ``rows``."""
    return _projection_searches(rows, [rows.shape[1]], [k])[0]


def spa(rows, k):
    """The k vertex picks of ``spa_search``; raises ``RankDeficiencyError``
    if the search stops short of k."""
    vertices, failure = spa_search(rows, k)
    if failure is not None:
        raise RankDeficiencyError(failure)
    return vertices


def select_by_single_fits(responses, method, k_max, *, seed=0):
    """``select_k``'s ``(k_hat, curve)`` from a separate ``scgoma``/``rmsp`` fit
    at each k, skipping the k that fail and scoring the rest together."""
    r = response_array(responses)
    fitted = {}
    for k in range(1, k_max + 1):
        try:
            fitted[k] = (scgoma(r, k, seed=seed) if method == "scgoma" else rmsp(r, k)).membership_hat
        except (DegenerateRankError, RankDeficiencyError, DimensionError):
            continue
    curve = list(zip(fitted, modularity._scores(r, fitted.values())))
    return max(curve, key=lambda point: (point[1], -point[0]))[0], curve
