"""Response-matrix generation and finite-support distribution construction.

Sampling follows the generative recipe: compute the expected matrix
R0 = Pi @ Theta.T, draw every entry independently from the tagged distribution
with that mean, then multiply by an independent Bernoulli(p) retention mask to
create missing responses.
"""

from __future__ import annotations

import numpy as np

from .errors import DistributionRangeError, InfeasibleSchemeError
from .types import (
    Bernoulli,
    Binomial,
    Exponential,
    GeneralDiscrete,
    ModelSpec,
    Normal,
    Poisson,
    ResponseMatrix,
    SampleDiagnostics,
    SignedBinary,
    Uniform,
    check_support,
)

PROB_TOL = 1e-12


def expected_responses(spec: ModelSpec) -> np.ndarray:
    """Expected response matrix Pi @ Theta.T (N x J)."""
    return spec.membership.rows @ spec.item_params.values.T


def sample_response(spec: ModelSpec, seed) -> tuple[ResponseMatrix, SampleDiagnostics]:
    """Draw one response matrix from ``spec``.

    ``seed`` may be an int, a ``numpy.random.SeedSequence`` or a ``Generator``;
    the draw order (responses first, then the retention mask) is fixed, so a
    given seed always produces the same matrix.

    Raises
    ------
    DistributionRangeError
        If any expected response falls outside the distribution's admissible
        mean range (the first offending entry is named).
    """
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

    draws = _draw(spec.distribution, r0, rng)

    deviations = np.abs(draws - r0)
    tau_hat = float(deviations.max())
    gamma_hat = float(tau_hat**2 / spec.item_params.scale)

    if spec.sparsity < 1.0:
        mask = rng.random(r0.shape) < spec.sparsity
        draws = draws * mask

    return ResponseMatrix(draws), SampleDiagnostics(tau_hat=tau_hat, gamma_hat=gamma_hat)


def _draw(dist, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    shape = means.shape
    if isinstance(dist, Bernoulli):
        p = np.clip(means, 0.0, 1.0)
        return (rng.random(shape) < p).astype(float)
    if isinstance(dist, Binomial):
        p = np.clip(means / dist.m, 0.0, 1.0)
        return rng.binomial(dist.m, p).astype(float)
    if isinstance(dist, Uniform):
        # 2 * mean * U(0,1): a zero mean draws exactly zero.
        return 2.0 * np.maximum(means, 0.0) * rng.random(shape)
    if isinstance(dist, Normal):
        return rng.normal(means, np.sqrt(dist.sigma2))
    if isinstance(dist, SignedBinary):
        p_plus = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
        return np.where(rng.random(shape) < p_plus, 1.0, -1.0)
    if isinstance(dist, Poisson):
        return rng.poisson(means).astype(float)
    if isinstance(dist, Exponential):
        return rng.exponential(scale=means)
    if isinstance(dist, GeneralDiscrete):
        support = np.asarray(dist.support)
        probs = _discrete_table(dist.support, dist.scheme, means)
        cum = np.cumsum(probs, axis=-1)
        u = rng.random(shape)
        idx = np.minimum((u[..., None] > cum).sum(axis=-1), len(support) - 1)
        return support[idx]
    raise TypeError(f"unsupported distribution {dist!r}")


# ---------------------------------------------------------------------------
# Finite-support construction
# ---------------------------------------------------------------------------
#
# For a sorted support a_0 < ... < a_{Q-1} and a target mean, the probability
# vector must satisfy sum(p) = 1 and dot(a, p) = mean.  For Q = 2 the solution
# is unique; for Q >= 3 the system is underdetermined and a "scheme" picks one
# closure:
#
# * integer q: p_q is free and all other probabilities share one value y
#   (solving the 2x2 system gives y = (mean - a_q) / (S - Q a_q) with
#   S = sum(a));
# * "mean-locked" (Q = 3): p_0 is pinned to the mean itself and p_1, p_2
#   solve the remaining 2x2 system.


def _mean_locked_coeffs(support) -> tuple:
    # p2 = alpha * mean + beta; p1 = 1 - mean - p2.
    a0, a1, a2 = support
    alpha = (1.0 - a0 + a1) / (a2 - a1)
    beta = -a1 / (a2 - a1)
    return alpha, beta


def _affine_unit_interval(alpha: float, beta: float) -> tuple:
    # Mean interval on which alpha * mean + beta stays inside [0, 1].
    if alpha > 0:
        return (-beta / alpha, (1.0 - beta) / alpha)
    if alpha < 0:
        return ((1.0 - beta) / alpha, -beta / alpha)
    return (-np.inf, np.inf) if 0.0 <= beta <= 1.0 else (np.inf, -np.inf)


def discrete_mean_interval(support, scheme) -> tuple:
    """Admissible mean interval [lo, hi] of a finite-support scheme.

    Raises ``InfeasibleSchemeError`` when the scheme admits no mean at all
    (empty feasible set, or a degenerate free index whose solution is not
    unique).
    """
    support = check_support(support)
    q_count = len(support)

    if scheme == "binary":
        scheme = 0
    if scheme == "mean-locked":
        if q_count != 3:
            raise InfeasibleSchemeError('"mean-locked" needs exactly 3 support points')
        alpha, beta = _mean_locked_coeffs(support)
        lo, hi = 0.0, 1.0  # p0 = mean is itself a probability
        # p2 = alpha * mean + beta and p1 = (-1 - alpha) * mean + (1 - beta)
        # must both be probabilities as well.
        for a, b in ((alpha, beta), (-1.0 - alpha, 1.0 - beta)):
            left, right = _affine_unit_interval(a, b)
            lo, hi = max(lo, left), min(hi, right)
        if lo > hi:
            raise InfeasibleSchemeError(
                f"mean-locked scheme is infeasible for support {support}"
            )
        return lo, hi

    q = int(scheme)
    if not 0 <= q < q_count:
        raise ValueError(f"scheme index {q} outside [0, {q_count - 1}]")
    total = sum(support)
    denom = total - q_count * support[q]
    if denom == 0.0:
        raise InfeasibleSchemeError(
            f"free index {q} is degenerate for support {support}: "
            f"support[{q}] equals the support average"
        )
    others_avg = (total - support[q]) / (q_count - 1)
    return (min(support[q], others_avg), max(support[q], others_avg))


def construct_discrete(support, scheme, mean: float) -> np.ndarray:
    """Probability vector over ``support`` whose expectation equals ``mean``.

    The last component is derived as one minus the rest, so the vector sums to
    1.0 exactly.

    Raises
    ------
    DistributionRangeError
        If ``mean`` lies outside the scheme's admissible interval.
    InfeasibleSchemeError
        If the scheme has no valid solution, or a solved probability escapes
        [0, 1] by more than 1e-12.
    """
    support = check_support(support)
    lo, hi = discrete_mean_interval(support, scheme)
    mean = float(mean)
    if not (lo - PROB_TOL <= mean <= hi + PROB_TOL):
        raise DistributionRangeError(
            f"mean {mean:.6g} outside the admissible interval [{lo:g}, {hi:g}] "
            f"of scheme {scheme!r} on support {support}"
        )
    probs = _discrete_table(support, scheme, np.asarray(mean))
    if (probs < -PROB_TOL).any() or (probs > 1.0 + PROB_TOL).any():
        raise InfeasibleSchemeError(
            f"scheme {scheme!r} yields probabilities outside [0, 1]: {probs}"
        )
    return probs


def _discrete_table(support, scheme, means: np.ndarray) -> np.ndarray:
    """Vectorized probability vectors, shape means.shape + (Q,)."""
    support = np.asarray(support, dtype=float)
    q_count = len(support)
    means = np.asarray(means, dtype=float)
    probs = np.empty(means.shape + (q_count,))

    if scheme == "mean-locked":
        alpha, beta = _mean_locked_coeffs(tuple(support))
        probs[..., 0] = means
        probs[..., 2] = alpha * means + beta
        probs[..., 1] = 1.0 - probs[..., 0] - probs[..., 2]
    else:
        q = 0 if scheme == "binary" else int(scheme)
        total = support.sum()
        y = (means - support[q]) / (total - q_count * support[q])
        probs[...] = y[..., None]
        probs[..., q] = 1.0 - (q_count - 1) * y

    # Exact unit sum: the trailing component is the closure of the rest.
    probs[..., -1] = 1.0 - probs[..., :-1].sum(axis=-1)
    return probs
