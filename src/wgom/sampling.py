"""The distribution catalog, response sampling and finite-support construction.

A distribution is the model's one pluggable part: any family whose draws
have expectation R0 = Pi @ Theta.T will do.  Each catalog class owns its
``draw``, its admissible mean interval (the data behind ``admissible`` and
``range_description``) and its config keys, which are its dataclass fields.

Sampling follows the generative recipe: compute the expected matrix
R0 = Pi @ Theta.T, draw every entry independently from the distribution with
that mean, then multiply by an independent Bernoulli(p) retention mask to
create missing responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import ConfigError, DistributionRangeError, InfeasibleSchemeError
from .types import ModelSpec, ResponseMatrix, SampleDiagnostics

PROB_TOL = 1e-12
# Slack on closed admissible-range endpoints so float dust in Pi @ Theta.T
# does not trip spurious range errors.
RANGE_TOL = 1e-12


def check_support(support) -> tuple:
    """A finite support as a tuple of at least 2 finite, strictly increasing floats."""
    support = tuple(float(a) for a in support)
    if len(support) < 2:
        raise ValueError("discrete support needs at least 2 points")
    if not np.isfinite(support).all():
        raise ValueError(f"discrete support points must be finite, got {support}")
    if any(b <= a for a, b in zip(support, support[1:])):
        raise ValueError("discrete support must be strictly increasing")
    return support


# ---------------------------------------------------------------------------
# Distribution catalog
# ---------------------------------------------------------------------------


def _bound(x) -> str:
    """An interval end as text: integers (a trial count) in full, floats by %g."""
    return str(x) if isinstance(x, int) else f"{x:g}"


class Distribution:
    """A response family, drawn entrywise around the expected matrix.

    Subclasses are frozen dataclasses: ``name`` is the config name, the
    fields are the config keys, and ``interval`` = (lo, hi, lower_open) holds
    the means the family can realize (``mean_interval`` computes it where it
    depends on the fields).  Closed finite ends admit ``RANGE_TOL`` of slack;
    an infinite end is open.
    """

    name: ClassVar[str]
    interval: ClassVar[tuple]

    def mean_interval(self) -> tuple:
        """The admissible means as (lo, hi, lower_open)."""
        return self.interval

    def admissible(self, means) -> np.ndarray:
        """Boolean mask of the entries of ``means`` this distribution can realize."""
        lo, hi, lower_open = self.mean_interval()
        means = np.asarray(means, dtype=float)
        above = means > lo if lower_open else means >= lo - RANGE_TOL
        return above & (means <= hi + RANGE_TOL)

    def range_description(self) -> str:
        """The admissible interval as text, such as "[0, 1]" or "(0, inf)"."""
        lo, hi, lower_open = self.mean_interval()
        left = "(" if lower_open or lo == -np.inf else "["
        right = ")" if hi == np.inf else "]"
        return f"{left}{_bound(lo)}, {_bound(hi)}{right}"

    def draw(self, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One independent draw per entry of ``means``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Bernoulli(Distribution):
    """Entries in {0, 1} with success probability equal to the mean."""

    name = "bernoulli"
    interval = (0.0, 1.0, False)

    def draw(self, means, rng):
        p = np.clip(means, 0.0, 1.0)
        return (rng.random(means.shape) < p).astype(float)


@dataclass(frozen=True)
class Binomial(Distribution):
    """Entries in {0..m}, m trials with success probability mean/m."""

    m: int
    name = "binomial"

    def __post_init__(self):
        if int(self.m) != self.m or not 1 <= self.m <= np.iinfo(np.int64).max:
            raise ValueError(f"binomial trial count must be a positive int64, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    def mean_interval(self):
        return (0.0, self.m, False)

    def draw(self, means, rng):
        p = np.clip(means / self.m, 0.0, 1.0)
        return rng.binomial(self.m, p).astype(float)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Continuous entries drawn uniformly on (0, 2*mean).

    A mean of exactly 0 is admitted and draws exactly 0 (the continuous limit
    of Uniform(0, 0)), so boundary expectations do not trip a range error.
    """

    name = "uniform"
    interval = (0.0, np.inf, False)

    def draw(self, means, rng):
        return 2.0 * np.maximum(means, 0.0) * rng.random(means.shape)


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian entries with fixed variance around the mean."""

    sigma2: float = 1.0
    name = "normal"
    interval = (-np.inf, np.inf, False)

    def __post_init__(self):
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"normal variance must be positive and finite, got {self.sigma2}")
        object.__setattr__(self, "sigma2", float(self.sigma2))

    def draw(self, means, rng):
        return rng.normal(means, np.sqrt(self.sigma2))


@dataclass(frozen=True)
class SignedBinary(Distribution):
    """Entries in {-1, +1} with P(+1) = (1 + mean) / 2."""

    name = "signed"
    interval = (-1.0, 1.0, False)

    def draw(self, means, rng):
        p_plus = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
        return np.where(rng.random(means.shape) < p_plus, 1.0, -1.0)


@dataclass(frozen=True)
class Poisson(Distribution):
    """Nonnegative integer counts with rate equal to the mean."""

    name = "poisson"
    interval = (0.0, np.inf, True)

    def draw(self, means, rng):
        return rng.poisson(means).astype(float)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Positive continuous entries with rate 1/mean."""

    name = "exponential"
    interval = (0.0, np.inf, True)

    def draw(self, means, rng):
        return rng.exponential(scale=means)


@dataclass(frozen=True)
class GeneralDiscrete(Distribution):
    """Entries on a finite sorted support, probabilities chosen to hit the mean.

    ``scheme`` selects one closure of the underdetermined moment system
    (see ``construct_discrete``):

    * an integer q (0-based): the probability at support[q] is free and all
      other probabilities are equal (the scheme-q member of the canonical
      solution family);
    * ``"binary"``: the unique two-point solution (Q == 2 only);
    * ``"mean-locked"``: P(support[0]) is pinned to the mean itself
      (Q == 3 only).
    """

    support: tuple
    scheme: Union[int, str] = 0
    name = "discrete"

    def __post_init__(self):
        support = check_support(self.support)
        object.__setattr__(self, "support", support)
        scheme = self.scheme
        if isinstance(scheme, str):
            if scheme == "binary":
                if len(support) != 2:
                    raise ValueError('scheme "binary" requires exactly 2 support points')
            elif scheme == "mean-locked":
                if len(support) != 3:
                    raise ValueError('scheme "mean-locked" requires exactly 3 support points')
            else:
                raise ValueError(f"unknown discrete scheme {scheme!r}")
        else:
            if int(scheme) != scheme:
                raise ValueError(f"scheme index must be a whole number, got {scheme}")
            scheme = int(scheme)
            if not 0 <= scheme < len(support):
                raise ValueError(f"scheme index {scheme} outside [0, {len(support) - 1}]")
        object.__setattr__(self, "scheme", scheme)

    def mean_interval(self):
        return (*discrete_mean_interval(self.support, self.scheme), False)

    def draw(self, means, rng):
        support = np.asarray(self.support)
        probs = _discrete_table(self.support, self.scheme, means)
        cum = np.cumsum(probs, axis=-1)
        u = rng.random(means.shape)
        idx = np.minimum((u[..., None] > cum).sum(axis=-1), len(support) - 1)
        return support[idx]


DISTRIBUTIONS = {
    cls.name: cls
    for cls in (
        Bernoulli, Binomial, Uniform, Normal, SignedBinary, Poisson, Exponential, GeneralDiscrete
    )
}


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
    ConfigError
        If a draw overflows to a non-finite entry (means near the float
        limit, say from a huge ``rho``).
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

    with np.errstate(over="ignore", invalid="ignore"):
        draws = spec.distribution.draw(r0, rng)
    if not np.isfinite(draws).all():
        raise ConfigError(
            f"{spec.distribution.name} draws overflow to a non-finite response; "
            f"the largest |mean| is {np.abs(r0).max():.6g}"
        )

    deviations = np.abs(draws - r0)
    tau_hat = float(deviations.max())
    gamma_hat = float(tau_hat**2 / spec.item_params.scale)

    if spec.sparsity < 1.0:
        mask = rng.random(r0.shape) < spec.sparsity
        draws = draws * mask

    return ResponseMatrix(draws), SampleDiagnostics(tau_hat=tau_hat, gamma_hat=gamma_hat)


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
