"""The distribution catalog, response sampling and finite-support construction.

A distribution is the model's one pluggable part: any family whose draws
have expectation R0 = Pi @ Theta.T will do.  Each catalog class owns its
``draw``, its admissible mean interval (the data behind ``admissible`` and
``range_description``) and its config keys, which are its dataclass fields.
Each constructor checks its fields by the number rule (``types._number``)
and raises ``ConfigError``; ``GeneralDiscrete`` is the one check of a finite
support and scheme, and ``discrete_mean_interval`` and ``construct_discrete``
build one.

Sampling follows the generative recipe: compute the expected matrix
R0 = Pi @ Theta.T, draw every entry independently from the distribution with
that mean, then multiply by an independent Bernoulli(p) retention mask to
create missing responses.  A row of R0 needs only the same row of Pi, so R is
drawn, then masked, in row blocks of about ``BLOCK_BYTES``: the working memory
is R plus a few blocks, and R's bytes do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import ConfigError, DistributionRangeError, InfeasibleSchemeError
from .types import ModelSpec, ResponseMatrix, SampleDiagnostics, _check_seed, _number

PROB_TOL = 1e-12
# Slack on closed admissible-range endpoints so float dust in Pi @ Theta.T
# does not trip spurious range errors.
RANGE_TOL = 1e-12
# Byte budget of one row block of R0 in ``sample_response``: small, since a
# draw holds up to Q + 3 block-sized temporaries (the discrete draw), yet at
# 256 KiB a 300 x 150 matrix would no longer be one block.
BLOCK_BYTES = 2**20


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
        """One independent draw per entry of ``means``, as a new float array
        that shares no memory with ``means`` (``sample_response`` masks it in
        place, and keeps it without a copy when R is one block)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Bernoulli(Distribution):
    """Entries in {0, 1} with success probability equal to the mean."""

    name = "bernoulli"
    interval = (0.0, 1.0, False)

    def draw(self, means, rng):
        # For u in [0, 1), u < clip(mean, 0, 1) exactly when u < mean, so the
        # outcomes overwrite the uniforms.
        u = rng.random(means.shape)
        return np.less(u, means, out=u)


@dataclass(frozen=True)
class Binomial(Distribution):
    """Entries in {0..m}, m trials with success probability mean/m."""

    m: int
    name = "binomial"

    def __post_init__(self):
        object.__setattr__(self, "m", _number("binomial m", self.m, whole=True, least=1, most=np.iinfo(np.int64).max))

    def mean_interval(self):
        return (0.0, self.m, False)

    def draw(self, means, rng):
        p = means / self.m
        np.clip(p, 0.0, 1.0, out=p)
        counts = rng.binomial(self.m, p)
        del p
        return counts.astype(float)


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
        object.__setattr__(self, "sigma2", _number("normal sigma2", self.sigma2, least=0))

    def draw(self, means, rng):
        return rng.normal(means, np.sqrt(self.sigma2))


@dataclass(frozen=True)
class SignedBinary(Distribution):
    """Entries in {-1, +1} with P(+1) = (1 + mean) / 2."""

    name = "signed"
    interval = (-1.0, 1.0, False)

    def draw(self, means, rng):
        # As for Bernoulli, u < P(+1) needs no clip; the outcomes overwrite
        # P(+1) and map 1 -> +1, 0 -> -1.
        draws = np.add(1.0, means)
        draws /= 2.0
        np.less(rng.random(means.shape), draws, out=draws)
        draws *= 2.0
        draws -= 1.0
        return draws


@dataclass(frozen=True)
class Poisson(Distribution):
    """Nonnegative integer counts with rate equal to the mean, up to numpy's
    largest rate (about 9.22e18)."""

    name = "poisson"
    interval = (0.0, np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10, True)

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

    ``support`` holds at least 2 strictly increasing numbers, and ``scheme``
    selects one closure of the underdetermined moment system (see the
    finite-support construction below); the constructor checks both by the
    number rule, and refuses a support whose construction would overflow
    float range (``ConfigError``):

    * an integer q (0-based): the probability at support[q] is free and all
      other probabilities are equal (the scheme-q member of the canonical
      solution family);
    * ``"binary"``: the unique two-point solution (Q == 2 only), index 0;
    * ``"mean-locked"``: P(support[0]) is pinned to the mean itself
      (Q == 3 only).
    """

    support: tuple
    scheme: Union[int, str] = 0
    name = "discrete"

    def __post_init__(self):
        try:
            points = tuple(self.support)
        except TypeError:
            points = ()
        support = tuple(_number("discrete support point", a) for a in points)
        if len(support) < 2 or any(b <= a for a, b in zip(support, support[1:])):
            raise ConfigError(f"discrete support must be at least 2 strictly increasing numbers, got {self.support!r}")
        object.__setattr__(self, "support", support)
        if not isinstance(self.scheme, str):
            index = _number("discrete scheme index", self.scheme, whole=True, least=0, most=len(support) - 1)
            object.__setattr__(self, "scheme", index)
        elif {"binary": 2, "mean-locked": 3}.get(self.scheme) != len(support):
            raise ConfigError(
                f"discrete scheme must be an index, \"binary\" on 2 support points or "
                f"\"mean-locked\" on 3, got {self.scheme!r} on {len(support)}"
            )
        # Q times the larger of max|a| and the span bounds the construction's
        # sums (S, Q a_q and S - Q a_q); the mean-locked coefficients divide by
        # a gap.  Python floats give inf where these overflow, without a warning.
        lo, hi = support[0], support[-1]
        sizes = [len(support) * max(-lo, hi, hi - lo)]
        if self.scheme == "mean-locked":
            sizes += _mean_locked_coeffs(support)
        if not np.isfinite(sizes).all():
            raise ConfigError(f"discrete support {support} is beyond float range for the construction's arithmetic")

    @property
    def _free_index(self) -> int:
        """q of an index scheme, where ``"binary"`` is index 0."""
        return 0 if self.scheme == "binary" else self.scheme

    def mean_interval(self):
        """The admissible means (lo, hi, False); ``InfeasibleSchemeError`` when
        the scheme admits none (an empty feasible set, or a degenerate free
        index whose solution is not unique)."""
        support = self.support
        if self.scheme == "mean-locked":
            alpha, beta = _mean_locked_coeffs(support)
            # p0 = mean, p2 = alpha * mean + beta and p1 = gamma * mean + delta
            # must all be probabilities.  A strictly increasing support makes
            # alpha > 0, so the slope gamma = -1 - alpha is negative.
            gamma, delta = -1.0 - alpha, 1.0 - beta
            lo = max(0.0, -beta / alpha, (1.0 - delta) / gamma)
            hi = min(1.0, (1.0 - beta) / alpha, -delta / gamma)
            if lo > hi:
                raise InfeasibleSchemeError(f"mean-locked scheme is infeasible for support {support}")
            return lo, hi, False
        q, total = self._free_index, sum(support)
        if total - len(support) * support[q] == 0.0:
            raise InfeasibleSchemeError(
                f"free index {q} is degenerate for support {support}: "
                f"support[{q}] equals the support average"
            )
        others_avg = (total - support[q]) / (len(support) - 1)
        return min(support[q], others_avg), max(support[q], others_avg), False

    def _probabilities(self, means: np.ndarray) -> np.ndarray:
        """Probability vectors with expectations ``means``, shape means.shape + (Q),
        each summing to 1.0 exactly; entries leave [0, 1] outside ``mean_interval``."""
        support = np.asarray(self.support)
        means = np.asarray(means, dtype=float)
        probs = np.empty(means.shape + (len(support),))
        if self.scheme == "mean-locked":
            alpha, beta = _mean_locked_coeffs(tuple(support))
            probs[..., 0] = means
            probs[..., 2] = alpha * means + beta
            probs[..., 1] = 1.0 - probs[..., 0] - probs[..., 2]
        else:
            q = self._free_index
            y = (means - support[q]) / (support.sum() - len(support) * support[q])
            probs[...] = y[..., None]
            probs[..., q] = 1.0 - (len(support) - 1) * y
        # Exact unit sum: the trailing component is the closure of the rest.
        probs[..., -1] = 1.0 - probs[..., :-1].sum(axis=-1)
        return probs

    def draw(self, means, rng):
        support = np.asarray(self.support)
        cum = self._probabilities(means)
        np.cumsum(cum, axis=-1, out=cum)
        u = rng.random(means.shape)
        idx = (u[..., None] > cum).sum(axis=-1)
        del cum, u
        np.minimum(idx, len(support) - 1, out=idx)
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

    ``seed`` may be an integer >= 0, a ``numpy.random.SeedSequence`` or a
    ``Generator``; the draw order (responses first, then the retention mask)
    is fixed, so a given seed always produces the same matrix.

    Raises
    ------
    ConfigError
        If ``seed`` is none of those (``None``, a bool, or a negative or
        fractional number), or if the draws overflow: a non-finite entry or
        a non-finite ``gamma_hat`` (means or noise near the float limit, say
        from a huge ``rho`` or ``sigma2``).  Every number reported is finite.
    DistributionRangeError
        If any expected response falls outside the distribution's admissible
        mean range (the first offending entry is named, once the blocks before
        it are drawn: a ``Generator`` passed as ``seed`` has advanced by those).
    """
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        _check_seed(seed)
    rng = np.random.default_rng(seed)
    n, rows = spec.n_subjects, max(1, BLOCK_BYTES // (8 * spec.n_items))
    blocks = [slice(start, min(start + rows, n)) for start in range(0, n, rows)]
    out = np.empty((n, spec.n_items)) if len(blocks) > 1 else None
    tau_hat = 0.0
    for block in blocks:
        r0 = spec.membership.rows[block] @ spec.item_params.values.T
        ok = spec.distribution.admissible(r0)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise DistributionRangeError(
                f"expected response at ({block.start + i}, {j}) = {r0[i, j]:.6g} lies outside the "
                f"admissible range {spec.distribution.range_description()} of {spec.distribution.name}"
            )
        # |draws - r0| in r0's buffer: r0 is not needed after tau_hat.  A draw
        # that overflows makes tau_hat inf (or nan, which np.maximum keeps), so
        # one test refuses it and a gamma_hat beyond float range alike.
        with np.errstate(over="ignore", invalid="ignore"):
            draws = spec.distribution.draw(r0, rng)
            np.abs(np.subtract(draws, r0, out=r0), out=r0)
        tau_hat = float(np.maximum(tau_hat, r0.max()))
        if out is None:
            out = draws
        else:
            out[block] = draws
        del r0, draws
    gamma_hat = tau_hat * (tau_hat / spec.item_params.scale)
    if not math.isfinite(gamma_hat):
        raise ConfigError(
            f"{spec.distribution.name} draws overflow: the largest deviation from the mean, "
            f"squared over the item parameter scale {spec.item_params.scale:.6g}, is not finite"
        )

    if spec.sparsity < 1.0:
        for block in blocks:
            out[block] *= rng.random(out[block].shape) < spec.sparsity

    return ResponseMatrix._adopt(out), SampleDiagnostics(tau_hat=tau_hat, gamma_hat=gamma_hat)


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


def discrete_mean_interval(support, scheme) -> tuple:
    """Admissible mean interval [lo, hi] of ``GeneralDiscrete(support, scheme)``.

    Raises ``ConfigError`` for a bad support or scheme and
    ``InfeasibleSchemeError`` when the scheme admits no mean at all (empty
    feasible set, or a degenerate free index whose solution is not unique).
    """
    return GeneralDiscrete(support, scheme).mean_interval()[:2]


def construct_discrete(support, scheme, mean: float) -> np.ndarray:
    """Probability vector over ``support`` whose expectation equals ``mean``.

    The last component is derived as one minus the rest, so the vector sums to
    1.0 exactly.

    Raises
    ------
    ConfigError
        If ``support`` or ``scheme`` fails ``GeneralDiscrete``'s checks, or
        ``mean`` is not a finite number.
    DistributionRangeError
        If ``mean`` lies outside the scheme's admissible interval.
    InfeasibleSchemeError
        If the scheme has no valid solution, or a solved probability is nan or
        escapes [0, 1] by more than 1e-12.
    """
    dist = GeneralDiscrete(support, scheme)
    mean = _number("mean", mean)
    if not dist.admissible(mean):
        raise DistributionRangeError(
            f"mean {mean:.6g} outside the admissible interval {dist.range_description()} "
            f"of scheme {scheme!r} on support {dist.support}"
        )
    probs = dist._probabilities(mean)
    # Written so that a nan probability fails too.
    if not ((probs >= -PROB_TOL) & (probs <= 1.0 + PROB_TOL)).all():
        raise InfeasibleSchemeError(
            f"scheme {scheme!r} yields probabilities outside [0, 1]: {probs}"
        )
    return probs
