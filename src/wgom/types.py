"""Domain types for weighted grade-of-membership analysis.

The generative model: an N x J response matrix R has independent entries whose
expectation is R0 = Pi @ Theta.T, where Pi is a row-stochastic membership
matrix with at least one pure subject per latent class and Theta is a rank-K
item-parameter matrix.  A distribution from the catalog in
``wgom.sampling`` describes how responses are drawn around their
expectations; a retention probability ``sparsity`` zeroes entries at random
to model missing responses.  This module imports no distribution: a spec
uses only its ``admissible``, ``range_description`` and ``name``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError, WgomError

if TYPE_CHECKING:
    from .sampling import Distribution

ROW_SUM_TOL = 1e-9
RANK_RTOL = 1e-10
PURE_TOL = 1e-6


def _checked_matrix(values, name: str) -> np.ndarray:
    """The input gate: a 2-d, non-empty float array (float input is not copied);
    a wrong shape raises ``DimensionError``, nan or inf ``DataFormatError``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must be at least 1x1, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataFormatError(f"{name} has a non-finite entry at ({i}, {j}): {arr[i, j]}")
    return arr


def _is_count(value) -> bool:
    """Whether ``value`` may be a class count: a Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    """``ConfigError`` unless ``seed`` is a Python or numpy integer >= 0 (a bool is not)."""
    if not (_is_count(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def _number(name: str, value, *, whole: bool = False, least=-math.inf, most=math.inf):
    """The number rule: ``value`` as an int in [least, most] (``whole``) or a finite
    float in (least, most], else ``ConfigError`` naming ``name``, the rule and the
    value.  Python and numpy numbers pass; a bool, str or None, a non-finite number,
    an int beyond float range or a fraction where a whole number is due do not."""
    try:
        real = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        real = math.nan
    if whole and real.is_integer() and least <= int(value) <= most:
        return int(value)
    if not whole and math.isfinite(real) and least < real <= most:
        return real
    low = "" if least == -math.inf else f" >= {least}" if whole else f" > {least}"
    high = "" if most == math.inf else f" and <= {most}"
    raise ConfigError(f"{name} must be a {'whole' if whole else 'finite'} number{low}{high}, got {value!r}")


def _frozen_copy(values, name: str) -> np.ndarray:
    arr = _checked_matrix(np.array(values, dtype=float), name)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ResponseMatrix:
    """Observed weighted responses: subjects in rows, items in columns.  Immutable
    (``values`` is read-only), so it keeps its newest scgoma decomposition."""

    values: np.ndarray
    _svd: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_copy(self.values, "response matrix"))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> ResponseMatrix:
        """Wrap a fresh float array that no caller holds, checked and frozen
        in place instead of copied."""
        matrix = object.__new__(cls)
        arr = _checked_matrix(values, "response matrix")
        arr.setflags(write=False)
        object.__setattr__(matrix, "values", arr)
        object.__setattr__(matrix, "_svd", {})
        return matrix

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_items(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MembershipMatrix:
    """Per-subject class weights; each row is meant to be a probability vector.

    The constructor only enforces structure (2-d, finite) so that invalid
    memberships can still be wrapped and reported by ``validate_model_spec``.
    """

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen_copy(self.rows, "membership matrix"))

    @property
    def n_subjects(self) -> int:
        return self.rows.shape[0]

    @property
    def n_classes(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class ItemParams:
    """Item parameters Theta (J x K) together with the scaling factor.

    ``scale`` is the max-absolute-entry factor max|Theta|, so Theta = scale * B
    with max|B| = 1; it is computed from ``values``.
    """

    values: np.ndarray
    scale: float = field(init=False)

    def __post_init__(self):
        arr = _frozen_copy(self.values, "item parameter matrix")
        object.__setattr__(self, "values", arr)
        scale = float(np.abs(arr).max())
        if not (scale > 0):
            raise ConfigError("item parameter scale must be positive (all-zero matrix?)")
        object.__setattr__(self, "scale", scale)

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to sample a response matrix.

    ``sparsity`` is the retention probability of the independent Bernoulli
    mask applied after sampling, a number in (0, 1]; 1.0 keeps every entry.
    """

    membership: MembershipMatrix
    item_params: ItemParams
    distribution: Distribution
    sparsity: float = 1.0

    def __post_init__(self):
        if self.membership.n_classes != self.item_params.n_classes:
            raise DimensionError(
                f"membership has {self.membership.n_classes} classes but item "
                f"parameters have {self.item_params.n_classes}"
            )
        object.__setattr__(self, "sparsity", _number("sparsity", self.sparsity, least=0, most=1))

    @property
    def n_subjects(self) -> int:
        return self.membership.n_subjects

    @property
    def n_items(self) -> int:
        return self.item_params.n_items

    @property
    def n_classes(self) -> int:
        return self.membership.n_classes


@dataclass(frozen=True)
class SampleDiagnostics:
    """Empirical noise summaries of one sampled response matrix.

    ``tau_hat`` is the largest absolute deviation from the expected matrix
    (before masking); ``gamma_hat`` is the largest squared deviation divided
    by the item-parameter scale.
    """

    tau_hat: float
    gamma_hat: float


@dataclass(frozen=True)
class EstimationResult:
    """Output of the spectral / raw-row membership estimators.

    ``singular_values`` holds the K singular values of the rank-K system the
    estimator inverted: the top-K singular values of R for the SVD-based
    estimator, the singular values of the selected vertex rows R[I] for the
    raw-row estimator.  ``n_clamped_rows`` counts the subjects whose simplex
    weights all clamped to zero; each of them got the uniform membership 1/K.
    """

    membership_hat: MembershipMatrix
    item_params_hat: np.ndarray
    pure_index_set: list
    singular_values: np.ndarray
    n_clamped_rows: int


def membership_array(membership) -> np.ndarray:
    """Accept a MembershipMatrix or any array-like; return the checked 2-d float array."""
    if isinstance(membership, MembershipMatrix):
        return membership.rows
    return _checked_matrix(membership, "membership matrix")


def response_array(responses) -> np.ndarray:
    """Accept a ResponseMatrix or any array-like; return the checked 2-d float array."""
    if isinstance(responses, ResponseMatrix):
        return responses.values
    return _checked_matrix(responses, "response matrix")


def validate_model_spec(spec: ModelSpec) -> list:
    """Collect every model-invariant violation of ``spec``.

    Returns a list of human-readable violation strings; an empty list means
    the spec is a valid model instance.  Violations are data, not failures:
    nothing is raised.

    Checks: nonnegative memberships, unit row sums, at least one pure subject
    per class (a weight of at least 1 - ``PURE_TOL`` on it), item parameters
    with finite singular values (no overflow) and full column rank, and
    expected responses inside the distribution's admissible mean range.
    """
    violations = []
    pi = spec.membership.rows
    n, k = pi.shape

    neg_rows = np.flatnonzero((pi < -1e-12).any(axis=1))
    for i in neg_rows:
        violations.append(f"membership row {i} has a negative entry (min {pi[i].min():.3g})")

    row_sums = pi.sum(axis=1)
    bad_rows = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
    for i in bad_rows:
        violations.append(f"membership row {i} sum != 1 (got {row_sums[i]:.12g})")

    for cls in range(k):
        if not (pi[:, cls] >= 1.0 - PURE_TOL).any():
            violations.append(f"no pure subject for class {cls} (pure-subject condition fails)")

    theta = spec.item_params.values
    sv = np.linalg.svd(theta, compute_uv=False)
    if not np.isfinite(sv).all():
        violations.append(
            f"item parameter matrix overflows: its singular values are not finite "
            f"(largest |entry| {np.abs(theta).max():.6g})"
        )
    elif theta.shape[1] > min(theta.shape) or sv[0] == 0.0 or sv[min(k, len(sv)) - 1] <= RANK_RTOL * sv[0]:
        violations.append(
            f"item parameter matrix is rank deficient (needs rank {k}, "
            f"sigma_min/sigma_max = {sv[-1] / sv[0] if sv[0] else 0.0:.3g})"
        )

    expected = pi @ theta.T
    try:
        ok = spec.distribution.admissible(expected)
    except WgomError as exc:
        violations.append(f"distribution cannot realize any mean: {exc}")
    else:
        if not ok.all():
            bad = np.argwhere(~ok)
            i, j = bad[0]
            violations.append(
                f"{(~ok).sum()} expected responses outside the admissible range "
                f"{spec.distribution.range_description()} of {spec.distribution.name}; "
                f"first at ({i}, {j}) = {expected[i, j]:.6g}"
            )

    return violations
