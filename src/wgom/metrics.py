"""Evaluation metrics: permutation-matched errors and membership profiling.

Latent class labels are arbitrary, so both error metrics minimize over all
K x K column permutations.  Their objectives decompose into per-column costs,
which makes linear assignment an exact minimizer at any K.  Its solver,
``scipy.optimize.linear_sum_assignment``, is imported on the first call to
an error metric, so importing ``wgom`` loads numpy and nothing heavier.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError
from .types import _checked_matrix, membership_array, response_array


def _aligned_pair(estimate, truth) -> tuple[np.ndarray, np.ndarray]:
    a = membership_array(estimate)
    b = membership_array(truth)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: estimate {a.shape} vs truth {b.shape}")
    return a, b


def _matched_cost(cost: np.ndarray) -> float:
    """The smallest total cost of a one-to-one column matching."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def hamming_error(pi_hat, pi_true) -> float:
    """Per-subject entrywise-L1 membership discrepancy, minimized over
    column permutations of the truth.

    cost[a, b] = sum_i |pi_hat[i, a] - pi_true[i, b]| is column-separable, so
    the assignment optimum equals the exhaustive permutation minimum.
    """
    est, true = _aligned_pair(pi_hat, pi_true)
    n = est.shape[0]
    cost = np.abs(est[:, :, None] - true[:, None, :]).sum(axis=0)
    return _matched_cost(cost) / n


def relative_error(theta_hat, theta_true) -> float:
    """Frobenius discrepancy of the item parameters relative to the truth's
    norm, minimized over column permutations."""
    est = _checked_matrix(theta_hat, "estimated item parameters")
    true = _checked_matrix(theta_true, "true item parameters")
    if est.shape != true.shape:
        raise DimensionError(f"shape mismatch: estimate {est.shape} vs truth {true.shape}")
    denom = np.linalg.norm(true)
    if denom == 0.0:
        raise DataFormatError("true item parameter matrix has zero norm")
    cost = ((est[:, :, None] - true[:, None, :]) ** 2).sum(axis=0)
    return float(np.sqrt(_matched_cost(cost)) / denom)


def accuracy_rate(k_hats, k_true: int) -> float:
    """Fraction of estimates equal to the true class count."""
    k_hats = list(k_hats)
    if not k_hats:
        raise ValueError("empty list of class-count estimates")
    return sum(1 for k in k_hats if k == k_true) / len(k_hats)


class MembershipProfile(NamedTuple):
    omega_mixed: float
    omega_pure: float
    eta: float


def profile_memberships(
    pi_hat,
    *,
    mixed_threshold: float = 0.6,
    pure_threshold: float = 0.9,
) -> MembershipProfile:
    """Profile an estimated membership matrix.

    ``omega_mixed``: fraction of subjects whose largest weight is at most
    ``mixed_threshold`` (highly mixed).  ``omega_pure``: fraction whose
    largest weight is at least ``pure_threshold`` (highly pure).  ``eta``:
    smallest column sum over largest column sum, a class balance in (0, 1].
    Raises ``ConfigError`` unless 0 <= mixed < pure <= 1, which nan fails.
    """
    if not 0.0 <= mixed_threshold < pure_threshold <= 1.0:
        raise ConfigError(
            f"thresholds need 0 <= mixed < pure <= 1, got {mixed_threshold}, {pure_threshold}"
        )
    pi = membership_array(pi_hat)
    row_max = pi.max(axis=1)
    omega_mixed = float((row_max <= mixed_threshold).mean())
    omega_pure = float((row_max >= pure_threshold).mean())
    col_sums = pi.sum(axis=0)
    eta = float(col_sums.min() / col_sums.max())
    return MembershipProfile(omega_mixed=omega_mixed, omega_pure=omega_pure, eta=eta)


def data_sparsity(responses) -> float:
    """Fraction of exactly-zero entries (treated as missing responses)."""
    values = response_array(responses)
    return float((values == 0.0).mean())
