"""Evaluation metrics: permutation-matched errors and membership profiling.

Latent class labels are arbitrary, so both error metrics minimize over all
K! column permutations.  Their objectives decompose into per-column costs,
which makes linear assignment an exact minimizer at any K.  ``_assignment``
solves it with the Hungarian method (Kuhn 1955) in O(K^3) Python steps, so
the metrics need numpy and nothing heavier.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError, DimensionError
from .types import _checked_matrix, _number, membership_array, response_array


def _aligned_pair(estimate, truth) -> tuple[np.ndarray, np.ndarray]:
    a = membership_array(estimate)
    b = membership_array(truth)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: estimate {a.shape} vs truth {b.shape}")
    return a, b


def _assignment(cost: np.ndarray) -> list:
    """Column of each row in a minimum-cost one-to-one matching of a square
    cost matrix; an infinite entry is a forbidden pair.  Row i joins along
    the shortest augmenting path in reduced costs, which the row and column
    potentials u, v keep nonnegative, so each partial matching is optimal.
    """
    rows = cost.tolist()
    k = len(rows)
    u, v = [0.0] * (k + 1), [0.0] * (k + 1)
    owner = [0] * (k + 1)  # owner[j]: the 1-based row matched to column j; 0 is the root
    for i in range(1, k + 1):
        owner[0], j0 = i, 0
        slack, via, seen = [math.inf] * (k + 1), [0] * (k + 1), [False] * (k + 1)
        while owner[j0]:
            seen[j0] = True
            i0 = owner[j0]
            row = rows[i0 - 1]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not seen[j]:
                    reduced = row[j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            if delta == math.inf:
                raise DataFormatError("matching costs overflow: no finite one-to-one matching")
            for j in range(k + 1):
                if seen[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    return [j for _, j in sorted(zip(owner[1:], range(k)))]


def _matched_cost(cost: np.ndarray) -> float:
    """The smallest total cost of a one-to-one column matching."""
    cols = _assignment(cost)
    return float(cost[np.arange(len(cols)), cols].sum())


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
        raise DimensionError("empty list of class-count estimates")
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
    Raises ``ConfigError`` unless both thresholds are numbers (the number
    rule) with 0 <= mixed < pure <= 1.
    """
    mixed_threshold = _number("mixed_threshold", mixed_threshold)
    pure_threshold = _number("pure_threshold", pure_threshold)
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
