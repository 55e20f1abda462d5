"""Fuzzy weighted modularity and class-count selection by maximizing it.

The similarity graph is A = R R'; its positive and negative parts are scored
separately with membership-weighted modularities and combined as
Q = (m+ Q+ - m- Q-) / (m+ + m-).  The class count is chosen as the k in
[1, k_max] whose estimated memberships maximize Q.

One scorer serves every input size and scores any number of membership
matrices at once.  Mixed-sign R is scored in one pass over A in row blocks,
so only a block of A (about ``BLOCK_BYTES``) is held at a time.  Single-sign
R has A = A+ >= 0 and is scored in product form, without forming A.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRankError, DimensionError, RankDeficiencyError, WgomError
from .types import membership_array, response_array

# Byte budget of one row block of A = RR' in the mixed-sign pass.
BLOCK_BYTES = 4 * 2**20


def _scores(r: np.ndarray, memberships) -> list:
    """Modularity of each membership matrix in ``memberships`` against A = RR'."""
    n = r.shape[0]
    pis = [membership_array(membership) for membership in memberships]
    for pi in pis:
        if pi.shape[0] != n:
            raise DimensionError(f"membership has {pi.shape[0]} subjects, responses have {n}")
    # All K concatenated: per-column trace terms pi_c' A pi_c and degree sums
    # d' pi_c, reduced per K below.
    pi_all = np.hstack(pis)
    if (r >= 0.0).all() or (r <= 0.0).all():
        d_plus = r @ (r.T @ np.ones(n))
        d_minus = np.zeros(n)
        t_plus = ((r.T @ pi_all) ** 2).sum(axis=0)
        t_minus = np.zeros(pi_all.shape[1])
    else:
        d_plus, d_minus = np.empty(n), np.empty(n)
        t_plus = t_minus = np.zeros(pi_all.shape[1])
        rows = max(1, BLOCK_BYTES // (8 * n))
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            a = r[block] @ r.T
            a_plus = np.maximum(0.0, a)
            a_minus = a_plus - a
            d_plus[block] = a_plus.sum(axis=1)
            d_minus[block] = a_minus.sum(axis=1)
            t_plus = t_plus + ((a_plus @ pi_all) * pi_all[block]).sum(axis=0)
            t_minus = t_minus + ((a_minus @ pi_all) * pi_all[block]).sum(axis=0)

    starts = np.cumsum([0] + [pi.shape[1] for pi in pis[:-1]])
    m_plus, m_minus = float(d_plus.sum() / 2.0), float(d_minus.sum() / 2.0)

    def part(t, d, m):
        if m <= 0.0:
            return np.zeros(len(pis))
        degree = np.add.reduceat((d @ pi_all) ** 2, starts)
        return (np.add.reduceat(t, starts) - degree / (2.0 * m)) / (2.0 * m)

    q = (m_plus * part(t_plus, d_plus, m_plus) - m_minus * part(t_minus, d_minus, m_minus))
    total = m_plus + m_minus
    # One class puts every pair in the same block; the modularity matrix
    # annihilates constant memberships identically.
    return [
        0.0 if pi.shape[1] == 1 or total <= 0.0 else float(value / total)
        for pi, value in zip(pis, q)
    ]


def fuzzy_weighted_modularity(responses, membership) -> float:
    """Membership-weighted, sign-split modularity of A = R R'.

    Zero by definition for a single class, and when the graph is empty
    (m+ = m- = 0).
    """
    return _scores(response_array(responses), [membership])[0]


def select_k(
    responses,
    estimator="scgoma",
    k_max: int = 15,
    *,
    seed: int = 0,
) -> tuple[int, list]:
    """Pick the class count whose estimated memberships maximize modularity.

    Fits ``estimator`` for every k in 1..k_max, scores each membership matrix,
    and returns ``(k_hat, curve)`` where ``curve`` lists the successful
    ``(k, modularity)`` pairs in order.  Estimator failures at a given k are
    skipped (that k is absent from the curve).  Ties go to the smallest k.
    All fits run first; their memberships are then scored together in one
    pass over A = RR' in row blocks (single-sign R never forms A).

    ``estimator`` is ``"scgoma"``, ``"rmsp"``, or any callable
    ``(responses, k) -> EstimationResult``.  The built-in estimators share one
    decomposition across the sweep (see ``estimation.sweep_fitter``):
    ``"scgoma"`` fits every k from one top-k_max SVD seeded with ``seed`` and
    ``"rmsp"`` from one k_max-pick successive-projection pass.  Each fit then
    equals the single-k ``scgoma``/``rmsp`` fit exactly, except on the
    randomized SVD path (min(N, J) > 512): there the one k_max + 10 column
    sketch leaves the values up to the true class count and at k_max within
    about 1e-7 of the single-k fits, and moves noise-level values by up to
    about 0.04.
    """
    from . import estimation

    r = response_array(responses)
    if not 1 <= k_max <= min(r.shape):
        raise DimensionError(f"k_max={k_max} outside [1, min(N, J)] = [1, {min(r.shape)}]")
    fit = estimation.sweep_fitter(r, estimator, k_max, seed=seed)

    fitted = {}
    for k in range(1, k_max + 1):
        try:
            fitted[k] = fit(k).membership_hat
        except (DegenerateRankError, RankDeficiencyError, DimensionError):
            continue
    if not fitted:
        raise WgomError(f"estimation failed for every k in 1..{k_max}")
    curve = list(zip(fitted, _scores(r, fitted.values())))
    best_k, _ = max(curve, key=lambda point: (point[1], -point[0]))
    return best_k, curve
