"""Fuzzy weighted modularity and class-count selection by maximizing it.

The similarity graph is A = R R'; its positive and negative parts are scored
separately with membership-weighted modularities and combined as
Q = (m+ Q+ - m- Q-) / (m+ + m-).  The class count is chosen as the k in
[1, k_max] whose estimated memberships maximize Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRankError, DimensionError, RankDeficiencyError, WgomError
from .types import membership_array, response_array

# Above this many subjects, A = RR' (N x N) is only materialized when it has
# mixed signs; single-sign inputs use a product form with identical results.
MATERIALIZE_MAX_SUBJECTS = 4096


def _part_score(trace_term: float, degree_vec_pi: np.ndarray, m: float) -> float:
    if m <= 0.0:
        return 0.0
    return (trace_term - (degree_vec_pi @ degree_vec_pi) / (2.0 * m)) / (2.0 * m)


@dataclass(frozen=True)
class ModularityDecomposition:
    """Sign-split similarity graph of a response matrix.

    Holds A+ = max(0, A) and A- = max(0, -A) for A = R R', their degree
    vectors and half degree sums.  ``score`` evaluates the fuzzy weighted
    modularity of a membership matrix against this decomposition.
    """

    a_plus: np.ndarray
    a_minus: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    m_plus: float
    m_minus: float

    @classmethod
    def from_responses(cls, responses) -> "ModularityDecomposition":
        r = response_array(responses)
        a = r @ r.T
        a_plus = np.maximum(0.0, a)
        a_minus = np.maximum(0.0, -a)
        d_plus = a_plus.sum(axis=1)
        d_minus = a_minus.sum(axis=1)
        return cls(
            a_plus=a_plus,
            a_minus=a_minus,
            d_plus=d_plus,
            d_minus=d_minus,
            m_plus=float(d_plus.sum() / 2.0),
            m_minus=float(d_minus.sum() / 2.0),
        )

    def score(self, membership) -> float:
        pi = membership_array(membership)
        if pi.shape[0] != self.a_plus.shape[0]:
            raise DimensionError(
                f"membership has {pi.shape[0]} subjects, responses have "
                f"{self.a_plus.shape[0]}"
            )
        if pi.shape[1] == 1:
            # One class puts every pair in the same block; the modularity
            # matrix annihilates constant memberships identically.
            return 0.0
        total = self.m_plus + self.m_minus
        if total <= 0.0:
            return 0.0
        q_plus = _part_score(
            float(np.trace(pi.T @ (self.a_plus @ pi))),
            self.d_plus @ pi,
            self.m_plus,
        )
        q_minus = _part_score(
            float(np.trace(pi.T @ (self.a_minus @ pi))),
            self.d_minus @ pi,
            self.m_minus,
        )
        return (self.m_plus * q_plus - self.m_minus * q_minus) / total


class _SingleSignScorer:
    """Product-form scorer for single-sign A = RR', never materializing A."""

    def __init__(self, r: np.ndarray):
        self.r = r
        self.d = r @ (r.T @ np.ones(r.shape[0]))
        self.m = float(self.d.sum() / 2.0)

    def score(self, membership) -> float:
        pi = membership_array(membership)
        if pi.shape[0] != self.r.shape[0]:
            raise DimensionError(
                f"membership has {pi.shape[0]} subjects, responses have "
                f"{self.r.shape[0]}"
            )
        if pi.shape[1] == 1:
            return 0.0
        if self.m <= 0.0:
            return 0.0
        rt_pi = self.r.T @ pi
        return _part_score(float((rt_pi**2).sum()), self.d @ pi, self.m)


def _make_scorer(r: np.ndarray):
    if r.shape[0] > MATERIALIZE_MAX_SUBJECTS and ((r >= 0.0).all() or (r <= 0.0).all()):
        return _SingleSignScorer(r)
    return ModularityDecomposition.from_responses(r)


def fuzzy_weighted_modularity(responses, membership) -> float:
    """Membership-weighted, sign-split modularity of A = R R'.

    Zero by definition for a single class, and when the graph is empty
    (m+ = m- = 0).
    """
    return _make_scorer(response_array(responses)).score(membership)


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

    scorer = _make_scorer(r)
    curve = []
    best_k, best_q = None, -np.inf
    for k in range(1, k_max + 1):
        try:
            result = fit(k)
        except (DegenerateRankError, RankDeficiencyError, DimensionError):
            continue
        q = float(scorer.score(result.membership_hat))
        curve.append((k, q))
        if q > best_q:
            best_k, best_q = k, q
    if best_k is None:
        raise WgomError(f"estimation failed for every k in 1..{k_max}")
    return best_k, curve
