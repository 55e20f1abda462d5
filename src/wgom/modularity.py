"""Fuzzy weighted modularity and class-count selection by maximizing it.

The similarity graph is A = R R'; its positive and negative parts are scored
separately with membership-weighted modularities and combined as
Q = (m+ Q+ - m- Q-) / (m+ + m-).  The class count is chosen as the k in
[1, k_max] whose estimated memberships maximize Q.

One scorer serves every input size and scores any number of membership
matrices at once.  Only three things enter Q: the degrees d+ = A+ 1 and
d- = A- 1, and the trace pi' A pi = |R' pi|^2, which stands in for the two
parts' traces because m+ Q+ - m- Q- needs only their difference.  Single-sign
R has A = A+ >= 0 and is scored in product form, without forming A.
Mixed-sign R walks the upper triangle of A in row blocks (about
``BLOCK_BYTES`` each), forms only A+ there and takes d- = d+ - A 1 from
A- = A+ - A, so A- is never formed, and each block is freed before the next.
At N = 6000, J = 300 and 15 membership matrices this takes about 0.2 s on a
2-core Xeon (OpenBLAS, 2 threads) and peaks at 10.1 MB under tracemalloc.

``ClassCountSweep`` is the estimators' one fit engine, ``estimation._Sweep``,
plus ``select``: it scores the cached membership stage of every k and
finishes no fit.
"""

from __future__ import annotations

import numpy as np

from . import estimation
from .errors import DataFormatError, DegenerateRankError, DimensionError, RankDeficiencyError, WgomError
from .types import _is_count, membership_array, response_array

# Byte budget of one row block of A = RR' in the mixed-sign pass: 1 and 2 MiB ran 9 and 6 % slower.
BLOCK_BYTES = 4 * 2**20


def _scores(r: np.ndarray, memberships) -> list:
    """Modularity of each membership matrix in ``memberships`` against A = RR'."""
    n = r.shape[0]
    pis = [membership_array(membership) for membership in memberships]
    for pi in pis:
        if pi.shape[0] != n:
            raise DimensionError(f"membership has {pi.shape[0]} subjects, responses have {n}")
    # All K concatenated: per-column degree sums d' pi_c and trace terms
    # pi_c' A pi_c = |(pi_c' R)'|^2 (``linalg``'s rule), squared in C order, reduced per K below.
    pi_all = np.hstack(pis)
    starts = np.cumsum([0] + [pi.shape[1] for pi in pis[:-1]])
    # A = RR' can leave float range where R does not: the checks below name it.
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = r @ (r.T @ np.ones(n))
        if r.min() >= 0.0 or r.max() <= 0.0:
            d_plus, d_minus = row_sums, np.zeros(n)
        else:
            # Upper triangle of A+ only: block [s, e) forms A[s:e, s:] and clamps
            # it in place; its strictly-upper part stands in for its mirror, so
            # its column sums go to d+[e:].  A- = A+ - A gives d- without forming
            # A-, and rounding that would leave a degree below 0 is dropped.
            d_plus = np.zeros(n)
            rows = max(1, BLOCK_BYTES // (8 * n))
            for start in range(0, n, rows):
                end = min(start + rows, n)
                a = r[start:end] @ r[start:].T
                np.maximum(a, 0.0, out=a)
                d_plus[start:end] += a.sum(axis=1)
                d_plus[end:] += a[:, end - start :].sum(axis=0)
                del a
            d_minus = np.maximum(d_plus - row_sums, 0.0)
        trace = np.add.reduceat(np.square((pi_all.T @ r).T, order="C").sum(axis=0), starts)
    peak = np.maximum(d_plus.max(), d_minus.max())
    if not (np.isfinite(peak) and np.isfinite(trace).all()):
        raise DataFormatError("A = RR' overflows float range; rescale the responses toward 1")
    # d+_i >= A_ii = |r_i|^2, so a zero degree on a nonzero row is underflow.
    zero = (d_plus == 0.0).nonzero()[0]
    if len(zero) and r[zero].any():
        raise DataFormatError("A = RR' underflows to zero; rescale the responses toward 1")
    # Q is a ratio: one power of two on d+, d- and the trace changes no bit of
    # it, and keeps (d' pi)^2 in float range wherever the degrees are.
    if peak > 0.0:
        shift = -np.frexp(peak)[1]
        d_plus, d_minus, trace = (np.ldexp(x, shift) for x in (d_plus, d_minus, trace))
    m_plus, m_minus = float(d_plus.sum() / 2.0), float(d_minus.sum() / 2.0)

    def part(t, d, m):
        if m <= 0.0:
            return np.zeros(len(pis))
        degree = np.add.reduceat((d @ pi_all) ** 2, starts)
        return (t - degree / (2.0 * m)) / (2.0 * m)

    # m+ Q+ - m- Q- sees only pi' A+ pi - pi' A- pi = pi' A pi, so the + part
    # carries the whole trace and the - part none.
    q = m_plus * part(trace, d_plus, m_plus) - m_minus * part(0.0, d_minus, m_minus)
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
    (m+ = m- = 0).  Raises ``DataFormatError`` where A leaves float range: a
    degree or the trace overflows, or a nonzero row's degree underflows to 0.
    """
    return _scores(response_array(responses), [membership])[0]


class ClassCountSweep(estimation._Sweep):
    """The fits of a class-count sweep over k = 1..k_max, each computed once on
    first use, and the k among them whose memberships maximize modularity.

    ``estimator`` is ``"scgoma"`` or ``"rmsp"``.  The constructor raises
    ``DimensionError`` unless k_max is an integer in [1, min(N, J)], and
    ``ConfigError`` for any other estimator or a seed that is not an
    integer >= 0.  It decomposes R once, and each fit equals the single-k
    ``scgoma``/``rmsp`` fit exactly, except ``"scgoma"`` with k_max > 15
    where a single fit takes the randomized SVD path (see
    ``estimation._Sweep``).  ``select`` scores the memberships of each k and
    finishes no fit; item parameters and the ``EstimationResult`` are
    computed only for the k passed to ``fit``.  At a k far from the true
    class count a fit's ``n_clamped_rows`` is often nonzero; that is data,
    not a fault.
    """

    def select(self, k_max=None) -> tuple[int, list]:
        """Score the memberships of every k in 1..k_max (default: the sweep's)
        and return ``(k_hat, curve)`` where ``curve`` lists the successful
        ``(k, modularity)`` pairs in order.  Only the membership stage of each
        fit runs; no fit is finished.  Estimator failures at a given k are
        skipped (that k is absent from the curve).  Ties go to the smallest
        k.  The memberships are scored together, in the one pass over R the
        module docstring describes.

        Raises ``DimensionError`` unless k_max is an integer in [1, the
        sweep's k_max], and ``WgomError`` if the estimator fails at every k.
        """
        k_max = self.k_max if k_max is None else k_max
        if not (_is_count(k_max) and 1 <= k_max <= self.k_max):
            raise DimensionError(f"k_max={k_max!r} outside [1, {self.k_max}], the sweep's k_max")
        fitted = {}
        for k in range(1, k_max + 1):
            try:
                fitted[k] = self.memberships(k)[0]
            except (DegenerateRankError, RankDeficiencyError):
                continue
        if not fitted:
            raise WgomError(f"estimation failed for every k in 1..{k_max}")
        curve = list(zip(fitted, _scores(self.responses, fitted.values())))
        best_k, _ = max(curve, key=lambda point: (point[1], -point[0]))
        return best_k, curve


def select_k(responses, estimator="scgoma", k_max: int = 15, *, seed: int = 0) -> tuple[int, list]:
    """Pick the class count in 1..k_max whose estimated memberships maximize
    modularity: ``(k_hat, curve)`` as ``ClassCountSweep.select`` gives it."""
    return ClassCountSweep(responses, estimator, k_max, seed=seed).select()
