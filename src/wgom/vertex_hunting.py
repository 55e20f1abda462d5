"""Successive projection: greedy simplex-vertex search over matrix rows.

For separable inputs (rows = Pi @ X with Pi row-stochastic, one pure row per
class, X nonsingular) the greedy max-norm/project loop provably returns one
pure row per class.

The search never forms the projected rows (Gillis & Vavasis 2014, "Fast and
robust recursive algorithms for separable nonnegative matrix factorization",
IEEE TPAMI 36(4)).  It keeps their squared norms: once a pick's direction u
is orthogonal to the earlier ones, r_i . u = x_i . u, so each pick downdates
|r_i|^2 by (x_i . u)^2 at the cost of one product X u.  Beyond the input it
holds O(N + k d) numbers per search, not a residual copy of it.

Searches on several column prefixes of one matrix run in lockstep
(``_projection_searches``).  A class-count sweep searches the rows of
U[:, :k] for every k up to K_max; at each step all of its live searches share
one product X B' and one exact recompute.  A single search is the lockstep's
one-prefix case.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError

TIE_RTOL = 1e-12
ZERO_RESIDUAL_TOL = 1e-12
# Rounding bound of one downdate, per unit of (row length + picks) and
# relative to the largest squared row norm: a length-d dot product errs by
# about d eps, and the basis departs from orthonormality by about t eps.
DOWNDATE_RTOL = 4 * np.finfo(float).eps


def _exact_residuals(rows: np.ndarray, basis) -> np.ndarray:
    """The projected rows, formed only where a pick reads their norms.

    ``basis`` pairs the (m, t, d) stack of m searches' orthonormal bases with
    the search ``owner[i]`` that row i belongs to; row i loses its component
    in the span of its own search's basis only.
    """
    stack, owner = basis
    m, t, d = stack.shape
    stack = stack.reshape(m * t, d)
    coefficients = rows @ stack.T
    if m > 1:
        coefficients.reshape(len(rows), m, t)[owner[:, None] != np.arange(m)] = 0.0
    return rows - coefficients @ stack


def _projection_searches(x: np.ndarray, widths, picks) -> list:
    """Successive projection on several column prefixes of ``x`` in lockstep.

    Search j picks up to ``picks[j]`` rows of ``x[:, :widths[j]]``, where
    1 <= picks[j] <= min(N, widths[j]) and widths[j] <= d; none of this is
    checked.  Returns one ``(vertices, failure)`` pair per search: the int
    index array of the picks made, in selection order, and ``None`` or the
    reason the search stopped short of its picks.  Each search's picks and
    stop are those it would make alone, and since the search is greedy, the
    first t picks of a k-pick search are the picks of a t-pick one.  Step t
    advances every search still short of its picks with one product
    X [u_j ...] for all their new directions and one exact recompute for all
    their bands (below).

    Each pick downdates every squared residual norm of its search.  Downdates
    lose relative accuracy as residuals shrink (cancellation), so before each
    pick the rows whose downdated norm lies within the rounding bound of their
    search's top (t * DOWNDATE_RTOL * (width + picks) * max |x_i|^2 after t
    picks) get their residuals recomputed exactly and written back.  The
    largest true residual is always among them.  While the top is well above
    the bound these are the tie band alone, usually the picked row, whose
    residual the pick needs anyway; as the top falls toward it, the recompute
    widens, up to every row.  So both stop rules (the largest residual norm
    at most 1e-12 times the search's largest starting row norm, a direction
    that collapses to that bound under re-orthogonalization) and the tie rule
    (squared norms within a factor (1 - TIE_RTOL)^2 of the top, lowest index
    first) read exactly computed norms, never downdated ones.  Being
    relative, the stop rules stop R and 2^e R at the same step.
    """
    d = x.shape[1]
    widths, picks = np.asarray(widths), np.asarray(picks)
    steps = int(picks.max())
    results = [None] * len(widths)
    # One row per live search, compacted as searches finish or stop.
    search = np.arange(len(widths))
    sq = np.stack([np.einsum("ij,ij->i", x[:, :w], x[:, :w]) for w in widths])
    if not np.isfinite(sq.max()):
        raise DataFormatError("a row's squared norm must stay within float range (about 1.8e308)")
    largest = sq.max(axis=1)
    step_bound = DOWNDATE_RTOL * (widths + picks) * largest
    # The stop bound on squared norms; ``<=`` stops an all-zero input too.
    floor = ZERO_RESIDUAL_TOL**2 * largest
    # Search j sees the columns in_prefix[j] of a row and zeros elsewhere.
    in_prefix = np.arange(d) < widths[:, None] if (widths < d).any() else None
    basis = np.empty((len(widths), steps, d))
    chosen = np.empty((len(widths), steps), dtype=int)
    tie = (1.0 - TIE_RTOL) ** 2

    for t in range(steps):
        slack = t * step_bound
        top = sq.max(axis=1)
        # Row-major order: ``owner`` (a live search's row) ascends, and so
        # does ``near`` within each owner's segment.
        owner, near = (sq >= ((top - slack) * tie - slack)[:, None]).nonzero()
        residuals = x[near]
        if in_prefix is not None:
            residuals *= in_prefix[owner]
        if t:
            residuals = _exact_residuals(residuals, (basis[:, :t], owner))
            near_sq = (residuals * residuals).sum(axis=1)
            sq[owner, near] = near_sq
        else:
            near_sq = sq[owner, near]
        if len(near) > len(sq):
            # Some band holds several rows: take each search's top and the
            # lowest index in its tie band.  A segment's top is a candidate,
            # so the first candidate at or after its start lies in it.
            starts = np.searchsorted(owner, np.arange(len(sq)))
            if t:
                top = np.maximum.reduceat(near_sq, starts)
            at = (near_sq >= top[owner] * tie).nonzero()[0]
            at = at[np.searchsorted(at, starts)]
            near, residuals = near[at], residuals[at]
        elif t:
            top = near_sq
        chosen[:, t] = near

        directions = residuals
        if t:
            # One re-orthogonalization pass keeps the basis clean for
            # near-degenerate simplices.
            earlier = basis[:, :t]
            coefficients = earlier @ directions[:, :, None]
            directions -= (np.swapaxes(coefficients, 1, 2) @ earlier)[:, 0]
        norms = np.sqrt(directions[:, None] @ directions[:, :, None])[:, 0, 0]
        stopped = (top <= floor) | (norms * norms <= floor)
        leaving = stopped | (picks == t + 1)
        if leaving.any():
            for i in leaving.nonzero()[0]:
                j = search[i]
                if not stopped[i]:
                    results[j] = chosen[i, : t + 1], None
                elif top[i] <= floor[i]:
                    results[j] = chosen[i, :t], (
                        f"residual vanished after {t} of {picks[i]} selections "
                        f"(max row norm {np.sqrt(top[i]):.3g})"
                    )
                else:
                    results[j] = chosen[i, :t], (
                        f"selected direction collapsed after re-orthogonalization "
                        f"at step {t + 1} of {picks[i]}"
                    )
            if leaving.all():
                break
            staying = ~leaving
            search, picks, step_bound, floor, sq, basis, chosen = (
                a[staying] for a in (search, picks, step_bound, floor, sq, basis, chosen)
            )
            directions, norms = directions[staying], norms[staying]
            if in_prefix is not None:
                in_prefix = in_prefix[staying]
        directions /= norms[:, None]
        basis[:, t] = directions
        projection = x @ directions.T
        projection *= projection
        sq -= projection.T

    return results
