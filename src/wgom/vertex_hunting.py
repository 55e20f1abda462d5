"""Successive projection: greedy simplex-vertex search over matrix rows.

For separable inputs (rows = Pi @ X with Pi row-stochastic, one pure row per
class, X nonsingular) the greedy max-norm/project loop provably returns one
pure row per class.

The search never forms the projected rows (Gillis & Vavasis 2014, "Fast and
robust recursive algorithms for separable nonnegative matrix factorization",
IEEE TPAMI 36(4)).  It keeps their squared norms: once a pick's direction u
is orthogonal to the earlier ones, r_i . u = x_i . u, so each pick downdates
|r_i|^2 by (x_i . u)^2 at the cost of one product X u.  Beyond the input it
holds O(N + k d) numbers, not a residual copy of it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RankDeficiencyError
from .types import _is_count

TIE_RTOL = 1e-12
ZERO_RESIDUAL_TOL = 1e-12
# Rounding bound of one downdate, per unit of (row length + picks) and
# relative to the largest squared row norm: a length-d dot product errs by
# about d eps, and the basis departs from orthonormality by about t eps.
DOWNDATE_RTOL = 4 * np.finfo(float).eps


def successive_projection(rows, k: int) -> np.ndarray:
    """Select k rows that span the enclosing simplex of all rows.

    Returns the k selected row indices as an int array, in selection order.

    Each step picks the row with the largest residual Euclidean norm (ties
    within 1e-12 relative go to the lowest index), then projects every row
    onto the orthogonal complement of the picked direction.  The picked
    direction is re-orthogonalized once against the earlier ones before use.
    The residual norms are downdated, and recomputed exactly wherever a pick
    depends on them (see ``_projection_prefix``).

    Raises
    ------
    DimensionError
        If k is not an integer (a bool is not) or exceeds min(n_rows, n_cols).
    RankDeficiencyError
        If the residual vanishes (max row norm < 1e-12) before k rows were
        selected.
    """
    vertices, failure = _projection_prefix(rows, k)
    if failure is not None:
        raise RankDeficiencyError(failure)
    return vertices


def _exact_residuals(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """rows - B'B rows for the orthonormal rows B of ``basis``: the projected
    rows themselves, formed only where a pick depends on their norms."""
    return rows - (rows @ basis.T) @ basis


def _projection_prefix(rows, k: int) -> tuple[np.ndarray, str | None]:
    """Successive projection that stops early instead of raising.

    Returns ``(vertices, failure)``: the int index array of the picks made
    before the residual vanished, and ``None`` or the reason the search
    stopped short of k.  The search is greedy, so the first t picks of a
    k-pick run are the picks of a t-pick run.

    Each pick downdates every squared residual norm by one product X u.
    Downdates lose relative accuracy as residuals shrink (cancellation), so
    before each pick the rows whose downdated norm lies within the rounding
    bound of the top (t * DOWNDATE_RTOL * (d + k) * max |x_i|^2 after t
    picks) get their residuals recomputed exactly and written back.  The
    largest true residual is always among them.  While the top is well above
    the bound these are the tie band alone, usually the picked row, whose
    residual the pick needs anyway; as the top falls toward it, the recompute
    widens, up to every row.  So both stop rules (the largest residual norm
    below 1e-12, a direction that collapses under re-orthogonalization) and
    the tie rule (squared norms within a factor (1 - TIE_RTOL)^2 of the top,
    lowest index first) read exactly computed norms, never downdated ones.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d row matrix, got ndim={x.ndim}")
    n, d = x.shape
    if not (_is_count(k) and 1 <= k <= min(n, d)):
        raise DimensionError(f"k={k!r} outside [1, min(n, d)] = [1, {min(n, d)}]")

    sq = np.einsum("ij,ij->i", x, x)  # row norms without an N x d temporary
    step_bound = DOWNDATE_RTOL * (d + k) * sq.max()
    tie = (1.0 - TIE_RTOL) ** 2
    basis = np.empty((k, d))
    chosen = np.empty(k, dtype=int)

    for t in range(k):
        slack = t * step_bound
        top = float(sq.max())
        near = (sq >= (top - slack) * tie - slack).nonzero()[0]
        if t:
            residuals = _exact_residuals(x[near], basis[:t])
            sq[near] = near_sq = (residuals * residuals).sum(axis=1)
            top = float(near_sq.max())
        else:
            residuals, near_sq = x[near], sq[near]
        if top < ZERO_RESIDUAL_TOL**2:
            return chosen[:t], (
                f"residual vanished after {t} of {k} selections "
                f"(max row norm {np.sqrt(top):.3g})"
            )
        at = int(np.argmax(near_sq >= top * tie)) if len(near) > 1 else 0
        chosen[t] = near[at]

        direction = residuals[at]
        if t:
            # One re-orthogonalization pass keeps the basis clean for
            # near-degenerate simplices.
            earlier = basis[:t]
            direction -= earlier.T @ (earlier @ direction)
        norm = np.sqrt(direction @ direction)
        if norm < ZERO_RESIDUAL_TOL:
            return chosen[:t], (
                f"selected direction collapsed after re-orthogonalization "
                f"at step {t + 1} of {k}"
            )
        basis[t] = direction / norm
        projection = x @ basis[t]
        projection *= projection
        sq -= projection

    return chosen, None
