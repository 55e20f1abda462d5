"""Successive projection: greedy simplex-vertex search over matrix rows.

For separable inputs (rows = Pi @ X with Pi row-stochastic, one pure row per
class, X nonsingular) the greedy max-norm/project loop provably returns one
pure row per class.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RankDeficiencyError

TIE_RTOL = 1e-12
ZERO_RESIDUAL_TOL = 1e-12


def successive_projection(rows, k: int) -> np.ndarray:
    """Select k rows that span the enclosing simplex of all rows.

    Returns the k selected row indices as an int array, in selection order.

    Each step picks the row with the largest residual Euclidean norm (ties
    within 1e-12 relative go to the lowest index), then projects every row
    onto the orthogonal complement of the picked direction.  The picked
    direction is re-orthogonalized once against the earlier ones before use.

    Raises
    ------
    DimensionError
        If k exceeds min(n_rows, n_cols).
    RankDeficiencyError
        If the residual matrix vanishes (max row norm < 1e-12) before k rows
        were selected.
    """
    vertices, failure = _projection_prefix(rows, k)
    if failure is not None:
        raise RankDeficiencyError(failure)
    return vertices


def _projection_prefix(rows, k: int) -> tuple[np.ndarray, str | None]:
    """Successive projection that stops early instead of raising.

    Returns ``(vertices, failure)``: the int index array of the picks made
    before the residual vanished, and ``None`` or the reason the search
    stopped short of k.  The search is greedy, so the first t picks of a
    k-pick run are the picks of a t-pick run.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d row matrix, got ndim={x.ndim}")
    n, d = x.shape
    if not 1 <= k <= min(n, d):
        raise DimensionError(f"k={k} outside [1, min(n, d)] = [1, {min(n, d)}]")

    residual = x.copy()
    basis = np.empty((k, d))
    chosen = np.empty(k, dtype=int)

    for t in range(k):
        norms = np.linalg.norm(residual, axis=1)
        top = norms.max()
        if top < ZERO_RESIDUAL_TOL:
            return chosen[:t], (
                f"residual vanished after {t} of {k} selections "
                f"(max row norm {top:.3g})"
            )
        pick = int(np.flatnonzero(norms >= top * (1.0 - TIE_RTOL))[0])
        chosen[t] = pick

        direction = residual[pick].copy()
        if t:
            # One re-orthogonalization pass keeps the basis clean for
            # near-degenerate simplices.
            direction -= basis[:t].T @ (basis[:t] @ direction)
        norm = np.linalg.norm(direction)
        if norm < ZERO_RESIDUAL_TOL:
            return chosen[:t], (
                f"selected direction collapsed after re-orthogonalization "
                f"at step {t + 1} of {k}"
            )
        direction /= norm
        basis[t] = direction
        residual -= np.outer(residual @ direction, direction)

    return chosen, None
