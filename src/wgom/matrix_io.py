"""Matrix file formats and result manifests.

Dense matrices travel as headerless CSV with shortest-round-trip decimals
(``repr`` of each float), so write-then-read reproduces values bit-exactly.
Sparse input is accepted as 1-indexed coordinate text with a ``N J NNZ``
header line; coordinate files densify on load.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataFormatError


def write_dense_csv(path, array) -> None:
    """Write a 2-d array as headerless CSV with round-trip-exact decimals."""
    arr = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(repr(v) for v in row.tolist()))
            fh.write("\n")


def read_dense_csv(path) -> np.ndarray:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a dense CSV matrix ({exc})") from exc
    if arr.size == 0:
        raise DataFormatError(f"{path}: empty matrix file")
    return arr


def write_coordinate(path, array) -> None:
    """Write the nonzero entries as 1-indexed ``row col value`` lines."""
    arr = np.asarray(array, dtype=float)
    rows, cols = np.nonzero(arr)
    with open(path, "w") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]} {len(rows)}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(arr[i, j])!r}\n")


def read_coordinate(path) -> np.ndarray:
    """Densify a 1-indexed coordinate file; duplicate entries accumulate.

    Every entry is read and checked against the header before the dense
    array is allocated, and an allocation the header makes impossible is a
    ``DataFormatError``.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise DataFormatError(f"{path}: coordinate header must be 'N J NNZ'")
        try:
            n, j, nnz = (int(tok) for tok in header)
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad coordinate header {header}") from exc
        if n < 1 or j < 1 or nnz < 0:
            raise DataFormatError(f"{path}: nonpositive dimensions in header")
        rows, cols, values = [], [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 'row col value'")
            try:
                row, col, value = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad entry {parts}") from exc
            if not (1 <= row <= n and 1 <= col <= j):
                raise DataFormatError(
                    f"{path}:{lineno}: index ({row}, {col}) outside 1..{n} x 1..{j}"
                )
            rows.append(row - 1)
            cols.append(col - 1)
            values.append(value)
    if len(values) != nnz:
        raise DataFormatError(f"{path}: header promises {nnz} entries, found {len(values)}")
    try:
        dense = np.zeros((n, j))
    except MemoryError as exc:
        raise DataFormatError(
            f"{path}: cannot allocate the {n} x {j} matrix its header declares"
        ) from exc
    # Unbuffered, in file order: duplicates accumulate as repeated += would.
    np.add.at(dense, (rows, cols), values)
    return dense


def read_matrix(path) -> np.ndarray:
    """Load a matrix, auto-detecting dense CSV (commas) vs coordinate text."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    with open(path) as fh:
        first = fh.readline()
    if not first.strip():
        raise DataFormatError(f"{path}: empty file")
    if "," in first:
        return read_dense_csv(path)
    return read_coordinate(path)


def prune_empty(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop all-zero rows and all-zero columns in a single pass.

    Returns ``(pruned, kept_rows, kept_cols)`` with the kept original indices.
    Row and column masks are both computed on the input, not iterated to a
    fixpoint.
    """
    arr = np.asarray(values, dtype=float)
    kept_rows = np.flatnonzero((arr != 0.0).any(axis=1))
    kept_cols = np.flatnonzero((arr != 0.0).any(axis=0))
    if len(kept_rows) == 0 or len(kept_cols) == 0:
        raise DataFormatError("pruning removed every row or column (all-zero matrix)")
    return arr[np.ix_(kept_rows, kept_cols)], kept_rows, kept_cols


def config_hash(payload) -> str:
    """Stable sha256 of a JSON-serializable configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
