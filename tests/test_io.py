import warnings

import numpy as np
import pytest

from wgom import DataFormatError
from wgom.matrix_io import (
    config_hash,
    prune_empty,
    read_coordinate,
    read_dense_csv,
    read_matrix,
    write_coordinate,
    write_dense_csv,
)


def test_dense_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((13, 7)) * 10.0 ** rng.integers(-8, 8, (13, 7))
    arr[0, 0] = 0.1
    arr[1, 1] = 1.0 / 3.0
    arr[2, 2] = 0.0
    path = tmp_path / "dense.csv"
    write_dense_csv(path, arr)
    loaded = read_dense_csv(path)
    assert np.array_equal(loaded, arr)


def test_dense_single_row_and_column(tmp_path):
    path = tmp_path / "row.csv"
    write_dense_csv(path, np.array([[1.5, 2.5, 3.5]]))
    assert read_dense_csv(path).shape == (1, 3)
    write_dense_csv(path, np.array([[1.5], [2.5]]))
    assert read_dense_csv(path).shape == (2, 1)


def test_coordinate_round_trip(tmp_path):
    arr = np.zeros((4, 5))
    arr[0, 1] = 2.25
    arr[3, 4] = -0.125
    arr[2, 0] = 1.0 / 3.0
    path = tmp_path / "coo.txt"
    write_coordinate(path, arr)
    assert np.array_equal(read_coordinate(path), arr)


def test_coordinate_is_one_indexed(tmp_path):
    path = tmp_path / "coo.txt"
    path.write_text("2 2 1\n1 1 7.5\n")
    loaded = read_coordinate(path)
    assert loaded[0, 0] == 7.5
    assert loaded.sum() == 7.5


def test_coordinate_duplicates_accumulate(tmp_path):
    path = tmp_path / "coo.txt"
    path.write_text("2 2 2\n1 1 1.5\n1 1 2.0\n")
    assert read_coordinate(path)[0, 0] == 3.5


def test_coordinate_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n")
    with pytest.raises(DataFormatError):
        read_coordinate(path)
    path.write_text("2 2 1\n3 1 2.0\n")
    with pytest.raises(DataFormatError, match="outside"):
        read_coordinate(path)
    path.write_text("2 2 5\n1 1 2.0\n")
    with pytest.raises(DataFormatError, match="promises"):
        read_coordinate(path)
    path.write_text("2 2 1\n1 1\n")
    with pytest.raises(DataFormatError):
        read_coordinate(path)
    path.write_text("3 x 1\n1 1 2.0\n")
    with pytest.raises(DataFormatError, match="bad coordinate header"):
        read_coordinate(path)


def test_coordinate_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("2 2 2\n\n1 1 1.5\n   \n2 2 3.0\n\n")
    assert np.array_equal(read_coordinate(path), [[1.5, 0.0], [0.0, 3.0]])


def test_read_matrix_autodetects(tmp_path):
    dense = tmp_path / "a.csv"
    write_dense_csv(dense, np.array([[1.0, 0.0], [0.0, 2.0]]))
    coo = tmp_path / "a.txt"
    write_coordinate(coo, np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.array_equal(read_matrix(dense), read_matrix(coo))
    with pytest.raises(DataFormatError):
        read_matrix(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError):
        read_matrix(empty)


def test_csv_of_comment_lines_is_an_empty_matrix_without_a_warning(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text("#,\n# 1,2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataFormatError, match="empty matrix file"):
            read_matrix(path)
    assert caught == []


def test_prune_empty_single_pass():
    arr = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0],
        ]
    )
    pruned, rows, cols = prune_empty(arr)
    assert rows.tolist() == [0, 2]
    assert cols.tolist() == [1]
    assert pruned.tolist() == [[1.0], [2.0]]
    with pytest.raises(DataFormatError):
        prune_empty(np.zeros((2, 2)))


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})
