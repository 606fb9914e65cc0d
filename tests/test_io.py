import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.io import (sha256_file, write_json, write_matrix_csv,
                        write_matrix_mm, write_table_csv)


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 7))
    p = tmp_path / "a.csv"
    write_matrix_csv(p, A)
    B = np.loadtxt(p, delimiter=",")
    assert np.array_equal(A, B)          # 17 significant digits round-trip


def test_matrix_csv_rejects_complex(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_csv(tmp_path / "c.csv", np.eye(2) * (1 + 1j))


def test_matrix_csv_rejects_three_dimensions(tmp_path):
    with pytest.raises(ValueError, match="expects 2 dimensions, got 3"):
        write_matrix_csv(tmp_path / "c.csv", np.zeros((2, 2, 2)))


def test_matrix_mm_roundtrip(tmp_path):
    from scipy.io import mmread
    A = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    p = tmp_path / "a.mtx"
    write_matrix_mm(p, A)
    B = mmread(p)
    if not isinstance(B, np.ndarray):
        B = B.toarray()
    assert np.array_equal(A, B)


def test_table_csv_formats_ints_plainly(tmp_path):
    p = tmp_path / "t.csv"
    write_table_csv(p, ["k", "value"],
                    [np.array([1, 2, 3]), np.array([0.5, 0.25, 0.125])])
    lines = p.read_text().splitlines()
    assert lines[0] == "k,value"
    assert lines[1].startswith("1,")
    assert "e" in lines[1].split(",")[1]


def per_cell_table(header, columns):
    """Cell-by-cell CSV reference: str(int) for integer columns, %.16e
    for every other column."""
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for row in range(cols[0].shape[0]):
        lines.append(",".join(
            str(int(c[row])) if np.issubdtype(c.dtype, np.integer)
            else "%.16e" % float(c[row]) for c in cols))
    return "".join(line + "\n" for line in lines)


def test_table_csv_matches_per_cell_reference(tmp_path):
    rng = np.random.default_rng(3)
    n = 37
    columns = [
        np.arange(n) - 5,
        rng.integers(-2**62, 2**62, n, dtype=np.int64),
        np.arange(n, dtype=np.uint8),
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan] + [1e-310] * (n - 5)),
        rng.standard_normal(n).astype(np.float32),
        rng.random(n) < 0.5,
        np.linspace(0.0, 1.0, n)[::-1],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    p = tmp_path / "t.csv"
    write_table_csv(p, header, columns)
    assert p.read_text() == per_cell_table(header, columns)
    one_row = [np.array([7]), np.array([0.1]), np.array([True]), [2.5]]
    write_table_csv(p, ["a", "b", "c", "d"], one_row)
    assert p.read_text() == per_cell_table(["a", "b", "c", "d"], one_row)
    assert p.read_text() == ("a,b,c,d\n7,1.0000000000000001e-01,"
                             "1.0000000000000000e+00,2.5000000000000000e+00\n")


def rendered(tmp_path, values):
    """The cells `write_matrix_csv` writes for ``values``, one per row."""
    p = tmp_path / "cells.csv"
    write_matrix_csv(p, np.asarray(values, dtype=float).reshape(-1, 1))
    return p.read_text().splitlines()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_match_percent_format_for_any_float(tmp_path_factory, xs):
    # st.floats() includes nan, +-inf, +-0.0 and subnormals
    got = rendered(tmp_path_factory.getbasetemp(), xs)
    assert got == ["%.16e" % x for x in xs]


def test_cells_match_percent_format_for_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(22).integers(0, 2**64, 10**6,
                                              dtype=np.uint64)
    x = bits.view(np.float64).reshape(-1, 8)
    p = tmp_path / "bits.csv"
    write_matrix_csv(p, x)
    row = ",".join(["%.16e"] * 8) + "\n"
    assert p.read_text() == "".join(row % tuple(r) for r in x.tolist())


def test_cells_match_percent_format_at_hard_cases(tmp_path):
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.array([1e-280, 1e280, 2.0 ** 53, 1e16, 1e17])
    m = np.random.default_rng(4).integers(2**52, 2**53, 2000,
                                          dtype=np.int64)
    near = [np.nextafter(v, towards) for v in (tens, edges)
            for towards in (0.0, np.inf)]
    values = np.concatenate(
        [tens, edges, *near, m / 4, m / 8, [1e15 + 0.25, 1e15 + 0.75]])
    values = np.concatenate([values, -values, [0.0, -0.0]])
    assert rendered(tmp_path, values) == ["%.16e" % x for x in values]
    # exact ties round half to even
    assert rendered(tmp_path, [1e15 + 0.25, 1e15 + 0.75]) == [
        "1.0000000000000002e+15", "1.0000000000000008e+15"]


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (163, 100),
                                   (164, 100), (327, 100), (40, 500),
                                   (4, 0)])
@pytest.mark.parametrize("dtype", [float, np.float32, np.int64, bool])
def test_matrix_csv_matches_savetxt(tmp_path, shape, dtype):
    # 16384 cells per block: 163 rows of 100 fill one block, 164 start a
    # second, and a 500-column row block holds 32 rows
    rng = np.random.default_rng(shape[0] * shape[1])
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 15, shape)
    M = M > 0 if dtype is bool else M.astype(dtype)
    mine, ref = tmp_path / "mine.csv", tmp_path / "ref.csv"
    write_matrix_csv(mine, M)
    np.savetxt(ref, M, fmt="%.16e", delimiter=",")
    assert mine.read_bytes() == ref.read_bytes()


def test_matrix_csv_writes_vectors_and_scalars_as_one_row(tmp_path):
    p = tmp_path / "v.csv"
    write_matrix_csv(p, [0.5, -2.0])
    assert p.read_text() == "5.0000000000000000e-01,-2.0000000000000000e+00\n"
    write_matrix_csv(p, 3)
    assert p.read_text() == "3.0000000000000000e+00\n"


def test_table_csv_across_blocks_matches_per_cell_reference(tmp_path):
    rng = np.random.default_rng(5)
    n = 3000
    columns = [np.arange(n), rng.standard_normal(n),
               rng.integers(-10**12, 10**12, n),
               rng.standard_normal(n) * 1e-200, np.full(n, np.nan)]
    columns += [rng.standard_normal(n) for _ in range(7)]
    header = [f"c{i}" for i in range(len(columns))]
    p = tmp_path / "t.csv"
    write_table_csv(p, header, columns)
    assert p.read_text() == per_cell_table(header, columns)


def test_table_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table_csv(tmp_path / "t.csv", ["a", "b"],
                        [np.arange(3), np.arange(4.0)])


def test_write_json_deterministic(tmp_path):
    payload = {"b": np.float64(2.0), "a": np.arange(3), "c": "x"}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    write_json(p1, payload)
    write_json(p2, dict(reversed(list(payload.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["a"] == [0, 1, 2]


def test_write_json_encodes_numpy_and_complex_values(tmp_path):
    p = tmp_path / "v.json"
    write_json(p, {"zero_d": np.array(1.5), "int": np.int64(7),
                   "flag": np.bool_(True), "z": 1 - 2j,
                   "zs": np.array([0.5j]), "x": np.float64(0.1)})
    assert json.loads(p.read_text()) == {
        "zero_d": 1.5, "int": 7, "flag": True, "z": {"re": 1.0, "im": -2.0},
        "zs": [{"re": 0.0, "im": 0.5}], "x": 0.1}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_json(p, {"s": {1}})


def test_sha256_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    digest = sha256_file(p)
    assert digest == ("ba7816bf8f01cfea414140de5dae2223"
                      "b00361a396177a9cb410ff61f20015ad")
