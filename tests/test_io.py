import json

import numpy as np
import pytest

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


def test_sha256_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    digest = sha256_file(p)
    assert digest == ("ba7816bf8f01cfea414140de5dae2223"
                      "b00361a396177a9cb410ff61f20015ad")
