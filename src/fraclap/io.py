"""Deterministic CSV / MatrixMarket / JSON emission.

CSV uses ``%.16e`` (17 significant digits); identical inputs produce
byte-identical files.  JSON floats rely on repr round-tripping.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_array

__all__ = [
    "write_matrix_csv",
    "write_matrix_mm",
    "write_table_csv",
    "write_json",
    "sha256_file",
]

_FMT = "%.16e"


def write_matrix_csv(path, matrix) -> None:
    M = np.asarray(matrix)
    if np.iscomplexobj(M):
        raise ValueError("CSV matrix output expects real entries")
    np.savetxt(path, np.atleast_2d(M), fmt=_FMT, delimiter=",")


def write_matrix_mm(path, matrix, comment: str = "") -> None:
    M = np.asarray(matrix)
    mmwrite(str(path), coo_array(M), comment=comment, precision=17)


def write_table_csv(path, header: list[str], columns: list) -> None:
    cols = [np.asarray(c) for c in columns]
    if len({c.shape[0] for c in cols}) != 1:
        raise ValueError("table columns must share a length")
    ints = [np.issubdtype(c.dtype, np.integer) for c in cols]
    row_fmt = ",".join("%d" if i else _FMT for i in ints) + "\n"
    values = [c.tolist() if i else c.astype(float).tolist()
              for c, i in zip(cols, ints)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_fmt % row for row in zip(*values))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
