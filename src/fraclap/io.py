"""Deterministic CSV / MatrixMarket / JSON emission.

CSV float cells are ``'%.16e' % x`` (17 significant digits) byte for
byte, integer table columns ``'%d'``; identical inputs produce
byte-identical files.  JSON floats rely on repr round-tripping.

Both CSV writers share `_write_csv`, which prints blocks of 16k cells
with numpy in place of one correctly rounded ``dtoa`` call per cell.
For ``1e-280 <= |x| <= 1e280``, ``k = floor(log10|x|)`` and the 17
digits are the rounding ``N`` of ``y = |x| * 10**(16 - k)``:

- ``10**(16 - k)`` is a double-double ``hi + lo`` from a table built
  by exact integer arithmetic.  ``p + e = |x| * hi`` exactly, by
  Dekker's split product (Numer. Math. 18, 1971), and
  ``q = e + |x| * lo``.  For ``y < 1e17``, ``|q| < 20`` and ``p + q``
  is within 1e-14 of ``y``.  As ``y >= 1e16 > 2**53``, ``p`` is an
  integer, and ``N = p + floor(q) + (frac(q) > 1/2)`` in int64.
- ``k`` is off by one only next to a power of ten, where ``floor(y)``
  leaves ``[1e16, 1e17)``; such cells are redone with the neighbour
  exponent.  Within 1e-14 of a decade edge either exponent prints the
  same text: ``N`` then carries to ``1e17``, printed as ``1e16`` with
  ``k + 1``.
- ``frac(q)`` is misjudged only within 1e-14 of 1/2.

Zeros are printed directly.  These cells go to ``'%.16e' % x`` one at
a time: non-finite ones; ``|x|`` outside ``[1e-280, 1e280]``,
subnormals included; ``frac(q)`` within 1e-9 of 1/2, which takes in
every exact tie (``%`` rounds those half to even); and a redone
``floor(y)`` still outside ``[1e16, 1e17)``.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_array

# cells per numpy pass: a whole large matrix at once costs tens of MB
_BLOCK = 1 << 14
# bytes per cell: text in 0-24 around zero pads, the separator at 25
_SLOT = 28
_K = 282                      # the tables cover k in [-_K, _K + 1]
_SPLIT = 2.0 ** 27 + 1.0      # Dekker's splitter
_E16, _E17 = 10 ** 16, 10 ** 17


@functools.cache
def _tables():
    """Indexed by ``k + _K``: ``hi`` split as ``bh + bl``, and ``lo``,
    of ``10**(16 - k)``; then ``"%04d"`` of 0..9999 as words; slot word
    0 (pad, sign, lead digit, point) by ``digit + 10 * negative``; slot
    words 5 and 6 (``e``, sign, 3 zero-padded digits) by ``k + _K``."""
    hi, lo = [], []
    for s in range(16 + _K, 15 - _K, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        m, d = (num / den).as_integer_ratio()   # int / int rounds right
        hi.append(m / d)
        lo.append((num * d - m * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    bh = hi * _SPLIT - (hi * _SPLIT - hi)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    head = b"".join(b"\0" + sign + b"%d." % d
                    for sign in (b"\0", b"-") for d in range(10))
    exp = np.frombuffer(b"".join(
        b"e" + t[:1] + t[1:].rjust(3, b"\0") + b"\0" * 3
        for t in (b"%+03d" % k for k in range(-_K, _K + 2))), np.uint32)
    return (hi, bh, hi - bh, lo,
            (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
            np.frombuffer(head, np.uint32), exp[0::2], exp[1::2])


def _scaled(a, k, tables):
    """``floor(y)`` in int64 and ``frac(y)`` of ``y = a * 10**(16 - k)``."""
    hi, bh, bl, lo = (t[k + _K] for t in tables[:4])
    p = a * hi
    ah = a * _SPLIT - (a * _SPLIT - a)
    al = a - ah
    q = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    fq = np.floor(q)
    return p.astype(np.int64) + fq.astype(np.int64), q - fq


def _slots(x, tables):
    """The uint32 slot words of the float64 cells ``x``, 7 per cell, and
    the mask of cells left to ``%``."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, k, tables)
    off = (n >= _E17).astype(np.int64) - (n < _E16)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], k[redo], tables)
    slow = ~(fast | zero) | (n < _E16) | (n >= _E17) | (
        np.abs(frac - 0.5) < 1e-9)
    n += frac > 0.5
    carry = n == _E17
    k += carry + _K              # now the table index
    n = np.where(carry, _E16, np.where(slow | zero, 0, n))
    k[slow | zero] = _K
    t4, head, exp5, exp6 = tables[4:]
    w = np.empty((x.size, _SLOT // 4), np.uint32)
    lead = n // _E16
    w[:, 0] = head[lead + 10 * np.signbit(x)]
    rest = n - lead * _E16
    top = rest // 10 ** 8
    for j, half in enumerate((top, rest - top * 10 ** 8)):
        group = half // 10000        # // and - beat numpy's % and divmod
        w[:, 1 + 2 * j] = t4[group]
        w[:, 2 + 2 * j] = t4[half - group * 10000]
    w[:, 5] = exp5[k]
    w[:, 6] = exp6[k]
    return w, slow


def _text(cells):
    """Slots holding the byte strings ``cells``, zero-padded."""
    raw = b"".join(c.ljust(_SLOT, b"\0") for c in cells)
    return np.frombuffer(raw, np.uint8).reshape(-1, _SLOT)


def _write_csv(path, rows, header: bytes, ints: dict) -> None:
    """Write ``header``, then the 2-D array ``rows`` as float64 cells;
    column ``j`` in ``ints`` prints ``ints[j]`` with ``%d`` instead."""
    nrows, ncols = rows.shape
    step = max(1, _BLOCK // max(ncols, 1))
    tables = _tables()
    with open(path, "wb") as fh:
        fh.write(header)
        if ncols == 0:
            fh.write(b"\n" * nrows)        # as np.savetxt
            return
        for r0 in range(0, nrows, step):
            x = np.ascontiguousarray(rows[r0:r0 + step], np.float64).ravel()
            w, slow = _slots(x, tables)
            cells = w.view(np.uint8)
            if slow.any():
                cells[slow] = _text(b"%.16e" % v for v in x[slow].tolist())
            cells = cells.reshape(-1, ncols, _SLOT)
            for j, col in ints.items():
                cells[:, j] = _text(b"%d" % v
                                    for v in col[r0:r0 + step].tolist())
            cells[:, :, 25] = ord(",")
            cells[:, -1, 25] = ord("\n")
            fh.write(cells.tobytes().translate(None, b"\0"))


def write_matrix_csv(path, matrix) -> None:
    M = np.atleast_2d(np.asarray(matrix))
    if np.iscomplexobj(M):
        raise ValueError("CSV matrix output expects real entries")
    if M.ndim != 2:
        raise ValueError(f"CSV matrix output expects 2 dimensions, "
                         f"got {M.ndim}")
    _write_csv(path, M, b"", {})


def write_matrix_mm(path, matrix, comment: str = "") -> None:
    M = np.asarray(matrix)
    mmwrite(str(path), coo_array(M), comment=comment, precision=17)


def write_table_csv(path, header: list[str], columns: list) -> None:
    cols = [np.asarray(c) for c in columns]
    if len({c.shape[0] for c in cols}) != 1:
        raise ValueError("table columns must share a length")
    ints = {j: c for j, c in enumerate(cols)
            if np.issubdtype(c.dtype, np.integer)}
    rows = np.column_stack([np.zeros(c.shape[0]) if j in ints
                            else c.astype(float) for j, c in enumerate(cols)])
    _write_csv(path, rows, (",".join(header) + "\n").encode("utf-8"), ints)


def _json_default(obj):
    """What `json` cannot encode itself: arrays as lists, numpy scalars
    as Python ones, complex numbers as ``{"re": ..., "im": ...}``."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
