"""Compare the outputs of one pass of each ``perfbench`` workload in two
checkouts of fraclap.

Usage, from the repository root:

    python3 tools/compare_outputs.py --parent ../base --change . --seeds 3,7

For each seed, each checkout runs every operation of its own
``perfbench`` ``cli``, ``undirected`` and ``lattice`` workloads once, in
a subprocess that puts that checkout's ``src/`` and ``perfbench/`` first
on the path, pins BLAS to the thread count of its ``perfbench/run.py``
and works in a fresh temporary directory.  Every file the ``cli`` pass
writes is digested; a run manifest is digested without ``duration_s``
and with the temporary directory replaced by ``<work>`` (`normalise`).
The exit code of each ``cli`` operation is compared too, and so is the
value each ``undirected`` and ``lattice`` operation returns, one digest
per dataclass field (`digest`).  The tool prints each name that differs
or exists on one side only and exits 1 if there is any.  A differing
``undirected`` or ``lattice`` field that is a float, or a float or
complex array of one shape on both sides, is printed with its largest
absolute difference, from a second pass that returns those fields'
values (`result_values`).  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
TOOLS = Path(__file__).resolve().parent
# run in the subprocess: argv is the checkout, the work directory, the seed,
# this file's directory, whose `result_digests` and `result_values` both
# checkouts share, and a JSON list of the result names to return values of
PASS = """
import json, os, sys
from pathlib import Path
checkout, work, seed = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"),
                sys.argv[4]]
import run
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = run.BLAS_THREADS
import workloads
from compare_outputs import result_digests, result_values
wanted = set(json.loads(sys.argv[5]))
ops = workloads.cli_workload(seed, work)
out = {"exit": {op.name: op.run() for op in ops}, "values": {}}
for name in ("undirected", "lattice"):
    for op in workloads.WORKLOADS[name](seed, work / name):
        try:
            value = op.run()
        except Exception as exc:
            value = f"raised {type(exc).__name__}"
        out.update(result_digests(f"{name}:{op.name}", value))
        out["values"].update(result_values(f"{name}:{op.name}", value,
                                           wanted))
print(json.dumps(out))
"""


def _feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``, each part tagged by its type."""
    def part(tag, data):
        h.update(tag + len(data).to_bytes(8, "little") + data)

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        part(b"D", type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            part(b"F", field.name.encode())
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, float):
        part(b"f", struct.pack("<d", obj))
    elif hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        part(b"A", f"{obj.dtype.str}{obj.shape}".encode())
        part(b"a", obj.tobytes())
    elif isinstance(obj, int):
        part(b"i", repr(obj).encode())       # True and 1 differ
    elif isinstance(obj, str):
        part(b"s", obj.encode())
    elif obj is None:
        part(b"N", b"")
    elif isinstance(obj, (tuple, list)):
        part(b"T" if isinstance(obj, tuple) else b"L", str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def digest(obj) -> str:
    """SHA-256 of a canonical encoding of ``obj``: a dataclass by its
    fields in order, an array by dtype, shape and bytes, a float by its
    8 bytes, then ints, strings, ``None``, and tuples and lists of these,
    recursively."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _fields(name: str, value) -> dict:
    """``value`` under ``name``, or each of its fields under
    ``name.field`` if it is a dataclass."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f"{name}.{f.name}": getattr(value, f.name)
                for f in dataclasses.fields(value)}
    return {name: value}


def result_digests(name: str, value) -> dict[str, str]:
    """`digest` of an operation's returned ``value`` under ``name``, or
    of each of its fields under ``name.field`` if it is a dataclass."""
    return {key: digest(v) for key, v in _fields(name, value).items()}


def result_values(name: str, value, wanted) -> dict[str, list]:
    """The values of the `result_digests` entries of ``value`` whose
    names are in ``wanted`` and that are a float or a float or complex
    array, each as ``[shape, flat values]``, a complex value as
    ``[re, im]``."""
    out = {}
    for key, v in _fields(name, value).items():
        if key not in wanted:
            continue
        if isinstance(v, float):
            out[key] = [[], [v]]
        elif getattr(v, "dtype", None) is not None and v.dtype.kind in "fc":
            flat = v.ravel().tolist()
            out[key] = [list(v.shape), [[c.real, c.imag] for c in flat]
                        if v.dtype.kind == "c" else flat]
    return out


def largest_difference(a, b):
    """The largest absolute difference between two `result_values`
    entries (NaN if one side alone has a NaN), or None if their shapes
    differ."""
    if a[0] != b[0]:
        return None

    def number(v):
        return complex(*v) if isinstance(v, list) else v

    diffs = [abs(x - y) for x, y in zip(map(number, a[1]), map(number, b[1]))
             if not (x == y or (x != x and y != y))]
    return math.nan if any(d != d for d in diffs) else max(diffs,
                                                           default=0.0)


def normalise(name: str, data: bytes, work: str) -> bytes:
    """The bytes of output file ``name`` as they are compared: a run
    manifest (``*_manifest.json``) without its ``duration_s`` and with
    every occurrence of the work directory ``work`` replaced by
    ``<work>``; any other file unchanged."""
    if not name.endswith("_manifest.json"):
        return data
    doc = json.loads(data)
    doc.pop("duration_s", None)
    text = json.dumps(doc, sort_keys=True)
    return text.replace(json.dumps(work)[1:-1], "<work>").encode()


def _pass(checkout: Path, seed: int, tmp: str, wanted=()) -> dict:
    """The output of `PASS` in ``checkout``, working in ``tmp/work``."""
    proc = subprocess.run(
        [sys.executable, "-c", PASS, str(checkout.resolve()),
         str(Path(tmp) / "work"), str(seed), str(TOOLS),
         json.dumps(sorted(wanted))], cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the pass failed in {checkout} (seed {seed})"
                         f":\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(checkout: Path, seed: int) -> dict[str, str]:
    """SHA-256 of each normalised file one ``cli`` pass writes, by path
    relative to its output directory; each ``cli`` operation's exit code
    under ``exit:<operation>``; and the `result_digests` of each
    ``undirected`` and ``lattice`` operation under
    ``<workload>:<operation>``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = _pass(checkout, seed, tmp)
        del out["values"]
        codes = out.pop("exit")
        out.update({f"exit:{op}": str(code) for op, code in codes.items()})
        work = Path(tmp) / "work"
        root = work / "out"
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = path.relative_to(root).as_posix()
            data = normalise(name, path.read_bytes(), str(work))
            out[name] = hashlib.sha256(data).hexdigest()
    return out


def values(checkout: Path, seed: int, wanted) -> dict[str, list]:
    """The `result_values` of the ``undirected`` and ``lattice`` results
    named in ``wanted``, from a second pass."""
    with tempfile.TemporaryDirectory() as tmp:
        return _pass(checkout, seed, tmp, wanted)["values"]


def differences(parent: dict[str, str], change: dict[str, str],
                largest=None) -> list[str]:
    """One line per name whose digest differs or that one side lacks; a
    name in ``largest`` is printed with its largest absolute difference."""
    largest = largest or {}
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            lines.append(f"{name}: only in the parent")
        elif name not in parent:
            lines.append(f"{name}: only in the change")
        elif parent[name] != change[name]:
            lines.append(f"{name}: differs" + (
                f", by at most {largest[name]:.2e}" if name in largest
                else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    failed = False
    for seed in (int(s) for s in args.seeds.split(",")):
        got = {side: digests(getattr(args, side), seed) for side in SIDES}
        wanted = [n for n in got["parent"].keys() & got["change"].keys()
                  if n.startswith(("undirected:", "lattice:"))
                  and got["parent"][n] != got["change"][n]]
        largest = {}
        if wanted:
            vals = {side: values(getattr(args, side), seed, wanted)
                    for side in SIDES}
            for n in vals["parent"].keys() & vals["change"].keys():
                d = largest_difference(vals["parent"][n], vals["change"][n])
                if d is not None:
                    largest[n] = d
        diff = differences(got["parent"], got["change"], largest)
        files = sum(":" not in n for n in got["change"])
        results = sum(":" in n and not n.startswith("exit:")
                      for n in got["change"])
        print(f"seed {seed}: {files} files, {results} results, "
              f"{len(diff)} differences")
        for line in diff:
            print(f"  {line}")
        failed = failed or bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
