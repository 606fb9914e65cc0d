"""Compare the files that one ``perfbench`` ``cli`` pass writes in two
checkouts of fraclap.

Usage, from the repository root:

    python3 tools/compare_outputs.py --parent ../base --change . --seeds 3,7

For each seed, each checkout runs every operation of its own
``perfbench`` ``cli`` workload once, in a subprocess that puts that
checkout's ``src/`` and ``perfbench/`` first on the path, pins BLAS to
the thread count of its ``perfbench/run.py`` and works in a fresh
temporary directory.  Every file the pass writes is digested; a run
manifest is digested without ``duration_s`` and with the temporary
directory replaced by ``<work>`` (`normalise`).  The exit code of each
operation is compared too.  The tool prints each file that differs or
exists on one side only and exits 1 if there is any.  Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# run in the subprocess: argv is the checkout, the work directory and the seed
PASS = """
import json, os, sys
from pathlib import Path
checkout, work, seed = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import run
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = run.BLAS_THREADS
import workloads
ops = workloads.cli_workload(seed, work)
print(json.dumps({op.name: op.run() for op in ops}))
"""


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


def digests(checkout: Path, seed: int) -> dict[str, str]:
    """SHA-256 of each normalised file one ``cli`` pass writes, by path
    relative to its output directory, and each operation's exit code
    under ``exit:<operation>``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        proc = subprocess.run(
            [sys.executable, "-c", PASS, str(checkout.resolve()), str(work),
             str(seed)], cwd=tmp, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"the cli pass failed in {checkout} (seed {seed})"
                             f":\n{proc.stderr}")
        codes = json.loads(proc.stdout.strip().splitlines()[-1])
        out = {f"exit:{op}": str(code) for op, code in codes.items()}
        root = work / "out"
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = path.relative_to(root).as_posix()
            data = normalise(name, path.read_bytes(), str(work))
            out[name] = hashlib.sha256(data).hexdigest()
    return out


def differences(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per name whose digest differs or that one side lacks."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            lines.append(f"{name}: only in the parent")
        elif name not in parent:
            lines.append(f"{name}: only in the change")
        elif parent[name] != change[name]:
            lines.append(f"{name}: differs")
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
        diff = differences(got["parent"], got["change"])
        files = sum(not n.startswith("exit:") for n in got["change"])
        print(f"seed {seed}: {files} files, {len(diff)} differences")
        for line in diff:
            print(f"  {line}")
        failed = failed or bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
