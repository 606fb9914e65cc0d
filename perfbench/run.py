"""Run one fraclap benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    # pinned before numpy is first imported, which happens below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "fraclap" / "__init__.py").is_file():
        print(f"fraclap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
