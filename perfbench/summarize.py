"""Median and quartile spread of each metric over several runs.

Reads the result lines that ``run.py`` prints (one JSON object per line,
other lines ignored) from standard input:

    for s in $(seq 101 110); do
        python3 perfbench/run.py --workload cli --seed $s --seconds 35 --trace 0
    done | python3 perfbench/summarize.py
"""

import json
import statistics
import sys


def main():
    rows = [json.loads(line) for line in sys.stdin if line.startswith("{")]
    if not rows:
        print("no result lines on standard input", file=sys.stderr)
        return 1
    shares = sorted({r["failed"] / r["attempted"] for r in rows})
    print(f"{len(rows)} runs, all correct: {all(r['correct'] for r in rows)},"
          f" failed shares: {shares}")
    for name, first in rows[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        line = f"{name:48s} median {med:12.6g} {first['unit']}"
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"  quartile spread {(q3 - q1) / med:7.2%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
