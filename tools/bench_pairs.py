"""Paired, alternating benchmark runs of two checkouts of fraclap.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent ../base --change . \
        --workload undirected --seeds 11,12,13 --out BENCH_x.json

Each seed is one pair: ``perfbench/run.py --workload W --seed S
--seconds R --trace 0`` runs once in each checkout, with the parent
first on even pairs and the change first on odd ones, so that drift in
machine load falls on both sides alike.  ``run.py`` is each checkout's
own, unchanged, and the run length ``R`` is ``run_seconds`` from the
checkouts' ``BENCHMARK.json``, which must agree.  Each call appends one
set to ``--out`` under ``sets``: every result line with its side, seed
and order; each side's median and quartiles per metric over the
complete pairs; the pairs the change wins and a verdict (see
`verdict`); the git shas; the load average.  ``--out`` is rewritten
after every run, so a stopped set keeps the runs it made and reads
``"complete": false``.  The machine and library versions sit next to
the sets.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
VERSIONS = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


def _loadavg():
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _git_sha(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads(checkout):
    """The thread count ``run.py`` pins before numpy is imported."""
    proc = subprocess.run(
        [sys.executable, "-c", "import run; print(run.BLAS_THREADS)"],
        cwd=checkout / "perfbench", capture_output=True, text=True, check=True)
    return int(proc.stdout)


def machine(checkout):
    proc = subprocess.run([sys.executable, "-c", VERSIONS], capture_output=True,
                          text=True, check=True)
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            **json.loads(proc.stdout),
            "blas_threads": _blas_threads(checkout)}


def run_seconds(dirs):
    """The run length the checkouts' ``BENCHMARK.json`` fixes."""
    found = {side: json.loads((d / "BENCHMARK.json").read_text())["run_seconds"]
             for side, d in dirs.items()}
    if len(set(found.values())) != 1:
        raise SystemExit(f"run_seconds differs between checkouts: {found}")
    return found["change"]


def end_to_end_bounds(checkout):
    """Each end-to-end metric's relative bound, from ``BENCHMARK.json``."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout} (seed {seed}):\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def verdict(parent, change, wins, pairs, bound):
    """One metric's verdict from each side's quartiles, checked in order:

    - ``gain``: the change wins at least 9 in 10 of the pairs, and its
      median is lower than the parent's by more than the parent's
      interquartile spread;
    - ``regression``: the change's median exceeds the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: either side's interquartile spread exceeds
      ``bound`` times its median, too wide to tell;
    - ``unchanged``: none of these.
    """
    gap = parent["median"] - change["median"]
    if 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if -gap > bound * parent["median"]:
        return "regression"
    if any(s["q3"] - s["q1"] > bound * s["median"] for s in (parent, change)):
        return "unresolved"
    return "unchanged"


def summarize(runs, bounds):
    """Per metric: each side's median and quartiles, the pairs in which
    the change has the lower value (every metric here is
    lower-is-better) and the `verdict` under the metric's relative bound
    from ``bounds``, over the complete pairs; empty below two."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == len(SIDES)]
    if len(pairs) < 2:
        return {}
    out = {}
    for metric in pairs[0]["parent"]["metrics"]:
        vals = {s: [p[s]["metrics"][metric]["value"] for p in pairs]
                for s in SIDES}
        wins = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        q = {s: quartiles(vals[s]) for s in SIDES}
        out[metric] = {**q, "change_wins": wins, "pairs": len(pairs),
                       "verdict": verdict(q["parent"], q["change"], wins,
                                          len(pairs), bounds[metric])}
    for side in SIDES:
        out[f"{side}_failed"] = {
            "failed": sum(p[side]["failed"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "all_correct": all(p[side]["correct"] for p in pairs)}
    return out


def _save(path, doc):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated, one pair per seed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = run_seconds(dirs)
    bounds = end_to_end_bounds(dirs["change"])

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = machine(dirs["change"])
    record = {"workload": args.workload, "seconds": seconds, "seeds": seeds,
              "sha": {s: _git_sha(d) for s, d in dirs.items()},
              "loadavg_start": _loadavg(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "complete": False, "runs": [], "summary": {}}
    doc.setdefault("sets", []).append(record)
    _save(args.out, doc)
    for pair, seed in enumerate(seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            load = _loadavg()
            result = run_once(dirs[side], args.workload, seed, seconds)
            record["runs"].append({"pair": pair, "seed": seed, "side": side,
                                   "order": position, "loadavg": load,
                                   "result": result})
            record["summary"] = summarize(record["runs"], bounds)
            _save(args.out, doc)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"pair {pair} seed {seed} {side:6s} wall_s {wall:.3f}",
                  file=sys.stderr)
    record["complete"] = True
    _save(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
