"""Set-up, the closed loop over passes, and the metrics of one run.

One caller in one process runs a workload's operations in order, each
waiting for the one before it.  A run repeats whole passes for as long
as the next pass is expected to end within ``--seconds``, so every run
attempts the same operations a whole number of times.  End-to-end
metrics come from an untraced run; ``--trace 1`` wraps fraclap's public
functions and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from checks import KnownFault
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
FAMILIES = ("power", "walk", "decay", "frange", "consensus", "exponent",
            "limit")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# the reason recorded for an operation whose check raised `KnownFault`
KNOWN = "known fault: "


def run_pass(ops, tracer=None):
    """Run every operation once, in order.  Returns each operation's
    time and, for each operation that failed, the reason; a reason that
    starts with `KNOWN` is the named fault the workload keeps."""
    times, failures = {}, {}
    for op in ops:
        span = tracer.begin(f"op.{op.name}") if tracer else None
        start = time.perf_counter()
        try:
            out = op.run()
        # a failing operation is counted and the loop goes on
        except Exception as exc:  # noqa: BLE001
            out = exc
        times[op.name] = time.perf_counter() - start
        if span is not None:
            tracer.finish(span)
        if isinstance(out, Exception):
            failures[op.name] = "".join(traceback.format_exception(out))
            continue
        try:
            op.check(out)
        except KnownFault as exc:
            failures[op.name] = f"{KNOWN}{exc}"
        except Exception as exc:  # noqa: BLE001
            failures[op.name] = f"check: {type(exc).__name__}: {exc}"
    return times, failures


def _time_import():
    """Seconds for a fresh interpreter to import fraclap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fraclap.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def set_up(build, seed, work):
    """Import, input generation and warm-up, repeated; returns the
    operations of the last repeat and the set-up time of each."""
    seconds = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        _time_import()
        ops = build(seed, work / f"inputs{i}")
        for op in build(seed, work / f"warmup{i}", tiny=True):
            op.run()
        seconds.append(time.perf_counter() - start)
    return ops, seconds


def measure(ops, seconds, tracer=None):
    """Whole passes while the next one is expected to end in time."""
    passes = []
    begin = time.perf_counter()
    while True:
        times, failures = run_pass(ops, tracer)
        passes.append((times, failures, tracer.take() if tracer else None))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _median_metrics(per_pass, names):
    return {name: statistics.median(p.get(name, 0) for p in per_pass)
            for name in names}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result object that is printed."""
    work = WORK / f"work-{os.getpid()}"
    build = WORKLOADS[workload]
    try:
        ops, setups = set_up(build, seed, work)
        tracer = tracing.Tracer().install() if trace else None
        try:
            passes = measure(ops, seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    family = {op.name: op.family for op in ops}
    per_pass = []
    for times, _, spans in passes:
        row = {f"{f}_s": 0.0 for f in FAMILIES}
        for name, dt in times.items():
            row[f"{family[name]}_s"] += dt
        row["wall_s"] = sum(times.values())
        if spans is not None:
            row.update(tracing.layer_metrics(spans))
        per_pass.append(row)

    failed = sum(len(f) for _, f, _ in passes)
    unexpected = sorted({n for _, f, _ in passes for n, why in f.items()
                         if not why.startswith(KNOWN)})
    _report(ops, passes)
    if trace:
        values = _median_metrics(per_pass, PER_LAYER)
        units = PER_LAYER
        _write_trace(workload, seed, passes, values)
    else:
        values = _median_metrics(per_pass, ["wall_s"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    return {"correct": not unexpected,
            "attempted": len(ops) * len(passes),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def _report(ops, passes):
    """Per-operation median times and failures, on stderr."""
    print(f"{len(passes)} passes of {len(ops)} operations", file=sys.stderr)
    for op in ops:
        med = statistics.median(t[op.name] for t, _, _ in passes)
        fails = [f[op.name] for _, f, _ in passes if op.name in f]
        note = f"  FAILED x{len(fails)}: {fails[0].strip()}" if fails else ""
        print(f"  {op.name:24s} {med:9.4f} s{note}", file=sys.stderr)


def _write_trace(workload, seed, passes, values):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "metrics": values,
        "passes": [tracing.spans_json(spans) for _, _, spans in passes]}))
    print(f"spans written to {path}", file=sys.stderr)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
