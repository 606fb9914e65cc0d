"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fraclap import cli, decay, matfun, superdiff  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(monkeypatch, work):
    monkeypatch.setattr(harness, "WORK", work)
    monkeypatch.setattr(harness, "WORKLOADS", {
        name: functools.partial(build, tiny=True)
        for name, build in workloads.WORKLOADS.items()})


WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_printed_metrics_are_the_declared_ones(monkeypatch, tmp_path,
                                              workload, trace):
    _tiny(monkeypatch, tmp_path)
    result = harness.run(workload, 5, 0.0, bool(trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    assert result["correct"]
    assert result["attempted"] == len(
        workloads.WORKLOADS[workload](5, tmp_path / "ops", tiny=True))


def test_every_per_layer_metric_is_reported(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path)
    nonzero = set()
    for workload in WORKLOAD_NAMES:
        metrics = harness.run(workload, 5, 0.0, True)["metrics"]
        nonzero |= {k for k, v in metrics.items() if v["value"] > 0}
    assert nonzero == {m["name"] for m in SPEC["per_layer"]}


def _corrupt_power_csv(run_op, out):
    def run():
        code = run_op()
        path = out / "power_small.csv"
        F = np.loadtxt(path, delimiter=",")
        F[0, 1] = -F[0, 1] + 1.0
        np.savetxt(path, F, delimiter=",")
        return code
    return run


def _self_step(run_op, out):
    def run():
        traj = run_op()
        traj.states[1] = traj.states[0]
        return traj
    return run


def _corrupt_frange_support(run_op, out):
    def run():
        code = run_op()
        path = out / "frange_symmetric.csv"
        lines = path.read_text().splitlines()
        rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        rows[:, 3] += 1.0
        np.savetxt(path, rows, delimiter=",", header=lines[0], comments="")
        return code
    return run


def _skew_exponent(run_op, out):
    def run():
        fit = run_op()
        return dataclasses.replace(fit, exponent=1.2 * fit.exponent)
    return run


@pytest.mark.parametrize("workload, target, corrupt", [
    ("cli", "power-small", _corrupt_power_csv),
    ("cli", "frange-symmetric", _corrupt_frange_support),
    ("undirected", "walk-grid", _self_step),
    ("lattice", "fit-undirected-a1", _skew_exponent),
])
def test_corrupted_output_is_a_failed_operation(tmp_path, workload, target,
                                                corrupt):
    ops = workloads.WORKLOADS[workload](3, tmp_path, tiny=True)
    op = next(o for o in ops if o.name == target)
    op.run = corrupt(op.run, tmp_path / "out")
    _, failures = harness.run_pass(ops)
    assert target in failures
    assert failures[target].startswith("check: CheckFailed")
    assert set(failures) <= {target, "frange-symmetric"}


def test_frange_fault_input_fails_every_time(tmp_path):
    ops = workloads.cli_workload(0, tmp_path)
    op = next(o for o in ops if o.name == "frange-symmetric")
    for _ in range(2):
        _, failures = harness.run_pass([op])
        assert failures[op.name].startswith(harness.KNOWN)
        assert "left half-plane" in failures[op.name]


def test_a_wrong_answer_of_the_faulty_operation_is_not_correct(
        monkeypatch, tmp_path):
    def build(seed, work, tiny=False):
        ops = workloads.cli_workload(seed, work, tiny=True)
        op = next(o for o in ops if o.name == "frange-symmetric")
        op.run = _corrupt_frange_support(op.run, work / "out")
        return ops
    monkeypatch.setattr(harness, "WORK", tmp_path)
    monkeypatch.setattr(harness, "WORKLOADS", {"cli": build})
    assert not harness.run("cli", 5, 0.0, False)["correct"]


def test_wrapper_counts_are_exact(tmp_path):
    edges = tmp_path / "ring.txt"
    edges.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    L = np.diag([2.0, 2.0, 2.0]) - np.array([[0, 1, 1], [1, 0, 1],
                                             [1, 1, 0]], dtype=float)
    originals = (cli.fractional_power_general, matfun.schur_spectral_data,
                 superdiff.LatticeSolution.__call__)
    tracer = tracing.Tracer().install()
    try:
        root = tracer.begin("op.tiny")
        assert cli.cli_dispatch(["power", "--input", str(edges), "--alpha",
                                 "0.5", "--out-dir", str(tmp_path)]) == 0
        for _ in range(2):
            decay.verify_decay_bounds(L, 0.5)
        superdiff.LatticeSolution(1.0, "undirected")(1.0, np.arange(7))
        tracer.finish(root)
    finally:
        tracer.uninstall()
    assert (cli.fractional_power_general, matfun.schur_spectral_data,
            superdiff.LatticeSolution.__call__) == originals

    spans = tracer.take()
    got = tracing.layer_metrics(spans)
    expected = {
        "cli.cli_dispatch.calls": 1,
        "graphs.load_edge_list.calls": 1,
        "graphs.build_laplacian.calls": 1,
        "matfun.fractional_power_general.calls": 1,
        "matfun.fractional_power_general.repeat_ratio": 1.0,
        "matfun.schur_spectral_data.calls": 1,
        "io.write_matrix_csv.calls": 1,
        "io.write_json.calls": 1,
        "decay.verify_decay_bounds.calls": 2,
        "decay.pattern_distances.calls": 2,
        "decay.pattern_distances.repeat_ratio": 2.0,
        "matfun.symmetric_spectral_data.calls": 2,
        "matfun.fractional_power_symmetric.calls": 2,
        "superdiff.lattice_solution.calls": 1,
        "superdiff.lattice_solution.points": 7,
    }
    assert {k: got[k] for k in expected} == expected
    assert not any(k.endswith(".calls") and k not in expected for k in got)
    written = sum((tmp_path / f).stat().st_size
                  for f in ("power.csv", "power_manifest.json"))
    assert got["io.bytes_written"] == written
    self_total = sum(v for k, v in tracing.layer_totals(spans)[1].items())
    assert self_total == pytest.approx(root.end - root.start, rel=1e-9)
