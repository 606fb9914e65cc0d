import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _manifest(work, duration):
    return json.dumps({
        "subcommand": "power",
        "parameters": {"input": f"{work}/small.txt", "out_dir": f"{work}/out",
                       "alpha": 0.5},
        "inputs": {f"{work}/small.txt": "ab" * 32},
        "duration_s": duration,
        "results": {"output": "power_small.csv"},
    }).encode()


def test_manifests_differing_in_work_directory_and_duration_agree():
    a, b = (compare_outputs.normalise("power_manifest.json",
                                      _manifest(work, duration), work)
            for work, duration in (("/tmp/a1/work", 0.25),
                                   ("/tmp/b2/work", 1.75)))
    assert a == b
    doc = json.loads(a)
    assert "duration_s" not in doc
    assert doc["inputs"] == {"<work>/small.txt": "ab" * 32}
    assert doc["parameters"]["out_dir"] == "<work>/out"


def test_manifests_with_other_results_differ():
    work = "/tmp/a1/work"
    other = json.loads(_manifest(work, 0.25))
    other["results"]["output"] = "power_large.csv"
    assert compare_outputs.normalise(
        "power_manifest.json", _manifest(work, 0.25), work) \
        != compare_outputs.normalise(
            "power_manifest.json", json.dumps(other).encode(), work)


def test_other_files_are_compared_byte_for_byte():
    data = b"t,u0\n/tmp/a1/work\n"
    assert compare_outputs.normalise("evolve.csv", data, "/tmp/a1/work") \
        is data
    assert compare_outputs.normalise("frange_summary.json", data,
                                     "/tmp/a1/work") is data


def test_differences_name_each_changed_or_missing_file():
    parent = {"a.csv": "1", "b.csv": "2", "exit:power": "0"}
    change = {"a.csv": "1", "b.csv": "3", "c.csv": "4", "exit:power": "0"}
    assert compare_outputs.differences(parent, change) == [
        "b.csv: differs", "c.csv: only in the change"]
    assert compare_outputs.differences(change, change) == []


@dataclasses.dataclass(frozen=True)
class _Report:
    errors: np.ndarray
    ok: bool
    rho: float
    pairs: tuple
    name: str | None


def _report(**changes):
    fields = dict(errors=np.array([0.25, 1e-3]), ok=True, rho=2.5,
                  pairs=((0, 1), [2, 3]), name=None)
    return _Report(**{**fields, **changes})


def test_digest_agrees_on_equal_results_and_sees_one_ulp():
    digest = compare_outputs.digest
    assert digest(_report()) == digest(_report())
    assert digest(_report()) != digest(
        _report(errors=np.array([0.25, np.nextafter(1e-3, 1.0)])))
    assert digest(_report()) != digest(_report(rho=np.nextafter(2.5, 0.0)))
    # dtype, shape, type and order count, not only the values
    assert digest(np.arange(3.0)) != digest(np.arange(3))
    assert digest(np.zeros((2, 3))) != digest(np.zeros((3, 2)))
    assert digest(True) != digest(1)
    assert digest((1, 2)) != digest([1, 2])
    assert digest(_report(name="a")) != digest(_report())


def test_result_digests_key_each_dataclass_field():
    got = compare_outputs.result_digests("lattice:limit", _report())
    assert list(got) == [f"lattice:limit.{f}"
                         for f in ("errors", "ok", "rho", "pairs", "name")]
    assert got["lattice:limit.rho"] == compare_outputs.digest(2.5)
    assert compare_outputs.result_digests("lattice:x", 0.5) == {
        "lattice:x": compare_outputs.digest(0.5)}
