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


def _values(report, wanted):
    # as the pass returns them, through JSON
    return json.loads(json.dumps(compare_outputs.result_values(
        "lattice:limit", report, wanted)))


def test_result_values_keep_wanted_floats_and_float_or_complex_arrays():
    wanted = {f"lattice:limit.{f}" for f in ("errors", "ok", "rho", "pairs")}
    got = _values(_report(), wanted)
    assert got == {"lattice:limit.errors": [[2], [0.25, 1e-3]],
                   "lattice:limit.rho": [[], [2.5]]}
    assert _values(_report(), set()) == {}
    z = np.array([[1 + 2j], [3 - 4j]])
    assert _values(_report(errors=z), wanted)["lattice:limit.errors"] == [
        [2, 1], [[1.0, 2.0], [3.0, -4.0]]]
    assert compare_outputs.result_values(
        "undirected:x", np.arange(3), {"undirected:x"}) == {}


def test_largest_difference_of_values():
    wanted = {"lattice:limit.errors", "lattice:limit.rho"}
    a = _values(_report(), wanted)
    b = _values(_report(errors=np.array([0.25, 1e-3 + 2e-17]),
                        rho=2.5 - 1e-15), wanted)
    largest = compare_outputs.largest_difference
    assert largest(a["lattice:limit.errors"], b["lattice:limit.errors"]) \
        == abs(1e-3 + 2e-17 - 1e-3)
    assert largest(a["lattice:limit.rho"], b["lattice:limit.rho"]) \
        == abs(2.5 - 1e-15 - 2.5)
    # complex entries by modulus, shapes that differ not at all
    z = _values(_report(errors=np.array([1 + 1j, 2j])), wanted)
    w = _values(_report(errors=np.array([1 + 1j, 3 + 6j])), wanted)
    assert largest(z["lattice:limit.errors"], w["lattice:limit.errors"]) \
        == 5.0
    assert largest(a["lattice:limit.errors"], a["lattice:limit.rho"]) is None
    # a NaN on both sides is no difference; on one side it is
    nan = _values(_report(errors=np.array([np.nan, 1.0])), wanted)
    one = _values(_report(errors=np.array([np.nan, 1.5])), wanted)
    assert largest(nan["lattice:limit.errors"],
                   one["lattice:limit.errors"]) == 0.5
    assert np.isnan(largest(nan["lattice:limit.errors"],
                            _values(_report(errors=np.array([0.0, 1.0])),
                                    wanted)["lattice:limit.errors"]))


def test_differences_print_the_largest_difference_where_known():
    parent = {"lattice:a": "1", "lattice:b": "2", "cli.csv": "3"}
    change = {"lattice:a": "4", "lattice:b": "5", "cli.csv": "6"}
    assert compare_outputs.differences(parent, change,
                                       {"lattice:a": 1.04e-17}) == [
        "cli.csv: differs", "lattice:a: differs, by at most 1.04e-17",
        "lattice:b: differs"]
