import importlib.util
import json
from pathlib import Path

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
