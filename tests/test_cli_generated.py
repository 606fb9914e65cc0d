"""Generated inputs through `cli_dispatch`, in process.

Small edge lists with extreme weights go through every graph
subcommand, and small consensus configs with extreme values through
`consensus`.  Every flag passed is valid, so a refusal must come from the
input and name it.  Each run is made under numpy's default error state
and must end with exit 0, 1 or 2, raise no `RuntimeWarning`, and, when it
fails, leave no file or directory behind.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclap.cli import _CONFIG_KEYS, _KINDS, cli_dispatch

EXTREMES = (5e-324, 1e-300, 1e-200, 1e-30, 1.0, 1e30, 1e200, 1e300, 1.7e308)

GRAPH_COMMANDS = (
    ["laplacian"],
    ["power"],
    ["kernel"],
    ["walk", "--steps", "5"],
    ["evolve", "--times", "0,0.5,2"],
    ["returnprob", "--times", "0,1"],
    ["frange", "--angles", "16"],
    ["frange", "--angles", "16", "--alpha"],
    ["decay", "--mode", "power"],
    ["decay", "--mode", "exponential", "--t", "1"],
    ["decay", "--mode", "kernel"],
)


def _dispatch(argv, out: Path):
    """Exit code and stderr of one run into the fresh directory ``out``,
    after the checks that hold for every run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            np.errstate(divide="warn", over="warn", invalid="warn",
                        under="ignore"):
        warnings.simplefilter("always")
        code = cli_dispatch(argv + ["--out-dir", str(out)])
    text = err.getvalue()
    assert code in (0, 1, 2), text
    assert "Traceback" not in text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    if code:
        assert not out.exists(), text
    return code, text


@st.composite
def edge_lists(draw):
    """Up to 12 node ids with gaps, at least one arc, weights from
    `EXTREMES` or left out, and now and then a duplicated line."""
    ids = draw(st.lists(st.integers(0, 20), min_size=2, max_size=12,
                        unique=True))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=14,
                         unique=True))
    lines = []
    for u, v in arcs:
        w = draw(st.sampled_from((None,) + EXTREMES))
        lines.append(f"{u} {v}" if w is None else f"{u} {v} {w!r}")
    if draw(st.integers(0, 7)) == 0:
        lines.append(draw(st.sampled_from(lines)))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=edge_lists(), command=st.sampled_from(GRAPH_COMMANDS),
       alpha=st.sampled_from(("0.3", "0.5", "1")),
       kind=st.sampled_from([None] + _KINDS),
       force_undirected=st.booleans(), dangling_fixup=st.booleans())
def test_generated_edge_lists(text, command, alpha, kind, force_undirected,
                              dangling_fixup):
    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "edges.txt"
        edges.write_text(text)
        argv = [*command, alpha] if command[-1] == "--alpha" else list(command)
        if command[0] not in ("laplacian", "frange"):
            argv += ["--alpha", alpha]
        argv += ["--input", str(edges)]
        if kind:
            argv += ["--kind", kind]
        if force_undirected:
            argv.append("--force-undirected")
        if dangling_fixup:
            argv.append("--dangling-fixup")
        code, err = _dispatch(argv, Path(tmp) / "out")
        if code == 1:
            assert str(edges) in err


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_consensus_configs(data):
    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "edges.txt"
        edges.write_text(data.draw(edge_lists()))
        values = st.sampled_from(EXTREMES + tuple(-x for x in EXTREMES[:5]))
        optional = {
            "graph": st.sampled_from(("directed-cycle", str(edges))) | values,
            "one_based": st.booleans() | values,
            "center": st.lists(values, min_size=2, max_size=2),
            "alpha": values | st.lists(values, max_size=2),
            "beta": values, "horizon": values, "step": values,
            "gamma": values, "gamma_margin": values,
            "stride": st.sampled_from((1, 2, 7)) | values,
        }
        assert optional.keys() | {"vehicles"} == _CONFIG_KEYS
        cfg = data.draw(st.fixed_dictionaries(
            {"vehicles": st.integers(1, 5) | values}, optional=optional))
        # a snapshot count far beyond any run's needs is a resource
        # question, not a refusal: keep the runs small
        horizon, step = cfg.get("horizon", 5.0), cfg.get("step")
        stride = cfg.get("stride")
        if type(step) is float and 0 < step < horizon \
                and type(stride) is int:
            assume(horizon / step / stride < 1e4)
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, err = _dispatch(["consensus", "--config", str(path)],
                              Path(tmp) / "out")
        if code == 1:
            named = [*cfg, str(cfg.get("graph", "directed-cycle"))]
            assert any(err.startswith(f"error: {name}") for name in named), err
