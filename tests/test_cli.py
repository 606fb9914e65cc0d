import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import mmread
from scipy.linalg import expm

from fraclap.cli import cli_dispatch
from fraclap.consensus import (circle_relocation_config,
                               consensus_error_curve, gamma_lower_bound,
                               simulate_consensus)
from fraclap.decay import verify_decay_bounds
from fraclap.errors import NumericalError
from fraclap.graphs import LaplacianKind, build_laplacian, load_edge_list
from fraclap.io import sha256_file
from fraclap.matfun import fractional_power
from fraclap.walks import evolve_continuous, transition_kernel


@pytest.fixture
def ring(tmp_path):
    p = tmp_path / "ring.txt"
    p.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
    return p


@pytest.fixture
def und(tmp_path):
    edges = [(i, (i + 1) % 8) for i in range(8)]
    p = tmp_path / "und.txt"
    p.write_text("".join(f"{u} {v}\n{v} {u}\n" for u, v in edges))
    return p


def run(args, tmp_path):
    return cli_dispatch(args + ["--out-dir", str(tmp_path)])


def test_laplacian_writes_matrix_and_manifest(ring, tmp_path):
    assert run(["laplacian", "--input", str(ring)], tmp_path) == 0
    data = np.loadtxt(tmp_path / "laplacian.csv", delimiter=",")
    assert data.shape == (6, 6)
    assert np.abs(data.sum(axis=1)).max() == 0.0
    man = json.loads((tmp_path / "laplacian_manifest.json").read_text())
    assert man["subcommand"] == "laplacian"
    assert str(ring) in man["inputs"]
    assert len(man["inputs"][str(ring)]) == 64
    assert man["version"] and man["duration_s"] >= 0


def test_directed_in_kind_has_zero_column_sums(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("0 1\n1 2\n2 0\n2 1\n")
    assert run(["laplacian", "--input", str(tri), "--kind", "directed-in"],
               tmp_path) == 0
    L = np.loadtxt(tmp_path / "laplacian.csv", delimiter=",")
    assert np.abs(L.sum(axis=0)).max() == 0.0
    assert np.abs(L.sum(axis=1)).max() == 1.0  # not the out-degree one
    man = json.loads((tmp_path / "laplacian_manifest.json").read_text())
    assert man["results"]["kind"] == "directed-in"


def test_power_row_sums_vanish(ring, tmp_path):
    assert run(["power", "--input", str(ring), "--alpha", "0.5"],
               tmp_path) == 0
    A = np.loadtxt(tmp_path / "power.csv", delimiter=",")
    assert np.abs(A.sum(axis=1)).max() < 1e-12
    off = A - np.diag(np.diag(A))
    assert off.max() <= 1e-12


def test_power_manifest_names_the_algorithm_path(ring, und, tmp_path):
    got = {}
    for name, edges in (("directed", ring), ("symmetric", und)):
        out = tmp_path / name
        out.mkdir()
        assert run(["power", "--input", str(edges), "--alpha", "0.5"],
                   out) == 0
        got[name] = json.loads((out / "power_manifest.json").read_text())[
            "results"]
    directed, symmetric = got["directed"], got["symmetric"]
    assert directed["method"] == "schur-parlett"
    assert directed["square_roots"] > 0 and directed["pade_degree"] > 0
    assert symmetric["method"] == "symmetric-eig"
    assert symmetric["square_roots"] == symmetric["pade_degree"] == 0


def test_byte_identical_reruns(ring, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        assert run(["power", "--input", str(ring), "--alpha", "0.5"], d) == 0
    assert (a / "power.csv").read_bytes() == (b / "power.csv").read_bytes()


def per_cell_csv(columns, header=None):
    """CSV text built cell by cell: ``%d`` for integer columns,
    ``'%.16e' % float`` for every other column."""
    cells = []
    for c in map(np.asarray, columns):
        if np.issubdtype(c.dtype, np.integer):
            cells.append(["%d" % v for v in c.tolist()])
        else:
            cells.append(["%.16e" % v for v in c.astype(float).tolist()])
    lines = ([",".join(header)] if header else []) + [
        ",".join(row) for row in zip(*cells)]
    return "".join(line + "\n" for line in lines)


def test_csv_bytes_match_a_per_cell_rendering(ring, und, tmp_path):
    # every CSV equals the cell-by-cell rendering of the arrays the
    # library returns, so no change of the writer can move a byte
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({"vehicles": 12, "alpha": 0.5,
                               "horizon": 1.0}))
    argvs = {"power_dir": ["power", "--input", str(ring)],
             "power_und": ["power", "--input", str(und)],
             "evolve": ["evolve", "--input", str(und), "--times", "0,1,5"],
             "decay": ["decay", "--input", str(und)],
             "consensus": ["consensus", "--config", str(cfg)]}
    for name, argv in argvs.items():
        (tmp_path / name).mkdir()
        alpha = [] if name == "consensus" else ["--alpha", "0.5"]
        assert run(argv + alpha, tmp_path / name) == 0

    want = {}
    for name, edges in (("dir", ring), ("und", und)):
        g = load_edge_list(edges)
        L = build_laplacian(g, LaplacianKind.DIRECTED_OUT if g.directed
                            else LaplacianKind.COMBINATORIAL)
        M = fractional_power(L, 0.5).matrix
        want[f"power_{name}/power.csv"] = per_cell_csv(M.T)
    traj = evolve_continuous(transition_kernel(fractional_power(L, 0.5)), 0,
                             np.array([0.0, 1.0, 5.0]))
    want["evolve/evolve.csv"] = per_cell_csv(
        [traj.times, *traj.states.T], ["t"] + [f"u{i}" for i in range(8)])
    rep = verify_decay_bounds(L, 0.5, mode="power")
    want["decay/decay.csv"] = per_cell_csv(
        [rep.pairs[:, 0], rep.pairs[:, 1], rep.distances.astype(int),
         rep.observed, rep.bounds, rep.satisfied.astype(int)],
        ["i", "j", "d", "observed", "bound", "ok"])
    states = simulate_consensus(circle_relocation_config(12, 0.5, 0.5, 1.0))
    pos = np.stack([s.positions for s in states])
    want["consensus/consensus_traj_alpha0p5.csv"] = per_cell_csv(
        [[s.time for s in states], *pos.reshape(len(states), -1).T],
        ["t"] + [f"{c}{i}" for i in range(12) for c in "xy"])
    want["consensus/consensus_error_alpha0p5.csv"] = per_cell_csv(
        consensus_error_curve(states).T, ["t", "error", "position_error"])

    written = {str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*.csv")}
    assert written == set(want)
    for name, text in want.items():
        assert (tmp_path / name).read_text() == text, name


def test_output_formats(ring, tmp_path):
    for fmt, suffix in [("json", ".json"), ("mm", ".mtx")]:
        assert run(["laplacian", "--input", str(ring), "--format", fmt,
                    "--out", "lap"], tmp_path) == 0
        assert (tmp_path / ("lap" + suffix)).exists()


def test_out_naming_a_subdirectory_creates_it(ring, tmp_path):
    fresh = tmp_path / "fresh"
    assert run(["laplacian", "--input", str(ring), "--out", "sub/x"],
               fresh) == 0
    assert (fresh / "sub" / "x.csv").is_file()
    man = json.loads((fresh / "laplacian_manifest.json").read_text())
    assert man["results"]["output"] == "x.csv"


def test_kernel_on_a_digraph_with_a_sink(tmp_path):
    edges = tmp_path / "sink.txt"
    edges.write_text("0 1\n1 2\n0 2\n2 3\n1 3\n")
    assert run(["kernel", "--input", str(edges), "--alpha", "0.5"],
               tmp_path) == 0
    P = np.loadtxt(tmp_path / "kernel.csv", delimiter=",")
    assert P.shape == (4, 4) and P.min() >= 0.0
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-14
    assert np.array_equal(P[3], [0.0, 0.0, 0.0, 1.0])
    man = json.loads((tmp_path / "kernel_manifest.json").read_text())
    assert man["results"]["absorbing"] == [3]


def test_walk_table_in_matrix_market_keeps_the_header(ring, tmp_path):
    argv = ["walk", "--input", str(ring), "--alpha", "0.5", "--steps", "40",
            "--seed", "5"]
    assert run(argv, tmp_path) == 0
    assert run(argv + ["--format", "mm"], tmp_path) == 0
    mtx = tmp_path / "walk.mtx"
    assert mtx.read_text().splitlines()[1] == "%step,node"
    table = np.loadtxt(tmp_path / "walk.csv", delimiter=",", skiprows=1)
    assert np.array_equal(np.asarray(mmread(mtx).todense()), table)


def test_walk_seeded_reproducible(ring, tmp_path):
    for d in ("w1", "w2"):
        (tmp_path / d).mkdir()
        assert run(["walk", "--input", str(ring), "--alpha", "0.5",
                    "--start", "0", "--steps", "50", "--seed", "7"],
                   tmp_path / d) == 0
    a = (tmp_path / "w1" / "walk.csv").read_bytes()
    assert a == (tmp_path / "w2" / "walk.csv").read_bytes()


def test_evolve_outputs_distributions(und, tmp_path):
    assert run(["evolve", "--input", str(und), "--alpha", "0.5",
                "--times", "0,1,5"], tmp_path) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 9)
    assert np.abs(rows[:, 1:].sum(axis=1) - 1.0).max() < 1e-10


def test_evolve_on_a_star_is_not_refused(tmp_path):
    # hub column sum 19: the row-sum Gershgorin bound of (I - P)^T alone
    # would refuse t = 50, but exp(-t (I - P)^T) is a contraction in the
    # 1-norm, which the column-sum bound sees
    star = tmp_path / "star.txt"
    star.write_text("".join(f"0 {i}\n" for i in range(1, 20)))
    assert run(["evolve", "--input", str(star), "--force-undirected",
                "--alpha", "1", "--times", "0,10,50"], tmp_path) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    assert np.abs(rows[:, 1:].sum(axis=1) - 1.0).max() < 1e-8
    L = build_laplacian(load_edge_list(star, force_undirected=True),
                        LaplacianKind.COMBINATORIAL)
    M = (np.eye(20) - transition_kernel(fractional_power(L, 1.0)).P).T
    v = np.eye(20)[0]
    want = np.array([expm(-t * M) @ v for t in (0.0, 10.0, 50.0)])
    assert np.abs(rows[:, 1:] - want).max() < 1e-12


def test_absorb_against_analytic(tmp_path):
    assert run(["absorb", "--n", "20", "--alpha", "0.5", "--runs", "2000",
                "--seed", "3", "--format", "json"], tmp_path) == 0
    out = json.loads((tmp_path / "absorb.json").read_text())
    assert out["n_step"] == 5
    assert abs(out["expectation"] - 4.886242184147704) < 1e-12
    assert abs(out["mc_mean"] - out["expectation"]) < 4 * out["mc_stderr"]


def test_absorb_monte_carlo_csv(tmp_path):
    assert run(["absorb", "--n", "20", "--alpha", "0.5", "--runs", "500",
                "--seed", "3"], tmp_path) == 0
    header, values = (tmp_path / "absorb.csv").read_text().splitlines()
    row = dict(zip(header.split(","), map(float, values.split(","))))
    assert list(row) == ["expectation", "fundamental_expectation",
                         "mc_mean", "mc_stderr", "n_step"]
    assert row["n_step"] == 5
    assert abs(row["mc_mean"] - row["expectation"]) < 4 * row["mc_stderr"]


@pytest.mark.parametrize("runs", ["-5", "1"])
def test_absorb_runs_below_two_exit_one(tmp_path, capsys, runs):
    # one sample has no standard error: NaN would reach absorb.json
    assert run(["absorb", "--n", "20", "--alpha", "0.5", "--runs", runs,
                "--format", "json"], tmp_path) == 1
    assert "--runs must be 0 or at least 2" in capsys.readouterr().err
    assert not (tmp_path / "absorb.json").exists()


def test_decay_reports_distances_as_integers(und, tmp_path):
    assert run(["decay", "--input", str(und), "--alpha", "0.5",
                "--mode", "power"], tmp_path) == 0
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["i", "j", "d"]
    first = lines[1].split(",")
    assert first[2].isdigit()


def test_decay_pairs_sampling(und, tmp_path):
    assert run(["decay", "--input", str(und), "--alpha", "0.5",
                "--pairs", "sampled:5"], tmp_path) == 0
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert len(lines) == 6


def test_decay_kernel_mode_builds_the_laplacian_once(und, tmp_path,
                                                     monkeypatch):
    import fraclap.cli as cli
    calls = []
    build = cli.build_laplacian

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_laplacian", counted)
    assert run(["decay", "--input", str(und), "--alpha", "0.5",
                "--mode", "kernel"], tmp_path) == 0
    assert len(calls) == 1
    summary = json.loads((tmp_path / "decay_summary.json").read_text())
    assert summary["mode"] == "kernel" and summary["all_satisfied"]


def test_decay_kernel_mode_factors_the_laplacian_once(und, tmp_path,
                                                     monkeypatch):
    import fraclap.cli
    import fraclap.decay
    import fraclap.matfun
    calls = []
    factor = fraclap.matfun.symmetric_spectral_data

    def counted(L):
        calls.append(L)
        return factor(L)

    for module in (fraclap.cli, fraclap.decay, fraclap.matfun):
        monkeypatch.setattr(module, "symmetric_spectral_data", counted,
                            raising=False)
    assert run(["decay", "--input", str(und), "--alpha", "0.5",
                "--mode", "kernel"], tmp_path) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("flags", [
    [], ["--force-undirected", "--kind", "random-walk"], ["--mode", "kernel"],
], ids=["directed", "random-walk", "kernel"])
def test_decay_refuses_a_non_symmetric_laplacian_naming_the_file(
        tmp_path, capsys, monkeypatch, flags):
    import fraclap.cli

    def fail(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran before the check")

    for name in ("symmetric_spectral_data", "verify_decay_bounds",
                 "verify_p_alpha_bound"):
        monkeypatch.setattr(fraclap.cli, name, fail)
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    out = tmp_path / "out"
    assert run(["decay", "--input", str(edges), "--alpha", "0.5", *flags],
               out) == 1
    assert capsys.readouterr().err == (
        f"error: {edges}: decay bounds need a symmetric Laplacian (an "
        "undirected graph with kind undirected or symmetric-normalized)\n")
    assert not out.exists()


def test_frange_three_node_eigendarkness(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("0 1\n1 2\n2 0\n2 1\n")
    assert run(["frange", "--input", str(tri), "--format", "json"],
               tmp_path) == 0
    man = json.loads((tmp_path / "frange_manifest.json").read_text())
    res = man["results"]
    assert res["contains_negative_real"] is True
    assert abs(res["min_real"] - (-0.06631874678992)) < 1e-10
    assert res["eigenvector_condition"] > 1e6


def test_frange_on_overflowing_weights_exits_one(tmp_path, capsys):
    # the Laplacian of this file has row sums that overflow; a hundred
    # orders of magnitude less do not
    edges = tmp_path / "huge.txt"
    edges.write_text("0 1 1e308\n1 2 1e308\n")
    out = tmp_path / "out"
    assert run(["frange", "--input", str(edges)], out) == 1
    assert capsys.readouterr().err == (
        f"error: {edges}: node 0: its Laplacian row or column sum "
        "overflows\n")
    assert not out.exists()
    edges.write_text("0 1 1e200\n1 2 1e200\n")
    assert run(["frange", "--input", str(edges)], out) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["laplacian"], ["power", "--alpha", "0.5"], ["kernel", "--alpha", "0.5"],
    ["walk", "--alpha", "0.5", "--steps", "3"],
    ["evolve", "--alpha", "0.5", "--times", "0,1"],
    ["returnprob", "--alpha", "0.5", "--times", "0,1"], ["frange"],
    ["frange", "--alpha", "0.5"], ["decay", "--alpha", "0.5"]], ids=" ".join)
def test_overflowing_degree_sums_exit_one_naming_the_file(tmp_path, capsys,
                                                           argv):
    edges = tmp_path / "huge.txt"
    out = tmp_path / "out"
    for text in ("0 1 1e308\n1 2 1e308\n", "0 1 1e308\n"):
        edges.write_text(text)
        for flags in ([], ["--force-undirected"]):
            assert run([*argv, "--input", str(edges), *flags], out) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {edges}: node ")
            assert err.endswith(" row or column sum overflows\n")
            assert err.count("\n") == 1 and not out.exists()
    edges.write_text("0 1 1e200\n1 2 1e200\n")
    assert run([*argv, "--input", str(edges), "--force-undirected"],
               out) == 0


def test_frange_odd_angle_count_matches_per_angle_sweep(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("0 1\n1 2\n2 0\n2 1\n")
    assert run(["frange", "--input", str(tri), "--angles", "9"],
               tmp_path) == 0
    rows = np.loadtxt(tmp_path / "frange.csv", delimiter=",", skiprows=1)
    assert rows.shape == (9, 4)
    L = build_laplacian(load_edge_list(tri),
                        LaplacianKind.DIRECTED_OUT).matrix
    top = []
    for theta in rows[:, 0]:
        R = np.exp(1j * theta) * L
        top.append(np.linalg.eigvalsh((R + R.conj().T) / 2.0)[-1])
    tol = 1e-12 * max(1.0, np.linalg.norm(L, 2))
    assert np.abs(rows[:, 3] - np.array(top)).max() <= tol


def test_returnprob_starts_at_one(ring, tmp_path):
    assert run(["returnprob", "--input", str(ring), "--alpha", "0.5",
                "--times", "0,0.5,2,10"], tmp_path) == 0
    rows = np.loadtxt(tmp_path / "returnprob.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] == 1.0
    assert rows.shape[0] == 4


@pytest.mark.parametrize("graph, spectrum", [("und", "symmetric"),
                                             ("ring", "general")])
@pytest.mark.parametrize("command", ["evolve", "returnprob"])
def test_walk_summaries_name_the_spectral_path(request, tmp_path, command,
                                              graph, spectrum):
    edges = request.getfixturevalue(graph)
    assert run([command, "--input", str(edges), "--alpha", "0.5",
                "--times", "0,1"], tmp_path) == 0
    man = json.loads((tmp_path / f"{command}_manifest.json").read_text())
    res = man["results"]
    assert res["spectrum"] == spectrum
    symmetric = res["balance_residual"] <= 8 * np.finfo(float).eps
    assert symmetric == (spectrum == "symmetric")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_evolve_non_finite_time_exits_one(und, tmp_path, capsys, bad):
    assert run(["evolve", "--input", str(und), "--alpha", "0.5",
                "--times", f"0,{bad}"], tmp_path) == 1
    assert "non-finite time" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_returnprob_non_finite_time_exits_one(ring, tmp_path, capsys, bad):
    assert run(["returnprob", "--input", str(ring), "--alpha", "0.5",
                "--times", f"0,{bad}"], tmp_path) == 1
    assert "non-finite time" in capsys.readouterr().err
    assert not (tmp_path / "returnprob.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "returnprob"])
def test_non_finite_time_exits_one_before_the_power(und, tmp_path,
                                                    monkeypatch, command):
    import fraclap.cli as cli

    def fail(*args):
        raise AssertionError("power computed")

    monkeypatch.setattr(cli, "fractional_power", fail)
    assert run([command, "--input", str(und), "--alpha", "0.5",
                "--times", "0,nan"], tmp_path) == 1


def test_consensus_multi_alpha_outputs(tmp_path):
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({
        "vehicles": 12, "graph": "directed-cycle", "alpha": [0.5, 1.0],
        "beta": 0.5, "horizon": 1.0, "center": [3.0, 3.0],
        "gamma": "bound+margin", "gamma_margin": 1.0,
    }))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 0
    for tag in ("0p5", "1"):
        assert (tmp_path / f"consensus_traj_alpha{tag}.csv").exists()
        err = np.loadtxt(tmp_path / f"consensus_error_alpha{tag}.csv",
                         delimiter=",", skiprows=1)
        assert err[0, 1] >= err[-1, 1]
    man = json.loads((tmp_path / "consensus_manifest.json").read_text())
    assert str(cfg) in man["inputs"]


def test_consensus_on_an_edge_list_graph(tmp_path):
    # one-based directed 9-cycle with two chords; loaded undirected, its
    # coupling would be symmetric and the damping bound undefined (exit 1)
    net = tmp_path / "net.txt"
    net.write_text("".join(f"{i + 1} {(i + 1) % 9 + 1}\n" for i in range(9))
                   + "1 5\n4 8\n")
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({"graph": str(net), "one_based": True,
                               "alpha": 0.5, "horizon": 1.0, "step": 0.01}))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 0
    traj = np.loadtxt(tmp_path / "consensus_traj_alpha0p5.csv",
                      delimiter=",", skiprows=1)
    assert traj.shape == (101, 1 + 2 * 9) and traj[-1, 0] == 1.0
    man = json.loads((tmp_path / "consensus_manifest.json").read_text())
    assert man["inputs"][str(net)] == sha256_file(net)
    assert man["inputs"][str(cfg)] == sha256_file(cfg)
    g = load_edge_list(net, one_based=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    want = gamma_lower_bound(fractional_power(L, 0.5).matrix, 0.5).bound
    got = man["results"]["runs"]["alpha=0.5"]["gamma"]
    assert g.directed and got == pytest.approx(want + 1.0, rel=1e-12)


def test_consensus_refused_graph_names_the_file(tmp_path, capsys):
    # the library builds this Laplacian, and refuses its overflowing sums
    huge = tmp_path / "huge.txt"
    huge.write_text("0 1 1e308\n1 2 1e308\n2 0 1e308\n")
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({"graph": str(huge), "alpha": 0.5,
                               "horizon": 0.5}))
    out = tmp_path / "out"
    assert run(["consensus", "--config", str(cfg)], out) == 1
    assert capsys.readouterr().err == (
        f"error: {huge}: node 0: its Laplacian row or column sum overflows\n")
    assert not out.exists()


def test_consensus_builds_each_coupling_once(tmp_path, monkeypatch):
    import fraclap.cli as cli
    import fraclap.consensus as consensus
    import fraclap.matfun as matfun
    calls = {"fractional_power_general": 0, "gamma_lower_bound": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, home in (("fractional_power_general", matfun),
                       ("gamma_lower_bound", consensus)):
        fn = getattr(home, name)
        for module in (cli, consensus, matfun):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, fn))
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({
        "vehicles": 10, "graph": "directed-cycle",
        "alpha": [0.1, 0.5, 0.8, 1.0], "beta": 0.5, "horizon": 0.5,
        "step": 0.01, "center": [3.0, 3.0],
    }))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 0
    assert calls == {"fractional_power_general": 4, "gamma_lower_bound": 4}


@pytest.mark.parametrize("bad", [{"stride": 0}, {"stride": -3},
                                 {"stride": 2.5}, {"step": 0}])
def test_consensus_bad_step_or_stride_exits_one(tmp_path, bad):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "vehicles": 8, "graph": "directed-cycle", "alpha": 0.5,
        "horizon": 0.5, **bad,
    }))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 1


def test_usage_errors_exit_one(ring, tmp_path, capsys):
    out = tmp_path / "out"

    def fails(argv):
        # a failed run creates neither its output directory nor a file
        code = run(argv, out)
        assert not out.exists()
        return code

    assert fails(["power", "--input", str(ring)]) == 1             # no alpha
    assert fails(["power", "--input", str(tmp_path / "nope.txt"),
                  "--alpha", "0.5"]) == 1                          # no file
    assert fails(["nonsense"]) == 1
    assert fails(["decay", "--input", str(ring), "--alpha", "0.5"]) == 1
    assert fails(["decay", "--input", str(ring), "--alpha", "0.5",
                  "--pairs", "sampled:zero"]) == 1
    capsys.readouterr()
    not_json = tmp_path / "bad.json"
    not_json.write_text("{vehicles: 8}")
    graph = ["--input", str(ring), "--alpha", "0.5"]
    for argv, message in [
            (["decay", *graph, "--pairs", "sampled:0"],
             "sampled pair count must be positive"),
            (["decay", *graph, "--pairs", "bogus"],
             "--pairs expects \"all\" or \"sampled:<k>\", got 'bogus'"),
            (["evolve", *graph, "--times", "0,x"], "bad time list '0,x'"),
            (["returnprob", *graph, "--times", " , "], "empty time list"),
            (["superdiff", "--orientation", "undirected", "--alpha", "0.5",
              "--tmin", "10", "--tmax", "5"], "need 0 < tmin < tmax"),
            (["stable", "--alpha", "1.5", "--beta", "0", "--xi-count", "1"],
             "need xi_min < xi_max and at least 2 points"),
            (["consensus", "--config", str(not_json)], "bad JSON config")]:
        assert fails(argv) == 1
        assert message in capsys.readouterr().err
    assert cli_dispatch([]) == 1                           # no subcommand
    assert "usage: fraclap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, usage", [
    (["power", "--input", "{ring}"], True),
    (["power", "--input", "{tmp}/nope.txt", "--alpha", "0.5"], False),
    (["nonsense"], True),
    ([], True),
    (["decay", "--input", "{ring}", "--alpha", "0.5"], False),
    (["decay", "--input", "{ring}", "--alpha", "0.5",
      "--pairs", "sampled:zero"], False),
    (["decay", "--input", "{ring}", "--alpha", "0.5",
      "--pairs", "sampled:0"], False),
    (["decay", "--input", "{ring}", "--alpha", "0.5", "--pairs", "bogus"],
     False),
    (["evolve", "--input", "{ring}", "--alpha", "0.5", "--times", "0,x"],
     False),
    (["returnprob", "--input", "{ring}", "--alpha", "0.5", "--times", " , "],
     False),
    (["superdiff", "--orientation", "undirected", "--alpha", "0.5",
      "--tmin", "10", "--tmax", "5"], False),
    (["stable", "--alpha", "1.5", "--beta", "0", "--xi-count", "1"], False),
    (["consensus", "--config", "{tmp}/bad.json"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_every_refusal_takes_the_one_error_path(ring, tmp_path, capsys,
                                                argv, usage):
    # argparse's refusals and the program's take the same path
    (tmp_path / "bad.json").write_text("{vehicles: 8}")
    argv = [a.format(ring=ring, tmp=tmp_path) for a in argv]
    out = tmp_path / "out"
    assert (run(argv, out) if argv else cli_dispatch([])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("usage: fraclap" in err) == usage
    assert not out.exists()


def test_input_that_is_a_directory_exits_one_naming_it(tmp_path, capsys):
    adir = tmp_path / "adir"
    adir.mkdir()
    out = tmp_path / "out"
    assert run(["power", "--input", str(adir), "--alpha", "0.5"], out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(adir) in err
    assert "not found" not in err and not out.exists()


@pytest.mark.parametrize("text, flags, message", [
    ("0 1\n1 2\n", ["--kind", "random-walk"],
     "kind 'random-walk' requires an undirected graph"),
    ("0 1\n1 2\n", ["--kind", "directed-out-normalized"],
     "node 2 has zero out-degree; set dangling_fixup or drop it"),
    ("0 1 1e308\n", [], "node 0: its Laplacian row or column sum overflows"),
], ids=["undirected-kind", "zero-degree", "overflow"])
def test_refused_laplacian_exits_one_naming_the_file(tmp_path, capsys, text,
                                                     flags, message):
    edges = tmp_path / "edges.txt"
    edges.write_text(text)
    out = tmp_path / "out"
    assert run(["power", "--input", str(edges), "--alpha", "0.5", *flags],
               out) == 1
    assert capsys.readouterr().err == f"error: {edges}: {message}\n"
    assert not out.exists()


def test_numerical_blowup_exits_two(tmp_path):
    cfg = tmp_path / "blow.json"
    cfg.write_text(json.dumps({
        "vehicles": 12, "graph": "directed-cycle", "alpha": 0.5,
        "beta": 0.5, "horizon": 5.0, "gamma": 100.0, "step": 0.5,
    }))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 2


def test_dense_guard_requires_opt_in(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{i} {i + 1}\n" for i in range(2500)))
    assert run(["laplacian", "--input", str(big)], tmp_path) == 1
    assert run(["laplacian", "--input", str(big), "--force-dense"],
               tmp_path) == 0
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"graph": str(big)}))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 1


def test_dense_guard_covers_absorb_and_the_builtin_cycle(monkeypatch,
                                                        tmp_path, capsys):
    import fraclap.cli

    def fail(*args, **kwargs):
        raise AssertionError("work ran before the size check")

    monkeypatch.setattr(fraclap.cli, "expected_absorption_steps", fail)
    monkeypatch.setattr(fraclap.cli, "cycle_graph", fail)
    guard = "graph has 2001 > 2000 nodes; pass --force-dense"
    assert run(["absorb", "--n", "2001", "--alpha", "0.5"], tmp_path) == 1
    assert guard in capsys.readouterr().err
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"vehicles": 2001}))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 1
    assert guard in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("gamma", float("nan"), "gamma must be positive and finite, got nan"),
    ("gamma_margin", float("nan"), "gamma_margin must be finite, got nan"),
    ("center", [float("nan"), 3.0], "center must be"),
    ("beta", float("nan"), "beta must be positive and finite, got nan"),
    ("horizon", float("inf"), "horizon must be positive and finite, got inf"),
    ("step", float("nan"), "step must be positive and finite, got nan"),
])
def test_non_finite_consensus_input_exits_one_naming_it(tmp_path, capsys,
                                                        field, value, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"vehicles": 8, "alpha": 0.5, "horizon": 1.0,
                               field: value}))
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("vehicles", 5.9, "vehicles must be an integer, got 5.9"),
    ("vehicles", float("nan"), "vehicles must be an integer, got nan"),
    ("vehicles", True, "vehicles must be an integer, got True"),
    ("center", [float("nan"), 3.0],
     "center must be 2 finite numbers, got [nan, 3.0]"),
    ("center", [3.0], "center must be 2 finite numbers, got [3.0]"),
    ("center", [1.0, 2.0, 3.0], "center must be 2 finite numbers, got"),
    ("center", "far", "center must be 2 finite numbers, got 'far'"),
    ("beta", None, "beta must be a number, got None"),
    ("horizon", [1], "horizon must be a number, got [1]"),
    ("alpha", [None], "alpha must be a number, got None"),
    ("graph", 5, 'graph must be "directed-cycle" or an edge-list path'),
    ("one_based", "false", "one_based must be true or false, got 'false'"),
    ("one_based", 0, "one_based must be true or false, got 0"),
    ("alpha", [], "alpha must list at least one exponent"),
    ("horizn", 1.0, "unknown config keys: horizn"),
    ("alpha", ["0.5"], "alpha must be a number, got '0.5'"),
    ("beta", True, "beta must be a number, got True"),
    ("horizon", "1.0", "horizon must be a number, got '1.0'"),
    ("gamma", False, "gamma must be a number, got False"),
    ("center", ["3", True],
     "center must be 2 finite numbers, got ['3', True]"),
    ("stride", True, "stride must be an integer >= 1, got True"),
    ("alpha", [0.5, 2.0], "alpha must lie in (0, 1], got 2.0"),
    ("alpha", [0.5, 0.5],
     "alpha must list distinct exponents, got [0.5, 0.5]"),
])
def test_malformed_consensus_field_exits_one_before_any_work(
        tmp_path, capsys, monkeypatch, field, value, message):
    import fraclap.cli

    def fail(*args, **kwargs):
        raise AssertionError("work ran before the config check")

    monkeypatch.setattr(fraclap.cli, "cycle_graph", fail)
    monkeypatch.setattr(fraclap.cli, "simulate_consensus", fail)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"vehicles": 8, "alpha": 0.5, "horizon": 1.0,
                               field: value}))
    out = tmp_path / "out"
    assert run(["consensus", "--config", str(cfg)], out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_late_numerical_failure_writes_nothing(tmp_path, monkeypatch):
    # the first exponent's run succeeds; the second one's raises
    import fraclap.cli
    calls = []

    def second_fails(sim):
        calls.append(sim.alpha)
        if len(calls) == 2:
            raise NumericalError("consensus state is not finite")
        return simulate_consensus(sim)

    monkeypatch.setattr(fraclap.cli, "simulate_consensus", second_fails)
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({"vehicles": 8, "alpha": [0.5, 1.0],
                               "horizon": 0.5}))
    out = tmp_path / "out"
    assert run(["consensus", "--config", str(cfg)], out) == 2
    assert calls == [0.5, 1.0] and not out.exists()


def test_consensus_config_that_is_not_an_object_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    assert run(["consensus", "--config", str(cfg)], tmp_path) == 1
    err = capsys.readouterr().err
    assert "config must be a JSON object, got [1, 2]" in err


@pytest.mark.parametrize("text, where, flags", [
    ("0 1\n1 2 3 4\n", "2: expected 'src dst [weight]', got 4 fields", []),
    ("0 1\n1 x\n", "2: non-integer node id", []),
    ("1 2\n0 1\n", "2: node id below 1 (one-based input)", ["--one-based"]),
    ("0 1\n\n2 2\n", "3: self-loop at node 2", []),
    ("0 1 heavy\n", "1: bad weight 'heavy'", []),
    ("0 1 1.5\n1 2 0\n", "2: weight must be positive and finite", []),
    ("0 1\n1 2\n0 1\n", "3: duplicate edge (0, 1), first seen on line 1",
     []),
    ("# nothing here\n\n", " no edges found", []),
    ("0 1 2.0\n# reverse\n1 0 3.0\n",
     "3: asymmetric weights for edge (0, 1), 2.0 vs 3.0 (line 1)",
     ["--force-undirected"]),
    # the first fault in file order wins
    ("1 0 2.0\n0 1 3.0\n2 x\n",
     "2: asymmetric weights for edge (0, 1), 2.0 vs 3.0 (line 1)",
     ["--force-undirected"]),
])
def test_malformed_edge_list_exits_one_naming_path_and_line(
        tmp_path, capsys, text, where, flags):
    edges = tmp_path / "edges.txt"
    edges.write_text(text)
    assert run(["laplacian", "--input", str(edges), *flags], tmp_path) == 1
    assert f"error: {edges}:{where}" in capsys.readouterr().err


def test_weighted_edge_list_loads_its_weights(tmp_path):
    # both directions listed under --force-undirected, with equal weights
    edges = tmp_path / "weighted.txt"
    edges.write_text("0 1 2.5\n1 0 2.5\n1 2 0.5\n")
    assert run(["laplacian", "--input", str(edges), "--force-undirected"],
               tmp_path) == 0
    L = np.loadtxt(tmp_path / "laplacian.csv", delimiter=",")
    assert np.array_equal(L, [[2.5, -2.5, 0.0], [-2.5, 3.0, -0.5],
                              [0.0, -0.5, 0.5]])


def test_out_dir_naming_an_existing_file_exits_one(ring, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_dispatch(["laplacian", "--input", str(ring),
                         "--out-dir", str(taken)]) == 1
    assert "File exists" in capsys.readouterr().err


def test_failed_write_removes_the_directories_it_created(ring, tmp_path,
                                                         capsys):
    (tmp_path / "taken").write_text("")
    kept = tmp_path / "kept"
    kept.mkdir()
    for out_dir in (tmp_path / "fresh", kept / "a" / "b"):
        # the primary output would go under the file "taken"
        out = "../" * len(out_dir.relative_to(tmp_path).parts) + "taken/x"
        assert cli_dispatch(["laplacian", "--input", str(ring),
                             "--out", out, "--out-dir", str(out_dir)]) == 1
        assert "File exists" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()
    assert kept.is_dir() and not any(kept.iterdir())


@pytest.mark.parametrize("blocked", ["consensus_error_alpha0p5.csv",
                                     "consensus_manifest.json"])
def test_failed_write_removes_the_files_it_wrote(tmp_path, capsys, blocked):
    # a directory where a later output or the manifest goes
    cfg = tmp_path / "cons.json"
    cfg.write_text(json.dumps({"vehicles": 8, "alpha": 0.5, "horizon": 0.5}))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert run(["consensus", "--config", str(cfg)], out) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())


def test_failed_write_keeps_the_files_that_were_there(ring, tmp_path):
    out = tmp_path / "out"
    (out / "laplacian_manifest.json").mkdir(parents=True)
    (out / "laplacian.csv").write_text("old\n")
    assert run(["laplacian", "--input", str(ring)], out) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "laplacian.csv", "laplacian_manifest.json"]
    assert (out / "laplacian.csv").read_text() == "old\n"


def test_a_write_that_raises_keeps_the_old_files(ring, tmp_path,
                                                 monkeypatch):
    # the manifest, written last, raises after the matrix was written
    def fail(path, obj):
        raise OSError(28, "No space left on device", str(path))

    import fraclap.cli
    monkeypatch.setattr(fraclap.cli, "write_json", fail)
    out = tmp_path / "out"
    out.mkdir()
    (out / "laplacian.csv").write_text("old\n")
    assert run(["laplacian", "--input", str(ring)], out) == 1
    assert [p.name for p in out.iterdir()] == ["laplacian.csv"]
    assert (out / "laplacian.csv").read_text() == "old\n"


@pytest.mark.parametrize("fmt, suffix", [("csv", ".csv"), ("mm", ".mtx"),
                                         ("json", ".json")])
def test_a_run_replaces_old_files_and_leaves_no_temporary_file(
        ring, tmp_path, fmt, suffix):
    out = tmp_path / "out"
    out.mkdir()
    (out / f"laplacian{suffix}").write_text("old\n")
    assert run(["laplacian", "--input", str(ring), "--format", fmt],
               out) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([
        f"laplacian{suffix}", "laplacian_manifest.json"])
    assert (out / f"laplacian{suffix}").read_text() != "old\n"


def test_an_output_replaces_a_symbolic_link_instead_of_its_target(
        ring, tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "laplacian.csv").symlink_to(target)
    assert run(["laplacian", "--input", str(ring)], out) == 0
    assert not (out / "laplacian.csv").is_symlink()
    assert target.read_text() == "old\n"


def test_failed_write_keeps_a_file_named_through_dot_dot(ring, tmp_path):
    # "fresh/sub/../../taken" names the file "taken" only once the run has
    # made fresh/sub, so it must not be taken for a path the run created
    taken = tmp_path / "taken"
    taken.write_text("old\n")
    assert run(["laplacian", "--input", str(ring),
                "--out", "sub/../../taken/x"], tmp_path / "fresh") == 1
    assert taken.read_text() == "old\n"
    assert not (tmp_path / "fresh").exists()


def test_a_finished_run_leaves_no_reference_cycle(ring, tmp_path):
    # a cycle through the run would keep its queued arrays alive until
    # the garbage collector runs, raising the peak memory of many runs
    import gc
    gc.collect()
    gc.disable()
    try:
        assert run(["power", "--input", str(ring), "--alpha", "0.5"],
                   tmp_path) == 0
        assert not [o for o in gc.get_objects()
                    if type(o).__name__ == "_Run"]
    finally:
        gc.enable()


def test_console_entry_point(ring, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fraclap.cli", "laplacian",
         "--input", str(ring), "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_decay_non_finite_time_exits_one_naming_t(und, tmp_path, capsys, t):
    assert run(["decay", "--input", str(und), "--alpha", "0.5",
                "--mode", "exponential", "--t", t], tmp_path) == 1
    err = capsys.readouterr().err
    assert f"got t={t}" in err and "entries must be finite" not in err


def test_decay_exponential_without_t_exits_one_with_the_library_message(
        und, tmp_path, capsys):
    assert run(["decay", "--input", str(und), "--alpha", "0.5",
                "--mode", "exponential"], tmp_path) == 1
    assert "requires finite t > 0, got t=None" in capsys.readouterr().err


def test_superdiff_subcommand(tmp_path):
    assert run(["superdiff", "--orientation", "undirected", "--alpha", "1.0",
                "--tmin", "10", "--tmax", "1e3"], tmp_path) == 0
    out = json.loads((tmp_path / "superdiff_summary.json").read_text())
    assert abs(out["exponent"] - 1.0) < 0.05
    assert out["expected"] == 1.0
    assert out["r_squared"] > 0.999


def test_superdiff_unresolved_peak_exits_two(tmp_path, capsys):
    assert run(["superdiff", "--orientation", "directed", "--alpha", "0.95",
                "--tmin", "500", "--tmax", "1e3", "--samples", "33"],
               tmp_path) == 2
    err = capsys.readouterr().err
    assert "FWHM" in err and "t = 500, alpha = 0.95" in err


@pytest.fixture
def no_quadrature(monkeypatch):
    import fraclap.superdiff

    def fail(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(fraclap.superdiff._HalfLineRule, "__call__", fail)


def test_superdiff_too_few_samples_exits_one_before_quadrature(
        tmp_path, no_quadrature):
    assert run(["superdiff", "--orientation", "undirected", "--alpha", "0.7",
                "--tmin", "100", "--tmax", "1e3", "--samples", "3"],
               tmp_path) == 1


@pytest.mark.parametrize("argv, named", [
    (["stable", "--alpha", "1.5", "--beta", "0", "--scale", "nan"], "nan"),
    (["stable", "--alpha", "1.5", "--beta", "0", "--scale", "inf"], "inf"),
    (["stable", "--alpha", "1.5", "--beta", "0", "--xi-min", "nan"],
     "--xi-min"),
    (["stable", "--alpha", "1.5", "--beta", "0", "--xi-max", "inf"],
     "--xi-max"),
    (["superdiff", "--orientation", "undirected", "--alpha", "0.5",
      "--tmin", "nan", "--tmax", "1e4"], "--tmin"),
    (["superdiff", "--orientation", "undirected", "--alpha", "0.5",
      "--tmin", "10", "--tmax", "inf"], "--tmax"),
])
def test_non_finite_flags_exit_one_before_quadrature(
        tmp_path, no_quadrature, capsys, argv, named):
    assert run(argv, tmp_path) == 1
    assert named in capsys.readouterr().err


def test_stable_subcommand(tmp_path):
    assert run(["stable", "--alpha", "2.0", "--beta", "0", "--scale", "1.0",
                "--xi-min", "-1", "--xi-max", "1", "--xi-count", "3"],
               tmp_path) == 0
    rows = np.loadtxt(tmp_path / "stable.csv", delimiter=",", skiprows=1)
    assert abs(rows[1, 1] - 1.0 / (2.0 * np.sqrt(np.pi))) < 1e-8


def test_stable_subcommand_levy_closed_form(tmp_path):
    # alpha = 0.5, beta = 1 is the Levy law with scale c = 0.5
    assert run(["stable", "--alpha", "0.5", "--beta", "1", "--scale", "0.5",
                "--xi-min", "0.1", "--xi-max", "5"], tmp_path) == 0
    xi, dens = np.loadtxt(tmp_path / "stable.csv", delimiter=",",
                          skiprows=1).T
    assert xi.shape == (201,)
    levy = np.sqrt(0.5 / (2.0 * np.pi)) * xi ** -1.5 \
        * np.exp(-0.5 / (2.0 * xi))
    assert np.abs(dens - levy).max() < 1e-12


def test_stable_quadrature_stuck_exits_two(monkeypatch, tmp_path, capsys):
    import fraclap.superdiff as superdiff
    monkeypatch.setattr(superdiff, "NODE_CAP", 16)
    assert run(["stable", "--alpha", "0.5", "--beta", "1", "--scale", "0.5",
                "--xi-min", "0.1", "--xi-max", "5"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "numerical failure: quadrature stuck at residual" in err
