"""The benchmark's workloads.

A builder makes a workload's inputs from the seed inside a work directory
and returns the operations of one pass, in the order they run.  Only an
operation's ``run`` is timed; ``check`` then tests its output against an
independent computation or a property the method guarantees, and raises
`checks.CheckFailed` (`checks.KnownFault` for the one kept fault).
Library functions are looked up on their module at call time, so that a
traced run calls the wrapped versions.

``tiny=True`` keeps every operation but shrinks its input; the warm-up
and the self-tests use it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate

from fraclap import cli, decay, graphs, matfun, superdiff, walks

import checks
import inputs
from checks import close, expect


@dataclass
class Op:
    name: str
    family: str
    run: Callable[[], object]
    check: Callable[[object], None]


# The one operation that fails on every run.  Its input is fixed, not
# seeded: whether rounding lands below zero depends on the exact matrix.
FRANGE_FAULT = ("fraclap.cli._cmd_frange sets contains_negative_real from "
                "min_real < 0 with no tolerance, so rounding puts a "
                "symmetric positive semidefinite Laplacian in the left "
                "half-plane")
FRANGE_FAULT_SEED = 6

# The repository README's relocation config; the seed moves only the
# target centre.
CONSENSUS = {"vehicles": 120, "graph": "directed-cycle",
             "alpha": [0.1, 0.5, 0.8, 1.0], "beta": 0.5, "horizon": 5.0,
             "gamma": "bound+margin", "gamma_margin": 1.0}


def _load_csv(path, **kw):
    return np.loadtxt(path, delimiter=",", ndmin=2, **kw)


def _table(path):
    return _load_csv(path, skiprows=1)


def cli_workload(seed, work, tiny=False):
    """``fraclap`` subcommands, in process, on seeded directed edge lists."""
    rng = np.random.default_rng(seed)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    sizes = dict(small=200, large=500, mid=150, frange=120, symmetric=80,
                 steps=5000, runs=50000, vehicles=120)
    if tiny:
        sizes = dict(small=8, large=10, mid=9, frange=7, symmetric=8,
                     steps=50, runs=200, vehicles=6)
    graphs_ = {}
    for name in ("small", "large", "mid", "frange"):
        arcs = inputs.random_digraph(rng, sizes[name])
        path = work / f"{name}.txt"
        inputs.write_edge_list(path, arcs)
        W = inputs.weight_matrix(sizes[name], arcs)
        graphs_[name] = (path, inputs.laplacian(W))
    sym_arcs = inputs.random_undirected(
        np.random.default_rng(FRANGE_FAULT_SEED), sizes["symmetric"])
    sym_path = work / "symmetric.txt"
    inputs.write_edge_list(sym_path, sym_arcs)
    L_sym = inputs.laplacian(inputs.weight_matrix(sizes["symmetric"],
                                                  sym_arcs, symmetric=True))
    alpha = round(float(rng.uniform(0.3, 0.9)), 6)
    walk_seed = int(rng.integers(1 << 31))
    picks = rng.choice(360, size=8, replace=False)
    center = np.round(3.0 + rng.uniform(-0.5, 0.5, size=2), 6)
    config = dict(CONSENSUS, vehicles=sizes["vehicles"],
                  center=center.tolist())
    if tiny:
        config.update(alpha=[0.5], horizon=0.5, step=0.01)
    config_path = work / "consensus.json"
    config_path.write_text(json.dumps(config))
    absorb_n, absorb_alpha = (40, 0.5) if not tiny else (5, 0.5)
    evolve_times = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    return_times = [0.0, 0.1, 1.0, 10.0]

    def dispatch(*argv):
        return cli.cli_dispatch([str(a) for a in argv]
                                + ["--out-dir", str(out)])

    def ok(code):
        expect(code == 0, f"exit code {code}")

    def power_op(name):
        path, L = graphs_[name]

        def check(code):
            ok(code)
            F = _load_csv(out / f"power_{name}.csv")
            checks.laplacian_like(F, f"power {name}")
            checks.squares_to(F, L, f"power {name}")
        return Op(f"power-{name}", "power",
                  lambda: dispatch("power", "--input", path, "--alpha", 0.5,
                                   "--out", f"power_{name}"), check)

    mid_path, L_mid = graphs_["mid"]
    mid = ("--input", mid_path, "--alpha", alpha)

    def kernel():
        return _load_csv(out / "kernel.csv")

    def check_kernel(code):
        ok(code)
        checks.stochastic(kernel(), "kernel")

    def check_walk(code):
        ok(code)
        states = _table(out / "walk.csv")[:, 1].astype(int)
        expect(states.shape[0] == sizes["steps"] + 1 and states[0] == 0,
               "walk has the wrong length or start")
        checks.walk_follows(kernel(), states, "walk")

    def check_evolve(code):
        ok(code)
        table = _table(out / "evolve.csv")
        close(table[:, 0], evolve_times, 0.0, "evolve times")
        checks.mass_conserved(table[:, 1:], "evolve")

    def check_returnprob(code):
        ok(code)
        table = _table(out / "returnprob.csv")
        G = np.eye(L_mid.shape[0]) - kernel()
        close(table[:, 1], checks.return_probability(G, return_times), 1e-9,
              "return probability")

    def check_absorb(code):
        ok(code)
        res = json.loads((out / "absorb.json").read_text())
        exact = checks.absorption_mean(absorb_n, absorb_alpha)
        close(res["expectation"], exact, 1e-10 * exact, "absorption mean")
        gap = abs(res["mc_mean"] - exact)
        expect(gap <= 3.0 * res["mc_stderr"],
               f"Monte Carlo mean {res['mc_mean']} is {gap:.3e} from {exact}, "
               f"more than 3 standard errors")

    fr_path, L_fr = graphs_["frange"]

    def check_frange(code):
        ok(code)
        checks.numerical_range(L_fr, _table(out / "frange_digraph.csv"),
                               picks, "frange")

    def check_frange_symmetric(code):
        ok(code)
        checks.numerical_range(L_sym, _table(out / "frange_symmetric.csv"),
                               picks, "frange symmetric")
        summary = json.loads((out / "frange_summary.json").read_text())
        close(summary["min_real"], np.linalg.eigvalsh(L_sym)[0],
              1e-9 * checks.scale_of(L_sym), "frange symmetric min_real")
        if summary["contains_negative_real"]:
            raise checks.KnownFault(
                f"{FRANGE_FAULT} (min_real {summary['min_real']:.3e})")

    @functools.cache
    def consensus_reference(a, gamma):
        n = config["vehicles"]
        K = CONSENSUS["beta"] * np.eye(n) + checks.cycle_power(n, a)
        angles = 2.0 * np.pi * np.arange(n) / n
        e0 = np.tile(-center, (n, 1))
        v0 = np.column_stack([-np.sin(angles), np.cos(angles)])
        return checks.consensus_final_error(K, gamma, e0, v0,
                                            config["horizon"])

    def check_consensus(code):
        ok(code)
        runs = json.loads((out / "consensus_manifest.json").read_text())
        runs = runs["results"]["runs"]
        expect(len(runs) == len(config["alpha"]), "missing consensus runs")
        n = config["vehicles"]
        initial = math.sqrt(n * float(center @ center))
        for a in config["alpha"]:
            run = runs[f"alpha={a:g}"]
            close(run["initial_position_error"], initial, 1e-12 * initial,
                  f"consensus alpha={a} initial error")
            want = consensus_reference(a, run["gamma"])
            close(run["final_position_error"], want, 1e-6 * want,
                  f"consensus alpha={a} final error")

    return [
        power_op("small"),
        power_op("large"),
        Op("kernel", "walk", lambda: dispatch("kernel", *mid), check_kernel),
        Op("walk", "walk",
           lambda: dispatch("walk", *mid, "--start", 0, "--steps",
                            sizes["steps"], "--seed", walk_seed), check_walk),
        Op("evolve", "walk",
           lambda: dispatch("evolve", *mid, "--start", 0, "--times",
                            ",".join(map(str, evolve_times))), check_evolve),
        Op("returnprob", "walk",
           lambda: dispatch("returnprob", *mid, "--times",
                            ",".join(map(str, return_times))),
           check_returnprob),
        Op("absorb", "walk",
           lambda: dispatch("absorb", "--n", absorb_n, "--alpha", absorb_alpha,
                            "--runs", sizes["runs"], "--seed", 7,
                            "--format", "json"), check_absorb),
        Op("frange-digraph", "frange",
           lambda: dispatch("frange", "--input", fr_path,
                            "--out", "frange_digraph"), check_frange),
        Op("frange-symmetric", "frange",
           lambda: dispatch("frange", "--input", sym_path,
                            "--force-undirected", "--out", "frange_symmetric"),
           check_frange_symmetric),
        Op("consensus", "consensus",
           lambda: dispatch("consensus", "--config", config_path),
           check_consensus),
    ]


def _symmetric_session(name, arcs, n, alphas, heat_times, walk_steps,
                       walk_seed, evolve_times, return_times):
    """Operations on one undirected graph, sharing one eigendecomposition."""
    both = sorted([(u, v, w) for u, v, w in arcs]
                  + [(v, u, w) for u, v, w in arcs])
    g = graphs.Graph(n=n, directed=False, edges=tuple(both))
    L_ref = inputs.laplacian(inputs.weight_matrix(n, arcs, symmetric=True))
    scale = checks.scale_of(L_ref)
    st = {}
    a_heat = alphas[-1]

    @functools.cache
    def eig():
        return np.linalg.eigh(L_ref)

    @functools.cache
    def power_ref(a):
        return checks.symmetric_power(*eig(), a)

    def spectral():
        st["L"] = graphs.build_laplacian(g, graphs.LaplacianKind.COMBINATORIAL)
        st["data"] = matfun.symmetric_spectral_data(st["L"])
        return st["data"]

    def check_spectral(data):
        close(st["L"].matrix, L_ref, 1e-12 * scale, f"{name} Laplacian")
        close(data.eigenvalues, eig()[0], 1e-10 * scale, f"{name} spectrum")

    def power_op(a):
        def run():
            st[a] = matfun.fractional_power_symmetric(st["L"], a,
                                                      data=st["data"])
            return st[a]

        def check(res):
            F = res.matrix
            checks.laplacian_like(F, f"{name} power {a}")
            close(F, power_ref(a), 1e-10 * scale, f"{name} power {a}")
            if a == 0.5:
                checks.squares_to(F, L_ref, f"{name} power")
        return Op(f"power-{name}-a{a:g}", "power", run, check)

    def heat_op(t):
        def check(E):
            w, U = eig()
            ref = (U * np.exp(-t * checks.spectral_powers(w, a_heat))) @ U.T
            close(E.matrix, ref, 1e-10, f"{name} heat kernel t={t}")
            close(E.matrix.sum(axis=1), 1.0, 1e-10, f"{name} heat row sums")
        return Op(f"heat-{name}-t{t:g}", "power",
                  lambda: matfun.exp_fractional_symmetric(
                      st["L"], a_heat, t, data=st["data"]), check)

    def no_violations(rep):
        expect(rep.n_pairs > 0 and rep.violations == 0 and rep.all_satisfied,
               f"{name} {rep.mode} bound: {rep.violations} violations in "
               f"{rep.n_pairs} pairs")

    def decay_power_op(a):
        return Op(f"decay-{name}-a{a:g}", "decay",
                  lambda: decay.verify_decay_bounds(st["L"], a, mode="power",
                                                    data=st["data"]),
                  no_violations)

    def decay_heat_op(t):
        return Op(f"decay-{name}-t{t:g}", "decay",
                  lambda: decay.verify_decay_bounds(
                      st["L"], a_heat, mode="exponential", t=t,
                      data=st["data"]), no_violations)

    def kernel():
        st["kernel"] = walks.transition_kernel(st[0.5])
        return st["kernel"]

    def check_kernel(K):
        checks.stochastic(K.P, f"{name} kernel")
        close(K.d_alpha, np.diag(power_ref(0.5)), 1e-10 * scale,
              f"{name} fractional degrees")
        checks.stationary_law(K.P, K.d_alpha, f"{name} kernel")

    def check_kernel_bound(rep):
        no_violations(rep)
        expect(rep.diagonal_ok, f"{name} fractional diagonal below its bound")

    def check_walk(traj):
        expect(traj.states.shape[0] == walk_steps + 1, f"{name} walk length")
        checks.walk_follows(st["kernel"].P, traj.states, f"{name} walk")

    def check_evolve(traj):
        checks.mass_conserved(traj.states, f"{name} evolve")
        P, d = checks.reversible_kernel(power_ref(0.5))
        close(traj.states, checks.reversible_evolution(P, d, 0, evolve_times),
              1e-8, f"{name} evolve vs reversible eigendecomposition")

    @functools.cache
    def return_ref():
        # the kernel is checked on every pass; its trace reference, an
        # expm per time, is computed from the first pass's kernel only
        G = np.eye(n) - st["kernel"].P
        return checks.return_probability(G, return_times)

    def check_returnprob(curve):
        close(curve.values, return_ref(), 1e-9, f"{name} return probability")

    return [
        Op(f"spectral-{name}", "power", spectral, check_spectral),
        *(power_op(a) for a in alphas),
        *(heat_op(t) for t in heat_times),
        *(decay_power_op(a) for a in alphas),
        *(decay_heat_op(t) for t in heat_times),
        Op(f"kernel-{name}", "walk", kernel, check_kernel),
        Op(f"decay-kernel-{name}", "decay",
           lambda: decay.verify_p_alpha_bound(st["kernel"], st["L"],
                                              data=st["data"]),
           check_kernel_bound),
        Op(f"walk-{name}", "walk",
           lambda: walks.simulate_discrete(st["kernel"], 0, walk_steps,
                                           walk_seed), check_walk),
        Op(f"evolve-{name}", "walk",
           lambda: walks.evolve_continuous(st["kernel"], 0, evolve_times),
           check_evolve),
        Op(f"returnprob-{name}", "walk",
           lambda: walks.return_probability(np.eye(n) - st["kernel"].P,
                                            return_times), check_returnprob),
    ]


def undirected_workload(seed, work, tiny=False):
    """A library session on the symmetric Laplacians of a random
    geometric graph and a weighted 2-D grid."""
    rng = np.random.default_rng(seed)
    n, radius, rows, cols = (600, 0.07, 25, 25) if not tiny else (12, 0.5, 3, 4)
    sessions = {"rgg": (inputs.geometric_graph(rng, n, radius), n),
                "grid": (inputs.grid_graph(rng, rows, cols), rows * cols)}
    alphas = (0.5, round(float(rng.uniform(0.25, 0.45)), 6),
              round(float(rng.uniform(0.55, 0.9)), 6))
    heat_times = tuple(round(t * float(rng.uniform(0.8, 1.25)), 6)
                       for t in (0.3, 3.0, 30.0))
    evolve_times = np.round(np.geomspace(0.1, 50.0, 8)
                            * float(rng.uniform(0.8, 1.25)), 6)
    return_times = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
    walk_steps = 20000 if not tiny else 100
    ops = []
    for name, (arcs, size) in sessions.items():
        ops += _symmetric_session(name, arcs, size, alphas, heat_times,
                                  walk_steps, int(rng.integers(1 << 31)),
                                  evolve_times, return_times)
    return ops


def _symmetric_stable_density(a, x):
    """Density of the symmetric stable law with characteristic function
    ``exp(-|z|**a)``, by adaptive quadrature of its cosine transform."""
    top = 45.0 ** (1.0 / a)          # exp(-top**a) < 1e-19
    val, _ = scipy.integrate.quad(lambda z: math.exp(-z ** a), 0.0, top,
                                  weight="cos", wvar=x, epsabs=1e-13,
                                  limit=500)
    return val / math.pi


def lattice_workload(seed, work, tiny=False):
    """Spreading-exponent fits, a stable-limit comparison and stable
    densities on the infinite chain; no matrices."""
    rng = np.random.default_rng(seed)
    if tiny:
        fits = [(1.0, "undirected", 100.0, 1e-10)]
        limit_times, density_points, solution_z = [10.0, 100.0], 11, 5
    else:
        fits = [(0.75, "undirected", 100.0, 1e-10),
                (0.9, "directed", 300.0, 1e-8)]
        limit_times, density_points, solution_z = [10.0, 100.0, 1000.0], 201, 30
    limit_alpha = 0.75
    limit_xi = np.linspace(-8.0, 8.0, 41) + float(rng.uniform(-0.1, 0.1))
    density = superdiff.StableParams(alpha=1.5, beta=0.0, gamma=1.0)
    xi = np.linspace(-10.0, 10.0, density_points) \
        + float(rng.uniform(-0.05, 0.05))
    density_picks = rng.choice(density_points, size=4, replace=False)
    solution_t = round(float(rng.uniform(5.0, 15.0)), 6)
    z = np.arange(-solution_z, solution_z + 1) + int(rng.integers(-10, 11))

    def fit_op(a, orientation, tmin, tol):
        def check(fit):
            rel = abs(fit.exponent / fit.expected - 1.0)
            expect(rel <= 0.10, f"{orientation} exponent {fit.exponent:.4f} "
                   f"is {rel:.1%} from {fit.expected:.4f}")
        return Op(f"fit-{orientation}-a{a:g}", "exponent",
                  lambda: superdiff.superdiffusion_exponent(
                      a, orientation, np.geomspace(tmin, 1e3, 5), samples=33,
                      tol=tol), check)

    @functools.cache
    def solution_ref():
        return checks.cycle_lattice_solution(limit_alpha, solution_t, z)

    def check_solution(u):
        close(u, solution_ref(), 1e-8, f"u(t={solution_t}) vs cycle FFT")

    def check_limit(rep):
        expect(rep.strictly_decreasing,
               f"stable-limit errors {rep.errors} do not strictly decrease")

    def check_density(vals):
        expect(vals.min() >= 0.0, "negative stable density")
        for k in density_picks:
            close(vals[k], _symmetric_stable_density(density.alpha, xi[k]),
                  1e-9, f"stable density at {xi[k]:.4f}")

    def anchors():
        return (superdiff.stable_density(
                    superdiff.StableParams(2.0, 0.0, 1.0), 0.0),
                superdiff.stable_density(
                    superdiff.StableParams(1.0, 0.0, 1.0), 0.0))

    def check_anchors(vals):
        close(vals[0], 1.0 / (2.0 * math.sqrt(math.pi)), 1e-8,
              "Gaussian density at 0")
        close(vals[1], 1.0 / math.pi, 1e-8, "Cauchy density at 0")

    return [
        *(fit_op(*f) for f in fits),
        Op("solution", "exponent",
           lambda: superdiff.lattice_solution(limit_alpha, "undirected",
                                              solution_t, z), check_solution),
        Op("stable-limit", "limit",
           lambda: superdiff.verify_stable_limit(limit_alpha, "undirected",
                                                 limit_times, limit_xi),
           check_limit),
        Op("stable-density", "limit",
           lambda: superdiff.stable_density(density, xi), check_density),
        Op("density-anchors", "limit", anchors, check_anchors),
    ]


WORKLOADS = {"cli": cli_workload, "undirected": undirected_workload,
             "lattice": lattice_workload}
