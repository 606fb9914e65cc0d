"""Command-line driver.

Every subcommand reads file-based inputs, writes its outputs plus a JSON
run manifest (resolved parameters, input digests, seed, version, wall
time) into ``--out-dir`` once its work has succeeded, and is
reproducible: identical argv, inputs and seed give byte-identical CSV
output at a fixed BLAS thread count (the directed power draws no random
numbers; factorization-based values may differ in the last few bits
between thread counts).  Exit codes: 0 success, 2 numerical failure, 1 a
refused input (a `ValueError` or `OSError`, printed as ``error: ...``
naming the file at fault); a failed run removes what it created.
`decay` needs a symmetric Laplacian.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .consensus import (ConsensusConfig, _relocation_geometry,
                        consensus_error_curve, simulate_consensus)
from .decay import (numerical_range_profile, pattern_distances,
                    verify_decay_bounds, verify_p_alpha_bound)
from .errors import NumericalError
from .generators import cycle_graph, path_graph
from .graphs import LaplacianKind, build_laplacian, load_edge_list
from .io import (sha256_file, write_json, write_matrix_csv, write_matrix_mm,
                 write_table_csv)
from .matfun import (_check_alpha, _is_symmetric, fractional_power,
                     fractional_power_symmetric, symmetric_spectral_data)
# not called here: perfbench's wrapper-count test reads this attribute
from .matfun import fractional_power_general  # noqa: F401
from .superdiff import StableParams, stable_density, superdiffusion_exponent
from .walks import (absorption_time_samples, evolve_continuous,
                    expected_absorption_steps, return_probability,
                    simulate_discrete, transition_kernel)

DENSE_LIMIT = 2000
_KINDS = [k.value for k in LaplacianKind]
_CONFIG_KEYS = {"vehicles", "graph", "one_based", "center", "alpha", "beta",
                "horizon", "step", "gamma", "gamma_margin", "stride"}


class _Parser(argparse.ArgumentParser):
    # exit code 1 for bad flags instead of argparse's default 2
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}\n{self.format_usage()}")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="fraclap",
                  description="fractional graph Laplacian toolkit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", metavar="subcommand",
                           required=True)

    def command(name, handler, help, *flags, graph=True, alpha="required"):
        # the subcommand that handler runs: the edge-list flags if graph,
        # --alpha ("required", "optional" or None), its own flags as
        # (name, keywords) pairs, then the common flags
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if graph:
            p.add_argument("--input", required=True, help="edge-list file")
            p.add_argument("--kind", choices=_KINDS, default=None,
                           help="Laplacian kind (default by graph orientation)")
            p.add_argument("--one-based", action="store_true")
            p.add_argument("--force-undirected", action="store_true")
            p.add_argument("--dangling-fixup", action="store_true")
        if alpha:
            p.add_argument("--alpha", type=float, required=alpha == "required")
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=None,
                       help="output directory (default $FRACLAP_OUT_DIR or .)")
        p.add_argument("--format", choices=("csv", "json", "mm"),
                       default="csv")
        p.add_argument("--force-dense", action="store_true",
                       help=f"allow graphs larger than {DENSE_LIMIT} nodes")
        p.add_argument("--out", default=None, help="primary output file name")

    times = ("--times", dict(required=True, help="comma-separated times"))
    command("laplacian", _cmd_laplacian, "build a graph Laplacian", alpha=None)
    command("power", _cmd_power, "fractional Laplacian power")
    command("kernel", _cmd_kernel, "fractional jump kernel")
    command("walk", _cmd_walk, "sample one discrete fractional walk",
            ("--start", dict(type=int, default=0)),
            ("--steps", dict(type=int, required=True)))
    command("evolve", _cmd_evolve, "continuous-time distribution evolution",
            ("--start", dict(type=int, default=0)), times)
    command("absorb", _cmd_absorb, "absorption steps on the directed path",
            ("--n", dict(type=int, required=True)),
            ("--runs", dict(
                type=int, default=0,
                help="Monte Carlo sample count: 0 (none) or at least 2")),
            graph=False)
    command("decay", _cmd_decay, "verify entry decay bounds",
            ("--mode", dict(choices=("power", "exponential", "kernel"),
                            default="power")),
            ("--t", dict(type=float, default=None,
                         help="time (exponential mode)")),
            ("--pairs", dict(default="all", help='"all" or "sampled:<k>"')))
    command("frange", _cmd_frange, "numerical range profile",
            ("--angles", dict(type=int, default=360)), alpha="optional")
    command("returnprob", _cmd_returnprob, "average return probability curve",
            times)
    command("superdiff", _cmd_superdiff, "lattice spreading exponent fit",
            ("--orientation", dict(choices=("undirected", "directed"),
                                   required=True)),
            ("--tmax", dict(type=_finite, required=True)),
            ("--tmin", dict(type=_finite, default=1e3)),
            ("--tcount", dict(type=int, default=5)),
            ("--samples", dict(type=int, default=129)), graph=False)
    command("stable", _cmd_stable, "stable density evaluation",
            ("--beta", dict(type=float, required=True, choices=(0.0, 1.0))),
            ("--scale", dict(type=float, default=1.0, help="scale parameter")),
            ("--xi-min", dict(type=_finite, default=-10.0)),
            ("--xi-max", dict(type=_finite, default=10.0)),
            ("--xi-count", dict(type=int, default=201)), graph=False)
    command("consensus", _cmd_consensus, "fractional consensus simulation",
            ("--config", dict(required=True, help="JSON configuration")),
            graph=False, alpha=None)
    return top


class _Run:
    """Everything one run reads and writes.

    `read` records each input file's SHA-256 for the manifest.
    `matrix`, `table`, `record` and `summary` only queue their output and
    return its file name: ``name`` (default ``--out``, else the subcommand)
    under ``--out-dir`` (default ``$FRACLAP_OUT_DIR``, else ``.``), with
    the suffix of ``--format``; ``--out`` may name a subdirectory.
    `finish` queues the manifest last and writes the queue in order, each
    file into a hidden temporary sibling, and renames the temporary files
    into place only once every write has returned.  So a run that raises
    before it writes nothing, and a write that raises leaves every file
    that was there before the run as it was: the temporary files and the
    (empty) directories that the run created are removed.
    """

    def __init__(self, args):
        self.args = args
        self.outdir = Path(args.out_dir or os.environ.get("FRACLAP_OUT_DIR")
                           or ".")
        self.inputs = {}
        self.writes = []
        self.started = time.monotonic()

    def read(self, path) -> Path:
        """``path``, digested; an unreadable one raises the `OSError` of
        opening it."""
        path = Path(path)
        self.inputs[str(path)] = sha256_file(path)
        return path

    def record(self, payload: dict, name=None) -> str:
        """Queue ``payload`` as a JSON object."""
        return self._queue(name, ".json", write_json, payload)

    def matrix(self, M, name=None) -> str:
        if self.args.format == "csv":
            return self._queue(name, ".csv", write_matrix_csv, M)
        if self.args.format == "mm":
            return self._queue(name, ".mtx", write_matrix_mm, M)
        return self.record({"matrix": np.asarray(M)}, name)

    def table(self, header, columns, name=None) -> str:
        if self.args.format == "csv":
            return self._queue(name, ".csv", write_table_csv, header, columns)
        if self.args.format == "mm":
            M = np.column_stack([np.asarray(c, dtype=float) for c in columns])
            return self._queue(name, ".mtx", write_matrix_mm, M,
                               ",".join(header))
        return self.record({"columns": {h: np.asarray(c)
                                        for h, c in zip(header, columns)}},
                           name)

    def summary(self, summary: dict, output: str) -> dict:
        """Queue a copy of ``summary`` as ``<command>_summary.json``, then
        return it with the ``output`` file name added."""
        self.record(dict(summary), f"{self.args.command}_summary")
        summary["output"] = output
        return summary

    def _queue(self, name, suffix: str, write, *payload) -> str:
        path = self.outdir / Path(name or self.args.out
                                  or self.args.command).with_suffix(suffix)
        self.writes.append((write, path, payload))
        return path.name

    def finish(self, results: dict) -> None:
        args, inputs, started = self.args, self.inputs, self.started
        params = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("command", "handler") and v is not None}
        # built when written, so that duration_s covers the outputs, and
        # free of self, so that no reference cycle keeps the queue alive
        self._queue(f"{args.command}_manifest", ".json", lambda p: write_json(
            p, {"subcommand": args.command, "parameters": params,
                "inputs": inputs, "seed": args.seed, "version": __version__,
                "duration_s": time.monotonic() - started,
                "results": results}))
        made = []  # each path this run made, noted once its parent exists
        written = []
        try:
            for i, (write, path, payload) in enumerate(self.writes):
                for d in reversed(path.parents):
                    if not d.is_dir():
                        d.mkdir()
                        made.append(d)
                if path.is_dir():  # fail here, not halfway through the renames
                    raise IsADirectoryError(errno.EISDIR,
                                            os.strerror(errno.EISDIR), str(path))
                # the suffix stays: mmwrite appends ".mtx" to a name without it
                tmp = path.with_name(f".{path.stem}.{os.getpid()}-{i}"
                                     f"{path.suffix}")
                os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                                 0o666))
                made.append(tmp)
                write(tmp, *payload)
                written.append((tmp, path))
            for tmp, path in written:
                os.replace(tmp, path)
        except BaseException:
            for p in reversed(made):
                if not p.is_dir():
                    p.unlink(missing_ok=True)
                elif not any(p.iterdir()):
                    p.rmdir()
            raise


def _check_dense(n: int, args) -> None:
    """More than `DENSE_LIMIT` nodes without ``--force-dense`` raises
    `ValueError`."""
    if n > DENSE_LIMIT and not args.force_dense:
        raise ValueError(
            f"graph has {n} > {DENSE_LIMIT} nodes; pass --force-dense "
            "to run the dense eigensolve anyway")


def _laplacian(args, run):
    """The input graph, its Laplacian kind and the Laplacian, built once;
    a refusal names the file."""
    path = run.read(args.input)
    g = load_edge_list(path, one_based=args.one_based,
                       force_undirected=args.force_undirected)
    _check_dense(g.n, args)
    kind = LaplacianKind(args.kind
                         or ("directed-out" if g.directed else "undirected"))
    try:
        return g, kind, build_laplacian(g, kind,
                                        dangling_fixup=args.dangling_fixup)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _kernel_of(args, L):
    return transition_kernel(fractional_power(L, args.alpha))


def _parse_times(text: str) -> np.ndarray:
    """Comma-separated times as a float array.

    An unparsable entry, a non-finite one (``nan``, ``inf``) or an empty
    list raises `ValueError`.
    """
    try:
        times = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ValueError(f"bad time list {text!r}: {exc}") from None
    if times.size == 0:
        raise ValueError("empty time list")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"non-finite time {bad[0]} in {text!r}")
    return times


def _cmd_laplacian(args, run):
    g, kind, L = _laplacian(args, run)
    return {"n": g.n, "kind": kind.value, "output": run.matrix(L.matrix)}


def _cmd_power(args, run):
    g, kind, L = _laplacian(args, run)
    res = fractional_power(L, args.alpha)
    return {"n": g.n, "kind": kind.value, "alpha": args.alpha,
            "method": res.method, "zero_cluster_size": len(res.zero_cluster),
            "square_roots": res.square_roots, "pade_degree": res.pade_degree,
            "output": run.matrix(res.matrix)}


def _cmd_kernel(args, run):
    g, kind, L = _laplacian(args, run)
    ker = _kernel_of(args, L)
    return {"n": g.n, "kind": kind.value, "alpha": args.alpha,
            "absorbing": list(ker.absorbing), "output": run.matrix(ker.P)}


def _cmd_walk(args, run):
    _, _, L = _laplacian(args, run)
    ker = _kernel_of(args, L)
    traj = simulate_discrete(ker, args.start, args.steps, args.seed)
    return {"start": args.start, "steps": args.steps,
            "output": run.table(["step", "node"],
                                [traj.times.astype(int), traj.states])}


def _cmd_evolve(args, run):
    g, _, L = _laplacian(args, run)
    times = _parse_times(args.times)
    ker = _kernel_of(args, L)
    traj = evolve_continuous(ker, args.start, times)
    return {"conservation_drift": traj.conservation_drift,
            "spectrum": traj.spectrum,
            "balance_residual": traj.balance_residual,
            "output": run.table(["t"] + [f"u{i}" for i in range(g.n)],
                                [traj.times, *traj.states.T])}


def _cmd_absorb(args, run):
    if args.runs < 0 or args.runs == 1:
        raise ValueError(f"--runs must be 0 or at least 2, got {args.runs} "
                         "(the standard error needs two samples)")
    _check_dense(args.n, args)
    res = expected_absorption_steps(args.n, args.alpha)
    out = {"expectation": res.expectation, "n_step": res.n_step,
           "fundamental_expectation": res.fundamental_expectation}
    if args.runs > 0:
        L = build_laplacian(path_graph(args.n, directed=True),
                            LaplacianKind.DIRECTED_OUT)
        samples = absorption_time_samples(_kernel_of(args, L), 0,
                                          args.runs, args.seed)
        out["mc_mean"] = float(samples.mean())
        out["mc_stderr"] = float(samples.std(ddof=1) / np.sqrt(args.runs))
    keys = sorted(out)
    out["output"] = (run.record(dict(out)) if args.format == "json"
                     else run.table(keys, [[out[k]] for k in keys]))
    return out


def _parse_pairs(text: str):
    if text == "all":
        return None
    if text.startswith("sampled:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad pair count in {text!r}") from None
        if k <= 0:
            raise ValueError("sampled pair count must be positive")
        return k
    raise ValueError(f'--pairs expects "all" or "sampled:<k>", got {text!r}')


def _cmd_decay(args, run):
    _, _, L = _laplacian(args, run)
    sample = _parse_pairs(args.pairs)
    if not _is_symmetric(L.matrix):
        raise ValueError(f"{args.input}: decay bounds need a symmetric "
                         "Laplacian (an undirected graph with kind undirected"
                         " or symmetric-normalized)")
    if args.mode == "kernel":
        # one eigendecomposition serves the power and the check
        data = symmetric_spectral_data(L)
        kernel = transition_kernel(
            fractional_power_symmetric(L, args.alpha, data=data))
        report = verify_p_alpha_bound(kernel, L, data=data, sample=sample,
                                      seed=args.seed)
    else:
        report = verify_decay_bounds(L, args.alpha, mode=args.mode, t=args.t,
                                     sample=sample, seed=args.seed)
    summary = {"mode": report.mode, "alpha": report.alpha, "c": report.c,
               "rho": report.rho, "t": report.t, "n_pairs": report.n_pairs,
               "all_satisfied": report.all_satisfied,
               "violations": report.violations,
               "max_ratio": report.max_ratio}
    if report.diagonal_ok is not None:
        summary["diagonal_ok"] = report.diagonal_ok
        summary["diagonal_margin"] = report.diagonal_margin
    return run.summary(summary, run.table(
        ["i", "j", "d", "observed", "bound", "ok"],
        [report.pairs[:, 0], report.pairs[:, 1],
         report.distances.astype(int), report.observed, report.bounds,
         report.satisfied.astype(int)]))


def _cmd_frange(args, run):
    _, _, L = _laplacian(args, run)
    M = L if args.alpha is None else fractional_power(L, args.alpha)
    prof = numerical_range_profile(M, angles=args.angles)
    summary = {"min_real": prof.min_real,
               "eigenvector_condition": prof.eigenvector_condition,
               "contains_negative_real": prof.min_real < 0.0}
    return run.summary(summary, run.table(
        ["angle", "boundary_re", "boundary_im", "support"],
        [prof.angles, prof.boundary.real, prof.boundary.imag, prof.support]))


def _cmd_returnprob(args, run):
    g, _, L = _laplacian(args, run)
    times = _parse_times(args.times)
    ker = _kernel_of(args, L)
    curve = return_probability(np.eye(ker.n) - ker.P, times)
    D = pattern_distances(g.weight_matrix, directed=g.directed)
    summary = {"spectral_gap": curve.spectral_gap,
               "zero_multiplicity": curve.zero_multiplicity,
               "diameter": int(D[np.isfinite(D)].max()),
               "spectrum": curve.spectrum,
               "balance_residual": curve.balance_residual}
    return run.summary(summary, run.table(["t", "value"],
                                          [curve.times, curve.values]))


def _cmd_superdiff(args, run):
    if args.tmin <= 0 or args.tmax <= args.tmin:
        raise ValueError("need 0 < tmin < tmax")
    times = np.geomspace(args.tmin, args.tmax, args.tcount)
    fit = superdiffusion_exponent(args.alpha, args.orientation, times,
                                  samples=args.samples)
    summary = {"alpha": fit.alpha, "orientation": fit.orientation,
               "exponent": fit.exponent, "expected": fit.expected,
               "r_squared": fit.r_squared}
    return run.summary(summary, run.table(
        ["t", "fwhm_sq", "exponent"],
        [fit.times, fit.widths ** 2, np.full(fit.times.shape, fit.exponent)]))


def _cmd_stable(args, run):
    if args.xi_count < 2 or args.xi_max <= args.xi_min:
        raise ValueError("need xi_min < xi_max and at least 2 points")
    params = StableParams(alpha=args.alpha, beta=args.beta, gamma=args.scale)
    xi = np.linspace(args.xi_min, args.xi_max, args.xi_count)
    dens = stable_density(params, xi)
    return {"alpha": args.alpha, "beta": args.beta, "scale": args.scale,
            "output": run.table(["xi", "density"], [xi, dens])}


def _alpha_tag(alpha: float) -> str:
    return ("%g" % alpha).replace(".", "p").replace("-", "m")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


def _number(value, name: str) -> float:
    """``float(value)``, or `ValueError` naming the config field ``name``
    if ``value`` is not a JSON number."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _consensus_graph(cfg, args, run):
    g = cfg.setdefault("graph", "directed-cycle")
    if g == "directed-cycle":
        n = cfg.get("vehicles", 120)
        if type(n) is not int:
            raise ValueError(f"vehicles must be an integer, got {n!r}")
        _check_dense(n, args)
        return cycle_graph(n, directed=True)
    if not isinstance(g, str):
        raise ValueError("graph must be \"directed-cycle\" or an edge-list "
                         f"path, got {g!r}")
    g = load_edge_list(run.read(g), one_based=cfg.get("one_based", False))
    _check_dense(g.n, args)
    return g


def _cmd_consensus(args, run):
    try:
        cfg = json.loads(run.read(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON config: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {cfg!r}")
    unknown = sorted(cfg.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if not isinstance(cfg.get("one_based", False), bool):
        raise ValueError("one_based must be true or false, got "
                         f"{cfg['one_based']!r}")

    center = cfg.get("center", [3.0, 3.0])
    if not (isinstance(center, list) and len(center) == 2
            and all(map(_is_number, center)) and np.isfinite(center).all()):
        raise ValueError(f"center must be 2 finite numbers, got {center!r}")
    alphas = cfg.get("alpha", [0.5])
    alphas = [_check_alpha(_number(a, "alpha"))
              for a in (alphas if isinstance(alphas, list) else [alphas])]
    if not alphas:
        raise ValueError("alpha must list at least one exponent")
    if len({_alpha_tag(a) for a in alphas}) < len(alphas):
        raise ValueError(f"alpha must list distinct exponents, got {alphas}")
    stride = cfg.get("stride")
    if stride is not None and (type(stride) is not int or stride < 1):
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    beta = _number(cfg.get("beta", 0.5), "beta")
    horizon = _number(cfg.get("horizon", 5.0), "horizon")
    step = cfg.get("step")
    step = None if step is None else _number(step, "step")
    gamma = cfg.get("gamma", "bound+margin")
    gamma = None if gamma == "bound+margin" else _number(gamma, "gamma")
    margin = _number(cfg.get("gamma_margin", 1.0), "gamma_margin")
    graph = _consensus_graph(cfg, args, run)
    ring, v0, target = _relocation_geometry(graph.n, np.array(center, float))

    results = {}
    for alpha in alphas:
        sim = ConsensusConfig(graph=graph, alpha=alpha, beta=beta,
                              target=target, x0=ring, v0=v0, horizon=horizon,
                              gamma=gamma, gamma_margin=margin, step=step,
                              output_stride=stride)
        try:
            states = simulate_consensus(sim)
        except ValueError as exc:  # a fault of the graph
            raise ValueError(f"{cfg['graph']}: {exc}") from None
        tag = _alpha_tag(alpha)

        pos = np.stack([s.positions for s in states])
        curve = consensus_error_curve(states)
        results[f"alpha={alpha:g}"] = {
            "gamma": sim.damping,
            "initial_position_error": states[0].position_error,
            "final_position_error": states[-1].position_error,
            "trajectory": run.table(
                ["t"] + [f"{c}{i}" for i in range(graph.n) for c in "xy"],
                [np.array([s.time for s in states]),
                 *pos.reshape(len(states), -1).T],
                f"consensus_traj_alpha{tag}"),
            "errors": run.table(["t", "error", "position_error"],
                                [curve[:, 0], curve[:, 1], curve[:, 2]],
                                f"consensus_error_alpha{tag}"),
        }
    return {"runs": results}


def cli_dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        run = _Run(args)
        run.finish(args.handler(args, run))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
