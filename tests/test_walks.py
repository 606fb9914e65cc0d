import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fraclap.errors import NumericalError
from fraclap.generators import (cycle_graph, path_graph,
                                random_connected_graph)
from fraclap.graphs import (DenseOperator, Graph, LaplacianKind,
                            build_laplacian)
from fraclap.matfun import (_zero_tolerance, fractional_power_general,
                            fractional_power_series,
                            fractional_power_symmetric,
                            matrix_exponential)
from fraclap.walks import (absorption_time_samples, cycle_entry_limit,
                           cycle_fractional_entries,
                           expected_absorption_steps,
                           evolve_continuous, path_fractional_entries,
                           path_transition_asymptotic, return_probability,
                           simulate_discrete, stationary_distribution,
                           TransitionKernel, transition_kernel)


def kernel_for(n, seed, alpha):
    g = random_connected_graph(n, seed=seed)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    return transition_kernel(fractional_power_symmetric(L, alpha))


def test_kernel_rows_stochastic():
    for seed, alpha in [(0, 0.25), (1, 0.5), (2, 0.75), (3, 1.0)]:
        k = kernel_for(30, seed, alpha)
        assert np.abs(k.P.sum(axis=1) - 1.0).max() < 1e-12
        assert k.P.min() >= 0.0
        assert np.abs(np.diag(k.P)).max() < 1e-12


def test_kernel_requires_alpha_metadata():
    g = random_connected_graph(10, seed=0)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    with pytest.raises(ValueError):
        transition_kernel(L)
    la = fractional_power_symmetric(L, 0.5)
    with pytest.raises(ValueError):
        transition_kernel(la.matrix)             # a bare array has no alpha
    assert transition_kernel(DenseOperator(la.matrix, 0.5)).alpha == 0.5


def test_power_and_series_results_feed_the_kernel():
    g = random_connected_graph(12, seed=3)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    approx = fractional_power_series(L, 0.5, 400)
    exact = transition_kernel(fractional_power_symmetric(L, 0.5))
    series = transition_kernel(approx)
    assert exact.alpha == series.alpha == 0.5
    assert np.abs(exact.d_alpha - series.d_alpha).max() <= approx.remainder
    np.testing.assert_allclose(series.P.sum(axis=1), 1.0, atol=1e-12)


def test_stationary_distribution_fractional_degrees():
    k = kernel_for(25, 4, 0.5)
    pi, residual = stationary_distribution(k)
    assert residual < 1e-10
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.abs(pi @ k.P - pi).max() < 1e-10
    want = k.d_alpha / k.d_alpha.sum()
    assert np.abs(pi - want).max() < 1e-12


def test_stationary_uniform_on_cycle():
    g = cycle_graph(12)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    k = transition_kernel(fractional_power_symmetric(L, 0.5))
    pi, _ = stationary_distribution(k)
    assert np.abs(pi - 1.0 / 12).max() < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 40),
       alpha=st.floats(0.0, 1.0, exclude_min=True))
def test_stationary_law_is_proportional_to_fractional_degrees(seed, n, alpha):
    k = kernel_for(n, seed, alpha)
    pi = k.d_alpha / k.d_alpha.sum()
    assert np.abs(pi @ k.P - pi).max() <= 1e-12
    got, residual = stationary_distribution(k)
    assert np.array_equal(got, pi) and residual <= 1e-12


class _ZeroDraws:
    # stands in for numpy's Generator: every uniform draw is exactly 0.0
    def __init__(self, bit_generator):
        pass

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_a_zero_draw_never_lands_on_a_zero_probability_node(monkeypatch):
    # from node 1 the walk must go 1 -> 2 -> 3; column 0 has probability 0
    # there, so a draw of 0.0 must not land on the absorbing node 0
    P = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    k = TransitionKernel(P=P, d_alpha=np.array([0.0, 1.0, 1.0, 0.0]),
                         alpha=0.5, absorbing=(0, 3))
    monkeypatch.setattr(np.random, "Generator", _ZeroDraws)
    assert simulate_discrete(k, 1, 3, seed=0).states.tolist() == [1, 2, 3, 3]
    assert absorption_time_samples(k, 1, 4, seed=0).tolist() == [2, 2, 2, 2]


def test_simulate_discrete_reproducible():
    k = kernel_for(20, 1, 0.5)
    a = simulate_discrete(k, 3, 200, seed=42)
    b = simulate_discrete(k, 3, 200, seed=42)
    c = simulate_discrete(k, 3, 200, seed=43)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.states.shape == (201,)
    assert a.states[0] == 3
    assert ((a.states >= 0) & (a.states < 20)).all()


# states recorded from the searchsorted sampler that preceded the bisect one
GOLDEN_WALKS = {
    ("symmetric", 7): [3, 11, 18, 12, 7, 5, 18, 0, 15, 17, 9, 6, 3, 4, 8, 9,
                       8, 19, 14, 10, 19, 3, 1, 7, 1, 0, 6, 8, 16, 10, 12, 9,
                       4, 0, 2, 10, 4, 5, 0, 15, 4],
    ("symmetric", 2024): [3, 12, 7, 6, 17, 19, 2, 0, 2, 6, 2, 9, 11, 3, 11, 0,
                          6, 19, 14, 8, 7, 2, 7, 5, 18, 4, 3, 14, 3, 4, 2, 8,
                          6, 17, 6, 16, 6, 8, 18, 15, 0],
    ("path", 7): [0, 1, 7, 9, 10, 11, 15, 16, 19, 21, 22, 23, 24, 25, 26, 27,
                  28] + [39] * 24,
    ("path", 2024): [0, 1, 2, 3, 5] + [39] * 36,
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN_WALKS))
def test_simulate_discrete_golden_states(kind, seed):
    if kind == "symmetric":
        k, start = kernel_for(20, 1, 0.5), 3
    else:
        k, start = transition_kernel(path_fractional_entries(40, 0.7)), 0
        assert k.absorbing == (39,)
    traj = simulate_discrete(k, start, 40, seed)
    assert traj.states.dtype == np.dtype(int)
    assert traj.states.tolist() == GOLDEN_WALKS[kind, seed]
    assert traj.times.tolist() == list(range(41))


def test_simulate_discrete_matches_scalar_draws_across_chunks():
    # reference: one scalar draw and one searchsorted per step
    k = kernel_for(20, 1, 0.5)
    steps = 2 * 4096 + 17
    rng = np.random.Generator(np.random.PCG64(5))
    cum = np.cumsum(k.P, axis=1)
    want = [3]
    for _ in range(steps):
        u = rng.random()
        want.append(min(int(np.searchsorted(cum[want[-1]], u, "right")),
                        k.n - 1))
    assert simulate_discrete(k, 3, steps, seed=5).states.tolist() == want


def test_absorbed_walk_stops_drawing(monkeypatch):
    L = build_laplacian(path_graph(6, directed=True),
                        LaplacianKind.DIRECTED_OUT)
    k = transition_kernel(fractional_power_general(L.matrix, 0.5))
    want = simulate_discrete(k, 0, 50, seed=1).states.tolist()
    drawn, make = [], np.random.Generator

    class Counted:
        # numpy's Generator, recording how many uniforms it hands out
        def __init__(self, bit_generator):
            self.rng = make(bit_generator)

        def random(self, size):
            drawn.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "Generator", Counted)
    traj = simulate_discrete(k, 0, 10 ** 6, seed=1)
    assert sum(drawn) <= 4096
    assert traj.states.shape == (10 ** 6 + 1,)
    assert traj.states[:51].tolist() == want and (traj.states[5:] == 5).all()


def test_long_range_jumps_present_for_small_alpha():
    # fractional kernel on the path jumps past nearest neighbours
    g = path_graph(40, directed=False)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    k = transition_kernel(fractional_power_symmetric(L, 0.4))
    traj = simulate_discrete(k, 20, 500, seed=7)
    hops = np.abs(np.diff(traj.states))
    assert hops.max() > 1


def test_simulate_discrete_freezes_at_the_absorbing_node():
    # the directed path only jumps forward, so node 5 is hit within 5 steps
    L = build_laplacian(path_graph(6, directed=True),
                        LaplacianKind.DIRECTED_OUT)
    k = transition_kernel(fractional_power_general(L.matrix, 0.5))
    assert k.absorbing == (5,)
    states = simulate_discrete(k, 0, 50, seed=1).states
    hit = int(np.argmax(states == 5))
    assert 0 < hit <= 5
    assert (states[hit:] == 5).all() and (np.diff(states[:hit + 1]) > 0).all()
    assert (simulate_discrete(k, 5, 10, seed=1).states == 5).all()


def test_expected_absorption_closed_form():
    res = expected_absorption_steps(20, 0.5)
    assert res.n_step == 5
    assert abs(res.expectation - 4.886242184147704) < 1e-12
    assert abs(res.expectation - res.fundamental_expectation) < 1e-10


def test_absorption_faster_for_smaller_alpha():
    e = [expected_absorption_steps(30, a).expectation
         for a in (0.3, 0.6, 1.0)]
    assert e[0] < e[1] < e[2]
    assert expected_absorption_steps(30, 1.0).expectation == 29.0


def test_absorption_monte_carlo_matches():
    g = path_graph(20, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    M = fractional_power_general(L.matrix, 0.5)
    op = DenseOperator(M.matrix.real, 0.5)
    k = transition_kernel(op)
    assert k.absorbing == (19,)
    samples = absorption_time_samples(k, 0, 4000, seed=11)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - 4.886242184147704) < 3 * se


def test_evolve_conserves_mass_and_matches_expm():
    k = kernel_for(15, 5, 0.5)
    u0 = np.zeros(15)
    u0[2] = 1.0
    times = [0.0, 0.5, 2.0, 10.0]
    traj = evolve_continuous(k, u0, times)
    assert traj.conservation_drift < 1e-12
    G = np.eye(15) - k.P
    for row, t in zip(traj.states, times):
        ref = expm(-t * G.T) @ u0
        assert np.abs(row - ref).max() < 1e-10
    # long-time limit is the stationary distribution
    pi, _ = stationary_distribution(k)
    tail = evolve_continuous(k, u0, [200.0]).states[0]
    assert np.abs(tail - pi).max() < 1e-8


def test_evolve_on_directed_path_with_absorbing_sink():
    L = build_laplacian(path_graph(12, directed=True),
                        LaplacianKind.DIRECTED_OUT).matrix
    k = transition_kernel(fractional_power_general(L, 0.6))
    assert k.absorbing == (11,)
    times = [0.0, 0.3, 1.0, 4.0, 20.0]
    traj = evolve_continuous(k, 0, times)
    assert traj.conservation_drift < 1e-12
    G = np.eye(12) - k.P
    u0 = np.eye(12)[0]
    for row, t in zip(traj.states, times):
        assert np.abs(row - expm(-t * G.T) @ u0).max() < 1e-10
    assert np.array_equal(traj.states[0], u0)
    assert np.all(np.diff(traj.states[:, 11]) > 0)  # mass drains to the sink


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6),
       alpha=st.floats(0.0, 1.0, exclude_min=True))
def test_evolution_on_random_digraphs_conserves_mass(seed, alpha):
    g = random_connected_graph(25, directed=True, seed=seed)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    k = transition_kernel(fractional_power_general(L, alpha))
    start = np.zeros(k.n)
    start[seed % k.n] = 1.0
    times = [0.0, 0.5, 3.0, 25.0]
    raw = matrix_exponential((np.eye(k.n) - k.P).T, times, start)
    assert raw.min() >= -1e-10
    assert np.abs(raw.sum(axis=1) - 1.0).max() < 1e-12
    traj = evolve_continuous(k, start, times)
    assert traj.conservation_drift < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_times_are_rejected(bad):
    k = kernel_for(10, 1, 0.5)
    with pytest.raises(ValueError, match="not finite"):
        evolve_continuous(k, 0, [0.0, bad])
    with pytest.raises(ValueError, match="not finite"):
        return_probability(np.eye(k.n) - k.P, [0.0, bad])


@pytest.mark.parametrize("times, u0, message", [
    ([1.0, 0.5], 0, "times must be ascending"),
    ([0.0, 1.0], np.full(9, 1.0 / 9), "u0 has the wrong length"),
    ([0.0, 1.0], np.full(10, 0.2), "u0 is not a probability vector"),
    ([0.0, 1.0], np.r_[-0.5, 1.5, np.zeros(8)],
     "u0 is not a probability vector"),
    ([0.0, 1.0], 10, "start node 10 out of range"),
])
def test_evolve_rejects_descending_times_and_bad_start_vectors(times, u0,
                                                               message):
    with pytest.raises(ValueError, match=message):
        evolve_continuous(kernel_for(10, 1, 0.5), u0, times)


def test_path_closed_form_matches_engine():
    g = path_graph(10, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    for alpha in (0.3, 0.5, 0.9):
        got = path_fractional_entries(10, alpha).matrix
        ref = fractional_power_general(L, alpha).matrix
        assert np.abs(got - ref).max() < 1e-10


def test_cycle_closed_form_matches_engine():
    g = cycle_graph(16, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    for alpha in (0.3, 0.5, 0.9):
        got = cycle_fractional_entries(16, alpha).matrix
        ref = fractional_power_general(L, alpha).matrix
        assert np.abs(got - ref).max() < 1e-10


def test_cycle_entries_approach_infinite_limit():
    gap, alpha = 3, 0.5
    lim = cycle_entry_limit(alpha, gap)
    errs = []
    for n in (16, 64, 256, 1024):
        entry = cycle_fractional_entries(n, alpha).matrix[0, gap]
        errs.append(abs(entry - lim))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    # wrap-around correction vanishes like n^-(1+alpha)
    order = np.log(errs[1] / errs[3]) / np.log(1024 / 64)
    assert abs(order - (1 + alpha)) < 0.2
    assert errs[-1] < 1e-4
    assert cycle_entry_limit(alpha, 0) == 1.0
    for alpha in (0.3, 0.5, 0.9):
        path = path_fractional_entries(12, alpha).matrix
        for gap in (1, 2, 5, 10):
            lim = cycle_entry_limit(alpha, gap)
            assert lim == path[0, gap]
            # Gamma(gap - alpha) / (gap! Gamma(-alpha)), with
            # Gamma(-alpha) < 0 < Gamma(gap - alpha)
            gamma = -math.exp(math.lgamma(gap - alpha) - math.lgamma(gap + 1)
                              - math.lgamma(-alpha))
            assert lim == pytest.approx(gamma, rel=1e-13)


def _path_kernel():
    return transition_kernel(path_fractional_entries(6, 0.5))


@pytest.mark.parametrize("call, error, message", [
    (lambda: simulate_discrete(_path_kernel(), 0, -1, seed=0), ValueError,
     "steps must be >= 0"),
    (lambda: absorption_time_samples(kernel_for(8, 0, 0.5), 0, 4, seed=0),
     ValueError, "kernel has no absorbing state"),
    (lambda: stationary_distribution(_path_kernel()), NumericalError,
     "kernel is not reversible"),
    (lambda: path_fractional_entries(1, 0.5), ValueError, "path needs n >= 2"),
    (lambda: expected_absorption_steps(1, 0.5), ValueError,
     "path needs n >= 2"),
    (lambda: cycle_fractional_entries(2, 0.5), ValueError,
     "cycle needs n >= 3"),
    (lambda: cycle_entry_limit(0.5, -1), ValueError, "gap must be >= 0"),
    (lambda: path_transition_asymptotic(0.5, 0), ValueError,
     "gap must be >= 1"),
], ids=["steps", "no-absorbing", "directed-stationary", "path-n",
        "absorption-n", "cycle-n", "limit-gap", "asymptotic-gap"])
def test_refused_walk_inputs(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_kernel_row_emptied_by_the_clamp_raises_naming_the_node():
    # row 0's only off-diagonal entry is a positive roundoff-sized one,
    # which the clamp sets to 0
    A = np.array([[1.0, 1e-13], [-1.0, 1.0]])
    with pytest.raises(NumericalError, match="node 0: its kernel row is all "
                                             "zero after clamping"):
        transition_kernel(DenseOperator(A, 0.5))


def test_path_jump_probability_power_law():
    # kernel entries follow gap^(-1-alpha) far from the boundary
    alpha = 0.5
    g = path_graph(400, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    M = fractional_power_general(L.matrix, alpha)
    op = DenseOperator(M.matrix.real, alpha)
    k = transition_kernel(op)
    for gap in (50, 100, 200):
        approx = path_transition_asymptotic(alpha, gap)
        assert abs(k.P[0, gap] / approx - 1.0) < 0.02


def test_return_probability_basics():
    g = cycle_graph(20, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    la = fractional_power_general(L.matrix, 0.5).matrix.real
    times = np.array([0.0, 0.1, 1.0, 10.0, 1e6])
    curve = return_probability(la, times)
    assert curve.values[0] == 1.0
    ref = np.array([np.trace(expm(-t * la)).real / 20 for t in times])
    assert np.abs(curve.values - ref).max() < 1e-8
    assert curve.zero_multiplicity == 1
    assert abs(curve.values[-1] - 1 / 20) < 1e-6


def test_return_probability_monotone_when_symmetric():
    g = random_connected_graph(30, seed=9)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    la = fractional_power_symmetric(L, 0.5).matrix
    times = np.linspace(0.0, 20.0, 40)
    curve = return_probability(la, times)
    assert (np.diff(curve.values) <= 1e-12).all()
    assert curve.values[0] == 1.0
    assert curve.spectral_gap > 0


def _eigvals_curve(G, times):
    # the general path of return_probability, kept as the reference
    lam = np.linalg.eigvals(G)
    zero = np.abs(lam) <= _zero_tolerance(lam)
    nonzero = np.abs(lam[~zero])
    gap = float(nonzero.max() / nonzero.min()) if nonzero.size else np.nan
    values = np.array([np.exp(-lam * t).mean().real for t in times])
    return values, gap, int(zero.sum())


def _expm_evolution(k, start, times):
    # the general path of evolve_continuous, kept as the reference
    out = matrix_exponential((np.eye(k.n) - k.P).T, times, np.eye(k.n)[start])
    return np.clip(out, 0.0, None)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 40),
       alpha=st.floats(0.0, 1.0, exclude_min=True))
def test_symmetric_spectrum_matches_expm_and_eigvals(seed, n, alpha):
    k = kernel_for(n, seed, alpha)
    G = np.eye(n) - k.P
    times = [0.0, 0.5, 3.0, 25.0]
    curve = return_probability(G, times)
    assert curve.spectrum == "symmetric"
    assert curve.balance_residual <= n * np.finfo(float).eps
    want = [np.trace(expm(-t * G)) / n for t in times]
    assert np.abs(curve.values - want).max() <= 1e-10
    _, gap, zero_mult = _eigvals_curve(G, times)
    assert curve.zero_multiplicity == zero_mult == 1
    assert curve.spectral_gap == pytest.approx(gap, rel=1e-10)

    start = seed % n
    traj = evolve_continuous(k, start, times)
    assert traj.spectrum == "symmetric"
    assert traj.balance_residual <= n * np.finfo(float).eps
    assert np.array_equal(traj.states[0], np.eye(n)[start])
    for row, t in zip(traj.states, times):
        assert np.abs(row - expm(-t * G.T)[:, start]).max() <= 1e-10


def _directed_cycle_kernel():
    return transition_kernel(cycle_fractional_entries(16, 0.6))


def _absorbing_path_kernel():
    return transition_kernel(path_fractional_entries(16, 0.6))


def _disconnected_kernel():
    # for these seeds the singular stationary solve happens to return a
    # positive law in detailed balance: only the pivot test rejects it
    parts = [random_connected_graph(9, seed=3),
             random_connected_graph(7, seed=2)]
    edges = parts[0].edges + tuple((u + 9, v + 9, w)
                                   for u, v, w in parts[1].edges)
    L = build_laplacian(Graph(n=16, directed=False, edges=edges),
                        LaplacianKind.COMBINATORIAL)
    return transition_kernel(fractional_power_symmetric(L, 0.6))


@pytest.mark.parametrize("make", [_directed_cycle_kernel,
                                  _absorbing_path_kernel,
                                  _disconnected_kernel])
def test_return_probability_general_path_is_eigvals(make):
    k = make()
    G = np.eye(k.n) - k.P
    times = [0.0, 0.5, 3.0, 25.0]
    curve = return_probability(G, times)
    values, gap, zero_mult = _eigvals_curve(G, times)
    assert curve.spectrum == "general"
    assert np.array_equal(curve.values, values)
    assert np.array_equal(curve.spectral_gap, gap)
    assert curve.zero_multiplicity == zero_mult


@pytest.mark.parametrize("make", [_directed_cycle_kernel,
                                  _absorbing_path_kernel])
def test_evolve_general_path_is_matrix_exponential(make):
    k = make()
    times = [0.0, 0.5, 3.0, 25.0]
    traj = evolve_continuous(k, 0, times)
    assert traj.spectrum == "general"
    assert np.array_equal(traj.states, _expm_evolution(k, 0, times))


def test_evolve_on_a_disconnected_graph_stays_in_its_component():
    # detailed balance holds on each component, so the symmetric path runs
    k = _disconnected_kernel()
    times = [0.0, 0.5, 3.0, 25.0]
    traj = evolve_continuous(k, 0, times)
    assert traj.spectrum == "symmetric"
    assert np.abs(traj.states - _expm_evolution(k, 0, times)).max() <= 1e-12
    assert traj.states[:, 9:].max() <= 1e-12
