import dataclasses
import warnings

import numpy as np
import pytest

from fraclap import graphs
from fraclap.consensus import gamma_lower_bound
from fraclap.decay import (distance_decay_slope, numerical_range_profile,
                           pattern_distances, verify_decay_bounds,
                           verify_p_alpha_bound)
from fraclap.errors import NumericalError
from fraclap.generators import (cycle_graph, grid_graph,
                                random_connected_graph,
                                random_geometric_graph)
from fraclap.graphs import (Graph, LaplacianKind, build_laplacian)
from fraclap.matfun import fractional_power_symmetric
from fraclap.walks import transition_kernel


def three_node_digraph():
    return Graph(n=3, directed=True,
                 edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 1.0)))


def test_power_bounds_on_cycle():
    L = build_laplacian(cycle_graph(64), LaplacianKind.COMBINATORIAL)
    for alpha in (0.25, 0.5, 0.75):
        rep = verify_decay_bounds(L.matrix, alpha, mode="power")
        assert rep.all_satisfied and rep.violations == 0
        assert rep.n_pairs > 0
        assert rep.max_ratio <= 1.0
        assert abs(rep.c - (1 + np.pi**2 / 2)) < 1e-14


def test_exponential_bounds_on_geometric_graph():
    g = random_geometric_graph(120, 0.16, seed=4)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    for t in (0.1, 1.0, 10.0):
        rep = verify_decay_bounds(L.matrix, 0.5, mode="exponential", t=t)
        assert rep.all_satisfied
        assert rep.t == t and rep.mode == "exponential"
        # the linearized envelope c*t*x^alpha dominates the sharp bound
        assert (rep.bounds <= rep.secondary_bounds + 1e-15).all()


def test_exponential_mode_requires_t():
    L = build_laplacian(cycle_graph(8), LaplacianKind.COMBINATORIAL)
    with pytest.raises(ValueError):
        verify_decay_bounds(L.matrix, 0.5, mode="exponential")


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_exponential_mode_rejects_non_finite_t(t):
    L = build_laplacian(cycle_graph(8), LaplacianKind.COMBINATORIAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"finite t > 0, got t={t}"):
            verify_decay_bounds(L.matrix, 0.5, mode="exponential", t=t)


@pytest.mark.parametrize("mode, t", [("bogus", 1.0), ("exponential", None),
                                     ("exponential", np.nan)])
def test_bad_mode_or_time_is_rejected_before_factoring(monkeypatch, mode, t):
    import fraclap.decay
    calls = []
    factor = fraclap.decay.symmetric_spectral_data

    def counted(L):
        calls.append(L)
        return factor(L)

    monkeypatch.setattr(fraclap.decay, "symmetric_spectral_data", counted)
    monkeypatch.setattr(graphs.DenseOperator, "hop_distances", property(
        lambda op: pytest.fail("hop distances computed")))
    L = build_laplacian(cycle_graph(8), LaplacianKind.COMBINATORIAL)
    with pytest.raises(ValueError, match="unknown mode|finite t > 0"):
        verify_decay_bounds(L, 0.5, mode=mode, t=t)
    assert calls == []


def test_nonsymmetric_input_rejected():
    L = build_laplacian(three_node_digraph(), LaplacianKind.DIRECTED_OUT)
    with pytest.raises(ValueError):
        verify_decay_bounds(L.matrix, 0.5)


PER_PAIR = ("pairs", "distances", "observed", "bounds", "satisfied",
            "secondary_bounds")


@pytest.mark.parametrize("mode", ["power", "exponential", "kernel"])
def test_sampling_keeps_summary_exact(mode):
    L = build_laplacian(cycle_graph(64), LaplacianKind.COMBINATORIAL)
    if mode == "kernel":
        kernel = transition_kernel(fractional_power_symmetric(L, 0.5))
        full = verify_p_alpha_bound(kernel, L.matrix)
        sub = verify_p_alpha_bound(kernel, L.matrix, sample=40, seed=1)
    else:
        t = 1.0 if mode == "exponential" else None
        full = verify_decay_bounds(L.matrix, 0.5, mode=mode, t=t)
        sub = verify_decay_bounds(L.matrix, 0.5, mode=mode, t=t, sample=40,
                                  seed=1)
    assert len(sub.pairs) == 40 and len(full.pairs) == full.n_pairs
    assert (full.secondary_bounds is None) == (mode != "exponential")
    row = {tuple(p): k for k, p in enumerate(full.pairs)}
    at = [row[tuple(p)] for p in sub.pairs]
    for name in PER_PAIR:
        want = getattr(full, name)
        if want is None:
            assert getattr(sub, name) is None
        else:
            np.testing.assert_array_equal(getattr(sub, name), want[at])
    for field in dataclasses.fields(full):
        if field.name not in PER_PAIR:
            assert getattr(sub, field.name) == getattr(full, field.name), \
                field.name
    assert (full.diagonal_ok is None) == (mode != "kernel")


def test_kernel_bounds_on_cycle():
    L = build_laplacian(cycle_graph(64), LaplacianKind.COMBINATORIAL)
    k = transition_kernel(fractional_power_symmetric(L, 0.5))
    rep = verify_p_alpha_bound(k, L.matrix)
    assert rep.all_satisfied
    assert rep.mode == "kernel"
    assert rep.diagonal_ok and rep.diagonal_margin > 0


def _count_pattern_distances(monkeypatch):
    calls = []
    real = graphs.pattern_distances

    def counting(A, **kwargs):
        calls.append(kwargs)
        return real(A, **kwargs)
    monkeypatch.setattr(graphs, "pattern_distances", counting)
    return calls


def _three_checks(L, kernel):
    return [verify_decay_bounds(L, 0.5, mode="power"),
            verify_decay_bounds(L, 0.5, mode="exponential", t=1.0),
            verify_p_alpha_bound(kernel, L)]


def test_one_distance_search_per_operator(monkeypatch):
    L = build_laplacian(random_geometric_graph(60, 0.25, seed=8),
                        LaplacianKind.COMBINATORIAL)
    kernel = transition_kernel(fractional_power_symmetric(L, 0.5))
    calls = _count_pattern_distances(monkeypatch)
    _three_checks(L, kernel)
    assert calls == [{"directed": False}]


def test_bare_arrays_search_distances_per_check(monkeypatch):
    L = build_laplacian(random_geometric_graph(60, 0.25, seed=8),
                        LaplacianKind.COMBINATORIAL)
    kernel = transition_kernel(fractional_power_symmetric(L, 0.5))
    calls = _count_pattern_distances(monkeypatch)
    _three_checks(L.matrix, kernel)
    assert len(calls) == 3


def _same_report(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def test_cached_distances_give_identical_reports(monkeypatch):
    cases = []
    for g in (grid_graph(10, 10), random_geometric_graph(70, 0.22, seed=9)):
        L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
        kernel = transition_kernel(fractional_power_symmetric(L, 0.5))
        cases.append((L, kernel, _three_checks(L, kernel)))
    # the reference searches the pattern on every read, with no cache
    monkeypatch.setattr(graphs.DenseOperator, "hop_distances", property(
        lambda op: pattern_distances(op.matrix, directed=False)))
    for L, kernel, cached in cases:
        for a, b in zip(cached, _three_checks(L, kernel)):
            _same_report(a, b)


def _per_angle_profile(A, thetas):
    """Support and boundary from one Hermitian eigensolve per angle."""
    A = A.astype(complex)
    support = np.empty(thetas.shape[0])
    boundary = np.empty(thetas.shape[0], dtype=complex)
    for k, theta in enumerate(thetas):
        R = np.exp(1j * theta) * A
        w, V = np.linalg.eigh((R + R.conj().T) / 2.0)
        support[k] = w[-1]
        boundary[k] = V[:, -1].conj() @ A @ V[:, -1]
    return support, boundary


def test_numerical_range_dips_negative_on_defective_digraph():
    L = build_laplacian(three_node_digraph(), LaplacianKind.DIRECTED_OUT)
    prof = numerical_range_profile(L.matrix)
    assert abs(prof.min_real - (-0.06631874678992)) < 1e-12
    assert prof.eigenvector_condition > 1e6
    w = np.linalg.eigvals(L.matrix)
    assert w.real.min() > -1e-12        # spectrum stays in the closed RHP
    support, boundary = _per_angle_profile(L.matrix, prof.angles)
    tol = 1e-12 * max(1.0, np.linalg.norm(L.matrix, 2))
    assert np.abs(prof.support - support).max() <= tol
    assert np.abs(prof.boundary - boundary).max() <= tol


def _check_sweep(A, angles):
    """Supports against the full per-angle sweep, and each boundary
    point on its supporting line, within ``1e-12 * max(1, |A|_2)``."""
    prof = numerical_range_profile(A, angles=angles)
    assert prof.support.shape == prof.boundary.shape == (angles,)
    support, _ = _per_angle_profile(A, prof.angles)
    tol = 1e-12 * max(1.0, np.linalg.norm(A, 2))
    assert np.abs(prof.support - support).max() <= tol
    on_line = (np.exp(1j * prof.angles) * prof.boundary).real
    assert np.abs(on_line - prof.support).max() <= tol
    return prof


@pytest.mark.parametrize("angles", [8, 9, 360])
def test_numerical_range_mirrors_real_nonnormal_input(angles):
    g = random_connected_graph(40, directed=True, seed=11)
    A = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    assert not np.array_equal(A, A.T)
    prof = _check_sweep(A, angles)
    k = np.arange(angles // 2 + 1, angles)
    assert np.array_equal(prof.support[k], prof.support[angles - k])
    assert np.array_equal(prof.boundary[k], prof.boundary[angles - k].conj())


def test_numerical_range_of_complex_nonnormal_input():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    prof = _check_sweep(A, 37)
    # no mirror: the range of a complex matrix is not symmetric about
    # the real axis
    k = np.arange(1, 37)
    assert np.abs(prof.support[k] - prof.support[37 - k]).max() > 0.1


def test_numerical_range_hermitian_path_matches_per_angle_sweep():
    for g, kind in [(cycle_graph(24), LaplacianKind.COMBINATORIAL),
                    (random_geometric_graph(30, 0.35, seed=5),
                     LaplacianKind.COMBINATORIAL)]:
        L = build_laplacian(g, kind).matrix
        # the shift puts the range on both sides of the imaginary axis
        for A in (L, L - 2.0 * np.eye(g.n)):
            prof = numerical_range_profile(A)
            support, boundary = _per_angle_profile(A, prof.angles)
            tol = 1e-12 * max(1.0, np.linalg.norm(A, 2))
            assert np.abs(prof.support - support).max() <= tol
            assert np.abs(prof.boundary - boundary).max() <= tol
            pi = np.argmin(np.abs(prof.angles - np.pi))
            assert abs(prof.min_real + support[pi]) <= tol
            assert prof.eigenvector_condition == 1.0


def test_numerical_range_nonnegative_for_symmetric_psd():
    for n, seed in [(20, 0), (35, 1)]:
        g = random_geometric_graph(n, 0.45, seed=seed)
        L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
        prof = numerical_range_profile(L.matrix)
        assert prof.min_real >= -1e-10
    Lc = build_laplacian(cycle_graph(16), LaplacianKind.SYMMETRIC_NORMALIZED)
    assert numerical_range_profile(Lc.matrix).min_real >= -1e-10


def test_numerical_range_refuses_entries_whose_double_overflows():
    # the directed-out Laplacian of the arcs 0 -> 1 -> 2 of weight 1e308;
    # `build_laplacian` refuses that graph, so no CLI run reaches here
    A = np.array([[1e308, -1e308, 0.0], [0.0, 1e308, -1e308],
                  [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"2 \* max\|A\| overflows"):
        numerical_range_profile(A)
    prof = numerical_range_profile(A * 1e-108)
    assert np.isfinite(prof.support).all()


def test_distance_decay_slope_on_grid():
    g = grid_graph(12, 12)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    dist = pattern_distances(g.weight_matrix, directed=g.directed)
    for alpha in (0.25, 0.5, 0.75):
        A = fractional_power_symmetric(L, alpha).matrix
        prof = distance_decay_slope(np.abs(A), dist)
        assert prof.slope <= -alpha + 0.15


def test_distance_decay_peaks_match_the_per_class_loop():
    for g in (grid_graph(15, 15), random_geometric_graph(60, 0.2, seed=3)):
        L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
        dist = pattern_distances(g.weight_matrix, directed=g.directed)
        A = np.abs(fractional_power_symmetric(L, 0.5).matrix)
        prof = distance_decay_slope(A, dist)
        classes = np.unique(dist[np.isfinite(dist) & (dist >= 2)])
        peaks = np.array([A[dist == d].max() for d in classes])
        keep = peaks > 0.0
        assert np.array_equal(prof.distances, classes[keep])
        assert np.array_equal(prof.max_entries, peaks[keep])
    with pytest.raises(ValueError, match="whole hop counts"):
        distance_decay_slope(A, dist + 0.5)


def test_pattern_and_graph_distances_agree():
    g = random_geometric_graph(40, 0.3, seed=2)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    dp = pattern_distances(L.matrix, directed=False)
    dg = pattern_distances(g.weight_matrix, directed=g.directed)
    assert np.array_equal(dp, dg)
    assert (np.diag(dg) == 0).all()


_BAD_INPUTS = {"nan": np.array([[1.0, -1.0, np.nan], [-1.0, 1.0, 0.0],
                                [np.nan, 0.0, 0.0]]),
               "rectangular": np.ones((3, 4))}


@pytest.mark.parametrize("bad", sorted(_BAD_INPUTS))
@pytest.mark.parametrize("call", [
    lambda A: pattern_distances(A),
    lambda A: verify_decay_bounds(A, 0.5),
    lambda A: numerical_range_profile(A),
    lambda A: gamma_lower_bound(A, 0.5),
], ids=["pattern_distances", "verify_decay_bounds",
        "numerical_range_profile", "gamma_lower_bound"])
def test_bad_matrices_raise_value_error(call, bad):
    with pytest.raises(ValueError):
        call(_BAD_INPUTS[bad])


def test_refused_range_and_slope_inputs():
    L = build_laplacian(cycle_graph(6), LaplacianKind.COMBINATORIAL)
    with pytest.raises(ValueError, match="need at least 8 angles"):
        numerical_range_profile(L, angles=7)
    # a 5-cycle reaches hop distance 2 only: one class, not three
    five = build_laplacian(cycle_graph(5), LaplacianKind.COMBINATORIAL)
    with pytest.raises(NumericalError, match="need at least 3 distance"):
        distance_decay_slope(fractional_power_symmetric(five, 0.5),
                             five.hop_distances)


def test_numerical_range_of_complex_hermitian_input():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = (X + X.conj().T) / 2.0
    assert np.array_equal(H, H.conj().T) and np.abs(H.imag).max() > 0.1
    prof = numerical_range_profile(H, angles=16)
    lam = np.linalg.eigvalsh(H)
    cos = np.cos(prof.angles)
    want = np.where(cos >= 0.0, cos * lam[-1], cos * lam[0])
    tol = 1e-12 * max(1.0, np.abs(lam).max())
    assert np.abs(prof.support - want).max() <= tol
    assert abs(prof.min_real - lam[0]) <= tol
    assert np.abs(prof.boundary.imag).max() <= tol
