import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, fractional_matrix_power

from fraclap.errors import NumericalError
from fraclap.generators import cycle_graph, path_graph, random_connected_graph
from fraclap import matfun
from fraclap.graphs import DenseOperator, LaplacianKind, build_laplacian
from fraclap.matfun import (FractionalPowerResult, SeriesApproximation,
                            binomial_coefficients, exp_fractional_symmetric,
                            fractional_power, fractional_power_general,
                            fractional_power_series,
                            fractional_power_symmetric, matrix_exponential,
                            symmetric_spectral_data,
                            verify_m_matrix)
from fraclap.walks import transition_kernel


def combinatorial(n, seed):
    g = random_connected_graph(n, seed=seed)
    return build_laplacian(g, LaplacianKind.COMBINATORIAL)


def test_alpha_one_is_identity_map():
    L = combinatorial(15, 2)
    r = fractional_power_symmetric(L, 1.0)
    assert np.abs(r.matrix - L.matrix).max() < 1e-12


def test_symmetric_engine_matches_eigh_reconstruction():
    L = combinatorial(20, 5)
    w, V = np.linalg.eigh(L.matrix)
    w = np.where(w < 1e-12, 0.0, w)
    for alpha in (0.3, 0.5, 0.9):
        direct = (V * w**alpha) @ V.T
        r = fractional_power_symmetric(L, alpha)
        assert np.abs(r.matrix - direct).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0.05, 1.0))
def test_general_engine_matches_symmetric_engine(seed, alpha):
    L = combinatorial(18, seed)
    sym = fractional_power_symmetric(L, alpha)
    gen = fractional_power_general(L.matrix, alpha)
    assert np.abs(gen.matrix - sym.matrix).max() < 1e-10
    assert len(gen.zero_cluster) == len(sym.zero_cluster) == 1


def test_general_engine_matches_scipy_on_digraph():
    # shifted so no eigenvalue sits on the closed negative real axis
    g = cycle_graph(9, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    M = L + 0.3 * np.eye(9)
    for alpha in (0.4, 0.7):
        ours = fractional_power_general(M, alpha).matrix
        ref = fractional_matrix_power(M, alpha)
        assert np.abs(ours - ref.real).max() < 1e-10


def test_zero_cluster_counts_components():
    g1 = random_connected_graph(8, seed=1)
    g2 = random_connected_graph(8, seed=2)
    edges = list(g1.edges) + [(u + 8, v + 8, w) for u, v, w in g2.edges]
    from fraclap.graphs import Graph
    g = Graph(n=16, directed=False, edges=tuple(edges))
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    r = fractional_power_symmetric(L, 0.5)
    assert len(r.zero_cluster) == 2
    assert np.abs(r.matrix.sum(axis=1)).max() < 1e-10


def test_semigroup_property():
    L = combinatorial(12, 9)
    a = fractional_power_symmetric(L, 0.3).matrix
    b = fractional_power_symmetric(L, 0.4).matrix
    c = fractional_power_symmetric(L, 0.7).matrix
    assert np.abs(a @ b - c).max() < 1e-10


def test_spectral_data_reuse():
    L = combinatorial(14, 4)
    data = symmetric_spectral_data(L)
    r1 = fractional_power_symmetric(L, 0.6, data=data)
    r2 = fractional_power_symmetric(L, 0.6)
    assert np.abs(r1.matrix - r2.matrix).max() == 0.0


def test_series_error_within_reported_remainder():
    L = combinatorial(10, 3)
    exact = fractional_power_symmetric(L, 0.5).matrix
    approx = fractional_power_series(L, 0.5, terms=4000)
    err = np.abs(approx.matrix - exact).max()
    assert err <= approx.remainder + 1e-13
    # zero eigenvalue sits on the series boundary: tail decays like k**-alpha
    assert approx.remainder < 0.05


def test_series_remainder_shrinks_with_terms():
    L = combinatorial(10, 3)
    r1 = fractional_power_series(L, 0.5, terms=200)
    r2 = fractional_power_series(L, 0.5, terms=2000)
    assert r2.remainder < r1.remainder


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0.05, 0.95),
       terms=st.integers(1, 500))
def test_series_error_within_reported_remainder_on_random_graphs(
        seed, alpha, terms):
    L = combinatorial(12, seed)
    exact = fractional_power_symmetric(L, alpha).matrix
    approx = fractional_power_series(L, alpha, terms)
    assert np.abs(approx.matrix - exact).max() <= approx.remainder


def test_series_of_an_edgeless_laplacian_is_zero():
    approx = fractional_power_series(np.zeros((3, 3)), 0.5, terms=10)
    assert np.array_equal(approx.matrix, np.zeros((3, 3)))
    assert approx.remainder == 0.0


@pytest.mark.parametrize("M, terms, message", [
    (np.array([[1.0, 0.5], [0.5, 1.0]]), 10, "positive off-diagonal"),
    (np.array([[-1.0, 0.0], [0.0, 0.0]]), 10, "negative diagonal"),
    (np.array([[2.0, -1.0], [-1.0, 2.0]]), 10, "row sums not zero"),
    (np.array([[1.0, -1.0], [-1.0, 1.0]]), -1, "terms must be >= 0"),
], ids=["off-diagonal", "diagonal", "row-sums", "terms"])
def test_series_rejects_non_laplacian(M, terms, message):
    with pytest.raises(ValueError, match=message):
        fractional_power_series(M, 0.5, terms=terms)


def test_series_signs_the_binomial_coefficients():
    L = build_laplacian(cycle_graph(5), LaplacianKind.COMBINATORIAL).matrix
    approx = fractional_power_series(L, 0.3, terms=7)
    signed = (-1.0) ** np.arange(8) * binomial_coefficients(0.3, 8)
    Bs = np.eye(5) - L / 2.0
    want = sum(c * np.linalg.matrix_power(Bs, k) for k, c in enumerate(signed))
    assert np.abs(approx.matrix - 2.0 ** 0.3 * want).max() < 1e-15
    assert approx.remainder == 2.0 ** 0.3 * abs(signed.sum())


def test_binomial_coefficients_closed_form():
    got = binomial_coefficients(0.5, 5)
    want = np.array([1.0, 0.5, -0.125, 0.0625, -0.0390625])
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ValueError, match="count must be >= 1"):
        binomial_coefficients(0.5, 0)


def test_exp_fractional_matches_expm():
    L = combinatorial(16, 6)
    la = fractional_power_symmetric(L, 0.5).matrix
    for t in (0.1, 1.0, 10.0):
        ours = exp_fractional_symmetric(L, 0.5, t).matrix
        ref = expm(-t * la)
        assert np.abs(ours - ref).max() < 1e-12


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_exp_fractional_rejects_non_finite_t_before_factoring(monkeypatch,
                                                              t):
    L = combinatorial(10, 1)
    calls = []
    monkeypatch.setattr(matfun, "symmetric_spectral_data", calls.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got t={t}"):
            exp_fractional_symmetric(L, 0.5, t)
    assert calls == []


def test_matrix_exponential_general():
    g = cycle_graph(11, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    v = np.random.default_rng(0).random(11)
    ours = matrix_exponential(L, [2.5], v)
    assert ours.shape == (1, 11)
    assert np.abs(ours[0] - expm(-2.5 * L) @ v).max() < 1e-12


def test_matrix_exponential_action_on_non_normal_matrices():
    path = build_laplacian(path_graph(12, directed=True),
                           LaplacianKind.DIRECTED_OUT).matrix
    for L in (path, random_digraph_laplacian(40, 3)):
        assert np.abs(L @ L.T - L.T @ L).max() > 0.5
        v = np.random.default_rng(1).random(L.shape[0])
        times = [0.1, 1.0, 2.5, 10.0]
        rows = matrix_exponential(L, times, v)
        for row, t in zip(rows, times):
            assert np.abs(row - expm(-t * L) @ v).max() < 1e-12


def test_matrix_exponential_at_zero_returns_the_vector():
    L = random_digraph_laplacian(20, 4)
    v = np.random.default_rng(2).standard_normal(20)
    rows = matrix_exponential(L, [0.0, 1.0, 0.0], v)
    assert np.array_equal(rows[0], v) and np.array_equal(rows[2], v)
    assert not np.array_equal(rows[1], v)


def test_matrix_exponential_guards(monkeypatch):
    L = build_laplacian(cycle_graph(7, directed=True),
                        LaplacianKind.DIRECTED_OUT).matrix
    v = np.ones(7)
    # exp(+t L): Gershgorin growth 2 per unit time
    with pytest.raises(NumericalError, match="Gershgorin"):
        matrix_exponential(-L, [1.0, 400.0], v)
    assert np.all(np.isfinite(matrix_exponential(-L, [300.0], v)))
    for bad in ([0.0, np.nan], [np.inf], [1.0, -0.5]):
        with pytest.raises(ValueError):
            matrix_exponential(L, bad, v)
    monkeypatch.setattr(matfun, "expm_multiply",
                        lambda A, b: np.full_like(b, np.inf))
    with pytest.raises(NumericalError, match="overflowed"):
        matrix_exponential(L, [1.0], v)


def test_verify_m_matrix_reports():
    L = combinatorial(20, 8)
    rep = verify_m_matrix(fractional_power_symmetric(L, 0.5).matrix)
    assert rep.is_sign_pattern and rep.spectrum_ok
    assert rep.max_positive_offdiag <= 1e-10
    assert rep.min_real_eigenvalue >= -1e-10
    bad = np.array([[1.0, 0.5], [-1.0, 1.0]])
    rep = verify_m_matrix(bad)
    assert not rep.is_sign_pattern
    assert rep.max_positive_offdiag == 0.5


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0.05, 1.0))
def test_fractional_power_keeps_laplacian_structure(seed, alpha):
    # rows sum to zero and off-diagonal entries stay nonpositive
    L = combinatorial(12, seed)
    A = fractional_power_symmetric(L, alpha).matrix
    assert np.abs(A.sum(axis=1)).max() < 1e-9
    off = A - np.diag(np.diag(A))
    assert off.max() <= 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0.1, 0.95))
def test_eigenvalues_map_to_alpha_power(seed, alpha):
    L = combinatorial(10, seed)
    w = np.linalg.eigvalsh(L.matrix)
    r = fractional_power_symmetric(L, alpha)
    wa = np.linalg.eigvalsh(r.matrix)
    want = np.where(w < 1e-12, 0.0, w) ** alpha
    assert np.abs(np.sort(wa) - np.sort(want)).max() < 1e-8


def random_digraph_laplacian(n, seed, degree=3.0):
    rng = np.random.default_rng(seed)
    W = (rng.random((n, n)) < degree / n) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(W, 0.0)
    return np.diag(W.sum(axis=1)) - W


def closed_class_count(L):
    """Strongly connected components with no arc leaving them: the
    multiplicity of the zero eigenvalue of an out-degree Laplacian."""
    W = (L - np.diag(np.diag(L))) != 0
    count, comp = scipy.sparse.csgraph.connected_components(
        W, directed=True, connection="strong")
    leaves = W & (comp[:, None] != comp[None, :])
    return count - len(np.unique(comp[leaves.any(axis=1)]))


def test_schur_spectral_data_factors_a_digraph():
    L = random_digraph_laplacian(40, 11)
    T, Z = matfun.schur_spectral_data(L)
    n = L.shape[0]
    assert not np.tril(T, -2).any()
    sub = np.flatnonzero(np.diag(T, -1))
    assert sub.size and not np.isin(sub + 1, sub).any()
    for i in sub:
        block = T[i:i + 2, i:i + 2]
        assert block[0, 0] == block[1, 1]
        assert np.abs(np.linalg.eigvals(block).imag).min() > 0
    assert np.abs(Z.T @ Z - np.eye(n)).max() <= 1e-12
    scale = max(1.0, np.linalg.norm(L, 2))
    assert np.abs(Z @ T @ Z.T - L).max() <= 1e-12 * scale


def quasi_triangular(n, pairs, seed):
    """Upper triangular with diagonal in [1, 2] and off-diagonal entries
    of size at most 1/n, plus standardized 2x2 blocks ``[[a, b], [-c, a]]``
    (b, c > 0) starting at the rows ``pairs``."""
    rng = np.random.default_rng(seed)
    T = np.triu(rng.uniform(-1, 1, (n, n)), 1) / n
    T[np.diag_indices(n)] = rng.uniform(1, 2, n)
    for i in pairs:
        T[i + 1, i + 1] = T[i, i]
        T[i + 1, i] = -rng.uniform(0.5, 1.5)
        T[i, i + 1] = rng.uniform(0.5, 1.5)
    return T


@pytest.mark.parametrize("n,pairs", [(151, (3, 74, 140)),
                                     (142, range(0, 142, 2))],
                         ids=["straddling-middle", "all-pairs"])
def test_blocked_real_square_root(n, pairs):
    T = quasi_triangular(n, pairs, seed=n)
    sub = np.diag(T, -1) != 0
    assert sub[n // 2 - 1]          # a 2x2 block straddles row n // 2
    R = matfun._sqrt_quasi(T, sub)
    assert R.dtype == np.float64
    assert np.abs(R @ R - T).max() <= 1e-13 * np.abs(T).max()


def test_general_engine_powers_compose_on_digraphs():
    for seed in (2, 3, 7):
        L = random_digraph_laplacian(60, seed)
        lam = np.linalg.eigvals(L)
        assert (np.abs(lam.imag) > 1e-8).any()
        assert closed_class_count(L) > 1
        half = fractional_power_general(L, 0.5).matrix
        assert np.abs(half @ half - L).max() <= 1e-10 * np.abs(L).max()
        a, b, c = (fractional_power_general(L, x).matrix
                   for x in (0.3, 0.4, 0.7))
        assert np.abs(a @ b - c).max() <= 1e-10 * np.abs(c).max()


def test_general_engine_within_series_remainder_on_digraphs():
    sinks = build_laplacian(random_connected_graph(25, directed=True,
                                                   seed=67),
                            LaplacianKind.DIRECTED_OUT).matrix
    for L in (random_digraph_laplacian(30, 2), sinks):
        for alpha in (0.3, 0.7):
            exact = fractional_power_general(L, alpha).matrix
            approx = fractional_power_series(L, alpha, terms=2000)
            # a sink's row attains the remainder, so roundoff sits on top
            err = np.abs(approx.matrix - exact).max()
            assert err <= approx.remainder + 1e-13


def test_general_engine_stays_real(monkeypatch):
    schur = scipy.linalg.schur
    outputs = []

    def spy_schur(*args, **kwargs):
        outputs.append(kwargs.get("output", "real"))
        return schur(*args, **kwargs)

    def no_scipy_power(*args, **kwargs):
        raise AssertionError("scipy's fractional_matrix_power was called")
    monkeypatch.setattr(scipy.linalg, "schur", spy_schur)
    monkeypatch.setattr(scipy.linalg, "fractional_matrix_power",
                        no_scipy_power)
    for alpha in (0.5, 1.0):
        r = fractional_power_general(random_digraph_laplacian(40, 11), alpha)
        assert r.matrix.dtype == np.float64
    assert outputs == ["real", "real"]


def test_power_reports_its_algorithm_path():
    directed = fractional_power(random_digraph_laplacian(40, 11), 0.5)
    assert directed.method == "schur-parlett"
    assert directed.square_roots > 0 and 1 <= directed.pade_degree <= 7
    one = fractional_power_general(random_digraph_laplacian(40, 11), 1.0)
    assert (one.square_roots, one.pade_degree) == (0, 0)
    symmetric = fractional_power(combinatorial(12, 3), 0.5)
    assert symmetric.method == "symmetric-eig"
    assert (symmetric.square_roots, symmetric.pade_degree) == (0, 0)


def test_general_engine_zero_cluster_on_digraph():
    # dangling nodes and a closed two-node class give five zero eigenvalues
    L = random_digraph_laplacian(30, 2)
    assert closed_class_count(L) == 5
    r = fractional_power_general(L, 0.5)
    F = r.matrix
    assert len(r.zero_cluster) == 5
    lam = np.abs(r.eigenvalues)
    assert lam[:5].max() <= 30 * np.finfo(float).eps * lam.max() < lam[5:].min()
    assert np.abs(F @ F - L).max() < 1e-12
    assert np.abs(F.sum(axis=1)).max() < 1e-12
    assert (F - np.diag(np.diag(F))).max() <= 1e-12
    assert np.diag(F).min() >= -1e-12


def test_general_engine_keeps_zero_rows_and_columns_exact():
    # nodes 12 and 22 have no out-arcs; Schur roundoff in row 22 reaches
    # 1.1e-14 at this alpha, above the kernel's absorbing cutoff
    g = random_connected_graph(25, directed=True, seed=67)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    sinks = ~L.any(axis=1)
    assert np.flatnonzero(sinks).tolist() == [12, 22]
    alpha = 0.05263247970794184
    r = fractional_power_general(L, alpha)
    assert not r.matrix[sinks].any()
    assert not fractional_power_general(L.T, alpha).matrix[:, sinks].any()
    assert transition_kernel(r).P[22, 22] == 1.0


def test_general_engine_repeats_and_keeps_the_global_random_stream():
    # the square-root count and Pade degree come from exact norms, with no
    # random start vectors
    g = random_connected_graph(30, directed=True, seed=1)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    before = np.random.get_state()
    first = fractional_power_general(L, 0.5).matrix
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    np.random.random(1000)
    assert np.array_equal(fractional_power_general(L, 0.5).matrix, first)


def test_general_engine_zero_matrix():
    r = fractional_power_general(np.zeros((5, 5)), 0.5)
    assert np.array_equal(r.matrix, np.zeros((5, 5)))
    assert r.zero_cluster == (0, 1, 2, 3, 4)


def test_general_engine_one_node():
    for alpha in (0.3, 0.5, 1.0):
        r = fractional_power_general(np.array([[2.0]]), alpha)
        assert r.matrix[0, 0] == pytest.approx(2.0 ** alpha, rel=1e-15)
        assert r.zero_cluster == ()


@pytest.mark.parametrize("engine, M, message", [
    (fractional_power_general, [[-1.0, 1.0], [0.0, 2.0]],
     "outside the principal-branch domain"),
    (fractional_power_symmetric, -np.eye(3),
     "below the negative-roundoff floor"),
], ids=["general", "symmetric"])
def test_engines_reject_negative_eigenvalues(engine, M, message):
    with pytest.raises(NumericalError, match=message):
        engine(M, 0.5)


def _dispatch_cases():
    L = combinatorial(20, 4)
    A = L.matrix
    # off by 1e-14 relative: not exactly symmetric, but within 1e-12
    near = A + 1e-14 * np.abs(A).max() * np.triu(np.ones_like(A), 1)
    assert not np.array_equal(near, near.T)
    return [(A, "symmetric-eig"), (near, "symmetric-eig"),
            (random_digraph_laplacian(12, 5), "schur-parlett"),
            (L, "symmetric-eig")]


@pytest.mark.parametrize("case", range(4),
                         ids=["symmetric", "near-symmetric", "digraph",
                              "operator"])
def test_fractional_power_is_the_engine_it_picks(case):
    M, method = _dispatch_cases()[case]
    engine = {"symmetric-eig": fractional_power_symmetric,
              "schur-parlett": fractional_power_general}[method]
    got = fractional_power(M, 0.6)
    ref = engine(M, 0.6)
    assert isinstance(got, FractionalPowerResult)
    assert got.method == ref.method == method
    assert got.alpha == 0.6
    assert np.array_equal(got.matrix, ref.matrix)
    assert got.zero_cluster == ref.zero_cluster
    assert np.array_equal(got.eigenvalues, ref.eigenvalues)


def test_fractional_power_calls_engines_through_module_globals(monkeypatch):
    seen = []
    for name in ("fractional_power_symmetric", "fractional_power_general"):
        fn = getattr(matfun, name)

        def spy(*args, _name=name, _fn=fn, **kwargs):
            seen.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(matfun, name, spy)
    fractional_power(combinatorial(10, 1), 0.5)
    fractional_power(random_digraph_laplacian(10, 2), 0.5)
    assert seen == ["fractional_power_symmetric", "fractional_power_general"]


def test_results_are_dense_operators():
    L = combinatorial(15, 2)
    res = fractional_power_symmetric(L, 0.5)
    series = fractional_power_series(L, 0.5, 400)
    for op in (res, series):
        assert isinstance(op, DenseOperator) and op.alpha == 0.5
    assert isinstance(series, SeriesApproximation)
    assert np.abs(series.matrix - res.matrix).max() <= series.remainder
    assert exp_fractional_symmetric(L, 0.5, 1.0).alpha is None
    assert build_laplacian(random_connected_graph(5, seed=0),
                           LaplacianKind.COMBINATORIAL).alpha is None


@pytest.mark.parametrize("bad", [np.ones((3, 4)), np.ones(3),
                                 np.array([[1.0, np.nan], [0.0, 1.0]]),
                                 np.array([[np.inf, 0.0], [0.0, 1.0]])],
                         ids=["rectangular", "vector", "nan", "inf"])
def test_dense_operator_rejects_bad_matrices(bad):
    with pytest.raises(ValueError):
        DenseOperator(bad)
    with pytest.raises(ValueError):
        fractional_power(bad, 0.5)
