import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, fractional_matrix_power, lapack

from fraclap.generators import cycle_graph, random_connected_graph
from fraclap.graphs import LaplacianKind, build_laplacian
from fraclap.matfun import (_cluster_labels, _reorder_schur,
                            binomial_coefficients, exp_fractional_symmetric,
                            fractional_power_general,
                            fractional_power_series,
                            fractional_power_symmetric, matrix_exponential,
                            schur_spectral_data, symmetric_spectral_data,
                            verify_m_matrix)


def combinatorial(n, seed):
    g = random_connected_graph(n, seed=seed)
    return build_laplacian(g, LaplacianKind.COMBINATORIAL)


def test_alpha_one_is_identity_map():
    L = combinatorial(15, 2)
    r = fractional_power_symmetric(L, 1.0)
    assert np.abs(r.operator.matrix - L.matrix).max() < 1e-12


def test_symmetric_engine_matches_eigh_reconstruction():
    L = combinatorial(20, 5)
    w, V = np.linalg.eigh(L.matrix)
    w = np.where(w < 1e-12, 0.0, w)
    for alpha in (0.3, 0.5, 0.9):
        direct = (V * w**alpha) @ V.T
        r = fractional_power_symmetric(L, alpha)
        assert np.abs(r.operator.matrix - direct).max() < 1e-10


def test_general_engine_matches_symmetric_engine():
    L = combinatorial(18, 7)
    for alpha in (0.25, 0.5, 0.75):
        sym = fractional_power_symmetric(L, alpha).operator.matrix
        gen = fractional_power_general(L.matrix, alpha).operator.matrix
        assert np.abs(gen - sym).max() < 1e-10


def test_general_engine_matches_scipy_on_digraph():
    # shifted so no eigenvalue sits on the closed negative real axis
    g = cycle_graph(9, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    M = L + 0.3 * np.eye(9)
    for alpha in (0.4, 0.7):
        ours = fractional_power_general(M, alpha).operator.matrix
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
    assert np.abs(r.operator.matrix.sum(axis=1)).max() < 1e-10


def test_semigroup_property():
    L = combinatorial(12, 9)
    a = fractional_power_symmetric(L, 0.3).operator.matrix
    b = fractional_power_symmetric(L, 0.4).operator.matrix
    c = fractional_power_symmetric(L, 0.7).operator.matrix
    assert np.abs(a @ b - c).max() < 1e-10


def test_spectral_data_reuse():
    L = combinatorial(14, 4)
    data = symmetric_spectral_data(L)
    r1 = fractional_power_symmetric(L, 0.6, data=data)
    r2 = fractional_power_symmetric(L, 0.6)
    assert np.abs(r1.operator.matrix - r2.operator.matrix).max() == 0.0


def test_series_error_within_reported_remainder():
    L = combinatorial(10, 3)
    exact = fractional_power_symmetric(L, 0.5).operator.matrix
    approx = fractional_power_series(L, 0.5, terms=4000)
    err = np.abs(approx.operator.matrix - exact).max()
    assert err <= approx.remainder + 1e-13
    # zero eigenvalue sits on the series boundary: tail decays like k**-alpha
    assert approx.remainder < 0.05


def test_series_remainder_shrinks_with_terms():
    L = combinatorial(10, 3)
    r1 = fractional_power_series(L, 0.5, terms=200)
    r2 = fractional_power_series(L, 0.5, terms=2000)
    assert r2.remainder < r1.remainder


def test_series_rejects_non_laplacian():
    M = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        fractional_power_series(M, 0.5, terms=10)


def test_binomial_coefficients_closed_form():
    got = binomial_coefficients(0.5, 5)
    want = np.array([1.0, 0.5, -0.125, 0.0625, -0.0390625])
    assert np.allclose(got, want, atol=1e-15)


def test_exp_fractional_matches_expm():
    L = combinatorial(16, 6)
    la = fractional_power_symmetric(L, 0.5).operator.matrix
    for t in (0.1, 1.0, 10.0):
        ours = exp_fractional_symmetric(L, 0.5, t).matrix
        ref = expm(-t * la)
        assert np.abs(ours - ref).max() < 1e-12


def test_matrix_exponential_general():
    g = cycle_graph(11, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    ours = matrix_exponential(L, 2.5).matrix
    assert np.abs(ours - expm(-2.5 * L)).max() < 1e-12


def test_verify_m_matrix_reports():
    L = combinatorial(20, 8)
    rep = verify_m_matrix(fractional_power_symmetric(L, 0.5).operator.matrix)
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
    A = fractional_power_symmetric(L, alpha).operator.matrix
    assert np.abs(A.sum(axis=1)).max() < 1e-9
    off = A - np.diag(np.diag(A))
    assert off.max() <= 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0.1, 0.95))
def test_eigenvalues_map_to_alpha_power(seed, alpha):
    L = combinatorial(10, seed)
    w = np.linalg.eigvalsh(L.matrix)
    r = fractional_power_symmetric(L, alpha)
    wa = np.linalg.eigvalsh(r.operator.matrix)
    want = np.where(w < 1e-12, 0.0, w) ** alpha
    assert np.abs(np.sort(wa) - np.sort(want)).max() < 1e-8


def union_find_labels(lam, zero_mask, separation):
    """Pairwise union-find reference for the eigenvalue clustering."""
    idx = [int(i) for i in np.flatnonzero(~zero_mask)]
    parent = {i: i for i in idx}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            if abs(lam[i] - lam[j]) < separation * max(1.0, abs(lam[i]),
                                                       abs(lam[j])):
                parent[find(i)] = find(j)
    labels = np.zeros(lam.shape[0], dtype=int)
    seen = {}
    for i in idx:
        labels[i] = seen.setdefault(find(i), len(seen) + 1)
    return labels


def random_digraph_laplacian(n, seed, degree=3.0):
    rng = np.random.default_rng(seed)
    W = (rng.random((n, n)) < degree / n) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(W, 0.0)
    return np.diag(W.sum(axis=1)) - W


def schur_zero_mask(lam):
    return np.abs(lam) <= lam.shape[0] * np.finfo(float).eps * np.abs(lam).max()


def test_cluster_labels_match_union_find_on_chained_spectra():
    rng = np.random.default_rng(11)
    for trial in range(6):
        # a few chains of points spaced just inside the chaining threshold,
        # plus scattered points and exact zeros, in random order
        pts = [rng.uniform(0, 8) + 1j * rng.uniform(-3, 3)
               for _ in range(rng.integers(5, 40))]
        for _ in range(3):
            z = rng.uniform(0, 8) + 1j * rng.uniform(-3, 3)
            for _ in range(rng.integers(2, 8)):
                pts.append(z)
                z = z + 0.09 * max(1.0, abs(z)) * np.exp(2j * np.pi
                                                         * rng.random())
        pts += [0.0] * int(rng.integers(0, 4))
        lam = rng.permutation(np.array(pts, dtype=complex))
        zero_mask = lam == 0
        for separation in (0.1, 0.03):
            assert np.array_equal(_cluster_labels(lam, zero_mask, separation),
                                  union_find_labels(lam, zero_mask, separation))


def test_cluster_labels_match_union_find_on_digraph_spectrum():
    lam = schur_spectral_data(random_digraph_laplacian(500, 5)).eigenvalues
    zero_mask = schur_zero_mask(lam)
    assert 0 < zero_mask.sum() < lam.shape[0]
    for separation in (0.1, 0.01):
        assert np.array_equal(_cluster_labels(lam, zero_mask, separation),
                              union_find_labels(lam, zero_mask, separation))


def test_cluster_labels_edge_cases():
    lam = np.zeros(4, dtype=complex)
    assert np.array_equal(_cluster_labels(lam, np.ones(4, bool), 0.1),
                          np.zeros(4, dtype=int))
    lam = np.array([0.0, 2.0 + 1.0j, 0.0])
    assert np.array_equal(_cluster_labels(lam, lam == 0, 0.1), [0, 1, 0])
    # 1 and 1 + x chain at separation 0.1 exactly when x < 1/9
    for x, want in ((0.111, [1, 1]), (0.1112, [1, 2])):
        lam = np.array([1.0, 1.0 + x], dtype=complex)
        assert np.array_equal(_cluster_labels(lam, lam == 0, 0.1), want)


def reorder_with_copies(T, Q, labels):
    """Selection pass in which every ztrexc call copies T and Q."""
    order = list(dict.fromkeys(int(x) for x in labels))
    if 0 in order:
        order.remove(0)
        order.insert(0, 0)
    work = [int(x) for x in labels]
    pos = 0
    for lab in order:
        for _ in range(work.count(lab)):
            j = work.index(lab, pos)
            if j != pos:
                T, Q, info = lapack.ztrexc(T, Q, j + 1, pos + 1)
                assert info == 0
                work.insert(pos, work.pop(j))
            pos += 1
    return T, Q, work


def test_reorder_schur_matches_copying_reference():
    for n, seed, separation in ((80, 3, 0.01), (200, 4, 0.1)):
        A = random_digraph_laplacian(n, seed)
        data = schur_spectral_data(A)
        T0, Q0 = data.triangular.copy(), data.basis.copy()
        labels = _cluster_labels(data.eigenvalues,
                                 schur_zero_mask(data.eigenvalues), separation)
        assert labels.max() > 1 and (labels == 0).any()
        T, Q, blocks = _reorder_schur(data.triangular, data.basis, labels)
        Tr, Qr, work = reorder_with_copies(T0, Q0, labels)
        assert np.array_equal(T, Tr) and np.array_equal(Q, Qr)
        assert np.array_equal(data.triangular, T0)
        assert np.array_equal(data.basis, Q0)
        assert blocks[0][2] == 0
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == n
        for s0, s1, lab in blocks:
            assert work[s0:s1] == [lab] * (s1 - s0)
        assert len({b[2] for b in blocks}) == len(blocks)
        err = np.abs(Q @ T @ Q.conj().T - A).max()
        assert err <= 1e-12 * np.abs(A).max()
