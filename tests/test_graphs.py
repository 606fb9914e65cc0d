import dataclasses

import numpy as np
import pytest

from fraclap.errors import GraphFormatError
from fraclap.generators import (cycle_graph, grid_graph, path_graph,
                                random_connected_graph,
                                random_geometric_graph)
from fraclap.graphs import (Graph, LaplacianKind, build_laplacian,
                            load_edge_list, pattern_distances)


def test_graph_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        Graph(n=2, directed=True, edges=((0, 0, 1.0),))


def test_graph_rejects_duplicate_arc():
    with pytest.raises(GraphFormatError):
        Graph(n=2, directed=True, edges=((0, 1, 1.0), (0, 1, 2.0)))


def test_graph_rejects_asymmetric_undirected():
    with pytest.raises(GraphFormatError):
        Graph(n=2, directed=False, edges=((0, 1, 1.0),))


@pytest.mark.parametrize("n, edges, message", [
    (0, (), "at least one node"),
    (2, ((0, 2, 1.0),), r"arc \(0, 2\) out of range for n=2"),
    (2, ((0, 1, 0.0),), r"arc \(0, 1\) has nonpositive weight 0.0"),
])
def test_graph_rejects_no_nodes_bad_ids_and_nonpositive_weights(n, edges,
                                                                message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(n=n, directed=True, edges=edges)


def test_load_edge_list_roundtrip(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n0 1\n1 2\n2 0\n")
    g = load_edge_list(p)
    assert g.directed and g.n == 3 and len(g.edges) == 3


def test_load_edge_list_force_undirected(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = load_edge_list(p, force_undirected=True)
    assert not g.directed
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (1, 0), (1, 2), (2, 1)}
    # closed by the generators' rule: forward arcs, then their reverses
    assert g == path_graph(3)


def test_load_edge_list_one_based(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n")
    g = load_edge_list(p, one_based=True)
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (1, 2)}
    # ids are remapped in sorted order, so the flag only rejects an id of 0
    assert load_edge_list(p) == g


def test_combinatorial_laplacian_row_sums():
    g = random_connected_graph(40, seed=3)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL).matrix
    assert np.allclose(L, L.T)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    assert (np.diag(L) > 0).all()


def test_directed_out_laplacian_row_sums():
    g = cycle_graph(7, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT).matrix
    assert np.abs(L.sum(axis=1)).max() == 0.0
    assert np.allclose(np.diag(L), 1.0)


def test_kind_that_is_not_a_laplacian_kind_is_refused():
    # a kind's value is not the kind: without the refusal the string
    # would fall through to the last branch and build another Laplacian
    for g in (path_graph(4), path_graph(4, directed=True)):
        with pytest.raises(ValueError, match="unhandled kind 'undirected'"):
            build_laplacian(g, "undirected")


def test_kinds_the_graph_does_not_support_are_refused():
    g = path_graph(4, directed=True)                  # node 3 dangles
    with pytest.raises(ValueError, match="requires an undirected graph"):
        build_laplacian(g, LaplacianKind.COMBINATORIAL)
    with pytest.raises(ValueError, match="node 3 has zero out-degree"):
        build_laplacian(g, LaplacianKind.DIRECTED_OUT_NORMALIZED)


def test_symmetric_normalized_spectrum_bounded():
    g = grid_graph(3, 4)                              # bipartite: max is 2
    L = build_laplacian(g, LaplacianKind.SYMMETRIC_NORMALIZED).matrix
    w = np.linalg.eigvalsh(L)
    assert w.min() > -1e-12 and w.max() <= 2.0 + 1e-12


def test_dangling_fixup_pagerank_rows():
    g = path_graph(4, directed=True)                  # node 3 dangles
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT_NORMALIZED,
                        dangling_fixup=True)
    row = L.matrix[3]
    # uniform jump row: L = I - W/d with W_3j = 1/n
    expect = np.full(4, -0.25)
    expect[3] = 0.75
    assert np.allclose(row, expect)
    # the in-degree kind fixes the column of node 0, which has no in-arcs
    L = build_laplacian(g, LaplacianKind.DIRECTED_IN, dangling_fixup=True)
    assert np.allclose(L.matrix[:, 0], np.roll(expect, 1))


def test_grid_graph_shape():
    g = grid_graph(4, 5)
    assert g.n == 20
    d = g.weight_matrix.sum(axis=1)
    assert d.min() == 2 and d.max() == 4


def test_generators_connected():
    for seed in range(4):
        g = random_connected_graph(30, seed=seed)
        assert np.isfinite(pattern_distances(g.weight_matrix,
                                             directed=g.directed)).all()


def test_hop_distances_are_the_undirected_pattern_distances():
    for g, kind in [(random_geometric_graph(80, 0.2, seed=6),
                     LaplacianKind.COMBINATORIAL),
                    (grid_graph(9, 7), LaplacianKind.COMBINATORIAL),
                    (path_graph(6, directed=True), LaplacianKind.DIRECTED_OUT)]:
        op = build_laplacian(g, kind)
        want = pattern_distances(op.matrix, directed=False)
        assert np.array_equal(op.hop_distances, want)
        assert op.hop_distances is op.hop_distances
    # the directed path is reachable both ways only when symmetrized
    assert np.isfinite(op.hop_distances).all()


def test_hop_distances_are_read_only():
    op = build_laplacian(cycle_graph(10), LaplacianKind.COMBINATORIAL)
    D = op.hop_distances
    assert not D.flags.writeable
    with pytest.raises(ValueError):
        D[0, 5] = 1.0
    assert np.array_equal(op.hop_distances,
                          pattern_distances(op.matrix, directed=False))


def test_replace_gives_a_fresh_distance_cache():
    ring = build_laplacian(cycle_graph(12), LaplacianKind.COMBINATORIAL)
    line = build_laplacian(path_graph(12), LaplacianKind.COMBINATORIAL)
    assert ring.hop_distances[0, 11] == 1.0
    op = dataclasses.replace(ring, matrix=line.matrix)
    assert op.hop_distances is not ring.hop_distances
    assert op.hop_distances[0, 11] == 11.0
    assert np.array_equal(op.hop_distances, line.hop_distances)
    assert ring.hop_distances[0, 11] == 1.0
