"""Seeded input generators for the benchmark.

Everything here uses numpy and scipy only, so the inputs a workload hands
to ``fraclap`` do not depend on ``fraclap``'s own generators.  An edge
list is a list of ``(src, dst, weight)`` arcs with 0-based node ids.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree


def random_digraph(rng, n, avg_degree=3.0):
    """Weakly connected weighted digraph: a random tree with each edge
    oriented at random, plus uniformly drawn extra arcs up to
    ``avg_degree * n`` arcs in all.  Weights are uniform in [0.5, 1.5)."""
    arcs = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    target = int(round(avg_degree * n))
    while len(arcs) < target:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            arcs.add((u, v))
    arcs = sorted(arcs)
    weights = rng.uniform(0.5, 1.5, size=len(arcs))
    return [(u, v, float(w)) for (u, v), w in zip(arcs, weights)]


def random_undirected(rng, n, avg_degree=4.0):
    """Connected weighted undirected graph as one arc per edge (u < v)."""
    edges = {}
    for u, v, w in random_digraph(rng, n, avg_degree / 2.0):
        edges.setdefault((min(u, v), max(u, v)), w)
    return [(u, v, w) for (u, v), w in sorted(edges.items())]


def geometric_graph(rng, n, radius):
    """Unit-square random geometric graph with unit weights, made
    connected by adding the edges of a Euclidean minimum spanning tree.
    One arc per edge (u < v)."""
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    close = np.triu(dist <= radius, k=1)
    tree = minimum_spanning_tree(np.triu(dist, k=1)).toarray() > 0
    u, v = np.nonzero(close | tree)
    return [(int(a), int(b), 1.0) for a, b in zip(u, v)]


def grid_graph(rng, rows, cols):
    """``rows x cols`` grid with weights uniform in [0.5, 1.5); one arc
    per edge (u < v)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                edges.append((k, k + 1))
            if r + 1 < rows:
                edges.append((k, k + cols))
    weights = rng.uniform(0.5, 1.5, size=len(edges))
    return [(u, v, float(w)) for (u, v), w in zip(edges, weights)]


def write_edge_list(path, arcs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {v} {w!r}\n" for u, v, w in arcs)


def weight_matrix(n, arcs, *, symmetric=False):
    W = np.zeros((n, n))
    for u, v, w in arcs:
        W[u, v] = w
        if symmetric:
            W[v, u] = w
    return W


def laplacian(W):
    """Out-degree Laplacian ``diag(W 1) - W``; the combinatorial one
    when ``W`` is symmetric."""
    return np.diag(W.sum(axis=1)) - W
