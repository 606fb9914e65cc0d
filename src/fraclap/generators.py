"""Seeded graph builders used by the CLI builtins and the test suite."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _graph


def path_graph(n: int, *, directed=False) -> Graph:
    return _graph(n, [(i, i + 1, 1.0) for i in range(n - 1)], directed)


def cycle_graph(n: int, *, directed=False) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return _graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)], directed)


def grid_graph(rows: int, cols: int) -> Graph:
    def node(r, c):
        return r * cols + c

    arcs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                arcs.append((node(r, c), node(r, c + 1), 1.0))
            if r + 1 < rows:
                arcs.append((node(r, c), node(r + 1, c), 1.0))
    return _graph(rows * cols, arcs)


def random_connected_graph(n: int, *, directed=False, seed=0) -> Graph:
    """Random spanning tree plus up to ``n + 1`` extra arcs (``2 n`` in
    all, mean degree 4 when undirected); connected by construction
    (weakly connected when directed).  Weights uniform in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        a, b = (u, v) if (not directed or rng.random() < 0.5) else (v, u)
        pairs.add((a, b))

    target = n + 1
    guard = 0
    while target > 0 and guard < 50 * n:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        guard += 1
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in pairs:
            continue
        pairs.add(key)
        target -= 1

    arcs = [(u, v, float(rng.uniform(0.5, 1.5))) for u, v in sorted(pairs)]
    return _graph(n, arcs, directed)


def random_geometric_graph(n: int, radius: float, *, seed=0) -> Graph:
    """Unit-square geometric graph; disconnected components are stitched
    through their closest cross-pairs so the result is connected."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    adj = d2 <= radius * radius

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u, v]:
                pairs.append((u, v))
                parent[find(u)] = find(v)

    while True:
        roots = {find(x) for x in range(n)}
        if len(roots) == 1:
            break
        comp = np.array([find(x) for x in range(n)])
        first = min(roots)
        inside = comp == first
        sub = d2[np.ix_(inside, ~inside)]
        i, j = np.unravel_index(np.argmin(sub), sub.shape)
        u = int(np.flatnonzero(inside)[i])
        v = int(np.flatnonzero(~inside)[j])
        pairs.append((min(u, v), max(u, v)))
        parent[find(u)] = find(v)

    return _graph(n, [(u, v, 1.0) for u, v in sorted(pairs)])
