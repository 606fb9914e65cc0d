"""Graph container, edge-list loading, and Laplacian construction.

Graphs are loop-free weighted digraphs; undirected graphs are stored as
symmetric arc pairs.  Matrices travel as :class:`DenseOperator`, a
dense numpy array plus the exponent ``alpha`` when it is a fractional
power, with the hop distances of its pattern computed on first use;
:func:`as_matrix` turns an operator or an array_like into the square,
finite array that every numerical routine works on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from .errors import GraphFormatError

@dataclass(frozen=True)
class Graph:
    """Weighted loop-free graph with contiguous 0-based node ids.

    ``edges`` holds arcs ``(src, dst, weight)``.  For undirected graphs
    every edge is stored as two arcs with equal weight.
    """

    n: int
    directed: bool
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphFormatError("graph needs at least one node")
        arcs = {}
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"arc ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (np.isfinite(w) and w > 0):
                raise GraphFormatError(f"arc ({u}, {v}) has nonpositive weight {w}")
            if (u, v) in arcs:
                raise GraphFormatError(f"duplicate arc ({u}, {v})")
            arcs[(u, v)] = w
        if not self.directed:
            for (u, v), w in arcs.items():
                if arcs.get((v, u)) != w:
                    raise GraphFormatError(
                        f"undirected graph needs symmetric arcs; ({u}, {v}) unmatched"
                    )

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        W = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            W[u, v] = w
        return W


class LaplacianKind(enum.Enum):
    COMBINATORIAL = "undirected"
    RANDOM_WALK = "random-walk"
    SYMMETRIC_NORMALIZED = "symmetric-normalized"
    DIRECTED_OUT = "directed-out"
    DIRECTED_IN = "directed-in"
    DIRECTED_OUT_NORMALIZED = "directed-out-normalized"


_UNDIRECTED_KINDS = (
    LaplacianKind.COMBINATORIAL,
    LaplacianKind.RANDOM_WALK,
    LaplacianKind.SYMMETRIC_NORMALIZED,
)


@dataclass(frozen=True)
class DenseOperator:
    """Square dense matrix, with ``alpha`` set when it is ``L**alpha``.

    Fractional powers (the power engines, the binomial series and the
    directed path and cycle closed forms) carry their exponent; every
    other matrix carries ``None``.  Result types with more bookkeeping
    subclass this one, so any of them goes wherever a matrix is taken.

    Operators are treated as immutable: the hop distances of the
    pattern are computed once, on first use, and cached on the
    operator, so ``matrix`` must not be written to after that.
    ``dataclasses.replace`` gives a new operator with a fresh cache.
    """

    matrix: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix))

    @cached_property
    def hop_distances(self) -> np.ndarray:
        """Read-only undirected hop distances of the off-diagonal pattern,
        ``pattern_distances(matrix, directed=False)``, computed once."""
        D = pattern_distances(self.matrix, directed=False)
        D.flags.writeable = False
        return D


def as_matrix(M) -> np.ndarray:
    """The array of a :class:`DenseOperator`, or ``M`` as an array.

    Raises ``ValueError`` unless it is square with finite entries; the
    dtype is kept, so complex input stays complex.
    """
    if isinstance(M, DenseOperator):
        return M.matrix
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def pattern_distances(A, *, directed: bool = True) -> np.ndarray:
    """All-pairs unweighted hop distances on the off-diagonal pattern.

    Parameters
    ----------
    A : DenseOperator or array_like
        Square matrix with finite entries; an arc ``i -> j`` exists
        wherever ``A[i, j] != 0`` for ``i != j``.
    directed : bool, optional
        Respect arc orientation.  With ``False`` the pattern is
        symmetrized.

    Returns
    -------
    numpy.ndarray
        ``(n, n)`` hop counts, ``numpy.inf`` for unreachable pairs.

    Raises
    ------
    ValueError
        Non-square input or non-finite entries.
    """
    pattern = (as_matrix(A) != 0).astype(np.int8)
    np.fill_diagonal(pattern, 0)
    return shortest_path(csr_array(pattern), method="D", directed=directed,
                         unweighted=True)


def _graph(n, arcs, directed=False) -> Graph:
    """The graph on ``n`` nodes with ``arcs`` and, unless ``directed``,
    their reverses after them."""
    if not directed:
        arcs = arcs + [(v, u, w) for u, v, w in arcs]
    return Graph(n=n, directed=directed, edges=tuple(arcs))


def load_edge_list(path, *, one_based=False, force_undirected=False):
    """Read a whitespace-separated edge list.

    Each non-comment line is ``src dst [weight]`` (weight defaults to 1.0).
    Node ids may be arbitrary nonnegative integers and are remapped to
    contiguous 0-based indices in sorted order, so a 1-based file loads
    the same graph with or without ``one_based``, which only rejects an
    id of 0.  With ``force_undirected`` the symmetric closure is stored;
    a reverse arc listed explicitly must carry the same weight.  The
    first fault in file order is reported.
    """
    lines: dict[tuple[int, int], int] = {}
    # one weight per arc, or per unordered pair with force_undirected
    weights: dict[tuple[int, int], float] = {}
    least = 1 if one_based else 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst [weight]', got {len(parts)} fields"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: non-integer node id") from None
            if u < least or v < least:
                raise GraphFormatError(
                    f"{path}:{lineno}: node id below {least} "
                    f"({'one' if one_based else 'zero'}-based input)"
                )
            if u == v:
                raise GraphFormatError(f"{path}:{lineno}: self-loop at node {u}")
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
                if not (np.isfinite(w) and w > 0):
                    raise GraphFormatError(f"{path}:{lineno}: weight must be positive and finite")
            else:
                w = 1.0
            if (u, v) in lines:
                raise GraphFormatError(
                    f"{path}:{lineno}: duplicate edge ({u}, {v}), "
                    f"first seen on line {lines[(u, v)]}"
                )
            key = (min(u, v), max(u, v)) if force_undirected else (u, v)
            # a second arc on a pair is the reverse of the first
            if weights.get(key, w) != w:
                raise GraphFormatError(
                    f"{path}:{lineno}: asymmetric weights for edge {key}, "
                    f"{weights[key]} vs {w} (line {lines[(v, u)]})"
                )
            lines[(u, v)] = lineno
            weights[key] = w
    if not weights:
        raise GraphFormatError(f"{path}: no edges found")

    labels = sorted({u for u, _ in weights} | {v for _, v in weights})
    index = {orig: k for k, orig in enumerate(labels)}
    arcs = [(index[u], index[v], w) for (u, v), w in sorted(weights.items())]
    return _graph(len(labels), arcs, directed=not force_undirected)


def build_laplacian(g: Graph, kind: LaplacianKind, *, dangling_fixup=False) -> DenseOperator:
    """Build the requested Laplacian as a :class:`DenseOperator`.

    ``W`` is the weight matrix of ``g``, transposed for ``DIRECTED_IN``,
    and ``D = diag(d)`` holds its row sums.  ``COMBINATORIAL`` and
    ``DIRECTED_OUT`` are ``D - W``, ``DIRECTED_IN`` is ``(D - W)^T``,
    ``RANDOM_WALK`` and ``DIRECTED_OUT_NORMALIZED`` are ``I - D^-1 W``,
    and ``SYMMETRIC_NORMALIZED`` is ``I - D^-1/2 W D^-1/2``; only these
    three refuse a zero degree.  ``dangling_fixup`` first makes each
    zero row of ``W`` the uniform row 1/n, except for ``COMBINATORIAL``.
    A node whose absolute row or column sum in ``D - W`` (``2 d_i``;
    ``d_j`` plus the in-weight of ``j``) overflows raises ``ValueError``.
    """
    if not isinstance(kind, LaplacianKind):
        raise ValueError(f"unhandled kind {kind!r}")
    if kind in _UNDIRECTED_KINDS and g.directed:
        raise ValueError(f"kind {kind.value!r} requires an undirected graph")
    reverse = kind is LaplacianKind.DIRECTED_IN
    W = g.weight_matrix.T if reverse else g.weight_matrix
    with np.errstate(over="ignore"):
        d = W.sum(axis=1)
        if (dangling_fixup and kind is not LaplacianKind.COMBINATORIAL
                and not d.all()):
            W = W.copy()
            W[d == 0] = 1.0 / g.n
            d = W.sum(axis=1)
        big = ~(np.isfinite(2.0 * d) & np.isfinite(d + W.sum(axis=0)))
    if big.any():
        raise ValueError(f"node {big.argmax()}: its Laplacian row or column "
                         "sum overflows")
    if kind in (LaplacianKind.COMBINATORIAL, LaplacianKind.DIRECTED_OUT,
                LaplacianKind.DIRECTED_IN):
        return DenseOperator(np.diag(d) - (W.T if reverse else W))
    if not d.all():
        raise ValueError(f"node {int(np.flatnonzero(d == 0)[0])} has zero "
                         "out-degree; set dangling_fixup or drop it")
    if kind is LaplacianKind.SYMMETRIC_NORMALIZED:
        s = 1.0 / np.sqrt(d)
        return DenseOperator(np.eye(g.n) - (s[:, None] * W) * s[None, :])
    return DenseOperator(np.eye(g.n) - W / d[:, None])
