"""Random walks driven by fractional Laplacians.

Transition kernels P = I - diag(L^alpha)^-1 L^alpha, their stationary
distributions, discrete and continuous simulation, the closed forms on
directed paths and cycles, absorption statistics, and return-probability
curves.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.special import gammaln, gammasgn

from .errors import ConvergenceError, NumericalError
from .graphs import DenseOperator, as_matrix
from .matfun import (_check_alpha, _check_times, _zero_tolerance,
                     binomial_coefficients, matrix_exponential)


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic jump matrix with the fractional degrees behind it.

    ``absorbing`` lists nodes whose L^alpha row vanishes; their kernel row
    is the corresponding identity row.
    """

    P: np.ndarray
    d_alpha: np.ndarray
    alpha: float
    absorbing: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class TrajectoryResult:
    """Discrete node sequence or continuous distribution snapshots; an
    evolution adds its drift, spectral path and balance residual."""

    times: np.ndarray
    states: np.ndarray
    conservation_drift: float | None = None
    spectrum: str | None = None
    balance_residual: float | None = None


@dataclass(frozen=True)
class AbsorptionResult:
    expectation: float
    n_step: int
    fundamental_expectation: float


@dataclass(frozen=True)
class ReturnProbabilityCurve:
    """``balance_residual`` is None when no stationary law was found."""

    times: np.ndarray
    values: np.ndarray
    spectral_gap: float
    zero_multiplicity: int
    spectrum: str
    balance_residual: float | None


def transition_kernel(lalpha: DenseOperator) -> TransitionKernel:
    """Jump kernel P = I - diag(L^alpha)^-1 L^alpha.

    ``lalpha`` is a :class:`DenseOperator` that carries its ``alpha``: a
    fractional power result, a series approximation or a closed form.  A
    bare array, or an operator without ``alpha``, raises ``ValueError``.
    Rows of L^alpha that vanish entirely (absorbing nodes, e.g. the sink
    of a directed path) become identity rows.  A nonpositive diagonal on a
    structurally nonzero row raises.  Entries in [-1e-12, 0) are clamped
    to 0 and rows renormalized; more negative entries raise.
    """
    if not isinstance(lalpha, DenseOperator) or lalpha.alpha is None:
        raise ValueError("input carries no alpha; build it from a fractional power")
    A = lalpha.matrix
    scale = max(1.0, float(np.abs(A).max()))
    diag = np.diag(A).copy()
    row_mag = np.abs(A).max(axis=1)
    absorbing = row_mag <= 1e-14 * scale
    bad = (~absorbing) & (diag <= 0)
    if np.any(bad):
        node = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"node {node} has nonpositive fractional degree {diag[node]:.3e}"
        )

    P = np.zeros_like(A)
    act = ~absorbing
    P[act, :] = -A[act, :] / diag[act, None]
    P[act, np.flatnonzero(act)] = 0.0
    worst = float(P.min())
    if worst < -1e-12:
        i, j = np.unravel_index(int(np.argmin(P)), P.shape)
        raise NumericalError(
            f"kernel entry ({i}, {j}) = {worst:.3e} below clamp tolerance"
        )
    np.clip(P, 0.0, None, out=P)
    sums = P.sum(axis=1)
    P[act, :] /= sums[act, None]
    P[absorbing, absorbing] = 1.0

    d_alpha = diag.copy()
    d_alpha[absorbing] = 0.0
    return TransitionKernel(P=P, d_alpha=d_alpha, alpha=float(lalpha.alpha),
                            absorbing=tuple(int(i) for i in np.flatnonzero(absorbing)))


def stationary_distribution(kernel: TransitionKernel):
    """pi proportional to the fractional degrees, with its residual.

    Valid for kernels built from symmetric L^alpha; a residual above
    1e-10 (directed or absorbing input) raises.
    """
    total = kernel.d_alpha.sum()
    if total <= 0:
        raise ValueError("fractional degrees do not sum to a positive value")
    pi = kernel.d_alpha / total
    residual = float(np.abs(pi @ kernel.P - pi).max())
    if residual > 1e-10:
        raise NumericalError(
            f"stationarity residual {residual:.3e} above 1e-10; "
            "kernel is not reversible (directed or absorbing input?)"
        )
    return pi, residual


def _check_start(kernel, start):
    start = int(start)
    if not (0 <= start < kernel.n):
        raise ValueError(f"start node {start} out of range")
    return start


_DRAWS = 4096


def simulate_discrete(kernel: TransitionKernel, start: int, steps: int,
                      seed: int) -> TrajectoryResult:
    """Sample one walk by inverse-CDF draws from a PCG64 stream.

    Absorbing states freeze the walk for the remaining steps.  Each
    visited cumulative row is copied once into an ``array("d")`` and
    bisected, so a step makes no numpy call.  Uniforms are drawn in
    chunks of `_DRAWS` (the same doubles as ``steps`` scalar draws), so
    memory does not grow with ``steps`` and an absorbed walk stops
    drawing.
    """
    start = _check_start(kernel, start)
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(kernel.P, axis=1)
    rows = [None] * kernel.n
    absorbing = set(kernel.absorbing)
    last = kernel.n - 1
    states = array("q", [start])
    node = start
    for first in range(0, steps, _DRAWS):
        for u in rng.random(min(_DRAWS, steps - first)).tolist():
            if node in absorbing:
                break
            row = rows[node]
            if row is None:
                row = rows[node] = array("d", cum[node].tobytes())
            node = min(bisect_right(row, u), last)
            states.append(node)
        if node in absorbing:
            break
    states.extend([node] * (steps + 1 - len(states)))
    return TrajectoryResult(times=np.arange(steps + 1),
                            states=np.array(states, dtype=int))


def absorption_time_samples(kernel: TransitionKernel, start: int, runs: int,
                            seed: int) -> np.ndarray:
    """Steps until absorption for ``runs`` independent walks (lockstep).

    Raises :class:`ConvergenceError` if any replica survives 10**6 steps.
    """
    start = _check_start(kernel, start)
    if not kernel.absorbing:
        raise ValueError("kernel has no absorbing state")
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(kernel.P, axis=1)
    is_abs = np.zeros(kernel.n, dtype=bool)
    is_abs[list(kernel.absorbing)] = True

    state = np.full(runs, start, dtype=int)
    steps = np.zeros(runs, dtype=int)
    alive = ~is_abs[state]
    t = 0
    while np.any(alive):
        t += 1
        if t > 1_000_000:
            raise ConvergenceError(f"{int(alive.sum())} walks not absorbed "
                                   "after 1000000 steps")
        u = rng.random(int(alive.sum()))
        rows = cum[state[alive]]
        # counts cum <= u, as simulate_discrete's bisect_right does
        nxt = np.minimum((rows <= u[:, None]).sum(axis=1), kernel.n - 1)
        state[alive] = nxt
        steps[alive] = t
        alive[alive] = ~is_abs[nxt]
    return steps


def _symmetric_form(G, w):
    """``(S, residual)``: the detailed-balance residual
    ``max|B - B^T| / max|B|`` of ``B = diag(w) G`` and, if every weight
    is positive and the residual at most ``n * eps``, the symmetric part
    of ``W^1/2 G W^-1/2`` (else None).  By Bauer-Fike, dropping the
    antisymmetric part moves no eigenvalue by more than its 2-norm."""
    B = w[:, None] * G
    residual = float(np.abs(B - B.T).max() / (np.abs(B).max() or 1.0))
    if not (np.all(w > 0) and residual <= G.shape[0] * np.finfo(float).eps):
        return None, residual
    r = np.sqrt(w)
    S = r[:, None] * G / r
    return (S + S.T) / 2.0, residual


def evolve_continuous(kernel: TransitionKernel, u0, times) -> TrajectoryResult:
    """Heat-semigroup evolution of a probability vector.

    ``u(t) = exp(-t G^T) u0`` for the generator ``G = I - P``.  With no
    absorbing node and ``d_i P_ij = d_j P_ji`` for the fractional degrees
    ``d`` (see :func:`_symmetric_form`), as for any symmetric
    ``L**alpha``, the ``"symmetric"`` path takes one ``eigh`` of
    ``D^1/2 G D^-1/2 = V diag(mu) V^T``; then ``u(t) = r * (V @
    (exp(-t mu) * (V^T @ (u0 / r))))``, ``r = sqrt(d)``, is one product
    per time.  Every other kernel takes the ``"general"`` path, one
    :func:`matrix_exponential` call.  Times must be finite, nonnegative
    and ascending; ``t = 0`` returns ``u0``.  An entry below -1e-10
    raises; smaller negative roundoff is clipped to 0.  A conservation
    drift above 1e-8 raises.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(times)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    if np.ndim(u0) == 0:
        vec = np.zeros(kernel.n)
        vec[_check_start(kernel, u0)] = 1.0
    else:
        vec = np.asarray(u0, dtype=float)
        if vec.shape != (kernel.n,):
            raise ValueError("u0 has the wrong length")
        if vec.min() < -1e-12 or abs(vec.sum() - 1.0) > 1e-8:
            raise ValueError("u0 is not a probability vector")

    G = np.eye(kernel.n) - kernel.P
    S, residual = _symmetric_form(G, kernel.d_alpha)
    if S is None:
        out = matrix_exponential(G.T, times, vec)
    else:
        mu, V = np.linalg.eigh(S)
        r = np.sqrt(kernel.d_alpha)
        coef = V.T @ (vec / r)
        out = np.array([r * (V @ (np.exp(-t * mu) * coef)) if t else vec
                        for t in times])
    low = out.min(axis=1)
    if np.any(low < -1e-10):
        k = int(np.argmax(low < -1e-10))
        raise NumericalError(f"negative mass {low[k]:.3e} at t={times[k]}")
    np.clip(out, 0.0, None, out=out)
    drift = float(np.abs(1.0 - out.sum(axis=1)).max())
    if drift > 1e-8:
        raise NumericalError(f"conservation drift {drift:.3e} above 1e-8")
    return TrajectoryResult(times=times, states=out, conservation_drift=drift,
                            spectrum="general" if S is None else "symmetric",
                            balance_residual=residual)


def path_fractional_entries(n: int, alpha: float) -> DenseOperator:
    """Closed-form (L_out^alpha) of the directed path on n nodes.

    Row h carries (-1)^g binom(alpha, g) at column h+g up to column n-2;
    the last column closes the zero row sum; the sink row is zero.
    """
    if n < 2:
        raise ValueError("path needs n >= 2")
    alpha = _check_alpha(alpha)
    b = binomial_coefficients(alpha, n)
    signed = ((-1.0) ** np.arange(n)) * b
    F = np.zeros((n, n))
    for h in range(n - 1):
        width = (n - 1) - h
        F[h, h:n - 1] = signed[:width]
        F[h, n - 1] = -F[h, h:n - 1].sum()
    return DenseOperator(F, alpha)


def cycle_fractional_entries(n: int, alpha: float) -> DenseOperator:
    """Closed-form (L_out^alpha) of the directed cycle on n nodes.

    Circulant with symbol (1 - exp(-2 pi i l / n))^alpha (zero mode mapped
    to 0); entry (h, k) depends on the gap (k - h) mod n.
    """
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    alpha = _check_alpha(alpha)
    l = np.arange(n)
    symbol = (1.0 - np.exp(-2j * np.pi * l / n)) ** alpha
    symbol[0] = 0.0
    row = np.fft.ifft(symbol)
    resid = float(np.abs(row.imag).max())
    if resid > 1e-10 * max(1.0, float(np.abs(row.real).max())):
        raise NumericalError(f"circulant imaginary residue {resid:.3e}")
    return DenseOperator(row.real[(l - l[:, None]) % n], alpha)


def cycle_entry_limit(alpha: float, gap: int) -> float:
    """n -> infinity limit of a directed-cycle entry at the given gap:
    Gamma(gap - alpha) / (gap! * Gamma(-alpha))."""
    gap = int(gap)
    if gap < 0:
        raise ValueError("gap must be >= 0")
    if gap == 0:
        return 1.0
    sign = gammasgn(gap - alpha) * gammasgn(-alpha)
    mag = math.exp(gammaln(gap - alpha) - gammaln(gap + 1) - gammaln(-alpha))
    return float(sign * mag)


def expected_absorption_steps(n: int, alpha: float) -> AbsorptionResult:
    """Expected steps to absorption from the first node of the directed
    path, summed in closed form and cross-checked (1e-10) against the
    fundamental-matrix solve; ``n_step`` is the ceiling.
    """
    if n < 2:
        raise ValueError("path needs n >= 2")
    alpha = _check_alpha(alpha)
    term = 1.0                        # (-1)^(l-1) binom(-alpha, l-1), l = 1
    total = term
    for l in range(1, n - 1):
        term *= (alpha + l - 1) / l
        total += term

    A = path_fractional_entries(n, alpha).matrix
    block = A[:n - 1, :n - 1]         # I - Q of the absorbing chain
    x = np.linalg.solve(block, np.ones(n - 1))
    fm = float(x[0])
    if abs(total - fm) > 1e-10 * max(1.0, abs(total)):
        raise NumericalError(
            f"absorption cross-check mismatch: series {total!r} vs "
            f"fundamental matrix {fm!r}"
        )
    return AbsorptionResult(expectation=float(total),
                            n_step=int(math.ceil(total)),
                            fundamental_expectation=fm)


def path_transition_asymptotic(alpha: float, gap: int) -> float:
    """Large-gap approximation of the path jump probability:
    Gamma(alpha + 1) sin(pi alpha) / pi * gap^(-alpha-1)."""
    if gap < 1:
        raise ValueError("gap must be >= 1")
    return float(math.gamma(alpha + 1.0) * math.sin(math.pi * alpha) / math.pi
                 * float(gap) ** (-alpha - 1.0))


def _stationary_law(G):
    """``pi`` with ``G^T pi = 0``, ``sum(pi) = 1``, by one LU solve; None
    for complex input or a pivot within ``n * eps`` of singular, as when
    the law is not unique (more than one closed class)."""
    if np.iscomplexobj(G):
        return None
    n = G.shape[0]
    M = G.T.copy()
    M[-1] = 1.0
    lu, piv, info = dgetrf(M)
    pivots = np.abs(np.diag(lu))
    if info != 0 or pivots.min() <= n * np.finfo(float).eps * pivots.max():
        return None
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return dgetrs(lu, piv, rhs)[0]


def return_probability(lbar, times) -> ReturnProbabilityCurve:
    """Average return probability (1/n) sum_i exp(-lambda_i t) of the
    normalized generator G, with the relative spectral gap
    |lambda|_max / |lambda|_min-nonzero and the zero multiplicity.
    When G has a unique stationary law pi > 0 in detailed balance (see
    :func:`_symmetric_form`), as any reversible kernel does, the
    ``"symmetric"`` path takes ``eigvalsh`` of D^1/2 G D^-1/2,
    D = diag(pi); directed, absorbing and disconnected input takes
    ``eigvals`` of G.  Times must be finite and nonnegative."""
    A = as_matrix(lbar)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(times)
    pi = _stationary_law(A)
    S, residual = (None, None) if pi is None else _symmetric_form(A, pi)
    lam = np.linalg.eigvals(A) if S is None else np.linalg.eigvalsh(S)
    ztol = _zero_tolerance(lam)
    zero_mult = int(np.sum(np.abs(lam) <= ztol))
    nonzero = lam[np.abs(lam) > ztol]
    gap = float(np.abs(nonzero).max() / np.abs(nonzero).min()) if nonzero.size else float("nan")

    vals = np.empty(times.shape[0])
    for k, t in enumerate(times):
        z = np.exp(-lam * t).mean()
        if abs(z.imag) > 1e-10 * max(1.0, abs(z.real)):
            raise NumericalError(f"return probability not real at t={t}: {z!r}")
        vals[k] = z.real
    return ReturnProbabilityCurve(
        times=times, values=vals, spectral_gap=gap,
        zero_multiplicity=zero_mult, balance_residual=residual,
        spectrum="general" if S is None else "symmetric")
