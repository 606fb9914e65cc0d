"""Second-order multi-agent consensus driven by fractional coupling.

Vehicles with positions ``x`` and velocities ``v`` track a target
trajectory ``(x*, v*)`` under the linear protocol

    ``dv/dt = d2x*/dt2 + K (x* - x) + gamma K (v* - v)``

with coupling ``K = beta I + L^alpha`` built from the communication
graph Laplacian.  The deviation ``(x* - x, v* - v)`` then obeys the
block system ``[[0, I], [-K, -gamma K]]``, and a damping threshold on
``gamma`` computed from the spectrum of ``-K`` guarantees convergence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericalError
from .generators import cycle_graph
from .graphs import Graph, LaplacianKind, as_matrix, build_laplacian
from .matfun import fractional_power


@dataclass(frozen=True)
class TargetTrajectory:
    """Reference trajectory with consistent derivatives.

    Attributes
    ----------
    position, velocity : callable
        Maps from time to an ``(n, m)`` array.  ``velocity`` must be the
        time derivative of ``position``; this is spot-checked by finite
        differences before a simulation runs.
    """

    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]


def static_formation(points) -> TargetTrajectory:
    """Constant target positions with zero velocity."""
    pts = np.array(points, dtype=float)
    zero = np.zeros_like(pts)
    return TargetTrajectory(position=lambda t: pts, velocity=lambda t: zero)


@dataclass(frozen=True)
class GammaBound:
    """Damping threshold report.

    The threshold evaluates, for every eigenvalue ``lam`` of the
    coupling spectrum shifted as ``nu = -beta - lam``, the radicand
    ``arctan(Re(nu) / Im(nu))`` and keeps ``sqrt(2) / sqrt(radicand)``
    over the indices where it is defined and positive.  Real ``nu``
    (the arctan limit is taken as 0) and nonpositive radicands are
    excluded; the real ones are reported.

    Attributes
    ----------
    bound : float
        Max over valid indices; damping must exceed this.
    excluded_real : tuple of int
        Indices dropped because ``Im(nu) = 0``.
    """

    bound: float
    excluded_real: tuple


def gamma_lower_bound(lalpha, beta: float) -> GammaBound:
    """Damping threshold from the spectrum of the coupling operator.

    Parameters
    ----------
    lalpha : DenseOperator or array_like
        Fractional Laplacian power, square with finite entries.
    beta : float
        Positive position-coupling gain.

    Returns
    -------
    GammaBound

    Raises
    ------
    ValueError
        Non-square or non-finite input, or every index excluded (real
        spectra leave the bound undefined; pick the damping explicitly in
        that case).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    lam = np.linalg.eigvals(as_matrix(lalpha).astype(float))
    nu = -beta - lam
    scale = np.maximum(1.0, np.abs(nu))
    real_mask = np.abs(nu.imag) <= 1e-12 * scale
    radicands = np.full(nu.shape[0], np.nan)
    nonzero = ~real_mask
    radicands[nonzero] = np.arctan(nu.real[nonzero] / nu.imag[nonzero])
    valid = nonzero & (radicands > 0.0)
    if not valid.any():
        raise ValueError("damping bound undefined: every index excluded")
    bound = float(np.sqrt(2.0 / radicands[valid]).max())
    return GammaBound(bound=bound,
                      excluded_real=tuple(np.flatnonzero(real_mask).tolist()))


@dataclass(frozen=True)
class ConsensusConfig:
    """Configuration of one consensus run.

    `coupling` and `damping` are derived from the fields on first use;
    `dataclasses.replace` gives a new instance that derives them afresh.

    Attributes
    ----------
    graph : Graph
        Communication topology; its out-degree Laplacian ``L`` is used.
    alpha : float
        Fractional exponent of the Laplacian coupling.
    beta : float
        Positive position gain; the coupling is ``beta I + L^alpha``.
    target : TargetTrajectory
        Reference trajectory.
    x0, v0 : numpy.ndarray
        Initial ``(n, m)`` positions and velocities.
    horizon : float
        Final time.
    gamma : float or None
        Explicit damping; when None it is the spectral threshold plus
        ``gamma_margin``.
    gamma_margin : float
        Margin added to the computed threshold.
    step : float or None
        Integrator step, default ``horizon / 5000``; must be positive.
        The horizon is split into ``ceil(horizon / step)`` equal steps,
        at most ``sys.maxsize``.
    output_stride : int or None
        Record every this many steps, default about 500 snapshots; must
        be an integer >= 1, not a bool.
    """

    graph: Graph
    alpha: float
    beta: float
    target: TargetTrajectory
    x0: np.ndarray
    v0: np.ndarray
    horizon: float
    gamma: float | None = None
    gamma_margin: float = 1.0
    step: float | None = None
    output_stride: int | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        if x0.ndim != 2 or x0.shape[0] != self.graph.n:
            raise ValueError("x0 must be (n, m) with one row per node")
        if v0.shape != x0.shape:
            raise ValueError("v0 must match the shape of x0")
        for name, value in (("x0", x0), ("v0", v0)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "v0", v0)
        for name in ("beta", "horizon", "gamma", "step"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        if 1e-4 * self.horizon == 0.0:
            raise ValueError(f"horizon {self.horizon} is too short for the "
                             "target check's step 1e-4 * horizon")
        if (self.step is not None
                and not self.horizon / self.step <= sys.maxsize):
            raise ValueError(f"step {self.step} splits horizon {self.horizon} "
                             "into more than sys.maxsize steps")
        if not math.isfinite(self.gamma_margin):
            raise ValueError(
                f"gamma_margin must be finite, got {self.gamma_margin}")
        # bool subclasses int, but True is not a stride
        if self.output_stride is not None and (
                isinstance(self.output_stride, bool) or not (
                    isinstance(self.output_stride, (int, np.integer))
                    and self.output_stride >= 1)):
            raise ValueError("output_stride must be an integer >= 1")

    @cached_property
    def coupling(self) -> np.ndarray:
        """``L^alpha`` of the graph's out-degree Laplacian."""
        L = build_laplacian(self.graph, LaplacianKind.DIRECTED_OUT)
        return fractional_power(L, self.alpha).matrix

    @cached_property
    def damping(self) -> float:
        """``gamma``, or the threshold of `coupling` plus ``gamma_margin``."""
        if self.gamma is not None:
            return self.gamma
        return gamma_lower_bound(self.coupling, self.beta).bound \
            + self.gamma_margin


@dataclass(frozen=True)
class ConsensusState:
    """Snapshot of a consensus simulation.

    ``error`` is the Frobenius distance of the stacked deviation
    ``sqrt(|x - x*|^2 + |v - v*|^2)``; ``position_error`` keeps the
    position part only.
    """

    time: float
    positions: np.ndarray
    velocities: np.ndarray
    error: float
    position_error: float


def _errors(e: np.ndarray, n: int) -> tuple[float, float]:
    pe = float(np.linalg.norm(e[:n]))
    return math.hypot(pe, float(np.linalg.norm(e[n:]))), pe


def _check_target(cfg: ConsensusConfig):
    h = 1e-4 * cfg.horizon
    vscale = 1.0
    worst = 0.0
    for t in np.linspace(h, cfg.horizon - h, 7):
        fd = (np.asarray(cfg.target.position(t + h))
              - np.asarray(cfg.target.position(t - h))) / (2.0 * h)
        v = np.asarray(cfg.target.velocity(t))
        if not (np.all(np.isfinite(fd)) and np.all(np.isfinite(v))):
            raise ValueError(f"target is not finite near t={t:g}")
        worst = max(worst, float(np.abs(fd - v).max()))
        vscale = max(vscale, float(np.abs(v).max()))
    if worst > 1e-6 * vscale:
        raise ValueError(
            f"target velocity disagrees with d(position)/dt by {worst:.3e}")


def _rk4_increment(E: np.ndarray, steps: int) -> np.ndarray:
    """``(I + E)**steps - I`` by binary powering, overwriting ``E``.

    ``E = R(hA) - I`` is the one-step increment.  Squaring and combining
    act on increments (``P -> 2P + P@P``, ``D -> D + P + P@D``), so the
    identity is never added and subtracted again; raising ``I + E``
    itself loses digits to that cancellation.
    """
    P, D, buf = E, None, np.empty_like(E)
    while True:
        if steps & 1:
            if D is None:
                D = P.copy()
            else:
                np.matmul(P, D, out=buf)
                buf += P
                D += buf
        steps >>= 1
        if not steps:
            return D
        np.matmul(P, P, out=buf)
        P *= 2.0
        P += buf


# an overflow makes the deviation non-finite, which the blow-up guard reports
@np.errstate(over="ignore", invalid="ignore")
def simulate_consensus(cfg: ConsensusConfig) -> list[ConsensusState]:
    """Integrate the consensus dynamics with fixed-step classical RK4.

    The deviation ``e = (x* - x, v* - v)`` obeys the linear,
    time-invariant ``e' = A e`` with ``A = [[0, I], [-K, -gamma K]]``,
    so one RK4 step is the matrix ``R(hA)``, ``R`` the RK4 stability
    polynomial, with ``K`` and ``gamma`` read from ``cfg.coupling`` and
    ``cfg.damping``.  Its ``output_stride``-th power is formed once by
    binary powering and applied between outputs; the target is evaluated
    only at output times, and the blow-up guard runs at every output,
    including the final time.

    Parameters
    ----------
    cfg : ConsensusConfig
        Run configuration.

    Returns
    -------
    list of ConsensusState
        Snapshots every ``output_stride`` steps plus the final one, which
        is stamped ``cfg.horizon``.

    Raises
    ------
    NumericalError
        Deviation growth beyond 1e6 times the initial one at an output
        (step too large for the spectrum).
    """
    _check_target(cfg)
    n = cfg.graph.n
    K = cfg.beta * np.eye(n) + cfg.coupling
    step_request = cfg.step if cfg.step is not None else cfg.horizon / 5000.0
    nsteps = max(1, int(math.ceil(cfg.horizon / step_request - 1e-9)))
    dt = cfg.horizon / nsteps
    stride = cfg.output_stride if cfg.output_stride is not None \
        else max(1, nsteps // 500)

    # E = R(hA) - I = hA (I + hA/2 (I + hA/3 (I + hA/4))) by Horner's rule
    hA = np.zeros((2 * n, 2 * n))
    hA[:n, n:] = dt * np.eye(n)
    hA[n:, :n] = -dt * K
    hA[n:, n:] = -dt * cfg.damping * K
    E = hA / 4.0
    for c in (3.0, 2.0, 1.0):
        E.flat[::2 * n + 1] += 1.0
        E = hA @ E
        E /= c
    del hA
    nout, rem = divmod(nsteps, stride)
    blocks = []
    if nout:
        blocks += [(stride, _rk4_increment(E.copy() if rem else E, stride))] \
            * nout
    if rem:
        blocks.append((rem, _rk4_increment(E, rem)))
    del E

    target = cfg.target
    xs = np.asarray(target.position(0.0))
    vs = np.asarray(target.velocity(0.0))
    e = np.concatenate([xs - cfg.x0, vs - cfg.v0])
    err0, pe0 = _errors(e, n)
    states = [ConsensusState(time=0.0, positions=cfg.x0.copy(),
                             velocities=cfg.v0.copy(), error=err0,
                             position_error=pe0)]
    guard = 1e6 * (err0 + 1.0)
    k = 0
    for steps, D in blocks:
        e += D @ e
        k += steps
        tn = cfg.horizon if k == nsteps else k * dt
        err, pe = _errors(e, n)
        if not math.isfinite(err) or err > guard:
            raise NumericalError(
                f"deviation blew up to {err:.3e} at t={tn:.6f}; "
                "reduce the integrator step")
        states.append(ConsensusState(
            time=tn, positions=np.asarray(target.position(tn)) - e[:n],
            velocities=np.asarray(target.velocity(tn)) - e[n:], error=err,
            position_error=pe))
    return states


def consensus_error_curve(states) -> np.ndarray:
    """Stack states into rows of (time, error, position error)."""
    if not states:
        raise ValueError("empty state list")
    return np.array([[s.time, s.error, s.position_error] for s in states])


def _relocation_geometry(n: int, center: np.ndarray):
    """Start on the unit circle, unit tangential velocities, and the
    static target: the same circle moved to ``center``."""
    angles = 2.0 * math.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    v0 = np.column_stack([-np.sin(angles), np.cos(angles)])
    return ring, v0, static_formation(center + ring)


def circle_relocation_config(n: int = 120, alpha: float = 0.5,
                             beta: float = 0.5, horizon: float = 5.0, *,
                             gamma: float | None = None,
                             step: float | None = None,
                             output_stride: int | None = None
                             ) -> ConsensusConfig:
    """Benchmark run: a rotating ring relocates to a shifted circle.

    Agents start uniformly on the unit circle moving tangentially at
    unit speed; the target is the same circle translated by ``(3, 3)``,
    static with zero terminal velocity.  Communication is a directed
    cycle, and without an explicit `gamma` the damping is the spectral
    threshold plus 1.  The initial position error is ``sqrt(18 n)``.
    """
    x0, v0, target = _relocation_geometry(n, np.array([3.0, 3.0]))
    return ConsensusConfig(graph=cycle_graph(n, directed=True), alpha=alpha,
                           beta=beta, target=target, x0=x0, v0=v0,
                           horizon=horizon, gamma=gamma, step=step,
                           output_stride=output_stride)
