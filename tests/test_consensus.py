from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from fraclap.consensus import (ConsensusConfig, GammaBound, TargetTrajectory,
                               circle_relocation_config, consensus_error_curve, gamma_lower_bound,
                               simulate_consensus, static_formation)
from fraclap.errors import NumericalError
from fraclap.generators import cycle_graph, random_connected_graph
from fraclap.graphs import LaplacianKind, build_laplacian
from fraclap.matfun import fractional_power_general

# damping bounds on the directed 120-cycle with beta = 0.5, frozen from an
# independent eigenvalue-by-eigenvalue evaluation
BOUND_ORACLE = {
    0.1: 1.1634933452578224,
    0.5: 1.3004953337690166,
    0.8: 1.4288283425624368,
    1.0: 1.5420483841423216,
}

# final position errors of the circle relocation run at gamma = bound + 1,
# frozen from a matrix-exponential propagation of the error system
FINAL_ORACLE = {
    0.1: 0.874801339648,
    0.5: 2.157743088605,
    0.8: 3.330359015166,
    1.0: 4.262023109944,
}


def cycle_lalpha(alpha, n=120):
    g = cycle_graph(n, directed=True)
    L = build_laplacian(g, LaplacianKind.DIRECTED_OUT)
    return fractional_power_general(L.matrix, alpha).matrix.real


def test_gamma_bound_frozen_oracles():
    for alpha, want in BOUND_ORACLE.items():
        got = gamma_lower_bound(cycle_lalpha(alpha), 0.5)
        assert abs(got.bound - want) < 1e-8


def test_gamma_bound_alpha_one_analytic():
    # continuum bound sqrt(2 / atan(sqrt(5)/2)); the 120-point grid sits
    # just below the supremum over the full circle
    continuum = np.sqrt(2.0 / np.arctan(np.sqrt(5.0) / 2.0))
    got = gamma_lower_bound(cycle_lalpha(1.0), 0.5).bound
    assert got <= continuum + 1e-12
    assert abs(got - continuum) < 2e-3


def test_gamma_bound_excludes_real_spectrum():
    # zero eigenvalue gives a purely real nu = -beta, always excluded
    rep = gamma_lower_bound(cycle_lalpha(0.5), 0.5)
    assert len(rep.excluded_real) >= 1


def test_gamma_bound_undefined_for_symmetric_coupling():
    g = random_connected_graph(20, seed=0)
    L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    from fraclap.matfun import fractional_power_symmetric
    la = fractional_power_symmetric(L, 0.5).matrix
    with pytest.raises(ValueError):
        gamma_lower_bound(la, 0.5)


def test_equilibrium_stays_put():
    cfg = circle_relocation_config(n=24, horizon=1.0)
    target = cfg.target
    eq = ConsensusConfig(graph=cfg.graph, alpha=cfg.alpha, beta=cfg.beta,
                         target=target, x0=target.position(0.0),
                         v0=target.velocity(0.0), horizon=1.0, gamma=2.0)
    states = simulate_consensus(eq)
    assert states[-1].error < 1e-8


def test_translation_invariance():
    shift = np.array([17.0, -4.0])
    a = circle_relocation_config(n=16, horizon=2.0, gamma=2.0)
    pts = a.target.position(0.0)
    b = ConsensusConfig(graph=a.graph, alpha=a.alpha, beta=a.beta,
                        target=static_formation(pts + shift),
                        x0=a.x0 + shift, v0=a.v0, horizon=2.0, gamma=2.0)
    sa = simulate_consensus(a)
    sb = simulate_consensus(b)
    for u, v in zip(sa, sb):
        assert abs(u.error - v.error) < 1e-10
        assert np.abs(u.positions + shift - v.positions).max() < 1e-9


def test_rk4_step_halving_converges():
    base = circle_relocation_config(n=20, horizon=2.0, gamma=2.5)
    coarse = replace(base, step=2.0 / 500)
    fine = replace(base, step=2.0 / 1000)
    e1 = simulate_consensus(coarse)[-1].error
    e2 = simulate_consensus(fine)[-1].error
    assert abs(e1 - e2) < 1e-6


def test_simulation_matches_matrix_exponential():
    # the deviation system is linear and time invariant; expm is exact
    n, alpha, beta, gamma, T = 12, 0.5, 0.5, 2.0, 3.0
    cfg = circle_relocation_config(n=n, alpha=alpha, beta=beta,
                                   horizon=T, gamma=gamma)
    states = simulate_consensus(cfg)
    K = cycle_lalpha(alpha, n) + beta * np.eye(n)
    A = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-K, -gamma * K]])
    tgt = cfg.target.position(0.0)
    err0 = np.concatenate([cfg.x0 - tgt, cfg.v0], axis=0)
    final = expm(T * np.kron(A, np.eye(2))) @ err0.reshape(-1)
    want = np.hypot(np.linalg.norm(final[:2 * n]), np.linalg.norm(final[2 * n:]))
    assert abs(states[-1].error - want) < 1e-9


def per_step_rk4(cfg, acceleration=None):
    """Classical RK4 on (x, v), one step at a time, with the target and
    its ``acceleration`` (zero if None) evaluated at every stage; the
    reference for the step-matrix run."""
    n = cfg.graph.n
    K = cfg.beta * np.eye(n) + cfg.coupling
    tgt, gamma = cfg.target, cfg.damping
    nsteps = int(np.ceil(cfg.horizon / cfg.step - 1e-9))
    dt = cfg.horizon / nsteps

    def accel(t, x, v):
        feed = 0.0 if acceleration is None else acceleration(t)
        return feed + K @ ((tgt.position(t) - x)
                           + gamma * (tgt.velocity(t) - v))

    x, v = cfg.x0.copy(), cfg.v0.copy()
    times, positions = [0.0], [x]
    for k in range(nsteps):
        t = k * dt
        k1x, k1v = v, accel(t, x, v)
        k2x = v + 0.5 * dt * k1v
        k2v = accel(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = accel(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = accel(t + dt, x + dt * k3x, k4x)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if (k + 1) % cfg.output_stride == 0 or k + 1 == nsteps:
            times.append((k + 1) * dt)
            positions.append(x)
    return times, positions


def max_rel_gap(states, positions):
    scale = max(np.abs(p).max() for p in positions)
    return max(np.abs(s.positions - p).max()
               for s, p in zip(states, positions)) / scale


def test_step_matrix_matches_per_step_rk4():
    # static target, 100 steps in blocks of 7: the last block is a remainder
    cfg = circle_relocation_config(n=16, horizon=1.0, step=0.01,
                                   output_stride=7)
    times, positions = per_step_rk4(cfg)
    states = simulate_consensus(cfg)
    assert [s.time for s in states] == times
    assert max_rel_gap(states, positions) <= 1e-12

    # moving target: agents orbiting (1, -1) at radius 2 and angular
    # speed 0.8; the per-step loop also carries RK4's truncation error on
    # the target's own motion, which the deviation form does not incur
    n, center, radius, omega = 30, np.array([1.0, -1.0]), 2.0, 0.8
    angles = 2.0 * np.pi * np.arange(n) / n

    def circle(t):
        a = omega * t + angles
        return np.column_stack([np.cos(a), np.sin(a)])

    def tangent(t):
        a = omega * t + angles
        return np.column_stack([-np.sin(a), np.cos(a)])

    orbit = TargetTrajectory(position=lambda t: center + radius * circle(t),
                             velocity=lambda t: radius * omega * tangent(t))
    cfg = ConsensusConfig(
        graph=cycle_graph(n, directed=True), alpha=0.5, beta=0.5,
        target=orbit, x0=circle(0.0), v0=np.zeros((n, 2)), horizon=5.0,
        step=1e-3, output_stride=10)
    times, positions = per_step_rk4(
        cfg, acceleration=lambda t: -radius * omega ** 2 * circle(t))
    states = simulate_consensus(cfg)
    assert [s.time for s in states] == times
    assert max_rel_gap(states, positions) <= 1e-9


def test_one_output_block_matches_matrix_exponential():
    # output_stride = nsteps: the whole run is one binary power of the step
    n, alpha, beta, gamma, T = 12, 0.5, 0.5, 2.0, 3.0
    cfg = circle_relocation_config(n=n, alpha=alpha, beta=beta, horizon=T,
                                   gamma=gamma, output_stride=5000)
    states = simulate_consensus(cfg)
    assert len(states) == 2 and states[-1].time == T
    K = cycle_lalpha(alpha, n) + beta * np.eye(n)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-K, -gamma * K]])
    tgt = cfg.target.position(0.0)
    e0 = np.concatenate([tgt - cfg.x0, -cfg.v0])
    final = expm(T * A) @ e0
    assert np.abs(states[-1].positions - (tgt - final[:n])).max() < 1e-9
    assert abs(states[-1].error - np.linalg.norm(final)) < 1e-9


def test_final_snapshot_is_stamped_at_the_horizon():
    # 5000 * (3.0 / 5000) rounds to 2.9999999999999996
    cfg = circle_relocation_config(n=12, horizon=3.0, output_stride=5000)
    assert [s.time for s in simulate_consensus(cfg)] == [0.0, 3.0]
    # a remainder block ends there too; earlier outputs keep k * dt
    states = simulate_consensus(replace(cfg, output_stride=4999))
    assert [s.time for s in states] == [0.0, 4999 * (3.0 / 5000), 3.0]


def test_coupling_and_damping_are_derived_once(monkeypatch):
    import fraclap.consensus as consensus
    import fraclap.matfun as matfun
    cfg = circle_relocation_config(n=30, alpha=0.5, horizon=1.0)
    own = simulate_consensus(cfg)
    assert np.abs(cfg.coupling - cycle_lalpha(0.5, 30)).max() < 1e-12
    assert cfg.damping == pytest.approx(
        gamma_lower_bound(cfg.coupling, cfg.beta).bound + 1.0, rel=1e-12)

    def forbidden(*args, **kwargs):
        raise AssertionError("coupling or damping recomputed")

    monkeypatch.setattr(matfun, "fractional_power_general", forbidden)
    monkeypatch.setattr(consensus, "gamma_lower_bound", forbidden)
    again = simulate_consensus(cfg)
    assert len(again) == len(own)
    for a, b in zip(own, again):
        assert a.time == b.time and a.error == b.error
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)


def test_replace_derives_coupling_and_damping_afresh():
    cfg = circle_relocation_config(n=30, alpha=0.5, horizon=1.0)
    coupling, damping = cfg.coupling, cfg.damping
    other = replace(cfg, alpha=0.8)
    assert np.abs(other.coupling - cycle_lalpha(0.8, 30)).max() < 1e-12
    assert other.damping == pytest.approx(
        gamma_lower_bound(other.coupling, cfg.beta).bound + 1.0, rel=1e-12)
    assert abs(other.damping - damping) > 0.1
    fixed = replace(cfg, gamma=2.5)
    assert fixed.damping == 2.5
    assert np.array_equal(fixed.coupling, coupling)
    assert cfg.coupling is coupling and cfg.damping == damping


def test_circle_relocation_frozen_finals():
    for alpha, want in FINAL_ORACLE.items():
        cfg = circle_relocation_config(alpha=alpha)
        states = simulate_consensus(cfg)
        assert abs(states[0].error - np.sqrt(2280.0)) < 1e-9
        assert abs(states[0].position_error - np.sqrt(2160.0)) < 1e-9
        assert abs(states[-1].position_error - want) < 1e-6 * want


def test_error_curve_layout():
    cfg = circle_relocation_config(n=16, horizon=1.0, gamma=2.0,
                                   output_stride=10, step=1.0 / 100)
    states = simulate_consensus(cfg)
    curve = consensus_error_curve(states)
    assert curve.shape == (11, 3)
    assert curve[0, 0] == 0.0 and curve[-1, 0] == 1.0
    assert (curve[:, 2] <= curve[:, 1] + 1e-15).all()


def test_inconsistent_target_rejected():
    n = 8
    pos = lambda t: np.tile([np.sin(t), 0.0], (n, 1))
    bad = TargetTrajectory(position=pos, velocity=lambda t: np.zeros((n, 2)))
    cfg = ConsensusConfig(graph=cycle_graph(n, directed=True), alpha=0.5,
                          beta=0.5, target=bad, x0=pos(0.0),
                          v0=np.zeros((n, 2)), horizon=1.0, gamma=2.0)
    with pytest.raises(ValueError):
        simulate_consensus(cfg)


def test_instability_guard_raises():
    cfg = circle_relocation_config(n=24, horizon=5.0, gamma=100.0, step=0.5)
    with pytest.raises(NumericalError):
        simulate_consensus(cfg)


def test_instability_guard_checks_the_final_output():
    # one output after all ten steps: the guard sees only the final state
    cfg = circle_relocation_config(n=24, horizon=5.0, gamma=100.0, step=0.5,
                                   output_stride=10)
    with pytest.raises(NumericalError):
        simulate_consensus(cfg)


@pytest.mark.parametrize("field", ["x0", "v0"])
def test_non_finite_start_rejected(field):
    cfg = circle_relocation_config(n=8)
    start = getattr(cfg, field).copy()
    start[3, 1] = np.nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(cfg, **{field: start})


@pytest.mark.parametrize("stride", [0, -3, 2.5, True])
def test_bad_output_stride_rejected(stride):
    with pytest.raises(ValueError, match="output_stride must be an integer"):
        circle_relocation_config(n=8, output_stride=stride)


def test_smaller_alpha_settles_faster():
    finals = [simulate_consensus(circle_relocation_config(alpha=a))[-1]
              .position_error for a in (0.1, 0.5, 0.8, 1.0)]
    assert finals[0] < finals[1] < finals[2] < finals[3]
