"""Output checks and the independent computations behind them.

Each check either passes or raises `CheckFailed`, or `KnownFault` for
the one named fault of the program that a workload keeps on purpose.  The references use
numpy and scipy directly and none of ``fraclap``'s code paths; where a
check can only test a property (a sign pattern, conserved mass, a bound
that must hold), the property is the one the paper's method guarantees.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


class CheckFailed(Exception):
    pass


class KnownFault(CheckFailed):
    """The output is wrong in exactly the way a named fault predicts, and
    every other check of it passed."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    expect(err <= tol, f"{what}: off by {err:.3e}, allowed {tol:.1e}")


def scale_of(A):
    return max(1.0, float(np.abs(A).max()))


def laplacian_like(F, what, tol=1e-10):
    """``L**alpha`` keeps the Laplacian sign pattern and zero row sums."""
    s = scale_of(F)
    off = F - np.diag(np.diag(F))
    expect(off.max() <= tol * s, f"{what}: positive off-diagonal {off.max():.3e}")
    expect(np.diag(F).min() >= -tol * s, f"{what}: negative diagonal")
    close(F.sum(axis=1), 0.0, tol * s, f"{what} row sums")


def squares_to(F, L, what):
    close(F @ F, L, 1e-8 * scale_of(L), f"{what} squared vs L")


def stochastic(P, what):
    expect(P.min() >= 0.0, f"{what}: negative entry {P.min():.3e}")
    close(P.sum(axis=1), 1.0, 1e-12, f"{what} row sums")


def walk_follows(P, states, what):
    steps = P[states[:-1], states[1:]]
    bad = np.flatnonzero(steps <= 0.0)
    expect(bad.size == 0, f"{what}: step {bad[:1]} has zero probability")


def mass_conserved(U, what):
    close(U.sum(axis=1), 1.0, 1e-8, f"{what} mass")
    expect(U.min() >= 0.0, f"{what}: negative mass {U.min():.3e}")


def return_probability(G, times):
    n = G.shape[0]
    return np.array([np.trace(scipy.linalg.expm(-t * G)).real / n
                     for t in times])


def stationary_law(P, d_alpha, what):
    """The kernel's stationary law is proportional to ``d_alpha``."""
    pi = d_alpha / d_alpha.sum()
    close(pi @ P, pi, 1e-10, f"{what} stationarity of d_alpha")


def absorption_mean(n, alpha):
    """Expected steps to absorption from the first node of the directed
    path: ``sum_{k<n-1} Gamma(alpha + k) / (Gamma(alpha) k!)``."""
    return math.fsum(math.exp(math.lgamma(alpha + k) - math.lgamma(alpha)
                              - math.lgamma(k + 1)) for k in range(n - 1))


def numerical_range(A, table, picks, what):
    """At each picked row of an ``angle, boundary_re, boundary_im,
    support`` table, the support is the top eigenvalue of the rotated
    Hermitian part and the boundary point lies on its supporting line."""
    tol = 1e-9 * scale_of(A)
    for k in picks:
        theta, bre, bim, support = table[k]
        R = np.exp(1j * theta) * A
        top = np.linalg.eigvalsh((R + R.conj().T) / 2.0)[-1]
        close(support, top, tol, f"{what} support at angle {theta:.4f}")
        on_line = (np.exp(1j * theta) * complex(bre, bim)).real
        close(on_line, support, tol, f"{what} boundary at angle {theta:.4f}")


def spectral_powers(w, alpha):
    """``w**alpha`` with roundoff-sized eigenvalues mapped to 0."""
    return np.where(w > 1e-12 * np.abs(w).max(), np.abs(w), 0.0) ** alpha


def symmetric_power(w, U, alpha):
    """``L**alpha`` from an eigendecomposition."""
    return (U * spectral_powers(w, alpha)) @ U.T


def reversible_kernel(F):
    d = np.diag(F).copy()
    P = -F / d[:, None]
    np.fill_diagonal(P, 0.0)
    return P, d


def reversible_evolution(P, d, start, times):
    """``expm(-t (I - P)^T) e_start`` through the symmetric matrix
    ``D^(1/2) (I - P) D^(-1/2)``, for a kernel reversible against ``d``."""
    r = np.sqrt(d)
    S = np.eye(len(d)) - r[:, None] * P / r[None, :]
    mu, V = np.linalg.eigh((S + S.T) / 2.0)
    c = V[start] / r[start]
    return np.array([r * (V @ (np.exp(-t * mu) * c)) for t in times])


def cycle_power(n, alpha):
    """Closed form of ``L_out**alpha`` on the directed cycle with arcs
    ``i -> i + 1``: the circulant with symbol ``(1 - exp(-2 pi i l / n))**alpha``."""
    symbol = (1.0 - np.exp(-2j * np.pi * np.arange(n) / n)) ** alpha
    symbol[0] = 0.0
    row = np.fft.ifft(symbol).real
    return np.array([np.roll(row, h) for h in range(n)])


def consensus_final_error(K, gamma, e0, v0, horizon):
    """Position error at ``horizon`` of ``e'' = -K e - gamma K e'`` from
    deviation ``e0`` and velocity ``v0``, by one matrix exponential."""
    n = K.shape[0]
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-K, -gamma * K]])
    Z = scipy.linalg.expm(horizon * A) @ np.vstack([e0, v0])
    return float(np.linalg.norm(Z[:n]))


def cycle_lattice_solution(alpha, t, z, cycle=1 << 20):
    """``u(t)_z`` of the two-sided chain, from one FFT on a long cycle: the
    lattice solution up to the mass that wraps around the cycle."""
    x = 2.0 * np.pi * np.arange(cycle) / cycle
    u = np.fft.fft(np.exp(-t * (2.0 - 2.0 * np.cos(x)) ** alpha)) / cycle
    return u[np.asarray(z) % cycle].real
