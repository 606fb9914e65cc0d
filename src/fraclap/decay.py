"""Entry decay bounds and numerical range profiles.

Off-diagonal entries of matrix functions of a banded or sparse symmetric
matrix decay in the hop distance between nodes.  This module instantiates
Jackson-type polynomial approximation bounds for ``L^alpha`` and
``exp(-t L^alpha)`` on every node pair, and computes numerical range
boundaries.  A range that reaches into the left half-plane rules out
range-based decay bounds for a nonsymmetric operator, and no others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .graphs import DenseOperator, as_matrix, pattern_distances
from .matfun import (
    SpectralData,
    exp_fractional_symmetric,
    fractional_power_symmetric,
    symmetric_spectral_data,
)

#: Jackson inequality constant for best uniform polynomial approximation
#: of Hoelder-continuous functions on an interval.
JACKSON_CONSTANT = 1.0 + np.pi ** 2 / 2.0


@dataclass(frozen=True)
class DecayReport:
    """Per-pair comparison of observed entries against a decay bound.

    Attributes
    ----------
    mode : str
        ``"power"``, ``"exponential"`` or ``"kernel"``.
    alpha : float
        Fractional exponent of the bound.
    c : float
        Jackson constant ``1 + pi**2/2``.
    rho : float
        Spectral radius of the base operator.
    t : float or None
        Time, exponential mode only.
    n_pairs : int
        Number of checked pairs (hop distance at least 2, finite).
    all_satisfied : bool
        True when every checked pair obeys its bound.
    violations : int
        Number of violating pairs.
    max_ratio : float
        Largest observed/bound ratio over all checked pairs.
    pairs, distances, observed, bounds, satisfied : numpy.ndarray
        Per-pair records; the full pair set, or a seeded subsample when
        one was requested.
    secondary_bounds : numpy.ndarray or None
        Exponential mode also evaluates the weaker linear-in-t bound,
        which dominates the primary one for every pair.
    diagonal_ok : bool or None
        Kernel mode: whether every fractional diagonal entry meets its
        lower bound ``rho**(alpha-1) * L[i, i] - 1e-10``.
    diagonal_margin : float or None
        Kernel mode: worst slack in that lower bound.
    """

    mode: str
    alpha: float
    c: float
    rho: float
    t: float | None
    n_pairs: int
    all_satisfied: bool
    violations: int
    max_ratio: float
    pairs: np.ndarray
    distances: np.ndarray
    observed: np.ndarray
    bounds: np.ndarray
    satisfied: np.ndarray
    secondary_bounds: np.ndarray | None = None
    diagonal_ok: bool | None = None
    diagonal_margin: float | None = None


def _decay_setup(L, data):
    """The matrix of ``L``, its eigendecomposition (``data`` when given),
    its spectral radius, its hop distances, and ``d - 1`` for each distance
    class ``d >= 2`` up to the largest finite hop count."""
    # a bare array gets a throwaway operator, so its distances are
    # computed for this call only
    op = L if isinstance(L, DenseOperator) else DenseOperator(L)
    if data is None:
        data = symmetric_spectral_data(op.matrix)
    D = op.hop_distances
    return (op.matrix, data, float(np.abs(data.eigenvalues).max()), D,
            np.arange(1.0, D.max(initial=1.0, where=np.isfinite(D))))


def _decay_report(mode, alpha, rho, D, observed, per_hop, sample, seed, *,
                  row=None, t=None, secondary=None, **diagonal) -> DecayReport:
    """Summary over every pair at finite hop distance ``d >= 2``, per-pair
    records for all of them or a `seed`-ed subsample of `sample`, and the
    `DecayReport` of both.  The bound of a pair at distance ``d`` in row
    ``i`` is ``per_hop[d - 2]``, times ``row[i]`` when ``row`` is given;
    ``secondary`` is indexed like ``per_hop``."""
    mask = (D >= 2) & np.isfinite(D)
    idx = np.argwhere(mask)
    dist = D[mask]
    hop = dist.astype(np.intp) - 2
    obs = observed[mask]
    bnd = per_hop[hop] if row is None else row[idx[:, 0]] * per_hop[hop]
    with np.errstate(invalid="ignore"):
        max_ratio = float((obs / bnd).max()) if obs.size else 0.0
    violations = int((~(obs <= bnd)).sum())
    keep = slice(None)
    if sample is not None and sample < idx.shape[0]:
        rng = np.random.Generator(np.random.PCG64(seed))
        keep = np.sort(rng.choice(idx.shape[0], size=int(sample),
                                  replace=False))
    obs, bnd = obs[keep], bnd[keep]
    return DecayReport(
        mode=mode, alpha=float(alpha), c=JACKSON_CONSTANT, rho=rho, t=t,
        n_pairs=idx.shape[0], all_satisfied=violations == 0,
        violations=violations, max_ratio=max_ratio,
        pairs=idx[keep], distances=dist[keep], observed=obs, bounds=bnd,
        satisfied=obs <= bnd,
        secondary_bounds=None if secondary is None else secondary[hop[keep]],
        **diagonal)


def verify_decay_bounds(L, alpha: float, *, mode: str = "power",
                        t: float | None = None,
                        data: SpectralData | None = None,
                        sample: int | None = None,
                        seed: int = 0) -> DecayReport:
    """Check power-law decay bounds on a symmetric Laplacian power.

    For every node pair with hop distance ``d >= 2`` in the pattern of
    ``L``, compares the observed entry magnitude against
    ``c * w(rho / (2 * (d - 1)))`` where ``c = 1 + pi**2/2``, ``rho`` is
    the spectral radius of ``L`` and ``w`` is the modulus of continuity
    of the applied function: ``w(x) = x**alpha`` for ``L**alpha``
    (power mode) and ``w(x) = 1 - exp(-t * x**alpha)`` for
    ``exp(-t * L**alpha)`` (exponential mode).  Pairs at distance 0, 1
    or infinity carry no information and are excluded.  The bound
    depends on a pair only through ``d``, so it is evaluated once per
    distance class.

    Hop distances come from ``L.hop_distances``, which the operator
    computes once and keeps; pass the same :class:`DenseOperator` to
    every check on one Laplacian to reuse them.  A bare array is wrapped
    in a throwaway operator, so its distances are recomputed per call.

    Parameters
    ----------
    L : DenseOperator or array_like
        Symmetric (within 1e-12) positive semidefinite matrix.
    alpha : float
        Exponent in (0, 1].
    mode : {'power', 'exponential'}
        Which matrix function to check.
    t : float, optional
        Time, required in exponential mode.
    data : SpectralData, optional
        Reused eigendecomposition of ``L``.
    sample : int, optional
        Keep only this many per-pair records, subsampled with `seed`.
        Summary statistics always cover every pair.
    seed : int, optional
        Subsampling seed.

    Returns
    -------
    DecayReport

    Raises
    ------
    ValueError
        Non-square, non-finite or nonsymmetric input, bad mode, or
        missing or non-finite ``t``.
    """
    if mode not in ("power", "exponential"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exponential" and (t is None or not 0 < t < np.inf):
        raise ValueError(f"exponential mode requires finite t > 0, got t={t}")
    A, data, rho, D, dm1 = _decay_setup(L, data)
    # d >= 2 keeps the base argument rho/(2(d-1)) inside the spectrum window
    hoelder = np.power(rho / (2.0 * dm1), alpha)
    if mode == "power":
        F = fractional_power_symmetric(A, alpha, data=data)
        return _decay_report(mode, alpha, rho, D, np.abs(F.matrix),
                             JACKSON_CONSTANT * hoelder, sample, seed)
    t = float(t)
    E = exp_fractional_symmetric(A, alpha, t, data=data)
    return _decay_report(mode, alpha, rho, D, np.abs(E.matrix),
                         JACKSON_CONSTANT * -np.expm1(-t * hoelder),
                         sample, seed, t=t,
                         secondary=JACKSON_CONSTANT * t * hoelder)


def verify_p_alpha_bound(kernel, L, *, data: SpectralData | None = None,
                         sample: int | None = None,
                         seed: int = 0) -> DecayReport:
    """Check decay bounds on fractional transition probabilities.

    Transition probabilities divide ``L**alpha`` rows by the fractional
    diagonal, so combining the entry bound with the diagonal lower bound
    ``(L**alpha)[i, i] >= rho**(alpha-1) * L[i, i]`` gives, per pair at
    hop distance ``d >= 2``,

        ``P[i, j] <= c * rho / (2**alpha * L[i, i]) * (d - 1)**(-alpha)``.

    The diagonal lower bound itself is asserted with slack ``1e-10`` and
    reported through ``diagonal_ok`` and ``diagonal_margin``.

    Hop distances come from ``L.hop_distances``, as in
    `verify_decay_bounds`: pass the operator, not its matrix, to reuse
    the distances its other checks have already computed.

    Parameters
    ----------
    kernel : TransitionKernel
        Kernel built from ``L**alpha`` of a symmetric Laplacian; the
        bound uses its exponent ``kernel.alpha``.
    L : DenseOperator or array_like
        The symmetric base Laplacian.
    data, sample, seed :
        As in `verify_decay_bounds`.

    Returns
    -------
    DecayReport
    """
    A, _, rho, D, dm1 = _decay_setup(L, data)
    alpha = kernel.alpha
    diag = np.diag(A).astype(float)
    # a zero or tiny degree gives an infinite, vacuous row factor
    with np.errstate(divide="ignore", over="ignore"):
        row = JACKSON_CONSTANT * rho / (2.0 ** alpha * diag)
    margin = float((kernel.d_alpha - rho ** (alpha - 1.0) * diag).min())
    return _decay_report("kernel", alpha, rho, D, np.abs(kernel.P),
                         np.power(dm1, -alpha), sample, seed, row=row,
                         diagonal_ok=bool(margin >= -1e-10),
                         diagonal_margin=margin)


@dataclass(frozen=True)
class NumericalRangeProfile:
    """Boundary discretization of a numerical range.

    Attributes
    ----------
    angles : numpy.ndarray
        Rotation angles of the supporting hyperplanes.
    boundary : numpy.ndarray
        Complex supporting points ``x* M x``, one per angle.
    support : numpy.ndarray
        Support function values, the top eigenvalue of the rotated
        Hermitian part at each angle.
    min_real : float
        Leftmost point of the range on the real axis, the negated
        support value at angle pi.
    eigenvector_condition : float
        Spectral condition number of an eigenvector matrix; large values
        flag nonnormality (reported, never asserted).
    """

    angles: np.ndarray
    boundary: np.ndarray
    support: np.ndarray
    min_real: float
    eigenvector_condition: float


def numerical_range_profile(M, angles: int = 360) -> NumericalRangeProfile:
    """Boundary points of the numerical range ``{x* M x : |x| = 1}``.

    For each rotation angle ``theta`` the largest eigenvalue and top
    eigenvector of the Hermitian part of ``exp(1j*theta) * M`` give a
    supporting hyperplane and the boundary point it touches.  The range
    of a normal matrix is the convex hull of its eigenvalues; for
    nonnormal operators it can spill into the left half-plane even when
    every eigenvalue has nonnegative real part, which is what this
    profile detects.

    Two paths compute the support and boundary.  When ``M`` equals its
    conjugate transpose exactly, the rotated Hermitian part is
    ``cos(theta) * M``, so one eigenvalue solve serves every angle: the
    support is ``cos(theta)`` times the largest eigenvalue where
    ``cos(theta) >= 0`` and times the smallest one elsewhere, and the
    boundary point is that eigenvalue.  Every other input takes, per
    angle, only the top eigenpair of the rotated Hermitian part
    (LAPACK ``evr`` on one index), not its full eigendecomposition.
    When that input is real the range is symmetric about the real axis:
    the Hermitian part at ``-theta`` is the conjugate of the one at
    ``theta``, so only the angles in ``[0, pi]`` are solved and each
    row ``k > angles // 2`` is the conjugate of row ``angles - k``.  At
    an angle where the supporting line meets a whole edge of the range
    (a segment for Hermitian ``M``), any point on that edge may be
    returned.

    ``min_real`` is the smallest eigenvalue of the Hermitian part of
    ``M``.  ``eigenvector_condition`` is the condition number of the
    eigenvector matrix of ``M``; on the Hermitian path it is exactly 1,
    since those eigenvectors are unitary.

    Parameters
    ----------
    M : DenseOperator or array_like
        Square matrix, real or complex, with finite entries.
    angles : int, optional
        Grid resolution, at least 8.

    Returns
    -------
    NumericalRangeProfile

    Raises
    ------
    ValueError
        Fewer than 8 angles, non-square input, non-finite entries, or
        entries so large that twice the largest modulus overflows.
    """
    if angles < 8:
        raise ValueError("need at least 8 angles")
    A = as_matrix(M)
    # both paths form the Hermitian part (R + R^H) / 2, whose sum can
    # reach 2 * max|A| before the halving
    if not np.isfinite(2.0 * float(np.abs(A).max(initial=0.0))):
        raise ValueError("matrix entries too large for the numerical "
                         "range: 2 * max|A| overflows")
    m = int(angles)
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    if np.array_equal(A, A.conj().T):
        # the complex solver, not the real one, so that symmetric
        # `frange` outputs keep their last bits
        lam = np.linalg.eigvalsh(A.astype(complex))
        cos = np.cos(thetas)
        extreme = np.where(cos >= 0.0, lam[-1], lam[0])
        return NumericalRangeProfile(
            angles=thetas, boundary=extreme.astype(complex),
            support=cos * extreme, min_real=float(lam[0]),
            eigenvector_condition=1.0)
    n = A.shape[0]
    solved = m // 2 + 1 if np.isrealobj(A) else m
    support = np.empty(m)
    X = np.empty((n, solved), dtype=complex)
    for k in range(solved):
        R = np.exp(1j * thetas[k]) * A
        w, V = scipy.linalg.eigh((R + R.conj().T) / 2.0,
                                 subset_by_index=[n - 1, n - 1],
                                 driver="evr", check_finite=False)
        support[k] = w[0]
        X[:, k] = V[:, 0]
    # every x* A x from one product after the sweep: a matrix-vector
    # product between solves stalls threaded BLAS (2.2 s against 0.44 s
    # for 181 angles at n=120 with two threads on two vCPUs)
    boundary = np.empty(m, dtype=complex)
    boundary[:solved] = (X.conj() * (A @ X)).sum(axis=0)
    k = np.arange(solved, m)
    support[k] = support[m - k]
    boundary[k] = boundary[m - k].conj()
    min_real = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
    _, vecs = np.linalg.eig(A)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = float(np.linalg.cond(vecs))
    return NumericalRangeProfile(angles=thetas, boundary=boundary,
                                 support=support, min_real=min_real,
                                 eigenvector_condition=cond)


@dataclass(frozen=True)
class DistanceProfile:
    """Log-log fit of largest entry magnitude against hop distance.

    Attributes
    ----------
    distances : numpy.ndarray
        Hop distance classes ``d >= 2`` with a nonzero largest entry.
    max_entries : numpy.ndarray
        Largest entry magnitude per class.
    slope : float
        Fitted slope of ``log(max entry)`` against ``log(d - 1)``.
    """

    distances: np.ndarray
    max_entries: np.ndarray
    slope: float


def distance_decay_slope(values, distances) -> DistanceProfile:
    """Fit the observed decay rate of entries against hop distance.

    Distance classes ``d >= 2`` with a nonzero largest entry enter the
    fit; one ``np.maximum.at`` pass finds every class's largest entry.

    Parameters
    ----------
    values : DenseOperator or array_like
        Matrix whose entry magnitudes are profiled.
    distances : numpy.ndarray
        Matching all-pairs hop distance matrix: whole hop counts, ``inf``
        for unreachable pairs.

    Returns
    -------
    DistanceProfile

    Raises
    ------
    ValueError
        A finite distance that is not a whole number.
    NumericalError
        Fewer than three usable distance classes.
    """
    A = np.abs(as_matrix(values))
    D = np.asarray(distances)
    finite = np.isfinite(D) & (D >= 2)
    d = D[finite]
    hops = d.astype(np.intp)
    if np.any(hops != d):
        raise ValueError("distances must be whole hop counts")
    peaks = np.zeros(int(hops.max(initial=0)) + 1)
    np.maximum.at(peaks, hops, A[finite])
    # absent classes, and d < 2, keep their initial 0 and drop out here
    ds = np.flatnonzero(peaks > 0.0)
    peaks = peaks[ds]
    ds = ds.astype(float)
    if ds.shape[0] < 3:
        raise NumericalError("need at least 3 distance classes for a fit")
    slope, _ = np.polyfit(np.log(ds - 1.0), np.log(peaks), 1)
    return DistanceProfile(distances=ds, max_entries=peaks, slope=float(slope))
