"""Matrix functions of graph Laplacians.

Fractional powers L^alpha for alpha in (0, 1], entered through
:func:`fractional_power`: a symmetric eigendecomposition or, for
nonsymmetric input, one complex Schur form sorted to put the zero
eigenvalue cluster first: the nonzero block gets its principal power and
a single Sylvester solve couples the two.  The zero eigenvalue cluster
of a singular Laplacian is mapped exactly to 0.  A truncated binomial
series provides an independent cross-check, and ``verify_m_matrix``
reports the structural invariants the result must satisfy (nonpositive
off-diagonal, zero row sums, spectrum in the closed right half-plane).
``matrix_exponential`` applies exp(-t M) to a vector at several times
without forming the dense exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.sparse.linalg import expm_multiply

from .errors import NumericalError
from .graphs import DenseOperator, as_matrix

__all__ = [
    "SpectralData",
    "FractionalPowerResult",
    "SeriesApproximation",
    "MMatrixReport",
    "symmetric_spectral_data",
    "schur_spectral_data",
    "fractional_power",
    "fractional_power_symmetric",
    "fractional_power_general",
    "fractional_power_series",
    "exp_fractional_symmetric",
    "matrix_exponential",
    "verify_m_matrix",
    "binomial_coefficients",
]


def _check_times(times: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first non-finite or negative time."""
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time {bad[0]} is not finite")
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a symmetric matrix: ascending ``eigenvalues``
    and the orthonormal eigenvector columns of ``basis``."""

    eigenvalues: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True, kw_only=True)
class FractionalPowerResult(DenseOperator):
    """``L**alpha`` in ``matrix``, plus the spectral bookkeeping behind it.

    ``method`` names the engine (``"symmetric-eig"`` or
    ``"schur-parlett"``); ``zero_cluster`` indexes the entries of
    ``eigenvalues`` that were mapped exactly to 0.
    """

    zero_cluster: tuple[int, ...]
    method: str
    eigenvalues: np.ndarray


@dataclass(frozen=True, kw_only=True)
class SeriesApproximation(DenseOperator):
    """Truncated binomial series for L^alpha with its remainder estimate.

    The estimate rho^alpha * |sum_{k>terms} (-1)^k binom(alpha, k)| bounds
    the max-norm truncation error because the powers of B/rho are
    row-stochastic.
    """

    remainder: float


@dataclass(frozen=True)
class MMatrixReport:
    is_sign_pattern: bool
    max_positive_offdiag: float
    spectrum_ok: bool
    min_real_eigenvalue: float


def _is_symmetric(A: np.ndarray) -> bool:
    """``|A - A^T| <= 1e-12 * max(1, max|A|)`` entrywise."""
    scale = max(1.0, float(np.abs(A).max()))
    return float(np.abs(A - A.T).max()) <= 1e-12 * scale


def symmetric_spectral_data(L) -> SpectralData:
    """Eigendecomposition of a symmetric matrix (checked to 1e-12)."""
    A = as_matrix(L)
    if not _is_symmetric(A):
        raise ValueError("matrix is not symmetric within 1e-12")
    w, U = np.linalg.eigh((A + A.T) / 2.0)
    ortho = float(np.abs(U.T @ U - np.eye(A.shape[0])).max())
    if ortho > 1e-10:
        raise NumericalError(f"eigenvector orthonormality residue {ortho:.3e}")
    return SpectralData(eigenvalues=w, basis=U)


def schur_spectral_data(M) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``(T, Q)`` of a real square matrix: ``T`` upper
    triangular, ``Q`` unitary, ``M = Q T Q^H``."""
    A = as_matrix(M)
    return scipy.linalg.schur(A.astype(complex), output="complex")


def _zero_tolerance(lam) -> float:
    """``n * eps * rho`` for the ``n`` eigenvalues ``lam`` with largest
    magnitude ``rho``: those within it of 0 count as the zero cluster."""
    return lam.shape[0] * np.finfo(float).eps \
        * float(np.abs(lam).max(initial=0.0))


def _clamped_powers(w, alpha):
    ztol = _zero_tolerance(w)
    floor = -10.0 * ztol
    if np.any(w < floor):
        bad = float(w.min())
        raise NumericalError(
            f"eigenvalue {bad:.6e} below the negative-roundoff floor {floor:.3e}"
        )
    zero = (np.abs(w) <= ztol) | (w < 0)
    powers = np.zeros_like(w)
    powers[~zero] = w[~zero] ** alpha
    return powers, np.flatnonzero(zero)


def _symmetric_function(L, alpha, data, f):
    """``U diag(f(w**alpha)) U^T`` from ``data`` or else from
    `symmetric_spectral_data`; also the eigenvalues ``w`` and the indices
    that `_clamped_powers` mapped to 0.  ``f`` must be nonnegative: the
    result is the Gram product ``B B^T`` with ``B = U sqrt(f)``, which
    numpy forms by one symmetric rank-k update, exactly symmetric."""
    if data is None:
        data = symmetric_spectral_data(L)
    w, U = data.eigenvalues, data.basis
    powers, zero_idx = _clamped_powers(w, alpha)
    B = U * np.sqrt(f(powers))
    return B @ B.T, w, zero_idx


def fractional_power_symmetric(L, alpha, *, data: SpectralData | None = None
                               ) -> FractionalPowerResult:
    """L^alpha of a symmetric positive semidefinite matrix.

    Eigenvalues with magnitude at most n * eps * rho(L) map to 0; small
    negative roundoff eigenvalues are clamped to 0, anything below -10x
    the tolerance raises.  Pass a precomputed ``data`` to reuse one
    factorization across alpha values.
    """
    alpha = _check_alpha(alpha)
    F, w, zero_idx = _symmetric_function(L, alpha, data, lambda p: p)
    return FractionalPowerResult(matrix=F, alpha=alpha,
                                 zero_cluster=tuple(int(i) for i in zero_idx),
                                 method="symmetric-eig", eigenvalues=w.copy())


def exp_fractional_symmetric(L, alpha, t, *, data: SpectralData | None = None
                             ) -> DenseOperator:
    """exp(-t L^alpha) through the same symmetric eigendecomposition."""
    alpha = _check_alpha(alpha)
    t = float(t)
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got t={t}")
    F, _, _ = _symmetric_function(L, alpha, data, lambda p: np.exp(-t * p))
    return DenseOperator(F)


def _atomic_power(Tb, alpha):
    """Principal power of a nonsingular triangular diagonal block."""
    m = Tb.shape[0]
    if m == 1:
        return np.array([[Tb[0, 0] ** alpha]], dtype=complex)
    # scipy's norm estimates draw from numpy's global stream: a fixed
    # seed makes the power repeat, and the caller's stream is restored
    state = np.random.get_state()
    np.random.seed(0)
    try:
        F = scipy.linalg.fractional_matrix_power(Tb, alpha)
    finally:
        np.random.set_state(state)
    if not np.all(np.isfinite(F)):
        raise NumericalError("atomic block power produced non-finite entries")
    # f(triangular) is triangular; roundoff below the diagonal is discarded
    low = np.abs(np.tril(F, -1)).max(initial=0.0)
    if low > 1e-10 * max(1.0, np.abs(F).max()):
        raise NumericalError(f"atomic block lost triangularity ({low:.3e})")
    return np.triu(np.asarray(F, dtype=complex))


def fractional_power_general(M, alpha) -> FractionalPowerResult:
    """M^alpha for a real matrix with spectrum in the closed right
    half-plane (singular M-matrices included).

    One complex Schur form T, reordered by ``ztrsen`` so that the k
    eigenvalues with |lambda| <= n * eps * rho(M) come first.  With
    T = [[T0, T01], [0, T1]], the result in Schur coordinates is
    F = [[0, X], [0, T1^alpha]]: the zero cluster maps exactly to 0, the
    nonsingular block T1 gets its principal power by inverse scaling and
    squaring, and the coupling X solves the Sylvester equation
    T0 X - X T1 = -T01 T1^alpha that FT = TF imposes (the two-block
    Parlett step).  The result is realified; an imaginary residue above
    1e-10 * max|result| raises :class:`NumericalError`.  Rows and
    columns where ``M`` is zero are exactly zero in the result.
    """
    alpha = _check_alpha(alpha)
    A = as_matrix(M)
    n = A.shape[0]
    T, Q = schur_spectral_data(A)
    lam = np.diag(T)

    ztol = _zero_tolerance(lam)
    zero_mask = np.abs(lam) <= ztol
    floor = -10.0 * ztol
    bad = (~zero_mask) & (lam.real < floor)
    if np.any(bad):
        worst = lam[bad][np.argmin(lam[bad].real)]
        raise NumericalError(
            f"eigenvalue {worst!r} outside the principal-branch domain "
            f"(real-part floor {floor:.3e})"
        )

    k = int(zero_mask.sum())
    F = np.zeros_like(T)
    if k < n:
        if k:
            T, Q, _, m, _, _, info = lapack.ztrsen(zero_mask.astype(np.int32),
                                                   T, Q, job="N")
            if info != 0 or m != k:
                raise NumericalError(
                    f"Schur reordering failed (info={info}, "
                    f"{m} of {k} zero eigenvalues moved)"
                )
        F[k:, k:] = _atomic_power(T[k:, k:], alpha)
        if k:
            X, scale, info = lapack.ztrsyl(T[:k, :k], T[k:, k:],
                                           -T[:k, k:] @ F[k:, k:], isgn=-1)
            if info != 0 or scale == 0.0:
                raise NumericalError(
                    "Parlett recurrence breakdown between the zero cluster "
                    f"and the nonzero block (eigenvalue near {T[k, k]!r})"
                )
            F[:k, k:] = X / scale

    R = Q @ F @ Q.conj().T
    resid = float(np.abs(R.imag).max())
    limit = 1e-10 * max(1.0, float(np.abs(R.real).max()))
    if resid > limit:
        raise NumericalError(
            f"imaginary residue {resid:.3e} above realification tolerance"
        )
    R = R.real.copy()
    # a zero row (column) of M is a left (right) null vector, which the
    # power maps to 0 exactly; Schur roundoff there would make an
    # absorbing node look live
    R[~A.any(axis=1)] = 0.0
    R[:, ~A.any(axis=0)] = 0.0
    return FractionalPowerResult(matrix=R, alpha=alpha,
                                 zero_cluster=tuple(range(k)),
                                 method="schur-parlett",
                                 eigenvalues=np.diag(T).copy())


def fractional_power(L, alpha) -> FractionalPowerResult:
    """L^alpha by the engine its symmetry calls for.

    Input symmetric within 1e-12 * max(1, max|L|) goes to
    :func:`fractional_power_symmetric`, anything else to
    :func:`fractional_power_general`; the result's ``method`` names the
    engine that ran.
    """
    A = as_matrix(L)
    if _is_symmetric(A):
        return fractional_power_symmetric(A, alpha)
    return fractional_power_general(A, alpha)


def binomial_coefficients(alpha: float, count: int) -> np.ndarray:
    """binom(alpha, k) for k = 0..count-1 by the stable product recurrence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    out[0] = 1.0
    for k in range(1, count):
        out[k] = out[k - 1] * (alpha - (k - 1)) / k
    return out


def fractional_power_series(L, alpha, terms: int) -> SeriesApproximation:
    """Truncated binomial series rho^alpha * sum_k binom(alpha,k) (-1)^k
    (B/rho)^k with B = rho I - L and rho = max diagonal degree.

    Valid for combinatorial Laplacians (checked: nonpositive off-diagonal,
    nonnegative diagonal, zero row sums).  Returns the partial sum and the
    scalar remainder estimate that bounds the max-norm truncation error.
    """
    alpha = _check_alpha(alpha)
    terms = int(terms)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    A = as_matrix(L)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    off = A - np.diag(np.diag(A))
    if off.max(initial=0.0) > 1e-12 * scale:
        raise ValueError("positive off-diagonal entry: not a Laplacian sign pattern")
    if np.diag(A).min(initial=0.0) < -1e-12 * scale:
        raise ValueError("negative diagonal entry: not a Laplacian sign pattern")
    if float(np.abs(A.sum(axis=1)).max()) > 1e-10 * scale:
        raise ValueError("row sums not zero: not a combinatorial Laplacian")

    rho = float(np.diag(A).max(initial=0.0))
    if rho == 0.0:
        return SeriesApproximation(matrix=np.zeros_like(A), alpha=alpha,
                                   remainder=0.0)

    Bs = np.eye(n) - A / rho          # B / rho, row-stochastic and nonnegative
    S = np.eye(n)
    P = np.eye(n)
    coeff = 1.0                        # (-1)^k binom(alpha, k)
    partial = 1.0
    for k in range(1, terms + 1):
        coeff *= (k - 1 - alpha) / k
        P = P @ Bs
        S += coeff * P
        partial += coeff
    remainder = float(rho ** alpha * abs(partial))
    return SeriesApproximation(matrix=rho ** alpha * S, alpha=alpha,
                               remainder=remainder)


def matrix_exponential(M, times, v) -> np.ndarray:
    """Action of the exponential: the rows exp(-t M) v, one per time.

    Each row is computed from ``v`` by the truncated Taylor method of
    Al-Mohy & Higham (SISC 33(2), 2011), ``expm_multiply``; no dense
    exp(-t M) is formed.  Times must be finite and nonnegative; t = 0
    returns ``v`` exactly.  Overflow is flagged before computing by the
    Gershgorin row and column sums of ``-M``: they give its logarithmic
    norms ``mu`` in the inf- and 1-norms, each bounding
    ``||exp(-t M)|| <= exp(t mu)`` in its own norm, and the smaller one
    is used.  A non-finite result raises :class:`NumericalError`.
    """
    A = as_matrix(M)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    v = np.asarray(v, dtype=float)
    _check_times(times)
    off = np.abs(A) - np.diag(np.abs(np.diag(A)))
    mu = min(float((off.sum(axis=1) - np.diag(A)).max()),
             float((off.sum(axis=0) - np.diag(A)).max()))
    if times.max(initial=0.0) * max(0.0, mu) > 700.0:
        raise NumericalError("exp(-tM) would overflow (Gershgorin bound)")
    out = np.empty((times.shape[0], v.shape[0]))
    for k, t in enumerate(times):
        out[k] = v if t == 0.0 else expm_multiply(-t * A, v)
    if not np.all(np.isfinite(out)):
        raise NumericalError("matrix exponential overflowed")
    return out


def verify_m_matrix(M) -> MMatrixReport:
    """Check the singular-M-matrix structure of a (fractional) Laplacian:
    off-diagonal <= tol, diagonal >= -tol, row sums within tol of zero,
    eigenvalue real parts >= -tol, with tol = 1e-10 * max(1, max|M|)."""
    A = as_matrix(M)
    tol = 1e-10 * max(1.0, float(np.abs(A).max()))
    off = A - np.diag(np.diag(A))
    max_off = float(off.max(initial=0.0))
    min_diag = float(np.diag(A).min(initial=0.0))
    max_row = float(np.abs(A.sum(axis=1)).max())
    eigs = np.linalg.eigvals(A)
    min_re = float(eigs.real.min())
    sign_ok = max_off <= tol and min_diag >= -tol and max_row <= tol
    return MMatrixReport(
        is_sign_pattern=bool(sign_ok),
        max_positive_offdiag=max_off,
        spectrum_ok=bool(min_re >= -tol),
        min_real_eigenvalue=min_re,
    )
