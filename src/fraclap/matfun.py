"""Matrix functions of graph Laplacians.

Fractional powers L^alpha for alpha in (0, 1], entered through
:func:`fractional_power`: a symmetric eigendecomposition or, for
nonsymmetric input, one real Schur form sorted to put the zero
eigenvalue cluster first: the nonzero block gets its principal power by
blocked real square roots and a Pade approximant, and a single Sylvester
solve couples the two.  The zero eigenvalue cluster of a singular
Laplacian is mapped exactly to 0.  A truncated binomial
series provides an independent cross-check, and ``verify_m_matrix``
reports the structural invariants the result must satisfy (nonpositive
off-diagonal, zero row sums, spectrum in the closed right half-plane).
``matrix_exponential`` applies exp(-t M) to a vector at several times
without forming the dense exponential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.sparse.linalg import expm_multiply

from .errors import NumericalError
from .graphs import DenseOperator, as_matrix


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
    ``eigenvalues`` that were mapped exactly to 0.  ``square_roots`` and
    ``pade_degree`` are the inverse scaling and squaring parameters of the
    Schur-Parlett atomic block; both are 0 on the symmetric path and where
    that block needed no approximation (order 1, or ``alpha = 1``).
    """

    zero_cluster: tuple[int, ...]
    method: str
    eigenvalues: np.ndarray
    square_roots: int = 0
    pade_degree: int = 0


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
    """Real Schur form ``(T, Z)`` of a real square matrix: ``T`` quasi
    upper triangular, each 2x2 diagonal block standardized (equal diagonal
    entries, a nonreal eigenvalue pair), ``Z`` orthogonal, ``M = Z T Z^T``."""
    return scipy.linalg.schur(as_matrix(M), output="real")


def _schur_eigenvalues(T) -> np.ndarray:
    """Eigenvalues of a standardized real Schur form, in Schur order: the
    block ``[[a, b], [c, a]]`` holds ``a +- i sqrt(-bc)``."""
    lam = np.diag(T).astype(complex)
    i = np.flatnonzero(np.diag(T, -1))
    mu = np.sqrt(-T[i, i + 1] * T[i + 1, i])
    lam[i] += 1j * mu
    lam[i + 1] -= 1j * mu
    return lam


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


# Higham & Lin (SIMAX 32(3), 2011, Table 2.1): the degree-m Pade
# approximant of (1 - x)**alpha is accurate to unit roundoff for
# ||X||_1 <= theta_m, m = 1..7
_PADE_THETA = (1.51e-5, 2.24e-3, 1.88e-2, 6.04e-2, 0.124, 0.200, 0.279)
# largest diagonal block that a leaf dtrsyl or LU solve takes whole
_LEAF = 64


def _split(sub) -> int:
    """Row near the middle of a quasi triangular matrix of order
    ``len(sub) + 1`` that starts a diagonal block; ``sub`` flags its
    nonzero subdiagonal entries, and no two adjacent ones are set."""
    h = (len(sub) + 1) // 2
    return h + int(sub[h - 1])


def _sylvester(A, B, C, sub_a, sub_b) -> np.ndarray:
    """X with ``A X + X B = C`` for quasi upper triangular ``A`` and ``B``:
    recursive and blocked (Jonsson & Kagstrom, ACM TOMS 28(4), 2002), the
    larger dimension split until ``dtrsyl`` takes a leaf of at most
    ``_LEAF`` rows and columns."""
    m, n = C.shape
    if max(m, n) <= _LEAF:
        X, scale, info = lapack.dtrsyl(A, B, C)
        if info != 0 or scale == 0.0:
            raise NumericalError(f"Sylvester solve of a square root failed "
                                 f"(info={info}, scale={scale})")
        return X / scale
    if m >= n:
        h = _split(sub_a)
        X2 = _sylvester(A[h:, h:], B, C[h:], sub_a[h:], sub_b)
        X1 = _sylvester(A[:h, :h], B, C[:h] - A[:h, h:] @ X2,
                        sub_a[:h - 1], sub_b)
        return np.vstack((X1, X2))
    h = _split(sub_b)
    X1 = _sylvester(A, B[:h, :h], C[:, :h], sub_a, sub_b[:h - 1])
    X2 = _sylvester(A, B[h:, h:], C[:, h:] - X1 @ B[:h, h:], sub_a,
                    sub_b[h:])
    return np.hstack((X1, X2))


def _sqrt_quasi(T, sub) -> np.ndarray:
    """Principal square root of a quasi upper triangular ``T``, recursive
    and blocked (Deadman, Higham & Ralha, PARA 2012): the roots of the two
    diagonal halves, coupled by ``R11 X + X R22 = T12``.  A standardized
    block ``a I + N`` with eigenvalues ``a +- i mu`` has the root
    ``r I + N / (2 r)``, ``r = Re sqrt(a + i mu)``."""
    p = T.shape[0]
    if p == 1:
        return np.sqrt(T)
    if p == 2 and sub[0]:
        r = cmath.sqrt(complex(T[0, 0], math.sqrt(-T[0, 1] * T[1, 0]))).real
        return np.array([[r, T[0, 1] / (2 * r)], [T[1, 0] / (2 * r), r]])
    h = _split(sub)
    R = np.zeros_like(T)
    R[:h, :h] = _sqrt_quasi(T[:h, :h], sub[:h - 1])
    R[h:, h:] = _sqrt_quasi(T[h:, h:], sub[h:])
    R[:h, h:] = _sylvester(R[:h, :h], R[h:, h:], T[:h, h:], sub[:h - 1],
                           sub[h:])
    return R


def _solve_quasi(A, B, sub) -> np.ndarray:
    """``A^{-1} B`` for quasi upper triangular ``A`` and ``B`` of the same
    block pattern, by block back-substitution over row blocks of at most
    ``_LEAF`` rows that do not cut a 2x2 block, with an LU solve on each
    diagonal block.  The result has that pattern too, so block row
    ``lo:hi`` starts at column ``lo``."""
    p = A.shape[0]
    cuts = [0]
    while cuts[-1] < p:
        end = min(cuts[-1] + _LEAF, p)
        cuts.append(end - int(end < p and sub[end - 1]))
    Y = np.zeros_like(B)
    for lo, hi in reversed(list(zip(cuts, cuts[1:]))):
        Y[lo:hi, lo:] = np.linalg.solve(
            A[lo:hi, lo:hi], B[lo:hi, lo:] - A[lo:hi, hi:] @ Y[hi:, lo:])
    return Y


def _pade_coefficient(j, alpha) -> float:
    """Coefficient ``c_j`` of the continued fraction for (1 - x)**alpha
    (Higham & Lin 2011, eq. (4.1))."""
    if j == 1:
        return -alpha
    i = j // 2
    if j % 2 == 0:
        return (alpha - i) / (2 * (2 * i - 1))
    return (-alpha - i) / (2 * (2 * i + 1))


def _atomic_power(T, alpha) -> tuple[np.ndarray, int, int]:
    """Principal power of a nonsingular quasi upper triangular block, with
    its square-root count ``s`` and Pade degree ``m``.

    Inverse scaling and squaring (Higham & Lin, SIMAX 32(3), 2011): ``s``
    blocked square roots bring ``X = I - T^(1/2^s)`` to
    ``||X||_1 <= theta_7``; ``m`` is the smallest degree with
    ``theta_m >= ||X||_1``; the degree-m Pade approximant of
    ``(I - X)**alpha`` is evaluated bottom up as a continued fraction by
    quasi triangular solves and squared ``s`` times.  ``alpha = 1`` returns
    the block and a 1x1 block is ``t**alpha``, both with ``s = m = 0``.
    """
    p = T.shape[0]
    if alpha == 1.0:
        return T, 0, 0
    if p == 1:
        return T ** alpha, 0, 0
    sub = np.diag(T, -1) != 0
    ident = np.eye(p)
    R, X, s = T, ident - T, 0
    while not (norm := float(np.abs(X).sum(axis=0).max())) <= _PADE_THETA[-1]:
        if not np.isfinite(norm):
            raise NumericalError("atomic block square root produced "
                                 "non-finite entries")
        R = _sqrt_quasi(R, sub)
        X = ident - R
        s += 1
    m = next(m for m, theta in enumerate(_PADE_THETA, 1) if norm <= theta)
    Y = _pade_coefficient(2 * m, alpha) * X
    for j in range(2 * m - 1, 0, -1):
        Y = _solve_quasi(ident + Y, _pade_coefficient(j, alpha) * X, sub)
    F = ident + Y
    for _ in range(s):
        F = F @ F
    if not np.all(np.isfinite(F)):
        raise NumericalError("atomic block power produced non-finite entries")
    return F, s, m


def fractional_power_general(M, alpha) -> FractionalPowerResult:
    """M^alpha for a real matrix with spectrum in the closed right
    half-plane (singular M-matrices included), in real arithmetic.

    One real Schur form T, reordered by ``dtrsen`` so that the k
    eigenvalues with |lambda| <= n * eps * rho(M) come first.  With
    T = [[T0, T01], [0, T1]], the result in Schur coordinates is
    F = [[0, X], [0, T1^alpha]]: the zero cluster maps exactly to 0, the
    nonsingular block T1 gets its principal power by inverse scaling and
    squaring (`_atomic_power`), and the coupling X solves the Sylvester
    equation T0 X - X T1 = -T01 T1^alpha that FT = TF imposes (the
    two-block Parlett step).  Rows and columns where ``M`` is zero are
    exactly zero in the result.
    """
    alpha = _check_alpha(alpha)
    A = as_matrix(M)
    n = A.shape[0]
    T, Z = schur_spectral_data(A)
    lam = _schur_eigenvalues(T)

    ztol = _zero_tolerance(lam)
    zero_mask = np.abs(lam) <= ztol
    floor = -10.0 * ztol
    # the principal branch excludes the closed negative real axis
    bad = (~zero_mask) & ((lam.real < floor)
                          | ((lam.real < 0) & (lam.imag == 0)))
    if np.any(bad):
        worst = lam[bad][np.argmin(lam[bad].real)]
        raise NumericalError(
            f"eigenvalue {worst!r} outside the principal-branch domain "
            f"(real-part floor {floor:.3e})"
        )

    k = int(zero_mask.sum())
    F = np.zeros_like(T)
    roots = degree = 0
    if k < n:
        if k:
            T, Z, _, _, m, _, _, info = lapack.dtrsen(
                zero_mask.astype(np.int32), T, Z, job="N")
            if info != 0 or m != k:
                raise NumericalError(
                    f"Schur reordering failed (info={info}, "
                    f"{m} of {k} zero eigenvalues moved)"
                )
            lam = _schur_eigenvalues(T)
        F[k:, k:], roots, degree = _atomic_power(T[k:, k:], alpha)
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                C = -T[:k, k:] @ F[k:, k:]
            if not np.isfinite(C).all():
                raise NumericalError("the coupling's right-hand side "
                                     "T01 T1^alpha overflows")
            X, scale, info = lapack.dtrsyl(T[:k, :k], T[k:, k:], C, isgn=-1)
            if info != 0 or scale == 0.0:
                raise NumericalError(
                    "Parlett recurrence breakdown between the zero cluster "
                    f"and the nonzero block (eigenvalue near {lam[k]!r})"
                )
            F[:k, k:] = X / scale

    with np.errstate(over="ignore", invalid="ignore"):
        R = Z @ F @ Z.T
    if not np.isfinite(R).all():
        raise NumericalError("the back-transform Z F Z^T of L^alpha "
                             "overflows")
    # a zero row (column) of M is a left (right) null vector, which the
    # power maps to 0 exactly; Schur roundoff there would make an
    # absorbing node look live
    R[~A.any(axis=1)] = 0.0
    R[:, ~A.any(axis=0)] = 0.0
    return FractionalPowerResult(matrix=R, alpha=alpha,
                                 zero_cluster=tuple(range(k)),
                                 method="schur-parlett", eigenvalues=lam,
                                 square_roots=roots, pade_degree=degree)


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
    """Truncated binomial series rho^alpha * sum_k (-1)^k binom(alpha,k)
    (B/rho)^k over k <= terms, with B = rho I - L, rho = max diagonal degree
    and the binomials of :func:`binomial_coefficients`.

    Valid for combinatorial Laplacians (checked: nonpositive off-diagonal,
    nonnegative diagonal, zero row sums).  Returns the partial sum and the
    remainder estimate rho^alpha * |sum of the signed coefficients|.
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

    signed = (-1.0) ** np.arange(terms + 1) \
        * binomial_coefficients(alpha, terms + 1)
    Bs = np.eye(n) - A / rho          # B / rho, row-stochastic and nonnegative
    S = np.eye(n)
    P = np.eye(n)
    for coeff in signed[1:]:
        P = P @ Bs
        S += coeff * P
    remainder = float(rho ** alpha * abs(signed.sum()))
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
