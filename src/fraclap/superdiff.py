"""Nonlocal dynamics on the infinite path graph.

Solutions of ``u'(t) = -L^alpha u(t)`` on the integer lattice have the
Fourier form ``u(t)_z = (1/2pi) int e^{-izx} exp(-t h(x)) dx`` with the
symbol ``h(x) = (2 - 2cos x)**alpha`` for the two-sided (undirected)
chain and ``h(x) = (1 - exp(ix))**alpha`` for the one-sided (directed)
chain.  Every integrand ``w`` here (both lattice weights and the stable
characteristic functions) satisfies ``w(-x) = conj(w(x))``, so each
inversion is ``(1/pi) Re int_0^cut e^{-izx} w(x) dx``, computed by a
tanh-sinh (double-exponential) rule on the half line, `_HalfLineRule`
(Takahasi & Mori, Publ. RIMS 9, 1974).  This module evaluates those
integrals for real ``z``, inverts stable characteristic functions, compares rescaled
lattice solutions against their stable limit densities, and fits the
growth exponent of the squared full width at half maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, NumericalError

#: -log of the integrand tail magnitude at which the domain is cut.
_TAIL_LOG = float(np.log(1e20))
#: -log of the characteristic-function envelope at which it is cut.
_ENVELOPE_LOG = float(np.log(1e14))
#: Hard cap on quadrature intervals per refinement pass; an inversion
#: that has not met its tolerance at this count raises `ConvergenceError`.
NODE_CAP = 2 ** 22
#: Half-width of the tanh-sinh interval in ``u``; at ``|u| = U`` the
#: Jacobian is about ``cut * 5e-36`` and the smallest node ``cut * 6e-38``.
_U = 4.0
#: Elements per chunk when forming the oscillatory phase matrix.
_CHUNK = 2 ** 22

_ORIENTATIONS = ("undirected", "directed")


def _check_orientation(orientation: str) -> str:
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}")
    return orientation


def _positive(name: str, value) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(math.ceil(math.log2(max(1, n)))))


def lattice_symbol(alpha: float, orientation: str, x) -> np.ndarray:
    """Fourier symbol of the fractional lattice Laplacian.

    Parameters
    ----------
    alpha : float
        Exponent in (0, 1].
    orientation : {'undirected', 'directed'}
        Two-sided chain gives the real symbol ``(2 - 2cos x)**alpha``;
        one-sided gives the principal power ``(1 - exp(1j x))**alpha``.
    x : array_like
        Frequencies.

    Returns
    -------
    numpy.ndarray
        Symbol values, real for the undirected chain.
    """
    _check_orientation(orientation)
    x = np.asarray(x, dtype=float)
    if orientation == "undirected":
        return np.power(2.0 - 2.0 * np.cos(x), alpha)
    return np.power(1.0 - np.exp(1j * x), alpha)


def _directed_symbol_real(alpha: float, x: float) -> float:
    # Re h on [0, pi] in polar form, increasing in x
    return (2.0 * math.sin(x / 2.0)) ** alpha \
        * math.cos(alpha * (x - math.pi) / 2.0)


def _support_cut(alpha: float, orientation: str, t: float) -> float:
    """Smallest x in (0, pi] where t * Re h(x) reaches the tail threshold.

    Beyond the cut the integrand magnitude is below 1e-20, so truncating
    there perturbs the integral by far less than the quadrature
    tolerance while keeping the node count proportional to the width of
    the surviving integrand.
    """
    if orientation == "undirected":
        if t * 4.0 ** alpha <= _TAIL_LOG:
            return math.pi
        v = (_TAIL_LOG / t) ** (1.0 / alpha)
        return math.acos(1.0 - v / 2.0)
    if t * _directed_symbol_real(alpha, math.pi) <= _TAIL_LOG:
        return math.pi
    return _bisect(lambda x: t * _directed_symbol_real(alpha, x) < _TAIL_LOG,
                   0.0, math.pi, 0.0, 90)[1]


def _bisect(inside: Callable[[float], bool], lo: float, hi: float,
            tol: float, steps: int) -> tuple[float, float]:
    """``(lo, hi)`` halved at most ``steps`` times, or until within ``tol``;
    ``inside(lo)`` holds and ``inside(hi)`` does not (either may be larger)."""
    for _ in range(steps):
        if abs(hi - lo) <= tol:
            break
        mid = (lo + hi) / 2.0
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


class _HalfLineRule:
    """Tanh-sinh rule for ``(1/pi) Re int_0^cut e^{-izx} weight(x) dx``:
    the trapezoid rule in ``u`` on [-U, U] under ``x = cut * expit(pi
    sinh u)``, whose double-exponential clustering at both ends absorbs
    the non-smooth behaviour of fractional symbols at ``x = 0``.

    The ``n``-interval node set is every other node of the ``2n`` one.
    The rule stores the finest set it has reached (weights include the
    Jacobian), reads coarser ones by stride, and evaluates ``weight``
    only at new nodes.  Stored nodes are the map of
    ``np.linspace(-U, U, n + 1)``, bit for bit.
    """

    def __init__(self, weight: Callable[[np.ndarray], np.ndarray],
                 cut: float):
        self.weight, self.cut = weight, cut
        self.n = 0
        self.x = self.w = np.empty(0)

    def _nodes(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = math.pi * np.sinh(u)
        # expit(s) from e = exp(-|s|), exact near x = 0 where 1 + tanh cancels
        e = np.exp(-np.abs(s))
        x = self.cut * (np.where(s >= 0.0, 1.0, e) / (1.0 + e))
        jac = (self.cut * math.pi) * np.cosh(u) * e / (1.0 + e) ** 2
        return x, np.asarray(self.weight(x), dtype=complex) * jac

    def _stride(self, n: int) -> int:
        # refine the stored node set to at least n intervals; return the
        # stride of the n-interval set within it
        if self.n == 0:
            self.x, self.w = self._nodes(np.linspace(-_U, _U, n + 1))
            self.n = n
        while self.n < n:
            m = 2 * self.n
            xo, wo = self._nodes(np.arange(1, m, 2) * (2.0 * _U / m) - _U)
            x, w = np.empty(m + 1), np.empty(m + 1, dtype=complex)
            x[::2], x[1::2], w[::2], w[1::2] = self.x, xo, self.w, wo
            self.x, self.w, self.n = x, w, m
        return self.n // n

    def __call__(self, z: np.ndarray, tol: float) -> np.ndarray:
        """The integral at every ``z``.  The first pass has 16 intervals
        per oscillation of ``exp(-izx)`` at the largest ``|z|``, plus 16
        (at least 64, at most ``NODE_CAP // 2``), up to a power of two.
        The count doubles, each pass adding only the new odd nodes'
        phase sum, until two passes agree within ``tol`` at every ``z``;
        at ``NODE_CAP`` intervals `ConvergenceError` is raised.  A
        non-finite ``z`` raises `ValueError` before the first pass.
        """
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            raise ValueError(f"evaluation point {z[bad[0]]} at index "
                             f"{bad[0]} is not finite")
        cycles = float(np.abs(z).max(initial=0.0)) * self.cut / (2 * math.pi)
        n = _next_pow2(min(int(max(64, 16.0 * (1.0 + cycles))), NODE_CAP // 2))
        s = self._stride(n)
        w = self.w[::s].copy()
        w[0] *= 0.5
        w[-1] *= 0.5
        total = _phase_sum(self.x[::s], w, z)
        vals = total.real * ((2.0 * _U / n) / math.pi)
        residual = math.inf
        while n < NODE_CAP:
            n *= 2
            s = self._stride(n)
            total = total + _phase_sum(self.x[s::2 * s], self.w[s::2 * s], z)
            nxt = total.real * ((2.0 * _U / n) / math.pi)
            residual = float(np.abs(nxt - vals).max(initial=0.0))
            vals = nxt
            if residual < tol:
                return vals
        raise ConvergenceError(
            f"quadrature stuck at residual {residual:.3e} with {n} intervals")


def _phase_sum(x: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    # sum_j w_j exp(-i x_j z) for every z, in chunks of at most _CHUNK phases
    out = np.empty(z.shape[0], dtype=complex)
    cols = max(1, _CHUNK // x.shape[0])
    for s in range(0, z.shape[0], cols):
        ph = np.multiply.outer(x, -1j * z[s:s + cols])
        np.exp(ph, out=ph)
        out[s:s + cols] = w @ ph
        del ph  # free this chunk before the next one is allocated
    return out


@dataclass(frozen=True)
class LatticeSolution:
    """Evaluator for the lattice solution ``u(t)_z`` at real indices.

    Each call inverts the Fourier form by the half-line tanh-sinh rule
    `_HalfLineRule` on [0, cut], where ``cut`` is the support cut beyond
    which the weight falls below 1e-20.  The instance caches the rule of
    its latest call's time only.  A later call at the same ``t`` reads
    the rule's coarser node sets by stride and evaluates `lattice_symbol`
    only at nodes not reached before; a call at a new ``t`` drops the old
    rule, so the cache never holds more than one node set of at most
    ``NODE_CAP + 1`` points.  The cache takes no part in equality or
    hashing.

    Parameters
    ----------
    alpha : float
        Exponent in (0, 1].
    orientation : {'undirected', 'directed'}
        Chain orientation.
    tol : float, optional
        Quadrature refinement tolerance, positive and finite.
    """

    alpha: float
    orientation: str
    tol: float = 1e-10
    _cache: tuple = field(default=(None, None), init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        _check_orientation(self.orientation)
        _positive("tol", self.tol)

    def _rule(self, t: float) -> _HalfLineRule:
        cached_t, rule = self._cache
        if cached_t == t:
            return rule
        alpha, orientation = self.alpha, self.orientation

        def weight(x):
            # reads no self: a cycle through the cache would keep every
            # dropped instance's node set alive until the cyclic collector ran
            return np.exp(-t * lattice_symbol(alpha, orientation, x))

        rule = _HalfLineRule(weight, _support_cut(alpha, orientation, t))
        object.__setattr__(self, "_cache", (t, rule))
        return rule

    def __call__(self, t: float, z):
        """Evaluate ``u(t)_z`` for scalar or array ``z``."""
        t = _positive("t", t)
        vals = self._rule(t)(np.atleast_1d(np.asarray(z, dtype=float)),
                             self.tol)
        return vals if np.ndim(z) else float(vals[0])


def lattice_solution(alpha: float, orientation: str, t: float, z):
    """Lattice solution ``u(t)_z``; see `LatticeSolution`.

    Examples
    --------
    >>> round(lattice_solution(0.5, "undirected", 1e-6, 0), 6)
    1.0
    """
    return LatticeSolution(alpha, orientation)(t, z)


@dataclass(frozen=True)
class WindowStats:
    """Integer-index window statistics of a lattice solution.

    Attributes
    ----------
    mass : float
        Sum of ``u(t)_k`` over ``|k| <= kmax``.
    min_entry : float
        Smallest entry in the window (roundoff should keep it above
        -1e-10).
    """

    mass: float
    min_entry: float


def lattice_window_stats(alpha: float, orientation: str, t: float,
                         kmax: int) -> WindowStats:
    """Mass and minimum of ``u(t)_k`` over ``|k| <= kmax``.

    Computed through one FFT of the sampled symbol, which equals the
    solution on a cycle of length ``max(8 * kmax, 4096)`` rounded up to
    a power of two; entries are exact up to the cyclic fold-in of the
    far tails.

    Parameters
    ----------
    alpha, orientation, t :
        As in `lattice_solution`.
    kmax : int
        Window half-width.

    Returns
    -------
    WindowStats
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    t = _positive("t", t)
    n = _next_pow2(max(8 * kmax, 4096))
    x = 2.0 * math.pi * np.arange(n) / n
    # conjugate symbol so coeff[k] pairs with index +k on directed chains
    coeff = np.fft.ifft(np.exp(-t
                               * np.conj(lattice_symbol(alpha, orientation,
                                                        x))))
    worst_imag = float(np.abs(coeff.imag).max())
    if worst_imag > 1e-9:
        raise NumericalError(f"imaginary residue {worst_imag:.3e} in FFT")
    ks = np.arange(-kmax, kmax + 1)
    vals = coeff.real[np.mod(ks, n)]
    return WindowStats(mass=float(vals.sum()), min_entry=float(vals.min()))


@dataclass(frozen=True)
class StableParams:
    """Parameters of a stable distribution with characteristic function
    ``exp(-|gamma z|**alpha (1 - 1j * beta * sign(z) * tan(pi alpha / 2)))``;
    the location is 0.

    Only the symmetric (``beta = 0``) and maximally skewed (``beta = 1``)
    families are supported, and ``alpha = 1`` requires ``beta = 0``
    (the skew correction degenerates there).

    Parameters
    ----------
    alpha : float
        Stability index in (0, 2].
    beta : float
        Skewness, 0 or 1.
    gamma : float
        Positive, finite scale.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.beta not in (0.0, 1.0):
            raise ValueError("only beta in {0, 1} is supported")
        if self.alpha == 1.0 and self.beta != 0.0:
            raise ValueError("alpha = 1 requires beta = 0")
        _positive("gamma", self.gamma)

    def characteristic(self, z) -> np.ndarray:
        """Characteristic function values at real frequencies ``z``."""
        z = np.asarray(z, dtype=float)
        mag = np.power(np.abs(self.gamma * z), self.alpha)
        phase = 1.0 - 1j * self.beta * np.sign(z) * math.tan(
            math.pi * self.alpha / 2.0)
        return np.exp(-mag * phase)


def stable_density(params: StableParams, xi):
    """Stable density by Fourier inversion of its characteristic function,
    refined until two passes agree within 1e-10.

    Parameters
    ----------
    params : StableParams
        Distribution parameters.
    xi : array_like
        Evaluation points.

    Returns
    -------
    float or numpy.ndarray
        Density values; negative roundoff above -1e-9 is clamped to 0.

    Examples
    --------
    >>> gauss = StableParams(alpha=2.0, beta=0.0, gamma=1.0)
    >>> abs(stable_density(gauss, 0.0) - 1.0 / (2.0 * math.sqrt(math.pi)))
    ... < 1e-9
    True
    """
    zmax = _ENVELOPE_LOG ** (1.0 / params.alpha) / params.gamma
    vals = _HalfLineRule(params.characteristic, zmax)(
        np.atleast_1d(np.asarray(xi, dtype=float)), 1e-10)
    if np.any(vals < -1e-9):
        raise NumericalError(
            f"density fell to {vals.min():.3e}, below the roundoff floor")
    vals = np.where(vals < 0.0, 0.0, vals)
    return vals if np.ndim(xi) else float(vals[0])


@dataclass(frozen=True)
class StableLimitReport:
    """Sup-norm distance of rescaled lattice solutions to their limit.

    Attributes
    ----------
    errors : numpy.ndarray
        Sup over the grid of |rescaled solution - limit density| per time.
    strictly_decreasing : bool
        Whether the whole error sequence decreases strictly.
    """

    errors: np.ndarray
    strictly_decreasing: bool


def _spreading_scale(alpha: float, orientation: str) -> float:
    """Exponent ``s`` of the width ``t**s`` of ``u(t)`` on the chain."""
    return 1.0 / (2.0 * alpha) if orientation == "undirected" \
        else 1.0 / alpha


def stable_limit_params(alpha: float, orientation: str) -> StableParams:
    """Limit density parameters for the rescaled lattice solution.

    The two-sided chain rescaled by ``t**(1/(2 alpha))`` tends to the
    symmetric stable density with index ``2 alpha`` and unit scale; the
    one-sided chain rescaled by ``t**(1/alpha)`` tends to the maximally
    skewed density with index ``alpha`` and scale
    ``cos(pi alpha / 2)**(1/alpha)``.
    """
    _check_orientation(orientation)
    if not 0.0 < alpha < 1.0:
        raise ValueError("the stable limit requires alpha in (0, 1)")
    if orientation == "undirected":
        return StableParams(alpha=2.0 * alpha, beta=0.0, gamma=1.0)
    gamma = math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha)
    return StableParams(alpha=alpha, beta=1.0, gamma=gamma)


def _time_grid(t_values, least: int) -> np.ndarray:
    """``t_values`` as an array of at least ``least`` strictly increasing,
    positive and finite times, else ``ValueError``."""
    ts = np.asarray(t_values, dtype=float)
    if ts.ndim != 1 or ts.size < least or not np.all(np.diff(ts) > 0) \
            or not 0 < ts[0] <= ts[-1] < math.inf:
        raise ValueError(f"need at least {least} strictly increasing, "
                         f"positive and finite times, got {ts}")
    return ts


def verify_stable_limit(alpha: float, orientation: str, t_values,
                        xi=None) -> StableLimitReport:
    """Compare rescaled lattice solutions against the stable limit law.

    For each time ``t`` evaluates ``s_t * u(t)_{s_t xi}`` with
    ``s_t = t**(1/(2 alpha))`` (undirected) or ``t**(1/alpha)``
    (directed) on the grid and reports the sup-norm distance to the
    limit density; the distances should shrink as ``t`` grows.

    Parameters
    ----------
    alpha : float
        Exponent in (0, 1).
    orientation : {'undirected', 'directed'}
        Chain orientation.
    t_values : array_like
        Strictly increasing, positive, finite times.
    xi : array_like, optional
        Comparison grid; defaults to 41 points on [-8, 8] (undirected)
        or [-2, 10] (directed, whose limit is supported on the right
        half-line).

    Returns
    -------
    StableLimitReport
    """
    params = stable_limit_params(alpha, orientation)
    ts = _time_grid(t_values, 2)
    if xi is None:
        xi = np.linspace(-8.0, 8.0, 41) if orientation == "undirected" \
            else np.linspace(-2.0, 10.0, 41)
    xi = np.asarray(xi, dtype=float)
    target = np.atleast_1d(stable_density(params, xi))
    scale_exp = _spreading_scale(alpha, orientation)
    solution = LatticeSolution(alpha, orientation)
    errors = np.empty(ts.shape[0])
    for i, t in enumerate(ts):
        st = t ** scale_exp
        r = st * np.atleast_1d(solution(t, st * xi))
        errors[i] = float(np.abs(r - target).max())
    return StableLimitReport(
        errors=errors, strictly_decreasing=bool(np.all(np.diff(errors) < 0)))


def fwhm(evaluator, bracket, *, samples: int = 129,
         tol: float = 1e-10) -> float:
    """Full width at half maximum of a unimodal curve.

    Takes ``samples`` points on the bracket.  While the largest sits on
    an edge, or an edge sample exceeds 0.45 of it, that side moves out by
    0.6 of the current width (low side first, then high side from the new
    low edge) and the bracket is sampled again, at most 8 times.  Then
    sharpens the peak by golden-section search and finds each
    half-maximum crossing by bisection.

    Parameters
    ----------
    evaluator : callable
        Density evaluator, vectorized: maps an ndarray to values of the
        same shape.
    bracket : tuple of float
        Start of the search interval.
    samples : int, optional
        Coarse sample count (at least 5).
    tol : float, optional
        Crossing resolution, positive and finite.

    Returns
    -------
    float
        Width between the two crossings.

    Raises
    ------
    ValueError
        Bad bracket, sample count or tol; peak on the bracket edge after
        8 widenings, non-unimodal samples, a refined peak above twice the
        best sample, or no crossing.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("empty bracket")
    if samples < 5:
        raise ValueError("need at least 5 samples")
    _positive("tol", tol)
    for widenings in range(9):  # the start bracket, then up to 8 wider
        xs = np.linspace(lo, hi, int(samples))
        ys = np.asarray(evaluator(xs), dtype=float)
        k = int(np.argmax(ys))
        low = k == 0 or ys[0] > 0.45 * ys[k]
        high = k == xs.shape[0] - 1 or ys[-1] > 0.45 * ys[k]
        if widenings == 8 or not (low or high):
            break
        if low:
            lo -= 0.6 * (hi - lo)
        if high:
            hi += 0.6 * (hi - lo)

    def f(x: float) -> float:
        return float(np.asarray(evaluator(np.array([x])))[0])

    if k in (0, xs.shape[0] - 1):
        raise ValueError("peak not interior to the bracket")
    # band-limited index extensions ring at ~1e-5 of the peak near empty
    # support, so the floor is relative, with an absolute 1e-9 backstop
    noise = max(1e-4 * float(ys[k]), 1e-9)
    rises = np.diff(ys[:k + 1])
    falls = np.diff(ys[k:])
    if np.any(rises < -noise) or np.any(falls > noise):
        raise ValueError("samples are not unimodal on the bracket")

    # golden-section sharpening of the peak
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(xs[k - 1]), float(xs[k + 1])
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= max(tol, 1e-13):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    peak = max(float(ys[k]), fc, fd)
    half = peak / 2.0
    if ys[k] < half:
        # both crossing searches would start at k and cross over
        raise ValueError("peak not resolved by the coarse samples")

    def crossing(xlo: float, xhi: float) -> float:
        # f(xlo) >= half > f(xhi)
        a, b = _bisect(lambda x: f(x) >= half, xlo, xhi, tol, 200)
        return (a + b) / 2.0

    below_right = np.flatnonzero(ys[k:] < half)
    if below_right.size == 0:
        raise ValueError("no right half-maximum crossing inside the bracket")
    i = k + int(below_right[0])
    right = crossing(float(xs[i - 1]), float(xs[i]))

    below_left = np.flatnonzero(ys[:k + 1] < half)
    if below_left.size == 0:
        raise ValueError("no left half-maximum crossing inside the bracket")
    j = int(below_left[-1])
    return right - crossing(float(xs[j + 1]), float(xs[j]))


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of ``log FWHM**2`` against ``log t``.

    Attributes
    ----------
    alpha : float
        Lattice exponent.
    orientation : str
        Chain orientation.
    times : numpy.ndarray
        Fit abscissae.
    widths : numpy.ndarray
        Full widths at half maximum in lattice units.
    exponent : float
        Fitted slope of ``log FWHM**2`` vs ``log t``.
    r_squared : float
        Fit quality.
    expected : float
        Limit-law prediction, ``1/alpha`` (undirected) or ``2/alpha``
        (directed).
    """

    alpha: float
    orientation: str
    times: np.ndarray
    widths: np.ndarray
    exponent: float
    r_squared: float
    expected: float


def superdiffusion_exponent(alpha: float, orientation: str, t_values, *,
                            samples: int = 129,
                            tol: float = 1e-10) -> ExponentFit:
    """Fit the spreading exponent of the lattice solution.

    Measures the full width at half maximum of ``u(t)`` on a geometric
    time grid in rescaled coordinates, where `fwhm` starts from the
    bracket (-8, 8) (undirected) or (-1, 10) (directed), and fits the
    slope of ``log FWHM**2`` against ``log t``.  Values above 1 flag
    superdiffusive spreading.

    Parameters
    ----------
    alpha : float
        Exponent in (0, 1].
    orientation : {'undirected', 'directed'}
        Chain orientation.
    t_values : array_like
        Geometric grid of finite times, at least 5 points, largest at
        least 1e3.
    samples : int, optional
        Coarse FWHM sample count (at least 5).
    tol : float, optional
        Quadrature and crossing tolerance, positive and finite.

    Returns
    -------
    ExponentFit

    Raises
    ------
    ValueError
        Bad alpha, orientation, grid, sample count or tolerance.
    NumericalError
        No FWHM at some time (naming it), or fit quality below
        r^2 = 0.99.
    """
    solution = LatticeSolution(alpha, orientation, tol=tol)
    if samples < 5:
        raise ValueError("need at least 5 FWHM samples")
    ts = _time_grid(t_values, 5)
    if ts[-1] < 1e3:
        raise ValueError("largest time must be at least 1e3")
    ratios = ts[1:] / ts[:-1]
    if ratios.max() / ratios.min() > 1.02:
        raise ValueError("grid must be geometric (constant ratio within 2%)")
    scale_exp = _spreading_scale(alpha, orientation)
    bracket = (-8.0, 8.0) if orientation == "undirected" else (-1.0, 10.0)
    widths = np.empty(ts.shape[0])
    for i, t in enumerate(ts):
        st = t ** scale_exp

        def g(xi):
            return solution(t, st * np.asarray(xi, dtype=float))

        try:
            widths[i] = fwhm(g, bracket, samples=samples, tol=tol) * st
        except ValueError as exc:
            raise NumericalError(
                f"FWHM of u(t) at t = {t:g}, alpha = {alpha:g} "
                f"({orientation}): {exc}") from exc
    logt = np.log(ts)
    logw2 = 2.0 * np.log(widths)
    slope, intercept = np.polyfit(logt, logw2, 1)
    pred = slope * logt + intercept
    ss_res = float(((logw2 - pred) ** 2).sum())
    ss_tot = float(((logw2 - logw2.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < 0.99:
        raise NumericalError(f"exponent fit r^2 = {r2:.4f} below 0.99")
    return ExponentFit(alpha=float(alpha), orientation=orientation, times=ts,
                       widths=widths, exponent=float(slope),
                       r_squared=float(r2), expected=float(2.0 * scale_exp))
