import gc
import weakref

import numpy as np
import pytest

from fraclap import superdiff
from fraclap.errors import NumericalError
from fraclap.superdiff import (LatticeSolution, StableParams, fwhm,
                               lattice_solution, lattice_symbol,
                               lattice_window_stats, stable_density,
                               stable_limit_params, superdiffusion_exponent,
                               verify_stable_limit)


def circulant_route(alpha, orientation, t, zs, n):
    # finite-cycle solution via FFT; conjugate symbol puts mass at +z
    h = lattice_symbol(alpha, orientation, 2 * np.pi * np.arange(n) / n)
    coeff = np.fft.ifft(np.exp(-t * np.conj(h)))
    return np.array([coeff[z % n].real for z in zs])


def test_symbol_closed_forms():
    x = np.array([0.0, 1.0, np.pi])
    und = lattice_symbol(0.5, "undirected", x)
    assert np.allclose(und, np.sqrt(2.0 - 2.0 * np.cos(x)))
    assert und[2] == pytest.approx(2.0, abs=1e-14)
    dr = lattice_symbol(0.5, "directed", x)
    assert np.allclose(dr, (1.0 - np.exp(1j * x)) ** 0.5)
    assert dr[0] == 0.0
    assert dr.real.min() >= 0.0          # principal branch, stable semigroup


def test_solution_initial_condition():
    for orientation in ("undirected", "directed"):
        assert lattice_solution(0.5, orientation, 1e-8, 0) == pytest.approx(1.0, abs=1e-6)
        assert abs(lattice_solution(0.5, orientation, 1e-8, 3)) < 1e-6


def test_quadrature_matches_circulant_undirected():
    zs = [0, 1, 5, -5, 20]
    for alpha in (0.5, 0.75):
        lat = np.array([lattice_solution(alpha, "undirected", 10.0, z)
                        for z in zs])
        fin = circulant_route(alpha, "undirected", 10.0, zs, 4096)
        assert np.abs(lat - fin).max() < 1e-6


def test_quadrature_matches_circulant_directed():
    zs = [0, 1, 5, 20]
    for alpha in (0.5, 0.75):
        lat = np.array([lattice_solution(alpha, "directed", 10.0, z)
                        for z in zs])
        fin = circulant_route(alpha, "directed", 10.0, zs, 65536)
        assert np.abs(lat - fin).max() < 1e-6
        # coarse cycle differs only by the wrap-in of the t*d^(-1-alpha) tail
        t = 50.0
        lat = np.array([lattice_solution(alpha, "directed", t, z)
                        for z in zs])
        fin = circulant_route(alpha, "directed", t, zs, 4096)
        tol = 10.0 * t * 4096.0 ** (-1.0 - alpha) + 1e-6
        assert np.abs(lat - fin).max() < tol


def test_window_mass_conservation_feasible_cases():
    st = lattice_window_stats(0.5, "undirected", 1.0, 200000)
    assert abs(st.mass - 1.0) < 1e-5
    st = lattice_window_stats(0.75, "undirected", 1.0, 20000)
    assert abs(st.mass - 1.0) < 1e-6
    for orientation in ("undirected", "directed"):
        st = lattice_window_stats(1.0, orientation, 1.0, 400)
        assert abs(st.mass - 1.0) < 1e-12
        assert st.min_entry > -1e-15


def test_directed_mass_approaches_one_at_tail_order():
    # window deficit shrinks like kmax^-alpha for the one-sided chain
    alpha = 0.5
    deficits = [1.0 - lattice_window_stats(alpha, "directed", 1.0, k).mass
                for k in (10000, 40000, 160000)]
    assert deficits[0] > deficits[1] > deficits[2] > 0
    order = np.log(deficits[0] / deficits[2]) / np.log(16.0)
    assert abs(order - alpha) < 0.05


def test_stable_density_golden_values():
    assert stable_density(StableParams(2.0, 0.0, 1.0), 0.0) == pytest.approx(
        1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-9)
    assert stable_density(StableParams(1.0, 0.0, 1.0), 0.0) == pytest.approx(
        1.0 / np.pi, abs=1e-9)
    # Cauchy closed form away from the origin
    xs = np.array([0.5, 1.0, 3.0])
    got = stable_density(StableParams(1.0, 0.0, 1.0), xs)
    assert np.abs(got - 1.0 / (np.pi * (1.0 + xs**2))).max() < 1e-9


def test_fwhm_golden_values():
    gauss = StableParams(2.0, 0.0, 1.0)
    assert fwhm(lambda x: stable_density(gauss, x), (-10, 10)) == \
        pytest.approx(4.0 * np.sqrt(np.log(2.0)), abs=1e-9)
    cauchy = StableParams(1.0, 0.0, 1.0)
    assert fwhm(lambda x: stable_density(cauchy, x), (-30, 30)) == \
        pytest.approx(2.0, abs=1e-9)


def test_fwhm_rejects_flat_input():
    with pytest.raises(ValueError):
        fwhm(lambda x: np.ones_like(np.asarray(x, dtype=float)), (-1, 1))


def test_stable_limit_index_map():
    p = stable_limit_params(0.5, "undirected")
    assert (p.alpha, p.beta) == (1.0, 0.0)
    p = stable_limit_params(0.75, "undirected")
    assert (p.alpha, p.beta) == (1.5, 0.0)
    p = stable_limit_params(0.5, "directed")
    assert (p.alpha, p.beta) == (0.5, 1.0)


def test_rescaled_solution_approaches_stable_density():
    rep = verify_stable_limit(0.5, "undirected", [10.0, 100.0])
    assert rep.strictly_decreasing
    assert rep.errors[-1] < 1e-4


def test_superdiffusion_exponent_matches_diffusive_case():
    fit = superdiffusion_exponent(1.0, "undirected", np.logspace(1, 3, 5))
    assert abs(fit.exponent - 1.0) < 0.05
    assert fit.expected == 1.0
    assert fit.r_squared > 0.999


def test_superdiffusion_exponent_grid_validation():
    for bad in ([10.0, 100.0],                       # too few points
                np.linspace(10, 2000, 5),            # not geometric
                np.logspace(0, 2, 5)):               # largest time too small
        with pytest.raises(ValueError):
            superdiffusion_exponent(0.5, "undirected", bad)


def test_width_matches_cauchy_limit():
    # two-sided alpha=0.5 rescales to a Cauchy profile of scale t
    t = 1000.0
    sol = LatticeSolution(0.5, "undirected")
    width = fwhm(lambda z: sol(t, z), (-20.0 * t, 20.0 * t))
    assert abs(width / (2.0 * t) - 1.0) < 0.05


def test_fwhm_rejects_unresolved_peak():
    # golden-section search lifts the peak above twice the best sample
    with pytest.raises(ValueError, match="peak not resolved"):
        fwhm(lambda x: np.exp(-((np.asarray(x, float) - 0.3) / 0.1) ** 2),
             (-1, 1), samples=5)


def test_superdiffusion_exponent_names_failing_time():
    with pytest.raises(NumericalError, match=r"t = 500, alpha = 0\.95"):
        superdiffusion_exponent(0.95, "directed", np.geomspace(500, 1e3, 5),
                                samples=33)


def scratch_trapezoid(weight, cut, p, z, n):
    # one trapezoid pass built from nothing, in y = sign(x)|x|^(1/p)
    yc = cut ** (1.0 / p)
    y = np.linspace(-yc, yc, n + 1)
    x = np.sign(y) * np.abs(y) ** p
    w = np.asarray(weight(x), dtype=complex) * (p * np.abs(y) ** (p - 1))
    w[[0, -1]] *= 0.5
    return (w @ np.exp(-1j * np.outer(x, z))) * (2.0 * yc / n) / (2 * np.pi)


@pytest.mark.parametrize("alpha, orientation, p", [
    (0.5, "undirected", 1), (0.75, "undirected", 1), (0.9, "directed", 2)])
def test_nested_passes_match_scratch_passes(alpha, orientation, p):
    grid = LatticeSolution(alpha, orientation)._grid(20.0)
    assert grid.p == p
    z = np.array([0.0, 3.5, -7.0, 20.0])
    levels = superdiff._nested_trapezoid(grid, z, 256)
    for _ in range(6):
        n, vals = next(levels)
        ref = scratch_trapezoid(grid.weight, grid.cut, p, z, n)
        assert np.abs(vals - ref).max() < 1e-14, n
        y = np.linspace(-grid.yc, grid.yc, n + 1)
        assert np.array_equal(grid.level(n)[0], np.sign(y) * np.abs(y) ** p)
    assert n == 256 * 32


def counting_symbol(monkeypatch):
    calls = []
    real = superdiff.lattice_symbol

    def symbol(alpha, orientation, x):
        calls.append(np.size(x))
        return real(alpha, orientation, x)

    monkeypatch.setattr(superdiff, "lattice_symbol", symbol)
    return calls


@pytest.mark.parametrize("alpha, orientation", [
    (0.75, "undirected"), (0.9, "directed")])
def test_same_time_calls_reuse_the_grid(monkeypatch, alpha, orientation):
    calls = counting_symbol(monkeypatch)
    sol = LatticeSolution(alpha, orientation)
    sol(200.0, np.linspace(-30.0, 30.0, 41))
    assert calls
    calls.clear()
    again = [sol(200.0, 12.25), sol(200.0, np.array([-30.0, 0.5, 29.0]))]
    assert calls == []
    fresh = LatticeSolution(alpha, orientation)
    assert again[0] == pytest.approx(fresh(200.0, 12.25), abs=1e-14)
    assert sol == fresh and hash(sol) == hash(fresh)


def test_new_time_drops_the_old_grid(monkeypatch):
    calls = counting_symbol(monkeypatch)
    sol = LatticeSolution(0.9, "directed")
    sol(200.0, np.linspace(-30.0, 30.0, 41))
    sol(50.0, 3.0)
    fresh = LatticeSolution(0.9, "directed")
    fresh(50.0, 3.0)
    (t, grid), (_, ref) = sol._cache, fresh._cache
    assert t == 50.0 and grid.n == ref.n
    calls.clear()
    sol(200.0, 12.25)
    assert calls


def test_dropped_solution_frees_its_grid_without_the_collector():
    sol = LatticeSolution(0.9, "directed")
    sol(50.0, 3.0)
    grid = weakref.ref(sol._cache[1])
    gc.disable()
    try:
        del sol
        assert grid() is None
    finally:
        gc.enable()
