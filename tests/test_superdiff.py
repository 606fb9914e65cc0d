import gc
import weakref

import numpy as np
import pytest
from scipy.special import expit

from fraclap import superdiff
from fraclap.errors import ConvergenceError, NumericalError
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


@pytest.mark.parametrize("bracket", [(-1.0, 1.0), (-10.0, 1.5), (0.0, 10.0)])
def test_fwhm_widens_a_bracket_that_cuts_the_profile(bracket):
    gauss = StableParams(2.0, 0.0, 1.0)
    assert fwhm(lambda x: stable_density(gauss, x), bracket) == \
        pytest.approx(4.0 * np.sqrt(np.log(2.0)), abs=1e-9)


def test_superdiffusion_exponent_samples_each_profile_once(monkeypatch):
    # one coarse sample per time; every later call is a single point
    multi = []
    real = LatticeSolution.__call__

    def spy(self, t, z):
        if np.size(z) > 1:
            multi.append(t)
        return real(self, t, z)

    monkeypatch.setattr(LatticeSolution, "__call__", spy)
    ts = np.geomspace(100.0, 1e3, 5)
    superdiffusion_exponent(1.0, "undirected", ts, samples=33)
    assert multi == list(ts)


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


def scratch_tanh_sinh(weight, cut, z, n):
    # one tanh-sinh pass built from nothing: trapezoid in u on [-U, U]
    # under x = cut * expit(pi sinh u), half-line form (1/pi) Re
    u = np.linspace(-superdiff._U, superdiff._U, n + 1)
    s = np.pi * np.sinh(u)
    x = cut * expit(s)
    jac = cut * np.pi * np.cosh(u) * expit(s) * expit(-s)
    w = np.asarray(weight(x), dtype=complex) * jac
    w[[0, -1]] *= 0.5
    return (w @ np.exp(-1j * np.outer(x, z))).real \
        * (2.0 * superdiff._U / n) / np.pi


def nested_passes_match_scratch_passes(make_rule):
    # at each tolerance a fresh rule returns the scratch pass at the finest
    # interval count it reached, and stores exactly that pass's nodes
    z = np.array([0.0, 3.5, -7.0, 20.0])
    reached = []
    for tol in (1e-3, 1e-4, 1e-5, 1e-6):
        rule = make_rule()
        vals = rule(z, tol)
        ref = scratch_tanh_sinh(rule.weight, rule.cut, z, rule.n)
        assert np.abs(vals - ref).max() < 1e-14, rule.n
        u = np.linspace(-superdiff._U, superdiff._U, rule.n + 1)
        assert np.array_equal(rule.x, rule._nodes(u)[0])
        reached.append(rule.n)
    return reached


@pytest.mark.parametrize("alpha, orientation", [
    (0.5, "undirected"), (0.75, "undirected"), (0.9, "directed")])
def test_nested_passes_match_scratch_passes(alpha, orientation):
    nested_passes_match_scratch_passes(
        lambda: LatticeSolution(alpha, orientation)._rule(20.0))


def test_nested_passes_match_scratch_passes_after_many_doublings():
    # an interior kink slows the rule to algebraic convergence, so the
    # tolerances above need several doublings each, up to 65536 intervals
    reached = nested_passes_match_scratch_passes(
        lambda: superdiff._HalfLineRule(lambda x: np.sqrt(np.abs(x - 1.0)),
                                        2.0))
    assert reached == sorted(set(reached)) and reached[-1] >= 256 * 32


@pytest.mark.parametrize("orientation", ["undirected", "directed"])
def test_lattice_weights_are_conjugate_symmetric(orientation):
    # the half-line rule computes (1/pi) Re int_0^cut, which equals the
    # full-line integral only if w(-x) = conj(w(x))
    x = np.linspace(0.0, np.pi, 101)
    for alpha in (0.3, 0.5, 0.75, 0.9, 1.0):
        h = lattice_symbol(alpha, orientation, x)
        assert np.array_equal(lattice_symbol(alpha, orientation, -x),
                              np.conj(h))
        weight = LatticeSolution(alpha, orientation)._rule(50.0).weight
        assert np.array_equal(weight(-x), np.conj(weight(x)))


def test_stable_characteristic_is_conjugate_symmetric():
    z = np.linspace(0.0, 30.0, 101)
    for params in [(0.5, 1.0, 1.0), (0.75, 1.0, 0.3), (1.5, 1.0, 2.0),
                   (1.0, 0.0, 1.0), (1.3, 0.0, 0.7), (2.0, 0.0, 1.0)]:
        phi = StableParams(*params).characteristic
        assert np.array_equal(phi(-z), np.conj(phi(z))), params


# Values of the full-line trapezoid rule with the |x|**(1/p) substitution
# that the half-line rule replaced, at the default tol = 1e-10.  Each
# lattice case is (orientation, alpha, t, z, u(t)_z).
PARENT_LATTICE = [
    ("undirected", 0.5, 10.0, (-20.0, 0.0, 5.0, 10.0, 30.0),
     (0.006365305733748007, 0.031912486564004555,
      0.025449724662836827, 0.015895723395815742,
      0.00318332113078032)),
    ("undirected", 0.5, 1000.0, (-2000.0, 0.0, 500.0, 1000.0, 3000.0),
     (6.366198944225113e-05, 0.0003183099788582535,
      0.00025464790778348336, 0.00015915493629434864,
      3.183100193784147e-05)),
    ("undirected", 0.75, 10.0, (-9.3, 0.0, 2.3, 4.6, 13.9),
     (0.018074073038491425, 0.062180304778819834,
      0.056736805676374416, 0.043712679500753304,
      0.0068278489885550235)),
    ("undirected", 0.75, 1000.0, (-200.0, 0.0, 50.0, 100.0, 300.0),
     (0.0008453886678257465, 0.002873554049643207,
      0.0026229817607861627, 0.0020203741224619686,
      0.0003150948124804)),
    ("undirected", 1.0, 10.0, (-6.3, 0.0, 1.6, 3.2, 9.5),
     (0.032725528129714646, 0.08978031188482596,
      0.08407516485991276, 0.06907712971684876,
      0.00927724487732955)),
    ("undirected", 1.0, 1000.0, (-63.2, 0.0, 15.8, 31.6, 94.9),
     (0.003286099994682624, 0.008921178276439741,
      0.008381297586350043, 0.0069499244468584544,
      0.0009387417521550098)),
    ("directed", 0.5, 10.0, (-50.0, 0.0, 25.0, 100.0, 400.0),
     (-9.701269616055337e-12, 4.53999200612148e-05,
      0.008097224724230403, 0.002197581860946712,
      0.0003314890083802142)),
    ("directed", 0.5, 1000.0, (-500000.0, 0.0, 250000.0, 1000000.0, 4000000.0),
     (-8.167635055977123e-16, -8.167876187410969e-16,
      8.302129184889723e-07, 2.1969565078250297e-07,
      3.3125443071522654e-08)),
    ("directed", 0.75, 10.0, (-10.8, 0.0, 5.4, 21.5, 86.2),
     (1.7378758673814678e-09, 4.539992006121764e-05,
      0.015196504236804721, 0.021569455691885113,
      0.0012165311919128154)),
    ("directed", 0.75, 1000.0, (-5000.0, 0.0, 2500.0, 10000.0, 40000.0),
     (-6.875776746962875e-13, -6.875773874198188e-13,
      1.7821716658174155e-06, 4.5497687371931165e-05,
      2.5897392952565204e-06)),
    ("directed", 0.9, 10.0, (-6.5, 0.0, 3.2, 12.9, 51.7),
     (2.5736156066832458e-09, 4.539992006118923e-05,
      0.00689341350406339, 0.06776469797405396,
      0.000921546291164238)),
    ("directed", 0.9, 1000.0, (-1077.2, 0.0, 538.6, 2154.4, 8617.7),
     (-8.270695562614679e-12, -8.27069604616276e-12,
      -8.270695891574415e-12, 0.0004223981698554287,
      5.319249028995346e-06)),
]
PARENT_STABLE = [
    ((1.0, 0.0, 1.0),
     (0.03183098864344885, 0.254647908972127, 0.3183098862088268,
      0.2136307961215872, 0.06366197726184215, 0.008602969921928896)),
    ((2.0, 0.0, 1.0),
     (0.029732572305907326, 0.26500353234402896, 0.2820947917738781,
      0.24957092803615266, 0.10377687435514872, 3.481326298692067e-05)),
    ((0.5, 1.0, 1.0),
     (0.0, 0.0, 0.0,
      0.33346684574730817, 0.10984782235439351, 0.024974222879140938)),
    ((0.75, 1.0, 0.3),
     (0.0, 0.0, 0.0,
      0.8791348147525191, 0.1166517857566972, 0.012544148992415061)),
]


@pytest.mark.parametrize("orientation, alpha, t, z, expected", [
    pytest.param(*case, id=f"{case[0]}-{case[1]:g}-t{case[2]:g}")
    for case in PARENT_LATTICE])
def test_lattice_solution_matches_the_full_line_rule(orientation, alpha, t, z,
                                                     expected):
    got = lattice_solution(alpha, orientation, t, np.array(z))
    assert np.abs(got - np.array(expected)).max() < 1e-10


@pytest.mark.parametrize("params, expected", [
    pytest.param(*case, id="-".join(f"{v:g}" for v in case[0]))
    for case in PARENT_STABLE])
def test_stable_density_matches_the_full_line_rule(params, expected):
    xi = np.array([-3.0, -0.5, 0.0, 0.7, 2.0, 6.0])
    got = stable_density(StableParams(*params), xi)
    assert np.abs(got - np.array(expected)).max() < 1e-10


def levy_density(c, x):
    # StableParams(0.5, 1.0, c): sqrt(c/2pi) x^(-3/2) exp(-c/2x) on x > 0
    x = np.asarray(x, dtype=float)
    xp = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.sqrt(c / (2.0 * np.pi)) * xp ** -1.5
                    * np.exp(-c / (2.0 * xp)), 0.0)


@pytest.mark.parametrize("c", [0.3, 1.0, 2.0])
def test_skewed_stable_density_matches_levy_closed_form(c):
    xi = np.linspace(-2.0, 8.0, 101)
    got = stable_density(StableParams(0.5, 1.0, c), xi)
    assert np.abs(got - levy_density(c, xi)).max() < 1e-12


def test_quadrature_stuck_at_the_node_cap_raises(monkeypatch):
    monkeypatch.setattr(superdiff, "NODE_CAP", 16)
    stuck = r"quadrature stuck at residual \d\.\d{3}e[-+]\d+ with 16 intervals"
    with pytest.raises(ConvergenceError, match=stuck):
        lattice_solution(0.5, "directed", 100.0, np.array([0.0, 5e3]))
    with pytest.raises(ConvergenceError, match=stuck):
        stable_density(StableParams(0.5, 1.0, 0.5), np.linspace(0.1, 5, 11))


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
    (t, rule), (_, ref) = sol._cache, fresh._cache
    assert t == 50.0 and rule.n == ref.n
    calls.clear()
    sol(200.0, 12.25)
    assert calls


def test_dropped_solution_frees_its_grid_without_the_collector():
    sol = LatticeSolution(0.9, "directed")
    sol(50.0, 3.0)
    rule = weakref.ref(sol._cache[1])
    gc.disable()
    try:
        del sol
        assert rule() is None
    finally:
        gc.enable()


@pytest.fixture
def no_quadrature(monkeypatch):
    # every pass starts by refining the rule's nodes; the rule's own
    # point check runs before that
    def fail(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(superdiff._HalfLineRule, "_stride", fail)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_are_rejected_before_quadrature(no_quadrature, bad):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        StableParams(alpha=1.5, beta=0.0, gamma=bad)
    with pytest.raises(ValueError, match=f"t must be .* finite, got {bad}"):
        lattice_solution(0.5, "undirected", bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        LatticeSolution(0.9, "directed")(bad, np.array([1.0, 2.0]))
    ts = np.geomspace(10.0, 1e4, 5)
    ts[2] = bad
    with pytest.raises(ValueError, match="finite"):
        superdiffusion_exponent(0.5, "undirected", ts)
    with pytest.raises(ValueError, match="finite"):
        superdiffusion_exponent(0.5, "undirected",
                                np.geomspace(10.0, 1e4, 5) * [1, 1, 1, 1, bad])
    with pytest.raises(ValueError, match="finite"):
        verify_stable_limit(0.5, "directed", [10.0, 100.0, bad])
    with pytest.raises(ValueError, match=f"point {bad} at index 1 is not"):
        lattice_solution(0.5, "undirected", 10.0, np.array([0.0, bad]))
    with pytest.raises(ValueError, match=f"point {bad} at index 1 is not"):
        stable_density(StableParams(1.5, 0.0, 1.0), [0.0, bad, 1.0])
    for t in (bad, 0.0, -1.0):
        with pytest.raises(ValueError,
                           match=f"t must be positive and finite, got {t}"):
            lattice_window_stats(0.5, "undirected", t, 10)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_bad_tol_is_rejected_before_quadrature(no_quadrature, tol):
    bad = f"tol must be positive and finite, got {tol}"
    with pytest.raises(ValueError, match=bad):
        LatticeSolution(0.5, "undirected", tol=tol)
    with pytest.raises(ValueError, match=bad):
        superdiffusion_exponent(0.5, "undirected", np.geomspace(10.0, 1e4, 5),
                                tol=tol)
    calls = []
    with pytest.raises(ValueError, match=bad):
        fwhm(calls.append, (-1.0, 1.0), tol=tol)
    assert calls == []


def test_empty_evaluation_points_give_empty_arrays():
    out = lattice_solution(0.5, "undirected", 10.0, np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)
    gauss = StableParams(alpha=2.0, beta=0.0, gamma=1.0)
    out = stable_density(gauss, np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)
