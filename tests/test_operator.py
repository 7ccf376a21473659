import math
import warnings

import numpy as np
import pytest

from conftest import GAUSSIAN_EIGENVALUES, skewed_well
from zigzagspec import charfn, operator, quadrature
from zigzagspec.errors import (
    DomainError,
    IntegrationError,
    NonSimpleEigenvalueError,
    NotAnEigenvalueError,
    ResolventAtEigenvalueError,
)
from zigzagspec.operator import (
    GridFunction,
    apply_generator,
    apply_resolvent,
    default_grid,
    eigenfunction,
    eigenfunction_table,
    grid_radius,
    inner_product_mu,
    inner_product_nu,
    k_coefficients,
    psi_tilde,
    resolvent_defect,
    spectral_projection,
    z_prime_consistency,
)
from zigzagspec.charfn import gaussian_closed_form
from zigzagspec.perturbation import (
    refreshment_coefficient,
    refreshment_coefficient_symmetric,
)
from zigzagspec.potential import (
    PotentialModel,
    SwitchingRateSpec,
    beta_family,
    custom,
    gaussian,
    parse_potential,
    scale,
)

G1 = GAUSSIAN_EIGENVALUES[1]  # minus branch
G2 = GAUSSIAN_EIGENVALUES[2]  # plus branch
SQRT_2PI = math.sqrt(2.0 * math.pi)


# ------------------------------------------------------------- grids and tails


def test_phi12_matches_mpmath_on_both_sides_of_the_series_switch():
    # below |z| = 0.25 the Horner series takes only the terms the largest |z|
    # needs: check each z alone (fewest terms) and in one mixed array
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    zs = np.array([0.0, 1e-9j, 0.004 - 0.009j, 0.1 + 0.2j, -0.2499, 0.2501j, 0.7 - 1.3j])
    p1, p2 = operator._phi12(zs)
    for i, z in enumerate(zs):
        zm = mpmath.mpc(z)
        e1 = (mpmath.exp(zm) - 1) / zm if z else mpmath.mpf(1)
        e2 = (mpmath.exp(zm) * (zm - 1) + 1) / zm**2 if z else mpmath.mpf(0.5)
        (a,), (b,) = operator._phi12(zs[i : i + 1])
        for got, want, tol in ((a, e1, 1e-15), (b, e2, 4e-15), (p1[i], e1, 1e-15), (p2[i], e2, 4e-15)):
            assert abs(got - complex(want)) <= tol * abs(complex(want))


def test_grid_radius_gaussian(gaussian_potential):
    # smallest 1/256 lattice point with U > 14 log 10, i.e. x^2/2 > 32.24
    assert grid_radius(gaussian_potential) == 8.03125
    # the same lattice point across families, widths and custom wells, as a
    # x1.25 march bracketing U = 14 log 10 and 60 bisections found them
    a = np.asarray
    radii = {
        gaussian(0.3): 2.41015625,
        gaussian(2.0): 16.0625,
        gaussian(7.5): 60.22265625,
        beta_family(1.01): 32.3984375,
        beta_family(1.5): 13.41796875,
        beta_family(2.0): 8.03125,
        beta_family(2.5): 5.73046875,
        beta_family(3.0): 4.49609375,
        beta_family(4.0): 3.2265625,
        beta_family(8.0): 1.73828125,
        scale(beta_family(2.5), 2.0): 11.4609375,
        custom(np.cosh, np.sinh, label="cosh"): 4.19921875,
        custom(lambda x: a(x) ** 2 / 2, lambda x: a(x), label="x2"): 8.03125,
        skewed_well(): 8.12890625,
    }
    assert {p.descriptor(): grid_radius(p) for p in radii} == {p.descriptor(): r for p, r in radii.items()}
    with pytest.raises(DomainError, match="too flat"):
        grid_radius(gaussian(1e6))


def test_default_grid_structure(gaussian_potential):
    xs = default_grid(gaussian_potential)
    assert xs.size == 4097
    assert xs[2048] == 0.0
    assert np.all(np.diff(xs) > 0)
    assert np.max(np.abs(xs + xs[::-1])) == 0.0  # exactly symmetric


def test_psi_tilde_at_origin_is_psi(gaussian_potential):
    for g in (0.3 + 0.2j, -0.5 + 1.0j):
        for side in (+1, -1):
            pt = psi_tilde(gaussian_potential, g, 0.0, side)
            assert abs(pt - gaussian_closed_form(g)[0]) < 1e-13


def test_psi_tilde_generic_path_matches_gaussian_route():
    # beta = 2 is the same potential but runs the batched quadrature path
    gen = beta_family(2.0)
    gau = gaussian(1.0)
    xs = np.array([0.0, 0.5, 1.5, 3.0])
    for g in (0.4 + 0.0j, -0.4 + 0.9j):
        a = psi_tilde(gen, g, xs, +1)
        b = psi_tilde(gau, g, xs, +1)
        assert np.max(np.abs(a - b)) < 1e-9
        a = psi_tilde(gen, g, -xs, -1)
        b = psi_tilde(gau, g, -xs, -1)
        assert np.max(np.abs(a - b)) < 1e-9


def test_psi_tilde_of_a_scaled_model_is_the_unit_model_at_sigma_gamma():
    # pt_sigma(gamma; x) = pt_1(sigma gamma; x / sigma), bit for bit
    wide, unit = scale(beta_family(2.5), 2.0), beta_family(2.5)
    xs = np.array([0.0, 0.5, 1.3, 4.0])
    g = -0.3 + 1.1j
    for side in (+1, -1):
        got = psi_tilde(wide, g, side * xs, side)
        assert np.array_equal(got, psi_tilde(unit, 2.0 * g, side * xs / 2.0, side))


# pt^side(gamma; x) on beta:2.5, 30 digits from mpmath 1.3 at 40 (and 50) digits:
# 1 - 2 gamma int_0^inf e^{-2 gamma u - (U(x + side u) - U(x))} du over [0, 30]
# cut at every 1/4, where the two precisions agree to 1e-40.
PT_BETA25_MPMATH = (
    (-3 + 5j, 0.0, +1, -0.00573848872760188631454458374083 + 0.0489902511423172476120128931760j),
    (-0.3883 + 1.1559j, -2.0, -1, 0.780410982599769855286617161592 - 0.685913610398571889374019000369j),
    (-1.2 + 2.6j, 3.5, +1, 0.677394064973291461147382792833 - 0.790020797782406334128349395048j),
)


@pytest.mark.parametrize("gamma,x,side,exact", PT_BETA25_MPMATH)
def test_psi_tilde_sweep_matches_mpmath(gamma, x, side, exact):
    # a float64 route loses about eps times the cancellation peak of its
    # integrand, e^{max_u (2 |Re gamma| u - U(u))} (e^10.8 at Re gamma = -3;
    # x = 0 is the worst x for a convex U); w carries U' ~ 2 |Re gamma| at
    # the peak, so the tolerance is 32 eps times that peak
    pot = beta_family(2.5)
    u = np.linspace(0.0, 20.0, 20001)
    tol = 32.0 * np.finfo(float).eps * np.exp(np.max(2.0 * abs(gamma.real) * u - pot.U(u)))
    assert abs(psi_tilde(pot, gamma, x, side) - exact) <= tol


def test_psi_tilde_refuses_a_feature_narrower_than_its_cells():
    # a unit step of U over 1e-3 at x = 2: U' at the lattice points cannot see
    # it, so the cells are far wider than the step and GK15's |K - G| says so
    d = 1e-3
    pot = custom(
        lambda x: 0.5 * np.asarray(x) ** 2 + np.tanh((np.asarray(x) - 2.0) / d),
        lambda x: np.asarray(x) + (1.0 - np.tanh((np.asarray(x) - 2.0) / d) ** 2) / d,
        label="step",
    )
    with pytest.raises(IntegrationError, match=r"gamma=\(-0\.4\+1j\), x=0 misses"):
        psi_tilde(pot, -0.4 + 1j, 0.0, +1)
    # past the step the cells resolve U again
    assert np.all(np.isfinite(psi_tilde(pot, -0.4 + 1j, [2.5, 3.0], +1)))


def test_a_scaled_model_refusing_pt_names_the_callers_gamma_x_and_model():
    # quad@scale=2 runs as quad at 2 gamma and x / 2, which misses its
    # tolerance at gamma = -6 - 8i; the error keeps the caller's terms
    quad = custom(lambda x: 0.5 * np.asarray(x) ** 2, np.asarray, label="quad")
    with pytest.raises(IntegrationError) as info:
        psi_tilde(scale(quad, 2.0), -3.0 - 4.0j, np.array([2.0]), +1)
    assert str(info.value).startswith("pt^+1 of quad@scale=2 at gamma=(-3-4j), x=2 misses")
    assert info.value.location == 2.0


@pytest.mark.parametrize("side", [+1, -1])
@pytest.mark.parametrize("xs", [[0.0, 0.5], [1.0], [1.0, 1.5], [0.5, 1.0]])
def test_pt_refuses_cancellation_that_float64_cannot_carry(xs, side):
    # custom x^2/2 at gamma = -6 - 8i: from x0 = 0 the folded integrand
    # peaks near e^72 (e^60 from x0 = 1), where gaussian:1's erfcx pt is
    # -6.8e-4 - 2.4e-3i at x = 0; the sweep once returned 4.07e17 - 1.34e18i
    # there, or refused x = 1 alone only on roundoff noise
    quad = custom(lambda x: 0.5 * np.asarray(x) ** 2, np.asarray, label="quad")
    x = side * np.array(xs)
    with pytest.raises(IntegrationError) as info:
        psi_tilde(quad, -6.0 - 8.0j, x, side)
    head = f"pt^{side:+d} of quad at gamma=(-6-8j), x={x[0]:.6g} misses its tolerance: it needs cancellation from e^"
    assert str(info.value).startswith(head) and str(info.value).endswith(", past e^36.04")
    assert info.value.location == x[0]


def test_psi_tilde_far_points_are_swept_on_their_own():
    # e^{U(30)} on beta:2.5 is e^1972: one sweep from x = 0 would underflow
    pot = beta_family(2.5)
    g = -0.4 + 0.9j
    both = psi_tilde(pot, g, [0.0, 30.0], +1)
    assert both[0] == psi_tilde(pot, g, 0.0, +1)
    assert both[1] == psi_tilde(pot, g, 30.0, +1)
    # far out pt -> 1 - 2 gamma / (U' + 2 gamma), U'(30) ~ 165
    assert abs(both[1] - (1.0 - 2.0 * g / (pot.dU(30.0) + 2.0 * g))) < 1e-3


@pytest.mark.parametrize(
    "call",
    [
        lambda: psi_tilde(gaussian(1.0), -0.4 + 1j, 2.0, side=0),
        lambda: psi_tilde(beta_family(2.5), -0.4 + 1j, -2.0, side=-2),
        lambda: psi_tilde(gaussian(1.0), -0.4 + 1j, math.nan),
        lambda: psi_tilde(beta_family(2.5), -0.4 + 1j, [0.0, math.nan]),
        lambda: psi_tilde(beta_family(2.5), -0.4 + 1j, math.inf),
        lambda: psi_tilde(gaussian(1.0), complex(math.nan, 1.0), 1.0),
        lambda: psi_tilde(beta_family(2.5), complex(-0.4, math.inf), 1.0),
        lambda: eigenfunction_table(gaussian(1.0), 0.0, [0.0, math.nan]),
        lambda: eigenfunction_table(beta_family(2.5), 0.0, [-math.inf, 0.0]),
    ],
    ids=[
        "side-0", "side-2", "nan-x", "nan-x-sweep", "inf-x-sweep",
        "nan-gamma", "inf-gamma-sweep", "table-nan", "table-inf",
    ],
)
def test_psi_tilde_and_table_refuse_bad_input(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("gamma", GAUSSIAN_EIGENVALUES[1:4])
def test_beta2_reproduces_gaussian1_operators(gamma):
    # beta:2 is x^2/2 exactly, but its pt comes from the GK15 sweep and its
    # psi from quadrature, while gaussian:1 takes erfcx for both
    gau, bet = gaussian(1.0), beta_family(2.0)
    fg, fb = eigenfunction(gau, gamma), eigenfunction(bet, gamma)
    grid = default_grid(gau)
    for xs in (grid, np.linspace(-7.77, 7.91, 41)):
        for th in (+1, -1):
            diff = np.abs(fg.component(xs, th) - fb.component(xs, th))
            assert np.max(diff * np.exp(-gau.U(xs) / 2.0)) < 1e-12
    h = GridFunction(grid, (1.0 + 0.3 * grid) * np.exp(-grid**2 / 2.5), np.exp(-grid**2 / 3.0))
    cg, cb = spectral_projection(gau, gamma, h)[0], spectral_projection(bet, gamma, h)[0]
    assert abs(cg - cb) < 1e-12 * abs(cg)
    mg, mb = refreshment_coefficient(gau, gamma), refreshment_coefficient(bet, gamma)
    assert abs(mg - mb) < 1e-12 * abs(mg)


def test_grid_function_validation(gaussian_potential):
    xs = default_grid(gaussian_potential)
    ones = np.ones_like(xs)
    gf = GridFunction(xs, ones, ones)
    assert gf.radius == 8.03125
    assert gf.step == pytest.approx(8.03125 / 2048)
    with pytest.raises(DomainError):
        GridFunction(xs[:-1], ones[:-1], ones[:-1])  # asymmetric grid
    with pytest.raises(DomainError):
        GridFunction(xs, ones[:-1], ones)  # shape mismatch


def test_grid_function_refuses_short_and_non_increasing_grids():
    with pytest.raises(DomainError, match="at least 3 nodes"):
        GridFunction(np.array([-1.0, 1.0]), np.ones(2), np.ones(2))
    with pytest.raises(DomainError, match="at least 3 nodes"):
        GridFunction(np.zeros((3, 3)), np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(DomainError, match="strictly increasing"):
        GridFunction(np.array([1.0, 0.0, -1.0]), np.ones(3), np.ones(3))


@pytest.mark.parametrize("where", ["node", "plus", "minus"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_function_refuses_non_finite_entries(gaussian_potential, where, bad):
    # a NaN node passes both the increasing and the symmetry comparison
    arrays = {k: default_grid(gaussian_potential) for k in ("node", "plus", "minus")}
    arrays[where][100] = bad
    with pytest.raises(DomainError, match="finite"):
        GridFunction(arrays["node"], arrays["plus"], arrays["minus"])


def test_grid_function_interpolation_and_clipping(gaussian_potential):
    gf = GridFunction.from_callable(gaussian_potential, lambda x, th: th * x)
    assert gf(0.5, +1) == pytest.approx(0.5, abs=1e-12)
    assert gf(0.5, -1) == pytest.approx(-0.5, abs=1e-12)
    assert gf(100.0, +1) == 0.0  # compact support outside the grid


# -------------------------------------------------------------- eigenfunctions


def test_zero_eigenfunction_is_constant(gaussian_potential):
    f = eigenfunction(gaussian_potential, 0.0)
    xs = np.linspace(-6, 6, 101)
    assert np.max(np.abs(f.component(xs, +1) - 1.0)) == 0.0
    assert np.max(np.abs(f.component(xs, -1) - 1.0)) == 0.0


def test_eigenfunction_continuity_all_variants(gaussian_potential, beta25_spectrum):
    assert eigenfunction(gaussian_potential, G1).continuity_defect() < 1e-12
    assert eigenfunction(gaussian_potential, G2, "plus").continuity_defect() < 1e-12
    assert eigenfunction(gaussian_potential, G1, "minus").continuity_defect() < 1e-12
    # beta:2.5 takes pt from the quadrature sweep, not erfcx: every piece, on both routes
    upper = [(r.gamma, r.branch) for r in beta25_spectrum.eigenvalues if r.gamma.imag > 0]
    assert [b for _, b in upper] == ["minus", "plus", "minus"]
    for gamma, branch in upper:
        for variant in ("full", branch):
            assert eigenfunction(beta_family(2.5), gamma, variant).continuity_defect() < 1e-12


def test_eigenfunction_rejects_non_roots(gaussian_potential):
    with pytest.raises(NotAnEigenvalueError):
        eigenfunction(gaussian_potential, -0.3 + 0.4j)
    with pytest.raises(NotAnEigenvalueError):
        eigenfunction(gaussian_potential, G2, "minus")  # wrong branch
    with pytest.raises(DomainError):
        eigenfunction(gaussian_potential, G1, "sideways")


@pytest.mark.parametrize(
    "gamma", [complex("nan"), complex(float("inf"), 0.0), complex(-0.5, float("nan"))]
)
def test_eigenfunction_and_resolvent_reject_nonfinite_gamma(gaussian_potential, gamma):
    with pytest.raises(DomainError):
        eigenfunction(gaussian_potential, gamma)
    ones = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    )
    with pytest.raises(DomainError):
        apply_resolvent(gaussian_potential, gamma, ones)


def test_eigenfunction_conjugate_symmetry(gaussian_potential):
    f = eigenfunction(gaussian_potential, G1)
    fc = eigenfunction(gaussian_potential, np.conj(G1))
    xs = np.linspace(-4, 4, 41)
    assert np.max(np.abs(fc.component(xs, +1) - np.conj(f.component(xs, +1)))) < 1e-12


def test_eigenfunction_l2_mass_stabilizes(gaussian_potential):
    f = eigenfunction(gaussian_potential, G1)
    m1 = f.l2_mass(8.0)
    m2 = f.l2_mass(16.0)
    assert abs(m2 - m1) / m1 < 1e-8


def test_eigen_residual_under_generator(gaussian_potential):
    f = eigenfunction(gaussian_potential, G1)
    xs = np.linspace(-4, 4, 801)
    xs = xs[np.abs(xs) >= 0.05]
    worst = 0.0
    for th in (+1, -1):
        lf = apply_generator(
            gaussian_potential, SwitchingRateSpec(), f.component, xs, th
        )
        worst = max(worst, np.max(np.abs(lf - G1 * f.component(xs, th))))
    scale = max(
        np.max(np.abs(f.component(xs, +1))), np.max(np.abs(f.component(xs, -1)))
    )
    assert worst / scale < 1e-6


def test_eigenfunction_table_columns(gaussian_potential):
    xs = np.linspace(-2, 2, 9)
    t = eigenfunction_table(gaussian_potential, G1, xs)
    assert t.shape == (9, 5)
    f = eigenfunction(gaussian_potential, G1)
    assert np.allclose(t[:, 1] + 1j * t[:, 2], f.component(xs, +1))
    assert np.allclose(t[:, 3] + 1j * t[:, 4], f.component(xs, -1))


# -------------------------------------------------------------- inner products


def test_mu_mass_is_two_sqrt_2pi(gaussian_potential):
    one = lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    val, err = inner_product_mu(one, one, gaussian_potential)
    assert abs(val - 2.0 * SQRT_2PI) < 1e-9
    assert err < 1e-8


def test_nu_mass_is_sqrt_2pi(gaussian_potential):
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    val, _ = inner_product_nu(one, one, gaussian_potential)
    assert abs(val - SQRT_2PI) < 1e-9


# ------------------------------------------------------------------- resolvent


def test_k_coefficients_for_constant_input(gaussian_potential):
    ones = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    )
    for g in (2.0 + 0.0j, 1.0 + 0.0j, 0.7 + 0.9j):
        kp, km = k_coefficients(gaussian_potential, g, ones)
        assert abs(kp - 1.0 / g) < 1e-9
        assert abs(km - 1.0 / g) < 1e-9


def test_resolvent_constant_input(gaussian_potential):
    # (gamma - L)^{-1} 1 = 1/gamma; compare away from the support edge where
    # the grid input is truncated to zero
    ones = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    )
    f = apply_resolvent(gaussian_potential, 2.0, ones)
    sel = np.abs(f.xs) <= f.radius - 2.0
    assert np.max(np.abs(f.plus[sel] - 0.5)) < 1e-6
    assert np.max(np.abs(f.minus[sel] - 0.5)) < 1e-6


def test_resolvent_of_eigenfunction_input(gaussian_potential):
    # h = f_{gamma0} maps to f_{gamma0} / (gamma - gamma0)
    f1 = eigenfunction(gaussian_potential, G1)
    h = GridFunction.from_callable(gaussian_potential, f1.component)
    g = 1.0 + 0.5j
    f = apply_resolvent(gaussian_potential, g, h)
    sel = np.abs(f.xs) <= f.radius - 2.0
    expected = h.plus[sel] / (g - G1)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(f.plus[sel] - expected)) / scale < 1e-5


def test_resolvent_defect_compact_input(gaussian_potential):
    h = GridFunction.from_callable(
        gaussian_potential,
        lambda x, th: np.asarray(x) * np.exp(-np.asarray(x) ** 2 / 4.0),
    )
    f = apply_resolvent(gaussian_potential, 1.0, h)
    assert resolvent_defect(gaussian_potential, 1.0, h, f) < 1e-5


def test_resolvent_defect_of_the_zero_input_is_zero(gaussian_potential):
    xs = default_grid(gaussian_potential)
    h = GridFunction(xs, np.zeros_like(xs), np.zeros_like(xs))
    f = apply_resolvent(gaussian_potential, 1.0, h)
    assert resolvent_defect(gaussian_potential, 1.0, h, f) == 0.0


def _seeded_input(potential, seed):
    # criterion 07's input family (a + b x + c x^2 + d theta x) e^{-x^2/2.5}
    a, b, c, d = np.random.default_rng(seed).normal(size=4)
    return GridFunction.from_callable(
        potential,
        lambda x, th: (a + b * x + c * x * x + d * th * x) * np.exp(-x * x / 2.5),
    )


def test_resolvent_defect_off_the_gaussian():
    pot = beta_family(2.5)
    h = _seeded_input(pot, 7)
    for z in (2.0 + 0.0j, 1.0 + 0.5j, 0.25 - 1.0j):
        f = apply_resolvent(pot, z, h)
        assert resolvent_defect(pot, z, h, f) <= 1e-5


def test_resolvent_defect_refuses_grids_it_cannot_difference():
    # the stencil assumes h and f on one uniform grid: a sinh-graded grid
    # once read a defect of 0.34, though its f matches the default grid's to
    # 9e-7; a same-size other grid read 0.12; another size died in numpy
    pot, g = gaussian(1.0), 1.0 + 0.5j

    def on(xs):
        return GridFunction(xs, (1.0 + xs) * np.exp(-xs * xs / 2.5), (1.0 + xs) * np.exp(-xs * xs / 2.5))

    base = default_grid(pot)
    u = np.linspace(-1.0, 1.0, base.size)
    graded = base[-1] * np.sinh(2.0 * u) / math.sinh(2.0)
    graded[base.size // 2] = 0.0
    h = on(base)
    with pytest.raises(DomainError, match="uniform grid"):
        resolvent_defect(pot, g, on(graded), apply_resolvent(pot, g, on(graded)))
    for xs in (0.9 * base, np.linspace(base[0], base[-1], 2049)):
        with pytest.raises(DomainError, match="one grid"):
            resolvent_defect(pot, g, h, apply_resolvent(pot, g, on(xs)))
    assert resolvent_defect(pot, g, h, apply_resolvent(pot, g, h)) <= 1e-5


@pytest.mark.parametrize("descriptor", ["gaussian:1", "beta:2"])
def test_resolvent_holds_at_large_re_gamma_and_refuses_overflow(descriptor):
    # the x <= 0 inward cumulative is summed from 0 outward: as a difference
    # of sums from -R, whose terms reach e^{38} at z = 8, it lost h+ near 0
    # (defect 0.68, k- 0.107795); beta:2 is x^2/2, so its k+- are gaussian:1's
    pot, gauss = parse_potential(descriptor), gaussian(1.0)
    h = GridFunction.from_callable(pot, lambda x, th: (1.0 + x) * np.exp(-x * x / 2.5))
    for z in (2.0, 5.0, 6.0, 8.0, 10.0, 30.0):
        f = apply_resolvent(pot, z, h)
        assert resolvent_defect(pot, z, h, f) <= 1e-5
        k = np.array(k_coefficients(pot, z, h))
        assert np.max(np.abs(k - k_coefficients(gauss, z, h))) <= 1e-10
    assert abs(k_coefficients(pot, 8.0, h)[1] - 0.108909) <= 1e-6
    # e^{300 R} leaves float range: a named refusal, not an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (apply_resolvent, k_coefficients):
            with pytest.raises(DomainError, match=r"gamma=\(300\+0j\).* R = 8\.03125"):
                call(pot, 300.0, h)


@pytest.mark.parametrize("descriptor", ["gaussian:1", "beta:2", "beta:3"])
def test_resolvent_at_negative_re_gamma_holds_or_names_its_cancellation(descriptor):
    # at Re gamma < 0 the sweep's integrand peaks at e^P, P = max 2 |Re gamma| |x| - U(x),
    # and cancels from there: gaussian:1 read a defect of 1.7e-5 at -3 (P = 18)
    # and 1e2 at -5 (P = 48) with no error
    pot = parse_potential(descriptor)
    h = GridFunction.from_callable(pot, lambda x, th: (1.0 + x) * np.exp(-x * x / 2.5))
    for real in (-0.5, -1.0, -2.0, -3.0, -5.0, -8.0):
        z = complex(real, 0.5)
        peak = np.max(-2.0 * real * np.abs(h.xs) - pot.U(h.xs))
        try:
            f = apply_resolvent(pot, z, h)
        except DomainError as err:
            assert f"gamma={z} needs cancellation from e^{peak:.4g}, past e^16" in str(err)
            assert peak > 16.0
            with pytest.raises(DomainError, match="needs cancellation"):
                k_coefficients(pot, z, h)
        else:
            assert resolvent_defect(pot, z, h, f) <= 1e-5


def test_k_coefficients_are_the_resolvent_at_zero(gaussian_potential):
    # k_coefficients skips assembling f, yet equals f at x = 0 bit for bit
    g = 1.0 + 0.5j
    for pot in (gaussian_potential, beta_family(2.5)):
        h = _seeded_input(pot, 3)
        f = apply_resolvent(pot, g, h)
        mid = int(np.flatnonzero(f.xs == 0.0)[0])
        assert k_coefficients(pot, g, h) == (f.plus[mid], f.minus[mid])


def test_resolvent_sweep_reads_each_gk_node_from_its_own_cell(gaussian_potential, monkeypatch):
    # k+- and f come from one GK15 sweep per outward half line: U sees each
    # GK node of each half line exactly once, and phi1/phi2 are taken only at
    # the 15 offsets of each distinct cell width plus the width itself (for
    # the node cumulatives): 16 arguments on a default half line, which has a
    # single width, and at most 16 per cell on a graded one
    h = _seeded_input(gaussian_potential, 5)
    seen, phi_args = [], []
    U, phi12 = PotentialModel.U, operator._phi12

    def counted_u(self, x):
        seen.append(np.ravel(x))
        return U(self, x)

    def counted_phi(z):
        phi_args.append(np.size(z))
        return phi12(z)

    monkeypatch.setattr(PotentialModel, "U", counted_u)
    monkeypatch.setattr(operator, "_phi12", counted_phi)
    apply_resolvent(gaussian_potential, 1.0 + 0.5j, h)
    nodes = np.concatenate(seen)
    inside = np.sort(nodes[~np.isin(nodes, h.xs)])  # every GK node is interior to its cell
    frac = 0.5 + 0.5 * quadrature._NODES
    want = np.sort((h.xs[:-1, None] + np.diff(h.xs)[:, None] * frac).ravel())
    assert inside.size == want.size == 2 * 15 * 2048
    assert np.max(np.abs(inside - want)) <= 1e-14 * h.radius
    assert np.unique(np.diff(h.xs[2048:])).size == np.unique(np.diff(h.xs[:2049])).size == 1
    assert phi_args == [16, 16]
    phi_args.clear()
    graded = _graded_grid(gaussian_potential)
    k_coefficients(gaussian_potential, 1.0 + 0.5j, GridFunction(graded, graded, -graded))
    widths = np.unique(np.diff(graded[1000:])).size
    assert len(phi_args) == 2 and max(phi_args) <= 16 * widths


def test_resolvent_refuses_a_grid_too_coarse_for_gamma(gaussian_potential, monkeypatch):
    # five nodes leave cells of width 4, too coarse for e^{-2 gamma x} at
    # Im gamma = 4: the sweep says so instead of returning k+- wrong in the
    # fifth digit, which it does with the acceptance rule switched off; the
    # same piecewise-linear h on the default grid (which holds the coarse
    # nodes) passes
    g = 1.0 + 4.0j
    fine = _seeded_input(gaussian_potential, 3)
    coarse = GridFunction(fine.xs[::1024], fine.plus[::1024], fine.minus[::1024])
    with pytest.raises(IntegrationError, match=r"gamma=\(1\+4j\) on the half line x >= 0 .*grid too coarse"):
        k_coefficients(gaussian_potential, g, coarse)
    with pytest.raises(IntegrationError, match="grid too coarse"):
        apply_resolvent(gaussian_potential, g, coarse)
    with pytest.raises(IntegrationError, match="grid too coarse"):
        spectral_projection(gaussian_potential, G1, coarse)
    refined = GridFunction(fine.xs, coarse(fine.xs, +1), coarse(fine.xs, -1))
    want = np.array(k_coefficients(gaussian_potential, g, refined))
    monkeypatch.setattr(operator, "_tolerance", lambda value, floor, cfg: math.inf)
    got = np.array(k_coefficients(gaussian_potential, g, coarse))
    assert np.max(np.abs(got - want)) > 1e-6 * np.max(np.abs(want))


def test_resolvent_names_the_first_non_finite_node_of_a_custom_well():
    # U' is nan on (3, 3.01): the factored sums of that block turn nan, and
    # its node pass names the first GK node past 3, as a node-wise sweep does
    pot = custom(lambda x: 0.5 * np.asarray(x) ** 2, lambda x: np.where((x > 3.0) & (x < 3.01), np.nan, x))
    h = GridFunction.from_callable(pot, lambda x, th: (1.0 + x) * np.exp(-x * x / 2.5))
    for call in (apply_resolvent, k_coefficients):
        with pytest.raises(IntegrationError, match=r"non-finite integrand sample near x = 3\.00005$") as err:
            call(pot, 1.0 + 0.5j, h)
        assert err.value.location == 3.0000540105173332


def _counted_node_passes(monkeypatch):
    # the sweep reduces node values through _gk_reduce only in its node pass
    calls = []
    gk_reduce = operator._gk_reduce

    def counted(v, h, x):
        calls.append(h.size)
        return gk_reduce(v, h, x)

    monkeypatch.setattr(operator, "_gk_reduce", counted)
    return calls


def test_the_resolvent_takes_no_floor_pass_where_the_floor_cannot_matter(gaussian_potential, monkeypatch):
    # the roundoff floor does not factor, so the sweep takes it from the node
    # values only where |K - G| exceeds max(abs_tol, rel_tol |k|): never at
    # criterion 07's points on the default grids, and on the too-coarse grid,
    # which still refuses
    calls = _counted_node_passes(monkeypatch)
    for pot in (gaussian_potential, beta_family(2.5)):
        h = _seeded_input(pot, 3)
        for z in (2.0 + 0.0j, 1.0 + 0.5j, 0.25 - 1.0j):
            apply_resolvent(pot, z, h)
    assert calls == []
    fine = _seeded_input(gaussian_potential, 3)
    coarse = GridFunction(fine.xs[::1024], fine.plus[::1024], fine.minus[::1024])
    with pytest.raises(IntegrationError, match="grid too coarse"):
        k_coefficients(gaussian_potential, 1.0 + 4.0j, coarse)
    assert calls == [2]


@pytest.mark.parametrize("descriptor", ["gaussian:1", "beta:2", "beta:3"])
def test_the_resolvent_verdict_at_negative_re_gamma_is_the_node_wise_rule(descriptor, monkeypatch):
    # on the gammas of the negative-Re-gamma test, each accept or refuse
    # equals the one that always takes the floor, _tolerance(k, sum of floors)
    pot = parse_potential(descriptor)
    h = GridFunction.from_callable(pot, lambda x, th: (1.0 + x) * np.exp(-x * x / 2.5))

    def verdicts():
        out = []
        for real in (-0.5, -1.0, -2.0, -3.0, -5.0, -8.0):
            try:
                out.append(k_coefficients(pot, complex(real, 0.5), h))
            except (DomainError, IntegrationError) as err:
                out.append(str(err))
        return out

    calls = _counted_node_passes(monkeypatch)
    lazy = verdicts()
    assert calls == []
    tolerance = operator._tolerance  # a floorless bound of 0 forces the node pass
    monkeypatch.setattr(operator, "_tolerance", lambda v, floor, cfg: tolerance(v, floor, cfg) if np.any(floor) else 0.0)
    assert verdicts() == lazy
    accepted = sum(not isinstance(v, str) for v in lazy)
    assert accepted >= 3 and len(calls) >= 2 * accepted


def test_resolvent_rejects_spectrum_points(gaussian_potential):
    ones = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    )
    with pytest.raises(ResolventAtEigenvalueError):
        apply_resolvent(gaussian_potential, G1, ones)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_tol_must_be_finite_and_positive(gaussian_potential, tol):
    xs = np.linspace(-1.0, 1.0, 5)
    for call in (
        lambda: eigenfunction(gaussian_potential, G1, tol=tol),
        lambda: eigenfunction_table(gaussian_potential, -0.4 + 1.0j, xs, tol=tol),
    ):
        with pytest.raises(DomainError, match="tol"):
            call()


# ----------------------------------------------------------------- projections


def test_projection_of_mean(gaussian_potential):
    # P_0 h = mu(h) * 1: coefficient equals the mu-average of h
    h = lambda x, th: np.asarray(x, dtype=float) ** 2
    coeff, f0 = spectral_projection(gaussian_potential, 0.0, h)
    # mu-average of x^2 is 1 (unit gaussian marginal, velocity-independent)
    assert abs(coeff - 1.0) < 1e-9


def test_projection_fixes_its_range(gaussian_potential):
    fdir = eigenfunction(gaussian_potential, G1)
    coeff, _ = spectral_projection(
        gaussian_potential, G1, fdir.component, growth=abs(G1.real)
    )
    assert abs(coeff - 1.0) < 1e-12


def test_projection_idempotence(gaussian_potential):
    fdir = eigenfunction(gaussian_potential, G1)
    c1, _ = spectral_projection(
        gaussian_potential,
        G1,
        lambda x, th: 0.7 * fdir.component(x, th),
        growth=abs(G1.real),
    )
    c2, _ = spectral_projection(
        gaussian_potential,
        G1,
        lambda x, th: c1 * fdir.component(x, th),
        growth=abs(G1.real),
    )
    assert abs(c2 - c1) < 1e-10


def test_projection_annihilates_other_eigenfunctions(gaussian_potential):
    # J-orthogonality: distinct, non-conjugate eigenvalues pair to zero
    f2 = eigenfunction(gaussian_potential, G2)
    coeff, _ = spectral_projection(
        gaussian_potential, G1, f2.component, growth=abs(G2.real)
    )
    assert abs(coeff) < 1e-8


def test_projection_simplicity_gate(gaussian_potential, monkeypatch):
    # |Z'(0)| is 2 sqrt(2 pi) on the full branch and sqrt(2 pi) on the plus
    # branch, both below a floor of 10: every caller of the gate refuses
    monkeypatch.setattr(operator, "SIMPLICITY_TOL", 10.0)
    with pytest.raises(NonSimpleEigenvalueError):
        spectral_projection(gaussian_potential, 0.0, lambda x, th: np.ones_like(x))
    with pytest.raises(NonSimpleEigenvalueError):
        refreshment_coefficient(gaussian_potential, 0.0)
    with pytest.raises(NonSimpleEigenvalueError):
        refreshment_coefficient_symmetric(gaussian_potential, 0.0, "plus")


def test_symmetric_projection_refuses_a_grid_function(gaussian_potential):
    # the plus/minus projections pair functions on R; a GridFunction lives on E
    h = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.exp(-np.asarray(x, dtype=float) ** 2)
    )
    with pytest.raises(DomainError, match="function on R"):
        spectral_projection(gaussian_potential, G2, h, variant="plus")


def test_one_psi_pass_per_gamma(beta25_spectrum, monkeypatch):
    # the eigenfunction carries psi and Z', so no caller integrates psi again
    pot = beta_family(2.5)
    calls = []
    psi_batch = charfn.psi_batch

    def counted(*args, **kwargs):
        calls.append(args[2])
        return psi_batch(*args, **kwargs)

    monkeypatch.setattr(charfn, "psi_batch", counted)
    gammas = [r.gamma for r in beta25_spectrum.eigenvalues if r.gamma.imag > 0]
    assert len(gammas) == 3
    for g in gammas:
        for call in (
            lambda: spectral_projection(pot, g, lambda x, th: np.ones_like(x)),
            lambda: z_prime_consistency(pot, g),
            lambda: refreshment_coefficient(pot, g),
        ):
            calls.clear()
            call()
            assert len(calls) == 1


def _oracle_projection(pot, gamma, h):
    # the per-node route: GK15 on each cell of h's grid, 0 added as an edge
    # (f kinks there), of h f(., -theta) e^{-U}, over the adaptive <f, F conj f>
    f = eigenfunction(pot, gamma)
    edges = np.union1d(h.xs, [0.0])
    cells, *_ = quadrature._panels(
        lambda x: np.stack([h(x, th) * f.component(x, -th) for th in (+1, -1)]) * np.exp(-pot.U(x)),
        edges[:-1],
        edges[1:],
    )
    growth, osc = 2.0 * abs(f.gamma.real), 4.0 * abs(f.gamma.imag)
    b = lambda x, th: np.conj(f.component(x, -th))
    den, _ = inner_product_mu(f.component, b, pot, growth=growth, oscillation=osc)
    return np.sum(cells) / den


def _oracle_k(pot, gamma, h):
    # the per-node route to k+-: GK15 on each cell of h's grid, 0 added as an
    # edge (each half line ends there), of e^{-side gamma x - U}
    # (h^side + h^-side pt^side) on each half line
    def half_line(side):
        x = np.union1d(h.xs, [0.0])
        x = x[x * side >= 0.0]
        row = lambda x: np.exp(-side * gamma * x - pot.U(x)) * (
            h(x, side) + h(x, -side) * psi_tilde(pot, gamma, x, side)
        )
        return np.sum(quadrature._panels(row, x[:-1], x[1:])[0])

    k1, k2 = half_line(+1), half_line(-1)
    values = charfn.CharFunctionHandle(pot, "full").values_batch(gamma)
    z = complex(charfn._z_and_dz("full", *values)[0][0])
    pp, _, pm, _ = (complex(v[0]) for v in values)
    return (k1 + pp * k2) / z, (pm * k1 + k2) / z


def _even_grid(pot, n=1000):
    # symmetric, with no node at x = 0
    half = np.linspace(0.5, n - 0.5, n) * (grid_radius(pot) / (n - 0.5))
    return np.concatenate([-half[::-1], half])


def _graded_grid(pot, n=1000):
    # symmetric, sinh-spaced: a distinct width for every cell of a half line
    half = grid_radius(pot) * np.sinh(3.0 * np.linspace(0.0, 1.0, n + 1)) / math.sinh(3.0)
    return np.concatenate([-half[:0:-1], half])


@pytest.mark.parametrize("family", ["gaussian:1", "beta:2.5"])
def test_a_linspace_grid_takes_the_one_width_sweep(family, monkeypatch):
    # np.linspace keeps several float widths per half line, an ulp or two of
    # max |x| apart; the sweep snaps them onto the commonest, so phi1/phi2 are
    # taken at one width per half line (16 arguments) and every block of cells
    # takes the one-matmul path, with k+- still the per-node route's
    pot = gaussian(1.0) if family == "gaussian:1" else beta_family(2.5)
    r = 0.97 * grid_radius(pot)
    xs = np.linspace(-r, r, 4097)
    assert np.unique(np.diff(xs[2048:])).size >= 3
    a, b, c, d = np.random.default_rng(11).normal(size=4)
    fn = lambda x, th: (a + b * x + c * x * x + d * th * x) * np.exp(-x * x / 2.5)
    h = GridFunction(xs, fn(xs, +1), fn(xs, -1))
    phi_args, phi12 = [], operator._phi12
    monkeypatch.setattr(operator, "_phi12", lambda z: phi_args.append(np.size(z)) or phi12(z))
    for z in (2.0 + 0.0j, 1.0 + 0.5j, 0.25 - 1.0j):
        phi_args.clear()
        got = np.array(k_coefficients(pot, z, h))
        assert phi_args == [16, 16]
        want = np.array(_oracle_k(pot, z, h))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("family", ["gaussian:1", "beta:2.5"])
def test_grid_projection_matches_the_per_node_route(family, beta25_spectrum):
    # P_gamma is the resolvent's residue: k1 + psi+ k2 over Z'/psi- must
    # reproduce the per-node pairing, on an odd grid, an even one and a
    # graded one, whose cells take phi at their own width each
    pot = gaussian(1.0) if family == "gaussian:1" else beta_family(2.5)
    if family == "gaussian:1":
        gammas = GAUSSIAN_EIGENVALUES[:4]
    else:
        gammas = [0j] + [r.gamma for r in beta25_spectrum.eigenvalues if r.gamma.imag > 0]
    assert len(gammas) == 4
    a, b, c, d = np.random.default_rng(11).normal(size=4)
    fn = lambda x, th: (a + b * x + c * x * x + d * th * x) * np.exp(-x * x / 2.5)
    even, graded = _even_grid(pot), _graded_grid(pot)
    assert np.unique(np.diff(graded[1000:])).size > 900
    hs = (
        GridFunction.from_callable(pot, fn),
        GridFunction(even, fn(even, +1), fn(even, -1)),
        GridFunction(graded, fn(graded, +1), fn(graded, -1)),
    )
    for g in gammas:
        for h in hs:
            got, _ = spectral_projection(pot, g, h)
            want = _oracle_projection(pot, g, h)
            assert abs(got - want) <= 1e-12 * abs(want)
    # k+- at criterion 07's points, off the spectrum, against the per-node route
    for z in (2.0 + 0.0j, 1.0 + 0.5j, 0.25 - 1.0j):
        for h in hs:
            got, want = np.array(k_coefficients(pot, z, h)), np.array(_oracle_k(pot, z, h))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the resolvent itself still needs the x = 0 node
    with pytest.raises(DomainError, match="x = 0"):
        apply_resolvent(pot, 1.0 + 0.5j, hs[1])


def test_projection_symmetric_variant(gaussian_potential):
    fdir = eigenfunction(gaussian_potential, G1, "minus")
    coeff, _ = spectral_projection(
        gaussian_potential,
        G1,
        lambda x: 1.3 * fdir.component(x),
        variant="minus",
        growth=abs(G1.real),
    )
    assert abs(coeff - 1.3) < 1e-10


# ------------------------------------------------------------------- Z' routes


def test_z_prime_consistency_at_zero(gaussian_potential):
    lhs, rhs = z_prime_consistency(gaussian_potential, 0.0)
    assert abs(lhs - 2.0 * SQRT_2PI) < 1e-12
    assert abs(rhs - 2.0 * SQRT_2PI) < 1e-9


def test_z_prime_consistency_full_and_branch(gaussian_potential):
    lhs, rhs = z_prime_consistency(gaussian_potential, G1)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10
    lhs, rhs = z_prime_consistency(gaussian_potential, G1, variant="minus")
    assert abs(lhs - rhs) / abs(lhs) < 1e-10
    lhs, rhs = z_prime_consistency(gaussian_potential, G2, variant="plus")
    assert abs(lhs - rhs) / abs(lhs) < 1e-10
