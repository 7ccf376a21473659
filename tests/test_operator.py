import math

import numpy as np
import pytest

from conftest import GAUSSIAN_EIGENVALUES
from zigzagspec import charfn, operator
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
from zigzagspec.potential import SwitchingRateSpec, beta_family, custom, gaussian, scale

G1 = GAUSSIAN_EIGENVALUES[1]  # minus branch
G2 = GAUSSIAN_EIGENVALUES[2]  # plus branch
SQRT_2PI = math.sqrt(2.0 * math.pi)


# ------------------------------------------------------------- grids and tails


def test_grid_radius_gaussian(gaussian_potential):
    # smallest 1/256 lattice point with U > 14 log 10, i.e. x^2/2 > 32.24
    assert grid_radius(gaussian_potential) == 8.03125


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


def test_eigenfunction_continuity_all_variants(gaussian_potential):
    assert eigenfunction(gaussian_potential, G1).continuity_defect() < 1e-12
    assert eigenfunction(gaussian_potential, G2, "plus").continuity_defect() < 1e-12
    assert eigenfunction(gaussian_potential, G1, "minus").continuity_defect() < 1e-12


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


def test_k_coefficients_are_the_resolvent_at_zero(gaussian_potential):
    h = _seeded_input(gaussian_potential, 3)
    g = 1.0 + 0.5j
    f = apply_resolvent(gaussian_potential, g, h)
    mid = int(np.flatnonzero(f.xs == 0.0)[0])
    assert k_coefficients(gaussian_potential, g, h) == (f.plus[mid], f.minus[mid])


def test_resolvent_sweeps_each_half_line_once(gaussian_potential, monkeypatch):
    # k+- and f come from one GK15 sweep per outward half line, so each
    # cumulative is evaluated once at that half line's GK nodes
    h = _seeded_input(gaussian_potential, 5)
    sizes = []
    call = operator._ExpCumulative.__call__

    def counted(self, x):
        sizes.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(operator._ExpCumulative, "__call__", counted)
    apply_resolvent(gaussian_potential, 1.0 + 0.5j, h)
    gk_nodes = 15 * (h.xs.size // 2)  # one GK15 panel per cell of a half line
    assert sizes.count(gk_nodes) == 2


def test_resolvent_rejects_spectrum_points(gaussian_potential):
    ones = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    )
    with pytest.raises(ResolventAtEigenvalueError):
        apply_resolvent(gaussian_potential, G1, ones)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_tol_must_be_finite_and_positive(gaussian_potential, tol):
    ones = GridFunction.from_callable(
        gaussian_potential, lambda x, th: np.ones_like(np.asarray(x, dtype=float))
    )
    xs = np.linspace(-1.0, 1.0, 5)
    for call in (
        lambda: apply_resolvent(gaussian_potential, 0.0, ones, tol=tol),
        lambda: eigenfunction(gaussian_potential, G1, tol=tol),
        lambda: eigenfunction_table(gaussian_potential, -0.4 + 1.0j, xs, tol=tol),
        lambda: spectral_projection(gaussian_potential, G1, ones, tol=tol),
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
