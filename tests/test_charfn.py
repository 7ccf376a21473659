import cmath
import itertools
import math

import numpy as np
import pytest
from conftest import skewed_well
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzagspec import charfn, quadrature
from zigzagspec.charfn import (
    CharFunctionHandle,
    gaussian_closed_form,
    psi,
    psi_batch,
    z_log_derivative_batch,
    z_value_batch,
)
from zigzagspec.errors import DomainError, IntegrationError, NearZeroError
from zigzagspec.potential import PotentialModel, beta_family, custom, gaussian, parse_potential, scale
from zigzagspec.spectrum import ComplexRegion, compute_spectrum

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Gaussian psi+ oracle, mpmath: 1 - sqrt(2 pi) g exp(2 g^2) erfc(sqrt 2 g)
PSI_ORACLE = [
    (0.25 + 0.0j, 0.5618177717731538 + 0.0j),
    (-0.5 + 1.0j, -1.2657170815413656 + 0.1614988283362801j),
    (-3.0 + 5.0j, -0.003363813992853657 + 0.0066216859907707246j),
    (1.0 - 2.0j, -0.02575642496701365 + 0.047206208723456614j),
]
# beta:2.5 psi+ at -4 - 6i, mpmath at 50 digits: the defining integral on the
# real axis and on the ray arg u = 0.5 agree to 1e-48
BETA25_PSI = 0.06982853326471337818 + 0.27127119329526370208j

# real-axis psi integrals here cancel from up to e^18 (Re gamma <= -2.4)
CANCELLATION_POINTS = np.array([-3.0 - 4.473684210526316j, -2.5 + 3.2j, -2.4 - 4.0j, -2.8 - 1.6j])

DPSI_ORACLE = [
    (0.25 + 0.0j, -1.1909111411342308 + 0.0j),
    (-0.5 + 1.0j, 2.9209247450231812 - 3.6378918489394425j),
]


@pytest.mark.parametrize("g,expected", PSI_ORACLE)
def test_closed_form_psi_against_mpmath(g, expected):
    assert abs(gaussian_closed_form(g)[0] - expected) <= 1e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("g,expected", DPSI_ORACLE)
def test_closed_form_dpsi_against_mpmath(g, expected):
    assert abs(gaussian_closed_form(g)[1] - expected) <= 1e-12 * abs(expected)


def test_psi_at_zero_is_one():
    pot = gaussian(1.0)
    assert gaussian_closed_form(0.0)[0] == 1.0
    assert abs(psi(pot, +1, 0.0) - 1.0) < 1e-12
    assert abs(psi(pot, -1, 0.0) - 1.0) < 1e-12


def test_quadrature_psi_matches_closed_form_moderate_gammas():
    # at moderate |Re gamma| both routes are accurate; the deep-left cross
    # check lives in the acceptance suite where its limits are documented
    pot = gaussian(1.0)
    for g in (0.3 + 0.0j, -0.5 + 1.0j, -0.9 - 1.3j, 0.05 + 2.0j):
        q = psi(pot, +1, g)
        c = gaussian_closed_form(g)[0]
        assert abs(q - c) < 5e-12, f"gamma={g}"


def test_psi_minus_equals_psi_plus_for_even_potential():
    pot = gaussian(1.0)
    for g in (0.2 + 0.4j, -0.6 + 1.1j):
        assert abs(psi(pot, +1, g) - psi(pot, -1, g)) < 5e-12


def test_psi_verify_mode_cross_checks_defining_integral():
    pot = gaussian(1.0)
    v = psi(pot, +1, -0.4 + 0.9j, verify=True)
    assert abs(v - gaussian_closed_form(-0.4 + 0.9j)[0]) < 5e-11


def test_psi_sign_validation():
    with pytest.raises(DomainError):
        psi(gaussian(1.0), 0, 0.1)


def test_psi_derivative_matches_finite_difference():
    pot = beta_family(2.5)
    g = -0.35 + 0.8j
    h = 1e-6
    fd = (psi(pot, +1, g + h) - psi(pot, +1, g - h)) / (2 * h)
    assert abs(psi_batch(pot, +1, [g])[1][0] - fd) < 1e-7


def test_sigma_rescaling_identity():
    # psi_sigma(gamma) = psi_1(sigma gamma): quadrature on the wide U, given
    # as the gaussian family and as a custom x^2/8, against the closed form
    wide_custom = custom(lambda x: x * x / 8.0, lambda x: x / 4.0, label="x^2/8")
    for wide in (gaussian(2.0), wide_custom):
        for g in (0.1 + 0.3j, -0.4 + 0.7j):
            assert abs(psi(wide, +1, g) - gaussian_closed_form(2.0 * g)[0]) < 5e-12, wide


def test_a_scaled_model_is_its_unit_model_at_sigma_gamma():
    # the widened beta keeps its rays: it answers at -3-4i wherever the unit
    # model answers at -6-8i, with dpsi scaled by sigma, bit for bit
    g = np.array([-3.0 - 4.0j, -0.2 + 0.6j, 0.1 + 0.3j])
    wide = CharFunctionHandle(scale(beta_family(2.5), 2.0)).values_batch(g)
    pp, dp, pm, dm = CharFunctionHandle(beta_family(2.5)).values_batch(2.0 * g)
    for got, want in zip(wide, (pp, 2.0 * dp, pm, 2.0 * dm)):
        assert np.array_equal(got, want)


def test_gaussian_family_takes_the_scaled_closed_form():
    # the family picks the closed form, at sigma gamma with dpsi scaled by
    # sigma, bit for bit
    g = np.array([0.1 + 0.3j, -0.4 + 0.7j, -2.5 - 3.0j])
    pp, dp, pm, dm = CharFunctionHandle(gaussian(2.0)).values_batch(g)
    closed, dclosed = gaussian_closed_form(2.0 * g)
    for value, deriv in ((pp, dp), (pm, dm)):
        assert np.array_equal(value, closed)
        assert np.array_equal(deriv, 2.0 * dclosed)


def test_handle_z_value_and_roots():
    pot = gaussian(1.0)
    handle = CharFunctionHandle(pot)
    # Z(0) = 0 exactly; its logarithmic derivative is guarded there
    assert abs(z_value_batch(handle, 0.0)[0]) < 1e-14
    with pytest.raises(NearZeroError):
        z_log_derivative_batch(handle, 0.0)
    # away from the spectrum Z is regular
    z = z_value_batch(handle, -0.2 + 0.5j)[0]
    assert np.isfinite(z.real) and np.isfinite(z.imag)


def test_z_log_derivative_at_regular_point():
    pot = gaussian(1.0)
    handle = CharFunctionHandle(pot)
    g = -0.3 + 0.4j
    h = 1e-6
    fd = (
        np.log(z_value_batch(handle, g + h)[0]) - np.log(z_value_batch(handle, g - h)[0])
    ) / (2 * h)
    assert abs(z_log_derivative_batch(handle, g)[0] - fd) < 1e-6


def test_branch_handles_satisfy_factorization():
    # Z = Z+ Z- for even potentials: 1 - psi^2 = (1 - psi)(1 + psi)
    pot = gaussian(1.0)
    full = CharFunctionHandle(pot, branch="full")
    plus = CharFunctionHandle(pot, branch="plus")
    minus = CharFunctionHandle(pot, branch="minus")
    for g in (-0.3 + 0.6j, -0.8 + 1.2j):
        zf = z_value_batch(full, g)[0]
        zp = z_value_batch(plus, g)[0]
        zm = z_value_batch(minus, g)[0]
        assert abs(zf - zp * zm) < 1e-12


# beta:2.5 at -0.3 + 0.6j is where a separate scalar psi path once differed
# from the batch in the last ulp
SCALAR_BATCH_GAMMAS = [-0.3 + 0.6j, -0.8 + 1.2j, 0.05 - 0.4j]


def test_batch_matches_scalar():
    # scalar psi is psi_batch of one, bit for bit, on both half lines
    for descriptor, sign, g in itertools.product(
        ("gaussian:1", "beta:2.5"), (+1, -1), SCALAR_BATCH_GAMMAS
    ):
        pot = parse_potential(descriptor)
        value, _ = psi_batch(pot, sign, [g])
        assert psi(pot, sign, g) == value[0]
        assert psi(pot, sign, g, verify=True) == value[0]


def test_values_batch_does_not_depend_on_call_history():
    # the members of a batch share panels, so a value computed alone differs
    # from the batch's own value in the last bits; a handle that kept it
    # would make the batch depend on what the handle saw before
    gammas = [-0.3 + 0.6j, -1.2 + 2.5j, -0.05 + 0.1j]
    fresh = CharFunctionHandle(beta_family(2.5))
    used = CharFunctionHandle(beta_family(2.5))
    used.values_batch(-0.3 + 0.6j)
    for a, b in zip(fresh.values_batch(gammas), used.values_batch(gammas)):
        assert np.array_equal(a, b)


def test_quadrature_backend_agrees_with_closed_form_handle():
    # beta:2 is x^2/2 exactly, evaluated by quadrature
    fast = CharFunctionHandle(gaussian(1.0))
    slow = CharFunctionHandle(beta_family(2.0))
    for g in (-0.4 + 0.8j, -0.7 + 1.4j):
        assert abs(z_value_batch(fast, g)[0] - z_value_batch(slow, g)[0]) < 5e-12


def test_z_prime_at_zero_equals_twice_mass():
    # dZ/dgamma at 0 is 2 int e^{-U} = 2 sqrt(2 pi) for the standard gaussian
    pot = gaussian(1.0)
    handle = CharFunctionHandle(pot)
    pp, dp, pm, dm = (v[0] for v in handle.values_batch(0.0))
    dz = -(pm * dp + pp * dm)
    assert abs(dz - 2.0 * SQRT_2PI) < 1e-12


@given(
    re=st.floats(-1.5, 0.5),
    im=st.floats(0.05, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_conjugate_symmetry_property(re, im):
    g = complex(re, im)
    a = gaussian_closed_form(np.conj(g))[0]
    b = np.conj(gaussian_closed_form(g)[0])
    assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def _ray_passes(monkeypatch):
    """The angle of every ray pass psi makes from here on (the real axis, phi = 0, is left out)."""
    rays, ab_pass = [], charfn._ab_pass

    def counted(potential, sign, g, phi, radius):
        rays.extend([phi] if phi != 0.0 else [])
        return ab_pass(potential, sign, g, phi, radius)

    monkeypatch.setattr(charfn, "_ab_pass", counted)
    return rays


def test_beta2_quadrature_psi_matches_gaussian_closed_form_under_cancellation(monkeypatch):
    # beta:2 is x^2/2 exactly, reached through the beta code path
    pot = beta_family(2.0)
    closed = gaussian_closed_form(CANCELLATION_POINTS)[0]
    scale = np.maximum(1.0, np.abs(closed))
    scalar = np.array([psi(pot, +1, g) for g in CANCELLATION_POINTS])
    assert np.all(np.abs(scalar - closed) <= 1e-9 * scale)
    batch = CharFunctionHandle(pot).values_batch(CANCELLATION_POINTS)[0]
    assert np.all(np.abs(batch - closed) <= 1e-9 * scale)
    # the defining integral follows the same rotated ray
    psi(pot, +1, CANCELLATION_POINTS[0], verify=True)
    # the gammas the real axis misses share one ray pass per angle: with a
    # shifted copy of each point, every angle serves two of them
    points = np.concatenate([CANCELLATION_POINTS, CANCELLATION_POINTS + 0.1])
    rays = _ray_passes(monkeypatch)
    value = CharFunctionHandle(pot).values_batch(points)[0]
    closed = gaussian_closed_form(points)[0]
    assert np.all(np.abs(value - closed) <= 1e-9 * np.maximum(1.0, np.abs(closed)))
    assert 0 < len(rays) <= len(set(rays))  # no more passes than angles


def test_beta25_quadrature_psi_against_mpmath_under_cancellation():
    value = psi(beta_family(2.5), +1, -4.0 - 6.0j)
    assert abs(value - BETA25_PSI) <= 1e-9 * max(1.0, abs(BETA25_PSI))


def test_handle_refuses_an_unknown_branch_and_factors_of_an_uneven_well():
    with pytest.raises(DomainError, match=r"branch must be one of \('full', 'plus', 'minus'\), got 'both'"):
        CharFunctionHandle(gaussian(1.0), branch="both")
    for branch in ("plus", "minus"):
        with pytest.raises(DomainError, match="plus/minus branches require an even potential"):
            CharFunctionHandle(skewed_well(), branch=branch)


def test_psi_batch_of_no_gammas_is_empty():
    value, deriv = psi_batch(beta_family(2.5), +1, [])
    assert value.shape == deriv.shape == (0,) and value.dtype == deriv.dtype == complex


def test_custom_potential_refuses_psi_short_of_tolerance():
    # x^2/2 again, but with no analytic continuation to rotate the path into
    pot = custom(lambda x: 0.5 * np.asarray(x) ** 2, np.asarray, lambda x: np.ones_like(x))
    with pytest.raises(IntegrationError, match=r"cancellation from e\^18"):
        psi(pot, +1, CANCELLATION_POINTS[0])
    # where the real axis meets its tolerance the custom route still answers
    assert abs(psi(pot, +1, -0.5 + 1.0j) - gaussian_closed_form(-0.5 + 1.0j)[0]) < 5e-12


def test_a_scaled_model_refusing_psi_names_the_callers_gamma_and_model():
    # the handle evaluates quad@scale=2 as quad at 2 gamma = -3 - 4i, where
    # the real axis needs cancellation from e^18; the error must still speak
    # of the model and the gamma the caller passed
    quad = custom(lambda x: 0.5 * np.asarray(x) ** 2, np.asarray, label="quad")
    with pytest.raises(IntegrationError) as info:
        CharFunctionHandle(scale(quad, 2.0)).values_batch(np.array([0.5, -1.5 - 2.0j]))
    assert str(info.value).startswith("psi of quad@scale=2 at gamma=(-1.5-2j) (sign +1)")
    assert "-3-4j" not in str(info.value)
    assert info.value.location == -1.5 - 2.0j


# ---------------------------------------------------------------------------
# the factored psi kernel against a node-wise GK15 oracle
# ---------------------------------------------------------------------------

# graded panels on [0, 8] (widths from 2^-8 to 1, several of each), panels
# of one width, and the one panel [0, 64], over which Re W spreads past the
# factored kernel's range
GRADED = np.concatenate([[0.0], 2.0 ** np.arange(-7, 1), [1.5, 2.0, 2.5, 4.0, 6.0, 8.0]])
GRADED = np.unique(np.concatenate([GRADED, 0.5 * (GRADED[1:] + GRADED[:-1])]))
UNIFORM = np.linspace(0.0, 8.0, 17)
WIDE = np.array([0.0, 64.0])


def _node_wise_panels(potential, sign, g, phi, a, b):
    """quadrature._panels on the rows [e^{-2 gamma u - W}, u e^{-2 gamma u - W}],
    one complex exp per (gamma, node), u = t e^{i phi}."""
    u_of, w_of, _ = charfn._path(potential, sign, phi)

    def rows(t):
        u = u_of(t)
        kernel = np.exp(-2.0 * g[:, None] * u[None, :] - w_of(u)[None, :])
        return np.concatenate([kernel, u[None, :] * kernel], axis=0)

    return quadrature._panels(rows, a, b)


@pytest.mark.parametrize(
    "descriptor,sign,n,ray,re_max",
    [
        pytest.param(descriptor, sign, n, ray, 0.5, id=f"{descriptor}-{sign}-{n}-{ray}")
        for descriptor, sign, n, ray in [
            ("beta:2.5", +1, 1, False),
            ("beta:2.5", +1, 100, False),
            ("beta:2.5", +1, 1, True),
            ("beta:2.5", +1, 100, True),
            ("beta:2", +1, 100, False),
            ("skewed", -1, 1, False),
            ("skewed", -1, 100, False),
        ]
    ]
    # steep: Re gamma up to 1e3 takes |Re s| h out of the factored kernel's range
    + [pytest.param("beta:2", +1, 20, False, 1e3, id="beta:2-1-20-steep")],
)
@pytest.mark.parametrize("edges", [GRADED, UNIFORM, WIDE], ids=["graded", "uniform", "wide"])
def test_factored_kernel_matches_the_node_wise_oracle(descriptor, sign, n, ray, re_max, edges):
    potential = skewed_well() if descriptor == "skewed" else parse_potential(descriptor)
    phi = 0.5 * potential.ray_sector if ray else 0.0
    rng = np.random.default_rng(n)
    g = rng.uniform(-1.5, re_max, n) + 1j * rng.uniform(-3.0, 3.0, n)
    a, b = edges[:-1], edges[1:]
    k, e, floor, batch = charfn._kernel_panels(potential, sign, g, phi)(a, b)
    ok, oe, ofloor, _ = _node_wise_panels(potential, sign, g, phi, a, b)
    assert batch and k.shape == e.shape == floor.shape == ok.shape == (a.size, 2 * n)
    # the evaluator's B rows leave out the e^{i phi} of u = t e^{i phi}
    k = k * np.repeat([1.0, cmath.exp(1j * phi)], n)
    scale = np.maximum(np.abs(ok), ofloor)
    for got, want in ((k, ok), (e, oe), (floor, ofloor)):
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_factored_kernel_samples_u_once_per_node_whatever_the_batch(monkeypatch):
    seen = []
    U = PotentialModel.U

    def counted(self, x):
        seen.append(np.size(x))
        return U(self, x)

    monkeypatch.setattr(PotentialModel, "U", counted)
    a, b = GRADED[:-1], GRADED[1:]
    for n in (1, 100):
        panels = charfn._kernel_panels(beta_family(2.5), +1, np.full(n, -0.3 + 1.1j), 0.0)
        seen.clear()
        panels(a, b)
        assert sum(seen) == 15 * a.size


@pytest.mark.parametrize("ray", [False, True], ids=["real axis", "ray"])
def test_factored_kernel_takes_no_exponential_per_panel_node_and_gamma(ray, monkeypatch):
    # counts the elements charfn passes to numpy's exp in one evaluator call:
    # at most one per (panel, gamma), (panel width, node, gamma) and (panel,
    # node), where a node-wise kernel takes panels x 15 x gammas
    count = []

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            count.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    potential, n, rng = beta_family(2.5), 30, np.random.default_rng(3)
    g = rng.uniform(-1.5, 0.5, n) + 1j * rng.uniform(-3.0, 3.0, n)
    panels = charfn._kernel_panels(potential, +1, g, 0.5 * potential.ray_sector if ray else 0.0)
    a, b = GRADED[:-1], GRADED[1:]
    monkeypatch.setattr(charfn, "np", Counted())
    panels(a, b)
    widths = np.unique(b - a).size
    assert 1 < widths < a.size
    assert 0 < sum(count) <= a.size * n + widths * 15 * n + a.size * 15


def test_factored_kernel_names_the_node_of_a_non_finite_sample():
    # U is NaN past x = 3: the first such node of the panel [0, 8] is named
    nan_past_3 = custom(lambda x: np.where(np.asarray(x) > 3.0, np.nan, 0.5 * np.asarray(x) ** 2), np.asarray)
    panels = charfn._kernel_panels(nan_past_3, +1, np.array([0.5 + 1j, 0.2]), 0.0)
    nodes = 4.0 + 4.0 * quadrature._NODES
    with pytest.raises(IntegrationError, match="non-finite integrand sample") as info:
        panels(np.array([0.0]), np.array([8.0]))
    assert info.value.location == nodes[nodes > 3.0][0]
    # e^{-2 gamma t - t^2/2} overflows first for the steeper member of a batch,
    # at the node named, whichever member comes first
    panels = charfn._kernel_panels(beta_family(2.0), +1, np.array([-200.0 + 0j, -400.0]), 0.0)
    with pytest.raises(IntegrationError, match="non-finite integrand sample") as info:
        panels(np.array([0.0]), np.array([8.0]))
    assert info.value.location == nodes[800.0 * nodes - nodes**2 / 2 > 710.0][0]


@pytest.mark.parametrize("g", [1e3, 1e4, 1e5, 1e3 + 1e3j])
def test_quadrature_psi_resolves_a_steep_kernel_at_large_re_gamma(g):
    # the kernel decays on the scale 1 / (2 Re gamma), far inside [0, radius]:
    # the initial panels must resolve it, or every node sees 0 and psi reads 1
    want = gaussian_closed_form(g)[0]
    assert abs(psi(beta_family(2.0), +1, g) - want) <= 1e-9 * max(1.0, abs(want))


def test_quadrature_psi_counts_its_truncation_tail(monkeypatch):
    # at margin 5 the tail past the radius is ~e^{-5}: psi(beta:2, +1, 0.5+1j)
    # once came back off by 6.4e-6 with no error; now the ray, cut by the
    # same margin, misses too, and psi refuses, naming the tail (nothing
    # cancels at Re gamma > 0)
    g = 0.5 + 1.0j
    tail = r"misses its tolerance on its best rotated ray \(phi = .*\): .*; the tail past radius .* alone is bounded by"
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_TRUNCATION_MARGIN", 5.0)
        with pytest.raises(IntegrationError, match=tail) as info:
            psi(beta_family(2.0), +1, g)
    assert "cancellation" not in str(info.value) and info.value.location == g
    assert abs(psi(beta_family(2.0), +1, g) - gaussian_closed_form(g)[0]) <= 1e-14


def test_a_gamma_whose_best_ray_misses_takes_no_second_ray(monkeypatch):
    # each missed gamma takes one ray; where it misses too, psi refuses at once
    rays = _ray_passes(monkeypatch)
    monkeypatch.setattr(quadrature, "_TRUNCATION_MARGIN", 5.0)
    with pytest.raises(IntegrationError, match="misses its tolerance on its best rotated ray"):
        psi(beta_family(2.0), +1, 0.5 + 1.0j)
    assert len(rays) == 1


def test_quadrature_psi_refusals_name_their_cause(monkeypatch):
    b2 = beta_family(2.0)
    # at margin 5.45e9 the real axis reaches its cut, the last table radius,
    # but the slower growth of Re U on every ray does not
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_TRUNCATION_MARGIN", 5.45e9)
        with pytest.raises(IntegrationError) as info:
            psi(b2, +1, CANCELLATION_POINTS[0])
    assert str(info.value).endswith("no rotated ray decays below the truncation margin")
    assert "cancellation from e^18" in str(info.value) and "analytic continuation" not in str(info.value)
    # a ray pass that raises refuses its gamma with the pass's own error
    ab_pass = charfn._ab_pass

    def no_rays(potential, sign, g, phi, radius):
        if phi != 0.0:
            raise IntegrationError("panel budget 20000 exhausted near x = 1", location=1.0)
        return ab_pass(potential, sign, g, phi, radius)

    monkeypatch.setattr(charfn, "_ab_pass", no_rays)
    with pytest.raises(IntegrationError) as info:
        psi_batch(b2, +1, np.array([0.5, CANCELLATION_POINTS[0]]))
    head = f"psi of beta:2 at gamma={complex(CANCELLATION_POINTS[0])} (sign +1) fails on its best rotated ray"
    assert str(info.value).startswith(head)
    assert "panel budget 20000 exhausted near x = 1; the real axis needs cancellation from e^18" in str(info.value)
    assert info.value.location == CANCELLATION_POINTS[0]


def test_a_real_axis_pass_out_of_panels_is_psis_named_refusal():
    # beta:1.5's real-axis batch runs out of panels: the refusal names the
    # member that cancels most, keeps the quadrature's text and says why
    g = np.array([-1.0 + 0.5j, -4.0 + 0.5j, -4.0 + 4.0j])
    with pytest.raises(IntegrationError) as info:
        psi_batch(beta_family(1.5), +1, g)
    msg = str(info.value)
    assert msg.startswith("psi of beta:1.5 at gamma=(-4+0.5j) (sign +1) fails on the real axis: panel budget 20000")
    assert msg.endswith("the real axis needs cancellation from e^171")
    assert info.value.location == -4.0 + 0.5j
    # a scaled model names the gamma its caller passed
    with pytest.raises(IntegrationError) as info:
        CharFunctionHandle(scale(beta_family(1.5), 2.0)).values_batch(g / 2.0)
    assert str(info.value).startswith("psi of beta:1.5@scale=2 at gamma=(-2+0.25j) (sign +1) fails on the real axis")
    assert info.value.location == -2.0 + 0.25j


def test_quadrature_psi_matches_the_closed_form_on_the_deep_strip():
    # Re gamma in [-4, -3], below criterion 03's grid: every gamma cancels on
    # the real axis (up to e^32) and is taken along its best ray
    g = (np.linspace(-4.0, -3.0, 5)[:, None] + 1j * np.linspace(-8.0, 8.0, 17)[None, :]).ravel()
    value = psi_batch(beta_family(2.0), +1, g)[0]
    closed = gaussian_closed_form(g)[0]
    assert np.all(np.abs(value - closed) <= 1e-9 * np.maximum(1.0, np.abs(closed)))


def test_psi_passes_meet_few_distinct_panel_widths(monkeypatch):
    # initial panels share one width that bisection halves exactly, so the
    # kernel's e^{s h x} table is built for few widths per evaluator call
    # (linspace cuts gave 1.26 on average here)
    widths, make = [], charfn._kernel_panels

    def counted(*args):
        panels = make(*args)

        def call(a, b):
            widths.append(np.unique(0.5 * (b - a)).size)
            return panels(a, b)

        return call

    monkeypatch.setattr(charfn, "_kernel_panels", counted)
    compute_spectrum(beta_family(2.5), ComplexRegion(-1.5, 0.1, -3.0, 3.0))
    assert np.mean(widths) <= 1.1


def _evaluator_calls(monkeypatch):
    """The panel count of each call of every psi pass's GK15 evaluator, from now on."""
    calls, make = [], charfn._kernel_panels

    def counted(*args):
        panels = make(*args)

        def call(a, b):
            calls.append(a.size)
            return panels(a, b)

        return call

    monkeypatch.setattr(charfn, "_kernel_panels", counted)
    return calls


def test_psi_passes_start_on_panels_that_resolve_their_batch(monkeypatch):
    # a pass starts on at least 8 panels and 2 per period of its fastest
    # oscillation, so refinement takes few evaluator rounds: the beta:2.5
    # benchmark region made 149 calls on 804 panels at 1 panel per period
    calls = _evaluator_calls(monkeypatch)
    compute_spectrum(beta_family(2.5), ComplexRegion(-1.5, 0.1, -3.0, 3.0))
    assert len(calls) <= 80 and sum(calls) <= 804


def test_a_one_gamma_pass_near_the_real_axis_starts_resolved(monkeypatch):
    # it once started on a single panel and took 4 evaluator rounds
    calls = _evaluator_calls(monkeypatch)
    psi_batch(beta_family(2.5), +1, [-0.5 + 1e-4j])
    assert len(calls) <= 2


NON_FINITE = [complex(0.0, math.inf), complex(math.nan, 0.0), complex(-math.inf, 1.0)]


@pytest.mark.parametrize(
    "call",
    [
        lambda g: psi(beta_family(2.5), +1, g),
        lambda g: psi_batch(beta_family(2.5), -1, [0.5, g]),
        lambda g: CharFunctionHandle(gaussian(1.0)).values_batch([0.5, g]),
        lambda g: CharFunctionHandle(scale(beta_family(2.5), 2.0)).values_batch([g]),
        lambda g: z_value_batch(CharFunctionHandle(beta_family(3.0), "plus"), [g]),
    ],
    ids=["psi", "psi_batch", "values_batch gaussian", "values_batch scaled beta", "z_value_batch"],
)
@pytest.mark.parametrize("g", NON_FINITE, ids=["inf_imag", "nan", "-inf"])
def test_a_non_finite_gamma_is_refused_by_name(call, g):
    with pytest.raises(DomainError, match=r"gamma must be finite") as info:
        call(g)
    assert str(g) in str(info.value)
