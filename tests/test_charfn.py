import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzagspec.charfn import (
    CharFunctionHandle,
    gaussian_closed_form,
    psi,
    psi_batch,
    z_log_derivative_batch,
    z_value_batch,
)
from zigzagspec.errors import DomainError, IntegrationError, NearZeroError
from zigzagspec.potential import beta_family, custom, gaussian, parse_potential, scale

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


def test_beta2_quadrature_psi_matches_gaussian_closed_form_under_cancellation():
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


def test_beta25_quadrature_psi_against_mpmath_under_cancellation():
    value = psi(beta_family(2.5), +1, -4.0 - 6.0j)
    assert abs(value - BETA25_PSI) <= 1e-9 * max(1.0, abs(BETA25_PSI))


def test_custom_potential_refuses_psi_short_of_tolerance():
    # x^2/2 again, but with no analytic continuation to rotate the path into
    pot = custom(lambda x: 0.5 * np.asarray(x) ** 2, np.asarray, lambda x: np.ones_like(x))
    with pytest.raises(IntegrationError, match=r"cancellation from e\^18"):
        psi(pot, +1, CANCELLATION_POINTS[0])
    # where the real axis meets its tolerance the custom route still answers
    assert abs(psi(pot, +1, -0.5 + 1.0j) - gaussian_closed_form(-0.5 + 1.0j)[0]) < 5e-12
