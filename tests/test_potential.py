import cmath
import math
import time
import warnings

import numpy as np
import pytest

from conftest import skewed_well
from zigzagspec.errors import DomainError
from zigzagspec.potential import (
    SwitchingRateSpec,
    beta_family,
    check_assumptions,
    custom,
    gaussian,
    parse_potential,
    scale,
    switching_rate,
)
from zigzagspec.spectrum import default_re_range


def test_gaussian_values():
    pot = gaussian(1.0)
    xs = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    assert np.allclose(pot.U(xs), xs * xs / 2.0, rtol=0, atol=0)
    assert np.allclose(pot.dU(xs), xs, rtol=0, atol=0)
    assert np.allclose(pot.d2U(xs), 1.0)


def test_gaussian_sigma_scaling():
    pot = gaussian(2.0)
    assert pot.U(2.0) == pytest.approx(0.5)
    assert pot.dU(2.0) == pytest.approx(0.5)


def test_beta_family_reduces_to_gaussian_at_two():
    pot = beta_family(2.0)
    xs = np.linspace(-4, 4, 41)
    assert np.allclose(pot.U(xs), xs * xs / 2.0, atol=1e-12)
    assert np.allclose(pot.dU(xs), xs, atol=1e-12)


def test_beta_family_derivative_consistency():
    pot = beta_family(2.5)
    xs = np.linspace(-3, 3, 25)
    h = 1e-6
    fd = (pot.U(xs + h) - pot.U(xs - h)) / (2 * h)
    assert np.allclose(pot.dU(xs), fd, atol=1e-8)


def test_u_and_du_follow_the_input_dtype():
    # complex input continues the closed forms (principal branch for beta);
    # real input stays real, with no ComplexWarning on the way
    z = np.array([1.0 + 1.0j, -2.0 + 0.5j, 0.3 - 0.7j])
    b = beta_family(2.5)
    cont = np.array([(cmath.exp(1.25 * cmath.log(1.0 + w * w)) - 1.0) / 2.5 for w in z])
    assert np.allclose(b.U(z), cont, rtol=1e-14, atol=0)
    assert b.U(1 + 1j) == pytest.approx(-0.197 + 1.075j, abs=1e-3)
    h = 1e-5  # dU is U' on the same branch: a complex central difference
    assert np.allclose(b.dU(z), (b.U(z + h) - b.U(z - h)) / (2 * h), rtol=1e-9, atol=0)
    g = gaussian(2.0)
    assert np.array_equal(g.U(z), z * z / 8.0) and np.array_equal(g.dU(z), z / 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert b.U(np.array([1, 2])).dtype == float and b.dU(3).dtype == float
    with pytest.raises(DomainError, match="analytic continuation"):
        custom(lambda x: x * x, lambda x: 2 * x).U(1j)
    with pytest.raises(DomainError, match="analytic continuation"):
        scale(custom(lambda x: x * x, lambda x: 2 * x), 2.0).dU(np.array([1.0 + 0.5j]))


def test_d2u_follows_the_input_dtype():
    # d2U takes U's and dU's dtype rule: complex input continues the closed
    # forms (d2U is dU' on the same branch), custom potentials refuse it, and
    # real or integer input stays float64 with no warning
    z = np.array([1.0 + 1.0j, -2.0 + 0.5j, 0.3 - 0.7j])
    h = 1e-5
    for pot in (beta_family(2.5), gaussian(2.0), scale(beta_family(2.5), 2.0)):
        fd = (pot.dU(z + h) - pot.dU(z - h)) / (2 * h)
        assert np.allclose(pot.d2U(z), fd, rtol=1e-9, atol=0), pot
        assert pot.d2U(z[0]) == pytest.approx(complex(fd[0]), rel=1e-9)
    cosh = custom(np.cosh, np.sinh, np.cosh, label="cosh")
    with pytest.raises(DomainError, match="analytic continuation"):
        cosh.d2U(np.array([1.0 + 0.5j]))
    with pytest.raises(DomainError, match="analytic continuation"):
        scale(cosh, 2.0).d2U(1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pot in (beta_family(2.5), gaussian(2.0), cosh, scale(cosh, 2.0)):
            assert pot.d2U(np.array([1, 2])).dtype == float and pot.d2U(3).dtype == float


def test_potential_normalized_at_zero():
    for pot in (gaussian(0.7), beta_family(1.5), beta_family(3.0)):
        assert pot.U(0.0) == pytest.approx(0.0, abs=1e-15)


def test_invalid_parameters_raise():
    with pytest.raises(DomainError):
        gaussian(0.0)
    with pytest.raises(DomainError):
        gaussian(-1.0)
    with pytest.raises(DomainError):
        gaussian(float("nan"))
    with pytest.raises(DomainError):
        beta_family(1.0)
    with pytest.raises(DomainError):
        beta_family(float("inf"))


def test_custom_potential_offset_and_monotonicity():
    pot = custom(lambda x: np.cosh(x), lambda x: np.sinh(x), label="cosh")
    # U is shifted so U(0) = 0
    assert pot.U(0.0) == pytest.approx(0.0)
    assert pot.U(1.0) == pytest.approx(math.cosh(1.0) - 1.0)
    with pytest.raises(DomainError):
        custom(lambda x: -np.asarray(x) ** 2, lambda x: -2 * np.asarray(x))


def test_parse_potential_round_trip():
    for text in ("gaussian:1", "gaussian:2.5", "beta:2.5", "beta:1.75"):
        pot = parse_potential(text)
        assert pot.descriptor() == text
        assert parse_potential(pot.descriptor()).descriptor() == text
    assert parse_potential("gaussian").sigma == 1.0
    with pytest.raises(DomainError):
        parse_potential("uniform:1")
    with pytest.raises(DomainError):
        parse_potential("beta")  # exponent required
    with pytest.raises(DomainError):
        parse_potential("gaussian:xyz")


@pytest.mark.parametrize("text", ["gaussian:1:2", "beta:2.5:junk"])
def test_a_descriptor_with_extra_fields_is_refused(text):
    # these once parsed as gaussian:1 and beta:2.5, the extra field dropped
    with pytest.raises(DomainError, match="more than one ':' field"):
        parse_potential(text)


def test_scale_gaussian_collapses_to_wider_gaussian():
    assert scale(gaussian(1.0), 2.0).sigma == 4.0 / 2.0  # descriptor sigma = 2
    pot = scale(beta_family(2.5), 3.0)
    xs = np.linspace(-2, 2, 9)
    base = beta_family(2.5)
    assert np.allclose(pot.U(xs), base.U(xs / 3.0), atol=1e-14)
    assert np.allclose(pot.dU(xs), base.dU(xs / 3.0) / 3.0, atol=1e-14)
    with pytest.raises(DomainError):
        scale(gaussian(1.0), 0.0)


def test_scale_keeps_the_family():
    # a widened beta keeps its closed form, continuation, ray sector and
    # evenness, and the default region follows its width
    unit = beta_family(2.5)
    wide = scale(unit, 2.0)
    assert (wide.family, wide.sigma, wide.descriptor()) == ("beta", 2.0, "beta:2.5@scale=2")
    assert wide.ray_sector == math.pi / 5.0
    assert wide.is_symmetric
    assert default_re_range(wide) == (-2.0, 0.1)
    assert scale(wide, 3.0) == scale(unit, 6.0)
    z = np.array([0.7 + 0.4j, -3.0 - 1.0j])
    assert np.array_equal(wide.U(z), unit.U(z / 2.0))
    cosh = scale(custom(np.cosh, np.sinh, label="cosh"), 2.0)
    assert (cosh.family, cosh.descriptor()) == ("custom", "cosh@scale=2")
    assert cosh.U(2.0) == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-15)


@pytest.mark.parametrize(
    "pot",
    [gaussian(1.0), gaussian(2.0), beta_family(1.5), beta_family(2.5), beta_family(3.0), scale(beta_family(2.5), 2.0)],
    ids=lambda pot: pot.descriptor(),
)
def test_u_inverse_round_trips(pot):
    # the radius the sampler puts each event at: U(U^{-1}(u)) = u from the
    # mode's neighbourhood (U ~ x^2 / 2, no cancellation) to the far tail
    u = np.array([1e-300, 1e-12, 1e-3, 1.0, 1e3, 1e6])
    r = pot.U_inverse(u)
    assert np.all(r > 0.0)
    np.testing.assert_allclose(pot.U(r), u, rtol=1e-13, atol=0.0)
    assert pot.U_inverse(0.0) == 0.0


@pytest.mark.parametrize(
    "pot",
    [custom(np.cosh, np.sinh, label="cosh"), scale(custom(np.cosh, np.sinh, label="cosh"), 2.0), skewed_well()],
    ids=lambda pot: pot.descriptor(),
)
def test_u_inverse_round_trips_on_each_side_of_a_custom_well(pot):
    # the bracketed Newton solve behind the sampler: U(side U^{-1}(u, side)) = u
    # on both sides, also where the well is not even and through a width
    u = np.geomspace(1e-3, 1e6, 37)
    for side in (1, -1):
        r = pot.U_inverse(u, side)
        assert np.all(r > 0.0)
        np.testing.assert_allclose(pot.U(side * r), u, rtol=1e-12, atol=0.0)
    sides = np.array([1, -1, 1, -1, 1, -1])
    each = np.where(sides > 0, pot.U_inverse(u[:6], 1), pot.U_inverse(u[:6], -1))
    np.testing.assert_array_equal(pot.U_inverse(u[:6], sides), each)
    assert pot.U_inverse(0.0, -1) == 0.0 and pot.U_inverse(math.inf) == math.inf


def test_u_inverse_refuses_a_custom_well_it_cannot_invert():
    # U never reaches 2: the doubling bracket runs out of floats and says so, quickly
    bounded = custom(lambda x: 1.0 - np.exp(-np.asarray(x) ** 2), lambda x: 2.0 * x * np.exp(-np.asarray(x) ** 2),
                     label="bounded")
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match=r"bounded@scale=3: U stays below u = 2 on side -1 \(bounded U\)"):
        scale(bounded, 3.0).U_inverse(np.array([0.5, 2.0]), -1)
    assert time.perf_counter() - t0 < 1.0
    # U = 16 x^2 (x - 1)^2 falls on (1/2, 1): Newton starts there for u = 0.3
    dip = custom(lambda x: 16.0 * x**2 * (x - 1.0) ** 2, lambda x: 32.0 * x * (x - 1.0) * (2.0 * x - 1.0), label="dip")
    with pytest.raises(DomainError, match=r"dip: U' has the wrong sign at x = 0.77.* \(inverting U = 0.3\)"):
        dip.U_inverse(0.3)


def test_u_inverse_refuses_negative_u():
    with pytest.raises(DomainError, match=r"^skewed inverts U only at u >= 0, got u = -1$"):
        skewed_well().U_inverse(np.array([0.5, -1.0]))
    with pytest.raises(DomainError, match=r"got u = nan$"):
        skewed_well().U_inverse(math.nan)


def test_d2u_of_a_custom_well_without_the_hook_is_refused():
    with pytest.raises(DomainError, match="custom potential has no second-derivative hook"):
        skewed_well().d2U(1.0)


def test_switching_rate_canonical():
    pot = gaussian(1.0)
    spec = SwitchingRateSpec()
    # rate is (theta U')^+ : zero uphill-facing-away, |x| toward the tail
    assert switching_rate(pot, spec, -3.0, +1) == 0.0
    assert switching_rate(pot, spec, 3.0, +1) == 3.0
    assert switching_rate(pot, spec, -3.0, -1) == 3.0
    assert switching_rate(pot, spec, 3.0, -1) == 0.0
    refreshed = SwitchingRateSpec(lambda_refr=0.25)
    assert switching_rate(pot, refreshed, -3.0, +1) == 0.25
    assert switching_rate(pot, refreshed, 3.0, +1) == 3.25


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_switching_rate_refuses_non_finite_x(bad):
    with pytest.raises(DomainError, match="switching rate evaluated at non-finite x"):
        switching_rate(gaussian(1.0), SwitchingRateSpec(), np.array([0.0, bad]), +1)


def test_switching_rate_spec_validation():
    with pytest.raises(DomainError):
        SwitchingRateSpec(lambda_refr=-0.1)


def test_symmetry_detection():
    assert gaussian(1.0).is_symmetric
    assert beta_family(2.5).is_symmetric
    assert not skewed_well().is_symmetric


def test_check_assumptions_gaussian_all_verified():
    report = check_assumptions(gaussian(1.0))
    assert report["A2"].startswith("verified")
    assert report["A3"].startswith("verified")
    assert report["A6"].startswith("verified")
    assert report["A7"].startswith("verified")
    # A4 and A5 cannot be certified by a pointwise scan
    assert report["A4"] == "not-checked"
    assert report["A5"] == "not-checked"


def test_check_assumptions_judges_a_wide_model_on_its_unit_shape():
    # A1-A7 are invariant under x -> x / sigma, so a width sigma model gets its
    # unit model's verdicts, witnesses x times sigma and M, m over sigma^2; a
    # fixed [-20, 20] scan of gaussian:100 saw U' = 0.2 at its edge
    unit = check_assumptions(gaussian(1.0)).statuses
    assert repr(unit) == repr(
        {
            "A1": "verified-on-grid (delta=0.1, M=1)",
            "A2": "verified-on-grid",
            "A3": "verified-on-grid",
            "A4": "not-checked",
            "A5": "not-checked",
            "A6": "verified-on-grid (m=1)",
            "A7": "verified-on-grid",
        }
    )
    wide = check_assumptions(gaussian(100.0)).statuses
    assert {k: v.split()[0] for k, v in wide.items()} == {k: v.split()[0] for k, v in unit.items()}
    assert (wide["A1"], wide["A6"]) == ("verified-on-grid (delta=0.1, M=0.0001)", "verified-on-grid (m=0.0001)")
    assert check_assumptions(beta_family(1.5))["A6"] == "violated-at x=-20"
    assert check_assumptions(scale(beta_family(1.5), 30.0))["A6"] == "violated-at x=-600"


def test_check_assumptions_beta_below_two_flags_curvature():
    # U'' of the beta family decays at infinity for beta < 2: no uniform
    # positive floor, so the convexity-at-infinity check must not pass
    report = check_assumptions(beta_family(1.5))
    assert not report["A6"].startswith("verified")
