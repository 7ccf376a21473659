import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzagspec.errors import DomainError, IntegrationError
from zigzagspec.potential import beta_family, gaussian
from zigzagspec.quadrature import (
    _GAUSS_W,
    _KRONROD_W,
    _NODES,
    DecayProfile,
    QuadratureConfig,
    _initial_edges,
    gk_cells,
    integrate_finite,
    integrate_semiinfinite,
    truncation_radius,
)

# the default tolerances leave a noise floor of ~1e-12 on O(1) integrals
ABS_FLOOR = 1e-11


def test_polynomial_exactness():
    # GK15 integrates degree <= 22 exactly; a single panel suffices
    val, err = integrate_finite(lambda x: x**7 - 3 * x**4 + x, -1.0, 2.0)
    exact = (2.0**8 - 1.0) / 8 - 3 * (2.0**5 + 1.0) / 5 + (2.0**2 - 1.0) / 2
    assert abs(val - exact) < 1e-13
    assert err < 1e-12


def test_gaussian_integral():
    val, _ = integrate_finite(lambda x: np.exp(-x * x), -8.0, 8.0)
    assert abs(val - math.sqrt(math.pi)) < ABS_FLOOR


def test_oscillatory_integrand_needs_hint():
    # int_0^1 cos(50 x) dx = sin(50)/50
    val, _ = integrate_finite(lambda x: np.cos(50 * x), 0.0, 1.0, oscillation=50.0)
    assert abs(val - math.sin(50.0) / 50.0) < 1e-12


def test_breakpoints_capture_kinks():
    val, _ = integrate_finite(lambda x: np.abs(x), -1.0, 1.0, breakpoints=(0.0,))
    assert abs(val - 1.0) < 1e-13


def test_batch_rows_integrate_together():
    def rows(x):
        return np.vstack([np.ones_like(x), x, x * x])

    vals, errs = integrate_finite(rows, 0.0, 1.0)
    assert np.allclose(vals, [1.0, 0.5, 1.0 / 3.0], atol=1e-13)
    assert errs.shape == (3,)


def test_complex_integrand():
    val, _ = integrate_finite(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert abs(val - (np.sin(math.pi) + 1j * (1 - np.cos(math.pi)))) < 1e-12


def test_limit_validation():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 0.0, math.inf)
    val, err = integrate_finite(lambda x: x, 1.0, 1.0)
    assert val == 0.0 and err == 0.0


def test_nonfinite_integrand_raises_with_location():
    def bad(x):
        with np.errstate(divide="ignore"):
            out = np.asarray(1.0 / (x - 0.3), dtype=complex)
        return out

    with pytest.raises(IntegrationError):
        integrate_finite(bad, 0.0, 1.0)


def test_truncation_radius_gaussian_tail():
    prof = DecayProfile(potential=gaussian(1.0), alpha=0.0)
    r, tail = truncation_radius(prof)
    # envelope exp(-x^2/2) < exp(-40) needs r ~ sqrt(80) ~ 8.9
    assert 8.0 <= r <= 12.0
    assert tail < 1e-15


def test_truncation_radius_growth_pushes_out():
    base, _ = truncation_radius(DecayProfile(potential=gaussian(1.0), alpha=0.0))
    moved, _ = truncation_radius(DecayProfile(potential=gaussian(1.0), alpha=3.0))
    assert moved > base


def test_semiinfinite_gaussian_halfline():
    prof = DecayProfile(potential=gaussian(1.0), alpha=0.0)
    val, err = integrate_semiinfinite(
        lambda x: np.exp(-x * x / 2.0), 0.0, prof
    )
    assert abs(val - math.sqrt(math.pi / 2.0)) < ABS_FLOOR


def test_semiinfinite_left_tail():
    prof = DecayProfile(potential=gaussian(1.0), alpha=0.0, direction=-1)
    val, _ = integrate_semiinfinite(lambda x: np.exp(-x * x / 2.0), 0.0, prof)
    assert abs(val - math.sqrt(math.pi / 2.0)) < ABS_FLOOR


def test_semiinfinite_beta_family():
    pot = beta_family(2.5)
    prof = DecayProfile(potential=pot, alpha=0.5)
    val, _ = integrate_semiinfinite(
        lambda x: np.exp(0.5 * x - pot.U(x)), 0.0, prof
    )
    # oracle: same integral on a generously wide finite interval
    ref, _ = integrate_finite(lambda x: np.exp(0.5 * x - pot.U(x)), 0.0, 40.0)
    assert abs(val - ref) < 1e-10


def test_gk_cells_matches_adaptive_on_smooth_cells():
    edges = np.linspace(0.0, 2.0, 513)
    vals, errs = gk_cells(lambda x: np.exp(-x) * np.cos(3 * x), edges)
    total = vals.sum()
    ref, _ = integrate_finite(lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 2.0, oscillation=3.0)
    assert abs(total - ref) < 1e-13
    assert errs.max() < 1e-14


def test_gk_cells_validates_edges():
    with pytest.raises(DomainError):
        gk_cells(lambda x: x, [0.0])
    with pytest.raises(DomainError):
        gk_cells(lambda x: x, [0.0, 1.0, 0.5])


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1e-9)
    with pytest.raises(DomainError):
        QuadratureConfig(max_depth=0)


@given(
    a=st.floats(-5, 5),
    width=st.floats(0.1, 10),
    c0=st.floats(-3, 3),
    c1=st.floats(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_affine_exactness_property(a, width, c0, c1):
    b = a + width
    val, _ = integrate_finite(lambda x: c0 + c1 * x, a, b)
    exact = c0 * (b - a) + c1 * (b * b - a * a) / 2.0
    assert abs(val - exact) <= 1e-11 * (1.0 + abs(exact))


@given(
    split=st.floats(0.1, 0.9),
)
@settings(max_examples=30, deadline=None)
def test_interval_additivity_property(split):
    f = lambda x: np.exp(-x) * np.sin(2 * x)
    whole, _ = integrate_finite(f, 0.0, 1.0, oscillation=2.0)
    left, _ = integrate_finite(f, 0.0, split, oscillation=2.0)
    right, _ = integrate_finite(f, split, 1.0, oscillation=2.0)
    assert abs(whole - (left + right)) < 1e-11


# ---------------------------------------------------------------------------
# batched refinement against a per-panel heap loop
#
# The reference below is the classic QUADPACK-style loop: one GK15 panel per
# integrand call, always bisecting the single worst panel.  The batched
# integrator refines many panels per call, so its sums run in another order and
# it may stop on a finer mesh; both must land within the requested tolerance.


def _reference_panel(f, a, b):
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    v = np.atleast_2d(np.asarray(f(c + h * _NODES)))
    k = h * (v @ _KRONROD_W)
    noise = np.finfo(float).eps * h * (np.abs(v) @ _KRONROD_W)
    return k, np.abs(k - h * (v @ _GAUSS_W)), noise


def _reference_heap(f, edges, cfg):
    heap, totals = [], None
    for a, b in zip(edges, edges[1:]):
        k, e, n = _reference_panel(f, a, b)
        totals = [k, e, n] if totals is None else [totals[0] + k, totals[1] + e, totals[2] + n]
        heapq.heappush(heap, (-float(e.max()), len(heap), a, b, k, e, n))
    serial = len(heap)
    while heap:
        tol = np.maximum(np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(totals[0])), 8.0 * totals[2])
        if np.all(totals[1] <= tol):
            break
        _, _, a, b, k, e, n = heapq.heappop(heap)
        if np.all(e <= 8.0 * n):
            continue
        m = 0.5 * (a + b)
        for lo, hi in ((a, m), (m, b)):
            k2, e2, n2 = _reference_panel(f, lo, hi)
            totals = [totals[0] + k2, totals[1] + e2, totals[2] + n2]
            heapq.heappush(heap, (-float(e2.max()), serial, lo, hi, k2, e2, n2))
            serial += 1
        totals = [totals[0] - k, totals[1] - e, totals[2] - n]
    return totals[0], totals[1]


def _exp_rows(rates, scales):
    rates = np.asarray(rates, dtype=complex)
    scales = np.asarray(scales, dtype=float)

    def rows(x):
        return scales[:, None] * np.exp(rates[:, None] * x[None, :])

    def exact(a, b):
        return scales * (np.exp(rates * b) - np.exp(rates * a)) / rates

    return rows, exact


_CFG = QuadratureConfig()


@pytest.mark.parametrize(
    "rates, scales, oscillation",
    [
        # oscillatory rows of different frequencies on shared panels
        ([20j - 0.5, 5j, -1.0 + 40j], [1.0, 1.0, 1.0], 40.0),
        # rows whose magnitudes differ by 1e6, so their tolerances differ too
        ([1j - 0.3, 3j + 0.2, -2.0 + 7j], [1.0, 1e6, 1e-6], 7.0),
        # oscillation left to the error estimate
        ([15j, -0.1 + 9j], [1e3, 1e-3], 0.0),
    ],
)
def test_batched_refinement_matches_heap_reference(rates, scales, oscillation):
    rows, exact = _exp_rows(rates, scales)
    a, b = -1.0, 2.0
    vals, errs = integrate_finite(rows, a, b, _CFG, oscillation=oscillation)
    ref, ref_errs = _reference_heap(rows, _initial_edges(a, b, oscillation, ()), _CFG)
    want = exact(a, b)
    tol = np.maximum(_CFG.abs_tol, _CFG.rel_tol * np.abs(want))
    assert np.all(errs <= tol) and np.all(ref_errs <= tol)
    assert np.all(np.abs(vals - ref) <= tol)
    assert np.all(np.abs(vals - want) <= tol)


def test_refinement_rounds_share_one_integrand_call():
    calls, panels = [], []

    def f(x):
        calls.append(1)
        panels.append(x.size // 15)
        return np.exp(-x * x)

    cfg = QuadratureConfig(max_depth=8)
    val, _ = integrate_finite(f, -8.0, 8.0, cfg)
    assert abs(val - math.sqrt(math.pi)) < ABS_FLOOR
    # one call per refinement round, far fewer than the panels it evaluates
    assert len(calls) <= cfg.max_depth + 1
    assert 2 * len(calls) < sum(panels)


def test_step_function_hits_max_depth():
    with pytest.raises(IntegrationError, match="max refinement depth 5"):
        integrate_finite(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, QuadratureConfig(max_depth=5))


def test_unhinted_fast_oscillation_exhausts_panel_budget():
    with pytest.raises(IntegrationError, match="panel budget .* exhausted"):
        integrate_finite(lambda x: np.sin(1e6 * x), 0.0, 1.0)
