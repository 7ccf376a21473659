import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import skewed_well
from zigzagspec.errors import DomainError, IntegrationError, TruncationError
from zigzagspec.operator import inner_product_mu
from zigzagspec.potential import beta_family, custom, gaussian
from zigzagspec.quadrature import (
    _GAUSS_W,
    _KRONROD_W,
    _NODES,
    QuadratureConfig,
    _adaptive,
    _initial_edges,
    _panels,
    integrate_finite,
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
    r, tail = truncation_radius(gaussian(1.0), 0.0)
    # envelope exp(-x^2/2) < exp(-40) needs r ~ sqrt(80) ~ 8.9
    assert 8.0 <= r <= 12.0
    assert tail < 1e-15


def test_truncation_radius_growth_pushes_out():
    base, _ = truncation_radius(gaussian(1.0), 0.0)
    moved, _ = truncation_radius(gaussian(1.0), 3.0)
    assert moved > base


_COSH = custom(np.cosh, np.sinh, label="cosh")


@pytest.mark.parametrize("potential", [gaussian(2.0), beta_family(1.5), beta_family(4.0), _COSH, skewed_well()])
@pytest.mark.parametrize("side", [+1, -1])
@pytest.mark.parametrize("alpha", [0.0, 3.0])
@pytest.mark.parametrize("center", [0.0, 1.5])
def test_truncation_tail_bound_covers_the_true_tail(potential, side, alpha, center):
    # the true tail of e^{alpha t - (U(c + side t) - U(c))} past R, integrated
    # out to 4 R, where the envelope is far below e^{-margin}; both sides are
    # scaled by e^{-le(R)} so that the integral is O(1) against abs_tol
    c = side * center  # the center past the mode on the side probed

    def le(t):
        return alpha * t - (potential.U(c + side * np.asarray(t)) - potential.U(c))

    r, tail = truncation_radius(potential, alpha, side, c)
    assert le(4.0 * r) < le(r) - 40.0
    val, err = integrate_finite(lambda t: np.exp(le(t) - le(r)), r, 4.0 * r)
    assert val.real + err <= tail * math.exp(-le(r))


@pytest.mark.parametrize("potential", [beta_family(2.5), skewed_well()], ids=["beta2.5", "skewed"])
@pytest.mark.parametrize("side", [+1, -1])
def test_an_array_of_rates_is_cut_as_each_rate_alone(potential, side):
    # one table, one cut for every rate: the same radius and tail bit for bit
    alphas = np.array([0.0, 0.3, 1.7, 0.3, 6.0])
    radii, tails = truncation_radius(potential, -alphas, side)
    assert [(r, t) for r, t in zip(radii.tolist(), tails.tolist())] == [truncation_radius(potential, a, side) for a in alphas]


def test_truncation_radius_refuses_past_the_table_end():
    # U ~ |x|^1.05 / 1.05 falls behind e^{8 t} until t ~ 1e18
    with pytest.raises(TruncationError):
        truncation_radius(beta_family(1.05), 8.0)
    with pytest.raises(TruncationError):  # one rate past the end refuses the whole array
        truncation_radius(beta_family(1.05), np.array([0.0, 8.0]))


def _unit(x, theta):
    return np.ones_like(x)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, np.array([0.0, math.nan])], ids=["nan", "inf", "-inf", "array"])
def test_truncation_radius_refuses_a_rate_that_is_not_finite(alpha):
    # a nan rate once read as "no truncation radius below 1.045e+05 reaches envelope exp(-40)"
    with pytest.raises(DomainError, match="truncation rate must be finite"):
        truncation_radius(gaussian(1.0), alpha)
    with pytest.raises(DomainError, match="truncation rate must be finite"):  # the public pairing reaches it
        inner_product_mu(_unit, _unit, gaussian(1.0), growth=np.max(alpha))


@pytest.mark.parametrize("oscillation", [math.inf, math.nan, -1.0])
def test_integrate_finite_refuses_an_oscillation_that_is_not_finite_and_nonnegative(oscillation):
    # inf once raised ZeroDivisionError while cutting the initial panels; nan and -1 were ignored
    with pytest.raises(DomainError, match="oscillation must be finite and >= 0"):
        integrate_finite(np.cos, 0.0, 1.0, oscillation=oscillation)
    with pytest.raises(DomainError, match="oscillation must be finite and >= 0"):  # the public pairing reaches it
        inner_product_mu(_unit, _unit, gaussian(1.0), oscillation=oscillation)


@pytest.mark.parametrize("side, center", [(2, 0.0), (0, 0.0), (1, math.nan), (-1, math.inf)])
def test_truncation_radius_refuses_a_bad_side_or_center(side, center):
    # side 2 once returned R = 4.5, as if U were sampled at twice the radius;
    # side 0 and a nan center read as "no truncation radius below 1.045e+05 ..."
    with pytest.raises(DomainError, match="side \\+1 or -1 and a finite center"):
        truncation_radius(gaussian(1.0), 0.0, side, center)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_integrate_finite_refuses_a_breakpoint_that_is_not_finite(point):
    # a nan breakpoint was once dropped without a word
    with pytest.raises(DomainError, match="breakpoints must be finite"):
        integrate_finite(np.cos, 0.0, 1.0, breakpoints=(0.5, point))


def _semiinfinite(f, potential, alpha, side=+1):
    """A half-line integral the way callers build one: integrate_finite up
    to the certified truncation radius, with the tail bound in the error."""
    r, tail = truncation_radius(potential, alpha, side)
    a, b = (0.0, r) if side > 0 else (-r, 0.0)
    val, err = integrate_finite(f, a, b)
    return val, err + tail


def test_semiinfinite_gaussian_halfline():
    val, err = _semiinfinite(lambda x: np.exp(-x * x / 2.0), gaussian(1.0), 0.0)
    assert abs(val - math.sqrt(math.pi / 2.0)) < ABS_FLOOR


def test_semiinfinite_left_tail():
    val, _ = _semiinfinite(lambda x: np.exp(-x * x / 2.0), gaussian(1.0), 0.0, side=-1)
    assert abs(val - math.sqrt(math.pi / 2.0)) < ABS_FLOOR


def test_semiinfinite_beta_family():
    pot = beta_family(2.5)
    val, _ = _semiinfinite(lambda x: np.exp(0.5 * x - pot.U(x)), pot, 0.5)
    # oracle: same integral on a generously wide finite interval
    ref, _ = integrate_finite(lambda x: np.exp(0.5 * x - pot.U(x)), 0.0, 40.0)
    assert abs(val - ref) < 1e-10


def test_panels_match_adaptive_on_smooth_cells():
    # one GK15 panel per cell, no refinement: on a fine grid already at roundoff
    edges = np.linspace(0.0, 2.0, 513)
    vals, errs, _, _ = _panels(lambda x: np.exp(-x) * np.cos(3 * x), edges[:-1], edges[1:])
    total = vals.sum()
    ref, _ = integrate_finite(lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 2.0, oscillation=3.0)
    assert abs(total - ref) < 1e-13
    assert errs.max() < 1e-14


def test_panels_row_batch_matches_single_rows():
    # an (m, n) integrand gives (cells, m) arrays, row for row the 1-d calls
    # (complex rows, so both take the same complex products)
    edges = np.linspace(-1.0, 3.0, 65)
    fns = (lambda x: np.exp(-x) * np.cos(3 * x) + 0j, lambda x: np.exp(1j * x) * x**2)
    vals, errs, _, batch = _panels(lambda x: np.stack([fn(x) for fn in fns]), edges[:-1], edges[1:])
    assert batch and vals.shape == errs.shape == (64, 2)
    for row, fn in enumerate(fns):
        v, e, _, batch = _panels(fn, edges[:-1], edges[1:])
        assert not batch
        assert np.array_equal(vals[:, row], v[:, 0])
        assert np.array_equal(errs[:, row], e[:, 0])


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1e-9)
    with pytest.raises(DomainError):
        QuadratureConfig(max_depth=0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("rel_tol", math.inf),
        ("abs_tol", math.nan),
        ("max_depth", math.nan),
        ("max_depth", 2.5),
    ],
)
def test_config_refuses_settings_that_are_not_finite_and_positive(field, value):
    with pytest.raises(DomainError, match=field):
        QuadratureConfig(**{field: value})


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


_LOCKSTEP = [  # (two-row integrand, a, b, oscillation): independent passes, batched
    (lambda x: np.stack([np.exp(-x * x), x * x * np.exp(-x * x)]), -8.0, 8.0, 0.0),
    (lambda x: np.stack([np.cos(50 * x), np.sin(3 * x)]), 0.0, 1.0, 50.0),
    (lambda x: np.stack([(x > 1.0 / 3.0).astype(float), x]), 0.0, 1.0, 0.0),
    (lambda x: np.stack([np.abs(x - 0.3) ** 1.5, x**7 - 3 * x**4 + x]), -1.0, 2.0, 0.0),
]


def _lockstep(cases, cfg):
    """quadrature._adaptive on the cases at once, each run of panels taken by its own integrand;
    returns each pass's (values, errors, batch flag) and the runs of every round."""
    edges = [np.asarray(_initial_edges(a, b, w, ()), dtype=float) for _, a, b, w in cases]
    rounds = []

    def panels(a, b, runs):
        rounds.append([i for i, _ in runs])
        ends = np.cumsum([0] + [m for _, m in runs])
        parts = [_panels(cases[i][0], a[lo:hi], b[lo:hi])[:3] for (i, _), lo, hi in zip(runs, ends, ends[1:])]
        return (*map(np.concatenate, zip(*parts)), True)

    return _adaptive(panels, edges, cfg), rounds


def test_lockstep_passes_refine_as_they_would_alone():
    # each pass gets exactly its solo panels, so its sums are its solo sums bit
    # for bit; each round is one evaluator call holding every unfinished pass
    out, rounds = _lockstep(_LOCKSTEP, QuadratureConfig())
    solo = [len(_lockstep([case], QuadratureConfig())[1]) for case in _LOCKSTEP]
    for (f, a, b, w), (val, err, _) in zip(_LOCKSTEP, out):
        assert repr((val, err)) == repr(integrate_finite(f, a, b, oscillation=w))
    assert rounds == [[i for i in range(4) if solo[i] > r] for r in range(max(solo))]
    assert len(set(solo)) > 1  # the passes finish in different rounds


def test_a_single_pass_is_a_batch_of_one():
    seen = []

    def panels(a, b, runs):
        seen.append((runs, a.size))
        return _panels(np.cos, a, b)

    (val, _, batch), = _adaptive(panels, [np.linspace(0.0, 3.0, 4)], QuadratureConfig())
    assert not batch and abs(val[0] - math.sin(3.0)) < ABS_FLOOR
    assert all(runs == [(0, n)] for runs, n in seen)


def test_a_lockstep_batch_raises_what_its_failing_pass_raises_alone():
    # at max_depth 1 the step function's pass fails in its second round; the
    # batch raises its error, naming the same x, whichever passes refine beside it
    cfg = QuadratureConfig(max_depth=1)
    step = _LOCKSTEP[2]
    with pytest.raises(IntegrationError) as alone:
        integrate_finite(step[0], step[1], step[2], cfg)
    for cases in ([step], [_LOCKSTEP[1], step, _LOCKSTEP[0]]):
        with pytest.raises(IntegrationError) as batch:
            _lockstep(cases, cfg)
        assert str(batch.value) == str(alone.value) and batch.value.location == alone.value.location
