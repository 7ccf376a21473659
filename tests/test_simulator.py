import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import GAUSSIAN_GAP, skewed_well
from zigzagspec.errors import (
    DegenerateObservableError,
    DomainError,
    InsufficientHorizonError,
    SimulationError,
)
from zigzagspec import simulator
from zigzagspec.potential import SwitchingRateSpec, beta_family, custom, gaussian, scale
from zigzagspec.simulator import (
    ZigzagPath,
    _target_cdf,
    autocorrelation,
    empirical_marginal,
    envelope_decay_rate,
    simulate,
)

CANON = SwitchingRateSpec()


@pytest.fixture(scope="module")
def long_path():
    return simulate(gaussian(1.0), CANON, 0.0, +1, 1e5, seed=7)


def test_first_event_respects_deterministic_drift():
    # starting at x = -3 moving right with canonical rates, the rate is zero
    # until the origin, so no flip can happen before t = 3
    p = simulate(gaussian(1.0), CANON, -3.0, +1, 50.0, seed=1)
    assert p.times[0] == 0.0  # the initial state heads the record
    assert p.times[1] > 3.0


@pytest.mark.parametrize("potential", [gaussian(1.0), beta_family(2.5)], ids=["gaussian1", "beta2.5"])
def test_first_flight_far_outside_the_mode(potential):
    # heading outward from x0 = 1e7 the rate is U'(x0) at once, so the first
    # switch comes after about E / U'(x0), which U^{-1}(U(x0) + E) - x0
    # alone rounds to 0
    p = simulate(potential, CANON, 1e7, +1, 10.0, seed=0)
    e = np.random.Generator(np.random.Philox(key=[0, 0])).standard_exponential()
    assert p.times[1] == pytest.approx(e / float(potential.dU(1e7)), rel=1e-9)
    # where U(x0) overflows the sampler refuses instead of returning no events
    with pytest.raises(SimulationError, match="U overflows"):
        simulate(potential, CANON, 1e200, +1, 10.0, seed=0)


def test_reproducibility_and_stream_splitting():
    a = simulate(gaussian(1.0), CANON, 0.0, +1, 500.0, seed=42)
    b = simulate(gaussian(1.0), CANON, 0.0, +1, 500.0, seed=42)
    c = simulate(gaussian(1.0), CANON, 0.0, +1, 500.0, seed=42, stream=1)
    d = simulate(gaussian(1.0), CANON, 0.0, +1, 500.0, seed=43)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.times[: c.n_events], c.times[: a.n_events])
    assert not np.array_equal(a.times[: d.n_events], d.times[: a.n_events])


def test_path_invariants(long_path):
    p = long_path
    assert np.all(np.diff(p.times) > 0)
    assert np.all(np.abs(np.diff(p.thetas.astype(int))) == 2)  # strict alternation
    # positions follow unit-speed flights between events
    t_prev = np.concatenate(([0.0], p.times[:-1]))
    x_prev = np.concatenate(([0.0], p.positions[:-1]))
    th_prev = np.concatenate(([+1], p.thetas[:-1]))
    flown = x_prev + th_prev * (p.times - t_prev)
    assert np.max(np.abs(flown - p.positions)) < 1e-9


def test_path_validation_rejects_malformed_input():
    good = simulate(gaussian(1.0), CANON, 0.0, +1, 20.0, seed=3)
    with pytest.raises(DomainError):
        ZigzagPath(
            times=good.times[::-1].copy(),
            positions=good.positions,
            thetas=good.thetas,
            horizon=good.horizon,
            seed=good.seed,
            stream=good.stream,
            potential=good.potential,
            spec=good.spec,
        )
    with pytest.raises(DomainError):
        ZigzagPath(
            times=good.times,
            positions=good.positions,
            thetas=np.abs(good.thetas),
            horizon=good.horizon,
            seed=good.seed,
            stream=good.stream,
            potential=good.potential,
            spec=good.spec,
        )


def test_simulate_argument_validation():
    with pytest.raises(DomainError):
        simulate(gaussian(1.0), CANON, 0.0, +1, -1.0, seed=0)
    with pytest.raises(DomainError):
        simulate(gaussian(1.0), CANON, 0.0, 0, 10.0, seed=0)
    with pytest.raises(DomainError):
        simulate(gaussian(1.0), CANON, math.inf, +1, 10.0, seed=0)


@pytest.mark.parametrize(
    "seed, stream", [(2**70, 0), (2**64, 0), (-1, 0), (1.5, 0), (0, 2**64), (0, -3)]
)
def test_simulate_rejects_seed_or_stream_outside_uint64(seed, stream):
    # Philox keys are two 64-bit words; anything else used to overflow inside
    # Philox or to be cast with a warning
    with pytest.raises(DomainError, match="seed and stream"):
        simulate(gaussian(1.0), CANON, 0.0, +1, 10.0, seed=seed, stream=stream)


def test_simulate_accepts_the_largest_key():
    top = 2**64 - 1
    p = simulate(gaussian(1.0), CANON, 0.0, +1, 10.0, seed=top, stream=np.uint64(top))
    assert p.seed == top and p.stream == top


def test_path_must_start_at_time_zero():
    with pytest.raises(DomainError, match="time 0"):
        _hand_path([0.5, 1.0], [0.0, 0.5], [+1, -1], 2.0)


@pytest.mark.parametrize(
    "times,positions,thetas,horizon,match",
    [
        ([0.0, 1.0, 2.0], [0.0, 1.0], [1, -1, 1], 3.0, "differ"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [1, -1], 3.0, "differ"),
        ([0.0, 1.0, 2.0], [0.0, math.nan, 0.0], [1, -1, 1], 3.0, "positions must be finite"),
        ([0.0, 1.0, 2.0], [0.0, math.inf, 0.0], [1, -1, 1], 3.0, "positions must be finite"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [1, -1, 2], 3.0, r"\+1 or -1"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [1, 0, 1], 3.0, r"\+1 or -1"),
        ([0.0, 1.0, 2.5], [0.0, 1.0, -0.5], [1, -1, 1], 2.0, "horizon"),
        ([0.0, 1.0, 2.5], [0.0, 1.0, -0.5], [1, -1, 1], 2.5, "horizon"),
        ([0.0, 1.0, 2.5], [0.0, 1.0, -0.5], [1, -1, 1], math.inf, "horizon"),
        ([0.0, 1.0, 2.5], [0.0, 1.0, -0.5], [1, -1, 1], math.nan, "horizon"),
        ([0.0, math.nan, 2.5], [0.0, 1.0, -0.5], [1, -1, 1], 3.0, "increasing"),
    ],
)
def test_path_refuses_malformed_skeleton(times, positions, thetas, horizon, match):
    with pytest.raises(DomainError, match=match):
        _hand_path(times, positions, thetas, horizon)


def test_interrogation_methods(long_path):
    p = long_path
    mid = 0.5 * (p.times[3] + p.times[4])
    assert p.theta(mid) == p.thetas[3]
    assert p.position(mid) == pytest.approx(
        p.positions[3] + p.thetas[3] * (mid - p.times[3]), abs=1e-12
    )
    # time-average identities: velocity balance and sign occupation
    assert p.time_with_theta_plus() / p.horizon == pytest.approx(0.5, abs=0.01)
    assert p.time_above_zero() / p.horizon == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("lam_r", [0.0, 0.5], ids=["blocks", "refreshed"])
@pytest.mark.parametrize("potential", [gaussian(1.0), beta_family(2.5)], ids=["gaussian1", "beta2.5"])
def test_switching_rate_matches_expectation(potential, lam_r):
    # canonical rate: E[(theta U')_+] = (1/Z) INT_0^inf U' e^{-U} = 1/Z with
    # Z = INT e^{-U} (1/sqrt(2 pi) for gaussian:1), plus the refreshment
    # clock; the marginal is e^{-U} / Z on both sampler routes
    p = simulate(potential, SwitchingRateSpec(lam_r), 0.0, +1, 1e5, seed=7)
    z = quad(lambda x: math.exp(-float(potential.U(x))), -math.inf, math.inf)[0]
    assert p.n_events / p.horizon == pytest.approx(1.0 / z + lam_r, rel=0.02)
    assert empirical_marginal(p).ks_statistic < 0.01


def _reference_gaussian_path(sigma, x0, theta0, T, seed):
    """The scalar closed-form Gaussian sampler that the block route replaced,
    kept as an oracle at lambda_refr = 0: along a flight the integrated rate
    is piecewise quadratic in the travel s, solved one event at a time."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    a = 1.0 / (2.0 * sigma * sigma)
    times, xs, ths = [0.0], [x0], [theta0]
    t, x, th = 0.0, x0, theta0
    while True:
        e = rng.standard_exponential()
        c = th * x
        if c >= 0.0:
            b = c / (sigma * sigma)
            s = 2.0 * e / (b + math.sqrt(b * b + 4.0 * a * e))
        else:
            s = -c + 2.0 * e / math.sqrt(4.0 * a * e)
        t += s
        if t >= T:
            return np.array(times), np.array(xs), np.array(ths)
        x += th * s
        th = -th
        times.append(t)
        xs.append(x)
        ths.append(th)


@pytest.mark.parametrize(
    "sigma, x0, T",
    # about 80k events, past the 65,536-draw block; the first flight from
    # outside the mode (c > 0) and from inside it (c < 0)
    [(1.0, 1.5, 2e5), (2.0, -3.0, 2e4)],
)
def test_block_sampler_matches_the_scalar_gaussian_loop(sigma, x0, T):
    p = simulate(gaussian(sigma), CANON, x0, +1, T, seed=5)
    times, xs, ths = _reference_gaussian_path(sigma, x0, +1, T, seed=5)
    assert p.times.size == times.size and np.array_equal(p.thetas, ths)
    np.testing.assert_allclose(p.times, times, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(p.positions, xs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("potential", [gaussian(1.0), beta_family(2.5)], ids=["gaussian1", "beta2.5"])
def test_block_paths_invert_the_philox_exponentials_in_stream_order(potential):
    # from x0 = 0 event k sits at radius U^{-1}(E_(k-1)) on side theta_(k-1):
    # the first 65,536 events are the inversions of the first 65,536 draws
    # of Philox [seed, 0], exactly as before thinning and the draw buffer went
    p = simulate(potential, CANON, 0.0, +1, 2e5, seed=1)
    y = potential.U_inverse(np.random.Generator(np.random.Philox(key=[1, 0])).standard_exponential(1 << 16))
    times = np.cumsum(np.concatenate(([0.0, y[0]], y[1:] + y[:-1])))
    thetas = np.where(np.arange(y.size + 1) % 2 == 0, 1, -1)
    assert p.n_events > y.size
    np.testing.assert_array_equal(p.times[: y.size + 1], times)
    np.testing.assert_array_equal(p.positions[: y.size + 1], np.concatenate(([0.0], -thetas[1:] * y)))
    np.testing.assert_array_equal(p.thetas[: y.size + 1], thetas)


# (n_events, last event time, last position) of seed 7 from (0, +1), as the
# sampler drew them in blocks of 65,536: block sizes must not move a path
_PINNED_PATHS = {
    ("gaussian:1", 1e5): (40006, "0x1.869cdb3daa15fp+16", "-0x1.37a38d9faa74bp+0"),
    ("gaussian:1", 500.0): (202, "0x1.f23cb547129c7p+8", "-0x1.50132531200f3p+0"),
    ("beta:2.5", 1e5): (43480, "0x1.869f4c8fd5824p+16", "-0x1.15bbc30cdd225p+0"),
    ("beta:2.5", 500.0): (222, "0x1.f09aab623a609p+8", "-0x1.13107baa7daf1p+1"),
}


@pytest.mark.parametrize("desc, T", list(_PINNED_PATHS), ids=[f"{d}-T{T:g}" for d, T in _PINNED_PATHS])
def test_block_sizes_leave_seeded_paths_unchanged(desc, T):
    p = simulate(gaussian(1.0) if desc == "gaussian:1" else beta_family(2.5), CANON, 0.0, +1, T, seed=7)
    assert (p.n_events, float(p.times[-1]).hex(), float(p.positions[-1]).hex()) == _PINNED_PATHS[desc, T]


@pytest.mark.parametrize("potential", [gaussian(1.0), beta_family(2.5)], ids=["gaussian1", "beta2.5"])
def test_block_sampler_inverts_about_as_many_exponentials_as_the_horizon_needs(potential, monkeypatch):
    # a first block of 4,096 draws, then blocks sized from the mean flight so far
    inverted = []
    inverse = type(potential).U_inverse

    def counted(self, u, side=1):
        inverted.append(np.size(u))
        return inverse(self, u, side)

    monkeypatch.setattr(type(potential), "U_inverse", counted)
    p = simulate(potential, CANON, 0.0, +1, 1e5, seed=7)
    assert p.n_events > 30000 and sum(inverted) <= 1.25 * p.n_events + 4096


def test_marginal_ks_gaussian(long_path):
    hist = empirical_marginal(long_path)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(hist.masses >= 0)
    assert hist.ks_statistic < 0.01


@pytest.mark.parametrize(
    "potential,T,lam_r",
    [
        (beta_family(2.5), 1e5, 0.0),
        # custom wells take the bracketed Newton inverse of U, the skewed one
        # a different radius on each side; the widened beta goes through U_inverse's width
        (custom(np.cosh, np.sinh, label="cosh"), 2e4, 0.0),
        (scale(beta_family(2.5), 2.0), 2e4, 0.0),
        (skewed_well(), 2e4, 0.0),
        (custom(np.cosh, np.sinh, label="cosh"), 2e4, 0.5),
    ],
    ids=["beta2.5", "cosh", "beta2.5-scale2", "skewed", "cosh-refreshed"],
)
def test_marginal_ks_inversion_family(potential, T, lam_r):
    p = simulate(potential, SwitchingRateSpec(lam_r), 0.0, +1, T, seed=11)
    hist = empirical_marginal(p)
    assert hist.ks_statistic < 0.02


def test_beta2_target_cdf_matches_the_gaussian_erf():
    # beta:2 is exactly x^2/2, so the quadrature CDF behind the KS statistic
    # must reproduce erf (3.8e-9 is what a 2^16-point trapezoid achieved)
    ys = np.linspace(-8.0, 8.0, 8001)
    err = np.abs(_target_cdf(beta_family(2.0), ys) - _target_cdf(gaussian(1.0), ys))
    assert err.max() <= 3.8e-9


def test_target_cdf_on_the_widest_beta_grid():
    # beta:1.1 has the heaviest tails, hence the widest grid and coarsest cells
    p = beta_family(1.1)
    ys = np.linspace(-8.0, 8.0, 33)

    def dens(x):
        return math.exp(-float(p.U(x)))

    half = quad(dens, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    exact = [0.5 + math.copysign(quad(dens, 0.0, abs(y), epsabs=0.0, epsrel=1e-13)[0], y) / (2.0 * half) for y in ys]
    assert np.max(np.abs(_target_cdf(p, ys) - exact)) <= 3.8e-9


def test_marginal_explicit_edges(long_path):
    edges = np.linspace(-4, 4, 33)
    hist = empirical_marginal(long_path, edges)
    assert hist.edges.size == 33
    assert hist.masses.size == 32
    # occupation of a symmetric interval around zero: near-even split
    mid = hist.masses[15] + hist.masses[16]
    assert mid > 0.1
    with pytest.raises(DomainError):
        empirical_marginal(long_path, np.linspace(-1, 1, 5))  # too few edges


@pytest.mark.parametrize("bins", [80.7, 80.0, math.inf, math.nan, 9])
def test_marginal_bin_count_must_be_an_integer_of_at_least_10(long_path, bins):
    with pytest.raises(DomainError, match="integer bin count"):
        empirical_marginal(long_path, bins)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_marginal_rejects_non_finite_edges(long_path, bad):
    # comparisons with NaN are all false, so the monotonicity check alone
    # lets a NaN edge through
    for pos in (0, 5, -1):
        edges = np.linspace(-4.0, 4.0, 33)
        edges[pos] = bad
        with pytest.raises(DomainError, match="finite"):
            empirical_marginal(long_path, edges)


def test_marginal_occupation_symmetry(long_path):
    edges = np.linspace(-5, 5, 41)
    hist = empirical_marginal(long_path, edges)
    asym = np.abs(hist.masses - hist.masses[::-1])
    # crude 3 sigma bound on per-bin sampling noise at this horizon
    assert np.max(asym) < 3.0 * np.sqrt(np.max(hist.masses) / 2e4)


def test_acf_lag_zero_is_one(long_path):
    lags = np.arange(0.0, 3.0, 0.5)
    acf = autocorrelation(long_path, lambda x, th: x, lags)
    assert acf[0] == 1.0
    assert np.all(np.abs(acf) <= 1.0 + 1e-9)


def test_acf_position_decay(long_path):
    lags = np.arange(0.0, 8.0, 0.1)
    acf = autocorrelation(long_path, lambda x, th: x, lags)
    rate = envelope_decay_rate(lags, acf)
    assert rate == pytest.approx(GAUSSIAN_GAP, rel=0.2)


def test_acf_velocity_observable(long_path):
    # theta is a jump observable: piecewise-linear products still apply
    # because each segment carries a constant theta
    lags = np.array([0.0, 0.5, 8.0])
    acf = autocorrelation(long_path, lambda x, th: th, lags)
    assert acf[0] == 1.0
    assert acf[1] > 0.5  # short-lag persistence of the velocity sign
    assert abs(acf[2]) < 0.1  # envelope ~ e^{-0.43 t} has died down by t = 8


def test_acf_error_conditions(long_path):
    with pytest.raises(DegenerateObservableError):
        autocorrelation(long_path, lambda x, th: 3.0 + 0.0 * x, np.array([0.0, 1.0]))
    with pytest.raises(InsufficientHorizonError):
        autocorrelation(
            long_path, lambda x, th: x, np.array([0.0, long_path.horizon / 2.0])
        )
    with pytest.raises(DomainError):
        autocorrelation(long_path, lambda x, th: x, np.array([-1.0, 0.0]))


@pytest.mark.parametrize("lags", [[], np.zeros((2, 2))], ids=["empty", "2-d"])
def test_acf_rejects_empty_or_multidimensional_lags(long_path, lags):
    with pytest.raises(DomainError, match="lags must be a nonempty 1-d sequence"):
        autocorrelation(long_path, lambda x, th: x, lags)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_acf_rejects_non_finite_lags(long_path, bad):
    # comparisons with NaN are all false, so only an explicit check catches it
    with pytest.raises(DomainError, match="lags must be finite"):
        autocorrelation(long_path, lambda x, th: x, np.array([0.0, bad]))


def test_envelope_rate_validation():
    with pytest.raises(DomainError):
        envelope_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    # monotone decay with no interior oscillation peaks: a single boundary
    # peak is not enough to fit an envelope
    lags = np.linspace(0.0, 5.0, 51)
    with pytest.raises(DomainError):
        envelope_decay_rate(lags, np.exp(-lags) * (1.0 - 0.01 * lags))


@pytest.mark.parametrize(
    "lags, values",
    [
        ([0.0, 1.0, math.inf, 3.0], [1.0, 0.5, 0.2, 0.1]),
        ([0.0, 1.0, math.nan, 3.0], [1.0, 0.5, 0.2, 0.1]),
        ([0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 0.2, 0.1]),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, -math.inf, 0.1]),
    ],
)
def test_envelope_rate_rejects_non_finite_input(lags, values):
    # an infinite lag used to reach the SVD inside polyfit and fail there
    with pytest.raises(DomainError, match="finite"):
        envelope_decay_rate(np.array(lags), np.array(values))


@pytest.mark.parametrize(
    "observable",
    [
        lambda x, th: np.exp(800.0 * x),
        lambda x, th: np.where(x > 0.5, np.nan, x),
        lambda x, th: x + 1j * x,
        lambda x, th: x + 0j,
    ],
    ids=["overflow", "nan", "complex", "complex-zero-imag"],
)
def test_acf_rejects_non_finite_or_complex_observable(observable):
    p = simulate(gaussian(1.0), CANON, 0.0, +1, 200.0, seed=2)
    with pytest.raises(DomainError, match="real and finite"):
        with np.errstate(over="ignore"):
            autocorrelation(p, observable, np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    "observable, shape",
    [
        (lambda x, th: x[:5], r"\(5,\)"),
        (lambda x, th: np.stack([x, x]), r"\(2, \d+\)"),
        (lambda x, th: 1.0, r"\(\)"),
    ],
    ids=["truncated", "stacked", "scalar"],
)
def test_acf_names_the_shape_of_a_malformed_observable(observable, shape):
    # these used to escape as a bare ValueError or IndexError from numpy
    p = simulate(gaussian(1.0), CANON, 0.0, +1, 200.0, seed=2)
    with pytest.raises(DomainError, match=rf"observable returned shape {shape}, not one value per segment end"):
        autocorrelation(p, observable, np.array([0.0, 1.0]))


# ------------------------------------------------ autocorrelation oracles


def _hand_path(times, positions, thetas, horizon):
    return ZigzagPath(
        times=np.asarray(times, dtype=float),
        positions=np.asarray(positions, dtype=float),
        thetas=np.asarray(thetas, dtype=np.int8),
        horizon=float(horizon),
        seed=0,
        stream=0,
        potential=gaussian(1.0),
        spec=CANON,
    )


def _dyadic_path(n_events, x0=0.25):
    """Path whose event spacings are multiples of 1/8, so differences of event
    times are exact and lags equal to spacings make the two breakpoint lists
    tie."""
    rng = np.random.default_rng(4)
    gaps = rng.integers(1, 9, size=n_events + 1) / 8.0
    times = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    thetas = np.where(np.arange(n_events + 1) % 2 == 0, 1, -1)
    positions = x0 + np.concatenate(([0.0], np.cumsum(thetas[:-1] * gaps[:-1])))
    return _hand_path(times, positions, thetas, times[-1] + gaps[-1])


def _reference_autocorrelation(path, observable, lags):
    """The np.unique + midpoint-ownership estimator that the merge replaced,
    kept verbatim as an oracle."""
    t0, dt, x0, th = path.segments()
    left = np.asarray(observable(x0, th), dtype=float)
    right = np.asarray(observable(x0 + th * dt, th), dtype=float)
    mean = float(np.sum(0.5 * (left + right) * dt) / dt.sum())

    def g(x, th):
        return np.asarray(observable(x, th), dtype=float) - mean

    def eval_in_segment(g, taus, seg_idx):
        xs = path.positions[seg_idx] + path.thetas[seg_idx] * (
            taus - path.times[seg_idx]
        )
        return g(xs, path.thetas[seg_idx])

    lv = g(x0, th)
    rv = g(x0 + th * dt, th)
    var_direct = float(np.sum(dt / 3.0 * (lv * lv + lv * rv + rv * rv)) / dt.sum())
    T = path.horizon
    times = path.times
    covs = np.empty(lags.size)
    for j, lag in enumerate(lags):
        upto = T - lag
        b1 = times[times < upto]
        b2 = times[(times > lag) & (times < upto + lag)] - lag
        grid = np.unique(np.concatenate((b1, b2, [0.0, upto])))
        a, b = grid[:-1], grid[1:]
        h = b - a
        seg1 = np.clip(np.searchsorted(times, a + 0.5 * h, side="right") - 1, 0, None)
        seg2 = np.clip(
            np.searchsorted(times, a + lag + 0.5 * h, side="right") - 1, 0, None
        )
        u_a = eval_in_segment(g, a, seg1)
        u_b = eval_in_segment(g, b, seg1)
        v_a = eval_in_segment(g, a + lag, seg2)
        v_b = eval_in_segment(g, b + lag, seg2)
        cells = h / 6.0 * (2.0 * u_a * v_a + u_a * v_b + u_b * v_a + 2.0 * u_b * v_b)
        covs[j] = cells.sum() / upto
    at_zero = np.nonzero(lags == 0.0)[0]
    var = covs[at_zero[0]] if at_zero.size else var_direct
    return covs / var


OBSERVABLES = {
    "x": lambda x, th: x,
    "th": lambda x, th: th,
    "x*th": lambda x, th: x * th,
}


@pytest.mark.parametrize("name", list(OBSERVABLES))
def test_acf_merge_matches_reference_on_tied_breakpoints(name):
    path = _dyadic_path(400)
    T = path.horizon
    spacings = np.diff(path.times)
    # lags equal to event spacings (and sums of two) make times[i] - lag land
    # exactly on times[k]: the merged lists tie and leave zero-width cells
    lags = np.unique(
        np.concatenate(
            ([0.0, 1.0 / 8.0], spacings[:6], spacings[:3] + spacings[1:4], [T / 10.0])
        )
    )
    tied = np.isin(path.times[1:, None] - lags[None, 1:], path.times).sum()
    assert tied > 100
    got = autocorrelation(path, OBSERVABLES[name], lags)
    want = _reference_autocorrelation(path, OBSERVABLES[name], lags)
    assert got[0] == 1.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", list(OBSERVABLES))
def test_acf_merge_matches_reference_on_simulated_path(name):
    path = simulate(gaussian(1.0), CANON, 0.0, +1, 2000.0, seed=9)
    lags = np.array([0.0, 0.37, 1.0, path.horizon / 10.0])
    got = autocorrelation(path, OBSERVABLES[name], lags)
    want = _reference_autocorrelation(path, OBSERVABLES[name], lags)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_acf_merge_matches_reference_without_events():
    # one segment: both breakpoint lists hold just time 0 and the grid is one cell
    path = _hand_path([0.0], [-0.7], [+1], 10.0)
    lags = np.array([0.0, 0.5, 1.0])
    for name in ("x", "x*th"):
        got = autocorrelation(path, OBSERVABLES[name], lags)
        want = _reference_autocorrelation(path, OBSERVABLES[name], lags)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # a constant velocity is a constant observable
    with pytest.raises(DegenerateObservableError):
        autocorrelation(path, OBSERVABLES["th"], lags)


def test_acf_exact_for_affine_observable_on_tent_path():
    # x(s) = s on [0, 1] and 2 - s on [1, 2]: mean 1/2, variance 1/12.  At lag
    # L = 1/8 the covariance integrand c(s) c(s + L), c = x - 1/2, is
    #   on [0, 7/8]:   (s - 1/2)(s - 3/8)    -> 161/3072
    #   on [7/8, 1]:   (s - 1/2)(11/8 - s)   ->  73/3072
    #   on [1, 15/8]:  (3/2 - s)(11/8 - s)   -> 161/3072
    # so cov = (395/3072) / (15/8) = 79/1152 and ACF = 79/96.
    path = _hand_path([0.0, 1.0], [0.0, 1.0], [+1, -1], 2.0)
    acf = autocorrelation(path, lambda x, th: 3.0 * x - 1.0, np.array([0.0, 0.125]))
    assert acf[0] == 1.0
    assert acf[1] == pytest.approx(79.0 / 96.0, rel=0.0, abs=1e-14)
    # without lag 0 the direct variance 1/12 normalizes
    acf = autocorrelation(path, lambda x, th: x, np.array([0.125]))
    assert acf[0] == pytest.approx(79.0 / 96.0, rel=0.0, abs=1e-14)


def _exact_autocorrelation(path, observable, lags):
    """The autocorrelation of g's segment-end interpolant in exact rational
    arithmetic: the product of the linear pieces at s and s + L integrated
    cell by cell over their merged breakpoint grid, normalized at lags[0] = 0."""
    assert lags[0] == 0.0
    t = [Fraction(v) for v in path.times.tolist()]
    T = Fraction(path.horizon)
    t1 = t[1:] + [T]
    th = [int(v) for v in path.thetas.tolist()]
    x0 = [Fraction(v) for v in path.positions.tolist()]
    left = [observable(x, s) for x, s in zip(x0, th)]
    right = [observable(x + s * (b - a), s) for x, s, a, b in zip(x0, th, t, t1)]
    mean = sum((lo + hi) / 2 * (b - a) for lo, hi, a, b in zip(left, right, t, t1)) / T

    def u(k, s):
        return left[k] - mean + (right[k] - left[k]) * (s - t[k]) / (t1[k] - t[k])

    covs = []
    for lag in map(Fraction, lags.tolist()):
        upto = T - lag
        grid = sorted({v for v in t if v < upto} | {v - lag for v in t if lag < v < T} | {Fraction(0), upto})
        total = Fraction(0)
        for a, b in zip(grid[:-1], grid[1:]):
            k1, k2 = bisect.bisect_right(t, a) - 1, bisect.bisect_right(t, a + lag) - 1
            ua, ub, va, vb = u(k1, a), u(k1, b), u(k2, a + lag), u(k2, b + lag)
            total += (b - a) / 6 * (2 * ua * va + ua * vb + ub * va + 2 * ub * vb)
        covs.append(total / upto)
    return np.array([float(c / covs[0]) for c in covs])


ORACLE_CASES = {  # id suffix: (lags, horizon)
    "": ([0.0, 0.37, 1.0, 4.2, 8.0], 500.0),
    # a second lag group whose first lag, 40, is not 0: the pairs straddling it
    "-group-at-40": ([0.0, 0.37, 40.0, 40.05, 41.0], 500.0),
    # the CLI's lags, on the shortest horizon it reads them from
    "-cli-grid": (np.round(np.arange(0.0, 8.0001, 0.1), 10), 80.0),
}


@pytest.mark.parametrize(
    "name, lags, horizon",
    [(name, *case) for case in ORACLE_CASES.values() for name in OBSERVABLES],
    ids=[name + suffix for suffix in ORACLE_CASES for name in OBSERVABLES],
)
def test_acf_matches_exact_rational_oracle(name, lags, horizon):
    observable = OBSERVABLES[name]
    path = simulate(gaussian(1.0), CANON, 0.0, +1, horizon, seed=3)
    lags = np.array(lags)
    got = autocorrelation(path, observable, lags)
    assert got[0] == 1.0
    np.testing.assert_allclose(got, _exact_autocorrelation(path, observable, lags), rtol=0.0, atol=1e-13)


def test_acf_lag_order_duplicates_and_groups(monkeypatch):
    path = simulate(gaussian(1.0), CANON, 0.0, +1, 2000.0, seed=9)
    T = path.horizon
    lags = np.array([0.0, 0.37, 1.0, T / 10.0])
    want = autocorrelation(path, OBSERVABLES["x"], lags)
    shuffled = autocorrelation(path, OBSERVABLES["x"], lags[[2, 3, 0, 1, 2, 0, 1]])
    np.testing.assert_array_equal(shuffled, want[[2, 3, 0, 1, 2, 0, 1]])
    # lags more than a mean flight (about 2.5) apart go to separate passes
    groups, one_group = [], simulator._overlap_integrals
    monkeypatch.setattr(simulator, "_overlap_integrals", lambda *a: groups.append(a[-1].tolist()) or one_group(*a))
    got = autocorrelation(path, OBSERVABLES["x"], lags)
    assert groups == [[0.0, 0.37, 1.0], [T / 10.0]]
    np.testing.assert_allclose(got, _reference_autocorrelation(path, OBSERVABLES["x"], lags), rtol=0.0, atol=1e-12)


def test_acf_windows_tile_where_rounding_crosses_their_edges():
    # segments [a, b] and [c, d] are equally long, but in floating point the
    # pair's held window ends at (d - a) - m before it starts at (c - b) + m;
    # a lag at that end must still count the pair's overlap integral once
    a, b, c, d = 1.4900835088361708, 1.617454294336161, 20.911060062099587, 21.038430847599578
    m = min(b - a, d - c)
    assert (c - b) + m > (d - a) - m
    thetas = np.array([1, -1, 1, -1, 1])
    gaps = np.diff([0.0, a, b, c, d, 300.0])
    positions = -0.3 + np.concatenate(([0.0], np.cumsum(thetas[:-1] * gaps[:-1])))
    path = _hand_path([0.0, a, b, c, d], positions, thetas, 300.0)
    lags = np.array([0.0, (d - a) - m])
    for name in ("x", "th"):
        got = autocorrelation(path, OBSERVABLES[name], lags)
        np.testing.assert_allclose(got, _exact_autocorrelation(path, OBSERVABLES[name], lags), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("lag", [0.37, 4.2, 8.0])
def test_acf_without_lag_zero_normalizes_by_the_interpolant_variance(lag):
    # the lag-0 covariance is the direct variance of the interpolant
    path = simulate(gaussian(1.0), CANON, 0.0, +1, 500.0, seed=3)
    g = OBSERVABLES["x*th"]
    with_zero = autocorrelation(path, g, np.array([0.0, lag]))[1]
    assert with_zero == pytest.approx(autocorrelation(path, g, np.array([lag]))[0], rel=0.0, abs=1e-13)


def test_acf_refuses_an_observable_not_affine_within_segments():
    # x**2 is not linear within a segment, so its segment-end interpolant is
    # off its true ACF by up to 0.68; the first flight from x0 = 0 fails first,
    # with or without lag 0
    path = simulate(gaussian(1.0), CANON, 0.0, +1, 500.0, seed=3)
    for lags in ([0.0, 0.37, 1.0, 4.2, 8.0], [0.37, 4.2, 8.0]):
        with pytest.raises(DomainError, match=r"not affine in x on segment 0 \(t in \[0, "):
            autocorrelation(path, lambda x, th: x * x, np.array(lags))
