import math

import numpy as np
import pytest

from conftest import GAUSSIAN_GAP
from zigzagspec.errors import (
    DegenerateObservableError,
    DomainError,
    InsufficientHorizonError,
)
from zigzagspec.potential import SwitchingRateSpec, beta_family, gaussian
from zigzagspec.simulator import (
    ZigzagPath,
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


def test_switching_rate_matches_expectation(long_path):
    # canonical gaussian rate: E[(theta x)_+] = E[x_+] = 1/sqrt(2 pi)
    rate = long_path.n_events / long_path.horizon
    assert rate == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.02)


def test_marginal_ks_gaussian(long_path):
    hist = empirical_marginal(long_path)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(hist.masses >= 0)
    assert hist.ks_statistic < 0.01


def test_marginal_ks_thinned_family():
    p = simulate(beta_family(2.5), CANON, 0.0, +1, 1e5, seed=11)
    hist = empirical_marginal(p)
    assert hist.ks_statistic < 0.02


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
