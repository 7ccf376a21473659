"""Event-driven zigzag path sampler and path statistics.

The process moves at unit speed and flips its velocity at rate
lambda(x, theta) = max(theta U'(x), 0) + lambda_refr.  Between events the
position is exactly linear, so occupation times, marginal histograms and
autocorrelations can all be computed from the event skeleton without any
time discretization.

Event times are exact: for the Gaussian family the integrated rate along a
ray is piecewise quadratic and is inverted in closed form; other families
use thinning with per-window upper bounds (window length 1 velocity-unit).
Randomness comes from a counter-based Philox generator keyed as
[seed, stream], so trajectories are reproducible and parallel chains can
split streams without coordination.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.special import erf

from .errors import (
    DegenerateObservableError,
    DomainError,
    InsufficientHorizonError,
    SimulationError,
)
from .potential import PotentialModel, SwitchingRateSpec

__all__ = [
    "ZigzagPath",
    "MarginalHistogram",
    "simulate",
    "empirical_marginal",
    "autocorrelation",
    "envelope_decay_rate",
]

_BLOCK = 1 << 16  # exponential/uniform draws are buffered in blocks
_WINDOW = 1.0  # thinning window, in velocity-units of travel


class _DrawBuffer:
    """Blockwise standard-exponential and uniform draws from one generator."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._exp = rng.standard_exponential(_BLOCK)
        self._uni = rng.random(_BLOCK)
        self._ie = 0
        self._iu = 0

    def exponential(self) -> float:
        if self._ie == _BLOCK:
            self._exp = self._rng.standard_exponential(_BLOCK)
            self._ie = 0
        v = self._exp[self._ie]
        self._ie += 1
        return v

    def uniform(self) -> float:
        if self._iu == _BLOCK:
            self._uni = self._rng.random(_BLOCK)
            self._iu = 0
        v = self._uni[self._iu]
        self._iu += 1
        return v


@dataclasses.dataclass(frozen=True)
class ZigzagPath:
    """Event skeleton of one trajectory.

    Row 0 of (times, positions, thetas) is the initial state; every later
    row is a velocity switch, recording the post-switch velocity.  Between
    rows the position flows linearly: x(t) = x_i + theta_i (t - t_i).
    """

    times: np.ndarray
    positions: np.ndarray
    thetas: np.ndarray
    horizon: float
    seed: int
    stream: int
    potential: PotentialModel
    spec: SwitchingRateSpec

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
            raise DomainError("path needs the initial state at time 0")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("event times must be strictly increasing")
        x = np.asarray(self.positions, dtype=float)
        th = np.asarray(self.thetas)
        if x.shape != t.shape or th.shape != t.shape:
            raise DomainError(f"positions {x.shape}, thetas {th.shape} and times {t.shape} differ")
        if not np.all(np.isfinite(x)):
            raise DomainError("positions must be finite")
        if not np.all(np.isin(th, (-1, 1))):
            raise DomainError("every theta must be +1 or -1")
        if t.size > 1 and np.any(th[1:] == th[:-1]):
            raise DomainError("every event must switch the velocity")
        if not t[-1] < self.horizon < math.inf:
            raise DomainError(f"horizon {self.horizon!r} is not finite or not after time {t[-1]}")

    @property
    def n_events(self) -> int:
        return self.times.size - 1

    def segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(t0, dt, x0, theta) per constant-velocity segment, last one cut at T."""
        t0 = self.times
        t1 = np.append(self.times[1:], self.horizon)
        return t0, t1 - t0, self.positions, self.thetas

    def position(self, t):
        """x(t), vectorized; t outside [0, T] is clamped."""
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.horizon)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, None)
        return self.positions[idx] + self.thetas[idx] * (t - self.times[idx])

    def theta(self, t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.horizon)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, None)
        return self.thetas[idx]

    def time_with_theta_plus(self) -> float:
        _, dt, _, th = self.segments()
        return float(dt[th > 0].sum())

    def time_above_zero(self) -> float:
        # per segment, |{s : x0 + theta s > 0}| = clip of a linear crossing
        _, dt, x0, th = self.segments()
        x1 = x0 + th * dt
        lo = np.minimum(x0, x1)
        hi = np.maximum(x0, x1)
        # occupation measure of a unit-speed segment is Lebesgue on [lo, hi]
        return float(np.clip(hi, 0.0, None).sum() - np.clip(lo, 0.0, None).sum())


def _simulate_gaussian(x0, theta0, T, sigma, lam_r, draws):
    """Exact inversion: along a ray the integrated rate is piecewise quadratic."""
    a = 1.0 / (2.0 * sigma * sigma)
    times = [0.0]
    xs = [x0]
    ths = [theta0]
    t, x, th = 0.0, x0, theta0
    while True:
        e = draws.exponential()
        c = th * x  # signed outward coordinate; canonical rate is max(c+s,0)/sigma^2
        if c >= 0.0:
            b = c / (sigma * sigma) + lam_r
            s = 2.0 * e / (b + math.sqrt(b * b + 4.0 * a * e))
        else:
            s0 = -c
            if lam_r > 0.0 and lam_r * s0 >= e:
                s = e / lam_r
            else:
                e2 = e - lam_r * s0
                s = s0 + 2.0 * e2 / (lam_r + math.sqrt(lam_r * lam_r + 4.0 * a * e2))
        t += s
        if t >= T:
            break
        x += th * s
        th = -th
        times.append(t)
        xs.append(x)
        ths.append(th)
    return times, xs, ths


def _simulate_thinning(potential, x0, theta0, T, lam_r, draws):
    """Windowed thinning.  The bound on each window is the canonical rate at
    the window's far end (valid for convex U) plus lambda_refr; every accepted
    candidate is checked against the bound so a bad window fails loudly
    instead of silently biasing the law."""
    du = potential.dU
    convex = potential.family == "beta"
    times = [0.0]
    xs = [x0]
    ths = [theta0]
    t, x, th = 0.0, x0, theta0
    while t < T:
        # advance within windows of travel length _WINDOW until an event fires
        s_lo = 0.0
        event_s = None
        while event_s is None:
            s_hi = s_lo + _WINDOW
            if convex:
                bound = max(th * du(x + th * s_hi), 0.0) + lam_r
            else:
                probe = x + th * (s_lo + np.linspace(0.0, _WINDOW, 33))
                bound = 1.05 * float(np.max(np.maximum(th * du(probe), 0.0))) + lam_r
            if not math.isfinite(bound):
                raise SimulationError(
                    f"non-finite rate bound on window t in "
                    f"[{t + s_lo:.6g}, {t + s_hi:.6g}]",
                    window=(t + s_lo, t + s_hi),
                )
            if bound <= 0.0:
                s_lo = s_hi
                if t + s_lo >= T:
                    return times, xs, ths
                continue
            s = s_lo
            while True:
                s += draws.exponential() / bound
                if s >= s_hi:
                    s_lo = s_hi
                    break
                rate = max(th * du(x + th * s), 0.0) + lam_r
                if rate > bound * (1.0 + 1e-9):
                    raise SimulationError(
                        f"rate {rate:.6g} exceeds its window bound {bound:.6g} "
                        f"on t in [{t + s_lo:.6g}, {t + s_hi:.6g}]",
                        window=(t + s_lo, t + s_hi),
                    )
                if draws.uniform() * bound <= rate:
                    event_s = s
                    break
            if event_s is None and t + s_lo >= T:
                return times, xs, ths
        t += event_s
        if t >= T:
            break
        x += th * event_s
        th = -th
        times.append(t)
        xs.append(x)
        ths.append(th)
    return times, xs, ths


def simulate(
    potential: PotentialModel,
    spec: SwitchingRateSpec,
    x0: float,
    theta0: int,
    T: float,
    seed: int,
    stream: int = 0,
) -> ZigzagPath:
    """Sample one trajectory on [0, T].

    Stream-splitting rule: the generator is Philox keyed by [seed, stream];
    parallel chains share a seed and take distinct streams.
    """
    if not (T > 0.0) or not math.isfinite(T):
        raise DomainError(f"horizon must be positive and finite, got {T!r}")
    if theta0 not in (-1, 1):
        raise DomainError(f"theta0 must be +1 or -1, got {theta0!r}")
    x0 = float(x0)
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0!r}")
    key = (seed, stream)
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < 2**64 for v in key):
        raise DomainError(f"seed and stream must be integers in [0, 2**64), got {key!r}")
    rng = np.random.Generator(np.random.Philox(key=[int(v) for v in key]))
    draws = _DrawBuffer(rng)
    lam_r = spec.lambda_refr
    if potential.family == "gaussian":
        times, xs, ths = _simulate_gaussian(
            x0, int(theta0), float(T), potential.sigma, lam_r, draws
        )
    else:
        times, xs, ths = _simulate_thinning(
            potential, x0, int(theta0), float(T), lam_r, draws
        )
    return ZigzagPath(
        times=np.asarray(times),
        positions=np.asarray(xs),
        thetas=np.asarray(ths, dtype=np.int8),
        horizon=float(T),
        seed=int(seed),
        stream=int(stream),
        potential=potential,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# occupation measure


class _Occupation:
    """Exact occupation measure of a unit-speed piecewise-linear path.

    G(y) = |{t in [0,T] : x(t) <= y}| as a sum over segments of
    clip(y - lo, 0, hi - lo); sorted prefix sums make each query O(log n).
    """

    def __init__(self, path: ZigzagPath):
        _, dt, x0, th = path.segments()
        x1 = x0 + th * dt
        lo = np.minimum(x0, x1)
        hi = np.maximum(x0, x1)
        self.total = float(dt.sum())
        self._lo_sorted = np.sort(lo)
        self._cum_lo = np.concatenate(([0.0], np.cumsum(self._lo_sorted)))
        order = np.argsort(hi)
        self._hi_sorted = hi[order]
        self._cum_len_by_hi = np.concatenate(([0.0], np.cumsum((hi - lo)[order])))
        self._cum_lo_by_hi = np.concatenate(([0.0], np.cumsum(lo[order])))

    def cdf_times_T(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        n_lo = np.searchsorted(self._lo_sorted, y, side="right")
        n_hi = np.searchsorted(self._hi_sorted, y, side="right")
        closed = self._cum_len_by_hi[n_hi]
        active = y * (n_lo - n_hi) - (self._cum_lo[n_lo] - self._cum_lo_by_hi[n_hi])
        return closed + active


@dataclasses.dataclass(frozen=True)
class MarginalHistogram:
    edges: np.ndarray
    masses: np.ndarray  # occupation fractions; sum to 1 when edges span the path
    ks_statistic: float


def _target_cdf(potential: PotentialModel, ys: np.ndarray) -> np.ndarray:
    if potential.family == "gaussian":
        return 0.5 * (1.0 + erf(ys / (potential.sigma * math.sqrt(2.0))))
    # cumulative trapezoid of e^{-U} on a grid wide enough that the tails
    # are below 1e-14 of the mass
    from .operator import grid_radius

    r = max(grid_radius(potential), float(np.max(np.abs(ys))) + 1.0)
    grid = np.linspace(-r, r, 1 << 16)
    dens = np.exp(-potential.U(grid))
    cum = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))))
    cum /= cum[-1]
    return np.interp(ys, grid, cum)


def empirical_marginal(path: ZigzagPath, bins=50) -> MarginalHistogram:
    """Occupation-weighted histogram and KS distance against e^{-U}/norm.

    bins may be a count (edges then span the path range) or explicit edges.
    The KS statistic is evaluated on a fine grid; the occupation CDF is
    piecewise linear, so the grid only has to resolve the smooth target.
    """
    occ = _Occupation(path)
    if np.isscalar(bins):
        if not isinstance(bins, (int, np.integer)) or bins < 10:
            raise DomainError(f"need an integer bin count >= 10, got {bins!r}")
        lo = float(np.min(path.positions)) - 1e-9
        hi_edge = float(np.max(path.positions)) + 1e-9
        # the path can overshoot its event positions by up to the last flight
        _, dt, x0, th = path.segments()
        reach = x0 + th * dt
        lo = min(lo, float(np.min(reach)) - 1e-9)
        hi_edge = max(hi_edge, float(np.max(reach)) + 1e-9)
        edges = np.linspace(lo, hi_edge, int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        bad = edges.ndim != 1 or edges.size < 11 or not np.all(np.isfinite(edges))
        if bad or np.any(np.diff(edges) <= 0):
            raise DomainError("explicit edges must be finite, increasing, >= 10 bins")
    masses = np.diff(occ.cdf_times_T(edges)) / occ.total

    span = max(abs(edges[0]), abs(edges[-1]))
    ys = np.linspace(-span, span, 8001)
    emp = occ.cdf_times_T(ys) / occ.total
    ks = float(np.max(np.abs(emp - _target_cdf(path.potential, ys))))
    return MarginalHistogram(edges=edges, masses=masses, ks_statistic=ks)


# ---------------------------------------------------------------------------
# autocorrelation


def autocorrelation(
    path: ZigzagPath,
    observable: Callable,
    lags: Sequence[float],
) -> np.ndarray:
    """Stationary autocorrelation of g along the path at the given lags.

    The estimator integrates the product of the centered observable at s and
    s + t over s in [0, T - t], on the merged breakpoint grid of the two time
    shifts.  Both breakpoint lists are sorted, so a stable argsort merges
    them, and the merge order names the segment owning each cell in either
    copy; where the lists tie (always at lag 0) it leaves a zero-width cell,
    which adds exactly 0.  For observables affine in x the cellwise product
    is quadratic and the integral below is exact; smooth nonlinear
    observables pick up an O(segment^2) quadrature error instead.

    Velocity-dependent observables are fine: values at a cell boundary are
    taken from the segment owning the cell, so jumps at switches stay sharp.
    Observable values must be real and finite at the segment ends.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1 or lags.size == 0:
        raise DomainError("lags must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lags)):
        raise DomainError("lags must be finite")
    if np.any(lags < 0.0):
        raise DomainError("lags must be nonnegative")
    T = path.horizon
    if float(np.max(lags)) > T / 10.0:
        raise InsufficientHorizonError(
            f"max lag {np.max(lags):g} exceeds a tenth of the horizon {T:g}"
        )

    # segment-end values: exact mean and variance of the linear interpolant
    _, dt, x0s, ths = path.segments()
    ends = np.array([observable(x, ths) for x in (x0s, x0s + ths * dt)])
    if np.iscomplexobj(ends) or not np.all(np.isfinite(ends)):
        raise DomainError("observable values must be real and finite along the path")
    left, right = ends.astype(float)
    mean = float(np.sum(0.5 * (left + right) * dt) / dt.sum())

    def g(x, th):
        return np.asarray(observable(x, th), dtype=float) - mean

    lv, rv = left - mean, right - mean
    var_direct = float(np.sum(dt / 3.0 * (lv * lv + lv * rv + rv * rv)) / dt.sum())
    if not (var_direct > 1e-12 * max(1.0, abs(mean)) ** 2):
        raise DegenerateObservableError(
            f"observable variance {var_direct:.3e} is numerically zero along the path"
        )

    times, xs, thetas = path.times, path.positions, path.thetas
    uptos = T - lags
    # breakpoints of s -> g(s) in [0, upto] are times[:n1]; those of
    # s -> g(s + lag) are times[j0:j1] - lag
    n1s = np.searchsorted(times, uptos, side="left")
    j0s = np.searchsorted(times, lags, side="right")
    j1s = np.searchsorted(times, uptos + lags, side="left")
    covs = np.empty(lags.size)
    for j, (lag, upto, n1, j0, j1) in enumerate(zip(lags, uptos, n1s, j0s, j1s)):
        grid = np.concatenate((times[:n1], times[j0:j1] - lag, [upto]))
        order = np.argsort(grid, kind="stable")  # merges the two sorted runs
        grid = grid[order]
        a, b = grid[:-1], grid[1:]
        h = b - a
        # cell m follows seg1 + 1 entries of the first list, m - seg1 of the second
        seg1 = (order[:-1] < n1).astype(np.intp).cumsum() - 1
        seg2 = j0 - 1 + np.arange(h.size) - seg1
        x1, th1, t1 = xs[seg1], thetas[seg1], times[seg1]
        x2, th2, t2 = xs[seg2], thetas[seg2], times[seg2]
        u_a = g(x1 + th1 * (a - t1), th1)
        u_b = g(x1 + th1 * (b - t1), th1)
        v_a = g(x2 + th2 * (a + lag - t2), th2)
        v_b = g(x2 + th2 * (b + lag - t2), th2)
        # integral of (linear u)(linear v) over each cell
        cells = h / 6.0 * (2.0 * u_a * v_a + u_a * v_b + u_b * v_a + 2.0 * u_b * v_b)
        covs[j] = cells.sum() / upto

    # normalize by the lag-0 estimate when present so ACF(0) is exactly 1
    at_zero = np.nonzero(lags == 0.0)[0]
    var = covs[at_zero[0]] if at_zero.size else var_direct
    return covs / var


def envelope_decay_rate(lags, values) -> float:
    """Exponential rate of the |ACF| envelope via least squares on its peaks.

    The spectrum is complex, so the raw autocorrelation oscillates and
    crosses zero; the decay rate lives in the local maxima of |ACF|.
    """
    lags = np.asarray(lags, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    if lags.shape != vals.shape or lags.ndim != 1 or lags.size < 3:
        raise DomainError("need matching 1-d lags/values with >= 3 points")
    if not (np.all(np.isfinite(lags)) and np.all(np.isfinite(vals))):
        raise DomainError("lags and values must be finite")
    inner = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    keep = np.zeros(lags.size, dtype=bool)
    keep[1:-1] = inner
    keep[0] = vals[0] >= vals[1]  # t = 0 is always an envelope point in practice
    keep &= vals > 0.0
    peaks_t = lags[keep]
    peaks_v = vals[keep]
    if peaks_t.size < 2:
        raise DomainError(
            "envelope fit needs at least two |ACF| peaks; extend the lag range"
        )
    slope = np.polyfit(peaks_t, np.log(peaks_v), 1)[0]
    return float(-slope)
