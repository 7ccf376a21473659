"""Event-driven zigzag path sampler and path statistics.

The process moves at unit speed and flips its velocity at rate
lambda(x, theta) = max(theta U'(x), 0) + lambda_refr.  Between events the
position is exactly linear, so occupation times, marginal histograms and
autocorrelations can all be computed from the event skeleton without any
time discretization.  An observable's interpolant u jumps in value and slope
only at breakpoints, so int u(s) u(s + L) ds sums one cubic in L per pair of
breakpoints at most L apart.

Event times are exact.  Every potential is unimodal (U' <= 0 left of the
mode at 0, U' >= 0 right of it), so the canonical rate integrated along a
flight is 0 up to the mode and then the increase of U on the side the
flight heads to: every switch sits at a radius U^{-1}(u, side) of an Exp(1)
draw, in closed form for gaussian and beta and by a safeguarded Newton
solve for custom potentials.  With zero refreshment whole blocks of events
come from numpy at once, sized to the horizon by the mean flight so far,
and a positive lambda_refr races its own exponential clock event by event.
Randomness comes from a counter-based Philox generator keyed as [seed,
stream], so trajectories are reproducible and parallel chains can split
streams without coordination.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DegenerateObservableError, DomainError, InsufficientHorizonError, SimulationError
from .potential import PotentialModel, SwitchingRateSpec

__all__ = ["ZigzagPath", "MarginalHistogram", "simulate", "empirical_marginal", "autocorrelation",
           "envelope_decay_rate"]

_BLOCK = 1 << 16  # the most exponentials drawn at once; even, so sides alternate alike in every block
_FIRST = 4096  # the exact route's first block; each later one is sized to the horizon
_CDF_CELLS = 4096  # Simpson cells of the non-Gaussian target CDF
_SPAN = 8192  # segments per autocorrelation block, which bounds its temporaries


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
        return self.times, np.diff(self.times, append=self.horizon), self.positions, self.thetas

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
        lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
        # occupation measure of a unit-speed segment is Lebesgue on [lo, hi]
        return float(np.clip(hi, 0.0, None).sum() - np.clip(lo, 0.0, None).sum())


def _flight(potential, c, e, side):
    """Travel to the switch from outward coordinate c = theta x, theta = side,
    given the Exp(1) draw e: y - c for y = U^{-1}(U(side max(c, 0)) + e, side).
    Far outside the mode that difference cancels, so below 1e-5 c the midpoint
    rule e / (side U'(side (c + y) / 2)) replaces it (exact for the Gaussian)."""
    y = float(potential.U_inverse(potential.U(side * max(c, 0.0)) + e, side))
    if not y < math.inf:  # U overflowed (simulate silences its warning)
        raise SimulationError(f"U overflows at outward coordinate {c:.6g}")
    return y - c if y - c >= 1e-5 * c else e / float(side * potential.dU(side * 0.5 * (c + y)))


def _simulate_blocks(potential, x0, theta0, T, rng):
    """Exact inversion at lambda_refr = 0, one exponential block at a time.

    Along a flight the integrated rate is 0 up to the mode and then the
    increase of U, which gives the first flight (_flight).  Every later one
    starts at the mode's far side: event k >= 1 sits on side theta_(k-1) at
    the radius y_k = U^{-1}(E_k, theta_(k-1)), the flight to it is
    y_(k-1) + y_k, and theta alternates.  After _FIRST events, each block
    holds a tenth more events than the rest of the horizon takes at the mean
    flight so far, up to _BLOCK.  standard_exponential is chunk-invariant, so
    the path does not depend on the block sizes.
    """
    c = theta0 * x0
    s = _flight(potential, c, rng.standard_exponential(), theta0)
    radii, times = [np.array([c + s])], [np.array([0.0, s])]
    size = _FIRST
    while times[-1][-1] < T:
        r = potential.U_inverse(rng.standard_exponential(size), np.tile((-theta0, theta0), size // 2))
        flights = r + np.concatenate((radii[-1][-1:], r[:-1]))
        times.append(np.cumsum(np.concatenate((times[-1][-1:], flights)))[1:])
        radii.append(r)
        size = min(_BLOCK, 2 * math.ceil(0.55 * (T - times[-1][-1]) * sum(map(len, radii)) / times[-1][-1]) + 64)
    t = np.concatenate(times)
    n = int(np.searchsorted(t, T, side="left"))  # the start and events before T
    ths = np.where(np.arange(n) % 2 == 0, theta0, -theta0)
    xs = np.concatenate(([x0], -ths[1:] * np.concatenate(radii)[: n - 1]))
    return t[:n], xs, ths


def _simulate_refreshed(potential, x0, theta0, T, lam_r, rng):
    """Exact inversion at lambda_refr > 0, one event at a time: each _flight
    races an Exp(lambda_refr) refreshment clock, and whichever rings first
    flips theta.  A flight from inside the mode takes its radius U^{-1}(E)
    on the side it heads to from a block inverted at once on both sides."""
    events = [(0.0, x0, theta0)]
    t, x, th = 0.0, x0, theta0
    while True:
        e = rng.standard_exponential(_BLOCK)
        clocks = rng.standard_exponential(_BLOCK) / lam_r
        right, left = np.broadcast_to(potential.U_inverse(e, [[1], [-1]]), (2, _BLOCK)).tolist()  # even U: one row
        for e_k, y_right, y_left, r in zip(e.tolist(), right, left, clocks.tolist()):
            c = th * x
            s = min(_flight(potential, c, e_k, th) if c > 0.0 else (y_right if th > 0 else y_left) - c, r)
            t += s
            if t >= T:
                return zip(*events)
            x += th * s
            th = -th
            events.append((t, x, th))


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
    if not math.isfinite(x0 := float(x0)):
        raise DomainError(f"x0 must be finite, got {x0!r}")
    key = (seed, stream)
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < 2**64 for v in key):
        raise DomainError(f"seed and stream must be integers in [0, 2**64), got {key!r}")
    rng = np.random.Generator(np.random.Philox(key=[int(v) for v in key]))
    with np.errstate(over="ignore"):  # U overflows far out; _flight refuses it
        if spec.lambda_refr > 0.0:
            times, xs, ths = _simulate_refreshed(potential, x0, int(theta0), float(T), spec.lambda_refr, rng)
        else:
            times, xs, ths = _simulate_blocks(potential, x0, int(theta0), float(T), rng)
    return ZigzagPath(
        times=np.asarray(times), positions=np.asarray(xs), thetas=np.asarray(ths, dtype=np.int8),
        horizon=float(T), seed=int(seed), stream=int(stream), potential=potential, spec=spec,
    )


# ---------------------------------------------------------------------------
# occupation measure


class _Occupation:
    """Exact occupation measure of a unit-speed piecewise-linear path.

    G(y) = |{t in [0,T] : x(t) <= y}| = sum (y - lo)_+ - sum (y - hi)_+ over the
    segments [lo, hi]; sorted endpoints and their prefix sums make each query O(log n).
    """

    def __init__(self, path: ZigzagPath):
        _, dt, x0, th = path.segments()
        x1 = x0 + th * dt
        self.total = float(dt.sum())
        self._lo, self._hi = np.sort(np.minimum(x0, x1)), np.sort(np.maximum(x0, x1))
        self._cum_lo, self._cum_hi = _cumsum0(self._lo), _cumsum0(self._hi)

    def cdf_times_T(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        n_lo = np.searchsorted(self._lo, y, side="right")
        n_hi = np.searchsorted(self._hi, y, side="right")
        return y * (n_lo - n_hi) - (self._cum_lo[n_lo] - self._cum_hi[n_hi])


def _cumsum0(v):
    """[0, cumsum(v)] written in place, without a temporary of the sum."""
    out = np.zeros(v.size + 1)
    np.cumsum(v, out=out[1:])
    return out


@dataclasses.dataclass(frozen=True)
class MarginalHistogram:
    edges: np.ndarray
    masses: np.ndarray  # occupation fractions; sum to 1 when edges span the path
    ks_statistic: float


def _target_cdf(potential: PotentialModel, ys: np.ndarray) -> np.ndarray:
    if potential.family == "gaussian":
        from scipy.special import erf

        return 0.5 * (1.0 + erf(ys / (potential.sigma * math.sqrt(2.0))))
    # composite Simpson of e^{-U} on a grid whose tails hold < 1e-14 of the
    # mass, read between nodes by the cubic Hermite interpolant of slope e^{-U}
    from .operator import grid_radius

    r = max(grid_radius(potential), float(np.max(np.abs(ys))) + 1.0)
    fine, half = np.linspace(-r, r, 2 * _CDF_CELLS + 1, retstep=True)
    dens, h = np.exp(-potential.U(fine)), 2.0 * half
    cum = _cumsum0(h / 6.0 * (dens[:-2:2] + 4.0 * dens[1::2] + dens[2::2]))
    grid, slope = fine[::2], h * dens[::2]
    i = np.clip(np.searchsorted(grid, ys, side="right") - 1, 0, _CDF_CELLS - 1)
    t = (ys - grid[i]) / h
    s = 1.0 - t
    cdf = s * s * ((1.0 + 2.0 * t) * cum[i] + t * slope[i]) + t * t * ((3.0 - 2.0 * t) * cum[i + 1] - s * slope[i + 1])
    return cdf / cum[-1]


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
        # the segment ends span the path, which can overshoot its events by the last flight
        edges = np.linspace(occ._lo[0] - 1e-9, occ._hi[-1] + 1e-9, int(bins) + 1)
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


def _jump_cubics(ja, da, jb, db, y):
    """Taylor coefficients at L = e + y of what jumps (ja, da) and (jb, db) e apart
    add to S(L): da db (L - e)^3 / 6 + (da jb - ja db) (L - e)^2 / 2 - ja jb (L - e)."""
    a3, b2, c1 = da * db / 6.0, 0.5 * (da * jb - ja * db), -ja * jb
    q2 = b2 + 3.0 * a3 * y
    return np.array((y * (c1 + y * (b2 + y * a3)), c1 + y * (b2 + q2), q2, a3))


def _overlap_integrals(t, t1, lv, rv, lam):
    """S(L) = int_0^{T-L} u(s) u(s + L) ds at the sorted lags lam, for u linear
    on each segment [t_i, t1_i = t_(i+1)] from lv_i to rv_i and 0 outside [0, T].

    S sums _jump_cubics over the breakpoint pairs a, b with e = tau_b - tau_a
    <= L, from the jumps of u and u' at each.  The pairs with e <= lam[0] sum
    to the cubic of the segment pairs straddling lam[0], each from its own end
    jumps: (lv, slope) at its start, (-rv, -slope) at its end; every other pair
    enters at the first lag >= e.  Both compute e as the same float difference,
    so they split the pairs exactly.  Pairs go by _SPAN first segments at once.
    """
    n, K, lam0 = t.size, lam.size, lam[0]
    slope, tot = (rv - lv) / (t1 - t), np.zeros((4, K), np.longdouble)  # Taylor coefficients per lag, long double sums
    tau, t_end = np.append(t, [t1[-1], np.inf]), np.append(t, np.inf)  # breakpoints, starts; inf ends a loop
    jump, kink = (np.append(v, 0.0) - np.insert(w, 0, 0.0) for v, w in ((lv, rv), (slope, slope)))
    for i in (np.arange(lo, min(lo + _SPAN, n)) for lo in range(0, n, _SPAN)):
        j = np.searchsorted(t1, t[i] + lam0)
        a, b = i, j + 1  # no breakpoint before b has tau_b - tau_a > lam0 (and none pairs with tau_n = T)
        while (keep := t_end[j] - t1[i] <= lam0).any():  # pairs (i, j) from t_j - t1_i <= lam0 ...
            i, j = i[keep], j[keep]
            cross = t1[j] - t[i] > lam0  # ... to lam0 < t1_j - t_i
            ends_i, ends_j = (((lv[s], slope[s], t[s]), (-rv[s], -slope[s], t1[s])) for s in (i[cross], j[cross]))
            for (ja, da, ta), (jb, db, tb) in itertools.product(ends_i, ends_j):
                m = (e := tb - ta) <= lam0
                # pairwise sums: thousands of coherent cubics enter at lam[0]
                tot[:, 0] += _jump_cubics(ja[m], da[m], jb[m], db[m], lam0 - e[m]).sum(axis=1)
            j = j + 1
        while (keep := (e := tau[b] - tau[a]) <= lam[-1]).any():  # the breakpoint pairs past lam0
            a, b, e = a[keep], b[keep], e[keep]
            w = np.flatnonzero(e > lam0)
            k = np.searchsorted(lam, e[w])  # the first lag >= e
            order = np.argsort(k.astype(np.min_scalar_type(K)), kind="stable")  # a radix sort
            k, w = k[order], w[order]
            q = _jump_cubics(jump[a[w]], kink[a[w]], jump[b[w]], kink[b[w]], lam[k] - e[w])
            first = np.flatnonzero(np.diff(k, prepend=-1))
            tot[:, k[first]] += np.add.reduceat(q, first, axis=1)  # pairwise per lag
            b = b + 1
    out, (r0, r1, r2, r3), prev = np.empty(K), np.zeros(4), lam0
    for k, (lag, e0, e1, e2, e3) in enumerate(zip(lam.tolist(), *tot.tolist())):
        d, prev = lag - prev, lag  # Taylor-shift the running cubic to this lag, then add
        out[k] = r0 = r0 + d * (r1 + d * (r2 + d * r3)) + e0
        r1, r2, r3 = r1 + d * (2.0 * r2 + 3.0 * r3 * d) + e1, r2 + 3.0 * r3 * d + e2, r3 + e3
    return out


def autocorrelation(path: ZigzagPath, observable: Callable, lags: Sequence[float]) -> np.ndarray:
    """Stationary autocorrelation of g along the path at the given lags.

    g is read as u, the linear interpolant of its segment-end values, and
    C(L) = int_0^{T-L} u(s) u(s + L) ds / (T - L) for u centred.  Lags more
    than a mean flight T / (n + 1) apart go to separate passes (_overlap_integrals),
    each O(segment pairs straddling its first lag + breakpoint pairs in its span).

    u is g only for g affine in x on each segment (x, theta, x theta), and
    those are exact up to rounding.  Any other g is refused with DomainError:
    g at each segment's midpoint must equal the mean of its end values to
    1e-12 of their size.  Each segment keeps its own end values, so jumps at
    switches stay sharp; they must be real and finite, one per position.
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
        raise InsufficientHorizonError(f"max lag {np.max(lags):g} exceeds a tenth of the horizon {T:g}")

    # segment-end values: exact mean and variance of the linear interpolant, which is g if the midpoints agree
    t, dt, x0s, ths = path.segments()
    ends = [np.asarray(observable(x, ths)) for x in (x0s, x0s + ths * dt, x0s + ths * (0.5 * dt))]
    if shapes := {v.shape for v in ends} - {t.shape}:
        raise DomainError(f"observable returned shape {min(shapes)}, not one value per segment end {t.shape}")
    if np.iscomplexobj(ends := np.array(ends)) or not np.all(np.isfinite(ends)):
        raise DomainError("observable values must be real and finite along the path")
    left, right, mid = ends.astype(float)
    if (bent := np.flatnonzero(np.abs(mid - 0.5 * (left + right)) > 1e-12 * (np.abs(left) + np.abs(right)))).size:
        i = bent[0]
        raise DomainError(f"observable is not affine in x on segment {i} (t in [{t[i]:.6g}, {t[i] + dt[i]:.6g}])")
    mean = float(np.sum(0.5 * (left + right) * dt) / dt.sum())
    lv, rv = left - mean, right - mean
    var_direct = float(np.sum(dt / 3.0 * (lv * lv + lv * rv + rv * rv)) / dt.sum())
    if not (var_direct > 1e-12 * max(1.0, abs(mean)) ** 2):
        raise DegenerateObservableError(f"observable variance {var_direct:.3e} is numerically zero along the path")

    lam, inverse = np.unique(lags, return_inverse=True)
    groups = np.split(lam, np.flatnonzero(np.diff(lam) > T / t.size) + 1)
    S = np.concatenate([_overlap_integrals(t, np.append(t[1:], T), lv, rv, g) for g in groups])
    # normalize by the lag-0 estimate S(0) / T when present so ACF(0) is exactly 1
    return (S / (T - lam))[inverse] / (S[0] / T if lam[0] == 0.0 else var_direct)


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
    # local maxima, the last lag excluded; t = 0 is always an envelope point in practice
    before = np.concatenate(([-np.inf], vals[:-1]))
    after = np.concatenate((vals[1:], [np.inf]))
    keep = (vals >= before) & (vals >= after) & (vals > 0.0)
    peaks_t, peaks_v = lags[keep], vals[keep]
    if peaks_t.size < 2:
        raise DomainError("envelope fit needs at least two |ACF| peaks; extend the lag range")
    slope = np.polyfit(peaks_t, np.log(peaks_v), 1)[0]
    return float(-slope)
