"""Adaptive complex quadrature on finite and half-infinite intervals.

The workhorse is a 15-point Gauss-Kronrod rule with interval bisection.  The
embedded 7-point Gauss value gives the error estimate |K - G| per panel,
which is conservative for the analytic integrands that occur here.  The
global test is QUADPACK's (Piessens et al. 1983): the summed |K - G| of each
row must fall below max(abs_tol, rel_tol |K|, 8 times its roundoff floor).
Refinement is level-synchronous, in the style of Shampine's vectorised quadgk
(J. Comput. Appl. Math. 2008): each round bisects the worst panels that
together carry the worst row's excess error, and evaluates all their
children in one call of a panel evaluator (charfn brings its own for psi;
integrate_finite's samples an f that takes a node array of any length), so
per-call overhead is paid per round.  Three features beyond a stock integrator:

* batch rows: the integrand may return an (m, n) array for n nodes, in which
  case all m integrals share panels and refinement is driven by the rows
  still failing, each panel scored by its worst e / tol among them.  This
  is what makes contour integration of (Z'/Z, zeta Z'/Z, ...) along an edge
  a single adaptive pass.
* oscillation guard: callers integrating against exp(2 gamma xi) pass the
  frequency |2 Im gamma| so the initial subdivision places at least 8 nodes
  per period before any error estimate is trusted.
* lockstep passes: independent passes, each with its own panels, refine
  round by round together, one evaluator call taking every pass's panels
  (the pairings of many eigenfunctions); a single pass is a batch of one.

Half-infinite integrals are cut by one rule on one table of radii, _RADII:
_cut takes an envelope's first table radius past its peak below
exp(-_TRUNCATION_MARGIN) = e^-40 and bounds the tail past it.
truncation_radius and psi's rotated rays (charfn) both use it; the caller
integrates the finite part.  Only integrate_finite takes a tolerance
(QuadratureConfig); psi and the operator layer integrate at DEFAULT_CONFIG,
and every cut takes this one margin.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, IntegrationError, TruncationError
from .potential import PotentialModel

__all__ = [
    "QuadratureConfig",
    "integrate_finite",
    "truncation_radius",
]

# 15-point Kronrod extension of 7-point Gauss (abscissae for [-1, 1]).
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299785,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# ascending node order: -x0 .. -x6, 0, x6 .. x0
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_GAUSS_W = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _GAUSS_W[_i] = _w
    _GAUSS_W[14 - _i] = _w
_GAUSS_W[7] = _WG[3]
_KD = np.stack([_KRONROD_W, _KRONROD_W - _GAUSS_W])  # GK15 rows: Kronrod, and the error estimate

_MAX_PANELS = 20000
_MAX_INITIAL = 512
_BLOCK = 256  # panels per call of a panel evaluator in _blocks
_TRUNCATION_MARGIN = 40.0  # a half-infinite integral is cut where its envelope has dropped below e^-40


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if not (isinstance(self.max_depth, (int, np.integer)) and self.max_depth >= 1):
            raise DomainError(f"max_depth must be an integer >= 1, got {self.max_depth!r}")


DEFAULT_CONFIG = QuadratureConfig()

# the radii a half-line integral may be cut at: steps of 1/8 over [0, 8], where an
# envelope may hump, then ratio 1250^(1/79) out to 1.05e5, the reach flat wells need
_RADII = np.concatenate([np.linspace(0.0, 8.0, 65), np.geomspace(8.0, 8.0 * 1250.0 ** (105 / 79), 106)[1:]])


def _cut(rate, w, rise, at=None):
    """The truncation rule for rows le = rate t - w(t), rate (m,), w and rise = w(t + 1) - w(t) on _RADII.

    A row's cut is its first radius past its peak with le < -_TRUNCATION_MARGIN and decay
    rho = rise - rate > 1e-3; the tail past it is at most the geometric sum
    e^{le} / (1 - e^{-rho}) of unit steps, rho growing outward for convex w
    (QUADPACK's argument, Piessens et al. 1983).  Returns (first, peak, tail):
    each row's cut index (-1 if none), its peak le and the tail at index `at`
    (default: its cut), the last two inf where it has none.
    """
    le = np.multiply.outer(rate, _RADII) - w
    fit = (le < -_TRUNCATION_MARGIN) & (rise > rate[:, None] + 1e-3)
    fit &= np.arange(_RADII.size) > le.argmax(axis=1)[:, None]
    ok = fit.any(axis=1)
    first = np.where(ok, fit.argmax(axis=1), -1)
    i = first[ok] if at is None else at
    tail = np.full(rate.shape, np.inf)
    tail[ok] = np.exp(le[ok, i]) / -np.expm1(rate[ok] - rise[i])
    return first, np.where(ok, le.max(axis=1), np.inf), tail


def _table(w_of):
    """(w, rise) on _RADII from one call of w_of on the rows (_RADII, _RADII + 1);
    a w that overflows to inf far out reads as an envelope that has vanished."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = w_of(np.stack([_RADII, _RADII + 1.0]))
        return w[..., 0, :], w[..., 1, :] - w[..., 0, :]


def truncation_radius(potential: PotentialModel, alpha, side: int = +1, center: float = 0.0):
    """(R, tail bound) by _cut for e^{|alpha| t - (U(center + side t) - U(center))}, arrays for an array
    of rates alpha, all cut on one table; TruncationError if one has none, DomainError for a rate
    or center that is not finite or a side other than +1 or -1."""
    return _truncation(potential, alpha, side, center)[:2]


def _truncation(potential, alpha, side, center):
    """truncation_radius's (R, tail bound) and, from the same _cut, the envelope's peak log."""
    rate = np.abs(np.atleast_1d(alpha))
    if not np.isfinite(rate).all():
        raise DomainError(f"truncation rate must be finite, got {rate[~np.isfinite(rate)][0]!r}")
    if side not in (1, -1) or not math.isfinite(center):
        raise DomainError(f"truncation needs side +1 or -1 and a finite center, got side={side!r}, center={center!r}")
    u, rise = _table(lambda t: potential.U(center + side * t))  # u[0] = U(center)
    first, peak, tail = _cut(rate, u - u[0], rise)
    if first.min() < 0:
        msg = f"no truncation radius below {_RADII[-1]:.4g} reaches envelope exp({-_TRUNCATION_MARGIN:g})"
        raise TruncationError(msg, location=float(_RADII[-1]))
    return (float(_RADII[first[0]]), float(tail[0]), float(peak[0])) if np.ndim(alpha) == 0 else (_RADII[first], tail, peak)


_EPS = np.finfo(float).eps
_NOISE_MULT = 8.0


def _tolerance(value, floor, cfg):
    """The acceptance bound max(abs_tol, rel_tol |value|, 8 floor), floor the
    roundoff floor eps times the L1 mass behind value."""
    return np.maximum(np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value)), _NOISE_MULT * floor)


def _blocks(panels, a, b):
    """panels(a, b) -> _gk_reduce's (K, E, N, batch_flag) on every panel [a[i], b[i]], one call
    per _BLOCK panels.  Blocks keep every temporary small however many panels there are."""
    if a.size <= _BLOCK:
        return panels(a, b)
    *parts, batch = zip(*(panels(a[i : i + _BLOCK], b[i : i + _BLOCK]) for i in range(0, a.size, _BLOCK)))
    return (*map(np.concatenate, parts), batch[0])


def _panels(f, a, b):
    """GK15 of the node integrand f on every panel [a[i], b[i]], one call of f per _BLOCK panels."""

    def block(a, b):
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        x = (c[:, None] + h[:, None] * _NODES).ravel()
        return _gk_reduce(np.asarray(f(x)), h, x)

    return _blocks(block, a, b)


def _gk_reduce(v, h, x):
    """GK15 of samples v, (n,) or (rows, n), at nodes x, 15 per panel of half-width h.

    Returns (K, E, N, batch_flag), the first three shaped (panels, rows):
    E is |K - G| and N the roundoff floor, eps times the L1 mass of the
    panel.  Panels whose |K - G| sits at that floor cannot be improved by
    further bisection and are retired.  Panel-major storage keeps the
    per-round gathers and sums contiguous when there are thousands of rows.
    A non-finite sample raises IntegrationError at the first node with one.
    """
    batch = v.ndim == 2
    v = v.reshape(-1, h.size, _NODES.size)
    h = h[:, None]
    noise = _EPS * h * (np.abs(v) @ _KRONROD_W).T
    if not np.all(np.isfinite(noise)):  # the Kronrod weights are positive
        bad = np.flatnonzero(~np.isfinite(v).all(axis=0))[0]
        raise IntegrationError(
            f"non-finite integrand sample near x = {x[bad]:.6g}",
            location=float(x[bad]),
        )
    k = h * (v @ _KRONROD_W).T
    g = h * (v @ _GAUSS_W).T
    return k, np.abs(k - g), noise, batch


def _initial_edges(a, b, oscillation, breakpoints):
    """Cut points for the initial subdivision: user breakpoints plus enough
    uniform cuts that each panel spans at most one oscillation period."""
    inner = np.asarray(() if breakpoints is None else breakpoints, dtype=float).ravel()
    if not np.isfinite(inner).all():
        raise DomainError(f"breakpoints must be finite, got {inner[~np.isfinite(inner)][0]!r}")
    pts = sorted({a, b, *(float(p) for p in inner if a < p < b)})
    if oscillation > 0.0:
        period = 2.0 * math.pi / oscillation
        want = sum(max(1, math.ceil((q - p) / period)) for p, q in zip(pts, pts[1:]))
        shrink = 1.0
        if want > _MAX_INITIAL:
            shrink = want / _MAX_INITIAL
        refined = []
        for p, q in zip(pts, pts[1:]):
            n = max(1, math.ceil((q - p) / (period * shrink)))
            refined.extend(np.linspace(p, q, n + 1)[:-1])
        refined.append(b)
        pts = refined
    return pts


def _refine(edges, cfg):
    """One adaptive pass over the initial cells of edges, as a generator.

    It yields the panels (a, b) it wants evaluated, is sent their (K, E, N,
    batch_flag), and returns (value_rows, err_rows, batch_flag).  Convergence
    demands the accumulated |K - G| of every row drop below the requested
    tolerance or below the accumulated roundoff floor, whichever is larger;
    individual panels whose error is at their own floor are retired since
    bisection cannot help them.  Each round scores every panel not retired by
    its worst e / tol over the failing rows and bisects the best-scored panels
    until their scores add up to the worst row's excess (total_e - tol) / tol:
    were their error gone, that row would pass.  All their children are
    yielded at once.  (Stopping at half the excess bisects the same panels in
    about twice as many rounds.)
    """
    a, b = edges[:-1], edges[1:]
    depth = np.zeros(a.size, dtype=int)
    k, e, n, batch = yield a, b
    count = a.size
    while True:
        total_k, total_e = k.sum(axis=0), e.sum(axis=0)
        tol = _tolerance(total_k, n.sum(axis=0), cfg)
        failing = total_e > tol
        if not failing.any() or (live := np.flatnonzero(np.any(e > _NOISE_MULT * n, axis=1))).size == 0:
            return total_k, total_e, batch
        tol = tol[failing]
        score = (e[live][:, failing] / tol).max(axis=1)
        excess = ((total_e[failing] - tol) / tol).max()
        rank = np.argsort(-score, kind="stable")
        chosen = int(np.searchsorted(np.cumsum(score[rank]), excess)) + 1
        chosen = min(chosen, rank.size, (_MAX_PANELS - count) // 2)
        if chosen <= 0:
            mid = 0.5 * (a[live[rank[0]]] + b[live[rank[0]]])
            raise IntegrationError(
                f"panel budget {_MAX_PANELS} exhausted near x = {mid:.6g}",
                location=mid,
            )
        pick = live[rank[:chosen]]
        pa, pb, pd = a[pick], b[pick], depth[pick] + 1
        deep = pick[pd > cfg.max_depth]
        if deep.size:
            mid = 0.5 * (a[deep[0]] + b[deep[0]])
            raise IntegrationError(
                f"max refinement depth {cfg.max_depth} reached near x = {mid:.6g} "
                f"(panel error {e[deep[0]].max():.3e})",
                location=mid,
            )
        mid = 0.5 * (pa + pb)
        ck, ce, cn, _ = yield np.concatenate([pa, mid]), np.concatenate([mid, pb])
        count += 2 * chosen
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        a = np.concatenate([a[keep], pa, mid])
        b = np.concatenate([b[keep], mid, pb])
        depth = np.concatenate([depth[keep], pd, pd])
        k = np.concatenate([k[keep], ck])
        e = np.concatenate([e[keep], ce])
        n = np.concatenate([n[keep], cn])


def _adaptive(panels, edges, cfg):
    """Refine in lockstep a _refine per array of initial cuts in edges; returns what each returns.

    Each round takes the panels of every unfinished pass in one call panels(a,
    b, runs) -> _panels' (K, E, N, batch_flag), runs the (pass, panel count)
    in order, and sends each pass its rows.  A round of one pass passes its
    panels and rows whole, with no numpy call of its own; the first pass to
    raise in a round raises for the batch.
    """
    passes = [_refine(cuts, cfg) for cuts in edges]
    want, out = dict(enumerate(map(next, passes))), [None] * len(passes)
    while want:
        runs, lo = [(i, a.size) for i, (a, _) in want.items()], 0
        a, b = next(iter(want.values())) if len(want) == 1 else map(np.concatenate, zip(*want.values()))
        rows = panels(a, b, runs)
        for i, m in runs:
            try:
                want[i] = passes[i].send(rows if len(runs) == 1 else (*(r[lo : lo + m] for r in rows[:3]), rows[3]))
            except StopIteration as done:
                out[i] = done.value
                del want[i]
            lo += m
    return out


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    oscillation: float = 0.0,
    breakpoints=(),
):
    """Integrate a vectorized integrand over [a, b].

    f maps an array of n nodes to shape (n,) or (m, n); the return value is
    (value, err_est) with matching row shape (scalars for 1-d integrands).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise DomainError(f"integration limits out of order: a = {a} > b = {b}")
    if not 0.0 <= oscillation < math.inf:
        raise DomainError(f"oscillation must be finite and >= 0, got {oscillation!r}")
    if a == b:
        probe = np.asarray(f(np.array([a])))
        zero = np.zeros(probe.shape[0], dtype=complex) if probe.ndim == 2 else 0.0 + 0.0j
        return zero, (np.zeros(probe.shape[0]) if probe.ndim == 2 else 0.0)

    edges = np.asarray(_initial_edges(a, b, oscillation, breakpoints), dtype=float)
    (total_k, total_e, batch), = _adaptive(lambda a, b, _: _panels(f, a, b), [edges], cfg)
    if batch:
        return total_k, total_e
    return complex(total_k[0]), float(total_e[0])
