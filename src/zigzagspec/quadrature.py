"""Adaptive complex quadrature on finite and half-infinite intervals.

The workhorse is a 15-point Gauss-Kronrod rule with interval bisection.  The
embedded 7-point Gauss value gives the error estimate |K - G| per panel,
which is conservative for the analytic integrands that occur here.  The
global test is QUADPACK's (Piessens et al. 1983): the summed |K - G| of each
row must fall below max(abs_tol, rel_tol |K|, 8 times its roundoff floor).
Refinement is level-synchronous, in the style of Shampine's vectorised quadgk
(J. Comput. Appl. Math. 2008): each round bisects the worst panels that
together carry the worst row's excess error, and evaluates all their
children in one call of f, so per-call overhead (numpy dispatch, and for
psi a whole nested quadrature) is paid per round.  f must therefore accept a
node array of any length.  Two features beyond a stock integrator:

* batch rows: the integrand may return an (m, n) array for n nodes, in which
  case all m integrals share panels and refinement is driven by the rows
  still failing, each panel scored by its worst e / tol among them.  This
  is what makes contour integration of (Z'/Z, zeta Z'/Z, ...) along an edge
  a single adaptive pass.
* oscillation guard: callers integrating against exp(2 gamma xi) pass the
  frequency |2 Im gamma| so the initial subdivision places at least 8 nodes
  per period before any error estimate is trusted.

Half-infinite integrals truncate at a radius certified by a DecayProfile and
carry the analytic tail bound inside the reported error estimate.
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
    "DecayProfile",
    "integrate_finite",
    "integrate_semiinfinite",
    "truncation_radius",
    "gk_cells",
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

_MAX_PANELS = 20000
_MAX_INITIAL = 512


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator.

    truncation_margin is in units of -log(target): a half-infinite integral
    is cut where its envelope has dropped below exp(-truncation_margin).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 60
    truncation_margin: float = 40.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclasses.dataclass(frozen=True)
class DecayProfile:
    """Envelope of an integrand exp(alpha t) * O(1) * exp(-U) along one tail.

    The envelope at distance t from the origin is

        amplitude * exp(|alpha| t - (U(center + direction t) - U(center)))

    with direction +1 for the tail at +infinity and -1 for -infinity.  The
    chosen truncation radius R satisfies envelope(R) < exp(-margin), so in
    particular exp(-U(R) + |alpha| R) < abs_tol, because U grows superlinearly
    (Assumption A2 territory).
    """

    potential: PotentialModel
    alpha: float
    direction: int = +1
    center: float = 0.0
    amplitude: float = 1.0

    def log_envelope(self, t):
        t = np.asarray(t, dtype=float)
        shift = self.potential.U(self.center + self.direction * t) - self.potential.U(
            self.center
        )
        return math.log(max(self.amplitude, 1e-300)) + abs(self.alpha) * t - shift


def truncation_radius(profile: DecayProfile, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Scan outward for a radius past which the tail is provably negligible.

    Returns (R, tail_bound).  The bound sums unit-step envelope values under
    the observed geometric decay rate; for log-concave envelopes (convex U)
    the rate only improves further out, so the bound is honest.
    """
    target = -float(cfg.truncation_margin)
    t = 1.0
    t_max = 1e5
    while t < t_max:
        le = profile.log_envelope(t)
        if le < target:
            rho = le - float(profile.log_envelope(t + 1.0))
            if rho > 1e-3:
                tail = math.exp(le) / (1.0 - math.exp(-rho))
                return t, tail
        # coarse outward march; the envelope may hump before decaying
        t = t * 1.25 + 1.0
    raise TruncationError(
        f"no truncation radius below {t_max:g} reaches envelope exp({target:g})",
        location=t_max,
    )


_EPS = np.finfo(float).eps
_NOISE_MULT = 8.0


def _panels(f, a, b):
    """Evaluate GK15 on every panel [a[i], b[i]] with one call of f.

    Returns (K, E, N, batch_flag), the first three shaped (panels, rows):
    N is the roundoff floor, eps times the L1 mass of the panel.  Panels
    whose |K - G| sits at that floor cannot be improved by further bisection
    and are retired.  Panel-major storage keeps the per-round
    gathers and sums contiguous when there are thousands of rows.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = (c[:, None] + h[:, None] * _NODES).ravel()
    v = np.asarray(f(x))
    batch = v.ndim == 2
    v = v.reshape(-1, a.size, _NODES.size)
    h = h[:, None]
    noise = _EPS * h * (np.abs(v) @ _KRONROD_W).T
    if not np.all(np.isfinite(noise)):  # the Kronrod weights are positive
        bad = np.argwhere(~np.isfinite(v.reshape(v.shape[0], -1)))[0][-1]
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
    pts = [a, b]
    if breakpoints is None:
        breakpoints = ()
    for p in np.atleast_1d(np.asarray(breakpoints, dtype=float)):
        p = float(p)
        if a < p < b:
            pts.append(p)
    pts = sorted(set(pts))
    if oscillation and oscillation > 0.0:
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


def _adaptive(f, edges, cfg):
    """Level-synchronous adaptive refinement over the initial cells of edges.

    Returns (value_rows, err_rows, batch_flag).  Convergence demands the
    accumulated |K - G| of every row drop below the requested tolerance or
    below the accumulated roundoff floor, whichever is larger; individual
    panels whose error is at their own floor are retired since bisection
    cannot help them.  Each round scores every panel not retired by its
    worst e / tol over the failing rows and bisects the best-scored panels
    until their scores add up to the worst row's excess (total_e - tol) / tol:
    were their error gone, that row would pass.  All their children are
    evaluated with one call of f.  (Stopping at half the excess bisects the
    same panels in about twice as many rounds.)
    """
    a, b = edges[:-1], edges[1:]
    depth = np.zeros(a.size, dtype=int)
    k, e, n, batch = _panels(f, a, b)
    count = a.size
    while True:
        total_k, total_e = k.sum(axis=0), e.sum(axis=0)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_k))
        tol = np.maximum(tol, _NOISE_MULT * n.sum(axis=0))
        failing = total_e > tol
        live = np.flatnonzero(np.any(e > _NOISE_MULT * n, axis=1))
        if not failing.any() or live.size == 0:
            return total_k, total_e, batch
        score = (e[live][:, failing] / tol[failing]).max(axis=1)
        excess = ((total_e - tol)[failing] / tol[failing]).max()
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
        deep = pick[depth[pick] >= cfg.max_depth]
        if deep.size:
            mid = 0.5 * (a[deep[0]] + b[deep[0]])
            raise IntegrationError(
                f"max refinement depth {cfg.max_depth} reached near x = {mid:.6g} "
                f"(panel error {e[deep[0]].max():.3e})",
                location=mid,
            )
        mid = 0.5 * (a[pick] + b[pick])
        ck, ce, cn, _ = _panels(f, np.concatenate([a[pick], mid]), np.concatenate([mid, b[pick]]))
        count += 2 * chosen
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        a = np.concatenate([a[keep], a[pick], mid])
        b = np.concatenate([b[keep], mid, b[pick]])
        depth = np.concatenate([depth[keep], depth[pick] + 1, depth[pick] + 1])
        k = np.concatenate([k[keep], ck])
        e = np.concatenate([e[keep], ce])
        n = np.concatenate([n[keep], cn])


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
    if a == b:
        probe = np.asarray(f(np.array([a])))
        zero = np.zeros(probe.shape[0], dtype=complex) if probe.ndim == 2 else 0.0 + 0.0j
        return zero, (np.zeros(probe.shape[0]) if probe.ndim == 2 else 0.0)

    edges = np.asarray(_initial_edges(a, b, oscillation, breakpoints), dtype=float)
    total_k, total_e, batch = _adaptive(f, edges, cfg)
    if batch:
        return total_k, total_e
    return complex(total_k[0]), float(total_e[0])


def gk_cells(f: Callable, edges):
    """Fixed (non-adaptive) GK15 on each cell [edges[i], edges[i+1]].

    For smooth integrands on fine grids a single panel per cell is already
    far below roundoff, so no refinement is attempted.  f maps a flat node
    array to values; returns (per_cell_integrals, per_cell_errors), each of
    length len(edges) - 1.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("gk_cells needs at least two edges")
    if np.any(np.diff(edges) <= 0.0):
        raise DomainError("gk_cells edges must be strictly increasing")
    k, e, _, _ = _panels(lambda x: np.asarray(f(x), dtype=complex), edges[:-1], edges[1:])
    return k[:, 0], e[:, 0]


def integrate_semiinfinite(
    f: Callable,
    origin: float,
    profile: DecayProfile,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    oscillation: float = 0.0,
    breakpoints=(),
):
    """Integrate f on [origin, +inf) or (-inf, origin] per the profile.

    The interval is truncated at the certified radius and integrated left to
    right; the analytic tail bound is added to err_est.
    """
    r, tail = truncation_radius(profile, cfg)
    if profile.direction >= 0:
        a, b = origin, origin + r
    else:
        a, b = origin - r, origin
    value, err = integrate_finite(f, a, b, cfg, oscillation=oscillation, breakpoints=breakpoints)
    return value, err + tail
