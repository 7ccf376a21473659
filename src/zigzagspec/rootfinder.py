"""All zeros of a holomorphic function in a rectangle.

The counting tool is the argument principle: (1/2pi i) times the contour
integral of f'/f equals the number of zeros inside, and the first and second
moments (same integral with extra factors zeta, zeta^2) localize them.  The
strategy:

1. resolve the phase of f along each edge until consecutive samples turn by
   less than pi/2, which makes the telescoped winding number exact;
2. integrate (f'/f) * (1, zeta, zeta^2) along each edge in one batched
   adaptive pass started on every 4th skeleton point (at most one phase turn
   of 2 pi per panel) and cross-check the quadrature winding against the
   telescoped one; each segment is sampled and integrated once per search;
3. recurse by bisecting the longest side, through the line nearest its centre
   that steps 1-2 resolve (both children reuse it, as a child reuses the
   parent side it keeps), until each box holds one zero (Newton-polish the
   first moment) or a cluster collapses to a point (multiple root, polished
   with the multiplicity-aware Newton step); a box keeps Newton's root only
   if it stays inside, else its moment estimate, unpolished.

Zeros sitting on a contour are handled deterministically: the requested
region is dilated by 1e-4 on the offending side, and a split line that does
not resolve is shifted by up to 7 units of min(1e-4, span/16) either way.
Both f and logderiv must accept complex numpy arrays.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Callable, List, Tuple

import numpy as np

from .errors import (
    BoundaryProximityError,
    DomainError,
    NearZeroError,
    PolishFailureError,
    UnresolvedClusterError,
    WindingError,
)
from .quadrature import QuadratureConfig, integrate_finite

__all__ = [
    "ComplexRegion",
    "RootfinderConfig",
    "RootRecord",
    "RootSet",
    "count_zeros",
    "locate_zeros",
    "newton_polish",
]

_TWO_PI = 2.0 * math.pi
_MAX_EDGE_POINTS = 8192
_IM_SNAP = 1e-10


@dataclasses.dataclass(frozen=True)
class ComplexRegion:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    edge_samples: int = 64

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise DomainError(f"region bounds must be finite, got {bounds}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError(
                f"degenerate region [{self.re_min},{self.re_max}]x[{self.im_min},{self.im_max}]"
            )

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )

    def corners(self):
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )


@dataclasses.dataclass(frozen=True)
class RootfinderConfig:
    root_tol: float = 1e-10       # Newton step stopping size
    boundary_tol: float = 1e-8    # |f| below this on a contour sample => too close
    min_box_size: float = 1e-8
    cluster_tol: float = 1e-6     # moment spread below this collapses to a multiple root
    max_newton_iter: int = 50
    dilation: float = 1e-4        # deterministic boundary jitter
    quad: QuadratureConfig = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-11, max_depth=40)

    def __post_init__(self):
        for name in ("root_tol", "boundary_tol", "min_box_size", "cluster_tol", "dilation"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        n = self.max_newton_iter
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise DomainError(f"max_newton_iter must be an integer >= 1, got {n!r}")


DEFAULT_ROOT_CONFIG = RootfinderConfig()


@dataclasses.dataclass(frozen=True)
class RootRecord:
    location: complex
    multiplicity: int
    residual: float
    polished: bool = True


@dataclasses.dataclass(frozen=True)
class RootSet:
    roots: Tuple[RootRecord, ...]
    region: ComplexRegion
    winding: int

    def locations(self):
        return [r.location for r in self.roots]

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


# ---------------------------------------------------------------------------
# contour machinery
# ---------------------------------------------------------------------------


def _edges(region: ComplexRegion):
    c0, c1, c2, c3 = region.corners()
    return (
        (c0, c1, "bottom"),
        (c1, c2, "right"),
        (c2, c3, "top"),
        (c3, c0, "left"),
    )


def _phase_skeleton(fvec, z0, direction, length, n0, boundary_tol, edge_name):
    """Sample f along an edge until successive phases turn < pi/2.

    Returns (ts, total phase change).  A sample with |f| < boundary_tol, or a
    phase that refuses to resolve, raises BoundaryProximityError for this
    edge, carrying the offending location.
    """
    ts = np.linspace(0.0, length, max(int(n0), 8) + 1)
    vals = np.asarray(fvec(z0 + direction * ts), dtype=complex)

    def check_clear(points, values):
        small = np.abs(values) < boundary_tol
        if small.any():
            loc = z0 + direction * points[np.argmax(small)]
            raise BoundaryProximityError(edge_name, loc)

    check_clear(ts, vals)
    for _ in range(40):
        turns = np.angle(vals[1:] * np.conj(vals[:-1]))
        bad = np.abs(turns) >= 0.5 * math.pi
        if not bad.any():
            return ts, float(np.sum(turns))
        if len(ts) > _MAX_EDGE_POINTS:
            worst = int(np.argmax(np.abs(turns)))
            raise BoundaryProximityError(
                edge_name, z0 + direction * 0.5 * (ts[worst] + ts[worst + 1])
            )
        mids = 0.5 * (ts[:-1][bad] + ts[1:][bad])
        mvals = np.asarray(fvec(z0 + direction * mids), dtype=complex)
        check_clear(mids, mvals)
        order = np.argsort(np.concatenate([ts, mids]), kind="stable")
        ts = np.concatenate([ts, mids])[order]
        vals = np.concatenate([vals, mvals])[order]
    raise BoundaryProximityError(edge_name, z0 + direction * 0.5 * length)


def _edge(fvec, ldvec, za, zb, name, cfg, n0, edges):
    """(phase turn, moments, quadrature error) of the segment za -> zb.

    The moments are the integrals of (f'/f) * (1, zeta, zeta^2) along it.  A
    segment is integrated once per search, always from its lower endpoint to
    its upper one: `edges` keys the results by (lower, upper, n0), and the
    reverse traversal takes the negated turn and moments.  An edge that
    raises stores nothing.
    """
    lo, hi = sorted((za, zb), key=lambda z: (z.real, z.imag))
    key = (lo, hi, n0)
    if key not in edges:
        length = abs(hi - lo)
        direction = (hi - lo) / length
        ts, dphase = _phase_skeleton(fvec, lo, direction, length, n0, cfg.boundary_tol, name)

        def rows(t):
            z = lo + direction * t
            ld = ldvec(z)
            return np.stack([ld, z * ld, z * z * ld]) * direction

        try:
            vals, errs = integrate_finite(rows, 0.0, length, cfg.quad, breakpoints=ts[4:-1:4])
        except NearZeroError as exc:
            raise BoundaryProximityError(name, exc.gamma) from exc
        edges[key] = (dphase, vals, float(errs[0]))
    dphase, vals, err = edges[key]
    return (dphase, vals, err) if za == lo else (-dphase, -vals, err)


def _contour_moments(fvec, ldvec, region, cfg, n0, edges):
    """Telescoped winding plus quadrature moments (s0, s1, s2) of the contour.

    s_k = (1/2pi i) contour-integral of zeta^k logderiv(zeta), summed over
    the four `_edge` results.  Also returns the name of the edge with the
    worst quadrature error (suspect for any trouble upstream).
    """
    sides = _edges(region)
    turns, moments, errs = zip(*(_edge(fvec, ldvec, *side, cfg, n0, edges) for side in sides))
    worst_edge = sides[int(np.argmax(errs))][2]
    return sum(turns) / _TWO_PI, sum(moments) / (2.0j * math.pi), worst_edge


def _winding_and_moments(fvec, ldvec, region, cfg, edges):
    """Integer winding number with moments; refines edge sampling on doubt."""
    n0 = region.edge_samples
    last = None
    for _ in range(3):
        w_tel, moments, worst_edge = _contour_moments(fvec, ldvec, region, cfg, n0, edges)
        w_int = int(round(w_tel))
        tel_ok = abs(w_tel - w_int) < 0.05
        quad_ok = abs(moments[0] - w_int) <= 0.25
        if tel_ok and quad_ok:
            return w_int, moments
        last = (w_tel, moments[0], worst_edge)
        n0 *= 4
    raise BoundaryProximityError(last[2], region.center)


def _dilated(region: ComplexRegion, exc: BoundaryProximityError, amount: float) -> ComplexRegion:
    """Enlarge the region by `amount` on the side named by the error
    (all four sides when the edge is unknown)."""
    grow = {"bottom": 0.0, "right": 0.0, "top": 0.0, "left": 0.0}
    if exc.edge in grow:
        grow[exc.edge] = amount
    else:
        grow = dict.fromkeys(grow, amount)
    return ComplexRegion(
        region.re_min - grow["left"],
        region.re_max + grow["right"],
        region.im_min - grow["bottom"],
        region.im_max + grow["top"],
        region.edge_samples,
    )


# ---------------------------------------------------------------------------
# Newton polish
# ---------------------------------------------------------------------------


def newton_polish(
    logderiv: Callable,
    guess: complex,
    cfg: RootfinderConfig = DEFAULT_ROOT_CONFIG,
    multiplicity: int = 1,
) -> complex:
    """Refine a root estimate with gamma <- gamma - m / logderiv(gamma).

    A NearZeroError from the logderiv means the iterate has landed on the
    root (the residual is already below the near-zero floor) and stops the
    iteration.  Five consecutive step growths abort with PolishFailureError.
    """
    z = complex(guess)
    if not cmath.isfinite(z):
        raise DomainError(f"Newton guess must be finite, got {z!r}")
    prev_step = math.inf
    growth = 0
    for _ in range(cfg.max_newton_iter):
        try:
            ld = complex(np.asarray(logderiv(np.array([z])), dtype=complex)[0])
        except NearZeroError:
            return z
        if not cmath.isfinite(ld):
            return z  # logderiv pole: the iterate sits on the root itself
        if ld == 0.0:
            raise PolishFailureError(f"logderiv vanished at {z} (critical point?)")
        step = multiplicity / ld
        z -= step
        s = abs(step)
        if s < cfg.root_tol:
            return z
        if s > prev_step:
            growth += 1
            if growth >= 5:
                raise PolishFailureError(
                    f"Newton diverged from {guess}: step grew 5 times, last {s:.3e}"
                )
        else:
            growth = 0
        prev_step = s
    return z


# ---------------------------------------------------------------------------
# subdivision search
# ---------------------------------------------------------------------------


def _cut(fvec, ldvec, region: ComplexRegion, cfg: RootfinderConfig, edges):
    """Pick a split coordinate on the longest side, shifted off any zero.

    Returns ('re'|'im', cut).  Deterministic: the offsets 0, +1, -1, ..., +7,
    -7 in units of min(dilation, span/16) are tried in turn, and the first
    whose shared segment `_edge` resolves is taken, so both children reuse it
    from `edges`; when none does, the last BoundaryProximityError propagates.
    """
    vertical = region.width >= region.height  # cut parallel to imag axis
    span = region.width if vertical else region.height
    base = region.center.real if vertical else region.center.imag
    unit = min(cfg.dilation, span / 16.0)
    for offset in [0.0] + [s * k * unit for k in range(1, 8) for s in (1, -1)]:
        cut = base + offset
        if vertical:  # the first child's right edge and the second's left
            seg = complex(cut, region.im_min), complex(cut, region.im_max), "right"
        else:  # the first child's top edge and the second's bottom
            seg = complex(region.re_max, cut), complex(region.re_min, cut), "top"
        try:
            _edge(fvec, ldvec, *seg, cfg, region.edge_samples, edges)
            return ("re" if vertical else "im"), cut
        except BoundaryProximityError as exc:
            last = exc
    raise last


def _split(region: ComplexRegion, axis: str, cut: float):
    upper, lower = ("re_max", "re_min") if axis == "re" else ("im_max", "im_min")
    return dataclasses.replace(region, **{upper: cut}), dataclasses.replace(region, **{lower: cut})


def _snap(z: complex) -> complex:
    return complex(z.real, 0.0) if abs(z.imag) < _IM_SNAP else z


def _emit_root(fvec, ldvec, box, estimate, multiplicity, cfg, out):
    """Record the zero of `box` (of the given multiplicity): Newton's result
    from the moment estimate if it stays in the box, else the estimate itself,
    unpolished.  Disjoint boxes thus never record the same root twice."""
    try:
        root = newton_polish(ldvec, estimate, cfg, multiplicity=multiplicity)
        polished = box.contains(root)
    except PolishFailureError:
        polished = False
    root = _snap(root if polished else complex(estimate))
    residual = float(abs(complex(np.asarray(fvec(np.array([root])), dtype=complex)[0])))
    out.append(RootRecord(root, int(multiplicity), residual, polished))


def _solve(fvec, ldvec, region: ComplexRegion, cfg: RootfinderConfig, out: list, edges) -> int:
    try:
        w, moments = _winding_and_moments(fvec, ldvec, region, cfg, edges)
    except BoundaryProximityError:
        if max(region.width, region.height) < cfg.min_box_size:
            raise UnresolvedClusterError(
                f"winding undetermined in a box below min_box_size at {region.center}",
                box=region,
            ) from None
        raise
    if w == 0:
        return 0
    if w < 0:
        raise WindingError(f"negative winding {w} in {region}: not holomorphic?")

    centroid = moments[1] / w
    spread = math.sqrt(abs(moments[2] / w - centroid * centroid))
    if w == 1 or spread < cfg.cluster_tol or max(region.width, region.height) < cfg.min_box_size:
        # one root, or w roots indistinguishable at working precision: a multiple root
        _emit_root(fvec, ldvec, region, centroid, w, cfg, out)
        return w

    axis, cut = _cut(fvec, ldvec, region, cfg, edges)
    child_a, child_b = _split(region, axis, cut)
    wa = _solve(fvec, ldvec, child_a, cfg, out, edges)
    wb = _solve(fvec, ldvec, child_b, cfg, out, edges)
    if wa + wb != w:
        raise WindingError(
            f"winding additivity violated at {axis}-cut {cut:.6g}: {w} != {wa} + {wb}"
        )
    return w


def _as_vectorized(fn):
    def wrapped(z):
        return np.asarray(fn(np.asarray(z, dtype=complex)), dtype=complex)

    return wrapped


def _with_dilation(attempt: Callable, region: ComplexRegion, cfg: RootfinderConfig):
    """attempt(region), retried up to 5 times: a zero detected on the boundary
    dilates the region by cfg.dilation on that side (deterministically)."""
    current = region
    last_exc = None
    for _ in range(5):
        try:
            return attempt(current)
        except BoundaryProximityError as exc:
            last_exc = exc
            current = _dilated(current, exc, cfg.dilation)
    raise last_exc


def count_zeros(
    logderiv: Callable,
    region: ComplexRegion,
    cfg: RootfinderConfig = DEFAULT_ROOT_CONFIG,
    *,
    f: Callable,
) -> int:
    """Number of zeros (with multiplicity) inside the region.

    The winding is telescoped from the resolved phase of f and cross-checked
    against the quadrature of logderiv along the same edges.  A zero
    detected on the boundary dilates the region by 1e-4 on that side
    (deterministically) and retries.
    """
    fvec = _as_vectorized(f)
    ldvec = _as_vectorized(logderiv)
    edges: dict = {}
    return _with_dilation(
        lambda current: _winding_and_moments(fvec, ldvec, current, cfg, edges)[0], region, cfg
    )


def locate_zeros(
    f: Callable,
    logderiv: Callable,
    region: ComplexRegion,
    cfg: RootfinderConfig = DEFAULT_ROOT_CONFIG,
) -> RootSet:
    """All zeros of f inside the region, with multiplicities.

    Boundary zeros are absorbed by dilating the requested region by 1e-4 on
    the offending side, so locations within that jitter of the boundary may
    be reported.  Roots are sorted by (Re, Im); im parts below 1e-10 snap to
    the real axis.
    """
    fvec = _as_vectorized(f)
    ldvec = _as_vectorized(logderiv)
    edges: dict = {}  # segment results shared by sibling boxes and dilation retries

    def attempt(current):
        out: List[RootRecord] = []
        w = _solve(fvec, ldvec, current, cfg, out, edges)
        total = sum(r.multiplicity for r in out)
        if total != w:
            raise WindingError(
                f"root multiplicities sum to {total} but region winding is {w}"
            )
        out.sort(key=lambda r: (r.location.real, r.location.imag))
        return RootSet(roots=tuple(out), region=current, winding=w)

    return _with_dilation(attempt, region, cfg)
