"""All zeros of k holomorphic functions in a rectangle, in one search.

f and logderiv map n points to (n,) values, or to rows (k, n) of k functions
searched together (the batch-rows idiom of `integrate_finite`).  The tool is
the argument principle: (1/2pi i) times the contour integral of f'/f counts
the zeros inside, and the moments with extra factors zeta, zeta^2 localize
them.  Each contour segment is sampled and integrated once per search:

1. the phase of every row is resolved along it until consecutive samples
   turn by less than pi/2, which makes the telescoped winding number exact;
2. (f'/f) * (1, zeta, zeta^2) of every row (3k integrals) is integrated in
   one adaptive pass started on every 4th skeleton point (at most one phase
   turn of 2 pi per panel), and cross-checked against the telescoped winding.

A box emits a row's zero where it holds one (Newton-polished first moment)
or the row's zeros collapse to a point (multiple root, multiplicity-aware
Newton step), keeping Newton's root only if it stays inside, else the moment
estimate, unpolished.  The rows left split the box together through the line
nearest its centre that resolves (shared by both children, as a child shares
the parent side it keeps).  A box checks the rows still searched in it only.
A zero on the contour dilates the requested region by 1e-4 on that side, and
shifts a split line by up to 7 units of min(1e-4, span/16) either way.
logderiv may raise NearZeroError where any row of f vanishes numerically.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Callable, Tuple

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
    "RootRecord",
    "RootSet",
    "RootSets",
    "count_zeros",
    "locate_zeros",
    "newton_polish",
]

_TWO_PI = 2.0 * math.pi
_MAX_EDGE_POINTS = 8192
_IM_SNAP = 1e-10
_EDGE_QUAD = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-11, max_depth=40)  # contour edge integrals
_EDGE_SAMPLES = 64  # initial phase samples per edge, x4 on each of two refinements
_BOUNDARY_TOL = 1e-8  # |f| below this on a contour sample => too close
_MIN_BOX = 1e-8  # a box below this side is not split
_CLUSTER_TOL = 1e-6  # moment spread below this collapses to a multiple root
_MAX_NEWTON_ITER = 50
_DILATION = 1e-4  # deterministic boundary jitter


@dataclasses.dataclass(frozen=True)
class ComplexRegion:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

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

    def contains(self, z: complex) -> bool:
        return (
            self.re_min <= z.real <= self.re_max
            and self.im_min <= z.imag <= self.im_max
        )

    def corners(self):
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )


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


class RootSets(tuple):
    """The RootSet of each row of a k-row search, in row order."""

    @property
    def roots(self) -> Tuple[RootRecord, ...]:
        """Every row's roots, row after row, as a count or scan of one RootSet reads them."""
        return tuple(r for rs in self for r in rs.roots)


# ---------------------------------------------------------------------------
# contour machinery
# ---------------------------------------------------------------------------


def _edges(region: ComplexRegion):
    c0, c1, c2, c3 = region.corners()
    return (c0, c1, "bottom"), (c1, c2, "right"), (c2, c3, "top"), (c3, c0, "left")


def _phase_skeleton(fvec, z0, direction, length, n0):
    """Sample f along an edge until each row's successive phases turn < pi/2.

    Returns (ts, each row's phase change, the t where each row is blocked or
    nan): at its first sample with |f| < _BOUNDARY_TOL, or where its phase
    refuses to resolve.  Blocked rows are refined no further.
    """
    ts = np.linspace(0.0, length, max(n0, 8) + 1)
    vals = fvec(z0 + direction * ts)
    stuck = np.full(vals.shape[0], np.nan)

    def block(points, values):
        small = np.abs(values) < _BOUNDARY_TOL
        hit = small.any(axis=1) & np.isnan(stuck)
        stuck[hit] = points[np.argmax(small[hit], axis=1)]

    block(ts, vals)
    for rounds in range(41):
        turns = np.angle(vals[:, 1:] * np.conj(vals[:, :-1]))
        bad = (np.abs(turns) >= 0.5 * math.pi) & np.isnan(stuck)[:, None]
        if not bad.any():
            break
        if rounds == 40 or len(ts) > _MAX_EDGE_POINTS:
            rows = bad.any(axis=1)
            worst = np.argmax(np.where(bad[rows], np.abs(turns[rows]), -1.0), axis=1)
            stuck[rows] = 0.5 * (ts[worst] + ts[worst + 1])
            break
        mask = bad.any(axis=0)
        mids = 0.5 * (ts[:-1][mask] + ts[1:][mask])
        mvals = fvec(z0 + direction * mids)
        block(mids, mvals)
        order = np.argsort(np.concatenate([ts, mids]), kind="stable")
        ts = np.concatenate([ts, mids])[order]
        vals = np.concatenate([vals, mvals], axis=1)[:, order]
    return ts, turns.sum(axis=1), stuck


def _edge(fvec, ldvec, za, zb, name, rows, edges, n0=_EDGE_SAMPLES):
    """(phase turns, moments (3, rows), quadrature errors) of `rows` on za -> zb.

    The moments are the integrals of (f'/f) * (1, zeta, zeta^2).  Every row
    of f is sampled and integrated once, from the lower endpoint to the upper
    one, into `edges` under (lower, upper, n0); the reverse traversal negates
    turns and moments, and an edge whose quadrature raises stores nothing.
    A row blocked on the segment is left out of the quadrature, and raises
    BoundaryProximityError when `rows` asks for it.
    """
    lo, hi = sorted((za, zb), key=lambda z: (z.real, z.imag))
    key = (lo, hi, n0)
    if key not in edges:
        length = abs(hi - lo)
        direction = (hi - lo) / length
        ts, dphase, stuck = _phase_skeleton(fvec, lo, direction, length, n0)
        blocked = ~np.isnan(stuck)[:, None]

        def integrand(t):
            z = lo + direction * t
            ld = np.where(blocked, 0.0, ldvec(z))
            return (np.stack([ld, z * ld, z * z * ld]) * direction).reshape(-1, t.size)

        try:
            vals, errs = integrate_finite(integrand, 0.0, length, _EDGE_QUAD, breakpoints=ts[4:-1:4])
        except NearZeroError as exc:
            raise BoundaryProximityError(name, exc.gamma) from exc
        edges[key] = (dphase, vals.reshape(3, -1), errs[: stuck.size], lo + direction * stuck)
    dphase, moments, errs, stuck = edges[key]
    hit = stuck[rows][~np.isnan(stuck[rows])]
    if hit.size:
        raise BoundaryProximityError(name, complex(hit[0]))
    sign = 1.0 if za == lo else -1.0
    return sign * dphase[rows], sign * moments[:, rows], errs[rows]


def _contour_moments(fvec, ldvec, region, rows, edges, n0):
    """Telescoped windings of `rows`, their moments s_k = (1/2pi i) contour
    integral of zeta^k logderiv(zeta), k = 0, 1, 2, and the name of the edge
    with the worst quadrature error (suspect for any trouble upstream)."""
    sides = _edges(region)
    turns, moments, errs = zip(*(_edge(fvec, ldvec, *side, rows, edges, n0) for side in sides))
    worst_edge = sides[int(np.argmax([e.max() for e in errs]))][2]
    return sum(turns) / _TWO_PI, sum(moments) / (2.0j * math.pi), worst_edge


def _winding_and_moments(fvec, ldvec, region, rows, edges):
    """Integer windings of `rows` with their moments; refines edge sampling on doubt."""
    for n0 in (_EDGE_SAMPLES * 4**k for k in range(3)):
        w_tel, moments, worst_edge = _contour_moments(fvec, ldvec, region, rows, edges, n0)
        w_int = np.rint(w_tel).astype(int)
        if np.all((np.abs(w_tel - w_int) < 0.05) & (np.abs(moments[0] - w_int) <= 0.25)):
            return w_int, moments
    raise BoundaryProximityError(worst_edge, region.center)


def _dilated(region: ComplexRegion, exc: BoundaryProximityError) -> ComplexRegion:
    """Enlarge the region by _DILATION on the side named by the error
    (all four sides when the edge is unknown)."""
    grow = {"bottom": 0.0, "right": 0.0, "top": 0.0, "left": 0.0}
    if exc.edge in grow:
        grow[exc.edge] = _DILATION
    else:
        grow = dict.fromkeys(grow, _DILATION)
    return ComplexRegion(
        region.re_min - grow["left"],
        region.re_max + grow["right"],
        region.im_min - grow["bottom"],
        region.im_max + grow["top"],
    )


# ---------------------------------------------------------------------------
# Newton polish
# ---------------------------------------------------------------------------


def _check_root_tol(root_tol: float) -> None:
    if not 0.0 < root_tol < math.inf:
        raise DomainError(f"root_tol must be finite and > 0, got {root_tol!r}")


def newton_polish(logderiv: Callable, guess: complex, multiplicity: int = 1, root_tol: float = 1e-10) -> complex:
    """Refine a root estimate with gamma <- gamma - m / logderiv(gamma).

    A NearZeroError from the logderiv means the iterate has landed on the
    root (the residual is already below the near-zero floor) and stops the
    iteration.  Five consecutive step growths abort with PolishFailureError,
    and so does a 50th step still no smaller than root_tol.
    """
    _check_root_tol(root_tol)
    z = complex(guess)
    if not cmath.isfinite(z):
        raise DomainError(f"Newton guess must be finite, got {z!r}")
    prev_step = math.inf
    growth = 0
    for _ in range(_MAX_NEWTON_ITER):
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
        if s < root_tol:
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
    msg = f"Newton from {guess} did not converge in {_MAX_NEWTON_ITER} steps"
    raise PolishFailureError(f"{msg}: last iterate {z}, last step {s:.3e}")


# ---------------------------------------------------------------------------
# subdivision search
# ---------------------------------------------------------------------------


def _cut(fvec, ldvec, region: ComplexRegion, rows, edges):
    """Pick a split coordinate on the longest side, shifted off any zero of `rows`.

    Returns ('re'|'im', cut).  Deterministic: the offsets 0, +1, -1, ..., +7,
    -7 in units of min(_DILATION, span/16) are tried in turn, and the first
    whose shared segment `_edge` resolves is taken, so both children reuse it
    from `edges`; when none does, the last BoundaryProximityError propagates.
    """
    vertical = region.width >= region.height  # cut parallel to imag axis
    span = region.width if vertical else region.height
    base = region.center.real if vertical else region.center.imag
    unit = min(_DILATION, span / 16.0)
    for offset in [0.0] + [s * k * unit for k in range(1, 8) for s in (1, -1)]:
        cut = base + offset
        if vertical:  # the first child's right edge and the second's left
            seg = complex(cut, region.im_min), complex(cut, region.im_max), "right"
        else:  # the first child's top edge and the second's bottom
            seg = complex(region.re_max, cut), complex(region.re_min, cut), "top"
        try:
            _edge(fvec, ldvec, *seg, rows, edges)
            return ("re" if vertical else "im"), cut
        except BoundaryProximityError as exc:
            last = exc
    raise last


def _split(region: ComplexRegion, axis: str, cut: float):
    upper, lower = ("re_max", "re_min") if axis == "re" else ("im_max", "im_min")
    return dataclasses.replace(region, **{upper: cut}), dataclasses.replace(region, **{lower: cut})


def _snap(z: complex) -> complex:
    return complex(z.real, 0.0) if abs(z.imag) < _IM_SNAP else z


def _emit_root(fvec, ldvec, box, row, estimate, multiplicity, root_tol, out):
    """Record row's zero in `box` (of the given multiplicity) in out[row]: Newton's
    result from the moment estimate if it stays in the box, else the estimate
    itself, unpolished.  Disjoint boxes thus never record the same root twice."""
    try:
        root = newton_polish(lambda z: ldvec(z)[row], estimate, multiplicity, root_tol)
        polished = box.contains(root)
    except PolishFailureError:
        polished = False
    root = _snap(root if polished else complex(estimate))
    residual = float(abs(fvec(np.array([root]))[row, 0]))
    out.setdefault(row, []).append(RootRecord(root, multiplicity, residual, polished))


def _solve(fvec, ldvec, region: ComplexRegion, rows, root_tol: float, out: dict, edges):
    """The windings of `rows` (indices, or slice(None) for all of f's rows)
    in the box.  A row's zero goes to `out` where the box holds one, or a
    cluster (a multiple root); the rows with more split the box together."""
    try:
        w, moments = _winding_and_moments(fvec, ldvec, region, rows, edges)
    except BoundaryProximityError:
        if max(region.width, region.height) < _MIN_BOX:
            msg = f"winding undetermined in a box below the minimum size {_MIN_BOX:g} at {region.center}"
            raise UnresolvedClusterError(msg, box=region) from None
        raise
    if (w < 0).any():
        raise WindingError(f"negative winding {w.min()} in {region}: not holomorphic?")

    rows, split = (np.arange(w.size) if isinstance(rows, slice) else rows), []
    tiny = max(region.width, region.height) < _MIN_BOX
    for i, (row, wi) in enumerate(zip(rows.tolist(), w.tolist())):
        if wi == 0:
            continue
        centroid = moments[1, i] / wi
        if wi == 1 or tiny or math.sqrt(abs(moments[2, i] / wi - centroid * centroid)) < _CLUSTER_TOL:
            # one root, or wi roots indistinguishable at working precision: a multiple root
            _emit_root(fvec, ldvec, region, row, centroid, wi, root_tol, out)
        else:
            split.append(i)
    if not split:
        return w

    axis, cut = _cut(fvec, ldvec, region, rows[split], edges)
    child_a, child_b = _split(region, axis, cut)
    wa = _solve(fvec, ldvec, child_a, rows[split], root_tol, out, edges)
    wb = _solve(fvec, ldvec, child_b, rows[split], root_tol, out, edges)
    for row, wr, ra, rb in zip(rows[split], w[split], wa, wb):
        if ra + rb != wr:
            raise WindingError(f"winding additivity violated at {axis}-cut {cut:.6g}: {wr} != {ra} + {rb} (row {row})")
    return w


def _as_rows(fn, ranks):
    """fn as a map from points to rows (k, n); adds the rank of each output of fn to `ranks`."""

    def wrapped(z):
        z = np.asarray(z, dtype=complex)
        v = np.asarray(fn(z), dtype=complex)
        ranks.add(v.ndim)
        return v.reshape(-1, z.size)

    return wrapped


def _with_dilation(attempt: Callable, region: ComplexRegion):
    """attempt(region), retried up to 5 times: a zero detected on the boundary
    dilates the region by _DILATION on that side (deterministically)."""
    current, last_exc = region, None
    for _ in range(5):
        try:
            return attempt(current)
        except BoundaryProximityError as exc:
            last_exc = exc
            current = _dilated(current, exc)
    raise last_exc


def count_zeros(logderiv: Callable, region: ComplexRegion, *, f: Callable):
    """Number of zeros (with multiplicity) inside the region, an int or, for rows of f, a
    tuple of one per row: telescoped from f's phase, cross-checked against logderiv's
    quadrature; a zero on the boundary dilates the region by 1e-4 on that side."""
    ranks, edges = set(), {}
    fvec, ldvec = _as_rows(f, ranks), _as_rows(logderiv, ranks)
    w = _with_dilation(lambda reg: _winding_and_moments(fvec, ldvec, reg, slice(None), edges)[0], region)
    return tuple(w.tolist()) if 2 in ranks else int(w[0])


def locate_zeros(f: Callable, logderiv: Callable, region: ComplexRegion, root_tol: float = 1e-10):
    """All zeros of f inside the region, with multiplicities: a RootSet, or
    RootSets, one RootSet per row, for rows of f searched together.

    Each root is Newton-polished until a step falls below root_tol (finite
    and > 0, else DomainError).  Boundary zeros are absorbed by dilating the
    requested region by 1e-4 on the offending side, so locations within that
    jitter of the boundary may be reported.  Each row's roots are sorted by
    (Re, Im); im parts below 1e-10 snap to the real axis.
    """
    _check_root_tol(root_tol)
    ranks, edges = set(), {}  # edges: segment results shared by all boxes and dilation retries
    fvec, ldvec = _as_rows(f, ranks), _as_rows(logderiv, ranks)

    def attempt(current):
        out: dict = {}
        w = _solve(fvec, ldvec, current, slice(None), root_tol, out, edges)
        sets = RootSets(
            RootSet(tuple(sorted(out.get(row, ()), key=lambda r: (r.location.real, r.location.imag))), current, wr)
            for row, wr in enumerate(w.tolist())
        )
        for row, rs in enumerate(sets):
            if rs.total_multiplicity() != rs.winding:
                msg = f"root multiplicities sum to {rs.total_multiplicity()} but region winding is {rs.winding}"
                raise WindingError(f"{msg} (row {row})")
        return sets

    sets = _with_dilation(attempt, region)
    return sets if 2 in ranks else sets[0]
