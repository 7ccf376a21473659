"""Potential models for the one-dimensional zigzag process.

A potential is a confining function U with U(0) = 0 whose Gibbs density
exp(-U) is integrable.  Two builtin families are provided:

* ``gaussian`` with width sigma:  U(x) = x^2 / (2 sigma^2)
* ``beta_family`` with exponent beta > 1:  U(x) = ((1 + x^2)^(beta/2) - 1) / beta

Arbitrary unimodal potentials can be wrapped through ``custom`` by supplying
callables for U and its derivatives.  ``scale`` widens any of them.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialModel",
    "SwitchingRateSpec",
    "AssumptionReport",
    "gaussian",
    "beta_family",
    "custom",
    "parse_potential",
    "scale",
    "switching_rate",
    "check_assumptions",
]

_F64 = np.dtype(float)
_SCAN_HALF_WIDTH = 20.0  # check_assumptions scans U_1 on [-20, 20]
_SCAN_STEP = 0.01
_DELTA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)  # A1's candidate deltas


@dataclasses.dataclass(frozen=True)
class PotentialModel:
    """Immutable description of a potential.

    ``family`` is one of ``"gaussian"``, ``"beta"`` or ``"custom"``.  For the
    builtin families the callables are ignored and closed forms are used.
    The stored offset keeps the normalisation U(0) = 0 for custom inputs.
    Every family has a width: U(x) = U_1(x / sigma).  U, dU and d2U follow
    their input's dtype: complex input gets the analytic continuation of the
    closed forms (for beta the principal branch of (1 + z^2)^(beta/2),
    holomorphic off |Im z| >= 1); custom potentials raise DomainError.
    """

    family: str
    sigma: float = 1.0
    beta: float = 2.0
    u_fn: Optional[Callable] = None
    du_fn: Optional[Callable] = None
    d2u_fn: Optional[Callable] = None
    offset: float = 0.0
    label: str = ""

    # -- evaluation ---------------------------------------------------

    def _cast(self, x):
        """A non-float64 array as float64, or a complex one as it is."""
        if x.dtype.kind != "c":
            return x.astype(float)
        if self.family == "custom":
            raise DomainError(f"{self.descriptor()} has no analytic continuation")
        return x

    @cached_property  # the unit-width model U_1, built once
    def _unit(self) -> "PotentialModel":
        return dataclasses.replace(self, sigma=1.0)

    def U(self, x):
        x = np.asarray(x)
        if x.dtype is not _F64:  # the hot float64 path skips the call
            x = self._cast(x)
        if self.sigma != 1.0:  # U_1(x / sigma); unit widths skip this
            return self._unit.U(x / self.sigma)
        if self.family == "gaussian":
            return x * x / 2.0
        if self.family == "beta":  # expm1/log1p keep U(x) ~ x^2/2 exact near 0
            b = self.beta
            return np.expm1(b / 2.0 * np.log1p(x * x)) / b
        return np.asarray(self.u_fn(x), dtype=float) - self.offset

    def U_inverse(self, u, side=1):
        """The radius r >= 0 with U(side r) = u >= 0; scalars and arrays, side
        +1 or -1 or an array of them.  gaussian and beta are even and ignore
        side; a custom U is solved numerically on its unit model."""
        if self.family == "custom":
            return self.sigma * _solve_U(self._unit, u, side, self.descriptor())
        if self.sigma != 1.0:
            return self.sigma * self._unit.U_inverse(u)
        u = np.asarray(u, dtype=float)
        if self.family == "gaussian":
            return np.sqrt(2.0 * u)
        return np.sqrt(np.expm1(2.0 / self.beta * np.log1p(self.beta * u)))

    def dU(self, x):
        x = np.asarray(x)
        if x.dtype is not _F64:  # the hot float64 path skips the call
            x = self._cast(x)
        if self.sigma != 1.0:
            return self._unit.dU(x / self.sigma) / self.sigma
        if self.family == "gaussian":
            return x / 1.0  # a new array, like every other branch
        if self.family == "beta":
            return x * np.power(1.0 + x * x, self.beta / 2.0 - 1.0)
        return np.asarray(self.du_fn(x), dtype=float)

    @property
    def ray_sector(self) -> float:
        """Half-angle of the open sectors |arg(+-u)| < phi in which U continued
        to complex u is holomorphic and Re U(u) -> +inf as |u| -> inf.

        pi/4 for the Gaussian (Re u^2 = |u|^2 cos 2 arg u), pi/(2 beta) for
        beta (Re (1+u^2)^(beta/2) ~ |u|^beta cos(beta arg u); since beta > 1
        the sector also stays clear of the branch points +-i).  0 for custom
        potentials: the integrals of charfn then stay on the real axis.
        """
        if self.family == "gaussian":
            return math.pi / 4.0
        if self.family == "beta":
            return math.pi / (2.0 * self.beta)
        return 0.0

    def d2U(self, x):
        x = self._cast(np.asarray(x))
        if self.sigma != 1.0:
            return self._unit.d2U(x / self.sigma) / self.sigma**2
        if self.family == "gaussian":
            return np.full_like(x, 1.0)
        if self.family == "beta":
            b = self.beta
            return np.power(1.0 + x * x, b / 2.0 - 2.0) * (1.0 + (b - 1.0) * x * x)
        if self.d2u_fn is None:
            raise DomainError("custom potential has no second-derivative hook")
        return np.asarray(self.d2u_fn(x), dtype=float)

    # -- structure ----------------------------------------------------

    @property
    def has_curvature(self) -> bool:
        return self.family in ("gaussian", "beta") or self.d2u_fn is not None

    @property
    def is_symmetric(self) -> bool:
        if self.family in ("gaussian", "beta"):
            return True
        # probe a custom potential on a modest grid
        xs = np.linspace(0.25, 8.0, 32)
        return bool(np.allclose(self.U(xs), self.U(-xs), rtol=1e-12, atol=1e-12))

    def descriptor(self) -> str:
        if self.family == "gaussian":
            return f"gaussian:{self.sigma:g}"
        name = f"beta:{self.beta:g}" if self.family == "beta" else self.label or "custom"
        return name if self.sigma == 1.0 else f"{name}@scale={self.sigma:g}"

    def __repr__(self):  # keep reprs short in error messages
        return f"PotentialModel({self.descriptor()})"


@dataclasses.dataclass(frozen=True)
class SwitchingRateSpec:
    """Event-rate specification lambda(x, theta) = max(theta U'(x), 0) + lambda_refr.

    Refreshment is a competing clock: an Exp(lambda_refr) time races the
    canonical switch, and whichever rings first flips theta.
    """

    lambda_refr: float = 0.0

    def __post_init__(self):
        if not (self.lambda_refr >= 0.0) or not math.isfinite(self.lambda_refr):
            raise DomainError(f"lambda_refr must be nonnegative, got {self.lambda_refr!r}")


def _solve_U(model, u, side, name):
    """Radii r >= 0 with U(side r) = u (inf at u = inf) on a unit-width custom
    model.  U rises on each side (custom()'s contract), so doubling from
    min(sqrt(2u), 1) brackets r in [lo, hi]; Newton on U - u bisects wherever a
    step leaves it or shrinks less than half (rtsafe), to a step of 1e-13 r."""
    u, side = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(side, dtype=float))
    shape, u, side = u.shape, u.ravel(), side.ravel()
    if not np.all(u >= 0.0):
        raise DomainError(f"{name} inverts U only at u >= 0, got u = {u[~(u >= 0.0)][0]:.6g}")
    k = np.flatnonzero(u < math.inf)
    lo, hi = np.zeros_like(u), np.where(u < math.inf, np.minimum(np.sqrt(2.0 * u), 1.0), math.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # U may overflow far out
        while (k := k[~(model.U(side[k] * hi[k]) >= u[k])]).size:
            if (i := k[hi[k] == math.inf]).size:
                raise DomainError(f"{name}: U stays below u = {u[i[0]]:.6g} on side {side[i[0]]:+.0f} (bounded U)")
            lo[k], hi[k] = hi[k], 2.0 * hi[k]
        r, step, k = hi.copy(), hi - lo, np.flatnonzero(u < math.inf)
        for _ in range(200):
            x = side[k] * r[k]
            f, df = model.U(x) - u[k], side[k] * model.dU(x)
            if np.any(bad := df < 0.0):
                raise DomainError(f"{name}: U' has the wrong sign at x = {x[bad][0]:.6g} "
                                  f"(inverting U = {u[k][bad][0]:.6g})")
            lo[k], hi[k] = np.where(f < 0.0, r[k], lo[k]), np.where(f > 0.0, r[k], hi[k])
            nxt = r[k] - f / df
            newton = (np.abs(2.0 * (nxt - r[k])) <= np.abs(step[k])) & (lo[k] <= nxt) & (nxt <= hi[k])
            nxt = np.where(newton, nxt, 0.5 * (lo[k] + hi[k]))
            step[k], r[k] = nxt - r[k], nxt
            if not (k := k[~(np.abs(step[k]) <= 1e-13 * nxt)]).size:
                break
    return r.reshape(shape)[()]


def gaussian(sigma: float = 1.0) -> PotentialModel:
    """U(x) = x^2 / (2 sigma^2); invariant marginal N(0, sigma^2)."""
    return scale(PotentialModel(family="gaussian"), sigma)


def beta_family(beta: float) -> PotentialModel:
    """U(x) = ((1+x^2)^(beta/2) - 1) / beta, defined for beta > 1.

    beta = 2 recovers the standard Gaussian potential x^2/2.
    """
    if not (beta > 1.0) or not math.isfinite(beta):
        raise DomainError(f"beta must exceed 1, got {beta!r}")
    return PotentialModel(family="beta", beta=float(beta))


def custom(u_fn, du_fn, d2u_fn=None, label: str = "custom") -> PotentialModel:
    """Wrap user callables; U is shifted so that U(0) = 0.

    Contract (the paper's A3): U falls left of 0, rises right of it and is
    unbounded on both sides.  ``U_inverse``, which the sampler uses, relies on
    it and raises DomainError where it meets U' of the wrong sign or a bounded
    side; only the sign of U' near 0 is checked here.  The second-derivative
    hook is optional; without it the curvature-based assumption checks are
    skipped and reported as not-checked.
    """
    offset = float(np.asarray(u_fn(0.0), dtype=float))
    model = PotentialModel(
        family="custom",
        u_fn=u_fn,
        du_fn=du_fn,
        d2u_fn=d2u_fn,
        offset=offset,
        label=label,
    )
    # sanity: derivative sign pattern of a unimodal well with minimum at 0
    if model.dU(1e-3) < -1e-9 or model.dU(-1e-3) > 1e-9:
        raise DomainError("custom potential must be decreasing left of 0 and increasing right of 0")
    return model


def parse_potential(text: str) -> PotentialModel:
    """Parse descriptors of the form ``gaussian:<sigma>`` / ``beta:<beta>``.

    Bare ``gaussian`` means sigma = 1.
    """
    parts = text.strip().split(":")
    name = parts[0].strip().lower()
    if len(parts) > 2:
        raise DomainError(f"potential descriptor {text!r} has more than one ':' field")
    try:
        if name == "gaussian":
            sigma = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
            return gaussian(sigma)
        if name == "beta":
            if len(parts) < 2 or not parts[1]:
                raise DomainError("beta family requires an exponent, e.g. beta:2.5")
            return beta_family(float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"could not parse potential descriptor {text!r}: {exc}") from exc
    raise DomainError(f"unknown potential family {name!r} in {text!r}")


def scale(model: PotentialModel, sigma: float) -> PotentialModel:
    """Widen a potential: U_s(x) = U(x / sigma), in the same family.

    The widths multiply: scale(gaussian(s), c) is gaussian(s*c), and a
    widened beta keeps its closed form, continuation and ray sector.  Its
    descriptor, ``beta:2.5@scale=2``, does not parse back.
    """
    width = model.sigma * float(sigma)
    if not (sigma > 0.0 and 0.0 < width < math.inf):
        raise DomainError(f"sigma must be positive and give a finite width, got {sigma!r}")
    return dataclasses.replace(model, sigma=width)


def switching_rate(model: PotentialModel, spec: SwitchingRateSpec, x, theta):
    """lambda(x, theta) for the canonical rates; vectorized over x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("switching rate evaluated at non-finite x")
    return np.maximum(theta * model.dU(x), 0.0) + spec.lambda_refr


# ---------------------------------------------------------------------------
# grid based assumption checking (advisory; never gates computations)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class AssumptionReport:
    """Grid verdicts for the standing assumptions A1..A7.

    Every entry is one of 'verified-on-grid', 'violated-at x=<value>' or
    'not-checked'.  A4 (zero refreshment) and A5 (the growth bound) are never
    grid-checked: A4 is a property of the dynamics rather than of U, and A5
    quantifies over pairs of points, which a pointwise scan cannot certify.
    """

    statuses: dict

    def __getitem__(self, key):
        return self.statuses[key]


def _tail_trend_violation(xs, vals, floor):
    """Detect vals sinking below `floor` in trend toward either grid edge.

    Returns a witness x or None.  The trend test guards against families whose
    U'' stays positive on every finite grid but decays to 0 at infinity.
    """
    n = len(xs)
    k = max(4, n // 8)
    for sl in (slice(0, k), slice(n - k, n)):
        seg = vals[sl]
        below = np.where(seg < floor)[0]
        if below.size:
            return xs[sl][below[0]]
        edge_first = sl.start == 0
        ordered = seg[::-1] if edge_first else seg
        # strictly decreasing toward the edge and already near the floor:
        # extrapolates below any positive constant
        if np.all(np.diff(ordered) < 0.0) and ordered[-1] < 2.0 * floor:
            return xs[sl][0] if edge_first else xs[sl][-1]
    return None


def check_assumptions(model: PotentialModel) -> AssumptionReport:
    """Scan U, U', U'' of the unit model U_1 on [-20, 20] (step 0.01) and report on A1..A7.

    A1-A7 are invariant under x -> x / sigma, so a model of width sigma is
    judged on U_1 and reported in its own terms: witnesses x times sigma, the
    bounds M and m over sigma^2.
    A1 searches delta in 0.1, 0.2, ..., 0.9 for the curvature bound
    U'' <= delta U'^2 + M and reports the smallest feasible M; integrability
    of exp(-U) is certified by a crude tail-growth comparison.  A6 demands a
    uniform positive floor for U'' away from a compact set together with a
    non-decaying tail trend.
    """
    s, unit = model.sigma, model._unit
    half = np.arange(0.0, _SCAN_HALF_WIDTH + _SCAN_STEP / 2.0, _SCAN_STEP)
    xs = np.concatenate([-half[:0:-1], half])  # exactly mirror-symmetric
    u = unit.U(xs)
    du = unit.dU(xs)
    statuses = {}

    d2u = None
    if unit.has_curvature:
        d2u = unit.d2U(xs)

    # A1: smoothness comes with the callables; check the curvature bound
    # U'' <= delta |U'|^2 + M and that exp(-U) has summable tails.
    if d2u is None:
        statuses["A1"] = "not-checked"
    else:
        bad = ~np.isfinite(u) | ~np.isfinite(du) | ~np.isfinite(d2u)
        if bad.any():
            statuses["A1"] = f"violated-at x={s * xs[bad][0]:.6g}"
        else:
            best = None
            for delta in _DELTA_GRID:
                m_needed = float(np.max(d2u - delta * du * du))
                if math.isfinite(m_needed) and (best is None or m_needed < best[1]):
                    best = (delta, m_needed)
            mid = u[len(u) // 2]
            tail_ok = min(u[0], u[-1]) > mid + 2.0 * math.log(_SCAN_HALF_WIDTH + 1.0)
            if best is not None and tail_ok:
                statuses["A1"] = f"verified-on-grid (delta={best[0]:g}, M={best[1] / s**2:.6g})"
            elif best is None:
                statuses["A1"] = "violated-at curvature-bound"
            else:
                statuses["A1"] = f"violated-at x={s * xs[-1]:.6g} (tail growth too slow)"

    # A2: |U'| -> infinity; on a grid, |U'| must keep growing toward both
    # edges and be comfortably above 1 there.
    edge = max(8, len(xs) // 16)
    left = np.abs(du[:edge])
    right = np.abs(du[-edge:])
    grows = bool(np.all(np.diff(left) < 0.0) and np.all(np.diff(right) > 0.0))
    if grows and min(left[0], right[-1]) > 1.0:
        statuses["A2"] = "verified-on-grid"
    else:
        bad_right = right[-1] <= 1.0 or not np.all(np.diff(right) > 0.0)
        statuses["A2"] = f"violated-at x={s * (xs[-1] if bad_right else xs[0]):.6g}"

    # A3: U(0) = 0, U' <= 0 left of 0, U' >= 0 right of 0.
    i0 = int(np.argmin(np.abs(xs)))
    sign_ok = bool(np.all(du[xs <= 0.0] <= 1e-12)) and bool(np.all(du[xs >= 0.0] >= -1e-12))
    if abs(u[i0]) < 1e-10 and sign_ok:
        statuses["A3"] = "verified-on-grid"
    else:
        wrong = np.where(((xs < 0) & (du > 1e-12)) | ((xs > 0) & (du < -1e-12)))[0]
        w = xs[wrong[0]] if wrong.size else xs[i0]
        statuses["A3"] = f"violated-at x={s * w:.6g}"

    statuses["A4"] = "not-checked"
    statuses["A5"] = "not-checked"

    # A6: U'' >= m > 0 outside a compact set; take the floor supported by the
    # outer half of the grid and reject tails trending to zero.
    if d2u is None:
        statuses["A6"] = "not-checked"
    else:
        outer = np.abs(xs) >= _SCAN_HALF_WIDTH / 4.0
        m_outer = float(np.min(d2u[outer]))
        witness = _tail_trend_violation(xs, d2u, max(m_outer, 1e-12))
        if m_outer > 1e-12 and witness is None:
            statuses["A6"] = f"verified-on-grid (m={m_outer / s**2:.6g})"
        else:
            if witness is None:
                witness = xs[outer][int(np.argmin(d2u[outer]))]
            statuses["A6"] = f"violated-at x={s * witness:.6g}"

    # A7: evenness of U on the (symmetric) grid.
    asym = np.abs(u - u[::-1])
    if np.max(asym) < 1e-10:
        statuses["A7"] = "verified-on-grid"
    else:
        statuses["A7"] = f"violated-at x={s * xs[int(np.argmax(asym))]:.6g}"

    return AssumptionReport(statuses)
