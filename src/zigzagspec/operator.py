"""Eigenfunctions, resolvent application, projections, and L2(mu) pairings.

All tail integrals appear in folded form: the growth factor e^{gamma x + U(x)}
multiplying an integral from x outward is absorbed into the integrand before
exponentiation, giving

    e^{gamma x + U(x)} int_x^inf U'(xi) e^{-2 gamma xi - U(xi)} dxi
        = e^{-gamma x} (1 - 2 gamma J^+(gamma, x)) =: e^{-gamma x} pt^+(gamma; x)

with J^+(gamma, x) = int_0^inf e^{-2 gamma u - (U(x+u) - U(x))} du, and the
mirror image pt^- on the left half line.  The Gaussian takes J from erfcx;
any other U gets pt at all requested x from one GK15 sweep of the left-hand
integrand, summed cell by cell from the outer end.  Nothing here evaluates
e^{U(x)} against a big x on its own, which is what makes |x| ~ 12 grids
usable for the Gaussian where e^{U} alone would reach 1e31.

The resolvent uses the same w: on the outward half lines f is written as
a plain decaying integral of (h + U' f_other) instead of the cancellation-
prone constant-minus-cumulative form.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple, Union

import numpy as np

from .charfn import CharFunctionHandle, _z_and_dz
from .errors import (
    DomainError,
    IntegrationError,
    NonSimpleEigenvalueError,
    NotAnEigenvalueError,
    ResolventAtEigenvalueError,
)
from .potential import PotentialModel, SwitchingRateSpec, switching_rate
from .quadrature import (
    DEFAULT_CONFIG,
    DecayProfile,
    QuadratureConfig,
    _panels,
    _tolerance,
    gk_cells,
    integrate_finite,
    truncation_radius,
)
from .specialfn import erfcx_complex

__all__ = [
    "GridFunction",
    "PiecewiseEigenfunction",
    "grid_radius",
    "default_grid",
    "psi_tilde",
    "eigenfunction",
    "eigenfunction_table",
    "inner_product_mu",
    "inner_product_nu",
    "k_coefficients",
    "apply_resolvent",
    "resolvent_defect",
    "spectral_projection",
    "z_prime_consistency",
    "apply_generator",
]

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_LOG_GRID_TARGET = 14.0 * math.log(10.0)  # e^{-U(R)} < 1e-14
SIMPLICITY_TOL = 1e-8  # |Z'(gamma)| at or below this: not a simple root
_CELL_PHASE = 2.0  # |2 gamma + U'| times a pt cell's width: GK15 at roundoff
_MAX_RANGE = 600.0  # growth factors e^{..} one pt sweep spans without underflow


# ----------------------------------------------------------------- phi helpers

def _phi12(z):
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z (z - 1) + 1)/z^2.

    These are the moments int_0^1 e^{zt} dt and int_0^1 t e^{zt} dt; the
    closed forms cancel catastrophically near 0, so |z| < 0.25 switches to
    16-term series (next term below 1e-23 there).
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.25
    zb = np.where(small, 1.0, z)
    ez = np.exp(zb)
    p1 = (ez - 1.0) / zb
    p2 = (ez * (zb - 1.0) + 1.0) / (zb * zb)
    if np.any(small):
        zs = z[small]
        s1 = np.zeros_like(zs)
        s2 = np.zeros_like(zs)
        term = np.ones_like(zs)
        kfac = 1.0
        for k in range(16):
            s1 = s1 + term / (kfac * (k + 1))
            s2 = s2 + term / (kfac * (k + 2))
            term = term * zs
            kfac *= k + 1
        p1 = np.asarray(p1)
        p2 = np.asarray(p2)
        p1[small] = s1
        p2[small] = s2
    return p1, p2


class _ExpCumulative:
    """C(x) = int_{xs[0]}^x e^{gamma s} v(s) ds for piecewise-linear v.

    Per-cell moments are closed-form (phi1/phi2), so the node cumulatives and
    any interior point are exact up to roundoff; v is taken as 0 outside the
    node range, so the cumulative clamps at the ends.
    """

    def __init__(self, gamma: complex, xs, vals):
        self.gamma = complex(gamma)
        self.xs = np.asarray(xs, dtype=float)
        self.vals = np.asarray(vals, dtype=complex)
        tau = np.diff(self.xs)
        v0 = self.vals[:-1]
        slope = np.diff(self.vals) / tau
        p1, p2 = _phi12(self.gamma * tau)
        segs = np.exp(self.gamma * self.xs[:-1]) * (v0 * tau * p1 + slope * tau * tau * p2)
        self.node_cum = np.concatenate([[0.0 + 0.0j], np.cumsum(segs)])

    @property
    def total(self) -> complex:
        return complex(self.node_cum[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xc = np.clip(np.atleast_1d(x), self.xs[0], self.xs[-1])
        i = np.clip(np.searchsorted(self.xs, xc, side="right") - 1, 0, len(self.xs) - 2)
        tau = xc - self.xs[i]
        slope = (self.vals[i + 1] - self.vals[i]) / (self.xs[i + 1] - self.xs[i])
        p1, p2 = _phi12(self.gamma * tau)
        part = np.exp(self.gamma * self.xs[i]) * (
            self.vals[i] * tau * p1 + slope * tau * tau * p2
        )
        out = self.node_cum[i] + part
        return complex(out[0]) if scalar else out


# -------------------------------------------------------------------- psi tilde

def _w(potential: PotentialModel, gamma: complex, side: int, xi, shift: float = 0.0):
    """w = side U'(xi) e^{shift - 2 side gamma xi - U(xi)}, the folded tail integrand:
    its integral from x outward is e^{-2 side gamma x - U(x)} pt^side(gamma; x)."""
    return side * potential.dU(xi) * np.exp(-2.0 * side * gamma * xi - (potential.U(xi) - shift))


def psi_tilde(
    potential: PotentialModel,
    gamma: complex,
    x,
    side: int = +1,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """pt^side(gamma; x) = 1 - 2 gamma J^side(gamma, x); pt(gamma; 0) = psi^side.

    side +1 expects x >= 0 and probes U to the right of x, side -1 expects
    x <= 0 and probes left.  Gaussian potentials go through erfcx.  Any other
    gets one GK15 sweep of _w over a lattice of all requested x, run on by
    the truncation radius DecayProfile certifies at the innermost x, with
    gaps cut into cells of width _CELL_PHASE / (2 |gamma| + |U'|); pt(x) is
    e^{L(x)}, L(x) = 2 side gamma x + U(x), times the sum of the cells
    outward of x.  Their |K - G| and roundoff floors, summed alike, and the
    tail bound must pass _adaptive's acceptance rule at every x,
    or IntegrationError names gamma and x.  Points whose Re L exceeds the
    innermost one's by _MAX_RANGE get a sweep of their own: no cell underflows.
    """
    gamma = complex(gamma)
    xs = np.asarray(x, dtype=float)
    if side not in (1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    if not (np.isfinite(gamma) and np.all(np.isfinite(xs))):
        raise DomainError(f"pt needs a finite gamma and finite x, got gamma={gamma!r}")
    if potential.sigma != 1.0:  # pt_sigma(gamma; x) = pt_1(sigma gamma; x / sigma)
        return psi_tilde(potential._unit, potential.sigma * gamma, xs / potential.sigma, side, cfg)
    if potential.family == "gaussian":  # J = sqrt(pi/2) erfcx((side x + 2 gamma)/sqrt2)
        arg = (side * xs + 2.0 * gamma) / math.sqrt(2.0)
        return 1.0 - 2.0 * gamma * (_SQRT_HALF_PI * erfcx_complex(arg))
    if xs.size == 0:
        return np.zeros(xs.shape, dtype=complex)
    dist, back = np.unique(side * xs.ravel(), return_inverse=True)  # ascending outward
    log_grow = 2.0 * gamma * dist + potential.U(side * dist)  # L(side dist)
    far = log_grow.real - log_grow[0].real > _MAX_RANGE
    out = np.empty(dist.size, dtype=complex)
    if far.any():
        out[far] = psi_tilde(potential, gamma, side * dist[far], side, cfg)
    near, log_grow = dist[~far], log_grow[~far]
    alpha = max(0.0, -2.0 * gamma.real)
    r, tail = truncation_radius(DecayProfile(potential, alpha, side, side * near[0]), cfg)
    pts = np.append(near, near[-1] + r)
    gap = np.diff(pts)
    rate = 2.0 * abs(gamma) + np.abs(potential.dU(side * pts))
    n = np.maximum(1, np.ceil(gap * np.maximum(rate[:-1], rate[1:]) / _CELL_PHASE)).astype(int)
    first = np.cumsum(n) - n  # lattice index of each requested point
    cell = np.repeat(np.arange(gap.size), n)
    step = (np.arange(cell.size) - first[cell]) / n[cell]
    edges = np.append(pts[cell] + gap[cell] * step, pts[-1])
    shift = float(log_grow[0].real)
    # gk_cells' engine, which also hands back each cell's roundoff floor
    cells, errs, floors, _ = _panels(
        lambda t: _w(potential, gamma, side, side * t, shift), edges[:-1], edges[1:]
    )

    def outward(c):
        return np.cumsum(c[::-1, 0])[::-1][first]

    grow = np.exp(log_grow - shift)
    val = grow * outward(cells)
    # the cut drops e^{L(x) - L(x + r)} pt(x + r), pt = 1 - 2 gamma J, and the
    # DecayProfile's tail bounds both that envelope and J's tail
    err = np.abs(grow) * outward(errs) + (1.0 + 2.0 * abs(gamma)) * tail
    tol = _tolerance(val, np.abs(grow) * outward(floors), cfg)
    i = int(np.argmax(err / tol))
    if err[i] > tol[i]:
        x_i = float(side * near[i])
        msg = f"pt^{side:+d} at gamma={gamma}, x={x_i:.6g} misses its tolerance"
        raise IntegrationError(f"{msg}: error {err[i]:.2e} > {tol[i]:.2e}", location=x_i)
    out[~far] = val
    out = out[back]
    return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ----------------------------------------------------------------- grid plumbing

def grid_radius(potential: PotentialModel) -> float:
    """Smallest 1/256-lattice radius with e^{-U(R)} < 1e-14."""
    r = 1.0
    while potential.U(r) <= _LOG_GRID_TARGET:
        r *= 1.25
        if r > 1e6:
            raise DomainError("potential too flat: no grid radius below 1e6")
    lo, hi = r / 1.25, r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if potential.U(mid) <= _LOG_GRID_TARGET:
            lo = mid
        else:
            hi = mid
    return math.ceil(hi * 256.0) / 256.0


def default_grid(potential: PotentialModel) -> np.ndarray:
    """Symmetric 4097-point grid, step R/2048, exact 0 at the center."""
    r = grid_radius(potential)
    half = np.linspace(0.0, r, 2049)
    return np.concatenate([-half[:0:-1], half])


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """Samples of a function on E = R x {-1, +1}; PL interpolation off-grid.

    The grid must be symmetric about 0 (mirrored nodes negate exactly);
    values are taken as 0 outside the node range, so a GridFunction is a
    compactly supported element of L2(mu).
    """

    xs: np.ndarray
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "plus", np.asarray(self.plus, dtype=complex))
        object.__setattr__(self, "minus", np.asarray(self.minus, dtype=complex))
        if xs.ndim != 1 or xs.size < 3:
            raise DomainError("GridFunction needs a 1-d grid of at least 3 nodes")
        if not all(np.all(np.isfinite(a)) for a in (xs, self.plus, self.minus)):
            raise DomainError("GridFunction nodes and values must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("GridFunction grid must be strictly increasing")
        if np.max(np.abs(xs + xs[::-1])) > 1e-12 * (1.0 + abs(xs[-1])):
            raise DomainError("GridFunction grid must be symmetric about 0")
        if self.plus.shape != xs.shape or self.minus.shape != xs.shape:
            raise DomainError("GridFunction value arrays must match the grid")

    @classmethod
    def from_callable(cls, potential: PotentialModel, fn: Callable) -> "GridFunction":
        xs = default_grid(potential)
        return cls(xs, fn(xs, +1), fn(xs, -1))

    @property
    def radius(self) -> float:
        return float(self.xs[-1])

    @property
    def step(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def component(self, x, theta: int):
        vals = self.plus if theta > 0 else self.minus
        return np.interp(np.asarray(x, dtype=float), self.xs, vals, left=0.0, right=0.0)

    def __call__(self, x, theta: int = +1):
        return self.component(x, theta)


# --------------------------------------------------------------- eigenfunctions

@dataclasses.dataclass(frozen=True)
class PiecewiseEigenfunction:
    """Eigenfunction at gamma in the half-line-wise closed form.

    full variant on E:
        f(x, +1) = psi+ e^{gamma x}           (x <= 0)
                 = e^{-gamma x} pt^+(gamma;x) (x >= 0)
        f(x, -1) = e^{-gamma x}               (x >= 0)
                 = psi+ e^{gamma x} pt^-(gamma;x) (x <= 0)
    plus/minus variants on R (even U):
        f(x) = e^{gamma x} (x <= 0),  +/- e^{-gamma x} pt^+(gamma;x) (x >= 0).

    It carries the psi values at gamma and z_prime, the derivative of its
    branch's Z there, so the pairings built on f need no second psi pass.
    """

    gamma: complex
    potential: PotentialModel
    variant: str
    psi_plus: complex
    psi_minus: complex
    z_prime: complex
    cfg: QuadratureConfig = DEFAULT_CONFIG

    def component(self, x, theta: int = +1):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        g = self.gamma

        def pt(mask, side):
            return psi_tilde(self.potential, g, x[mask], side, self.cfg)

        out = np.empty(x.shape, dtype=complex)
        left = x <= 0.0
        right = ~left
        if self.variant == "full":
            if theta > 0:
                out[left] = self.psi_plus * np.exp(g * x[left])
                out[right] = np.exp(-g * x[right]) * pt(right, +1)
            else:
                ge = x >= 0.0
                out[ge] = np.exp(-g * x[ge])
                lt = ~ge
                out[lt] = self.psi_plus * np.exp(g * x[lt]) * pt(lt, -1)
        else:
            sign = 1.0 if self.variant == "plus" else -1.0
            out[left] = np.exp(g * x[left])
            out[right] = sign * np.exp(-g * x[right]) * pt(right, +1)
        return complex(out[0]) if scalar else out

    def __call__(self, x, theta: int = +1):
        return self.component(x, theta)

    def continuity_defect(self) -> float:
        """Max over components of |left limit - right limit| at x = 0.

        The two limits come from independent formulas (cached psi+ versus a
        fresh tail integral), so this doubles as an eigenvalue certificate.
        """

        def pt0(side):
            return complex(psi_tilde(self.potential, self.gamma, np.zeros(1), side, self.cfg)[0])

        if self.variant == "full":
            return max(abs(self.psi_plus - pt0(+1)), abs(self.psi_plus * pt0(-1) - 1.0))
        sign = 1.0 if self.variant == "plus" else -1.0
        return abs(1.0 - sign * pt0(+1))

    def l2_mass(self, radius: float) -> float:
        """int_{|x| <= radius} sum_theta |f|^2 e^{-U} dx (both thetas for full)."""

        def rows(x):
            w = np.exp(-self.potential.U(x))
            if self.variant == "full":
                return np.stack(
                    [
                        np.abs(self.component(x, +1)) ** 2 * w,
                        np.abs(self.component(x, -1)) ** 2 * w,
                    ]
                )
            return np.abs(self.component(x)) ** 2 * w

        val, _ = integrate_finite(
            rows,
            -radius,
            radius,
            self.cfg,
            oscillation=2.0 * abs(self.gamma.imag),
            breakpoints=(0.0,),
        )
        return float(np.sum(np.real(np.atleast_1d(val))))


def _check_gamma_tol(gamma, tol: float) -> complex:
    """gamma as a complex; DomainError unless gamma is finite and tol finite and > 0."""
    gamma = complex(gamma)
    if not np.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma!r}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    return gamma


def eigenfunction(
    potential: PotentialModel,
    gamma: complex,
    variant: str = "full",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: float = 1e-8,
) -> PiecewiseEigenfunction:
    """Closed-form eigenfunction at gamma; raises unless |Z_branch(gamma)| <= tol."""
    if variant not in ("full", "plus", "minus"):
        raise DomainError(f"unknown eigenfunction variant {variant!r}")
    gamma = _check_gamma_tol(gamma, tol)
    values = CharFunctionHandle(potential, variant, cfg).values_batch(gamma)
    z, dz = (complex(v[0]) for v in _z_and_dz(variant, *values))
    if abs(z) > tol:
        raise NotAnEigenvalueError(gamma, abs(z), tol)
    pp, _, pm, _ = (complex(v[0]) for v in values)
    return PiecewiseEigenfunction(
        gamma=gamma,
        potential=potential,
        variant=variant,
        psi_plus=pp,
        psi_minus=pm,
        z_prime=dz,
        cfg=cfg,
    )


def eigenfunction_table(
    potential: PotentialModel,
    gamma: complex,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: float = 1e-8,
) -> np.ndarray:
    """Columns [x, Re f+, Im f+, Re f-, Im f-] for CSV export."""
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("eigenfunction_table needs finite x")
    f = eigenfunction(potential, gamma, "full", cfg, tol)
    fp = f.component(xs, +1)
    fm = f.component(xs, -1)
    return np.column_stack([xs, fp.real, fp.imag, fm.real, fm.imag])


# ---------------------------------------------------------------- inner products

def _truncated_pairing(rows, potential, cfg, growth, oscillation, breakpoints):
    """(sum of the row integrals, error) over [-rl, rr], the radii at which
    e^{growth |x| - U} is certified negligible; the tails join the error."""
    rr, tr = truncation_radius(DecayProfile(potential, alpha=growth, direction=+1), cfg)
    rl, tl = truncation_radius(DecayProfile(potential, alpha=growth, direction=-1), cfg)
    val, err = integrate_finite(
        rows, -rl, rr, cfg, oscillation=oscillation, breakpoints=breakpoints
    )
    return complex(np.sum(val)), float(np.sum(err) + tr + tl)


def inner_product_mu(
    f: Callable,
    g: Callable,
    potential: PotentialModel,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    growth: float = 0.0,
    oscillation: float = 0.0,
    breakpoints=(0.0,),
) -> Tuple[complex, float]:
    """<f, g> = sum_theta int f(x,theta) conj(g(x,theta)) e^{-U} dx.

    growth bounds |f g| by e^{growth |x|} for the truncation certificate
    (eigenfunction callers pass |Re gamma_1| + |Re gamma_2|).
    """

    def rows(x):
        w = np.exp(-potential.U(x))
        return np.stack(
            [
                f(x, +1) * np.conj(g(x, +1)) * w,
                f(x, -1) * np.conj(g(x, -1)) * w,
            ]
        )

    return _truncated_pairing(rows, potential, cfg, growth, oscillation, breakpoints)


def inner_product_nu(
    f: Callable,
    g: Callable,
    potential: PotentialModel,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    growth: float = 0.0,
    oscillation: float = 0.0,
    breakpoints=(0.0,),
) -> Tuple[complex, float]:
    """<f, g>_nu = int f(x) conj(g(x)) e^{-U} dx on R (symmetric-variant pairing)."""

    def rows(x):
        return f(x) * np.conj(g(x)) * np.exp(-potential.U(x))

    return _truncated_pairing(rows, potential, cfg, growth, oscillation, breakpoints)


# -------------------------------------------------------------------- resolvent

def _outward_cells(potential, gamma, h, side, edges, inner, cfg):
    """One 2-row GK15 sweep over the cells of an outward half line.

    side +1 is x >= 0 (inner = C^-), side -1 is x <= 0 (inner = D^+).  The
    rows are pt's integrand w (see _w) and the k-integrand
    a = e^{-side gamma xi - U} h^side + w inner; f^side there is
    e^{side gamma x + U} times the outward sum of the cells of a + k w.
    Returns (a cells, w cells, fac) with fac = e^{-2 gamma R - U(side R)}
    pt^side(gamma; side R), the tail of w beyond side R.
    """

    def rows(xi):
        w = _w(potential, gamma, side, xi)
        a = np.exp(-side * gamma * xi - potential.U(xi)) * h.component(xi, side) + w * inner(xi)
        return np.stack([a, w])

    (a, w), _ = gk_cells(rows, edges)
    big_r = h.radius
    fac = np.exp(-2.0 * gamma * big_r - float(potential.U(side * big_r))) * complex(
        psi_tilde(potential, gamma, side * big_r, side, cfg)
    )
    return a, w, fac


def apply_resolvent(
    potential: PotentialModel,
    gamma: complex,
    h: GridFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: float = 1e-8,
) -> GridFunction:
    """f = (gamma - L)^{-1} h on h's grid.

    Inward half lines use the constant-plus-cumulative displays; outward half
    lines use the equivalent decaying integrals (see module docstring), summed
    cell by cell with one GK15 panel per grid cell plus the analytic tail.
    One sweep per outward half line gives both k1, k2 (hence k+, k-) and f.
    """
    gamma = _check_gamma_tol(gamma, tol)
    values = CharFunctionHandle(potential, "full", cfg).values_batch(gamma)
    z = complex(_z_and_dz("full", *values)[0][0])
    pp, _, pm, _ = (complex(v[0]) for v in values)
    if abs(z) <= tol:
        raise ResolventAtEigenvalueError(gamma, abs(z), tol)

    xs = h.xs
    mid = int(np.argmin(np.abs(xs)))
    if xs[mid] != 0.0:
        raise DomainError("resolvent grid must contain x = 0 exactly")
    xpos = xs[mid:]
    xneg = xs[: mid + 1]

    # C^-(xi) = int_0^xi e^{gamma eta} h^-(eta) d eta            (xi >= 0)
    cum_minus = _ExpCumulative(gamma, xpos, h.minus[mid:])
    # E(xi) = int_{-R}^xi e^{-gamma eta} h^+(eta) d eta, D^+(xi) = E(0) - E(xi)
    cum_plus = _ExpCumulative(-gamma, xneg, h.plus[: mid + 1])
    e0 = cum_plus.total
    c_minus = cum_minus.node_cum  # C^- at xpos
    d_plus = e0 - cum_plus.node_cum  # D^+ at xneg

    a_pos, w_pos, fac_pos = _outward_cells(potential, gamma, h, +1, xpos, cum_minus, cfg)
    a_neg, w_neg, fac_neg = _outward_cells(
        potential, gamma, h, -1, xneg, lambda xi: e0 - cum_plus(xi), cfg
    )
    k1 = complex(np.sum(a_pos) + c_minus[-1] * fac_pos)
    k2 = complex(np.sum(a_neg) + d_plus[0] * fac_neg)
    kp = (k1 + pp * k2) / z
    km = (pm * k1 + k2) / z

    # f+ on x > 0: suffix sums of the cells of e^{-g xi - U}(h+ + U' f-)
    suffix = np.concatenate([np.cumsum((a_pos + km * w_pos)[::-1])[::-1], [0.0 + 0.0j]])
    tail_plus = (c_minus[-1] + km) * fac_pos
    f_plus_pos = np.exp(gamma * xpos + potential.U(xpos)) * (suffix + tail_plus)
    # f- on x < 0: prefix sums of the cells of e^{g xi - U}(h- - U' f+)
    prefix = np.concatenate([[0.0 + 0.0j], np.cumsum(a_neg + kp * w_neg)])
    tail_minus = (d_plus[0] + kp) * fac_neg
    f_minus_neg = np.exp(-gamma * xneg + potential.U(xneg)) * (prefix + tail_minus)

    # the x = 0 node comes from the inward formulas: f+(0) = k+, f-(0) = k-
    # exactly, since D^+(0) = C^-(0) = 0
    plus = np.concatenate([np.exp(gamma * xneg) * (kp + d_plus), f_plus_pos[1:]])
    minus = np.concatenate([f_minus_neg[:-1], np.exp(-gamma * xpos) * (km + c_minus)])
    return GridFunction(h.xs, plus, minus)


def k_coefficients(
    potential: PotentialModel,
    gamma: complex,
    h: GridFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: float = 1e-8,
) -> Tuple[complex, complex]:
    """(k+, k-) = Z(gamma)^{-1} [[1, psi+], [psi-, 1]] K(gamma) h.

    These are the x = 0 values of the resolvent, f+(0) and f-(0).
    """
    f = apply_resolvent(potential, gamma, h, cfg, tol)
    mid = f.xs.size // 2
    return complex(f.plus[mid]), complex(f.minus[mid])


def resolvent_defect(
    potential: PotentialModel,
    gamma: complex,
    h: GridFunction,
    f: GridFunction,
    exclude: float = 0.05,
) -> float:
    """max |(gamma - L) f - h| / max |h| over interior grid nodes.

    The x-derivative is the 4th-order central stencil on the grid itself; two
    nodes at each edge and |x| < exclude are skipped (U' kink at the mode,
    one-sided stencils at the boundary).
    """
    xs = f.xs
    step = f.step
    lam_p = switching_rate(potential, SwitchingRateSpec(), xs, +1)
    lam_m = switching_rate(potential, SwitchingRateSpec(), xs, -1)
    defects = []
    for theta, vals, other, lam in (
        (+1, f.plus, f.minus, lam_p),
        (-1, f.minus, f.plus, lam_m),
    ):
        d = np.zeros_like(vals)
        d[2:-2] = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (
            12.0 * step
        )
        lf = theta * d + lam * (other - vals)
        target = h.plus if theta > 0 else h.minus
        defects.append(np.abs(complex(gamma) * vals - lf - target))
    mask = (np.abs(xs) >= exclude) & (np.abs(xs) <= xs[-1] - 2.5 * step)
    scale = max(np.max(np.abs(h.plus)), np.max(np.abs(h.minus)))
    if scale == 0.0:
        return 0.0
    return float(max(np.max(dd[mask]) for dd in defects) / scale)


# ------------------------------------------------------------------ projections

def _require_simple(f: PiecewiseEigenfunction) -> None:
    """Raise NonSimpleEigenvalueError where |Z'(gamma)| <= SIMPLICITY_TOL."""
    if abs(f.z_prime) <= SIMPLICITY_TOL:
        raise NonSimpleEigenvalueError(f.gamma, abs(f.z_prime))


def _pair(a: Callable, rate: complex, f: PiecewiseEigenfunction, sign: int) -> complex:
    """Bilinear pairing of a with the eigenfunction f (no conjugate taken).

    full f: sum_theta int a(x,theta) f(x, sign theta) e^{-U} dx on E;
    plus/minus f: int a(x) f(sign x) e^{-U} dx on R.  sign -1 pairs against
    F conj(f) or J conj(f), +1 against conj(f).  |a| <= e^{|Re rate| |x|}
    oscillating at 2 |Im rate| (rate = gamma for an eigenfunction a, the
    growth bound for a bare h); the truncation and oscillation guards sum
    both sides' bounds.
    """
    growth = abs(rate.real) + abs(f.gamma.real)
    osc = 2.0 * (abs(rate.imag) + abs(f.gamma.imag))
    if f.variant == "full":
        pairing, b = inner_product_mu, lambda x, th: np.conj(f.component(x, sign * th))
    else:
        pairing, b = inner_product_nu, lambda x: np.conj(f.component(sign * x))
    return pairing(a, b, f.potential, f.cfg, growth=growth, oscillation=osc)[0]


def spectral_projection(
    potential: PotentialModel,
    gamma: complex,
    h: Union[GridFunction, Callable],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    variant: str = "full",
    tol: float = 1e-8,
    growth: float = 0.0,
) -> Tuple[complex, PiecewiseEigenfunction]:
    """Rank-one projection P_gamma h = coefficient * f_gamma at a simple root.

    full: coefficient = <h, F conj(f)> / <f, F conj(f)>;
    plus/minus: <h, J conj(f)>_nu / <f, J conj(f)>_nu with h a function on R
    (a GridFunction, which lives on E, raises DomainError).
    growth bounds |h| by e^{growth |x|} when h is a bare callable (irrelevant
    for GridFunctions, which vanish off their grid).
    """
    if variant != "full" and isinstance(h, GridFunction):
        raise DomainError(
            f"the {variant!r} projection takes a function on R, not a GridFunction on E"
        )
    f = eigenfunction(potential, gamma, variant, cfg, tol)
    _require_simple(f)
    den = _pair(f, f.gamma, f, -1)
    if isinstance(h, GridFunction):
        cells, _ = gk_cells(
            lambda xi: np.stack(
                [
                    h.component(xi, +1) * f.component(xi, -1),
                    h.component(xi, -1) * f.component(xi, +1),
                ]
            )
            * np.exp(-potential.U(xi)),
            h.xs,
        )
        num = np.sum(cells)
    else:
        num = _pair(h, growth, f, -1)
    return num / den, f


def z_prime_consistency(
    potential: PotentialModel,
    gamma: complex,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    variant: str = "full",
    tol: float = 1e-8,
) -> Tuple[complex, complex]:
    """Two routes to Z'(gamma) at an eigenvalue.

    full:  (Z'(gamma) by quadrature/closed form,  psi-(gamma) <f, F conj(f)>).
    plus/minus:  (dZ^pm/dgamma,  <f^pm, J conj(f^pm)>_nu).
    """
    f = eigenfunction(potential, gamma, variant, cfg, tol)
    rhs = _pair(f, f.gamma, f, -1)
    if variant == "full":
        rhs = f.psi_minus * rhs
    return f.z_prime, rhs


# -------------------------------------------------------------------- generator

def apply_generator(
    potential: PotentialModel,
    spec: SwitchingRateSpec,
    f: Callable,
    x,
    theta: int,
    fd_step: float = 1e-4,
):
    """L f (x, theta) with a central-difference x-derivative.

    theta (f(x+d,theta) - f(x-d,theta)) / (2d) + lambda(x,theta)(Ff - f).
    """
    x = np.asarray(x, dtype=float)
    lam = switching_rate(potential, spec, x, theta)
    deriv = (f(x + fd_step, theta) - f(x - fd_step, theta)) / (2.0 * fd_step)
    return theta * deriv + lam * (f(x, -theta) - f(x, theta))
