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
prone constant-minus-cumulative form, summed by one GK15 sweep over h's grid
cells.  Its integrands factor into per-cell coefficients, per-width complex
columns and real per-node tables (e^{-U} and U' relative to the cell's left
node), so a block of cells of one width is one real matmul; the roundoff
floor, which does not factor, is taken from node values only where it can
refuse a grid too coarse for gamma.  The spectral projection at a simple
root is the resolvent's residue there (Kato, Perturbation Theory for Linear
Operators, III.6.5): its numerator is the pair of half-line sums the
resolvent forms, and its denominator <f, F conj f> is Z'(gamma) / psi-(gamma)
by the Z' identity, so projecting a grid input needs f at no quadrature node.
Every integral here is taken at quadrature's default tolerance, DEFAULT_CONFIG.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Tuple, Union

import numpy as np

from .charfn import _BRANCH_SIGN, CharFunctionHandle, _z_and_dz
from .errors import (
    DomainError,
    IntegrationError,
    NonSimpleEigenvalueError,
    NotAnEigenvalueError,
    ResolventAtEigenvalueError,
)
from .potential import PotentialModel, SwitchingRateSpec, switching_rate
from .quadrature import (DEFAULT_CONFIG, _BLOCK, _EPS, _KD, _NODES, _adaptive, _gk_reduce, _initial_edges, _panels,
                         _tolerance, _truncation, integrate_finite, truncation_radius)
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
EIGENVALUE_TOL = 1e-8  # |Z(gamma)| at or below this: gamma is an eigenvalue
SIMPLICITY_TOL = 1e-8  # |Z'(gamma)| at or below this: not a simple root
_CELL_PHASE = 2.0  # |2 gamma + U'| times a pt cell's width: GK15 at roundoff
_MAX_RANGE = 600.0  # growth factors e^{..} one pt sweep spans without underflow
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_MAX_CANCEL = 16.0  # log of the sweep's largest cancellation at Re gamma < 0: defect 5e-7 at 14, 2e-5 at 18
_MAX_PT_CANCEL = -math.log(_EPS)  # log of pt's largest cancellation: past it no digit survives
_DEFECT_EXCLUDE = 0.05  # resolvent_defect skips |x| below this: U' kinks at the mode
_FD_STEP = 1e-4  # apply_generator's central-difference step


# ----------------------------------------------------------------- phi helpers

_K = np.arange(16)
_FACT = np.cumprod(np.maximum(_K, 1)).astype(float)  # k!
_PHI1_C = 1.0 / (_FACT * (_K + 1))  # phi1 = sum z^k / (k! (k + 1))
_PHI2_C = 1.0 / (_FACT * (_K + 2))  # phi2 = sum z^k / (k! (k + 2))


def _phi12(z):
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z (z - 1) + 1)/z^2.

    These are the moments int_0^1 e^{zt} dt and int_0^1 t e^{zt} dt; the
    closed forms cancel catastrophically near 0, so |z| < 0.25 switches to
    the Taylor series, summed by Horner with n terms, n the first k with
    r^k / (k + 1)! < 1e-17 at the largest small |z| = r: 12 terms as
    r -> 0.25, about 7 at the |z| ~ 1e-2 of default grids.
    """
    z = np.asarray(z, dtype=complex)
    mag = np.abs(z)
    small = mag < 0.25
    p1, p2 = np.empty_like(z), np.empty_like(z)
    if not small.all():
        zb = z[~small]
        ez = np.exp(zb)
        p1[~small] = (ez - 1.0) / zb
        p2[~small] = (ez * (zb - 1.0) + 1.0) / (zb * zb)
    if small.any():
        zs = z[small]
        n = int(np.argmax(mag[small].max() ** _K * _PHI1_C < 1e-17))
        s1, s2 = _PHI1_C[n - 1], _PHI2_C[n - 1]  # scalars until the first step
        for k in range(n - 2, -1, -1):
            s1 = s1 * zs + _PHI1_C[k]
            s2 = s2 * zs + _PHI2_C[k]
        p1[small], p2[small] = s1, s2
    return p1, p2


# -------------------------------------------------------------------- psi tilde

def _w(potential: PotentialModel, gamma: complex, side: int, xi, shift: float = 0.0):
    """w = side U'(xi) e^{shift - 2 side gamma xi - U(xi)}, the folded tail integrand:
    its integral from x outward is e^{-2 side gamma x - U(x)} pt^side(gamma; x)."""
    return side * potential.dU(xi) * np.exp(-2.0 * side * gamma * xi - (potential.U(xi) - shift))


def _pt_head(potential: PotentialModel, side: int, gamma: complex, x: float) -> str:
    return f"pt^{side:+d} of {potential.descriptor()} at gamma={gamma}, x={x:.6g}"


def psi_tilde(potential: PotentialModel, gamma, x, side: int = +1):
    """pt^side(gamma; x) = 1 - 2 gamma J^side(gamma, x); pt(gamma; 0) = psi^side.

    side +1 expects x >= 0 and probes U to the right of x, side -1 expects
    x <= 0 and probes left; gamma may be an array, one per x.  Gaussian
    potentials go through erfcx.  Any other gets, per distinct gamma, one
    GK15 sweep of _w over a lattice of all its requested x, run on by
    the truncation radius of quadrature's one rule at the innermost x, with
    gaps cut into cells of width _CELL_PHASE / (2 |gamma| + |U'|); pt(x) is
    e^{L(x)}, L(x) = 2 side gamma x + U(x), times the sum of the cells
    outward of x.  Their |K - G| and roundoff floors, summed alike, and the
    tail bound must pass _adaptive's acceptance rule at every x,
    or IntegrationError names gamma and x.  So must the folded integrand's
    peak, max_t 2 |Re gamma| t - (U(x0 + side t) - U(x0)) from the innermost x0:
    past _MAX_PT_CANCEL the sum cancels from further than float64 carries.
    Points whose Re L exceeds the innermost one's by _MAX_RANGE get a sweep of
    their own: no cell underflows.
    """
    xs = np.asarray(x, dtype=float)
    if side not in (1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    gamma = np.asarray(gamma, dtype=complex) if np.ndim(gamma) else complex(gamma)
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(xs))):
        raise DomainError(f"pt needs a finite gamma and finite x, got gamma={gamma!r}")
    if np.ndim(gamma) and potential.family != "gaussian":  # one sweep per gamma
        out = np.empty(xs.shape, dtype=complex)
        for g in np.unique(gamma):
            out[gamma == g] = psi_tilde(potential, g, xs[gamma == g], side)
        return out
    s = potential.sigma
    if s != 1.0:  # pt_sigma(gamma; x) = pt_1(sigma gamma; x / sigma), refused in the caller's terms
        try:
            return psi_tilde(potential._unit, s * gamma, xs / s, side)
        except IntegrationError as exc:
            head = _pt_head(potential._unit, side, s * gamma, exc.location)
            raise exc.renamed(head, _pt_head(potential, side, gamma, s * exc.location), s * exc.location) from None
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
        out[far] = psi_tilde(potential, gamma, side * dist[far], side)
    near, log_grow = dist[~far], log_grow[~far]
    alpha = max(0.0, -2.0 * gamma.real)
    r, tail, peak = _truncation(potential, alpha, side, side * near[0])
    if peak > _MAX_PT_CANCEL:
        x_0, need = float(side * near[0]), f"it needs cancellation from e^{peak:.4g}, past e^{_MAX_PT_CANCEL:.4g}"
        raise IntegrationError(f"{_pt_head(potential, side, gamma, x_0)} misses its tolerance: {need}", location=x_0)
    pts = np.append(near, near[-1] + r)
    gap = np.diff(pts)
    rate = 2.0 * abs(gamma) + np.abs(potential.dU(side * pts))
    n = np.maximum(1, np.ceil(gap * np.maximum(rate[:-1], rate[1:]) / _CELL_PHASE)).astype(int)
    first = np.cumsum(n) - n  # lattice index of each requested point
    cell = np.repeat(np.arange(gap.size), n)
    step = (np.arange(cell.size) - first[cell]) / n[cell]
    edges = np.append(pts[cell] + gap[cell] * step, pts[-1])
    shift = float(log_grow[0].real)
    # one GK15 panel per cell, each with its roundoff floor
    cells, errs, floors, _ = _panels(
        lambda t: _w(potential, gamma, side, side * t, shift), edges[:-1], edges[1:]
    )

    def outward(c):
        return np.cumsum(c[::-1, 0])[::-1][first]

    grow = np.exp(log_grow - shift)
    val = grow * outward(cells)
    # the cut drops e^{L(x) - L(x + r)} pt(x + r), pt = 1 - 2 gamma J, and the
    # truncation_radius's tail bound covers both that envelope and J's tail
    err = np.abs(grow) * outward(errs) + (1.0 + 2.0 * abs(gamma)) * tail
    tol = _tolerance(val, np.abs(grow) * outward(floors), DEFAULT_CONFIG)
    i = int(np.argmax(err / tol))
    if err[i] > tol[i]:
        x_i = float(side * near[i])
        msg = f"{_pt_head(potential, side, gamma, x_i)} misses its tolerance"
        raise IntegrationError(f"{msg}: error {err[i]:.2e} > {tol[i]:.2e}", location=x_i)
    out[~far] = val
    out = out[back]
    return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ----------------------------------------------------------------- grid plumbing

def grid_radius(potential: PotentialModel) -> float:
    """Smallest 1/256-lattice radius with e^{-U(+-R)} < 1e-14 on both sides."""
    r = float(max(potential.U_inverse(_LOG_GRID_TARGET, side) for side in (+1, -1)))
    if not r <= 1e6:
        raise DomainError(f"potential too flat: grid radius {r:.3g} exceeds 1e6")
    return math.ceil(r * 256.0) / 256.0


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

def _times(c, v):
    """c v; c None is a unit constant, left out so v keeps a -0 imaginary part (1 + 0j would not)."""
    return v if c is None else c * v


@dataclasses.dataclass(frozen=True)
class PiecewiseEigenfunction:
    """Eigenfunction at gamma in the half-line-wise closed form.

    A variant is a tuple of pieces (theta, inward, outward), one formula each:
        f(x, theta) = inward e^{theta gamma x}                     (theta x <= 0)
                    = outward e^{-theta gamma x} pt^theta(gamma;x) (theta x > 0)
    full on E is (+1, psi+, 1) and (-1, 1, psi+); plus/minus on R (even U) is
    the one piece (+1, 1, +/-1), which serves both thetas.  It carries the psi
    values at gamma and z_prime, the derivative of its branch's Z there, so
    the pairings built on f need no second psi pass.
    """

    gamma: complex
    potential: PotentialModel
    variant: str
    psi_plus: complex
    psi_minus: complex
    z_prime: complex

    # the variant's description: its pieces (a unit constant is None, see _times)
    # and its scale s in Z' = s <f, F conj f> on E (psi-), s <f, J conj f>_nu on R (1)
    @property
    def _pieces(self):
        if self.variant == "full":
            return (+1, self.psi_plus, None), (-1, None, self.psi_plus)
        return ((+1, None, _BRANCH_SIGN[self.variant]),)

    @property
    def _scale(self):
        return self.psi_minus if self.variant == "full" else 1

    def component(self, x, theta: int = +1):
        scalar, x = np.ndim(x) == 0, np.atleast_1d(np.asarray(x, dtype=float))
        theta, inward, outward = self._pieces[0 if theta > 0 else -1]
        at = lambda v, m: v[m] if np.ndim(v) else v  # noqa: E731  fields of a stacked f go with their nodes
        tg = self.gamma if theta > 0 else -self.gamma  # theta gamma
        out = np.empty(x.shape, dtype=complex)
        near = theta * x <= 0.0
        far = ~near
        out[near] = _times(at(inward, near), np.exp(at(tg, near) * x[near]))
        pt = psi_tilde(self.potential, at(self.gamma, far), x[far], theta)
        out[far] = _times(at(outward, far), np.exp(-at(tg, far) * x[far])) * pt
        return complex(out[0]) if scalar else out

    def __call__(self, x, theta: int = +1):
        return self.component(x, theta)

    def continuity_defect(self) -> float:
        """Max over pieces of |inward - outward pt^theta(gamma; 0)|, the jump at x = 0.

        The two limits come from independent formulas (cached psi+ versus a
        fresh tail integral), so this doubles as an eigenvalue certificate.
        """
        pt0 = [psi_tilde(self.potential, self.gamma, np.zeros(1), th)[0] for th, _, _ in self._pieces]
        return max(abs(_times(i, 1.0) - _times(o, complex(p))) for (_, i, o), p in zip(self._pieces, pt0))

    def l2_mass(self, radius: float) -> float:
        """int_{|x| <= radius} sum_theta |f|^2 e^{-U} dx, theta over the pieces."""

        def rows(x):
            comps = np.stack([self.component(x, theta) for theta, _, _ in self._pieces])
            return np.abs(comps) ** 2 * np.exp(-self.potential.U(x))

        osc = 2.0 * abs(self.gamma.imag)
        val, _ = integrate_finite(rows, -radius, radius, oscillation=osc, breakpoints=(0.0,))
        return float(np.sum(np.real(val)))


def _check_gamma_tol(gamma, tol: float = EIGENVALUE_TOL) -> complex:
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
    tol: float = EIGENVALUE_TOL,
) -> PiecewiseEigenfunction:
    """Closed-form eigenfunction at gamma; raises unless |Z_branch(gamma)| <= tol."""
    if variant not in ("full", "plus", "minus"):
        raise DomainError(f"unknown eigenfunction variant {variant!r}")
    gamma = _check_gamma_tol(gamma, tol)
    values = CharFunctionHandle(potential, variant).values_batch(gamma)
    z, dz = (complex(v[0]) for v in _z_and_dz(variant, *values))
    if abs(z) > tol:
        raise NotAnEigenvalueError(gamma, abs(z), tol)
    pp, _, pm, _ = (complex(v[0]) for v in values)
    return PiecewiseEigenfunction(gamma, potential, variant, pp, pm, dz)


def eigenfunction_table(
    potential: PotentialModel,
    gamma: complex,
    xs,
    tol: float = EIGENVALUE_TOL,
) -> np.ndarray:
    """Columns [x, Re f+, Im f+, Re f-, Im f-] for CSV export."""
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("eigenfunction_table needs finite x")
    f = eigenfunction(potential, gamma, "full", tol)
    fp, fm = f.component(xs, +1), f.component(xs, -1)
    return np.column_stack([xs, fp.real, fp.imag, fm.real, fm.imag])


# ---------------------------------------------------------------- inner products

def _truncated_pairing(rows, potential, growth, oscillation):
    """(row integrals, error) over [-rl, rr], the radii at which
    e^{growth |x| - U} is certified negligible, split at the kink x = 0;
    the tails join the error."""
    (rl, tl), (rr, tr) = (truncation_radius(potential, growth, side) for side in (-1, +1))
    val, err = integrate_finite(rows, -rl, rr, oscillation=oscillation, breakpoints=(0.0,))
    return np.atleast_1d(val), float(np.sum(err) + tr + tl)


def inner_product_mu(
    f: Callable,
    g: Callable,
    potential: PotentialModel,
    growth: float = 0.0,
    oscillation: float = 0.0,
) -> Tuple[complex, float]:
    """<f, g> = sum_theta int f(x,theta) conj(g(x,theta)) e^{-U} dx.

    growth bounds |f g| by e^{growth |x|} for the truncation certificate
    (eigenfunction callers pass |Re gamma_1| + |Re gamma_2|).
    """

    def rows(x):
        return np.stack([f(x, th) * np.conj(g(x, th)) for th in (+1, -1)]) * np.exp(-potential.U(x))

    val, err = _truncated_pairing(rows, potential, growth, oscillation)
    return complex(np.sum(val)), err


def inner_product_nu(
    f: Callable,
    g: Callable,
    potential: PotentialModel,
    growth: float = 0.0,
    oscillation: float = 0.0,
) -> Tuple[complex, float]:
    """<f, g>_nu = int f(x) conj(g(x)) e^{-U} dx on R (symmetric-variant pairing)."""

    def rows(x):
        return f(x) * np.conj(g(x)) * np.exp(-potential.U(x))

    val, err = _truncated_pairing(rows, potential, growth, oscillation)
    return complex(val[0]), err


# -------------------------------------------------------------------- resolvent

def _outward_cells(potential, gamma, side, xs, own, other, r):
    """(k, inner, a cells, w cells, tail factor) from one GK15 sweep over the cells xs of the outward half line side.

    side +1 is x >= 0, side -1 is x <= 0; own and other hold h^side and
    h^-side at the nodes.  The rows are pt's integrand w (see _w) and the
    k-integrand a = e^{-side gamma xi - U} h^side + w inner, inner the inward
    cumulative C^-(xi) = int_0^xi e^{gamma eta} h^- (side +1) or
    D^+(xi) = int_xi^0 e^{-gamma eta} h^+ (side -1), exact for piecewise-
    linear h through each cell's moments phi1/phi2.  At a node x_i + t both
    rows factor into complex coefficients per cell, complex columns per cell
    width and node (e^{-g t}, t e^{-g t}; e^{-2 g t} times 1, phi1, phi2;
    g = side gamma) and real tables per node (e^{U(x_i) - U}, side U' times
    it), so a block of cells gets K and K - G from one real matmul, as psi's
    kernel does.  k adds the tail past +-r, inner there times
    e^{-2 gamma r - U} pt^side; IntegrationError names gamma and the half line
    unless its |K - G| passes _adaptive's rule.  The roundoff floor does not
    factor: a node pass takes it only where |K - G| > max(abs_tol,
    rel_tol |k|), the one case where it can change the verdict, or where k is
    not finite, so that _gk_reduce names the first non-finite node.
    """
    g, tau = side * gamma, np.diff(xs)
    widths, cells = np.unique(tau, return_inverse=True)
    if widths.size > 1:  # np.linspace's widths stray from the commonest by an ulp or two of max |x|: one width
        common = widths[np.bincount(cells).argmax()]
        widths, cells = np.unique(np.where(abs(tau - common) <= 4 * np.spacing(np.abs(xs).max()), common, tau), return_inverse=True)
    off = widths[:, None] * np.append(0.5 + 0.5 * _NODES, 1.0)  # the 15 GK offsets, then the width
    p1, p2 = _phi12(g * off)
    p1, p2, off = off * p1, off * off * p2, off[:, :15]
    x0, u0, v, dv = xs[:-1], potential.U(xs[:-1]), other[:-1], np.diff(other) / tau
    grow = np.exp(g * x0)
    cell = grow * (v * p1[cells, 15] + dv * p2[cells, 15])  # the inward cumulative across each cell
    # summed from 0 outward on both sides: the cells near 0 are the small ones
    inner = np.append(0j, np.cumsum(cell)) if side > 0 else np.append(np.cumsum(cell[::-1])[::-1], 0j)
    lead = np.exp(-g * x0 - u0)  # e^{-g x_i - U(x_i)}, and w's coefficient lead / grow
    coef = np.stack([own[:-1], np.diff(own) / tau, inner[:-1] / grow, side * v, side * dv], 1) * lead[:, None]
    e1 = np.exp(-g * off)
    e2 = e1 * e1
    cols = np.stack([e1, off * e1, e2, e2 * p1[:, :15], e2 * p2[:, :15]], -1)  # (widths, 15 nodes, 5)
    # the commonest width's h _KD-weighted columns, block-diagonal: table 1 takes columns 0-1, table 2 2-4
    top = np.bincount(cells).argmax()
    mat = cols[top, :, None] * (0.5 * widths[top] * _KD.T[:, :, None]) * np.repeat(np.eye(2), (2, 3), 1)[:, None, None]
    mat = mat.reshape(30, 10).view(float)
    blocks = [slice(i, i + _BLOCK) for i in range(0, x0.size, _BLOCK)]

    def tables(c):  # the nodes of the cells c and their real tables, (cells, 2, 15)
        xi = x0[c, None] + off[cells[c]]
        rt = np.exp(u0[c, None] - potential.U(xi))
        return xi, np.stack([rt, side * potential.dU(xi) * rt], 1)

    def floor(c):  # the summed roundoff floor of a on the cells c, from its node values
        (xi, tab), terms = tables(c), coef[c, None] * cols[cells[c]]
        a = tab[:, 0] * terms[..., :2].sum(-1) + tab[:, 1] * terms[..., 2:].sum(-1)
        return np.sum(_gk_reduce(a.ravel(), 0.5 * tau[c], xi.ravel())[2])

    parts = []
    for c in blocks:
        tab, j = tables(c)[1], cells[c]
        if np.all(j == top):  # the block's tables in one matmul
            sums = (tab.reshape(-1, 30) @ mat).view(complex).reshape(-1, 2, 5)
        else:  # each cell against the columns of its own width, the weights on its tables
            tab = tab[:, :, None] * (0.5 * widths[j][:, None, None, None] * _KD)
            sums = (tab.reshape(-1, 4, 15) @ cols[j].view(float)).reshape(-1, 2, 2, 10).view(complex)
            sums = np.concatenate([sums[:, 0, :, :2], sums[:, 1, :, 2:]], -1)  # each column on its own table
        ka, da = np.einsum("csk,ck->sc", sums, coef[c])  # sums: (cells, [K, K - G], column)
        parts.append((ka, lead[c] / grow[c] * sums[:, 0, 2], np.abs(da)))
    a, w, err = (np.concatenate(p) for p in zip(*parts))
    fac = np.exp(-2.0 * gamma * r - float(potential.U(side * r))) * complex(psi_tilde(potential, gamma, side * r, side))
    k, err = complex(np.sum(a) + inner[-1 if side > 0 else 0] * fac), float(np.sum(err))
    tol = float(_tolerance(k, 0.0, DEFAULT_CONFIG))
    if err > tol or not np.isfinite(k):
        tol = float(_tolerance(k, sum(floor(c) for c in blocks), DEFAULT_CONFIG))
    if err > tol:
        msg = f"resolvent at gamma={gamma} on the half line x {'>=' if side > 0 else '<='} 0"
        raise IntegrationError(f"{msg} misses its tolerance: error {err:.2e} > {tol:.2e} (grid too coarse)", location=float(side * r))
    return k, inner, a, w, fac


def _resolvent_sums(potential, gamma, h):
    """(k1, k2, pos, neg): the resolvent's half-line sums for a GridFunction h.

    k1 = int_{x >= 0} e^{-gamma x - U} (h+ + h- pt+) dx and
    k2 = int_{x <= 0} e^{gamma x - U} (h- + h+ pt-) dx pair h with the
    solutions that decay on each half line; each is, by Fubini, one
    _outward_cells sweep on h's grid, which refuses a grid too coarse for
    gamma.  pos and neg are (nodes, C^- or D^+ there, a cells, w cells, tail
    factor) for apply_resolvent.  A grid without x = 0 gets that node, h
    interpolated there, so the piecewise-linear h is unchanged.
    """
    xs, plus, minus = h.xs, h.plus, h.minus
    mid = int(np.searchsorted(xs, 0.0))
    if xs[mid] != 0.0:
        zero = (0.0, h(0.0, +1), h(0.0, -1))
        xs, plus, minus = (np.insert(v, mid, v0) for v, v0 in zip((xs, plus, minus), zero))
    out = []
    for side, half in ((+1, slice(mid, None)), (-1, slice(0, mid + 1))):
        own, other = (plus, minus) if side > 0 else (minus, plus)
        k, *sweep = _outward_cells(potential, gamma, side, xs[half], own[half], other[half], h.radius)
        out.append((k, (xs[half], *sweep)))
    (k1, pos), (k2, neg) = out
    return k1, k2, pos, neg


def _k_plus_minus(potential, gamma, h):
    """(k+, k-, pos, neg) with (k+, k-) = Z^{-1} [[1, psi+], [psi-, 1]] (k1, k2)
    at a gamma off the spectrum; ResolventAtEigenvalueError where |Z| <= EIGENVALUE_TOL,
    DomainError where the sweep's e^{|Re gamma| R + U(R)} leaves float range
    or, at Re gamma < 0, it cancels from a peak of e^{2 |Re gamma| |x| - U} past e^16."""
    r, xs = h.radius, h.xs
    if abs(gamma.real) * r + float(max(potential.U(r), potential.U(-r))) > _LOG_FLOAT_MAX:
        raise DomainError(f"resolvent at gamma={gamma}: e^(|Re gamma| R + U(R)) overflows on the grid's R = {r:.6g}")
    if gamma.real < 0.0 and (peak := float(np.max(-2.0 * gamma.real * np.abs(xs) - potential.U(xs)))) > _MAX_CANCEL:
        raise DomainError(f"resolvent at gamma={gamma} needs cancellation from e^{peak:.4g}, past e^{_MAX_CANCEL:g}")
    values = CharFunctionHandle(potential, "full").values_batch(gamma)
    z = complex(_z_and_dz("full", *values)[0][0])
    pp, _, pm, _ = (complex(v[0]) for v in values)
    if abs(z) <= EIGENVALUE_TOL:
        raise ResolventAtEigenvalueError(gamma, abs(z), EIGENVALUE_TOL)
    k1, k2, pos, neg = _resolvent_sums(potential, gamma, h)
    return (k1 + pp * k2) / z, (pm * k1 + k2) / z, pos, neg


def apply_resolvent(
    potential: PotentialModel,
    gamma: complex,
    h: GridFunction,
) -> GridFunction:
    """f = (gamma - L)^{-1} h on h's grid, which must hold x = 0.

    Inward half lines use the constant-plus-cumulative displays; outward half
    lines use the equivalent decaying integrals (see module docstring), summed
    cell by cell with one GK15 panel per grid cell plus the analytic tail.
    One sweep per outward half line gives both k1, k2 (hence k+, k-) and f.
    """
    gamma = _check_gamma_tol(gamma)
    if not np.any(h.xs == 0.0):
        raise DomainError("resolvent grid must contain x = 0 exactly")
    kp, km, pos, neg = _k_plus_minus(potential, gamma, h)
    (xpos, c_minus, a_pos, w_pos, fac_pos), (xneg, d_plus, a_neg, w_neg, fac_neg) = pos, neg

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
) -> Tuple[complex, complex]:
    """(k+, k-) = Z(gamma)^{-1} [[1, psi+], [psi-, 1]] (k1, k2).

    These are the x = 0 values of the resolvent, f+(0) and f-(0), taken
    from the half-line sums without assembling f on the grid.
    """
    kp, km, _, _ = _k_plus_minus(potential, _check_gamma_tol(gamma), h)
    return complex(kp), complex(km)


def resolvent_defect(
    potential: PotentialModel,
    gamma: complex,
    h: GridFunction,
    f: GridFunction,
) -> float:
    """max |(gamma - L) f - h| / max |h| over interior grid nodes.

    The x-derivative is the 4th-order central stencil on the grid itself; two
    nodes at each edge and |x| < 0.05 are skipped (U' kink at the mode,
    one-sided stencils at the boundary).  DomainError unless h and f share
    one grid of uniform step (to 1e-12 relative), as the stencil assumes.
    """
    xs, step = f.xs, f.step
    if not np.array_equal(h.xs, xs):
        raise DomainError("resolvent_defect needs h and f on one grid")
    if np.max(np.abs(np.diff(xs) - step)) > 1e-12 * step:
        raise DomainError("resolvent_defect needs a uniform grid: the stencil assumes one step")
    defects = []
    for theta, vals, other, target in ((+1, f.plus, f.minus, h.plus), (-1, f.minus, f.plus, h.minus)):
        lam = switching_rate(potential, SwitchingRateSpec(), xs, theta)
        d = np.zeros_like(vals)
        d[2:-2] = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * step)
        defects.append(np.abs(complex(gamma) * vals - (theta * d + lam * (other - vals)) - target))
    mask = (np.abs(xs) >= _DEFECT_EXCLUDE) & (np.abs(xs) <= xs[-1] - 2.5 * step)
    scale = max(np.max(np.abs(h.plus)), np.max(np.abs(h.minus)))
    if scale == 0.0:
        return 0.0
    return float(max(np.max(dd[mask]) for dd in defects) / scale)


# ------------------------------------------------------------------ projections

def _require_simple(f: PiecewiseEigenfunction) -> PiecewiseEigenfunction:
    """f; NonSimpleEigenvalueError where |Z'(gamma)| <= SIMPLICITY_TOL."""
    if abs(f.z_prime) <= SIMPLICITY_TOL:
        raise NonSimpleEigenvalueError(f.gamma, abs(f.z_prime))
    return f


def _pair(h: Callable, growth: float, f: PiecewiseEigenfunction) -> complex:
    """<h, F conj f> on E for full f, <h, J conj f>_nu on R for plus/minus f:
    h paired bilinearly with f reflected.  |h| <= e^{growth |x|}; the
    truncation and oscillation guards add f's e^{|Re gamma| |x|} and its
    frequency 2 |Im gamma|."""
    kw = dict(growth=abs(growth) + abs(f.gamma.real), oscillation=2.0 * abs(f.gamma.imag))
    if f.variant == "full":
        return inner_product_mu(h, lambda x, th: np.conj(f.component(x, -th)), f.potential, **kw)[0]
    return inner_product_nu(h, lambda x: np.conj(f.component(-x)), f.potential, **kw)[0]


def _pairing_rows(f: PiecewiseEigenfunction, x):
    """The self-pairing rows [f+^2, f-^2] e^{-U} on E, [f^2] e^{-U} on R, one evaluation per component."""
    return np.stack([f.component(x, th) ** 2 for th, _, _ in f._pieces]) * np.exp(-f.potential.U(x))


def _self_pairings(fs: Tuple[PiecewiseEigenfunction, ...]) -> List[complex]:
    """<f, conj f> on E, <f, conj f>_nu on R, for each f in fs; the reflected pairing
    <f, F conj f> (<f, J conj f>_nu) is Z'/psi- (f.z_prime / f._scale) and takes none.

    fs share one potential and variant.  Each f takes one adaptive pass over
    [-rl, rr], where e^{2 |Re gamma| |x| - U} is negligible (one cut per side
    for all), split at x = 0; the passes refine in lockstep, and each round
    evaluates _pairing_rows once per _BLOCK panels on a stacked f, whose gamma
    and psi+ are arrays of its nodes.  Each pass's panels are reduced in the
    blocks it would take alone, so its pairings are bit for bit its own.
    """
    pot, variant = fs[0].potential, fs[0].variant
    g, pp = np.array([(f.gamma, f.psi_plus) for f in fs]).T
    rl, rr = (truncation_radius(pot, 2.0 * np.abs(g.real), side)[0].tolist() for side in (-1, +1))
    edges = [np.asarray(_initial_edges(-lo, hi, w, (0.0,))) for lo, hi, w in zip(rl, rr, 4.0 * np.abs(g.imag))]

    def panels(a, b, runs):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        x, blocks, lo, parts = (c[:, None] + h[:, None] * _NODES).ravel(), [], 0, []
        for i, m in runs:  # (pass, first panel, end) of each block its pass alone would take
            blocks += [(i, j, min(j + _BLOCK, lo + m)) for j in range(lo, lo + m, _BLOCK)]
            lo += m
        while blocks:  # whole blocks, packed into calls of at most _BLOCK panels
            n = next((n for n, (_, _, k) in enumerate(blocks) if k - blocks[0][1] > _BLOCK), len(blocks))
            call, blocks = blocks[:n], blocks[n:]
            s, t = 15 * call[0][1], 15 * call[-1][2]
            which = np.repeat([i for i, _, _ in call], [15 * (k - j) for _, j, k in call])
            v = _pairing_rows(PiecewiseEigenfunction(g[which], pot, variant, pp[which], None, None), x[s:t])
            parts += [_gk_reduce(v[:, 15 * j - s : 15 * k - s], h[j:k], x[15 * j : 15 * k]) for _, j, k in call]
        *sums, _ = zip(*parts)
        return (*map(np.concatenate, sums), True)

    return [complex(np.sum(val)) for val, _, _ in _adaptive(panels, edges, DEFAULT_CONFIG)]


def spectral_projection(
    potential: PotentialModel,
    gamma: complex,
    h: Union[GridFunction, Callable],
    variant: str = "full",
    growth: float = 0.0,
) -> Tuple[complex, PiecewiseEigenfunction]:
    """Rank-one projection P_gamma h = coefficient * f_gamma at a simple root.

    full: coefficient = <h, F conj(f)> / (Z'(gamma) / psi-(gamma));
    plus/minus: <h, J conj(f)>_nu / Z'_branch(gamma) with h a function on R
    (a GridFunction, which lives on E, raises DomainError).  P_gamma is the
    residue of the resolvent at gamma, so a GridFunction's numerator is
    k1 + psi+ k2 from the resolvent's half-line sums; a callable's is the
    adaptive pairing, with growth bounding |h| by e^{growth |x|}.
    """
    if variant != "full" and isinstance(h, GridFunction):
        raise DomainError(f"the {variant!r} projection takes a function on R, not a GridFunction on E")
    f = _require_simple(eigenfunction(potential, gamma, variant))
    if isinstance(h, GridFunction):
        k1, k2, _, _ = _resolvent_sums(potential, f.gamma, h)
        num = k1 + f.psi_plus * k2
    else:
        num = _pair(h, growth, f)
    return num / (f.z_prime / f._scale), f


def z_prime_consistency(potential: PotentialModel, gamma: complex, variant: str = "full") -> Tuple[complex, complex]:
    """Two routes to Z'(gamma) at an eigenvalue.

    full:  (Z'(gamma) by quadrature/closed form,  psi-(gamma) <f, F conj(f)>).
    plus/minus:  (dZ^pm/dgamma,  <f^pm, J conj(f^pm)>_nu).
    The pairing is spectral_projection's callable route, _pair, not the
    refreshment coefficients' _self_pairings, which take Z' for it.
    """
    f = eigenfunction(potential, gamma, variant)
    return f.z_prime, f._scale * _pair(f.component, abs(f.gamma.real), f)


# -------------------------------------------------------------------- generator

def apply_generator(
    potential: PotentialModel,
    spec: SwitchingRateSpec,
    f: Callable,
    x,
    theta: int,
):
    """L f (x, theta) with a central-difference x-derivative.

    theta (f(x+d,theta) - f(x-d,theta)) / (2d) + lambda(x,theta)(Ff - f), d = 1e-4.
    """
    x = np.asarray(x, dtype=float)
    lam = switching_rate(potential, spec, x, theta)
    deriv = (f(x + _FD_STEP, theta) - f(x - _FD_STEP, theta)) / (2.0 * _FD_STEP)
    return theta * deriv + lam * (f(x, -theta) - f(x, theta))
