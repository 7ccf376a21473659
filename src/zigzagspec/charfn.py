"""Characteristic functions psi+-, Z, Z+- and their derivatives.

With lambda_refr = 0 the point spectrum of the zigzag generator is exactly
the zero set of

    Z(gamma) = 1 - psi_plus(gamma) psi_minus(gamma),

where (after folding both half lines onto u >= 0)

    psi_s(gamma) = 1 - 2 gamma INT_0^inf e^{-2 gamma u - U(s u)} du,  s = +-1.

For even potentials psi_plus = psi_minus =: psi and Z factors as
Z = (1 - psi)(1 + psi), whose factors Z+ and Z- are tracked as separate
branches.  A handle takes psi_sigma(gamma) = psi_1(sigma gamma) for every
width sigma, and the family picks how psi_1 is evaluated: the closed form

    psi_plus(gamma) = 1 - sqrt(2 pi) gamma erfcx(sqrt(2) gamma)

for the Gaussian, adaptive quadrature for every other family (``psi`` and
``psi_batch`` integrate the U they are given, width included).

Quadrature integrates along the real axis first, with psi and psi' of every
gamma in a batch from one GK15 panel evaluator, which quadrature's own driver
refines in its blocks of panels.  psi takes no tolerance: it runs at
quadrature's DEFAULT_CONFIG and truncation margin.  A pass starts on at least 8
panels of one width, 2 per period of the batch's fastest oscillation, so few
evaluator rounds refine it.  Its kernel factors into tables per (gamma,
panel), (gamma, panel width, node) and (panel, node), summed by matmul, on the
real axis and on rays alike.  For Re gamma < 0 the integrand can peak far
above the integral (near e^18 at gamma = -3 - 4.5i for the Gaussian), and its
panels then retire at the roundoff floor short of the default tolerance
max(abs_tol, rel_tol |A|).  Such a gamma is integrated again along its best ray
u = t e^{i phi} inside the potential's ``ray_sector`` (Cauchy's theorem moves
the path; see Trefethen & Weideman, SIAM Rev. 2014), the one with the lowest
envelope peak in a table of Re U at the ray angles and quadrature's radii; the
missed gammas on one angle share one pass.  Where that ray misses too, or no
ray suits (a custom U has none), psi raises IntegrationError naming the cause.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .errors import DomainError, IntegrationError, NearZeroError
from .potential import PotentialModel
from .quadrature import _EPS, _KD, _NODES, _RADII, _adaptive, _blocks, _cut, _gk_reduce, _initial_edges, _table
from .quadrature import DEFAULT_CONFIG, _MAX_INITIAL, _tolerance, integrate_finite, truncation_radius
from .specialfn import erfcx_complex

__all__ = [
    "CharFunctionHandle",
    "psi",
    "psi_batch",
    "z_value_batch",
    "z_log_derivative_batch",
    "gaussian_closed_form",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

NEAR_ZERO_TOL = 1e-14

_BRANCHES = ("full", "plus", "minus")


# ---------------------------------------------------------------------------
# Gaussian closed form (sigma = 1; widths handled by the gamma rescaling)
# ---------------------------------------------------------------------------


def gaussian_closed_form(gamma):
    """(psi, dpsi) for U(x) = x^2/2 from one erfcx evaluation; arrays in and out.

    Differentiating psi = 1 - sqrt(2 pi) gamma erfcx(sqrt2 gamma) with
    erfcx'(z) = 2 z erfcx(z) - 2/sqrt(pi) collapses to
    dpsi = -sqrt(2 pi) [(1 + 4 gamma^2) erfcx(sqrt2 gamma) - 2 sqrt2 gamma / sqrt(pi)].
    """
    g = np.asarray(gamma, dtype=complex)
    e = erfcx_complex(_SQRT_2 * g)
    psi = 1.0 - _SQRT_2PI * g * e
    dpsi = -_SQRT_2PI * ((1.0 + 4.0 * g * g) * e - 2.0 * _SQRT_2 * g / _SQRT_PI)
    return psi, dpsi


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


# Fractions of the potential's ray sector tried as integration rays; the
# sector's edges are avoided because Re U grows ever more slowly there.
_RAY_FRACTIONS = np.array([s * k / 10.0 for k in range(1, 10) for s in (1, -1)])
_STEEP = 64.0  # decay lengths 1 / (2 Re g') the first initial panel of a psi pass may span
_MIN_INITIAL = 8  # initial panels of a psi pass, at least; and at least 2 per period
_LOG_TINY = math.log(np.finfo(float).tiny)  # e^x is subnormal below it


def _path(potential: PotentialModel, sign: int, phi: float):
    """(u(t), W(u), du/dt) for the ray u = t e^{i phi}; W(u) = U(sign u), as U(0) = 0.

    phi = 0 is the real axis in real arithmetic; any other ray needs the
    analytic continuation of U.
    """
    w_of = potential.U if sign > 0 else (lambda u: potential.U(-u))
    if phi == 0.0:
        return (lambda t: t), w_of, 1.0
    rot = cmath.exp(1j * phi)
    return (lambda t: rot * t), w_of, rot


def _kernel_panels(potential, sign, g, phi):
    """GK15 panel evaluator panels(a, b) -> (K, E, N, True) of A and B for
    every gamma in g on the ray u = t e^{i phi}, shaped (panels, 2 n), all in
    one call (_ab_pass hands it quadrature._blocks' blocks): A's rows, then
    those of INT t k dt (B without its e^{2 i phi}).  With
    s = -2 gamma e^{i phi}, k = e^{s t - W(u)} at t = c + h x is the product
    e^{s c - W(u_c)} e^{s h x} e^{-(W(u) - W(u_c))}, u_c at the panel's centre
    (GK15's node 7, x = 0).  Per width, one matmul of the rows h w_j, h w_j t_j
    (w: Kronrod, Kronrod - Gauss) times the last factor against the middle one
    gives both rows' sums and errors, and a real one on moduli the floors.  A
    panel whose nodes may be subnormal, or whose floor is not finite as its
    factors leave float range (|Re s| h or Re W's spread over it too large),
    takes k node by node through _gk_reduce, naming a non-finite sample.
    """
    u_of, w_of, rot = _path(potential, sign, phi)
    s, n = -2.0 * g * rot, g.size
    fall, low = float(np.abs(s.real).max()), float(s.real.min())

    def panels(a, b):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        t = c[:, None] + h[:, None] * _NODES
        w = w_of(u_of(t))
        sums, floor = np.empty((a.size, 4, n), complex), np.empty((a.size, 2, n))
        with np.errstate(all="ignore"):  # a panel out of range, or whose floor is not finite, is taken node by node
            dw = w - w[:, 7:8]
            hd = h[:, None] * np.exp(-dw)
            lhs = (np.stack([hd, hd * t], 1)[:, None] * _KD[:, None]).reshape(a.size, 4, 15)  # [K, K - G] x [A, B]
            for width in (widths := set(h.tolist())):
                p = slice(None) if len(widths) == 1 else h == width
                half = np.exp(np.multiply.outer(width * _NODES[8:], s))  # e^{s h x} at x > 0; x < 0 takes 1 / it
                e = np.concatenate([1.0 / half[::-1], np.ones((1, n)), half])
                right = e if lhs.dtype == complex else e.view(float)  # a real left side takes e's parts as columns
                sums[p] = (lhs[p].reshape(-1, 15) @ right).view(complex).reshape(-1, 4, n)
                floor[p] = (np.abs(lhs[p, :2]).reshape(-1, 15) @ np.abs(e)).reshape(-1, 2, n)  # Kronrod rows: >= 0
            cen = np.exp(np.multiply.outer(c, s) - w[:, 7:8])
            sums *= cen[:, None]
            floor *= _EPS * np.abs(cen)[:, None]
            out = sums[:, :2].reshape(a.size, 2 * n), np.abs(sums[:, 2:]).reshape(a.size, 2 * n), floor.reshape(a.size, 2 * n)
            reach = fall * h + np.abs(dw.real).max(axis=1)  # each node's log |k| is within reach of its centre's
            tiny = c * low - w[:, 7].real - reach < _LOG_TINY  # a node may be subnormal (t >= 0: c low <= Re(s) c)
            j = np.flatnonzero(tiny | ~np.isfinite(out[2]).all(axis=1))
            if j.size:  # k node by node, summed as quadrature._panels sums an integrand
                kern = np.exp(np.multiply.outer(s, t[j]) - w[j]).reshape(n, -1)
                for o, v in zip(out, _gk_reduce(np.concatenate([kern, t[j].ravel() * kern]), h[j], t[j].ravel())):
                    o[j] = v
        return (*out, True)

    return panels


def _ab_pass(potential, sign, g, phi, radius):
    """A = INT e^{-2 gamma u - W} du and B = INT u e^{-2 gamma u - W} du over
    u = t e^{i phi}, t in [0, radius], for every gamma in g on shared panels.

    Returns (values, errors), each (2, n): rows A and B, one column per gamma.
    Where the kernel's fall e^{-2 Re(g') t} is steep, the initial panels halve
    towards t = 0 until the first spans at most _STEEP decay lengths.
    Otherwise its n >= _MIN_INITIAL initial panels, 2 per period of the fastest
    |2 Im g'| at least, share one width R / n up to a multiple of 2^-30, so
    bisections halve it exactly and the evaluator meets few widths; the pass
    runs to n w >= R, where R's tail bound holds.
    """
    rot = cmath.exp(1j * phi)
    gr = g * rot
    oscillation = float(np.abs(2.0 * gr.imag).max())
    steep = 2.0 * float(gr.real.max()) * radius
    if steep > _STEEP:
        breaks = radius * 0.5 ** np.arange(1, math.ceil(math.log2(steep / _STEEP)) + 1)
        edges = np.asarray(_initial_edges(0.0, radius, oscillation, breaks), dtype=float)
    else:
        n = min(_MAX_INITIAL, max(_MIN_INITIAL, math.ceil(radius * oscillation / math.pi)))
        edges = math.ldexp(math.ceil(math.ldexp(radius / n, 30)), -30) * np.arange(n + 1.0)
    kernel = _kernel_panels(potential, sign, g, phi)
    (vals, errs, _), = _adaptive(lambda a, b, _: _blocks(kernel, a, b), [edges], DEFAULT_CONFIG)
    # du = e^{i phi} dt, and B's u is e^{i phi} t
    return vals.reshape(2, g.size) * np.array([[rot], [rot * rot]]), errs.reshape(2, g.size)


def _ab_on_rays(potential, sign, g, ab, errs, phi, radii, tails):
    """The rows (A and B, their error bounds, phi, radius, tail) of the gammas
    g that missed on the real axis, with those of their best rays in place.

    Re W(t e^{i phi}) is tabled once per ray angle at quadrature's radii t and
    t + 1; gamma's log envelope there is f t - Re W, f = -2 Re(gamma e^{i phi}),
    and quadrature's _cut gives its radius on that ray, if any.  Each gamma
    takes one ray, the lowest rounded peak, then the nearest radius; those on
    one angle share one _ab_pass, cut at the largest of their radii with _cut's
    tail bound there.  A pass that raises refuses its first gamma (see
    _refusal); a gamma with no ray keeps the real axis's rows.
    """
    phis = potential.ray_sector * _RAY_FRACTIONS
    rot, m, n = np.exp(1j * phis), g.size, phis.size
    w, rise = _table(lambda t: potential.U(sign * np.multiply.outer(rot, t)).real)
    fall = -2.0 * np.multiply.outer(g, rot).real
    peak, first = np.zeros((m, n)), np.zeros((m, n), dtype=int)
    for a in range(n):  # one angle at a time keeps the envelopes (m, t) small
        first[:, a], peak[:, a], _ = _cut(fall[:, a], w[a], rise[a])
    best = np.lexsort((np.broadcast_to(phis, peak.shape), first, np.round(peak)))[:, 0]  # each gamma's ray
    suits = np.isfinite(peak).any(axis=1)  # the gammas with a ray
    for a in np.unique(best[suits]):
        grp = np.flatnonzero(suits & (best == a))
        i = first[grp, a].max()
        try:
            ab[:, grp], errs[:, grp] = _ab_pass(potential, sign, g[grp], phis[a], _RADII[i])
        except IntegrationError as exc:
            raise _refusal(potential, sign, g[grp[0]], exc, phis[a]) from exc
        phi[grp], radii[grp] = phis[a], _RADII[i]
        tails[grp] = _cut(fall[grp, a], w[a], rise[a], at=i)[2]
        errs[:, grp] += np.stack([tails[grp], tails[grp] * radii[grp]])
    return ab, errs, phi, radii, tails


def _refusal(potential, sign, gamma, miss, phi=0.0):
    """psi's IntegrationError at gamma on its last path (the ray at phi; 0 is the
    real axis) for `miss`, the IntegrationError of a pass that raised or the
    (ab, errs, tail, radius) of one that missed: that error, a tail that alone
    exceeds the tolerance, or the cancellation and why no ray rescued it."""
    gamma, (w_real, _) = complex(gamma), _table(lambda t: potential.U(sign * t))
    head = f"{_psi_head(potential, gamma)} (sign {sign:+d})"
    path = "the real axis" if phi == 0.0 else f"its best rotated ray (phi = {phi:.4g})"
    peak = max(0.0, float(np.max(-2.0 * gamma.real * _RADII - w_real)))
    cancel = f"the real axis needs cancellation from e^{peak:.0f}"
    if isinstance(miss, IntegrationError):
        return IntegrationError(f"{head} fails on {path}: {miss}; {cancel}", location=gamma)
    ab, errs, tail, radius = miss
    tol = _tolerance(ab, 0.0, DEFAULT_CONFIG)
    k = int(np.argmax(errs / tol))  # the worst of A and B; B's tail carries a factor radius
    tail *= (1.0, radius)[k]
    if tail > tol[k]:
        why = f"the tail past radius {radius:.4g} alone is bounded by {tail:.2e}"
    elif phi != 0.0:
        why = f"{cancel}, and its best rotated ray misses too"
    elif potential.ray_sector > 0.0:
        why = f"{cancel}, and no rotated ray decays below the truncation margin"
    else:
        why = f"{cancel}, and the potential has no analytic continuation to rotate the path into"
    msg = f"{head} misses its tolerance on {path}: error {errs[k]:.2e} > {tol[k]:.2e}; {why}"
    return IntegrationError(msg, location=gamma)


def _psi_head(potential: PotentialModel, gamma: complex) -> str:
    return f"psi of {potential.descriptor()} at gamma={gamma}"


def _refuse_non_finite(potential: PotentialModel, g):
    """Raise DomainError naming the first non-finite gamma of g, if any."""
    if not np.isfinite(g).all():
        raise DomainError(f"{_psi_head(potential, complex(g[~np.isfinite(g)][0]))}: gamma must be finite")


def _psi_quadrature_batch(potential: PotentialModel, sign: int, g):
    """(psi, dpsi, err, phi, radius, tail) arrays for every gamma in g.

    Uses the partially integrated form psi = 1 - 2 gamma A with
    A = INT e^{-2 gamma u - W}, B = INT u e^{-2 gamma u - W}, W(u) = U(sign u),
    so dpsi = -2A + 4 gamma B comes out of the same panel sweep.  All gammas
    share real-axis panels, truncated at the radius of the worst member of
    the batch.  A gamma whose A or B, with its tail, misses its tolerance
    there (a cancelling integrand's panels retire at the roundoff floor, or a
    small margin leaves a long tail) is integrated again on its best rotated
    ray (see _ab_on_rays), or refused (see _refusal).  Also returns, per
    gamma, its path's angle phi, the radius it was cut at and the tail bound.
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    _refuse_non_finite(potential, g)
    alpha = float(np.max(np.maximum(0.0, -2.0 * g.real)))
    radius, tail = truncation_radius(potential, alpha, sign)
    try:
        ab, errs = _ab_pass(potential, sign, g, 0.0, radius)
    except IntegrationError as exc:  # name the gamma that cancels most
        raise _refusal(potential, sign, g[np.argmin(g.real)], exc) from exc
    errs += np.array([[tail], [tail * radius]])  # B's factor u is swallowed by the truncation margin
    phi, radii, tails = np.zeros(g.size), np.full(g.size, radius), np.full(g.size, tail)
    j = np.flatnonzero(np.any(errs > _tolerance(ab, 0.0, DEFAULT_CONFIG), axis=0))
    if j.size and potential.ray_sector > 0.0:  # a custom U has no rays
        on_rays = _ab_on_rays(potential, sign, g[j], ab[:, j], errs[:, j], phi[j], radii[j], tails[j])
        ab[:, j], errs[:, j], phi[j], radii[j], tails[j] = on_rays
        j = j[np.any(errs[:, j] > _tolerance(ab[:, j], 0.0, DEFAULT_CONFIG), axis=0)]
    if j.size:  # no ray rescued these: refuse the first
        k = j[0]
        raise _refusal(potential, sign, g[k], (ab[:, k], errs[:, k], tails[k], radii[k]), phi[k])
    a_val, b_val = ab
    value = 1.0 - 2.0 * g * a_val
    deriv = -2.0 * a_val + 4.0 * g * b_val
    size = np.abs(g)
    err = (2.0 * size + 2.0) * errs[0] + 4.0 * size * errs[1]
    return value, deriv, err, phi, radii, tails


def _psi_defining_integral(potential: PotentialModel, sign: int, gamma: complex, phi: float, radius: float, tail: float):
    """psi via the defining integral with the U' factor (verification path),
    along the ray, to the radius and with the tail bound of the partially
    integrated form."""
    u_of, w_of, rot = _path(potential, sign, phi)

    def f(t):
        u = u_of(t)
        return rot * sign * potential.dU(sign * u) * np.exp(-2.0 * gamma * u - w_of(u))

    oscillation = abs(2.0 * (gamma * rot).imag)
    value, err = integrate_finite(f, 0.0, radius, oscillation=oscillation)
    return complex(value), float(err) + tail * (1.0 + radius)


def psi(potential: PotentialModel, sign: int, gamma: complex, verify: bool = False) -> complex:
    """psi_plus (sign=+1) or psi_minus (sign=-1) by quadrature.

    Integrates along the real axis, or along a rotated ray where the real
    axis misses quadrature's default tolerance; raises IntegrationError where
    neither meets it (see the module docstring).

    verify=True also evaluates the defining integral with the U' factor and
    insists the two routes agree within their combined error estimates.
    """
    gamma = complex(gamma)
    rows = _psi_quadrature_batch(potential, sign, np.array([gamma]))
    value, _, err, *ray = (v.item() for v in rows)  # the batch of one
    if verify:
        alt, alt_err = _psi_defining_integral(potential, sign, gamma, *ray)
        budget = err + alt_err + 1e-11
        if abs(value - alt) > budget:
            raise IntegrationError(
                f"psi backends disagree at gamma={gamma}: partial-integration form "
                f"{value} vs defining integral {alt} (budget {budget:.2e})"
            )
    return value


def psi_batch(potential: PotentialModel, sign: int, gammas):
    """(psi values, dpsi values) for an array of gammas in one adaptive pass.

    All gammas share quadrature panels (one factored kernel gives each its A
    and B), with the truncation radius and oscillation guard taken from the
    worst member of the batch.  This is what keeps contour integration
    affordable for potentials without a closed form.  A gamma whose integrals
    miss quadrature's default tolerance there is taken along a rotated ray, in one pass
    with the batch's other gammas on that angle, and the batch raises
    IntegrationError if that misses it too, as psi does.
    """
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    if g.size == 0:
        return np.zeros(0, complex), np.zeros(0, complex)
    value, deriv, *_ = _psi_quadrature_batch(potential, sign, g)
    return value, deriv


# ---------------------------------------------------------------------------
# handles: potential + branch
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CharFunctionHandle:
    """Bound (potential, branch).

    The handle keeps no state between calls: every call computes psi afresh.
    branch 'full' evaluates Z = 1 - psi+ psi-; 'plus'/'minus' evaluate the
    even-potential factors Z+- = 1 -+ psi.  A tuple of branches evaluates
    them as rows (k, n), all from the same psi.
    """

    potential: PotentialModel
    branch: str | tuple = "full"

    def __post_init__(self):
        names = (self.branch,) if isinstance(self.branch, str) else self.branch
        if not (isinstance(names, tuple) and names and all(b in _BRANCHES for b in names)):
            raise DomainError(f"branch must be one of {_BRANCHES}, got {self.branch!r}")
        if {"plus", "minus"} & set(names) and not self.potential.is_symmetric:
            raise DomainError("plus/minus branches require an even potential")

    def values_batch(self, gammas):
        """(psi+, dpsi+, psi-, dpsi-) row arrays for an array of gammas.

        Width sigma takes the unit model at sigma gamma, dpsi times sigma.
        Gaussians take the closed form; any other family one psi_batch call per
        sign (one for an even U), so a value depends only on the batch it is in.
        """
        g = np.atleast_1d(np.asarray(gammas, dtype=complex))
        _refuse_non_finite(self.potential, g)
        s = self.potential.sigma
        if s != 1.0:
            unit = dataclasses.replace(self, potential=self.potential._unit)
            try:
                pp, dp, pm, dm = unit.values_batch(s * g)
            except IntegrationError as exc:  # name the gamma psi refused as the caller passed it
                hit = g[s * g == exc.location]
                if hit.size == 0:
                    raise
                head = _psi_head(self.potential, complex(hit[0]))
                raise exc.renamed(_psi_head(unit.potential, exc.location), head, complex(hit[0])) from None
            return pp, s * dp, pm, s * dm
        if self.potential.family == "gaussian":
            pp, dp = gaussian_closed_form(g)
            return pp, dp, pp, dp
        pp, dp = psi_batch(self.potential, +1, g)
        if self.potential.is_symmetric:
            return pp, dp, pp, dp
        pm, dm = psi_batch(self.potential, -1, g)
        return pp, dp, pm, dm


_BRANCH_SIGN = {"plus": +1, "minus": -1}  # Z+- = 1 -+ psi; f+- = +-e^{-gamma x} pt^+ on x > 0


def _z_and_dz(branch, pp, dp, pm, dm):
    """(Z, Z') arrays of a branch from the values_batch rows (psi+, dpsi+, psi-, dpsi-),
    or of a tuple of branches as rows (k, n).

    The one place that knows the branches: Z = 1 - psi+ psi- (full),
    Z+- = 1 -+ psi (plus, minus by _BRANCH_SIGN), with their derivatives.
    """
    if not isinstance(branch, str):
        z, dz = zip(*(_z_and_dz(b, pp, dp, pm, dm) for b in branch))
        return np.array(z), np.array(dz)
    if branch == "full":
        return 1.0 - pp * pm, -(pm * dp + pp * dm)
    return (1.0 - pp, -dp) if _BRANCH_SIGN[branch] > 0 else (1.0 + pp, dp)


def z_value_batch(handle: CharFunctionHandle, gammas):
    """Z(gamma) of the handle's branch (rows for a tuple); accepts and returns numpy arrays."""
    return _z_and_dz(handle.branch, *handle.values_batch(gammas))[0]


def z_log_derivative_batch(handle: CharFunctionHandle, gammas):
    """Z'/Z of the handle's branch (rows for a tuple); accepts and returns numpy arrays.

    Raises NearZeroError at the first gamma where some |Z| < 1e-14; callers
    in the rootfinder treat that as having landed on a root.
    """
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    z, dz = _z_and_dz(handle.branch, *handle.values_batch(g))
    small = np.abs(z) < NEAR_ZERO_TOL
    if small.any():
        i = np.argwhere(small)[0][-1]
        raise NearZeroError(complex(g[i]), float(np.abs(z[..., i]).min()))
    return dz / z
