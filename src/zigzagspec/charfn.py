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

Quadrature integrates along the real axis first.  For
Re gamma < 0 the integrand can peak far above the integral (near e^18 at
gamma = -3 - 4.5i for the Gaussian), and its panels then retire at the
roundoff floor short of the requested tolerance max(abs_tol, rel_tol |A|).
Such a gamma is integrated again along a ray u = t e^{i phi} inside the
potential's ``ray_sector`` (Cauchy's theorem moves the path; see Trefethen &
Weideman, SIAM Rev. 2014), trying the rays whose envelope peaks lowest first.
Where no ray meets the tolerance, or a custom potential has no analytic
continuation, psi raises IntegrationError instead of returning the short
value.  Integrals that meet their tolerance on the real axis stay there.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .errors import DomainError, IntegrationError, NearZeroError, TruncationError
from .potential import PotentialModel
from .quadrature import DEFAULT_CONFIG, DecayProfile, QuadratureConfig, _tolerance, integrate_finite, truncation_radius
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
_MAX_RAYS = 4


def _path(potential: PotentialModel, sign: int, phi: float):
    """(u(t), W(u), du/dt) for the ray u = t e^{i phi}, W(u) = U(sign u) - U(0).

    phi = 0 is the real axis in real arithmetic; any other ray needs the
    analytic continuation of U.
    """
    if phi == 0.0:
        u0 = potential.U(0.0)
        return (lambda t: t), (lambda u: potential.U(sign * u) - u0), 1.0
    rot = cmath.exp(1j * phi)
    return (lambda t: rot * t), (lambda u: potential.U(sign * u)), rot


@dataclasses.dataclass(frozen=True)
class _RayEnvelope:
    """log |e^{-2 gamma u - W(u)}| along the ray u = t e^{i phi}.

    Stands in for a DecayProfile in truncation_radius; its maximum over t is
    the cancellation the quadrature must survive on that ray.
    """

    potential: PotentialModel
    sign: int
    gamma: complex
    phi: float

    def log_envelope(self, t):
        u, w, _ = _path(self.potential, self.sign, self.phi)
        z = u(np.asarray(t, dtype=float))
        return np.real(-2.0 * self.gamma * z - w(z))


def _ab_pass(potential, sign, g, phi, radius, cfg):
    """A = INT e^{-2 gamma u - W} du and B = INT u e^{-2 gamma u - W} du over
    u = t e^{i phi}, t in [0, radius], for every gamma in g on shared panels.

    Returns (values, errors), each (2, n): rows A and B, one column per gamma.
    """
    u_of, w_of, rot = _path(potential, sign, phi)

    def rows(t):
        u = u_of(t)
        kernel = np.exp(-2.0 * g[:, None] * u[None, :] - w_of(u)[None, :])
        return np.concatenate([kernel, u[None, :] * kernel], axis=0)

    oscillation = float(np.max(np.abs(2.0 * (g * rot).imag)))
    vals, errs = integrate_finite(rows, 0.0, radius, cfg, oscillation=oscillation)
    vals = rot * vals  # du = e^{i phi} dt; exact for phi = 0
    return vals.reshape(2, g.size), errs.reshape(2, g.size)


def _ab_on_ray(potential, sign, gamma, cfg, ab, errs):
    """(A, B), their errors, phi, radius and tail for one gamma whose
    real-axis integrals `ab` missed their tolerance by `errs`, taken along the
    first admissible ray that meets it.

    Rays are tried in order of their envelope peak, the least cancellation
    first.  Raises IntegrationError when none meets the tolerance, naming the
    cancellation on the real axis.
    """
    rays = []
    phis = potential.ray_sector * _RAY_FRACTIONS if potential.ray_sector > 0.0 else []
    for phi in phis:
        env = _RayEnvelope(potential, sign, gamma, float(phi))
        try:
            radius, tail = truncation_radius(env, cfg)
        except TruncationError:
            continue
        peak = float(np.max(env.log_envelope(np.linspace(0.0, radius, 257))))
        rays.append((round(peak), radius, float(phi), tail))
    attempts = [(ab, errs)]
    for _, radius, phi, tail in sorted(rays)[:_MAX_RAYS]:
        try:
            ray_ab, ray_errs = _ab_pass(potential, sign, np.array([gamma]), phi, radius, cfg)
        except IntegrationError:
            continue
        if np.all(ray_errs <= _tolerance(ray_ab, 0.0, cfg)):
            return ray_ab[:, 0], ray_errs[:, 0], phi, radius, tail
        attempts.append((ray_ab[:, 0], ray_errs[:, 0]))

    def worst(ab, errs):  # (error, tolerance) of the integral furthest past it
        tol = _tolerance(ab, 0.0, cfg)
        i = int(np.argmax(errs / tol))
        return errs[i], tol[i]

    err, tol = min((worst(*at) for at in attempts), key=lambda et: et[0] / et[1])
    real = _RayEnvelope(potential, sign, gamma, 0.0)
    peak = float(np.max(real.log_envelope(np.linspace(0.0, truncation_radius(real, cfg)[0], 257))))
    if rays:
        why = f"the best {min(len(rays), _MAX_RAYS)} admissible rotated rays missed it too"
    else:
        why = f"{potential.descriptor()} has no analytic continuation to rotate the path into"
    raise IntegrationError(
        f"psi at gamma={gamma} (sign {sign:+d}) misses its tolerance: error {err:.2e} > "
        f"{tol:.2e}; on the real axis it needs cancellation from e^{peak:.0f}, and {why}",
        location=gamma,
    )


def _psi_quadrature_batch(potential: PotentialModel, sign: int, g, cfg: QuadratureConfig):
    """(psi, dpsi, err, phi) arrays for every gamma in g from one adaptive pass.

    Uses the partially integrated form psi = 1 - 2 gamma A with
    A = INT e^{-2 gamma u - W}, B = INT u e^{-2 gamma u - W}, W(u) = U(sign u),
    so dpsi = -2A + 4 gamma B comes out of the same panel sweep.  All gammas
    share real-axis panels, truncated at the radius of the worst member of
    the batch.  A gamma whose A or B misses its requested tolerance there (the
    panels retire at the roundoff floor of a cancelling integrand) is
    integrated again on a rotated ray, or refused with IntegrationError; phi
    is the angle of the ray each gamma was integrated along.
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    alpha = float(np.max(np.maximum(0.0, -2.0 * g.real)))
    profile = DecayProfile(potential=potential, alpha=alpha, direction=int(sign), center=0.0)
    radius, tail = truncation_radius(profile, cfg)
    ab, errs = _ab_pass(potential, sign, g, 0.0, radius, cfg)
    n = g.size
    phi = np.zeros(n)
    radii = np.full(n, radius)
    tails = np.full(n, tail)
    for j in np.flatnonzero(np.any(errs > _tolerance(ab, 0.0, cfg), axis=0)):
        ab[:, j], errs[:, j], phi[j], radii[j], tails[j] = _ab_on_ray(
            potential, sign, complex(g[j]), cfg, ab[:, j].copy(), errs[:, j].copy()
        )
    a_val, b_val = ab
    value = 1.0 - 2.0 * g * a_val
    deriv = -2.0 * a_val + 4.0 * g * b_val
    # polynomial factor u in B is swallowed by the truncation margin
    size = np.abs(g)
    err = (2.0 * size + 2.0) * (errs[0] + tails) + 4.0 * size * (errs[1] + tails * radii)
    return value, deriv, err, phi


def _psi_defining_integral(
    potential: PotentialModel, sign: int, gamma: complex, cfg: QuadratureConfig, phi: float = 0.0
):
    """psi via the defining integral with the U' factor (verification path),
    along the same ray as the partially integrated form."""
    if phi == 0.0:
        profile = DecayProfile(
            potential=potential,
            alpha=max(0.0, -2.0 * gamma.real),
            direction=int(sign),
            center=0.0,
        )
    else:
        profile = _RayEnvelope(potential, sign, gamma, phi)
    radius, tail = truncation_radius(profile, cfg)
    u_of, w_of, rot = _path(potential, sign, phi)

    def f(t):
        u = u_of(t)
        return rot * sign * potential.dU(sign * u) * np.exp(-2.0 * gamma * u - w_of(u))

    oscillation = abs(2.0 * (gamma * rot).imag)
    value, err = integrate_finite(f, 0.0, radius, cfg, oscillation=oscillation)
    return complex(value), float(err) + tail * (1.0 + radius)


def psi(
    potential: PotentialModel,
    sign: int,
    gamma: complex,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    verify: bool = False,
) -> complex:
    """psi_plus (sign=+1) or psi_minus (sign=-1) by quadrature.

    Integrates along the real axis, or along a rotated ray where the real
    axis misses the tolerance of cfg; raises IntegrationError where neither
    meets it (see the module docstring).

    verify=True also evaluates the defining integral with the U' factor and
    insists the two routes agree within their combined error estimates.
    """
    gamma = complex(gamma)
    rows = _psi_quadrature_batch(potential, sign, np.array([gamma]), cfg)
    value, _, err, phi = (v.item() for v in rows)  # the batch of one
    if verify:
        alt, alt_err = _psi_defining_integral(potential, sign, gamma, cfg, phi)
        budget = err + alt_err + 1e-11
        if abs(value - alt) > budget:
            raise IntegrationError(
                f"psi backends disagree at gamma={gamma}: partial-integration form "
                f"{value} vs defining integral {alt} (budget {budget:.2e})"
            )
    return value


def psi_batch(potential: PotentialModel, sign: int, gammas, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """(psi values, dpsi values) for an array of gammas in one adaptive pass.

    All gammas share quadrature panels (2 rows each: kernel and u * kernel),
    with the truncation radius and oscillation guard taken from the worst
    member of the batch.  This is what keeps contour integration affordable
    for potentials without a closed form.  A gamma whose integrals miss the
    tolerance of cfg there is taken alone along a rotated ray, and the batch
    raises IntegrationError if that misses it too, as psi does.
    """
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    if g.size == 0:
        return np.zeros(0, complex), np.zeros(0, complex)
    value, deriv, _, _ = _psi_quadrature_batch(potential, sign, g, cfg)
    return value, deriv


# ---------------------------------------------------------------------------
# handles: potential + branch
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CharFunctionHandle:
    """Bound (potential, branch, config).

    The handle keeps no state between calls: every call computes psi afresh.
    branch 'full' evaluates Z = 1 - psi+ psi-; 'plus'/'minus' evaluate the
    even-potential factors Z+- = 1 -+ psi.
    """

    potential: PotentialModel
    branch: str = "full"
    cfg: QuadratureConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.branch not in _BRANCHES:
            raise DomainError(f"branch must be one of {_BRANCHES}, got {self.branch!r}")
        if self.branch in ("plus", "minus") and not self.potential.is_symmetric:
            raise DomainError("plus/minus branches require an even potential")

    def values_batch(self, gammas):
        """(psi+, dpsi+, psi-, dpsi-) row arrays for an array of gammas.

        Width sigma takes the unit model at sigma gamma, dpsi times sigma.
        Gaussians take the closed form; any other family one psi_batch call per
        sign (one for an even U), so a value depends only on the batch it is in.
        """
        g = np.atleast_1d(np.asarray(gammas, dtype=complex))
        s = self.potential.sigma
        if s != 1.0:  # errors on the way name the unit model and sigma gamma
            unit = dataclasses.replace(self, potential=self.potential._unit)
            pp, dp, pm, dm = unit.values_batch(s * g)
            return pp, s * dp, pm, s * dm
        if self.potential.family == "gaussian":
            pp, dp = gaussian_closed_form(g)
            return pp, dp, pp, dp
        pp, dp = psi_batch(self.potential, +1, g, self.cfg)
        if self.potential.is_symmetric:
            return pp, dp, pp, dp
        pm, dm = psi_batch(self.potential, -1, g, self.cfg)
        return pp, dp, pm, dm


def _z_and_dz(branch: str, pp, dp, pm, dm):
    """(Z, Z') arrays of a branch from the values_batch rows (psi+, dpsi+, psi-, dpsi-).

    The one place that knows the branches: Z = 1 - psi+ psi- (full),
    Z+ = 1 - psi (plus) and Z- = 1 + psi (minus), with their derivatives.
    """
    if branch == "full":
        return 1.0 - pp * pm, -(pm * dp + pp * dm)
    if branch == "plus":
        return 1.0 - pp, -dp
    return 1.0 + pp, dp


def z_value_batch(handle: CharFunctionHandle, gammas):
    """Z(gamma) of the handle's branch; accepts and returns numpy arrays."""
    return _z_and_dz(handle.branch, *handle.values_batch(gammas))[0]


def z_log_derivative_batch(handle: CharFunctionHandle, gammas):
    """Z'/Z of the handle's branch; accepts and returns numpy arrays.

    Raises NearZeroError at the first |Z| < 1e-14; callers in the rootfinder
    treat that as having landed on a root.
    """
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    z, dz = _z_and_dz(handle.branch, *handle.values_batch(g))
    small = np.abs(z) < NEAR_ZERO_TOL
    if small.any():
        i = int(np.argmax(small))
        raise NearZeroError(complex(g[i]), float(np.abs(z[i])))
    return dz / z
