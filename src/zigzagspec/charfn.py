"""Characteristic functions psi+-, Z, Z+- and their derivatives.

With lambda_refr = 0 the point spectrum of the zigzag generator is exactly
the zero set of

    Z(gamma) = 1 - psi_plus(gamma) psi_minus(gamma),

where (after folding both half lines onto u >= 0)

    psi_s(gamma) = 1 - 2 gamma INT_0^inf e^{-2 gamma u - U(s u)} du,  s = +-1.

For even potentials psi_plus = psi_minus =: psi and Z factors as
Z = (1 - psi)(1 + psi), whose factors Z+ and Z- are tracked as separate
branches.  Two backends: adaptive quadrature for any potential, and for the
Gaussian family the closed form

    psi_plus(gamma) = 1 - sqrt(2 pi) gamma erfcx(sqrt(2) gamma)      (sigma = 1)

with psi_sigma(gamma) = psi_1(sigma gamma) handling general widths exactly.

The quadrature backend integrates along the real axis first.  For
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
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationError, NearZeroError, TruncationError
from .potential import PotentialModel
from .quadrature import DEFAULT_CONFIG, DecayProfile, QuadratureConfig, integrate_finite, truncation_radius
from .specialfn import erfcx_complex

__all__ = [
    "CharFunctionHandle",
    "make_handle",
    "psi",
    "psi_derivative",
    "psi_batch",
    "z_value",
    "z_log_derivative",
    "z_value_batch",
    "z_log_derivative_batch",
    "gaussian_closed_form_psi",
    "gaussian_closed_form_dpsi",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

NEAR_ZERO_TOL = 1e-14

_BRANCHES = ("full", "plus", "minus")


# ---------------------------------------------------------------------------
# Gaussian closed form (sigma = 1; widths handled by the gamma rescaling)
# ---------------------------------------------------------------------------


def _gaussian_closed_form(gamma):
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


def gaussian_closed_form_psi(gamma):
    """psi(gamma) for U(x) = x^2/2; vectorized over gamma."""
    out = np.asarray(_gaussian_closed_form(gamma)[0])
    return out if out.ndim else complex(out)


def gaussian_closed_form_dpsi(gamma):
    """d psi / d gamma for U(x) = x^2/2; vectorized over gamma."""
    out = np.asarray(_gaussian_closed_form(gamma)[1])
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# quadrature backend
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
    return (lambda t: rot * t), (lambda u: potential.U_analytic(sign * u)), rot


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


def _tolerance(ab, cfg):
    """The requested tolerance max(abs_tol, rel_tol |value|) of each integral."""
    return np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(ab))


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
        if np.all(ray_errs <= _tolerance(ray_ab, cfg)):
            return ray_ab[:, 0], ray_errs[:, 0], phi, radius, tail
        attempts.append((ray_ab[:, 0], ray_errs[:, 0]))

    def worst(ab, errs):  # (error, tolerance) of the integral furthest past it
        tol = _tolerance(ab, cfg)
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


def _ab_integrals(potential, sign, g, cfg):
    """(A, B) rows for every gamma in g, with their errors and per-gamma
    (phi, radius, tail).

    All gammas share real-axis panels, truncated at the radius of the worst
    member of the batch.  A gamma whose A or B misses its requested tolerance
    there (the panels retire at the roundoff floor of a cancelling integrand)
    is integrated again on a rotated ray, or refused with IntegrationError.
    """
    alpha = float(np.max(np.maximum(0.0, -2.0 * g.real)))
    profile = DecayProfile(potential=potential, alpha=alpha, direction=int(sign), center=0.0)
    radius, tail = truncation_radius(profile, cfg)
    ab, errs = _ab_pass(potential, sign, g, 0.0, radius, cfg)
    n = g.size
    phi = np.zeros(n)
    radii = np.full(n, radius)
    tails = np.full(n, tail)
    for j in np.flatnonzero(np.any(errs > _tolerance(ab, cfg), axis=0)):
        ab[:, j], errs[:, j], phi[j], radii[j], tails[j] = _ab_on_ray(
            potential, sign, complex(g[j]), cfg, ab[:, j].copy(), errs[:, j].copy()
        )
    return ab, errs, phi, radii, tails


def _psi_quadrature(potential: PotentialModel, sign: int, gamma: complex, cfg: QuadratureConfig):
    """(psi, dpsi, err, phi) by adaptive quadrature of the folded integrals.

    Uses the partially integrated form 1 - 2 gamma A with
    A = INT e^{-2 gamma u - W}, B = INT u e^{-2 gamma u - W}, W(u) = U(sign u),
    so dpsi = -2A + 4 gamma B comes out of the same panel sweep; phi is the
    angle of the ray the integrals were taken along.
    """
    ab, errs, phi, radius, tail = _ab_integrals(potential, sign, np.array([gamma]), cfg)
    a_val, b_val = ab[:, 0]
    a_err, b_err = errs[:, 0]
    value = 1.0 - 2.0 * gamma * a_val
    deriv = -2.0 * a_val + 4.0 * gamma * b_val
    # polynomial factor u in B is swallowed by the truncation margin
    tail = tail[0]
    err = (2.0 * abs(gamma) + 2.0) * (a_err + tail) + 4.0 * abs(gamma) * (b_err + tail * radius[0])
    return complex(value), complex(deriv), float(err), float(phi[0])


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
        du_of = potential.dU
    else:
        profile = _RayEnvelope(potential, sign, gamma, phi)
        du_of = potential.dU_analytic
    radius, tail = truncation_radius(profile, cfg)
    u_of, w_of, rot = _path(potential, sign, phi)

    def f(t):
        u = u_of(t)
        return rot * sign * du_of(sign * u) * np.exp(-2.0 * gamma * u - w_of(u))

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
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    gamma = complex(gamma)
    value, _, err, phi = _psi_quadrature(potential, sign, gamma, cfg)
    if verify:
        alt, alt_err = _psi_defining_integral(potential, sign, gamma, cfg, phi)
        budget = err + alt_err + 1e-11
        if abs(value - alt) > budget:
            raise IntegrationError(
                f"psi backends disagree at gamma={gamma}: partial-integration form "
                f"{value} vs defining integral {alt} (budget {budget:.2e})"
            )
    return value


def psi_derivative(
    potential: PotentialModel,
    sign: int,
    gamma: complex,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """d psi_sign / d gamma by quadrature (shares panels and path with psi)."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    _, deriv, _, _ = _psi_quadrature(potential, sign, complex(gamma), cfg)
    return deriv


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
    a_val, b_val = _ab_integrals(potential, sign, g, cfg)[0]
    return 1.0 - 2.0 * g * a_val, -2.0 * a_val + 4.0 * g * b_val


# ---------------------------------------------------------------------------
# handles: branch + backend + memo
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CharFunctionHandle:
    """Bound (potential, branch, backend, config) with per-gamma memoization.

    branch 'full' evaluates Z = 1 - psi+ psi-; 'plus'/'minus' evaluate the
    even-potential factors Z+- = 1 -+ psi.  The closed-form backend is only
    legal for the gaussian family.
    """

    potential: PotentialModel
    branch: str = "full"
    backend: str = "quadrature"
    cfg: QuadratureConfig = DEFAULT_CONFIG
    _memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.branch not in _BRANCHES:
            raise DomainError(f"branch must be one of {_BRANCHES}, got {self.branch!r}")
        if self.backend not in ("quadrature", "gaussian-closed-form"):
            raise DomainError(f"unknown backend {self.backend!r}")
        if self.backend == "gaussian-closed-form" and self.potential.family != "gaussian":
            raise DomainError("closed-form backend requires the gaussian family")
        if self.branch in ("plus", "minus") and not self.potential.is_symmetric:
            raise DomainError("plus/minus branches require an even potential")

    # psi+-(gamma) and derivatives, all four at once, memoized
    def _values(self, gamma: complex):
        key = complex(gamma)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.backend == "gaussian-closed-form":
            s = self.potential.sigma
            pp, dp = _gaussian_closed_form(s * key)
            pp, dp = complex(pp), s * complex(dp)
            vals = (pp, dp, pp, dp)
        elif self.potential.is_symmetric:
            pp, dp, _, _ = _psi_quadrature(self.potential, +1, key, self.cfg)
            vals = (pp, dp, pp, dp)
        else:
            pp, dp, _, _ = _psi_quadrature(self.potential, +1, key, self.cfg)
            pm, dm, _, _ = _psi_quadrature(self.potential, -1, key, self.cfg)
            vals = (pp, dp, pm, dm)
        if len(self._memo) > 200000:
            self._memo.clear()
        self._memo[key] = vals
        return vals

    def psi_at(self, gamma: complex):
        """(psi+, dpsi+, psi-, dpsi-) at gamma, no near-zero guard.

        Unlike z_value this is safe to call at eigenvalues, where Z itself
        vanishes but the psi values are perfectly regular.
        """
        return self._values(complex(gamma))

    def values_batch(self, gammas):
        """(psi+, dpsi+, psi-, dpsi-) row arrays for an array of gammas."""
        g = np.atleast_1d(np.asarray(gammas, dtype=complex))
        if self.backend == "gaussian-closed-form":
            s = self.potential.sigma
            pp, dp = _gaussian_closed_form(s * g)
            dp = s * dp
            return pp, dp, pp, dp
        out = np.zeros((4, g.size), dtype=complex)
        miss = [i for i, z in enumerate(g) if complex(z) not in self._memo]
        if miss:
            zm = g[miss]
            pp, dp = psi_batch(self.potential, +1, zm, self.cfg)
            if self.potential.is_symmetric:
                pm, dm = pp, dp
            else:
                pm, dm = psi_batch(self.potential, -1, zm, self.cfg)
            for j, i in enumerate(miss):
                self._memo[complex(g[i])] = (
                    complex(pp[j]),
                    complex(dp[j]),
                    complex(pm[j]),
                    complex(dm[j]),
                )
        for i, z in enumerate(g):
            out[:, i] = self._memo[complex(z)]
        return out[0], out[1], out[2], out[3]


def make_handle(
    potential: PotentialModel,
    branch: str = "full",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    backend: Optional[str] = None,
) -> CharFunctionHandle:
    """Build a handle, defaulting to the closed form when it is available."""
    if backend is None:
        backend = "gaussian-closed-form" if potential.family == "gaussian" else "quadrature"
    return CharFunctionHandle(potential=potential, branch=branch, backend=backend, cfg=cfg)


def z_value(handle: CharFunctionHandle, gamma: complex) -> complex:
    pp, _, pm, _ = handle._values(gamma)
    if handle.branch == "full":
        return 1.0 - pp * pm
    if handle.branch == "plus":
        return 1.0 - pp
    return 1.0 + pp


def z_log_derivative(handle: CharFunctionHandle, gamma: complex) -> complex:
    """Z'(gamma)/Z(gamma) for the handle's branch.

    Raises NearZeroError when |Z| < 1e-14; callers in the rootfinder treat
    that as having landed on a root.
    """
    pp, dp, pm, dm = handle._values(gamma)
    if handle.branch == "full":
        z = 1.0 - pp * pm
        num = -(pm * dp + pp * dm)
    elif handle.branch == "plus":
        z = 1.0 - pp
        num = -dp
    else:
        z = 1.0 + pp
        num = dp
    if abs(z) < NEAR_ZERO_TOL:
        raise NearZeroError(gamma, abs(z))
    return num / z


def z_value_batch(handle: CharFunctionHandle, gammas):
    """Vectorized z_value; accepts and returns numpy arrays."""
    pp, _, pm, _ = handle.values_batch(gammas)
    if handle.branch == "full":
        return 1.0 - pp * pm
    if handle.branch == "plus":
        return 1.0 - pp
    return 1.0 + pp


def z_log_derivative_batch(handle: CharFunctionHandle, gammas):
    """Vectorized Z'/Z; raises NearZeroError at the first numerically-zero Z."""
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    pp, dp, pm, dm = handle.values_batch(g)
    if handle.branch == "full":
        z = 1.0 - pp * pm
        num = -(pm * dp + pp * dm)
    elif handle.branch == "plus":
        z = 1.0 - pp
        num = -dp
    else:
        z = 1.0 + pp
        num = dp
    small = np.abs(z) < NEAR_ZERO_TOL
    if small.any():
        i = int(np.argmax(small))
        raise NearZeroError(complex(g[i]), float(np.abs(z[i])))
    return num / z
