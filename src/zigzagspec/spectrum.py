"""Spectrum assembly: search region, root search per branch, gap, scaling.

With zero refreshment the point spectrum of the generator equals the zero set
of Z; for even potentials it splits into the zero sets of Z+ and Z- (found
independently and labelled).  The imaginary extent of the search region is
certified by |Z| >= 1 - |psi+ psi-| >= 1/2 once |psi+ psi-| < 1/2, which the
Riemann-Lebesgue decay of psi guarantees for large |Im gamma|.

For real U, Z(conj gamma) = conj Z(gamma), so the spectrum is closed under
conjugation, and only the upper half-plane is searched: per branch, the
rectangle over the region's real span whose imaginary span covers the
region's upper part and the reflection of its lower part.  When the region
touches the real axis that rectangle starts at Im = -dilation, so real
eigenvalues sit inside the contour.  Each root with Im > 0 is emitted with
its exact conjugate (same branch, multiplicity and residual); real roots are
emitted once.  A root found in the band -dilation <= Im < 0 must be the
conjugate of a root found above the axis, within 1e-8 (a missed root would
break that); the band roots are then dropped, and so is every eigenvalue
outside the requested region.  Pairs thus share their real part bit for bit,
and the (-Re, Im) order of the result does not depend on last-ulp noise of
the quadrature.  Regions need not be symmetric, but they must contain the
eigenvalue 0.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional, Tuple

import numpy as np

from .charfn import CharFunctionHandle, z_log_derivative_batch, z_value_batch
from .errors import DomainError, GapUndeterminedError, WindingError
from .potential import PotentialModel, check_assumptions
from .rootfinder import (
    DEFAULT_ROOT_CONFIG,
    ComplexRegion,
    RootfinderConfig,
    locate_zeros,
)

__all__ = [
    "EigenvalueRecord",
    "SpectrumResult",
    "compute_spectrum",
    "spectral_gap",
    "rescale_spectrum",
    "auto_region",
    "default_re_range",
]

_ZERO_SNAP = 1e-8
_CONJ_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class EigenvalueRecord:
    gamma: complex
    branch: str  # full | plus | minus
    multiplicity: int
    residual: float


@dataclasses.dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: Tuple[EigenvalueRecord, ...]  # descending Re, then ascending Im
    gap: Optional[float]
    region: ComplexRegion
    potential_descriptor: str
    diagnostics: dict


def default_re_range(potential: PotentialModel) -> Tuple[float, float]:
    """Real range [-4/sigma, 0.1] of the default region, sigma the width."""
    return -4.0 / potential.sigma, 0.1


def auto_region(
    potential: PotentialModel,
    re_min: Optional[float] = None,
) -> ComplexRegion:
    """Default search region [re_min, 0.1] x [-B, B].

    re_min defaults to the lower end of `default_re_range`.  B climbs a
    half-unit ladder at alpha = re_min until |psi+ psi-| < 1/2 on three
    consecutive rungs, then adds a half-unit margin; above B every
    |Z| >= 1/2, so no eigenvalue escapes the box.
    """
    default_min, re_max = default_re_range(potential)
    if re_min is None:
        re_min = default_min
    if not -math.inf < re_min < 0.0:
        raise DomainError(f"auto region needs a finite re_min < 0, got {re_min!r}")
    handle = CharFunctionHandle(potential)
    betas = 0.5 * np.arange(1, 257)
    streak = 0
    bound = None
    # rung batches keep quadrature psi affordable
    for start in range(0, len(betas), 8):
        chunk = betas[start : start + 8]
        pp, _, pm, _ = handle.values_batch(re_min + 1j * chunk)
        for beta, prod in zip(chunk, np.abs(pp * pm)):
            if prod < 0.5:
                streak += 1
                if streak == 3:
                    bound = beta + 0.5
                    break
            else:
                streak = 0
        if bound is not None:
            break
    if bound is None:
        raise GapUndeterminedError(
            f"could not certify an imaginary bound at Re = {re_min} (|psi+ psi-| stayed >= 1/2)"
        )
    return ComplexRegion(re_min, re_max, -float(bound), float(bound))


def _search_region(region: ComplexRegion, cfg: RootfinderConfig) -> ComplexRegion:
    """Upper-half image of the region and of its reflection in the real axis."""
    if region.im_min <= 0.0 <= region.im_max:
        bottom = -cfg.dilation
    else:
        bottom = min(abs(region.im_min), abs(region.im_max))
    top = max(region.im_max, -region.im_min, -bottom)  # holds the band's mirror
    return ComplexRegion(region.re_min, region.re_max, bottom, top, region.edge_samples)


def _collect(handle: CharFunctionHandle, region: ComplexRegion, cfg: RootfinderConfig):
    """One branch's eigenvalues in the region, and the conjugate defect of the
    roots found in the band below the real axis."""
    fvec = functools.partial(z_value_batch, handle)
    ldvec = functools.partial(z_log_derivative_batch, handle)
    roots = locate_zeros(fvec, ldvec, _search_region(region, cfg), cfg).roots
    upper = [r.location for r in roots if r.location.imag > 0]
    defect = max(
        (
            min((abs(u.conjugate() - r.location) for u in upper), default=math.inf)
            for r in roots
            if r.location.imag < 0
        ),
        default=0.0,
    )
    records = []
    for r in roots:
        gamma = 0.0j if abs(r.location) <= _ZERO_SNAP else r.location
        if gamma.imag < 0:
            continue  # a band root, counted in the defect above
        for g in (gamma, gamma.conjugate()) if gamma.imag > 0 else (gamma,):
            if region.contains(g):
                records.append(EigenvalueRecord(g, handle.branch, r.multiplicity, r.residual))
    return records, defect


def _validate(records, defect, descriptor):
    """Structural sanity: conjugate defect, nonpositive real parts, 0 simple."""
    if defect > _CONJ_TOL:
        raise WindingError(
            f"{descriptor}: conjugate closure violated by {defect:.2e} (roots missed?)"
        )
    zeros = [r for r in records if r.gamma == 0]
    if len(zeros) != 1 or zeros[0].multiplicity != 1:
        raise WindingError(
            f"{descriptor}: expected the simple eigenvalue 0, found {zeros!r} "
            "(search region may exclude it)"
        )
    for r in records:
        if r.gamma != 0 and r.gamma.real > 1e-8:
            raise WindingError(f"{descriptor}: eigenvalue {r.gamma} has positive real part")


def compute_spectrum(
    potential: PotentialModel,
    region: Optional[ComplexRegion] = None,
    cfg: RootfinderConfig = DEFAULT_ROOT_CONFIG,
) -> SpectrumResult:
    """All eigenvalues in the region (default: `auto_region`).

    Even potentials are searched per branch (Z+ then Z-) and the union is
    returned with branch labels; otherwise the full Z is used.  Assumption
    checks are advisory only and land in diagnostics, never gating.
    """
    if region is None:
        region = auto_region(potential)
    diagnostics = {"region": dataclasses.asdict(region)}
    try:
        diagnostics["assumptions"] = check_assumptions(potential).statuses
    except Exception as exc:  # advisory by design
        diagnostics["assumptions"] = f"check failed: {exc}"

    diagnostics["search_region"] = dataclasses.asdict(_search_region(region, cfg))
    branches = ("plus", "minus") if potential.is_symmetric else ("full",)
    records = []
    defect = 0.0
    for branch in branches:
        handle = CharFunctionHandle(potential, branch)
        recs, branch_defect = _collect(handle, region, cfg)
        records.extend(recs)
        defect = max(defect, branch_defect)
        diagnostics[f"winding_{branch}"] = sum(r.multiplicity for r in recs)

    _validate(records, defect, potential.descriptor())
    diagnostics["conjugate_defect"] = defect
    records.sort(key=lambda r: (-r.gamma.real, r.gamma.imag))

    nonzero_res = [-r.gamma.real for r in records if r.gamma != 0]
    gap = min(nonzero_res) if nonzero_res else None
    return SpectrumResult(
        eigenvalues=tuple(records),
        gap=gap,
        region=region,
        potential_descriptor=potential.descriptor(),
        diagnostics=diagnostics,
    )


def spectral_gap(result: SpectrumResult) -> float:
    """kappa = -max Re over nonzero eigenvalues of the result."""
    candidates = [-r.gamma.real for r in result.eigenvalues if r.gamma != 0]
    if not candidates:
        raise GapUndeterminedError(
            "no nonzero eigenvalue in the searched region; enlarge the region"
        )
    return min(candidates)


def rescale_spectrum(result: SpectrumResult, sigma: float) -> SpectrumResult:
    """Spectrum of the sigma-widened potential: every eigenvalue / sigma.

    Residuals carry over exactly (Z_sigma(gamma/sigma) = Z_1(gamma)).
    """
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    scaled = tuple(
        EigenvalueRecord(
            gamma=r.gamma / sigma,
            branch=r.branch,
            multiplicity=r.multiplicity,
            residual=r.residual,
        )
        for r in result.eigenvalues
    )
    region = ComplexRegion(
        result.region.re_min / sigma,
        result.region.re_max / sigma,
        result.region.im_min / sigma,
        result.region.im_max / sigma,
        result.region.edge_samples,
    )
    diagnostics = dict(result.diagnostics)
    diagnostics["rescaled_by"] = sigma
    return SpectrumResult(
        eigenvalues=scaled,
        gap=None if result.gap is None else result.gap / sigma,
        region=region,
        potential_descriptor=f"{result.potential_descriptor} (gamma / {sigma:g})",
        diagnostics=diagnostics,
    )
