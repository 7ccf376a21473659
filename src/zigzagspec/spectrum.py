"""Spectrum assembly: search region, one joint root search, gap, scaling.

With zero refreshment the point spectrum of the generator equals the zero set
of Z; for even potentials it splits into the zero sets of Z+ = 1 - psi and
Z- = 1 + psi, which come from one psi: one search takes both as rows of one
box tree (each psi value serves both branches), and labels each root with
its row's branch.  The imaginary extent of the search region is certified by
|Z| >= 1 - |psi+ psi-| >= 1/2 once |psi+ psi-| < 1/2, which the
Riemann-Lebesgue decay of psi guarantees for large |Im gamma|.

For real U, Z(conj gamma) = conj Z(gamma), so the spectrum is closed under
conjugation, and only the upper half-plane is searched: the rectangle over
the region's real span from Im = -dilation (so real eigenvalues sit inside
the contour) up to the larger of the region's imaginary bounds, which covers
its upper part and the reflection of its lower part.  Each root with Im > 0
is emitted with its exact conjugate (same branch, multiplicity and
residual); real roots are emitted once.  A root in the band
-dilation <= Im < 0 must be the conjugate, within 1e-8, of a root of its
branch above the axis (a missed root would break that); band roots are
then dropped, and so is every eigenvalue outside the requested
region.  Pairs thus share their real part bit for bit, and the (-Re, Im)
order does not depend on last-ulp noise of the quadrature.  Regions need
not be symmetric, but they must contain the eigenvalue 0 (DomainError).

A result carries the model it was solved for, so perturbation and the
scaling law read it there; its descriptor is only the printed label.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional, Tuple

import numpy as np

from .charfn import CharFunctionHandle, z_log_derivative_batch, z_value_batch
from .errors import DomainError, GapUndeterminedError, WindingError
from .potential import PotentialModel, check_assumptions, scale
from .rootfinder import _DILATION, ComplexRegion, _check_root_tol, locate_zeros

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
    """Eigenvalues in a region of the model ``potential`` they were solved for.

    ``potential_descriptor`` is the label the CLI prints; custom and scaled
    models need not parse back from it, so code reads ``potential``.
    """

    eigenvalues: Tuple[EigenvalueRecord, ...]  # descending Re, then ascending Im
    gap: Optional[float]
    region: ComplexRegion
    potential_descriptor: str
    diagnostics: dict
    potential: PotentialModel


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


def _search_region(region: ComplexRegion) -> ComplexRegion:
    """Upper-half image of a region that holds 0, and of its reflection in
    the real axis, from the band below the axis up."""
    top = max(region.im_max, -region.im_min, _DILATION)  # holds the band's mirror
    return ComplexRegion(region.re_min, region.re_max, -_DILATION, top)


def _collect(branch: str, roots, region: ComplexRegion):
    """One branch's eigenvalues in the region from its roots in the search
    region, and the conjugate defect of the roots found in the band below
    the real axis."""
    upper = [r.location for r in roots if r.location.imag > 0]
    band = [r.location for r in roots if r.location.imag < 0]
    defect = max((min((abs(u.conjugate() - b) for u in upper), default=math.inf) for b in band), default=0.0)
    records = []
    for r in roots:
        gamma = 0.0j if abs(r.location) <= _ZERO_SNAP else r.location
        if gamma.imag < 0:
            continue  # a band root, counted in the defect above
        for g in (gamma, gamma.conjugate()) if gamma.imag > 0 else (gamma,):
            if region.contains(g):
                records.append(EigenvalueRecord(g, branch, r.multiplicity, r.residual))
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
            "(missed by the search?)"
        )
    for r in records:
        if r.gamma != 0 and r.gamma.real > 1e-8:
            raise WindingError(f"{descriptor}: eigenvalue {r.gamma} has positive real part")


def compute_spectrum(
    potential: PotentialModel,
    region: Optional[ComplexRegion] = None,
    root_tol: float = 1e-10,
) -> SpectrumResult:
    """All eigenvalues in the region (default: `auto_region`), each
    Newton-polished until a step falls below root_tol.

    Even potentials search Z+ and Z- together, as rows of one search, and
    return the union with branch labels; otherwise the full Z is used.
    Assumption checks are advisory only and land in diagnostics, never gating.
    A root_tol that is not finite and > 0 is refused before psi is evaluated.
    """
    _check_root_tol(root_tol)
    if region is None:
        region = auto_region(potential)
    if not region.contains(0j):
        raise DomainError(f"{region} excludes the eigenvalue 0, which every spectrum holds")
    diagnostics = {"region": dataclasses.asdict(region)}
    try:
        diagnostics["assumptions"] = check_assumptions(potential).statuses
    except Exception as exc:  # advisory by design
        diagnostics["assumptions"] = f"check failed: {exc}"

    search = _search_region(region)
    diagnostics["search_region"] = dataclasses.asdict(search)
    handle = CharFunctionHandle(potential, ("plus", "minus") if potential.is_symmetric else ("full",))
    rows = functools.partial(z_value_batch, handle), functools.partial(z_log_derivative_batch, handle)
    records, defect = [], 0.0
    for branch, found in zip(handle.branch, locate_zeros(*rows, search, root_tol)):
        recs, branch_defect = _collect(branch, found.roots, region)
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
        potential=potential,
    )


def spectral_gap(result: SpectrumResult) -> float:
    """kappa = -max Re over nonzero eigenvalues of the result (its ``gap``)."""
    if result.gap is None:
        raise GapUndeterminedError(
            "no nonzero eigenvalue in the searched region; enlarge the region"
        )
    return result.gap


def rescale_spectrum(result: SpectrumResult, sigma: float) -> SpectrumResult:
    """Spectrum of the sigma-widened potential: every eigenvalue / sigma.

    Residuals carry over exactly (Z_sigma(gamma/sigma) = Z_1(gamma)), and the
    result carries the widened model ``scale(result.potential, sigma)``.
    """
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    reg = result.region
    return dataclasses.replace(
        result,
        eigenvalues=tuple(dataclasses.replace(r, gamma=r.gamma / sigma) for r in result.eigenvalues),
        gap=None if result.gap is None else result.gap / sigma,
        region=ComplexRegion(reg.re_min / sigma, reg.re_max / sigma, reg.im_min / sigma, reg.im_max / sigma),
        potential_descriptor=f"{result.potential_descriptor} (gamma / {sigma:g})",
        diagnostics={**result.diagnostics, "rescaled_by": sigma},
        potential=scale(result.potential, sigma),
    )
