"""Spectrum assembly: search region, root search per branch, gap, scaling.

With zero refreshment the point spectrum of the generator equals the zero set
of Z; for even potentials it splits into the zero sets of Z+ and Z- (found
independently and labelled).  The imaginary extent of the search region is
certified by |Z| >= 1 - |psi+ psi-| >= 1/2 once |psi+ psi-| < 1/2, which the
Riemann-Lebesgue decay of psi guarantees for large |Im gamma|.

For real U, Z(conj gamma) = conj Z(gamma), so the spectrum is closed under
conjugation.  The search covers the whole region; `_validate` then checks
that every eigenvalue found has a conjugate partner within 1e-8 (a missed
root would break that), and `_mirror` replaces each Im < 0 eigenvalue with
the exact conjugate of its Im > 0 partner on the same branch.  Pairs thus
share their real part bit for bit, and the (-Re, Im) order of the result does
not depend on last-ulp noise of the quadrature.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from .charfn import (
    CharFunctionHandle,
    make_handle,
    z_log_derivative_batch,
    z_value_batch,
)
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


def _branch_funcs(handle: CharFunctionHandle):
    def fvec(z):
        return z_value_batch(handle, np.asarray(z, dtype=complex))

    def ldvec(z):
        return z_log_derivative_batch(handle, np.asarray(z, dtype=complex))

    return fvec, ldvec


def auto_region(
    potential: PotentialModel,
    re_min: Optional[float] = None,
    backend: Optional[str] = None,
) -> ComplexRegion:
    """Default search region [re_min, 0.1] x [-B, B].

    re_min defaults to -4/sigma (sigma = 1 for non-gaussian families).  B
    climbs a half-unit ladder at alpha = re_min until |psi+ psi-| < 1/2 on
    three consecutive rungs, then adds a half-unit margin; above B every
    |Z| >= 1/2, so no eigenvalue escapes the box.
    """
    sigma = potential.sigma if potential.family == "gaussian" else 1.0
    if re_min is None:
        re_min = -4.0 / sigma
    if re_min >= 0.0:
        raise DomainError("auto region needs re_min < 0")
    handle = make_handle(potential, branch="full", backend=backend)
    betas = 0.5 * np.arange(1, 257)
    streak = 0
    bound = None
    # rung batches keep the quadrature backend affordable
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
    return ComplexRegion(re_min, 0.1, -float(bound), float(bound))


def _collect(handle: CharFunctionHandle, region: ComplexRegion, cfg: RootfinderConfig):
    fvec, ldvec = _branch_funcs(handle)
    rs = locate_zeros(fvec, ldvec, region, cfg)
    records = []
    for r in rs.roots:
        gamma = r.location
        if abs(gamma) <= _ZERO_SNAP:
            gamma = 0.0 + 0.0j
        records.append(
            EigenvalueRecord(
                gamma=gamma,
                branch=handle.branch,
                multiplicity=r.multiplicity,
                residual=r.residual,
            )
        )
    return records, rs


def _validate(records, descriptor):
    """Structural sanity: conjugate closure, nonpositive real parts, 0 simple."""
    zeros = [r for r in records if r.gamma == 0]
    if len(zeros) != 1 or zeros[0].multiplicity != 1:
        raise WindingError(
            f"{descriptor}: expected the simple eigenvalue 0, found {zeros!r} "
            "(search region may exclude it)"
        )
    defect = 0.0
    for r in records:
        if r.gamma != 0 and r.gamma.real > 1e-8:
            raise WindingError(f"{descriptor}: eigenvalue {r.gamma} has positive real part")
        if abs(r.gamma.imag) > 0:
            partner = min(
                (abs(o.gamma - r.gamma.conjugate()) for o in records),
                default=math.inf,
            )
            defect = max(defect, partner)
    if defect > _CONJ_TOL:
        raise WindingError(
            f"{descriptor}: conjugate closure violated by {defect:.2e} (roots missed?)"
        )
    return defect


def _mirror(records):
    """Each Im < 0 eigenvalue becomes the exact conjugate of its partner, the
    same-branch eigenvalue nearest its conjugate, when that lies in Im > 0."""
    out = []
    for r in records:
        if r.gamma.imag < 0:
            target = r.gamma.conjugate()
            partner = min(
                (o for o in records if o.branch == r.branch),
                key=lambda o: abs(o.gamma - target),
            )
            if partner.gamma.imag > 0:
                r = dataclasses.replace(
                    r, gamma=partner.gamma.conjugate(), residual=partner.residual
                )
        out.append(r)
    return out


def compute_spectrum(
    potential: PotentialModel,
    region: Optional[ComplexRegion] = None,
    cfg: RootfinderConfig = DEFAULT_ROOT_CONFIG,
    backend: Optional[str] = None,
) -> SpectrumResult:
    """All eigenvalues in the region (default: auto_region`).

    Even potentials are searched per branch (Z+ then Z-) and the union is
    returned with branch labels; otherwise the full Z is used.  Assumption
    checks are advisory only and land in diagnostics, never gating.
    """
    if region is None:
        region = auto_region(potential, backend=backend)
    diagnostics = {"region": dataclasses.asdict(region)}
    try:
        diagnostics["assumptions"] = check_assumptions(potential).statuses
    except Exception as exc:  # advisory by design
        diagnostics["assumptions"] = f"check failed: {exc}"

    records = []
    if potential.is_symmetric:
        for branch in ("plus", "minus"):
            handle = make_handle(potential, branch=branch, backend=backend)
            recs, rs = _collect(handle, region, cfg)
            records.extend(recs)
            diagnostics[f"winding_{branch}"] = rs.winding
    else:
        handle = make_handle(potential, branch="full", backend=backend)
        records, rs = _collect(handle, region, cfg)
        diagnostics["winding_full"] = rs.winding

    diagnostics["conjugate_defect"] = _validate(records, potential.descriptor())
    records = sorted(_mirror(records), key=lambda r: (-r.gamma.real, r.gamma.imag))

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
