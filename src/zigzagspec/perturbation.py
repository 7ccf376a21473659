"""First-order eigenvalue response to constant refreshment.

Adding a constant epsilon to the switching intensity perturbs the generator
by the bounded operator B = F - I, and each simple eigenvalue moves as

    gamma(eps) = gamma + eps (<f, conj f> / <f, F conj f> - 1) + o(eps),

where both pairings are the bilinear (not sesquilinear) integrals of f
against itself.  On the symmetric branches the same expansion reads
+/- <f, conj f>_nu / <f, J conj f>_nu - 1.  Only the first-order term is
modeled here; there is no second-order formula to implement.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from .errors import DomainError, NonSimpleEigenvalueError
from .operator import _pair, _require_simple, eigenfunction
from .potential import PotentialModel, parse_potential
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .spectrum import SpectrumResult

__all__ = [
    "PerturbedEigenvalue",
    "PerturbedSpectrum",
    "refreshment_coefficient",
    "refreshment_coefficient_symmetric",
    "perturbed_spectrum",
]


def refreshment_coefficient(
    potential: PotentialModel,
    gamma: complex,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """mu = <f_gamma, conj f_gamma> / <f_gamma, F conj f_gamma> - 1 for B = F - I."""
    f = eigenfunction(potential, gamma, "full", cfg)
    _require_simple(f)
    den = _pair(f, f.gamma, f, -1)
    return _pair(f, f.gamma, f, +1) / den - 1.0


def refreshment_coefficient_symmetric(
    potential: PotentialModel,
    gamma: complex,
    branch: str,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """Branch form +/- <f, conj f>_nu / <f, J conj f>_nu - 1 for B = +/-J - I."""
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be plus or minus, got {branch!r}")
    f = eigenfunction(potential, gamma, branch, cfg)
    _require_simple(f)
    den = _pair(f, f.gamma, f, -1)
    sign = 1.0 if branch == "plus" else -1.0
    return sign * _pair(f, f.gamma, f, +1) / den - 1.0


@dataclasses.dataclass(frozen=True)
class PerturbedEigenvalue:
    gamma: complex
    coefficient: Optional[complex]  # None when the base eigenvalue is not simple
    shifted: Optional[complex]
    resolved: bool


@dataclasses.dataclass(frozen=True)
class PerturbedSpectrum:
    base: SpectrumResult
    epsilon: float
    entries: Tuple[PerturbedEigenvalue, ...]

    def gap(self) -> Optional[float]:
        """First-order prediction of the perturbed spectral gap."""
        res = [
            -e.shifted.real
            for e in self.entries
            if e.resolved and e.gamma != 0 and e.shifted is not None
        ]
        return min(res) if res else None

    def arrows(self):
        """(gamma, coefficient) pairs for the perturbation-direction plot."""
        return [(e.gamma, e.coefficient) for e in self.entries if e.resolved]


def _coefficient(potential, rec, cfg) -> Optional[complex]:
    """mu of a simple eigenvalue record; None when it is not simple."""
    if rec.multiplicity != 1:
        return None
    try:
        return refreshment_coefficient(potential, rec.gamma, cfg)
    except NonSimpleEigenvalueError:
        return None


def perturbed_spectrum(
    base: SpectrumResult,
    epsilon: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    potential: Optional[PotentialModel] = None,
) -> PerturbedSpectrum:
    """First-order shifted spectrum gamma + eps mu for every base eigenvalue.

    The potential is recovered from the descriptor recorded on ``base``; pass
    it for custom or scaled models, whose descriptors do not round-trip.
    Non-simple entries (multiplicity > 1 or |Z'| at the simplicity floor) are
    kept but marked unresolved rather than failing the whole spectrum.
    """
    if not 0.0 <= epsilon < float("inf"):
        raise DomainError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if potential is None:
        potential = parse_potential(base.potential_descriptor)
    # base lists the Im < 0 member of a pair first, so the upper members are
    # computed first; a simple lower member whose exact conjugate resolved
    # takes conj(mu) (Z(conj g) = conj Z(g)), any other entry its own mu
    recs = base.eigenvalues
    mus = [None] * len(recs)
    upper = {}
    for i in sorted(range(len(recs)), key=lambda i: recs[i].gamma.imag < 0):
        rec = recs[i]
        mu = upper.get(rec.gamma.conjugate()) if rec.multiplicity == 1 else None
        mus[i] = _coefficient(potential, rec, cfg) if mu is None else mu.conjugate()
        if rec.gamma.imag > 0 and mus[i] is not None:
            upper[rec.gamma] = mus[i]
    entries = tuple(
        PerturbedEigenvalue(rec.gamma, None, None, False)
        if mu is None
        else PerturbedEigenvalue(rec.gamma, mu, rec.gamma + epsilon * mu, True)
        for rec, mu in zip(recs, mus)
    )
    return PerturbedSpectrum(base=base, epsilon=float(epsilon), entries=entries)
