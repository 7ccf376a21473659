"""First-order eigenvalue response to constant refreshment.

Adding a constant epsilon to the switching intensity perturbs the generator
by the bounded operator B = F - I, and each simple eigenvalue moves as

    gamma(eps) = gamma + eps (<f, conj f> / <f, F conj f> - 1) + o(eps),

where both pairings are the bilinear (not sesquilinear) integrals of f
against itself.  On the symmetric branches the same expansion reads
+/- <f, conj f>_nu / <f, J conj f>_nu - 1.  Both coefficients share one body,
sign <f, conj f> / <f, R conj f> - 1, with R = F on E (sign +1) or J on R
(the branch's sign).  Only the first-order term is modeled here.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from .charfn import _BRANCH_SIGN
from .errors import DomainError, NonSimpleEigenvalueError
from .operator import _require_simple, _self_pairings, eigenfunction
from .potential import PotentialModel
from .spectrum import SpectrumResult

__all__ = [
    "PerturbedEigenvalue",
    "PerturbedSpectrum",
    "refreshment_coefficient",
    "refreshment_coefficient_symmetric",
    "perturbed_spectrum",
]


def _mu(potential, gamma, variant, sign) -> complex:
    """sign <f, conj f> / <f, R conj f> - 1 for B = sign R - I, R the variant's reflection."""
    f = eigenfunction(potential, gamma, variant)
    _require_simple(f)
    num, den = _self_pairings(f)
    return (num if sign > 0 else -num) / den - 1.0


def refreshment_coefficient(
    potential: PotentialModel,
    gamma: complex,
) -> complex:
    """mu = <f_gamma, conj f_gamma> / <f_gamma, F conj f_gamma> - 1 for B = F - I."""
    return _mu(potential, gamma, "full", +1)


def refreshment_coefficient_symmetric(
    potential: PotentialModel,
    gamma: complex,
    branch: str,
) -> complex:
    """Branch form +/- <f, conj f>_nu / <f, J conj f>_nu - 1 for B = +/-J - I."""
    if branch not in _BRANCH_SIGN:
        raise DomainError(f"branch must be plus or minus, got {branch!r}")
    return _mu(potential, gamma, branch, _BRANCH_SIGN[branch])


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


def _coefficient(potential, rec) -> Optional[complex]:
    """mu of a simple eigenvalue record; None when it is not simple."""
    if rec.multiplicity != 1:
        return None
    try:
        return refreshment_coefficient(potential, rec.gamma)
    except NonSimpleEigenvalueError:
        return None


def perturbed_spectrum(
    base: SpectrumResult,
    epsilon: float,
) -> PerturbedSpectrum:
    """First-order shifted spectrum gamma + eps mu for every base eigenvalue.

    The coefficients are those of ``base.potential``, the model the base
    spectrum was solved for (custom, scaled and rescaled models alike).
    Non-simple entries (multiplicity > 1 or |Z'| at the simplicity floor) are
    kept but marked unresolved rather than failing the whole spectrum.
    """
    if not 0.0 <= epsilon < float("inf"):
        raise DomainError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    # base lists the Im < 0 member of a pair first, so the upper members are
    # computed first; a simple lower member whose exact conjugate resolved
    # takes conj(mu) (Z(conj g) = conj Z(g)), any other entry its own mu
    recs = base.eigenvalues
    mus = [None] * len(recs)
    upper = {}
    for i in sorted(range(len(recs)), key=lambda i: recs[i].gamma.imag < 0):
        rec = recs[i]
        mu = upper.get(rec.gamma.conjugate()) if rec.multiplicity == 1 else None
        mus[i] = _coefficient(base.potential, rec) if mu is None else mu.conjugate()
        if rec.gamma.imag > 0 and mus[i] is not None:
            upper[rec.gamma] = mus[i]
    entries = tuple(
        PerturbedEigenvalue(rec.gamma, None, None, False)
        if mu is None
        else PerturbedEigenvalue(rec.gamma, mu, rec.gamma + epsilon * mu, True)
        for rec, mu in zip(recs, mus)
    )
    return PerturbedSpectrum(base=base, epsilon=float(epsilon), entries=entries)
