"""First-order eigenvalue response to constant refreshment.

Adding a constant epsilon to the switching intensity perturbs the generator
by the bounded operator B = F - I, and each simple eigenvalue moves as

    gamma(eps) = gamma + eps (<f, conj f> / <f, F conj f> - 1) + o(eps),

where both pairings are the bilinear (not sesquilinear) integrals of f
against itself.  On the symmetric branches the same expansion reads
+/- <f, conj f>_nu / <f, J conj f>_nu - 1.  Both coefficients share one body,
sign <f, conj f> / <f, R conj f> - 1, with R = F on E (sign +1) or J on R
(the branch's sign).  Its denominator is the spectral projection's,
<f, R conj f> = Z'(gamma) / psi-(gamma) (dZ+-/dgamma on a branch); only the
numerator <f, conj f> takes quadrature, a spectrum's from one lockstep batch
of adaptive passes, a single coefficient's from a batch of one, so both agree
bit for bit.  At gamma = 0, f is the constant and B 1 = 0: mu = 0, no pass.
Only the first-order term is modeled here.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from .charfn import _BRANCH_SIGN
from .errors import DomainError, NonSimpleEigenvalueError
from .operator import _require_simple, _self_pairings, eigenfunction
from .potential import PotentialModel
from .spectrum import SpectrumResult

__all__ = ["PerturbedEigenvalue", "PerturbedSpectrum", "refreshment_coefficient", "refreshment_coefficient_symmetric",
           "perturbed_spectrum"]


def _mus(fs, sign):
    """sign <f, conj f> / (Z'/psi-) - 1 for B = sign R - I, R the variant's reflection, for each f in fs;
    0j at gamma = 0, whose eigenfunction, the constant, B annihilates."""
    nums = iter(_self_pairings(moving) if (moving := tuple(f for f in fs if f.gamma != 0)) else ())
    return [sign * next(nums) / (f.z_prime / f._scale) - 1.0 if f.gamma != 0 else 0j for f in fs]


def refreshment_coefficient(potential: PotentialModel, gamma: complex) -> complex:
    """mu = <f_gamma, conj f_gamma> / <f_gamma, F conj f_gamma> - 1 for B = F - I."""
    return _mus([_require_simple(eigenfunction(potential, gamma))], +1)[0]


def refreshment_coefficient_symmetric(potential: PotentialModel, gamma: complex, branch: str) -> complex:
    """Branch form +/- <f, conj f>_nu / <f, J conj f>_nu - 1 for B = +/-J - I."""
    if branch not in _BRANCH_SIGN:
        raise DomainError(f"branch must be plus or minus, got {branch!r}")
    return _mus([_require_simple(eigenfunction(potential, gamma, branch))], _BRANCH_SIGN[branch])[0]


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
        res = [-e.shifted.real for e in self.entries if e.resolved and e.gamma != 0 and e.shifted is not None]
        return min(res) if res else None

    def arrows(self):
        """(gamma, coefficient) pairs for the perturbation-direction plot."""
        return [(e.gamma, e.coefficient) for e in self.entries if e.resolved]


def perturbed_spectrum(base: SpectrumResult, epsilon: float) -> PerturbedSpectrum:
    """First-order shifted spectrum gamma + eps mu for every base eigenvalue.

    The coefficients are those of ``base.potential``, the model the base
    spectrum was solved for (custom, scaled and rescaled models alike).
    Non-simple entries (multiplicity > 1 or |Z'| at the simplicity floor) are
    kept but marked unresolved rather than failing the whole spectrum.
    """
    if not 0.0 <= epsilon < float("inf"):
        raise DomainError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    # a simple lower member whose exact conjugate is simple takes conj(mu)
    # (Z(conj g) = conj Z(g)); every other simple entry takes its own mu, all
    # of them from one batch
    recs = base.eigenvalues
    fs = {}
    for rec in sorted(recs, key=lambda rec: rec.gamma.imag < 0):  # the upper members first
        if rec.multiplicity == 1 and fs.get(rec.gamma.conjugate()) is None:
            try:
                fs[rec.gamma] = _require_simple(eigenfunction(base.potential, rec.gamma))
            except NonSimpleEigenvalueError:
                fs[rec.gamma] = None
    own = {g: f for g, f in fs.items() if f is not None}
    mus = dict(zip(own, _mus(own.values(), +1)))
    mus.update({g.conjugate(): mu.conjugate() for g, mu in mus.items() if g.imag > 0})
    entries = tuple(
        PerturbedEigenvalue(rec.gamma, None, None, False)
        if (mu := mus.get(rec.gamma) if rec.multiplicity == 1 else None) is None
        else PerturbedEigenvalue(rec.gamma, mu, rec.gamma + epsilon * mu, True)
        for rec in recs
    )
    return PerturbedSpectrum(base=base, epsilon=float(epsilon), entries=entries)
