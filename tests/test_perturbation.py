import dataclasses

import numpy as np
import pytest

from conftest import GAUSSIAN_EIGENVALUES, GAUSSIAN_GAP
from zigzagspec.errors import DomainError
from zigzagspec.perturbation import (
    PerturbedEigenvalue,
    perturbed_spectrum,
    refreshment_coefficient,
    refreshment_coefficient_symmetric,
)
from zigzagspec.spectrum import EigenvalueRecord

G1 = GAUSSIAN_EIGENVALUES[1]
G2 = GAUSSIAN_EIGENVALUES[2]


def test_coefficient_vanishes_at_zero(gaussian_potential):
    # the stationary eigenvalue does not move under refreshment
    assert abs(refreshment_coefficient(gaussian_potential, 0.0)) < 1e-10
    assert (
        abs(refreshment_coefficient_symmetric(gaussian_potential, 0.0, "plus")) < 1e-10
    )


def test_coefficient_conjugation(gaussian_potential):
    mu = refreshment_coefficient(gaussian_potential, G1)
    mu_bar = refreshment_coefficient(gaussian_potential, np.conj(G1))
    assert abs(mu_bar - np.conj(mu)) < 1e-8


def test_rightmost_pair_moves_left(gaussian_potential):
    assert refreshment_coefficient(gaussian_potential, G1).real < 0.0
    assert refreshment_coefficient(gaussian_potential, np.conj(G1)).real < 0.0


def test_full_route_matches_branch_route(gaussian_potential):
    # minus-branch eigenvalue
    mu_full = refreshment_coefficient(gaussian_potential, G1)
    mu_sym = refreshment_coefficient_symmetric(gaussian_potential, G1, "minus")
    assert abs(mu_full - mu_sym) / abs(mu_full) < 1e-6
    # plus-branch eigenvalue
    mu_full = refreshment_coefficient(gaussian_potential, G2)
    mu_sym = refreshment_coefficient_symmetric(gaussian_potential, G2, "plus")
    assert abs(mu_full - mu_sym) / abs(mu_full) < 1e-6


def test_symmetric_route_rejects_bad_branch(gaussian_potential):
    with pytest.raises(DomainError):
        refreshment_coefficient_symmetric(gaussian_potential, G1, "full")


def test_perturbed_spectrum_zero_epsilon(gaussian_spectrum):
    p = perturbed_spectrum(gaussian_spectrum, 0.0)
    assert p.epsilon == 0.0
    for entry in p.entries:
        if entry.resolved:
            assert entry.shifted == entry.gamma
    assert p.gap() == pytest.approx(GAUSSIAN_GAP, abs=1e-12)


def test_perturbed_spectrum_negative_epsilon(gaussian_spectrum):
    with pytest.raises(DomainError):
        perturbed_spectrum(gaussian_spectrum, -0.1)


def test_perturbed_spectrum_widens_gap(gaussian_spectrum):
    # in the refreshment-dominated regime every resolved eigenvalue moves
    # left at first order, so the gap cannot shrink
    p = perturbed_spectrum(gaussian_spectrum, 0.1)
    assert all(e.resolved for e in p.entries)
    assert p.gap() >= GAUSSIAN_GAP - 1e-9
    zero = min(p.entries, key=lambda e: abs(e.gamma))
    assert zero.shifted == 0.0


def test_perturbed_spectrum_respects_conjugation(gaussian_spectrum):
    # mu(conj g) = conj mu(g); the base spectrum holds exact conjugate pairs,
    # so the coefficients of each pair must mirror each other too
    p = perturbed_spectrum(gaussian_spectrum, 0.5)
    coefficient = {e.gamma: e.coefficient for e in p.entries}
    pairs = [g for g in coefficient if g.imag > 0]
    assert len(pairs) == 21
    for g in pairs:
        partner = min(coefficient, key=lambda w: abs(w - g.conjugate()))
        assert abs(coefficient[partner] - np.conj(coefficient[g])) < 1e-12, g


def test_perturbed_spectrum_first_order_shift(gaussian_spectrum, gaussian_potential):
    p = perturbed_spectrum(gaussian_spectrum, 0.05)
    entry = next(e for e in p.entries if abs(e.gamma - G1) < 1e-9)
    mu = refreshment_coefficient(gaussian_potential, G1)
    assert abs(entry.coefficient - mu) < 1e-10
    assert abs(entry.shifted - (G1 + 0.05 * mu)) < 1e-12


def test_perturbed_spectrum_arrows(gaussian_spectrum):
    p = perturbed_spectrum(gaussian_spectrum, 0.2)
    arrows = p.arrows()
    assert len(arrows) == len([e for e in p.entries if e.resolved])
    for gamma, mu in arrows:
        entry = next(e for e in p.entries if e.gamma == gamma)
        assert mu == entry.coefficient


def test_multiple_eigenvalue_left_unresolved(gaussian_spectrum):
    # fabricate a degenerate record: the coefficient is only defined for
    # simple eigenvalues, so the entry must be marked unresolved, not guessed
    rec = gaussian_spectrum.eigenvalues[1]
    doubled = dataclasses.replace(rec, multiplicity=2)
    eigs = list(gaussian_spectrum.eigenvalues)
    eigs[1] = doubled
    doctored = dataclasses.replace(gaussian_spectrum, eigenvalues=tuple(eigs))
    p = perturbed_spectrum(doctored, 0.1)
    entry = next(e for e in p.entries if e.gamma == rec.gamma)
    assert not entry.resolved
    assert entry.coefficient is None
    assert entry.shifted is None
    # the unresolved entry drops out of the gap and the arrow list
    assert all(g != rec.gamma for g, _ in p.arrows())


def test_scale_invariance_of_coefficient(gaussian_potential):
    # rescaling the potential rescales gamma but leaves the ratio of the
    # two bilinear pairings unchanged
    from zigzagspec.potential import gaussian

    wide = gaussian(2.0)
    mu1 = refreshment_coefficient(gaussian_potential, G1)
    mu2 = refreshment_coefficient(wide, G1 / 2.0)
    assert abs(mu1 - mu2) < 1e-8


def test_entry_is_frozen(gaussian_spectrum):
    p = perturbed_spectrum(gaussian_spectrum, 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.entries[0].coefficient = 0.0  # type: ignore[misc]
    assert isinstance(p.entries[0], PerturbedEigenvalue)
    assert isinstance(gaussian_spectrum.eigenvalues[0], EigenvalueRecord)
