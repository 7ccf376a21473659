import dataclasses

import numpy as np
import pytest

from conftest import GAUSSIAN_BRANCHES, GAUSSIAN_EIGENVALUES, GAUSSIAN_GAP, skewed_well
from zigzagspec import operator
from zigzagspec.errors import DomainError
from zigzagspec.operator import eigenfunction, inner_product_mu, inner_product_nu
from zigzagspec.perturbation import (
    PerturbedEigenvalue,
    perturbed_spectrum,
    refreshment_coefficient,
    refreshment_coefficient_symmetric,
)
from zigzagspec.potential import beta_family, custom, gaussian, scale
from zigzagspec.rootfinder import ComplexRegion
from zigzagspec.spectrum import EigenvalueRecord, compute_spectrum, rescale_spectrum

G1 = GAUSSIAN_EIGENVALUES[1]
G2 = GAUSSIAN_EIGENVALUES[2]


def test_coefficient_vanishes_at_zero(gaussian_potential):
    # the stationary eigenvalue does not move under refreshment
    assert abs(refreshment_coefficient(gaussian_potential, 0.0)) < 1e-10
    assert (
        abs(refreshment_coefficient_symmetric(gaussian_potential, 0.0, "plus")) < 1e-10
    )


@pytest.mark.parametrize("pot", [gaussian(1.0), beta_family(2.5), skewed_well()], ids=lambda p: p.descriptor())
def test_coefficient_at_zero_is_exactly_zero(pot):
    # f_0 is the constant and B 1 = (F - I) 1 = 0: mu(0) is 0 by construction,
    # not by two quadratures that happen to agree
    assert refreshment_coefficient(pot, 0.0) == 0j


def test_coefficient_conjugation(gaussian_potential):
    mu = refreshment_coefficient(gaussian_potential, G1)
    mu_bar = refreshment_coefficient(gaussian_potential, np.conj(G1))
    assert abs(mu_bar - np.conj(mu)) < 1e-8


def test_rightmost_pair_moves_left(gaussian_potential):
    assert refreshment_coefficient(gaussian_potential, G1).real < 0.0
    assert refreshment_coefficient(gaussian_potential, np.conj(G1)).real < 0.0


def test_full_route_matches_branch_route(gaussian_potential, beta25_spectrum):
    # minus-branch eigenvalue
    mu_full = refreshment_coefficient(gaussian_potential, G1)
    mu_sym = refreshment_coefficient_symmetric(gaussian_potential, G1, "minus")
    assert abs(mu_full - mu_sym) / abs(mu_full) < 1e-6
    # plus-branch eigenvalue
    mu_full = refreshment_coefficient(gaussian_potential, G2)
    mu_sym = refreshment_coefficient_symmetric(gaussian_potential, G2, "plus")
    assert abs(mu_full - mu_sym) / abs(mu_full) < 1e-6
    # beta:2.5, whose pt comes from quadrature: the upper member of each pair
    pot = beta_family(2.5)
    upper = [(r.gamma, r.branch) for r in beta25_spectrum.eigenvalues if r.gamma.imag > 0]
    assert [b for _, b in upper] == ["minus", "plus", "minus"]
    for gamma, branch in upper:
        mu_full = refreshment_coefficient(pot, gamma)
        mu_sym = refreshment_coefficient_symmetric(pot, gamma, branch)
        assert abs(mu_full - mu_sym) / abs(mu_full) < 1e-6


def _two_pass_coefficient(pot, gamma, branch):
    # the separate pairings <f, conj f> and <f, F conj f> (J on R), each its
    # own adaptive inner_product_mu / _nu pass
    f = eigenfunction(pot, gamma, branch)
    kw = dict(growth=2.0 * abs(gamma.real), oscillation=4.0 * abs(gamma.imag))
    if branch == "full":
        num, _ = inner_product_mu(f, lambda x, th: np.conj(f(x, th)), pot, **kw)
        den, _ = inner_product_mu(f, lambda x, th: np.conj(f(x, -th)), pot, **kw)
        return num / den - 1.0
    num, _ = inner_product_nu(f, lambda x: np.conj(f(x)), pot, **kw)
    den, _ = inner_product_nu(f, lambda x: np.conj(f(-x)), pot, **kw)
    return (num if branch == "plus" else -num) / den - 1.0


@pytest.mark.parametrize("family", ["gaussian:1", "beta:2.5"])
def test_one_pass_coefficients_match_two_pairings(family, beta25_spectrum):
    # the upper members of the rightmost 3 pairs (a lower member takes the
    # conjugate in perturbed_spectrum), full and branch form
    if family == "gaussian:1":
        pot = gaussian(1.0)
        pairs = list(zip(GAUSSIAN_EIGENVALUES[1:4], GAUSSIAN_BRANCHES[1:4]))
    else:
        pot = beta_family(2.5)
        pairs = [(r.gamma, r.branch) for r in beta25_spectrum.eigenvalues if r.gamma.imag > 0]
    assert len(pairs) == 3
    for gamma, branch in pairs:
        for got, form in (
            (refreshment_coefficient(pot, gamma), "full"),
            (refreshment_coefficient_symmetric(pot, gamma, branch), branch),
        ):
            want = _two_pass_coefficient(pot, gamma, form)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_a_coefficient_evaluates_each_component_once_per_call(monkeypatch):
    # the numerator rows [f+^2, f-^2] (on R: [f(x)^2], at x only) take one
    # component evaluation per theta per call of the pairings' evaluator
    pot = beta_family(2.5)
    gamma = -0.38831292790997046 + 1.1558647440283112j
    thetas, calls = [], []
    component = operator.PiecewiseEigenfunction.component
    rows = operator._pairing_rows

    def counted_component(self, x, theta=+1):
        thetas.append(theta)
        return component(self, x, theta)

    def counted_rows(f, x):
        calls.append(x.size)
        return rows(f, x)

    monkeypatch.setattr(operator.PiecewiseEigenfunction, "component", counted_component)
    monkeypatch.setattr(operator, "_pairing_rows", counted_rows)
    refreshment_coefficient(pot, gamma)
    assert len(calls) >= 1
    assert thetas.count(+1) == thetas.count(-1) == len(calls)
    thetas.clear()
    calls.clear()
    refreshment_coefficient_symmetric(pot, gamma, "minus")
    assert len(calls) >= 1 and thetas == [+1] * len(calls)


def test_a_branch_coefficient_evaluates_one_row_at_x_only(monkeypatch):
    # on R the numerator <f, conj f>_nu is the one row f(x)^2 e^{-U}: f is
    # taken at the panel nodes x, never at their mirror images -x
    pot = beta_family(2.5)
    gamma = -0.38831292790997046 + 1.1558647440283112j
    seen, shapes = [], []
    component = operator.PiecewiseEigenfunction.component
    rows = operator._pairing_rows

    def counted_component(self, x, theta=+1):
        seen.append(np.array(x))
        return component(self, x, theta)

    def counted_rows(f, x):
        seen.clear()
        v = rows(f, x)
        assert len(seen) == 1 and np.array_equal(seen[0], x)
        shapes.append((v.shape, x.size))
        return v

    monkeypatch.setattr(operator.PiecewiseEigenfunction, "component", counted_component)
    monkeypatch.setattr(operator, "_pairing_rows", counted_rows)
    refreshment_coefficient_symmetric(pot, gamma, "minus")
    assert shapes and all(shape == (1, n) for shape, n in shapes)


def test_the_stationary_eigenvalue_takes_no_pairing_pass(gaussian_spectrum, monkeypatch):
    # mu(0) = 0 needs no pairing; each of the other 21 passes integrates only
    # the numerator rows [f+^2, f-^2] e^{-U}, its denominator being Z'/psi-
    passes, shapes = [], []
    adaptive, rows = operator._adaptive, operator._pairing_rows

    def counted_adaptive(panels, edges, cfg):
        passes.append(len(edges))
        return adaptive(panels, edges, cfg)

    def counted_rows(f, x):
        assert np.all(f.gamma != 0)
        v = rows(f, x)
        shapes.append((v.shape, x.size))
        return v

    monkeypatch.setattr(operator, "_adaptive", counted_adaptive)
    monkeypatch.setattr(operator, "_pairing_rows", counted_rows)
    p = perturbed_spectrum(gaussian_spectrum, 0.5)
    assert passes == [21]
    assert shapes and all(shape == (2, n) for shape, n in shapes)
    zero = next(e for e in p.entries if e.gamma == 0)
    assert zero.coefficient == 0j and zero.shifted == 0j and zero.resolved


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


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_perturbed_spectrum_nonfinite_epsilon(gaussian_spectrum, epsilon):
    with pytest.raises(DomainError):
        perturbed_spectrum(gaussian_spectrum, epsilon)


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


def test_lower_members_take_the_conjugate_coefficient(gaussian_spectrum, monkeypatch):
    # mu is computed once per conjugate pair, for the Im >= 0 member; the
    # Im < 0 member takes its exact conjugate
    from zigzagspec import perturbation

    calls = []
    batch = perturbation._mus

    def counted(fs, sign):
        calls.extend(f.gamma for f in fs)
        return batch(fs, sign)

    monkeypatch.setattr(perturbation, "_mus", counted)
    p = perturbed_spectrum(gaussian_spectrum, 0.5)
    assert len(calls) == 22 and all(g.imag >= 0 for g in calls)
    coefficient = {e.gamma: e.coefficient for e in p.entries}
    for g in calls:
        assert coefficient[g.conjugate()] == np.conj(coefficient[g])


@pytest.mark.parametrize("spectrum", ["gaussian_spectrum", "beta25_spectrum"])
def test_the_batch_gives_each_coefficient_of_its_batch_of_one(spectrum, request):
    # the lockstep passes refine as they would alone: each upper member's mu
    # is refreshment_coefficient's bit for bit, each lower member's its conjugate
    base = request.getfixturevalue(spectrum)
    p = perturbed_spectrum(base, 0.5)
    resolved = [e for e in p.entries if e.resolved]
    assert len(resolved) == len(base.eigenvalues)
    for e in resolved:
        up = e.gamma if e.gamma.imag >= 0 else e.gamma.conjugate()
        mu = refreshment_coefficient(base.potential, up)
        assert repr(e.coefficient) == repr(mu if e.gamma.imag >= 0 else mu.conjugate())


def test_the_batch_refines_in_few_evaluator_calls(gaussian_spectrum, monkeypatch):
    # 21 passes (gamma = 0 takes none) share each round's evaluation: one call
    # per 256 panels at most, where one pass after another took 123 rounds of
    # one call each
    rounds, calls = [], []
    adaptive, rows = operator._adaptive, operator._pairing_rows

    def counted_adaptive(panels, edges, cfg):
        return adaptive(lambda a, b, runs: rounds.append(len(runs)) or panels(a, b, runs), edges, cfg)

    def counted_rows(f, x):
        calls.append(x.size // 15)
        return rows(f, x)

    monkeypatch.setattr(operator, "_adaptive", counted_adaptive)
    monkeypatch.setattr(operator, "_pairing_rows", counted_rows)
    perturbed_spectrum(gaussian_spectrum, 0.5)
    assert rounds[0] == 21 and len(rounds) <= 12
    assert len(calls) <= 20 and max(calls) <= 256


def test_non_simple_eigenvalues_are_kept_unresolved(beta25_spectrum, monkeypatch):
    # with the simplicity floor above every |Z'|, each coefficient is refused
    # as non-simple: every entry stays, unresolved, and nothing is predicted
    monkeypatch.setattr(operator, "SIMPLICITY_TOL", 1e9)
    p = perturbed_spectrum(beta25_spectrum, 0.5)
    assert [e.gamma for e in p.entries] == [r.gamma for r in beta25_spectrum.eigenvalues]
    assert len(p.entries) == 7
    assert all(e.coefficient is None and e.shifted is None and e.resolved is False for e in p.entries)
    assert p.gap() is None
    assert p.arrows() == []


def test_unresolved_upper_member_leaves_the_lower_one_its_own_path(
    gaussian_spectrum, gaussian_potential
):
    # a doctored double upper member is unresolved; its simple conjugate
    # cannot mirror it, so it gets its own coefficient
    eigs = list(gaussian_spectrum.eigenvalues)
    i = next(k for k, r in enumerate(eigs) if r.gamma.imag > 0)
    upper = eigs[i]
    eigs[i] = dataclasses.replace(upper, multiplicity=2)
    doctored = dataclasses.replace(gaussian_spectrum, eigenvalues=tuple(eigs))
    p = perturbed_spectrum(doctored, 0.1)
    entry = {e.gamma: e for e in p.entries}
    assert not entry[upper.gamma].resolved
    lower = entry[upper.gamma.conjugate()]
    assert lower.resolved
    assert lower.coefficient == refreshment_coefficient(gaussian_potential, lower.gamma)


# models whose descriptor does not parse back: the result carries its model
_SMALL = ComplexRegion(-0.9, 0.1, -1.6, 1.6)
_UNPARSABLE = ["custom x^2/2", "rescaled gaussian:1", "scale(beta:2.5, 2)"]


@pytest.mark.parametrize("case", _UNPARSABLE)
def test_models_without_a_parsable_descriptor_perturb_from_the_result(case):
    if case == "custom x^2/2":
        a = np.asarray
        base = compute_spectrum(custom(lambda x: a(x) ** 2 / 2, lambda x: a(x) / 1.0, label="quad"), _SMALL)
    elif case == "scale(beta:2.5, 2)":
        base = compute_spectrum(scale(beta_family(2.5), 2.0), _SMALL)
    else:
        base = rescale_spectrum(compute_spectrum(gaussian(1.0), _SMALL), 2.0)
    p = perturbed_spectrum(base, 0.5)
    # each coefficient is base.potential's own, the lower member of a pair the
    # conjugate of its upper one's
    upper = {r.gamma: refreshment_coefficient(base.potential, r.gamma) for r in base.eigenvalues if r.gamma.imag >= 0}
    want = [upper[g] if g in upper else upper[g.conjugate()].conjugate() for g in (e.gamma for e in p.entries)]
    assert repr([e.coefficient for e in p.entries]) == repr(want)
    if case == "custom x^2/2":  # x^2/2 is the Gaussian: its rightmost pair moves as gaussian:1's
        gauss = perturbed_spectrum(compute_spectrum(gaussian(1.0), _SMALL), 0.5)
        pair = [(e.gamma, e.coefficient) for e in p.entries if e.gamma != 0]
        for (g, mu), e in zip(pair, (e for e in gauss.entries if e.gamma != 0)):
            assert abs(g - e.gamma) <= 1e-12 and abs(mu - e.coefficient) <= 1e-12
        assert len(pair) == 2
