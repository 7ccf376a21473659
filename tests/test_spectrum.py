import json
from pathlib import Path

import numpy as np
import pytest

from zigzagspec import charfn, spectrum
from zigzagspec.charfn import CharFunctionHandle, z_log_derivative_batch, z_value_batch
from zigzagspec.errors import DomainError, GapUndeterminedError, WindingError
from zigzagspec.potential import beta_family, custom, gaussian, scale
from zigzagspec.rootfinder import ComplexRegion, RootRecord, RootSet, locate_zeros
from zigzagspec.spectrum import (
    auto_region,
    compute_spectrum,
    rescale_spectrum,
    spectral_gap,
)

from conftest import (
    BETA25_REGION,
    GAUSSIAN_BRANCHES,
    GAUSSIAN_EIGENVALUES,
    GAUSSIAN_GAP,
    match_sets,
    upper_half,
)


def test_gaussian_rightmost_eigenvalues(gaussian_spectrum):
    got = upper_half(r.gamma for r in gaussian_spectrum.eigenvalues)
    for want, have in zip(GAUSSIAN_EIGENVALUES, got):
        assert abs(want - have) < 1e-10, f"expected {want}, got {have}"


def test_gaussian_gap(gaussian_spectrum):
    assert gaussian_spectrum.gap == pytest.approx(GAUSSIAN_GAP, abs=1e-12)
    assert spectral_gap(gaussian_spectrum) == gaussian_spectrum.gap


def test_branch_labels_alternate(gaussian_spectrum):
    got = upper_half(r.gamma for r in gaussian_spectrum.eigenvalues)
    by_gamma = {r.gamma: r.branch for r in gaussian_spectrum.eigenvalues}
    for want_branch, g in zip(GAUSSIAN_BRANCHES, got):
        assert by_gamma[g] == want_branch


def test_zero_is_simple_and_on_plus_branch(gaussian_spectrum):
    zero = [r for r in gaussian_spectrum.eigenvalues if r.gamma == 0]
    assert len(zero) == 1
    assert zero[0].multiplicity == 1
    assert zero[0].branch == "plus"


def test_conjugate_closure_and_left_half_plane(gaussian_spectrum):
    eigs = [r.gamma for r in gaussian_spectrum.eigenvalues]
    for g in eigs:
        assert g.real <= 1e-12
        assert min(abs(np.conj(g) - w) for w in eigs) < 1e-8
        if g != 0:
            assert g.real < 0


def _assert_exact_conjugate_pairs(result):
    upper = {(r.gamma, r.branch) for r in result.eigenvalues if r.gamma.imag > 0}
    lower = [r for r in result.eigenvalues if r.gamma.imag < 0]
    assert lower and len(lower) == len(upper)
    for r in lower:
        assert (r.gamma.conjugate(), r.branch) in upper


def test_conjugate_pairs_are_exact_mirrors(gaussian_spectrum, beta25_spectrum):
    # Z(conj g) = conj Z(g) for real U: each Im < 0 eigenvalue is the exact
    # conjugate of an Im > 0 eigenvalue on its branch, so pairs share Re
    _assert_exact_conjugate_pairs(gaussian_spectrum)
    _assert_exact_conjugate_pairs(beta25_spectrum)


@pytest.mark.parametrize(
    "case", ["gaussian:1 default region", "beta:2.5 benchmark region"]
)
def test_full_plane_search_agrees(case, request):
    # the search covers only Im >= -dilation; an independent solve of each
    # branch over the whole region must find the same eigenvalues
    if case.startswith("gaussian"):
        result, potential = request.getfixturevalue("gaussian_spectrum"), gaussian(1.0)
    else:
        result, potential = request.getfixturevalue("beta25_spectrum"), beta_family(2.5)
    full = []
    for branch in ("plus", "minus"):
        handle = CharFunctionHandle(potential, branch=branch)
        rs = locate_zeros(
            lambda z: z_value_batch(handle, z),
            lambda z: z_log_derivative_batch(handle, z),
            result.region,
        )
        full.extend((r.location, branch, r.multiplicity) for r in rs.roots)
    assert len(full) == len(result.eigenvalues)
    for r in result.eigenvalues:
        g, branch, multiplicity = min(full, key=lambda f: abs(f[0] - r.gamma))
        assert abs(g - r.gamma) <= 1e-12, r.gamma
        assert (branch, multiplicity) == (r.branch, r.multiplicity)
    assert sorted(b for _, b, _ in full) == sorted(r.branch for r in result.eigenvalues)


@pytest.mark.parametrize("im_min, count", [(-1.2, 3), (-0.5, 2), (0.0, 2)])
def test_asymmetric_region_is_a_subset_of_the_symmetric_one(im_min, count):
    # both regions and their mirror image lie in the same upper-half search
    # rectangle as the symmetric one, so the eigenvalues inside are identical
    pot = gaussian(1.0)
    whole = compute_spectrum(pot, ComplexRegion(-0.9, 0.1, -1.6, 1.6))
    region = ComplexRegion(-0.9, 0.1, im_min, 1.6)
    part = compute_spectrum(pot, region)
    want = [
        (r.gamma, r.branch, r.multiplicity)
        for r in whole.eigenvalues
        if region.contains(r.gamma)
    ]
    assert [(r.gamma, r.branch, r.multiplicity) for r in part.eigenvalues] == want
    assert len(want) == count
    assert part.diagnostics["search_region"] == whole.diagnostics["search_region"]
    winding = part.diagnostics["winding_plus"] + part.diagnostics["winding_minus"]
    assert winding == len(want)


def test_region_without_zero_is_rejected(monkeypatch):
    # refused by name before the search evaluates psi anywhere
    def no_psi(*args, **kwargs):
        raise AssertionError("psi evaluated for a region without 0")

    monkeypatch.setattr(CharFunctionHandle, "values_batch", no_psi)
    for region in (ComplexRegion(-0.9, 0.1, 0.5, 1.6), ComplexRegion(-4.0, -0.1, -6.0, 6.0)):
        with pytest.raises(DomainError, match="excludes the eigenvalue 0") as err:
            compute_spectrum(gaussian(1.0), region)
        assert repr(region) in str(err.value)


def test_search_region_is_the_upper_half_image(gaussian_spectrum):
    assert gaussian_spectrum.diagnostics["search_region"] == {
        "re_min": -4.0,
        "re_max": 0.1,
        "im_min": -1e-4,
        "im_max": 6.0,
    }
    straddling = spectrum._search_region(ComplexRegion(-0.9, 0.1, -2.0, 1.0))
    assert (straddling.im_min, straddling.im_max) == (-1e-4, 2.0)


def test_unpaired_root_below_the_axis_is_rejected(monkeypatch):
    # a root in the band -dilation <= Im < 0 without a conjugate above the
    # axis means the search missed one: the band cross-check must refuse
    def with_stray_root(*args, **kwargs):
        plus, *others = locate_zeros(*args, **kwargs)  # one RootSet per branch row
        stray = RootRecord(-0.5 - 5e-5j, 1, 0.0)
        return (RootSet(plus.roots + (stray,), plus.region, plus.winding + 1), *others)

    monkeypatch.setattr(spectrum, "locate_zeros", with_stray_root)
    with pytest.raises(WindingError, match="conjugate closure violated"):
        compute_spectrum(gaussian(1.0), ComplexRegion(-0.2, 0.1, -0.4, 0.4))


def test_residuals_are_tiny(gaussian_spectrum):
    assert max(r.residual for r in gaussian_spectrum.eigenvalues) < 1e-12


def test_multiplicities_all_one(gaussian_spectrum):
    assert all(r.multiplicity == 1 for r in gaussian_spectrum.eigenvalues)


def test_eigenvalues_sorted_rightmost_first(gaussian_spectrum):
    res = [r.gamma.real for r in gaussian_spectrum.eigenvalues]
    assert res == sorted(res, reverse=True)


def test_gaussian_default_spectrum_work_count(monkeypatch):
    # a deterministic guard on the contour work: the gammas handed to the
    # joint evaluator of Z+ and Z- (its values and its log derivatives) while
    # finding the 43 default-region eigenvalues of gaussian:1: 36,965, where
    # one search per branch handed 59,440 to the two branches' evaluators
    gammas = []

    def counting(evaluate):
        def counted(handle, g):
            assert handle.branch == ("plus", "minus")
            gammas.append(np.size(g))
            return evaluate(handle, g)

        return counted

    monkeypatch.setattr(spectrum, "z_value_batch", counting(z_value_batch))
    monkeypatch.setattr(spectrum, "z_log_derivative_batch", counting(z_log_derivative_batch))
    result = compute_spectrum(gaussian(1.0))
    assert sum(gammas) <= 38_500
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "eigenvalues.json"
    reference = [complex(re, im) for re, im in json.loads(path.read_text())["cases"]["gaussian:1"]["eigenvalues"]]
    reg = result.region
    inside = [z for z in reference if reg.contains(z)]
    assert len(result.eigenvalues) == len(inside) == 43
    match_sets((r.gamma for r in result.eigenvalues), inside, 1e-12)


def test_beta25_benchmark_spectrum_psi_work(monkeypatch):
    # each psi value serves both branches: the beta:2.5 benchmark region hands
    # 3,563 gammas to psi_batch (6,308 with one search per branch)
    gammas = []
    psi_batch = charfn.psi_batch

    def counting(potential, sign, g, *args, **kwargs):
        gammas.append(np.size(g))
        return psi_batch(potential, sign, g, *args, **kwargs)

    monkeypatch.setattr(charfn, "psi_batch", counting)
    result = compute_spectrum(beta_family(2.5), BETA25_REGION)
    assert len(result.eigenvalues) == 7
    assert sum(gammas) <= 3_700


@pytest.mark.parametrize("case", ["gaussian:1 default region", "beta:2.5 benchmark region", "cosh well"])
def test_joint_search_equals_one_search_per_branch(case):
    # the rows Z+ and Z- share one box tree; each row must find what a
    # single-row search of its branch finds: roots, multiplicities, winding
    if case.startswith("gaussian"):
        potential = gaussian(1.0)
        region = auto_region(potential)
    else:
        potential = beta_family(2.5) if case.startswith("beta") else custom(np.cosh, np.sinh, label="cosh")
        region = BETA25_REGION
    search = spectrum._search_region(region)
    joint = CharFunctionHandle(potential, ("plus", "minus"))
    rows = locate_zeros(lambda z: z_value_batch(joint, z), lambda z: z_log_derivative_batch(joint, z), search)
    assert len(rows) == 2
    for branch, row in zip(("plus", "minus"), rows):
        handle = CharFunctionHandle(potential, branch)
        alone = locate_zeros(lambda z: z_value_batch(handle, z), lambda z: z_log_derivative_batch(handle, z), search)
        assert row.winding == alone.winding > 0
        assert [r.multiplicity for r in row.roots] == [r.multiplicity for r in alone.roots]
        for r, a in zip(row.roots, alone.roots):
            assert abs(r.location - a.location) <= 1e-12, (branch, r.location, a.location)


def test_joint_beta_search_samples_each_segment_once(monkeypatch):
    from zigzagspec import rootfinder

    segments = []
    skeleton = rootfinder._phase_skeleton

    def spy(fvec, z0, direction, length, *rest):
        segments.append(tuple(sorted((round(z.real, 12), round(z.imag, 12)) for z in (z0, z0 + direction * length))))
        return skeleton(fvec, z0, direction, length, *rest)

    monkeypatch.setattr(rootfinder, "_phase_skeleton", spy)
    result = compute_spectrum(beta_family(2.5), BETA25_REGION)
    assert len(result.eigenvalues) == 7
    assert len(segments) > 4  # the search subdivided
    assert len(set(segments)) == len(segments)


def test_auto_region_gaussian(gaussian_potential):
    region = auto_region(gaussian_potential)
    assert region.re_min == -4.0
    assert region.re_max == 0.1
    assert region.im_max >= 2.0  # must not clip the conjugate pairs it covers
    assert region.im_min == -region.im_max


def test_auto_region_rejects_nonnegative_start(gaussian_potential):
    with pytest.raises(DomainError):
        auto_region(gaussian_potential, re_min=0.5)


@pytest.mark.parametrize("re_min", [float("nan"), -float("inf")])
def test_auto_region_rejects_nonfinite_start(gaussian_potential, re_min):
    with pytest.raises(DomainError, match="finite"):
        auto_region(gaussian_potential, re_min=re_min)


def test_scaling_law_componentwise():
    # matched regions, otherwise the two runs cover different tail sets
    r1 = ComplexRegion(-2.2, 0.1, -3.0, 3.0)
    r2 = ComplexRegion(-1.1, 0.05, -1.5, 1.5)
    s1 = compute_spectrum(gaussian(1.0), r1)
    s2 = compute_spectrum(gaussian(2.0), r2)
    assert len(s1.eigenvalues) == len(s2.eigenvalues)
    for a, b in zip(s1.eigenvalues, s2.eigenvalues):
        assert abs(a.gamma / 2.0 - b.gamma) < 1e-10
        assert a.branch == b.branch


def test_rescale_spectrum_matches_direct_computation():
    r1 = ComplexRegion(-2.2, 0.1, -3.0, 3.0)
    s1 = compute_spectrum(gaussian(1.0), r1)
    s2 = compute_spectrum(gaussian(2.0), ComplexRegion(-1.1, 0.05, -1.5, 1.5))
    rescaled = rescale_spectrum(s1, 2.0)
    assert rescaled.gap == pytest.approx(s2.gap, abs=1e-10)
    for a, b in zip(rescaled.eigenvalues, s2.eigenvalues):
        assert abs(a.gamma - b.gamma) < 1e-10
    assert rescaled.diagnostics["rescaled_by"] == 2.0
    assert "(gamma / 2)" in rescaled.potential_descriptor
    # the result carries the model it was solved for, and rescaling widens it
    assert s1.potential == gaussian(1.0) and s2.potential == gaussian(2.0)
    assert rescaled.potential == scale(s1.potential, 2.0) == s2.potential


def test_scaled_beta_spectrum_follows_the_scaling_law(beta25_spectrum):
    # the scaling law off the gaussian: beta:2.5 widened by 2 on the halved
    # region against the unit spectrum divided by 2
    r = BETA25_REGION
    half = ComplexRegion(r.re_min / 2.0, r.re_max / 2.0, r.im_min / 2.0, r.im_max / 2.0)
    wide = compute_spectrum(scale(beta_family(2.5), 2.0), half)
    expected = rescale_spectrum(beta25_spectrum, 2.0)
    assert len(wide.eigenvalues) == len(expected.eigenvalues) == 7
    assert wide.potential == expected.potential
    for a, b in zip(wide.eigenvalues, expected.eigenvalues):
        assert abs(a.gamma - b.gamma) < 1e-12
        assert a.branch == b.branch


def test_rescale_validation(gaussian_spectrum):
    with pytest.raises(DomainError):
        rescale_spectrum(gaussian_spectrum, 0.0)
    with pytest.raises(DomainError):
        rescale_spectrum(gaussian_spectrum, float("nan"))


def test_beta_family_gap_ordering():
    # the gap shrinks as the tails get heavier (beta = 2 is the gaussian)
    region = ComplexRegion(-0.9, 0.1, -1.6, 1.6)
    gaps = {}
    for beta in (1.75, 2.0, 2.5):
        gaps[beta] = compute_spectrum(beta_family(beta), region).gap
    assert gaps[1.75] > gaps[2.0] > gaps[2.5]
    assert gaps[2.0] == pytest.approx(GAUSSIAN_GAP, abs=1e-9)
    assert gaps[1.75] == pytest.approx(0.454497588808942, abs=1e-9)
    assert gaps[2.5] == pytest.approx(0.3883129279099703, abs=1e-9)


def test_quadrature_backend_agrees_with_closed_form():
    # beta:2 is x^2/2 exactly, evaluated by quadrature
    region = ComplexRegion(-0.9, 0.1, -1.6, 1.6)
    fast = compute_spectrum(gaussian(1.0), region)
    slow = compute_spectrum(beta_family(2.0), region)
    assert len(fast.eigenvalues) == len(slow.eigenvalues)
    for a, b in zip(fast.eigenvalues, slow.eigenvalues):
        assert abs(a.gamma - b.gamma) < 1e-9


def test_gap_undetermined_when_region_only_holds_zero():
    region = ComplexRegion(-0.2, 0.1, -0.4, 0.4)
    result = compute_spectrum(gaussian(1.0), region)
    assert result.gap is None
    with pytest.raises(GapUndeterminedError):
        spectral_gap(result)


def test_diagnostics_payload(gaussian_spectrum):
    d = gaussian_spectrum.diagnostics
    assert d["winding_plus"] + d["winding_minus"] == len(gaussian_spectrum.eigenvalues)
    assert d["conjugate_defect"] < 1e-8
    assert "assumptions" in d


def test_asymmetric_potential_uses_full_branch():
    from zigzagspec.potential import custom

    pot = custom(
        lambda x: np.asarray(x) ** 2 / 2
        + 0.1 * np.asarray(x) ** 3 / (1 + np.asarray(x) ** 2),
        lambda x: np.asarray(x)
        + 0.1
        * (3 * np.asarray(x) ** 2 * (1 + np.asarray(x) ** 2) - 2 * np.asarray(x) ** 4)
        / (1 + np.asarray(x) ** 2) ** 2,
        label="skewed",
    )
    region = ComplexRegion(-0.6, 0.1, -1.3, 1.3)
    result = compute_spectrum(pot, region)
    assert all(r.branch == "full" for r in result.eigenvalues)
    assert any(r.gamma == 0 for r in result.eigenvalues)
    assert "winding_full" in result.diagnostics
