import numpy as np
import pytest

import zigzagspec.rootfinder as rf
from zigzagspec.errors import DomainError, PolishFailureError, UnresolvedClusterError, WindingError
from zigzagspec.rootfinder import (
    ComplexRegion,
    count_zeros,
    locate_zeros,
    newton_polish,
)


def poly_funcs(roots):
    """(f, f'/f) for a monic polynomial with the given roots (with repeats)."""
    roots = np.asarray(roots, dtype=complex)

    def f(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for r in roots:
            out = out * (z - r)
        return out

    def logderiv(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        # a Newton iterate can land exactly on a root; inf is the honest
        # answer there and newton_polish treats it as convergence
        with np.errstate(divide="ignore", invalid="ignore"):
            for r in roots:
                out = out + 1.0 / (z - r)
        return out

    return f, logderiv


def random_well_separated_roots(rng, n, box=2.0, sep=0.1):
    """Rejection-sample n points in [-box, box]^2 pairwise >= sep apart."""
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - w) >= sep for w in pts):
            pts.append(z)
    return pts


def test_count_zeros_simple_cases():
    region = ComplexRegion(-1.0, 1.0, -1.0, 1.0)
    f, ld = poly_funcs([0.3 + 0.4j])
    assert count_zeros(ld, region, f=f) == 1
    f, ld = poly_funcs([0.3 + 0.4j, -0.5 - 0.2j, 0.0])
    assert count_zeros(ld, region, f=f) == 3
    f, ld = poly_funcs([5.0 + 5.0j])  # outside
    assert count_zeros(ld, region, f=f) == 0


def test_count_zeros_with_multiplicity():
    region = ComplexRegion(-1.0, 1.0, -1.0, 1.0)
    f, ld = poly_funcs([0.2 + 0.1j] * 3)
    assert count_zeros(ld, region, f=f) == 3


def test_boundary_zero_is_absorbed_by_dilation():
    # root exactly on the requested contour edge
    region = ComplexRegion(-1.0, 1.0, -1.0, 1.0)
    f, ld = poly_funcs([1.0 + 0.3j, 0.0])
    rs = locate_zeros(f, ld, region)
    assert rs.winding == 2
    locs = sorted(rs.locations(), key=abs)
    assert abs(locs[0]) < 1e-9
    assert abs(locs[1] - (1.0 + 0.3j)) < 1e-9


def test_locate_zeros_recovers_known_roots():
    roots = [0.5 + 0.5j, -0.7 + 0.2j, -0.1 - 0.6j, 0.9 - 0.9j]
    f, ld = poly_funcs(roots)
    rs = locate_zeros(f, ld, ComplexRegion(-1.5, 1.5, -1.5, 1.5))
    assert rs.total_multiplicity() == 4
    found = rs.locations()
    for r in roots:
        assert min(abs(r - z) for z in found) < 1e-10


def test_locate_zeros_multiplicity_two():
    roots = [0.25 + 0.25j, 0.25 + 0.25j, -0.5 - 0.3j]
    f, ld = poly_funcs(roots)
    rs = locate_zeros(f, ld, ComplexRegion(-1.0, 1.0, -1.0, 1.0))
    ms = sorted((r.multiplicity, r.location) for r in rs.roots)
    assert [m for m, _ in ms] == [1, 2]
    assert abs(ms[1][1] - (0.25 + 0.25j)) < 1e-9


def test_winding_additivity_is_checked_on_every_cut(monkeypatch):
    cuts = []
    orig = rf._split

    def spy(region, axis, cut):
        cuts.append((axis, cut))
        return orig(region, axis, cut)

    monkeypatch.setattr(rf, "_split", spy)
    roots = [0.5 + 0.5j, -0.7 + 0.2j, -0.1 - 0.6j]
    f, ld = poly_funcs(roots)
    rs = locate_zeros(f, ld, ComplexRegion(-1.5, 1.5, -1.5, 1.5))
    assert rs.total_multiplicity() == 3
    # the solver subdivided, and _solve raises WindingError on any cut whose
    # children windings fail to sum, so reaching here checked each one
    assert len(cuts) >= 2


def test_each_contour_segment_is_integrated_once(monkeypatch):
    segments = []
    orig = rf._phase_skeleton

    def spy(fvec, z0, direction, length, n0, *rest):
        ends = sorted(
            (round(z.real, 12), round(z.imag, 12)) for z in (z0, z0 + direction * length)
        )
        segments.append((tuple(ends), n0))  # either direction maps to one key
        return orig(fvec, z0, direction, length, n0, *rest)

    monkeypatch.setattr(rf, "_phase_skeleton", spy)
    cuts = []
    orig_split = rf._split

    def split_spy(region, axis, cut):
        cuts.append((axis, cut))
        return orig_split(region, axis, cut)

    monkeypatch.setattr(rf, "_split", split_spy)
    f, ld = poly_funcs([0.5 + 0.5j, -0.7 + 0.2j, -0.1 - 0.6j])
    calls = []

    def f_spy(z):
        calls.append(np.array(z, dtype=complex).ravel())
        return f(z)

    rs = locate_zeros(f_spy, ld, ComplexRegion(-1.5, 1.5, -1.5, 1.5))
    assert rs.total_multiplicity() == 3
    assert len(segments) > 4  # the search subdivided
    assert len(set(segments)) == len(segments)
    # the first split is the centre line Re = 0, clear of every zero, and f
    # sees its points once: a call sampling it across both children's halves
    assert cuts[0] == ("re", 0.0)
    across = [z for z in calls if np.all(z.real == 0.0) and z.imag.min() < 0.0 < z.imag.max()]
    assert len(across) == 1


def test_a_zero_on_the_centre_line_shifts_the_cut_by_one_unit(monkeypatch):
    cuts = []
    orig = rf._split

    def spy(region, axis, cut):
        cuts.append((axis, cut))
        return orig(region, axis, cut)

    monkeypatch.setattr(rf, "_split", spy)
    region = ComplexRegion(-1.0, 1.0, -1.0, 1.0)
    # 0 is a sample point of Re = 0; 0.3i lies between two, where only the
    # phase refinement meets it
    for zero in (0.0, 0.3j):
        cuts.clear()
        f, ld = poly_funcs([zero, 0.5 + 0.5j])
        rs = locate_zeros(f, ld, region)
        # unit = min(dilation, span / 16) = 1e-4, and +1 unit is the first
        # retry; the requested region is not dilated for an interior line
        assert cuts[0] == ("re", rf._DILATION)
        assert rs.region == region
        assert rs.winding == 2 and len(rs.roots) == 2
        assert min(abs(z - zero) for z in rs.locations()) < 1e-12


def _assert_moment_estimates_kept(monkeypatch, polish):
    """With rf.newton_polish replaced by `polish`, every root is the box's
    unpolished first moment, near the polished root."""
    roots = [0.5 + 0.5j, -0.7 + 0.2j, -0.1 - 0.6j]
    f, ld = poly_funcs(roots)
    region = ComplexRegion(-1.5, 1.5, -1.5, 1.5)
    polished = locate_zeros(f, ld, region)
    assert all(r.polished for r in polished.roots)
    monkeypatch.setattr(rf, "newton_polish", polish)
    rs = locate_zeros(f, ld, region)
    assert rs.winding == 3 and len(rs.roots) == 3
    for rec, ref in zip(rs.roots, polished.roots):
        assert not rec.polished and rec.multiplicity == 1
        assert region.contains(rec.location)
        assert abs(rec.location - ref.location) < 1e-6  # the first moment
        assert rec.residual == abs(f(np.array([rec.location]))[0])


def test_a_newton_step_leaving_its_box_keeps_the_moment_estimate(monkeypatch):
    # every Newton result now lands 5 outside the region, so outside its box
    _assert_moment_estimates_kept(monkeypatch, lambda ld, guess, *a, **k: complex(guess) + 5.0)


def test_a_failed_polish_keeps_the_moment_estimate(monkeypatch):
    def diverges(ld, guess, *args, **kwargs):
        raise PolishFailureError(f"Newton diverged from {guess}")

    _assert_moment_estimates_kept(monkeypatch, diverges)


def test_a_boundary_zero_in_a_box_below_the_minimum_size_is_unresolved(monkeypatch):
    # a box that small is never split or dilated: its undetermined winding
    # is refused, naming the box
    monkeypatch.setattr(rf, "_MIN_BOX", 10.0)
    region = ComplexRegion(-1.0, 1.0, -1.0, 1.0)
    f, ld = poly_funcs([1.0 + 0.3j, 0.0])
    with pytest.raises(UnresolvedClusterError, match="below the minimum size 10") as err:
        locate_zeros(f, ld, region)
    assert err.value.box == region


@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
def test_coarse_start_resolves_a_narrow_peak_near_an_edge(d):
    # a root at distance d from an edge makes f'/f a peak of width d there;
    # the edge quadrature starts on a quarter of the phase skeleton and must
    # still find it, on a horizontal and on a vertical edge, from either side
    inside = [0.3 + (-1.0 + d) * 1j, (1.0 - d) - 0.2j]
    outside = [-0.4 + (-1.0 - d) * 1j, (1.0 + d) + 0.45j]
    f, ld = poly_funcs(inside + outside)
    region = ComplexRegion(-1.0, 1.0, -1.0, 1.0)
    (w_tel,), ((s0,), _, _), _ = rf._contour_moments(
        rf._as_rows(f, set()), rf._as_rows(ld, set()), region, slice(None), {}, rf._EDGE_SAMPLES
    )
    assert round(w_tel) == 2
    assert abs(s0 - w_tel) < 0.05
    assert count_zeros(ld, region, f=f) == 2
    rs = locate_zeros(f, ld, region)
    assert rs.total_multiplicity() == 2
    for r in inside:
        assert min(abs(z - r) for z in rs.locations()) < 1e-9


def test_negative_winding_rejected():
    # 1/(z - a) has a pole: winding -1 must be flagged, not silently returned
    def f(z):
        return 1.0 / (np.asarray(z, dtype=complex) - 0.1)

    def ld(z):
        return -1.0 / (np.asarray(z, dtype=complex) - 0.1)

    with pytest.raises(WindingError):
        locate_zeros(f, ld, ComplexRegion(-1.0, 1.0, -1.0, 1.0))


@pytest.mark.parametrize(
    "bounds",
    [
        (0.5, 0.1, -1.0, 1.0),  # re_min > re_max
        (-1.0, 0.1, 1.0, -1.0),  # im_min > im_max
        (-1.0, 0.1, 0.0, 0.0),  # zero height
        (float("nan"), 0.1, -1.0, 1.0),
        (-1.0, 0.1, -float("inf"), float("inf")),
    ],
)
def test_region_rejects_degenerate_and_nonfinite_bounds(bounds):
    with pytest.raises(DomainError):
        ComplexRegion(*bounds)


def test_rows_are_searched_in_one_tree_as_each_alone(monkeypatch):
    cuts = []
    orig = rf._split

    def spy(region, axis, cut):
        cuts.append((axis, cut))
        return orig(region, axis, cut)

    monkeypatch.setattr(rf, "_split", spy)
    region = ComplexRegion(-1.5, 1.5, -1.5, 1.5)
    f0, ld0 = poly_funcs([0.5 + 0.5j, -0.7 + 0.2j, -0.1 - 0.6j])
    # row 1's one zero sits on row 0's first cut, Re = 0; the top box emits it,
    # so the cut, searched for row 0 alone, stays on the centre line
    f1, ld1 = poly_funcs([0.3j])
    rows = locate_zeros(lambda z: np.stack([f0(z), f1(z)]), lambda z: np.stack([ld0(z), ld1(z)]), region)
    assert isinstance(rows, rf.RootSets) and len(rows) == 2
    assert cuts[0] == ("re", 0.0)
    assert count_zeros(lambda z: np.stack([ld0(z), ld1(z)]), region, f=lambda z: np.stack([f0(z), f1(z)])) == (3, 1)
    for row, (f, ld) in zip(rows, ((f0, ld0), (f1, ld1))):
        alone = locate_zeros(f, ld, region)
        assert (row.winding, row.region) == (alone.winding, alone.region)
        assert row.locations() == alone.locations()
    assert rows.roots == rows[0].roots + rows[1].roots


def test_newton_polish_quadratic_convergence():
    f, ld = poly_funcs([1.0 + 1.0j])
    z = newton_polish(ld, 1.3 + 0.8j)
    assert abs(z - (1.0 + 1.0j)) < 1e-12


@pytest.mark.parametrize("guess", [complex("nan"), complex(1e400, 0.0), complex(0.5, float("inf"))])
def test_newton_polish_rejects_nonfinite_guess(guess):
    f, ld = poly_funcs([1.0 + 1.0j])
    with pytest.raises(DomainError):
        newton_polish(ld, guess)


def test_newton_polish_refuses_an_iterate_that_never_converged():
    # z^3 - 2z + 2 from 0 cycles 0 -> 1 -> 0 with steps of 1 that never grow;
    # at the cap the iterate is 0, where |f| = 2, and Newton must say so
    calls = []

    def ld(z):
        calls.append(z)
        return (3.0 * z**2 - 2.0) / (z**3 - 2.0 * z + 2.0)

    want = r"from 0j did not converge in 50 steps: last iterate 0j, last step 1\.000e\+00"
    with pytest.raises(PolishFailureError, match=want):
        newton_polish(ld, 0j)
    assert len(calls) == rf._MAX_NEWTON_ITER == 50


def test_newton_polish_multiple_root_needs_multiplicity():
    f, ld = poly_funcs([0.5 + 0.0j] * 2)
    z = newton_polish(ld, 0.7 + 0.1j, multiplicity=2)
    assert abs(z - 0.5) < 1e-9


def test_polynomial_suite_small():
    # the 100-polynomial version with timing lives in the acceptance suite
    rng = np.random.default_rng(424242)
    region = ComplexRegion(-2.5, 2.5, -2.5, 2.5)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        roots = random_well_separated_roots(rng, n)
        if trial % 3 == 0:
            roots[0] = roots[1]  # plant a double root
        f, ld = poly_funcs(roots)
        rs = locate_zeros(f, ld, region)
        assert rs.total_multiplicity() == n
        for r in set(map(complex, roots)):
            best = min(abs(r - z) for z in rs.locations())
            assert best < 1e-9, f"trial {trial}: missed {r} by {best:.2e}"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
@pytest.mark.parametrize("entry", ["locate_zeros", "newton_polish"])
def test_root_tol_must_be_finite_and_positive(entry, value):
    # refused by name before f or logderiv is evaluated anywhere
    def untouched(z):
        raise AssertionError(f"evaluated at {z} despite root_tol {value!r}")

    with pytest.raises(DomainError, match=r"root_tol must be finite and > 0"):
        if entry == "locate_zeros":
            locate_zeros(untouched, untouched, ComplexRegion(-1.0, 1.0, -1.0, 1.0), root_tol=value)
        else:
            newton_polish(untouched, 0.5 + 0.5j, root_tol=value)
