"""End-to-end acceptance battery.

Each test checks one contract of the library at its stated tolerance and
appends a single PASS/FAIL verdict line (echoed after the pytest summary).
Tolerances are written out literally here on purpose: changing one is an
interface change, not a test tweak.
"""

import time

import numpy as np

from conftest import ACCEPTANCE_LINES, GAUSSIAN_EIGENVALUES
from test_rootfinder import poly_funcs, random_well_separated_roots

import zigzagspec.rootfinder as rootfinder_mod
from zigzagspec.charfn import (
    CharFunctionHandle,
    gaussian_closed_form,
    psi,
    z_log_derivative_batch,
    z_value_batch,
)
from zigzagspec.operator import (
    GridFunction,
    apply_generator,
    apply_resolvent,
    eigenfunction,
    resolvent_defect,
    spectral_projection,
    z_prime_consistency,
)
from zigzagspec.perturbation import refreshment_coefficient
from zigzagspec.potential import SwitchingRateSpec, beta_family, gaussian, parse_potential
from zigzagspec.rootfinder import ComplexRegion, locate_zeros
from zigzagspec.simulator import autocorrelation, empirical_marginal, envelope_decay_rate, simulate
from zigzagspec.spectrum import compute_spectrum

G = GAUSSIAN_EIGENVALUES


def _report(num, title, ok, elapsed, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {verdict} ({elapsed:7.2f}s)  {title}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------------- 1


def test_criterion_01_gaussian_reference_spectrum(gaussian_potential):
    t0 = time.perf_counter()
    result = compute_spectrum(gaussian_potential)
    elapsed = time.perf_counter() - t0

    listed = [0.0 + 0.0j]
    for z in (
        -0.425665 + 1.02295j,
        -0.957995 + 1.40818j,
        -1.26616 + 1.66757j,
        -1.53940 + 1.90293j,
    ):
        listed.extend([z, np.conj(z)])
    computed = [r.gamma for r in result.eigenvalues]
    worst = 0.0
    for z in listed:
        best = min(
            max(abs(z.real - w.real), abs(z.imag - w.imag)) for w in computed
        )
        worst = max(worst, best)
    gap_err = abs(result.gap - 0.425665)
    ok = worst <= 1e-4 and gap_err <= 1e-4 and elapsed <= 60.0
    _report(
        1,
        "gaussian reference spectrum",
        ok,
        elapsed,
        f"worst componentwise error {worst:.2e} (tol 1e-4), "
        f"gap error {gap_err:.2e} (tol 1e-4), budget 60s",
    )


# --------------------------------------------------------------------------- 2


def test_criterion_02_branch_consistency(gaussian_potential):
    t0 = time.perf_counter()
    region = ComplexRegion(-2.0, 0.1, -2.5, 2.5)

    def roots_of(branch):
        handle = CharFunctionHandle(gaussian_potential, branch=branch)

        def f(z):
            return z_value_batch(handle, z)

        def ld(z):
            return z_log_derivative_batch(handle, z)

        return locate_zeros(f, ld, region)

    full = roots_of("full")
    plus = roots_of("plus")
    minus = roots_of("minus")

    union = [r.location for r in plus.roots] + [r.location for r in minus.roots]
    full_locs = [r.location for r in full.roots]
    set_err = 0.0
    for z in full_locs:
        set_err = max(set_err, min(abs(z - w) for w in union))
    for z in union:
        set_err = max(set_err, min(abs(z - w) for w in full_locs))
    counts_ok = len(full_locs) == len(union)

    zero_on_plus = min(abs(r.location) for r in plus.roots) <= 1e-8

    handle = CharFunctionHandle(gaussian_potential, branch="full")
    min_zprime = np.inf
    for z in full_locs:
        pp, dp, pm, dm = (v[0] for v in handle.values_batch(z))
        min_zprime = min(min_zprime, abs(-(pp * dm + pm * dp)))
    all_simple = all(r.multiplicity == 1 for r in full.roots) and min_zprime > 1e-8

    elapsed = time.perf_counter() - t0
    ok = counts_ok and set_err <= 1e-8 and zero_on_plus and all_simple
    _report(
        2,
        "branch consistency",
        ok,
        elapsed,
        f"{len(full_locs)} roots of Z vs {len(union)} on the branches, "
        f"set distance {set_err:.2e} (tol 1e-8), 0 on plus: {zero_on_plus}, "
        f"min |Z'| {min_zprime:.2e} (floor 1e-8)",
    )


# --------------------------------------------------------------------------- 3


def test_criterion_03_closed_form_cross_check(gaussian_potential):
    t0 = time.perf_counter()
    res = np.linspace(-3.0, 1.0, 20)
    ims = np.linspace(-5.0, 5.0, 20)
    worst = 0.0
    worst_at = 0j
    for re in res:
        for im in ims:
            g = complex(re, im)
            quad = psi(gaussian_potential, +1, g)
            closed = gaussian_closed_form(g)[0]
            diff = abs(quad - closed) / max(1.0, abs(closed))
            if diff > worst:
                worst, worst_at = diff, g
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    # Absolute 1e-9 where |psi| <= 1, relative 1e-9 above.  |psi| reaches
    # ~8.6e8 near Re gamma = -3, where e^{2 gamma^2} conditions even the
    # closed form to a few 1e-15 relative (up to 3.4e-6 absolute against
    # mpmath), so no float64 route can meet an absolute 1e-9 there.
    _report(
        3,
        "closed form vs quadrature psi",
        ok,
        elapsed,
        f"worst |diff| / max(1, |psi|) {worst:.2e} at gamma = {worst_at:.4g} on 20x20 grid "
        f"(tol 1e-9), budget 10s",
    )


# --------------------------------------------------------------------------- 4


def test_criterion_04_scaling_law():
    t0 = time.perf_counter()
    r1 = compute_spectrum(gaussian(1.0), region=ComplexRegion(-2.2, 0.1, -3.0, 3.0))
    r2 = compute_spectrum(gaussian(2.0), region=ComplexRegion(-1.1, 0.05, -1.5, 1.5))
    a = [r.gamma for r in r1.eigenvalues]
    b = [r.gamma for r in r2.eigenvalues]
    ok = len(a) == len(b)
    worst = np.inf
    if ok:
        # nearest-match both ways; sorting is not stable enough because
        # conjugate partners share a real part up to solver noise
        worst = max(
            max(
                min(max(abs(x.real / 2 - y.real), abs(x.imag / 2 - y.imag)) for y in b)
                for x in a
            ),
            max(
                min(max(abs(x.real / 2 - y.real), abs(x.imag / 2 - y.imag)) for x in a)
                for y in b
            ),
        )
        ok = worst <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "scaling law sigma=2",
        ok,
        elapsed,
        f"{len(a)} vs {len(b)} eigenvalues, worst componentwise error "
        f"{worst:.2e} (tol 1e-6)",
    )


# --------------------------------------------------------------------------- 5


def test_criterion_05_structural_invariants(gaussian_spectrum):
    t0 = time.perf_counter()
    spectra = [
        gaussian_spectrum,
        compute_spectrum(gaussian(2.0), region=ComplexRegion(-1.1, 0.05, -1.5, 1.5)),
        compute_spectrum(beta_family(2.5), region=ComplexRegion(-0.9, 0.1, -1.6, 1.6)),
    ]
    problems = []
    worst_z = 0.0
    for result in spectra:
        desc = result.potential_descriptor
        eigs = [r.gamma for r in result.eigenvalues]
        zero = [r for r in result.eigenvalues if r.gamma == 0]
        if len(zero) != 1 or zero[0].multiplicity != 1:
            problems.append(f"{desc}: 0 missing or not simple")
        for g in eigs:
            if g != 0 and g.real >= 0:
                problems.append(f"{desc}: {g} has Re >= 0")
            if min(abs(np.conj(g) - w) for w in eigs) > 1e-8:
                problems.append(f"{desc}: conjugate of {g} missing")
        handle = CharFunctionHandle(parse_potential(desc))
        for g in eigs:
            pp, _, pm, _ = (v[0] for v in handle.values_batch(g))
            worst_z = max(worst_z, abs(1.0 - pp * pm))
    if worst_z > 1e-8:
        problems.append(f"|Z| at reported roots up to {worst_z:.2e}")
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "structural invariants (3 spectra)",
        not problems,
        elapsed,
        problems or f"all hold; max |Z(gamma)| {worst_z:.2e} (tol 1e-8)",
    )


# --------------------------------------------------------------------------- 6


def test_criterion_06_eigen_residuals(gaussian_potential):
    t0 = time.perf_counter()
    spec = SwitchingRateSpec()
    xs = np.linspace(-4.0, 4.0, 801)
    xs = xs[np.abs(xs) >= 0.05]
    worst = 0.0
    for g0 in G[1:6]:
        for g in (g0, np.conj(g0)):
            f = eigenfunction(gaussian_potential, g)
            sup = max(
                np.max(np.abs(f.component(xs, +1))),
                np.max(np.abs(f.component(xs, -1))),
            )
            for th in (+1, -1):
                lf = apply_generator(gaussian_potential, spec, f.component, xs, th)
                resid = np.max(np.abs(lf - g * f.component(xs, th)))
                worst = max(worst, resid / sup)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5
    _report(
        6,
        "generator residuals, 5 rightmost pairs",
        ok,
        elapsed,
        f"worst sup-norm residual ratio {worst:.2e} (tol 1e-5)",
    )


# --------------------------------------------------------------------------- 7


def test_criterion_07_resolvent_and_projections(gaussian_potential):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    points = (2.0 + 0.0j, 1.0 + 0.5j, 0.25 - 1.0j)
    worst_defect = 0.0
    for _ in range(10):
        a, b, c, d = rng.normal(size=4)

        def h(x, th, a=a, b=b, c=c, d=d):
            x = np.asarray(x, dtype=float)
            return (a + b * x + c * x * x + d * th * x) * np.exp(-x * x / 2.5)

        hg = GridFunction.from_callable(gaussian_potential, h)
        for z in points:
            f = apply_resolvent(gaussian_potential, z, hg)
            worst_defect = max(
                worst_defect, resolvent_defect(gaussian_potential, z, hg, f)
            )

    f1 = eigenfunction(gaussian_potential, G[1])
    c1, _ = spectral_projection(
        gaussian_potential,
        G[1],
        lambda x, th: 0.6 * f1.component(x, th),
        growth=abs(G[1].real),
    )
    c2, _ = spectral_projection(
        gaussian_potential,
        G[1],
        lambda x, th: c1 * f1.component(x, th),
        growth=abs(G[1].real),
    )
    idem = abs(c2 - c1)

    ortho = 0.0
    funcs = {k: eigenfunction(gaussian_potential, G[k]) for k in (1, 2, 3)}
    for ka, kb in ((1, 2), (2, 3), (1, 3)):
        coeff, _ = spectral_projection(
            gaussian_potential,
            G[ka],
            funcs[kb].component,
            growth=abs(G[kb].real),
        )
        ortho = max(ortho, abs(coeff))

    zrel = 0.0
    for g, variant in ((0.0, "full"), (G[1], "full"), (G[1], "minus"), (G[2], "plus")):
        lhs, rhs = z_prime_consistency(gaussian_potential, g, variant=variant)
        zrel = max(zrel, abs(lhs - rhs) / abs(lhs))

    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-5 and idem <= 1e-8 and ortho <= 1e-6 and zrel <= 1e-6
    _report(
        7,
        "resolvent / projection oracles",
        ok,
        elapsed,
        f"defect {worst_defect:.2e} (tol 1e-5, 10 inputs x 3 points), "
        f"idempotence {idem:.2e} (tol 1e-8), J-orthogonality {ortho:.2e} "
        f"(tol 1e-6), Z' consistency {zrel:.2e} rel (tol 1e-6)",
    )


# --------------------------------------------------------------------------- 8


def test_criterion_08_perturbation_properties(gaussian_potential):
    t0 = time.perf_counter()
    mu0 = abs(refreshment_coefficient(gaussian_potential, 0.0))
    mu = refreshment_coefficient(gaussian_potential, G[1])
    mu_bar = refreshment_coefficient(gaussian_potential, np.conj(G[1]))
    conj_err = abs(mu_bar - np.conj(mu))
    leftward = mu.real < 0.0 and mu_bar.real < 0.0
    elapsed = time.perf_counter() - t0
    ok = mu0 <= 1e-10 and conj_err <= 1e-8 and leftward
    _report(
        8,
        "perturbation coefficients",
        ok,
        elapsed,
        f"|mu(0)| {mu0:.2e} (tol 1e-10), conjugation {conj_err:.2e} "
        f"(tol 1e-8), rightmost pair Re mu = {mu.real:.4f} < 0: {leftward}",
    )


# --------------------------------------------------------------------------- 9


def test_criterion_09_simulator_validation(gaussian_potential):
    t0 = time.perf_counter()
    path = simulate(
        gaussian_potential, SwitchingRateSpec(), 0.0, +1, 1.0e6, seed=20260825
    )
    ks = empirical_marginal(path).ks_statistic
    lags = np.round(np.arange(0.0, 8.0001, 0.1), 10)
    acf = autocorrelation(path, lambda x, th: x, lags)
    rate = envelope_decay_rate(lags, acf)
    rate_rel = abs(rate - 0.425665) / 0.425665
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.01 and rate_rel <= 0.20 and elapsed <= 120.0
    _report(
        9,
        "simulator at T=1e6",
        ok,
        elapsed,
        f"{path.n_events} events, KS {ks:.2e} (tol 0.01), ACF envelope rate "
        f"{rate:.4f} vs 0.425665 ({100 * rate_rel:.2f}% off, tol 20%), budget 120s",
    )


# -------------------------------------------------------------------------- 10


def test_criterion_10_rootfinder_property_suite(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    region = ComplexRegion(-2.5, 2.5, -2.5, 2.5)

    splits = [0]
    original_split = rootfinder_mod._split

    def counting_split(reg, axis, cut):
        splits[0] += 1
        return original_split(reg, axis, cut)

    # winding additivity is asserted inside _solve at every one of these
    # subdivisions; a violation raises WindingError and fails the suite
    monkeypatch.setattr(rootfinder_mod, "_split", counting_split)

    worst = 0.0
    n_double = 0
    for trial in range(100):
        distinct = random_well_separated_roots(rng, int(rng.integers(3, 8)))
        mults = [1] * len(distinct)
        if trial % 3 == 0:
            mults[int(rng.integers(0, len(distinct)))] = 2
            n_double += 1
        planted = [r for r, m in zip(distinct, mults) for _ in range(m)]
        f, ld = poly_funcs(planted)
        found = locate_zeros(f, ld, region)
        assert len(found.roots) == len(distinct), f"trial {trial}: root count"
        for r, m in zip(distinct, mults):
            rec = min(found.roots, key=lambda q: abs(q.location - r))
            assert rec.multiplicity == m, f"trial {trial}: multiplicity at {r}"
            worst = max(worst, abs(rec.location - r))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and splits[0] > 0
    _report(
        10,
        "rootfinder on 100 random polynomials",
        ok,
        elapsed,
        f"worst location error {worst:.2e} (tol 1e-9), {n_double} planted "
        f"double roots, winding additivity asserted at {splits[0]} subdivisions",
    )
