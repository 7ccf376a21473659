"""The benchmark's workloads and the checks on their outputs.

Every workload runs the same user pipeline, the four CLI subcommands, on
its potentials: ``spectrum``, the operator-level calls behind ``perturb`` and
``eigfun`` (plus projections and resolvents), and ``simulate`` with its
marginal and the CLI's 81-lag autocorrelation.  Each end-to-end metric is
therefore measured on every workload, while the psi backend differs:

* ``gaussian-closed-form``: the 43-eigenvalue default-region spectrum of
  gaussian:1, where psi is closed form and the cost is the contour machinery
  (rootfinder, edge quadrature, erfcx); eight T = 1e5 chains of the
  exact-inversion sampler, which takes about 0.05 s per chain.
* ``beta-quadrature``: spectra of beta:2.5 and beta:2, where psi itself is a
  batched quadrature nested inside every contour integral, and psi_tilde in
  the operator calls is a quadrature too; one T = 1e5 chain of the thinning
  sampler.

The seed drives the simulator (Philox key [seed, stream], a new stream per
round and chain) and the random resolvent and projection inputs h; the
spectra are deterministic.  Checks use the acceptance battery's literal
tolerances and the mpmath reference eigenvalues in reference/eigenvalues.json.
"""

from __future__ import annotations

import json
import os

import numpy as np

import zigzagspec as zz

HERE = os.path.dirname(os.path.abspath(__file__))

LAGS = np.round(np.arange(0.0, 8.0001, 0.1), 10)  # the CLI's simulate lags
POINTS = (2.0 + 0.0j, 1.0 + 0.5j, 0.25 - 1.0j)  # criterion 07's off-spectrum points
EPS = 0.5  # refreshment rate of the perturb step
N_LEADING = 3  # eigenvalues with an eigenfunction table and a projection
N_H = 2  # seeded resolvent inputs, each applied at every point of POINTS


def load_reference():
    with open(os.path.join(HERE, "reference", "eigenvalues.json")) as fh:
        cases = json.load(fh)["cases"]
    return {desc: [complex(re, im) for re, im in case["eigenvalues"]] for desc, case in cases.items()}


def leading(eigs, n):
    """The n rightmost nonzero eigenvalues in the upper half plane."""
    upper = sorted((z for z in eigs if z.imag > 0), key=lambda z: -z.real)
    return upper[:n]


def gap(eigs):
    return min(-z.real for z in eigs if z != 0)


def random_h(potential, rng):
    """An input from criterion 07's family (a + b x + c x^2 + d theta x) e^{-x^2/2.5}."""
    a, b, c, d = rng.normal(size=4)

    def h(x, th):
        x = np.asarray(x, dtype=float)
        return (a + b * x + c * x * x + d * th * x) * np.exp(-x * x / 2.5)

    return zz.GridFunction.from_callable(potential, h)


# --------------------------------------------------------------------- checks
# each returns None when the output passes, else a message


def check_spectrum(result, reference, tol):
    """Count and nearest-reference distance; pairs are matched by distance,
    not by sorted position, whose order within a conjugate pair is noise."""
    reg = result.region
    expected = [
        z for z in reference if reg.re_min <= z.real <= reg.re_max and reg.im_min <= z.imag <= reg.im_max
    ]
    computed = [r.gamma for r in result.eigenvalues]
    if len(computed) != len(expected):
        return f"{len(computed)} eigenvalues, reference has {len(expected)} in {reg}"
    used = set()
    worst = 0.0
    for g in computed:
        dist = [abs(g - z) for z in expected]
        i = int(np.argmin(dist))
        if i in used:
            return f"two eigenvalues share the reference {expected[i]}"
        used.add(i)
        worst = max(worst, dist[i])
    if worst > tol:
        return f"eigenvalue off its reference by {worst:.2e} (tol {tol:.0e})"
    return None


def check_perturbation(pert):
    """Criterion 08: mu(0) = 0, mu(conj g) = conj mu(g) and Re mu < 0 on the
    rightmost pair."""
    entries = pert.entries
    zero = [e for e in entries if e.gamma == 0]
    if len(zero) != 1 or zero[0].coefficient is None or abs(zero[0].coefficient) > 1e-10:
        return "mu(0) missing or above 1e-10"
    top = max((e for e in entries if e.gamma.imag > 0), key=lambda e: e.gamma.real)
    bottom = min(entries, key=lambda e: abs(e.gamma - top.gamma.conjugate()))
    if top.coefficient is None or bottom.coefficient is None:
        return f"rightmost pair at {top.gamma} unresolved"
    conj_err = abs(bottom.coefficient - top.coefficient.conjugate())
    if conj_err > 1e-8:
        return f"mu(conj g) - conj mu(g) = {conj_err:.2e} (tol 1e-8)"
    if not (top.coefficient.real < 0 and bottom.coefficient.real < 0):
        return f"rightmost pair moves right: Re mu = {top.coefficient.real:.4f}"
    return None


def check_table(potential, gamma, table):
    """Criterion 06 on the exported table: |(L - gamma) f| / sup|f| <= 1e-5,
    with the 4th-order central difference on the table's own grid, skipping
    |x| < 0.05 (kink of U' at the mode) and two nodes at each edge."""
    xs = table[:, 0]
    fp = table[:, 1] + 1j * table[:, 2]
    fm = table[:, 3] + 1j * table[:, 4]
    step = xs[1] - xs[0]
    inner = xs[2:-2]
    keep = np.abs(inner) >= 0.05
    sup = max(np.max(np.abs(fp)), np.max(np.abs(fm)))
    worst = 0.0
    for theta, v, other in ((+1, fp, fm), (-1, fm, fp)):
        dv = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * step)
        rate = np.maximum(theta * potential.dU(inner), 0.0)
        resid = theta * dv + rate * (other[2:-2] - v[2:-2]) - gamma * v[2:-2]
        worst = max(worst, float(np.max(np.abs(resid[keep]))) / sup)
    if not worst <= 1e-5:
        return f"generator residual {worst:.2e} (tol 1e-5)"
    return None


def check_projection(potential, gamma, other, out):
    """Criterion 07: projecting c f again returns c (1e-8), and the
    eigenfunction at another eigenvalue projects to 0 (1e-6)."""
    c1, f = out
    c2, _ = zz.spectral_projection(
        potential, gamma, lambda x, th: c1 * f.component(x, th), growth=abs(gamma.real)
    )
    if not abs(c2 - c1) <= 1e-8:
        return f"idempotence {abs(c2 - c1):.2e} (tol 1e-8)"
    g = zz.eigenfunction(potential, other)
    c, _ = zz.spectral_projection(potential, gamma, g.component, growth=abs(other.real))
    if not abs(c) <= 1e-6:
        return f"J-orthogonality {abs(c):.2e} (tol 1e-6)"
    return None


def check_resolvent(potential, z, h, f):
    defect = zz.resolvent_defect(potential, z, h, f)
    return None if defect <= 1e-5 else f"resolvent defect {defect:.2e} (tol 1e-5)"


def check_marginal(out):
    ks = out[1].ks_statistic
    return None if ks <= 0.01 else f"KS {ks:.2e} (tol 0.01)"


def check_rate(rate, kappa):
    rel = abs(rate - kappa) / kappa
    return None if rel <= 0.20 else f"envelope rate {rate:.4f} is {100 * rel:.1f}% off the gap {kappa:.4f}"


# ------------------------------------------------------------------ op groups


def operator_ops(ops, potential, spectrum, eigs, grid, hs):
    """perturb, eigfun tables, projections and resolvents at one potential."""
    if spectrum is not None:
        ops.run("operator_s", "perturb", lambda: zz.perturbed_spectrum(spectrum, EPS), check_perturbation)
    lead = leading(eigs, N_LEADING)
    for k, gamma in enumerate(lead):
        other = lead[(k + 1) % len(lead)]
        h = hs[k % len(hs)]
        ops.run(
            "operator_s",
            f"eigfun {gamma:.6g}",
            lambda: zz.eigenfunction_table(potential, gamma, grid),
            lambda t: check_table(potential, gamma, t),
        )
        ops.run(
            "operator_s",
            f"projection {gamma:.6g}",
            lambda: zz.spectral_projection(potential, gamma, h),
            lambda out: check_projection(potential, gamma, other, out),
        )
    for h in hs:
        for z in POINTS:
            ops.run(
                "operator_s",
                f"resolvent {z}",
                lambda: zz.apply_resolvent(potential, z, h),
                lambda f: check_resolvent(potential, z, h, f),
            )


def path_ops(ops, potential, horizon, seed, r, kappa, chains=1):
    """simulate + 80-bin marginal per chain (Philox streams r * chains + c),
    then the 81-lag ACF of the first chain and its envelope rate."""
    first = None
    for c in range(chains):

        def sample(stream=r * chains + c):
            path = zz.simulate(potential, zz.SwitchingRateSpec(), 0.0, 1, horizon, seed, stream)
            return path, zz.empirical_marginal(path, 80)

        out = ops.run("simulate_s", f"simulate {potential.descriptor()}", sample, check_marginal)
        first = out if first is None else first
    if first is None:
        return

    def acf():
        values = zz.autocorrelation(first[0], lambda x, th: x, LAGS)
        return zz.envelope_decay_rate(LAGS, values)

    ops.run("acf_s", f"acf {potential.descriptor()}", acf, lambda rate: check_rate(rate, kappa))


# ------------------------------------------------------------------ workloads


class GaussianClosedForm:
    def __init__(self, seed):
        ref = load_reference()
        self.seed = seed
        self.g1 = zz.gaussian(1.0)
        self.eigs = ref["gaussian:1"]
        self.grid = zz.default_grid(self.g1)
        rng = np.random.default_rng([seed, 1])
        self.hs = [random_h(self.g1, rng) for _ in range(N_H)]

    def round(self, ops, r):
        spec = ops.run(
            "spectrum_s",
            "spectrum gaussian:1",
            lambda: zz.compute_spectrum(self.g1),
            lambda s: check_spectrum(s, self.eigs, 1e-12),
        )
        operator_ops(ops, self.g1, spec, self.eigs, self.grid, self.hs)
        path_ops(ops, self.g1, 1e5, self.seed, r, gap(self.eigs), chains=8)


class BetaQuadrature:
    REGION = zz.ComplexRegion(-1.5, 0.1, -3.0, 3.0)  # 7 eigenvalues of beta:2.5
    BETA2_REGION = zz.ComplexRegion(-0.9, 0.1, -1.6, 1.6)  # 3 of beta:2

    def __init__(self, seed):
        ref = load_reference()
        self.seed = seed
        self.b25 = zz.beta_family(2.5)
        self.b2 = zz.beta_family(2.0)
        self.eigs = ref["beta:2.5"]
        self.gauss = ref["gaussian:1"]
        self.grid = zz.default_grid(self.b25)
        rng = np.random.default_rng([seed, 2])
        self.hs = [random_h(self.b25, rng) for _ in range(N_H)]

    def round(self, ops, r):
        spec = ops.run(
            "spectrum_s",
            "spectrum beta:2.5",
            lambda: zz.compute_spectrum(self.b25, self.REGION),
            lambda s: check_spectrum(s, self.eigs, 1e-12),
        )
        # beta:2 is x^2/2 exactly, so it must reproduce the Gaussian
        ops.run(
            "spectrum_s",
            "spectrum beta:2",
            lambda: zz.compute_spectrum(self.b2, self.BETA2_REGION),
            lambda s: check_spectrum(s, self.gauss, 1e-8),
        )
        operator_ops(ops, self.b25, spec, self.eigs, self.grid, self.hs)
        path_ops(ops, self.b25, 1e5, self.seed, r, gap(self.eigs))


WORKLOADS = {
    "gaussian-closed-form": GaussianClosedForm,
    "beta-quadrature": BetaQuadrature,
}


def default_region_probe():
    """Whether the default-region spectrum of beta:1.5 fails (it does at the
    time of writing: the panel budget runs out after about 1.4 s)."""
    try:
        zz.compute_spectrum(zz.beta_family(1.5))
    except zz.ZigzagError:
        return 1
    return 0
