import os
import subprocess
import sys

import numpy as np
import pytest

import zigzagspec
from zigzagspec.specialfn import erfcx_complex

# reference values from mpmath (erfcx(z) = exp(z^2) erfc(z), 40 digits)
ERFCX_ORACLE = [
    (0.0 + 0.0j, 1.0 + 0.0j),
    (2.5 + 0.0j, 0.2108063640611436 + 0.0j),
    (0.3 + 0.7j, 0.5201919689730151 - 0.37768781961854664j),
    (-1.2 + 0.4j, 3.764690404893389 - 5.977220988658066j),
    (-3.0 - 2.0j, 250.34730620373907 - 159.18785104818724j),
    (0.0 + 1.5j, 0.10539922456186433 - 0.4832273301407691j),
    (8.0 - 5.0j, 0.050743677837035824 + 0.031363955938247166j),
]


@pytest.mark.parametrize("z,expected", ERFCX_ORACLE)
def test_erfcx_against_mpmath(z, expected):
    got = complex(erfcx_complex(z))
    assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_erfcx_vectorized_matches_scalar():
    zs = np.array([0.1 + 0.2j, -0.7 + 1.1j, 2.0 - 3.0j, -4.0 + 0.0j])
    vec = erfcx_complex(zs)
    for z, v in zip(zs, vec):
        assert complex(erfcx_complex(complex(z))) == complex(v)


def test_erfcx_reflection_consistency():
    # erfcx(-z) = 2 exp(z^2) - erfcx(z); exercises the left-half-plane branch
    for z in (0.4 + 0.3j, 1.5 - 0.8j, 2.2 + 2.0j):
        lhs = complex(erfcx_complex(-z))
        rhs = 2.0 * np.exp(z * z) - complex(erfcx_complex(z))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_erfcx_no_overflow_deep_left():
    # naive exp(z^2) erfc(z) would overflow here; the reflected form must not
    v = complex(erfcx_complex(-10.0 + 0.1j))
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    assert abs(v) > 1e20  # asymptotically 2 exp(z^2)


def test_erfcx_right_tail_asymptotics():
    # erfcx(x) ~ 1/(x sqrt(pi)) for large real x
    x = 50.0
    assert complex(erfcx_complex(x)).real == pytest.approx(
        1.0 / (x * np.sqrt(np.pi)), rel=1e-3
    )


def test_erfcx_conjugate_symmetry():
    for z in (0.3 + 0.7j, -1.2 + 0.4j, 2.0 - 3.0j):
        a = complex(erfcx_complex(np.conj(z)))
        b = np.conj(complex(erfcx_complex(z)))
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_beta_routes_never_load_scipy():
    # scipy.special is imported on the first erfcx call; import zigzagspec and
    # the beta routes (spectrum, eigenfunction table, simulate and marginal)
    # make none, so scipy stays out of sys.modules
    script = """
import sys
import zigzagspec as zz
pot = zz.beta_family(2.5)
spec = zz.compute_spectrum(pot, zz.ComplexRegion(-1.5, 0.1, -3.0, 3.0))
gamma = max((r.gamma for r in spec.eigenvalues if r.gamma.imag > 0), key=lambda g: g.real)
zz.eigenfunction_table(pot, gamma, zz.default_grid(pot))
zz.empirical_marginal(zz.simulate(pot, zz.SwitchingRateSpec(), 0.0, 1, 1e3, 7))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(zigzagspec.__file__))  # this zigzagspec, not an installed one
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
