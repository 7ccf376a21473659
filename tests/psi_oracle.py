"""psi by its defining integral, the oracle for charfn's quadrature psi.

charfn integrates the partially integrated form psi = 1 - 2 gamma A,
A = INT e^{-2 gamma u - W(u)} du, W(u) = U(sign u).  Integrating by parts the
other way gives the defining integral with the U' factor,

    psi = INT_0^inf W'(u) e^{-2 gamma u - W(u)} du,

which this module takes with integrate_finite along the same path: the ray,
the radius and the tail bound that psi's batch of one reports.  The two forms
share no integrand, so their agreement within both error bounds checks the
quadrature (as a test, and from CI: ``sys.path.insert(0, "tests")``).
"""

import numpy as np

from zigzagspec import charfn
from zigzagspec.quadrature import integrate_finite


def cross_checked_psi(potential, sign, gamma):
    """psi(potential, sign, gamma), asserted to agree with the defining integral
    within the two error bounds plus 1e-11; the defining integral's bound takes
    the partially integrated form's tail times 1 + radius for the U' factor."""
    gamma = complex(gamma)
    value, _, err, phi, radius, tail = (v.item() for v in charfn._psi_quadrature_batch(potential, sign, np.array([gamma])))
    u_of, w_of, rot = charfn._path(potential, sign, phi)

    def f(t):
        u = u_of(t)
        return rot * sign * potential.dU(sign * u) * np.exp(-2.0 * gamma * u - w_of(u))

    alt, alt_err = integrate_finite(f, 0.0, radius, oscillation=abs(2.0 * (gamma * rot).imag))
    budget = err + alt_err + tail * (1.0 + radius) + 1e-11
    assert abs(value - alt) <= budget, (
        f"psi of {potential.descriptor()} at gamma={gamma}: partially integrated form {value} "
        f"vs defining integral {alt} (budget {budget:.2e})"
    )
    return value
