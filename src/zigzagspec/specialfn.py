"""Complex scaled complementary error function.

Everything here routes through the Faddeeva function w(z), for which scipy
carries a uniformly accurate implementation: erfcx(z) = w(iz) holds on the
closed right half plane, and the left half plane is reached through the
reflection erfcx(z) = 2 e^{z^2} - erfcx(-z).  In the spectral search region
(|Re z| <= 8, |Im z| <= 12 after the sqrt(2) stretch) the exponential in the
reflection stays far from overflow.  scipy.special, most of the package's
import time, is imported on the first evaluation: only Gaussian routes need it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["erfcx_complex"]


def erfcx_complex(z):
    """e^{z^2} erfc(z) for complex z; vectorized, scalar in scalar out."""
    from scipy.special import wofz

    z = np.asarray(z, dtype=complex)
    zr = np.where(z.real >= 0.0, z, -z)
    w = wofz(1j * zr)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(z.real >= 0.0, w, 2.0 * np.exp(z * z) - w)
    return out if out.ndim else complex(out)

