"""Regenerate the benchmark's reference eigenvalues with mpmath.

    python3 perfbench/reference/make_reference.py

writes eigenvalues.json next to this file.  Nothing here imports zigzagspec:
psi is re-derived from its definition,

    psi(gamma) = 1 - 2 gamma INT_0^inf exp(-2 gamma u - U(u)) du,

and for an even potential the spectrum is the zero set of Z+ = 1 - psi
together with that of Z- = 1 + psi.  Three steps per potential:

1. isolation: the box is bisected until each piece winds once around 0
   under Z+-, with the phase tracked along piece boundaries.  For beta
   potentials psi comes from a composite Gauss-Legendre rule in double
   precision (numpy); the Gaussian uses its closed form through scipy's
   Faddeeva function, because far left of the imaginary axis the integral
   cancels below double precision;
2. refinement: mpmath.findroot (Muller's method) at 30 digits on an mpmath psi (the erfc closed
   form for the Gaussian, mpmath.quad for beta potentials), started at each
   piece's center; the root must stay inside its piece.
"""

from __future__ import annotations

import json
import math
import os
import re

import mpmath as mp
import numpy as np
from scipy.special import wofz

DPS = 30
CASES = (
    # boxes enclose every region the benchmark searches, with a margin
    {"descriptor": "gaussian:1", "box": (-4.6, 0.2, -7.0, 7.0), "cutoff": 30.0},
    {"descriptor": "beta:2.5", "box": (-1.6, 0.2, -3.2, 3.2), "cutoff": 12.0},
)


def potential_np(descriptor):
    family, param = descriptor.split(":")
    p = float(param)
    if family == "gaussian":
        return lambda u: u * u / (2.0 * p * p)
    return lambda u: ((1.0 + u * u) ** (p / 2.0) - 1.0) / p


def psi_mp(descriptor, cutoff):
    family, param = descriptor.split(":")
    p = mp.mpf(param)
    if family == "gaussian":
        # INT_0^inf e^{-2 g u - u^2 / (2 s^2)} du = s sqrt(pi/2) erfcx(sqrt2 s g)
        def psi(g):
            z = mp.sqrt(2) * p * g
            return 1 - 2 * g * p * mp.sqrt(mp.pi / 2) * mp.exp(z * z) * mp.erfc(z)

        return psi
    nodes = mp.linspace(0, cutoff, int(4 * cutoff) + 1)

    def psi(g):
        f = lambda u: mp.exp(-2 * g * u - ((1 + u * u) ** (p / 2) - 1) / p)
        return 1 - 2 * g * mp.quad(f, nodes)

    return psi


def psi_fast(descriptor, cutoff, gammas):
    """psi in double precision over an array of gammas."""
    if descriptor.startswith("gaussian"):
        # erfcx(z) = w(iz) on Re z >= 0, and 2 e^{z^2} - erfcx(-z) left of it
        s = float(descriptor.split(":")[1])
        g = np.asarray(gammas, dtype=complex)
        z = math.sqrt(2.0) * s * g
        right = z.real >= 0
        w = wofz(1j * np.where(right, z, -z))
        erfcx = np.where(right, w, 2.0 * np.exp(z * z) - w)
        return 1.0 - 2.0 * g * s * math.sqrt(math.pi / 2.0) * erfcx
    return psi_np(descriptor, cutoff, gammas)


def psi_np(descriptor, cutoff, gammas):
    """Composite 20-point Gauss-Legendre on [0, cutoff], panels of width 0.1."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.arange(0.0, cutoff + 1e-9, 0.1)
    half = 0.5 * np.diff(edges)
    u = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
    wu = (half[:, None] * w[None, :]).ravel() * np.exp(-potential_np(descriptor)(u))
    g = np.asarray(gammas, dtype=complex).ravel()
    out = np.empty(g.size, dtype=complex)
    for s in range(0, g.size, 512):
        gs = g[s : s + 512]
        out[s : s + 512] = 1.0 - 2.0 * gs * (np.exp(-2.0 * gs[:, None] * u[None, :]) @ wu)
    return out.reshape(np.shape(gammas))


def branch_np(sign, psi_values):
    return 1.0 - sign * psi_values  # sign +1: Z+, sign -1: Z-


def winding(fn, box, n=64):
    """Winding number of fn around the box; samples are bisected until
    consecutive phase turns stay below pi/4."""
    r0, r1, i0, i1 = box
    corners = [complex(r0, i0), complex(r1, i0), complex(r1, i1), complex(r0, i1)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        t = np.linspace(0.0, 1.0, n + 1)
        v = fn(a + (b - a) * t)
        for _ in range(30):
            turn = np.angle(v[1:] / v[:-1])
            bad = np.abs(turn) > math.pi / 4
            if not bad.any():
                break
            mid = 0.5 * (t[:-1][bad] + t[1:][bad])
            t = np.concatenate([t, mid])
            order = np.argsort(t)
            t = t[order]
            v = np.concatenate([v, fn(a + (b - a) * mid)])[order]
        else:
            raise RuntimeError(f"phase along {a} -> {b} does not resolve")
        total += float(np.sum(np.angle(v[1:] / v[:-1])))
    return total / (2.0 * math.pi)


def isolate(fn, box, count, out):
    """Bisect the box until each piece winds once; collect (center, piece).

    Cuts fall at 0.5123 of the longer side, never on the real axis of a
    symmetric box, where the branches have real roots."""
    if count == 0:
        return
    r0, r1, i0, i1 = box
    if count == 1 and max(r1 - r0, i1 - i0) < 0.02:
        out.append(box)
        return
    if max(r1 - r0, i1 - i0) < 1e-6:
        raise RuntimeError(f"{count} roots do not separate in {box}")
    if r1 - r0 >= i1 - i0:
        cut = r0 + 0.5123 * (r1 - r0)
        halves = ((r0, cut, i0, i1), (cut, r1, i0, i1))
    else:
        cut = i0 + 0.5123 * (i1 - i0)
        halves = ((r0, r1, i0, cut), (r0, r1, cut, i1))
    counts = [round(winding(fn, half)) for half in halves]
    if sum(counts) != count:
        raise RuntimeError(f"winding not additive across the cut of {box}")
    for half, n in zip(halves, counts):
        isolate(fn, half, n, out)


def solve_case(case):
    desc, box, cutoff = case["descriptor"], case["box"], case["cutoff"]
    psi_exact = psi_mp(desc, cutoff)
    found = []
    for sign, branch in ((+1, "plus"), (-1, "minus")):
        fn = lambda g: branch_np(sign, psi_fast(desc, cutoff, g))
        total = winding(fn, box, n=4000)
        if abs(total - round(total)) > 1e-6:
            raise RuntimeError(f"{desc} {branch}: winding {total} is not an integer")
        pieces = []
        isolate(fn, box, round(total), pieces)
        roots = []
        for r0, r1, i0, i1 in pieces:
            guess = mp.mpc(0.5 * (r0 + r1), 0.5 * (i0 + i1))
            start = (guess, guess + 1e-3, guess + 1e-3j)
            z = complex(mp.findroot(lambda g: 1 - sign * psi_exact(g), start, solver="muller"))
            if abs(z) < 1e-25:
                z = 0j
            elif abs(z.imag) < 1e-25:
                z = complex(z.real, 0.0)
            if not (r0 <= z.real <= r1 and i0 <= z.imag <= i1):
                raise RuntimeError(f"{desc} {branch}: Newton left its piece {(r0, r1, i0, i1)}")
            roots.append(z)
        r0, r1, i0, i1 = box
        margin = min(min(z.real - r0, r1 - z.real, z.imag - i0, i1 - z.imag) for z in roots)
        if margin < 1e-2:
            raise RuntimeError(f"{desc} {branch}: a root lies within {margin:.1e} of the box")
        found.extend((z, branch) for z in roots)
        print(f"{desc} {branch}: {len(roots)} roots, winding {total:.9f}")
    found.sort(key=lambda item: (-item[0].real, item[0].imag))
    return {
        "box": list(box),
        "eigenvalues": [[z.real, z.imag] for z, _ in found],
        "branches": [b for _, b in found],
    }


def main():
    mp.mp.dps = DPS
    data = {
        "source": "perfbench/reference/make_reference.py (mpmath %s, %d digits)" % (mp.__version__, DPS),
        "cases": {case["descriptor"]: solve_case(case) for case in CASES},
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "eigenvalues.json")
    with open(path, "w") as fh:
        # one [re, im] pair per line
        text = json.dumps(data, indent=1)
        fh.write(re.sub(r"\[\s+(\S+),\s+(\S+)\s+\]", r"[\1, \2]", text) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
