"""Regenerate the high-precision psi table with mpmath.

    python3 tests/reference/make_psi_table.py

writes psi_table.json next to this file, the oracle of tests/test_psi_table.py.
Nothing here imports zigzagspec.  Every family is even, so psi+ = psi- =: psi,

    psi(gamma) = 1 - 2 gamma A,   psi'(gamma) = -2 A + 4 gamma B,
    A = INT_0^inf e^{-2 gamma u - U(u)} du,   B = INT_0^inf u e^{-2 gamma u - U(u)} du.

The Gaussian takes the erfc closed form, psi = 1 - sqrt(2 pi) gamma w with
w = e^{2 gamma^2} erfc(sqrt2 gamma).  Every beta well, widths included,
integrates A and B on the real axis by composite Gauss-Legendre (mpmath's
rule), on pieces short enough that gamma's phase and U's growth turn by at
most 2 across one and at most a quarter width wide, so the branch points of
U at +-i sigma stay far outside each piece's Bernstein ellipse.

Each point's radius and digits come from its own envelope
le(t) = -2 Re(gamma) t - U(t), never from fixed numbers.  R is the first
piece end where le < -MARGIN and le falls by more than 1 per unit; le is
concave from le(0) = 0, so R is past the peak and the tail is below
e^{le(R)} / |le'(R)|.  A peak P costs P / ln 10 digits of cancellation on
top of TARGET.  Each point is computed at two precisions, the second with
SECOND more digits and more nodes per piece; they must agree to 10^-TARGET
of max(1, |value|), and the table records how closely they did.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp

TARGET = 24  # digits the two precisions must share
GUARD = 10  # digits on top of TARGET and the cancellation
SECOND = 16  # extra digits of the second precision
MARGIN = TARGET * math.log(10.0) + 10.0  # envelope cut: the tail stays far below 10^-TARGET

# default regions [-4/sigma, 0.1] x [-B, B] with auto_region's bound B (beta:1.5 has
# none: its default region refuses, so the strip takes B = 8)
STRIPS = {
    "gaussian:1": (-4.0, 6.0),
    "beta:1.5": (-4.0, 8.0),
    "beta:1.75": (-4.0, 5.0),
    "beta:2": (-4.0, 6.0),
    "beta:2.5": (-4.0, 7.5),
    "beta:3": (-4.0, 9.0),
    "beta:4": (-4.0, 11.5),
    "beta:6": (-4.0, 15.5),
    "beta:2.5@scale=2": (-2.0, 4.5),
}
# near-axis points, ROADMAP item 21's four, and one point right of the strips
COMMON = (0.25, 0.05 + 0.1j, -0.3 + 0.05j, -0.5 + 1j, 1 - 2j, -2 + 0.5j, -2 + 3j, -3.5 + 5j, -3.9 + 7.5j, 1000.0)
BENCHMARK = (-1.5 + 3j, 0.1 + 3j, -0.9 + 1.6j)  # the beta:2.5 and beta:2 benchmark regions' corners
CANCELLATION = (-3 - 4.473684210526316j, -2.5 + 3.2j, -2.4 - 4j, -2.8 - 1.6j)  # tests' real-axis cancellation points
EXTRA = {
    "gaussian:1": BENCHMARK + CANCELLATION,
    "beta:2": BENCHMARK + CANCELLATION,
    "beta:2.5": BENCHMARK + (-4 - 6j, -2.789 - 2.368j),
    # ROADMAP item 4: the far left of beta:1.5 is not uniformly ill-conditioned
    "beta:1.5": (-4 + 0.5j, -4 + 4j, -3 + 2j),
    # ROADMAP item 13: beta:1.75's default spectrum, its rightmost and three deepest upper pairs
    "beta:1.75": (
        -0.45449758880894137 + 0.9452922902304598j,
        -3.870362269714108 + 3.2074797228995275j,
        -3.926995936635828 + 3.250786518445054j,
        -3.9831408112243425 + 3.2939841563031274j,
    ),
}

# left out where psi spends 70-150 ms on a point that repeats one kept (a
# conjugate corner, or a refusal past item 4's), so the test stays under 1 s
LEFT_OUT = {"beta:1.5": (-4 - 8j, -3.5 + 5j, -3.9 + 7.5j), "beta:1.75": (-4 - 5j,)}


def points(family):
    re_min, bound = STRIPS[family]
    corners = (complex(re_min, bound), complex(re_min, -bound), complex(re_min, 0.0), complex(0.1, bound))
    every = dict.fromkeys(corners + COMMON + EXTRA.get(family, ()))
    return [complex(g) for g in every if g not in LEFT_OUT.get(family, ())]


def parse(family):
    """(beta, sigma) of a beta family; beta None for the Gaussian."""
    name, _, width = family.partition("@scale=")
    kind, param = name.split(":")
    sigma = float(width) if width else 1.0
    return (None, float(param)) if kind == "gaussian" else (float(param), sigma)


def u_float(beta, sigma, t):
    x = t / sigma
    return math.expm1(beta / 2.0 * math.log1p(x * x)) / beta


def du_float(beta, sigma, t):
    x = t / sigma
    return x * (1.0 + x * x) ** (beta / 2.0 - 1.0) / sigma


def pieces(beta, sigma, gamma):
    """(edges, peak): the piece ends up to the radius, and the envelope's peak log."""
    rate, fall = 2.0 * abs(gamma), -2.0 * gamma.real
    edges, peak, t = [0.0], 0.0, 0.0
    while True:
        cap = 0.25 * sigma
        t += min(cap, 2.0 / (rate + du_float(beta, sigma, t + cap)))
        edges.append(t)
        le = fall * t - u_float(beta, sigma, t)
        peak = max(peak, le)
        if le < -MARGIN and fall - du_float(beta, sigma, t) < -1.0:
            return edges, peak


def psi_beta(beta, sigma, gamma, edges, dps):
    with mp.workdps(dps):
        b, s, g = mp.mpf(beta), mp.mpf(sigma), mp.mpc(gamma)
        nodes, weights = mp.gauss_quadrature(dps // 2 + 12, "legendre")
        a_sum, b_sum = mp.mpc(0), mp.mpc(0)
        for lo, hi in zip(edges, edges[1:]):
            c, h = (mp.mpf(lo) + mp.mpf(hi)) / 2, (mp.mpf(hi) - mp.mpf(lo)) / 2
            for x, w in zip(nodes, weights):
                u = c + h * x
                k = w * h * mp.exp(-2 * g * u - (mp.power(1 + (u / s) ** 2, b / 2) - 1) / b)
                a_sum += k
                b_sum += u * k
        return 1 - 2 * g * a_sum, -2 * a_sum + 4 * g * b_sum


def psi_gaussian(gamma, dps):
    with mp.workdps(dps):
        g = mp.mpc(gamma)
        w = mp.exp(2 * g * g) * mp.erfc(mp.sqrt(2) * g)
        root = mp.sqrt(2 * mp.pi)
        return 1 - root * g * w, -root * ((1 + 4 * g * g) * w - 2 * mp.sqrt(2) * g / mp.sqrt(mp.pi))


def entry(family, gamma):
    beta, sigma = parse(family)
    if beta is None:  # the Gaussian's envelope peaks at 2 (Re gamma)^2 sigma^2
        edges, peak = None, 2.0 * (min(0.0, gamma.real) * sigma) ** 2
    else:
        edges, peak = pieces(beta, sigma, gamma)
    first = TARGET + GUARD + math.ceil(peak / math.log(10.0))
    runs = []
    for dps in (first, first + SECOND):
        runs.append(psi_gaussian(gamma, dps) if beta is None else psi_beta(beta, sigma, gamma, edges, dps))
    with mp.workdps(first + SECOND):
        agree = max(abs(lo - hi) / max(1, abs(hi)) for lo, hi in zip(*runs))
        if agree > mp.mpf(10) ** -TARGET:
            raise RuntimeError(f"{family} at {gamma}: precisions {first} and {first + SECOND} differ by {agree}")
        value, deriv = (complex(v) for v in runs[1])
    return {
        "family": family,
        "gamma": [gamma.real, gamma.imag],
        "psi": [value.real, value.imag],
        "dpsi": [deriv.real, deriv.imag],
        "peak": round(peak, 3),
        "radius": None if edges is None else round(edges[-1], 6),
        "dps": [first, first + SECOND],
        "agree": float(mp.nstr(agree, 3)),
    }


def main():
    rows = []
    for family in STRIPS:
        for gamma in points(family):
            rows.append(entry(family, gamma))
            print(family, gamma, rows[-1]["dps"], rows[-1]["agree"], flush=True)
    out = {
        "about": "psi = psi+ = psi- and psi' of even wells at gamma, from make_psi_table.py (mpmath)",
        "target_digits": TARGET,
        "points": rows,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "psi_table.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(rows)} points to {path}")


if __name__ == "__main__":
    main()
