import numpy as np
import pytest

from zigzagspec.potential import beta_family, custom, gaussian
from zigzagspec.rootfinder import ComplexRegion
from zigzagspec.spectrum import compute_spectrum

# rightmost Gaussian (sigma = 1) eigenvalues, upper half-plane representatives.
# Frozen from a converged run cross-checked against the quadrature backend at
# 2e-15 componentwise; the residual |Z(gamma)| of every entry is < 2e-14.
GAUSSIAN_EIGENVALUES = (
    0.0 + 0.0j,
    -0.4256652293460281 + 1.0229524328453121j,
    -0.9579954288082148 + 1.4081797090760007j,
    -1.2661624294766889 + 1.6675695587434682j,
    -1.539403216043598 + 1.9029297242317529j,
    -1.7613501215648608 + 2.1008665698996936j,
    -1.9688593627670619 + 2.2877243963944376j,
)
GAUSSIAN_GAP = 0.4256652293460281

# branch of each entry above (the spectrum alternates between the two
# symmetric components as Re gamma decreases)
GAUSSIAN_BRANCHES = ("plus", "minus", "plus", "minus", "plus", "minus", "plus")


# beta:2.5 region holding its 7 rightmost eigenvalues (the benchmark's)
BETA25_REGION = ComplexRegion(-1.5, 0.1, -3.0, 3.0)


def skewed_well():
    """A unimodal custom well that is not even: U = x^2/2 + 0.1 x^3 / (1 + x^2)."""
    return custom(
        lambda x: np.asarray(x) ** 2 / 2 + 0.1 * np.asarray(x) ** 3 / (1 + np.asarray(x) ** 2),
        lambda x: np.asarray(x)
        + 0.1 * (3 * np.asarray(x) ** 2 * (1 + np.asarray(x) ** 2) - 2 * np.asarray(x) ** 4)
        / (1 + np.asarray(x) ** 2) ** 2,
        label="skewed",
    )


# one verdict line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []
# family -> worst error of psi against tests/reference/psi_table.json, echoed likewise
PSI_TABLE_WORST = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if PSI_TABLE_WORST:
        terminalreporter.section("psi table: worst |psi - table| / max(1, |table|) per family")
        for family, (worst, at, answered, refused) in PSI_TABLE_WORST.items():
            terminalreporter.write_line(f"{family}: {worst:.2e} at gamma={at} ({answered} answered, {refused} refused)")


@pytest.fixture(scope="session")
def gaussian_potential():
    return gaussian(1.0)


@pytest.fixture(scope="session")
def gaussian_spectrum(gaussian_potential):
    """One full spectrum solve shared by every test that only reads it."""
    return compute_spectrum(gaussian_potential)


@pytest.fixture(scope="session")
def beta25_spectrum():
    """One beta:2.5 spectrum on BETA25_REGION, shared likewise."""
    return compute_spectrum(beta_family(2.5), BETA25_REGION)


def upper_half(eigs):
    return sorted(
        (g for g in eigs if g.imag > 0 or g == 0), key=lambda g: (-g.real, g.imag)
    )


def match_sets(a, b, tol):
    """Greedy pairing distance between two same-length complex collections."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        d = [abs(z - w) for w in b]
        i = int(np.argmin(d))
        worst = max(worst, d[i])
        b.pop(i)
    assert worst <= tol, f"set match worst distance {worst:.3e} > {tol:.1e}"
    return worst
