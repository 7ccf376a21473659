"""psi against the committed mpmath table, tests/reference/psi_table.json.

make_psi_table.py writes the table without the package: the erfc closed form
for the Gaussian and 24 shared digits of two precisions for every beta well,
one of them widened.  Each point runs as a batch of one.  Where psi answers,
psi and psi' must both lie within its own reported error bound plus 1e-14
max(1, |value|): the bound (2 |gamma| + 2) err_A + 4 |gamma| err_B covers
psi' = -2 A + 4 gamma B as well as psi = 1 - 2 gamma A.  Where psi refuses,
it must raise IntegrationError naming that gamma, and only at the points in
REFUSED.  The worst error per family is printed after the test summary.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import PSI_TABLE_WORST

from zigzagspec import charfn
from zigzagspec.errors import IntegrationError
from zigzagspec.potential import parse_potential, scale

TABLE = json.loads((Path(__file__).parent / "reference" / "psi_table.json").read_text())["points"]
REL = 1e-14

FAMILIES = {"gaussian:1", "beta:2.5@scale=2", *(f"beta:{b}" for b in ("1.5", "1.75", "2", "2.5", "3", "4", "6"))}
# beta:1.5's real axis runs out of panels near the envelope's peak (e^72 to
# e^171) before any ray is tried; ROADMAP item 4 measures these points, and
# item 13's routing is to answer them
REFUSED = {("beta:1.5", g) for g in (-4 + 8j, -4 + 4j, -3 + 2j)}


def model(family):
    name, _, width = family.partition("@scale=")
    potential = parse_potential(name)
    return scale(potential, float(width)) if width else potential


def _cases():
    for row in TABLE:
        gamma = complex(*row["gamma"])
        values = (complex(*row["psi"]), complex(*row["dpsi"]))
        yield pytest.param(row["family"], gamma, *values, id=f"{row['family']}-{gamma}")


@pytest.mark.parametrize("family,gamma,want,dwant", list(_cases()))
def test_psi_against_the_mpmath_table(family, gamma, want, dwant):
    worst, at, answered, refused = PSI_TABLE_WORST.setdefault(family, (0.0, None, 0, 0))
    batch = np.array([gamma])
    if (family, gamma) in REFUSED:
        with pytest.raises(IntegrationError) as info:
            charfn._psi_quadrature_batch(model(family), +1, batch)
        assert info.value.location == gamma and f" at gamma={gamma} " in str(info.value)
        PSI_TABLE_WORST[family] = (worst, at, answered, refused + 1)
        return
    value, deriv, err, *_ = (v.item() for v in charfn._psi_quadrature_batch(model(family), +1, batch))
    miss = abs(value - want) / max(1.0, abs(want))
    PSI_TABLE_WORST[family] = max((worst, at), (miss, gamma), key=lambda w: w[0]) + (answered + 1, refused)
    assert abs(value - want) <= err + REL * max(1.0, abs(want)), f"psi {value} vs {want}, bound {err:.2e}"
    assert abs(deriv - dwant) <= err + REL * max(1.0, abs(dwant)), f"psi' {deriv} vs {dwant}, bound {err:.2e}"


def test_the_table_covers_every_family_at_two_agreeing_precisions():
    assert {row["family"] for row in TABLE} == FAMILIES and len(TABLE) >= 100
    assert all(row["dps"][1] > row["dps"][0] and row["agree"] <= 10.0 ** -24 for row in TABLE)
