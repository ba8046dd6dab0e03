"""Tests for Frey curve invariants, hypothesis checks, and congruence scans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfe25 import frey
from gfe25.descent import SEXTIC_INDICES


def test_frey_curve_examples():
    e = frey.frey_curve(3, -2)
    assert (e.A, e.B) == (-6, -6)
    assert e.discriminant == -1728
    assert frey.frey_curve(1, 0).B == -2
    assert frey.frey_curve(0, 1).A == 3
    with pytest.raises(frey.SingularCurve):
        frey.frey_curve(1, -1)


def test_short_weierstrass_identities():
    e = frey.frey_curve(3, -2)
    assert 1728 * e.discriminant == e.c4**3 - e.c6**2
    with pytest.raises(frey.SingularCurve):
        frey.ShortWeierstrass(Fraction(0), Fraction(0))


def test_irred_hypotheses_examples():
    assert frey.irred_hypotheses(3, -2) == {"holds": True, "via": "(i)"}
    assert frey.irred_hypotheses(1, 0) == {"holds": True, "via": "(ii)"}
    assert frey.irred_hypotheses(10, 8) == {"holds": True, "via": "(i)"}
    # both fail: a odd, b = 0 mod 8; a = 1 mod 9, b = -1 mod 3
    assert frey.irred_hypotheses(1, 8) == {"holds": False, "via": "none"}


def test_congruence_scans_all_hold():
    for i in SEXTIC_INDICES:
        sc = frey.congruence_scan(i)
        assert sc.all_hypotheses_hold, i
        assert sc.mod8_pairs and sc.mod9_pairs


def test_congruence_scan_rejects_other_indices():
    with pytest.raises(ValueError):
        frey.congruence_scan(1)


def test_symplectic_ratio():
    # v2(Delta(E)) = -6 = 4 mod 5 against v2(Delta(W)) = 3: anti-symplectic
    assert frey.symplectic_ratio(-6, 3) == "antisymplectic"
    assert frey.symplectic_ratio(4, 3) == "antisymplectic"
    assert frey.symplectic_ratio(3, 3) == "symplectic"
    assert frey.symplectic_ratio(0, 3) == "inconclusive"
    with pytest.raises(frey.BadInput):
        frey.symplectic_ratio(1, 5)


def test_ito_w_table_shape():
    rows = frey.ito_w_rows()
    by_i = {r["i"]: r for r in rows}
    assert set(SEXTIC_INDICES) <= set(by_i)
    assert by_i[22]["W"] == "54a1" and by_i[22]["type"] == "-"
    assert by_i[6]["W"] == "96a1"
    assert all(r["type"] == "+" for r in rows if r["cm"])
    for r in rows:
        assert r["d"] and all(abs(d) in (1, 2, 3, 6) for d in r["d"])


@settings(max_examples=60, deadline=None)
@given(st.integers(-200, 200), st.integers(-60, 60))
def test_discriminant_identity(a, b):
    if a * a + b**3 == 0:
        return
    e = frey.frey_curve(a, b)
    assert e.discriminant == -1728 * (a * a + b**3)
    assert 1728 * e.discriminant == e.c4**3 - e.c6**2
