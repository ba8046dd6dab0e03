"""Tests for the Frey-curve hypothesis checks and congruence scans."""

import pytest

from gfe25 import frey
from gfe25.bforms import evaluate_triple
from gfe25.descent import SEXTIC_INDICES


def irred_hypotheses(a, b):
    """Reference: which sufficient condition for absolute irreducibility of
    the mod-p Frey representations holds: (i) a even or b not in {0, -1, 4}
    mod 8; (ii) a not +-1 mod 9 or b not -1 mod 3.  Returns {holds, via}."""
    cond_i = a % 2 == 0 or b % 8 not in (0, 7, 4)
    cond_ii = a % 9 not in (1, 8) or b % 3 != 2
    via = "(i)" if cond_i else ("(ii)" if cond_ii else "none")
    return {"holds": cond_i or cond_ii, "via": via}


def test_irred_hypotheses_examples():
    assert irred_hypotheses(3, -2) == {"holds": True, "via": "(i)"}
    assert irred_hypotheses(1, 0) == {"holds": True, "via": "(ii)"}
    assert irred_hypotheses(10, 8) == {"holds": True, "via": "(i)"}
    # both fail: a odd, b = 0 mod 8; a = 1 mod 9, b = -1 mod 3
    assert irred_hypotheses(1, 8) == {"holds": False, "via": "none"}


def test_congruence_scans_all_hold():
    for i in SEXTIC_INDICES:
        sc = frey.congruence_scan(i)
        assert sc.all_hypotheses_hold, i
        assert sc.mod8_pairs and sc.mod9_pairs


def _hypotheses_hold_mod_72(i):
    # the reference: every class (u, v) mod 72 with u, v not both even and
    # not both divisible by 3, at both signs of f
    for u in range(72):
        for v in range(72):
            if (u % 2 == 0 and v % 2 == 0) or (u % 3 == 0 and v % 3 == 0):
                continue
            f, g, _ = evaluate_triple(i, u, v)
            if not all(irred_hypotheses(s * f, g)["holds"]
                       for s in (1, -1)):
                return False
    return True


def test_congruence_scan_matches_the_scan_mod_72():
    via = {}
    for i in SEXTIC_INDICES:
        sc = frey.congruence_scan(i)
        assert sc.all_hypotheses_hold == _hypotheses_hold_mod_72(i), i
        via[i] = (all(frey._cond_i(a, b) for a, b in sc.mod8_pairs),
                  all(frey._cond_ii(a, b) for a, b in sc.mod9_pairs))
    # neither condition alone covers every index
    assert [i for i, (i_ok, _) in via.items() if not i_ok] == [22]
    assert [i for i, (_, ii_ok) in via.items() if not ii_ok] == [6, 23]


def test_congruence_scan_rejects_other_indices():
    with pytest.raises(ValueError):
        frey.congruence_scan(1)


def test_ito_w_table_shape():
    rows = frey.ito_w_rows()
    by_i = {r["i"]: r for r in rows}
    assert set(SEXTIC_INDICES) <= set(by_i)
    assert by_i[22]["W"] == "54a1" and by_i[22]["type"] == "-"
    assert by_i[6]["W"] == "96a1"
    assert all(r["type"] == "+" for r in rows if r["cm"])
    for r in rows:
        assert r["d"] and all(abs(d) in (1, 2, 3, 6) for d in r["d"])
