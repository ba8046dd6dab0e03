"""Tests for the p-adic fifth-power tests and the residue-class sieve."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_fifth_power_zp
from gfe25 import padic
from gfe25.bforms import BinaryForm, edwards_triple, evaluate_triple


def test_fifth_power_basics():
    assert not is_fifth_power_zp(-2, 2)      # valuation 1
    assert is_fifth_power_zp(32 * 7, 2)      # every 2-adic unit works
    for p in (2, 3, 5, 7, 11):
        assert is_fifth_power_zp(1, p)


def test_fifth_power_brute_force_mod_2_10():
    # cross-check the 2-adic criterion against residues mod 2^10
    fifth = {pow(x, 5, 2**10) for x in range(2**10)}
    for n in range(1, 512):
        if is_fifth_power_zp(n, 2):
            assert n % 2**10 in fifth or n % 2 == 0  # even survivors need deeper modulus
    # odd integers: criterion says all are fifth powers in Z_2
    odd_fifth = {x % 2**6 for x in fifth if x % 2}
    assert odd_fifth == {x for x in range(2**6) if x % 2}


def test_fifth_power_p_1_mod_5():
    p = 11
    fifths = {pow(x, 5, p) for x in range(1, p)}
    for n in range(1, p):
        assert is_fifth_power_zp(n, p) == (n in fifths)


def test_fifth_power_at_5():
    assert is_fifth_power_zp(7**5, 5)
    assert not is_fifth_power_zp(2, 5)
    assert is_fifth_power_zp(5**5 * 26, 5)
    assert not is_fifth_power_zp(5**4, 5)


def _parse_class(s):
    """The ResidueClass a string "(8u+r, 1)" or "(1, 8v+r)" names."""
    s = s.replace(" ", "")
    m = re.fullmatch(r"\((?:(\d*)u(?:\+(\d+))?),1\)", s)
    slot = "second"
    if m is None:
        m = re.fullmatch(r"\(1,(?:(\d*)v(?:\+(\d+))?)\)", s)
        slot = "first"
    if m is None:
        raise ValueError(f"unparseable residue class {s!r}")
    return padic.ResidueClass(slot, int(m.group(1) or 1), int(m.group(2) or 0))


def test_residue_class_strings_roundtrip():
    for s in ["(8u, 1)", "(3u+2, 1)", "(u, 1)", "(1, 2v)", "(1, 81v+51)", "(1, v)"]:
        assert str(_parse_class(s)) == s


def test_killed_rows_have_no_2adic_classes():
    for i in (7, 11, 19):
        assert padic.sieve_residue_classes(i, 2).classes == []


def test_table5_all_rows_both_primes():
    expected = padic.expected_table5()
    for i in sorted(expected):
        for p in (2, 3):
            ok, got, want = padic.verify_table5(i, p, expected[i][p])
            assert ok, f"i={i} p={p}: got {sorted(got)} want {sorted(want)}"


def test_single_row_examples():
    assert {str(c) for c in padic.sieve_residue_classes(1, 2).classes} == {"(8u, 1)"}
    assert {str(c) for c in padic.sieve_residue_classes(6, 3).classes} == {"(1, 81v+51)"}


def test_depth_exhausted_at_tiny_depth():
    with pytest.raises(padic.DepthExhausted):
        padic.sieve_residue_classes(1, 2, max_depth=2)


def test_sieve_soundness_random_points():
    # any integer pair passing the p-adic fifth-power + primitivity test must
    # lie in a reported class
    rng = random.Random(7)
    for i in (1, 5, 6, 22, 25):
        for p in (2, 3):
            classes = padic.sieve_residue_classes(i, p).classes
            depth = padic.DEFAULT_DEPTH[p]
            n = p**depth
            for _ in range(300):
                u = rng.randrange(-n, n)
                v = rng.randrange(-n, n)
                if u % p == 0 and v % p == 0:
                    continue
                f, g, h = evaluate_triple(i, u, v)
                if f % p == 0 and g % p == 0 and h % p == 0:
                    continue
                if not is_fifth_power_zp(-h, p):
                    continue
                assert _covered(u, v, p, n, classes), (i, p, u, v)


def _covered(u, v, p, n, classes):
    for cls in classes:
        m = cls.modulus
        if cls.unit_slot == "second":
            if v % p != 0 and (u * pow(v, -1, n)) % m == cls.residue % m:
                return True
        else:
            if u % p != 0 and (v * pow(u, -1, n)) % m == cls.residue % m:
                return True
    return False


def _points(cls, p, n):
    """Points of P^1(Z/n) in a class, as (u, 1) or (1, v) with p | v."""
    return {(pow(v, -1, n), 1) if u == 1 and v % p else (u, v)
            for (u, v) in cls.pair_mod(n)}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("i", range(1, 28))
def test_sieve_cover_properties(i, p):
    RC = padic.ResidueClass
    for depth in range(1, padic.DEFAULT_DEPTH[p] + 1):
        n = p**depth
        result = padic.sieve_residue_classes(i, p, depth, strict=False)
        dead = set()
        for cls, _reason in result.excluded:
            dead |= _points(cls, p, n)
        alive = ({(r, 1) for r in range(n)}
                 | {(1, r) for r in range(0, n, p)}) - dead

        def keeps_survivor(cls):
            return bool(_points(cls, p, n) & alive)

        cover = set(result.classes)
        if RC("first", 1, 0) in cover:      # undo the p = 2 merge of (1, v)
            cover.remove(RC("first", 1, 0))
            cover |= {RC("second", p, r) for r in range(1, p)} | {RC("first", p, 0)}
        pts = [_points(cls, p, n) for cls in cover]
        covered = set().union(*pts)
        assert sum(map(len, pts)) == len(covered), (i, p, depth, "overlap")
        assert alive <= covered, (i, p, depth, "survivor outside the cover")
        for cls in cover:
            m, r = cls.modulus, cls.residue
            if m == n:
                assert keeps_survivor(cls), (i, p, depth, str(cls))
                continue
            # above the depth cap only dead points deeper down may be covered
            assert all(keeps_survivor(RC(cls.unit_slot, m * p, r + j * m))
                       for j in range(p)), (i, p, depth, str(cls))
            if m > (1 if cls.unit_slot == "second" else p):
                parent = m // p
                assert not all(
                    keeps_survivor(RC(cls.unit_slot, m, r % parent + j * parent))
                    for j in range(p)), (i, p, depth, str(cls))


def test_five_adic_catalan_survives():
    cl = padic.five_adic_classes(5)
    assert any(c.unit_slot == "second" and c.residue % c.modulus == 0 for c in cl)


def test_five_adic_primitivity_excludes_full_vanishing():
    # classes where the whole triple vanishes mod 5 must not be reported
    for i in (3, 4, 12, 17, 18, 27):
        for cls in padic.five_adic_classes(i):
            vanishing_everywhere = all(
                all(x % 5 == 0 for x in evaluate_triple(i, u, v))
                for (u, v) in cls.pair_mod(5)
            )
            assert not vanishing_everywhere


def test_valuation_profile_of_v_on_even_class():
    v_form = BinaryForm(1, (1, 0))  # picks out the v coordinate
    cls = [_parse_class("(1, 2v)")]
    prof = padic.valuation_profile(v_form, 2, cls, 4)
    assert (1, True) in prof and (2, True) in prof and (3, True) in prof
    assert (4, False) in prof


def test_valuation_profile_h1_on_covering_class():
    # the reported class (8u, 1) is a necessary cover, so it also contains
    # deeper excluded points; the minimal determined valuation is the
    # admissible 5, the rest is the excluded tail 6..11 plus open leaves
    h1 = edwards_triple(1).h
    cls = padic.sieve_residue_classes(1, 2).classes
    prof = padic.valuation_profile(h1, 2, cls, 12)
    assert prof == {(v, True) for v in range(5, 12)} | {(12, False)}


def test_valuation_profile_h22_minimum_admissible():
    # same covering-class caveat as for h1: the admissible points sit at
    # valuation 5 (and the open leaves); the excluded tail 6..11 is visible too
    h22 = edwards_triple(22).h
    cls = padic.sieve_residue_classes(22, 2).classes
    prof = padic.valuation_profile(h22, 2, cls, 12)
    assert min(v for v, d in prof if d) == 5
    assert (12, False) in prof


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_fifth_power_closure_property(n, p):
    # n^5 is always a p-adic fifth power; p*n^5 never is
    assert is_fifth_power_zp(n**5, p)
    assert not is_fifth_power_zp(p * n**5, p)
