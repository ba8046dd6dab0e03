"""Tests for the four descent pipelines: Klein/genus-2, Gaussian, real
quadratic, and the sextic splitting with its unit sieve."""

import functools
import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gfe25
from gfe25 import descent as D, padic, poly
from gfe25.algebra import (Fq, NFElement, NumberField, auxiliary_field,
                           coefficient_field, maximal_order, nf_fifth_root,
                           residue_split)
from gfe25.bforms import (ALL_INDICES, BinaryForm, edwards_triple,
                          evaluate_triple, transform)
from gfe25.search import AffinePoint, InfinitePoint


# ---------------------------------------------------------------------------
# Klein splitting and the genus-2 reduction
# ---------------------------------------------------------------------------

def test_klein_split_h1():
    s = D.rational_split(1)
    assert (s.A, s.B, s.C) == (12**4, 11 * 12**2, -1)
    assert s.scale == -12


def test_klein_split_h25():
    s = D.rational_split(25)
    assert (s.A, s.B, s.C) == (1, 11 * 9, -(3**4))
    assert s.scale == -3


def test_klein_split_klein_form():
    klein = BinaryForm(12, (0, -1, 0, 0, 0, 0, 11, 0, 0, 0, 0, 1, 0))
    s = D.klein_split(klein, (BinaryForm(1, (0, 1)), BinaryForm(1, (1, 0))))
    assert (s.A, s.B, s.C, s.scale) == (1, 11, -1, 1)


def test_klein_split_b11_recorded_not_asserted():
    # the (B/11)^2-vs-AC relation fails already for the Klein form itself,
    # so it must only ever be reported
    klein = BinaryForm(12, (0, -1, 0, 0, 0, 0, 11, 0, 0, 0, 0, 1, 0))
    s = D.klein_split(klein, (BinaryForm(1, (0, 1)), BinaryForm(1, (1, 0))))
    lhs, rhs = s.b11_observed
    assert (lhs, rhs) == (1, -1) and lhs != rhs


def test_klein_split_rejects_non_roots():
    with pytest.raises(D.DerivationFailed, match="do not divide h"):
        D.klein_split(edwards_triple(1).h,
                      (BinaryForm(1, (1, 1)), BinaryForm(1, (1, 0))))


def test_alpha_candidates():
    assert D.alpha_candidates(1) == {12}
    assert D.alpha_candidates(20) == {12}
    assert D.alpha_candidates(25) == {1}


def test_alpha_candidates_keep_the_smaller_3_adic_exponent_at_25():
    # at (i, p) = (25, 3) the sieve leaves the class (81u+80, 1), on which
    # the cofactor has v_3 = 1; its mirror under (u, v) -> (u, -v),
    # (81u+1, 1), has v_3 = 5.  alpha_candidates keeps the smaller exponent
    # mod 5, which is 0, so alpha = 3 is left out
    split = D.rational_split(25)
    G = D._cofactor_form(split)
    cls = padic.ResidueClass("second", 81, 80)
    mirror = padic.ResidueClass("second", 81, 1)
    assert padic.sieve_residue_classes(25, 3).classes == [cls]
    depth = padic.DEFAULT_DEPTH[3] + 3
    assert padic.valuation_profile(G, 3, [cls], depth) == {(1, True)}
    assert padic.valuation_profile(G, 3, [mirror], depth) == {(5, True)}
    assert D.alpha_candidates(25, split) == {1}
    # keeping both exponents would add alpha = 3, which the mod-25 test
    # keeps too: gamma = 32000 with 23328000 (alpha = 1) or 2592000 (3)
    pairs25 = [uv for c in padic.five_adic_classes(25) for uv in c.pair_mod(25)]
    fifth_powers25 = padic.FIFTH_POWER_UNITS_MOD25 | {0}
    assert any(G.evaluate(u, v) * pow(3, -1, 25) % 25 in fifth_powers25
               for u, v in pairs25)
    assert {alpha: sorted(m.coeffs[0] for m in D.genus2_models(split, alpha))
            for alpha in (1, 3)} == {1: [32000, 23328000],
                                     3: [32000, 2592000]}


def test_genus2_models():
    expected = {
        (1, 12): {2**8 * 5**3, 2**6 * 3**4 * 5**3},
        (20, 12): {2**8 * 3**4 * 5**3, 2**6 * 5**3},
        (25, 1): {2**8 * 5**3, 2**8 * 3**6 * 5**3},
    }
    for (i, alpha), gammas in expected.items():
        models = D.genus2_models(D.rational_split(i), alpha)
        assert {m.coeffs[0] for m in models} == gammas
        assert all(m.coeffs[1:] == (0, 0, 0, 0, 1) for m in models)


def test_genus2_gamma_tenth_power_free():
    import sympy as sp
    for i, alpha in ((1, 12), (20, 12), (25, 1)):
        for m in D.genus2_models(D.rational_split(i), alpha):
            fac = sp.factorint(abs(m.coeffs[0]))
            assert all(e < 10 for e in fac.values())


def test_genus2_back_substitute_i1():
    s = D.rational_split(1)
    lifted = {pt: D.genus2_back_substitute(s, 12, pt)
              for pt in (AffinePoint(Fr(-4), Fr(176)),
                         AffinePoint(Fr(-4), Fr(-176)))}
    assert set(lifted.values()) == {(0, 1), None}  # one point does not lift


def test_genus2_back_substitute_i25():
    # of the three rational points, one maps to (1,1), one to (1,-1)
    # through the second linear factor, and one does not lift
    s = D.rational_split(25)
    got = {D.genus2_back_substitute(s, 1, pt)
           for pt in (AffinePoint(Fr(-4), Fr(176)),
                      AffinePoint(Fr(-4), Fr(-176)),
                      InfinitePoint(1))}
    assert got == {(1, 1), (1, -1), None}


def test_genus2_back_substitute_i20_infinity():
    s = D.rational_split(20)
    assert D.genus2_back_substitute(s, 12, InfinitePoint(1)) == (1, 0)


def test_rational_family_final_solutions():
    # primitive solutions recovered from the three curves: exactly (+-1, -1, 0)
    import math
    sols = set()
    for i, uvs in ((1, [(0, 1)]), (20, [(1, 0)]), (25, [(1, 1), (1, -1)])):
        for u, v in uvs:
            f, g, h = evaluate_triple(i, u, v)
            assert f * f + g**3 + h**5 == 0
            if math.gcd(math.gcd(f, g), h) == 1:
                sols.update({(f, g, -h), (-f, g, -h)})
    assert sols == {(1, -1, 0), (-1, -1, 0)}


# ---------------------------------------------------------------------------
# Gaussian descent
# ---------------------------------------------------------------------------

def test_gauss_family_all_verify():
    for i in D.GAUSS_INDICES:
        D.gauss_family(i)


def test_gauss_f4_printed():
    # 3X(X^4 - 10X^2 + 5)(X^5 + 10X^4 - 10X^3 - 20X^2 + 5X + 2), ascending
    assert D.gauss_family(4).F == (0, 30, 75, -360, -300, 756, 330,
                                   -360, -60, 30, 3)


def test_gauss_relation_web():
    F4 = D.gauss_family(4).F
    assert D.gauss_family(18).F == tuple(c * (-1) ** k
                                         for k, c in enumerate(F4))
    assert D.gauss_family(12).F == D.gauss_family(17).F == \
        tuple(-c for c in F4)
    assert D.gauss_family(3).F == D.gauss_family(27).F == \
        tuple(-c * (-1) ** k for k, c in enumerate(F4))


def test_gauss_resultant_support():
    for i in D.GAUSS_INDICES:
        assert D.gauss_family(i).resultant == -144


def test_gauss_s17():
    assert tuple(D.gauss_family(17).S.coeffs) == (0, 6, 0)  # 6uv


@settings(max_examples=50, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_gauss_norm_form_identity(u, v):
    for i in D.GAUSS_INDICES:
        d = D.gauss_family(i)
        re, im = d.re.evaluate(u, v), d.im.evaluate(u, v)
        assert re * re + im * im == d.quartic.evaluate(u, v)


def test_gauss_back_substitute_origin():
    fib = D.gauss_back_substitute(3, (0, 0))
    assert fib.solutions == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert not fib.contradiction


def test_gauss_back_substitute_contradictions():
    fib = D.gauss_back_substitute(4, (1, 12))
    assert not fib.solutions and fib.contradiction == "+-4 = 6u^2"
    fib = D.gauss_back_substitute(18, (-1, 12))
    assert not fib.solutions and fib.contradiction == "+-4 = -2v^2"


def test_gauss_family_final_solutions():
    sols = set()
    for i in (3, 4):
        for u, v in D.gauss_back_substitute(i, (0, 0)).solutions:
            f, g, h = evaluate_triple(i, u, v)
            if f or g or h:
                sols.add((f, g, -h))
    assert {s for s in sols if all(s)} == set()
    assert {(0, 1, 1), (0, -1, -1)} <= sols


# ---------------------------------------------------------------------------
# Real-quadratic descent
# ---------------------------------------------------------------------------

def test_sqrt5_family_printed_f0():
    F = D.sqrt5_family(0).F
    assert F.coeff(9) == -1650  # a^9 b term, ascending in b
    assert F.coeff(0) == 215625
    assert tuple(F.coeffs) == tuple(reversed(
        (81, -1650, 16725, -99000, 395250, -1039500, 1961250,
         -2475000, 2128125, -1031250, 215625)))


def test_sqrt5_family_all_j():
    for j in (-2, -1, 0, 1, 2):
        d = D.sqrt5_family(j)
        assert d.F.degree == 10 and d.D.genus == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_sqrt5_f_from_g1_g2(a, b):
    for j in (-1, 0, 2):
        d = D.sqrt5_family(j)
        g1, g2 = d.g1.evaluate(a, b), d.g2.evaluate(a, b)
        assert d.F.evaluate(a, b) == 81 * g1 * g1 - 330 * g1 * g2 + 345 * g2 * g2


def test_sqrt5_conclude_requires_flags():
    with pytest.raises(ValueError):
        D.sqrt5_conclude({0: []})


def test_sqrt5_conclude():
    points = {0: [InfinitePoint(1), InfinitePoint(-1)],
              -1: [AffinePoint(Fr(1), Fr(192)), AffinePoint(Fr(1), Fr(-192))],
              -2: [AffinePoint(Fr(1), Fr(96)), AffinePoint(Fr(1), Fr(-96))]}
    out = D.sqrt5_conclude(points, d1_empty=True, d2_empty=True)
    assert out.values == {1, 3**5, 3**4, 2 * 3**4, 2**5 * 3**4, 2**6 * 3**4}
    assert out.solutions == {(0, 1), (0, -1)}


def test_sqrt5_family_final_solutions():
    for u, v in ((0, 1), (0, -1)):
        assert v**6 + 5 * u**6 == 1  # z = 1 branch: solutions (+-1, 0, 1)


# ---------------------------------------------------------------------------
# Sextic splitting
# ---------------------------------------------------------------------------

def test_sextic_split_resultants():
    for i in D.SEXTIC_INDICES:
        s = D.sextic_split(i)
        assert set(s.res_support) <= {2, 3, 5}
        assert s.primes_above_5 == 1


# sha256 of the coordinates of (q, H, scalar) per sextic index; a generator
# search that divides out another associate of the content changes them
SPLIT_DIGESTS = {
    5: "bdfab98843bfc504859af5311f0333bc33c93500d48471a2a2b169e1a4d07070",
    6: "dd5387dfada87c647d411a6d4c5cde80f1add890ed0073afc4733a0786d12127",
    8: "984b28974dcae40f8a1be136566a1274b3796d154d048e6b2d8c8326d5a620de",
    9: "fd8e42773bc6325cfbb8068b8c6c1040b642493222e07540fe3a65cb21ea579e",
    13: "615db5389e2e3c56b37955a360bc3883b4d159ac6baf18006a95aed636ab2423",
    14: "c9bd34473a758eff931aceb839ba806a7851da4b9ae6df22c6f263a1e5de7ab7",
    15: "1f108ec27e1c959da6aef403a54abf581cbc17e7f402cf60f42d1370293e41d9",
    16: "e826428b6a9f38f132e47e2e069a655c03705233c926498509e52f89093ba356",
    21: "c1efbe6bb35f34d1e6903f0ca25b6999d504e78d5a86d0a3ae356c0fdc177358",
    22: "94d2dcc25ac1a48c0547fd41da3bd374f7beddae6428269f63cf3fa5c107d4e9",
    23: "5ac6917ff42b1a8a623934c70ca2754ea0f200b21df1f2181e5cdf14ecde4a77",
    24: "bbf8aba7b7d31b95c1202c2c79afdb2f6c882408c503d177c71547740d69f9ac",
}


def test_sextic_split_content_is_trivial():
    # H is primitive: its content ideal is O_K, so no prime of K divides
    # every coefficient of H
    for i in D.SEXTIC_INDICES:
        s = D.sextic_split(i)
        assert maximal_order(s.field).ideal(s.H.coeffs)[1] == 1


def test_content_ideal_of_a_multiple_has_the_multiplier_norm():
    s = D.sextic_split(16)
    g = 2 + s.field.gen
    assert g.norm() == -122
    assert maximal_order(s.field).ideal([g * c for c in s.H.coeffs])[1] == 122


def test_ideal_generator_in_any_degree():
    # Q(sqrt-5) has class number 2: the prime above 2 has no generator, while
    # (1 + sqrt-5) of norm 6 has one
    K = auxiliary_field("sqrt-5")
    order, t = maximal_order(K), K.gen
    with pytest.raises(D.DerivationFailed, match="no generator of norm 2"):
        D._ideal_generator(order, *order.ideal([K.from_int(2), 1 + t]))
    g = D._ideal_generator(order, *order.ideal([1 + t]))
    assert abs(g.norm()) == 6
    assert order.ideal([g]) == order.ideal([1 + t])


def test_support_by_division():
    assert D._support(-144, (2, 3), "r") == (2, 3)
    assert D._support(3**7 * 5, (2, 3, 5), "r") == (3, 5)
    assert D._support(1, (2, 3, 5), "r") == ()
    with pytest.raises(D.DerivationFailed, match="cofactor 7"):
        D._support(-2**9 * 3 * 7, (2, 3, 5), "r")
    with pytest.raises(D.DerivationFailed, match="r = 0"):
        D._support(0, (2, 3, 5), "r")


def test_sextic_split_digests():
    def coords(c):
        return [str(x) for x in c.coords]

    for i in D.SEXTIC_INDICES:
        s = D.sextic_split(i)
        doc = [[coords(c) for c in s.q.coeffs], [coords(c) for c in s.H.coeffs],
               coords(s.scalar)]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == SPLIT_DIGESTS[i], i


#: the degree-1 primes (p, a) of each split's irreducibility certificate
IRREDUCIBILITY_PRIMES = {
    5: ((7, 4), (7, 6), (41, 11)), 6: ((19, 6),),
    8: ((13, 10), (13, 12), (31, 11)), 9: ((7, 4), (7, 6), (41, 11)),
    13: ((7, 4), (7, 6), (41, 11)), 14: ((11, 2), (13, 10), (13, 12)),
    15: ((11, 10), (19, 14)), 16: ((11, 2), (13, 10), (13, 12)),
    21: ((7, 4), (7, 5), (11, 10)), 22: ((11, 6), (13, 8), (13, 9)),
    23: ((19, 6),), 24: ((7, 4), (7, 5), (11, 10)),
}


def test_sextic_split_certificate_primes():
    assert {i: D.sextic_split(i).irreducibility_primes
            for i in D.SEXTIC_INDICES} == IRREDUCIBILITY_PRIMES


def test_sextic_split_certificate_primes_prove_irreducibility():
    # recompute the certificate from the recorded primes alone: at each
    # P = (p, theta - a), the subset sums of the factor degrees of q and H
    # mod P; only {0, deg} may survive the intersection
    for i in (6, 16):
        s = D.sextic_split(i)
        K = s.field
        left = {2: set(range(3)), 10: set(range(11))}
        for p, a in s.irreducibility_primes:
            assert K.discriminant() % p != 0
            assert sum(c * a**k for k, c in enumerate(K.min_poly)) % p == 0
            for f in (s.q.coeffs, s.H.coeffs):
                red = [sum(x * a**k for k, x in enumerate(c.coords_mod(p))) % p
                       for c in f]
                assert red[-1] != 0
                degrees = [len(g) - 1 for g, m in poly.factor_mod(red, p)[1]
                           for _ in range(m)]
                sums = {sum(c) for r in range(len(degrees) + 1)
                        for c in itertools.combinations(degrees, r)}
                left[len(f) - 1] &= sums
        assert left == {2: {0, 2}, 10: {0, 10}}


def test_irreducibility_certificate_refuses_reducible_forms():
    K = coefficient_field(16)
    t = K.gen
    q = list(D.sextic_split(16).q.coeffs)
    quartic = [t + 1, t, K.zero, K.from_int(3), K.one]
    sextic = [K.from_int(2), t * t, K.zero, t, K.zero, K.from_int(-1), K.one]
    with pytest.raises(D.DerivationFailed, match="no irreducibility"):
        D._irreducibility_primes(q, poly.mul(quartic, sextic), K)
    H = list(D.sextic_split(16).H.coeffs)
    split_q = poly.mul([t, K.one], [t + 2, K.one])
    with pytest.raises(D.DerivationFailed, match="no irreducibility"):
        D._irreducibility_primes(split_q, H, K)


def test_quadratic_factor_needs_the_right_field():
    # h_16 has no quadratic factor over K5: its roots pair into six axes,
    # but the division by the nearest proposal fails
    h = edwards_triple(16).h
    monic = [Fr(c) / h.coeff(12) for c in h.coeffs]
    with pytest.raises(D.DerivationFailed, match="no quadratic factor over"):
        D._quadratic_factor(monic, coefficient_field(5))


def test_every_degree_12_form_has_six_axes():
    # each h_i is Klein's icosahedral form after a change of variables, so
    # the 12 roots of h_i(x, 1) pair into the 6 axes of an icosahedron
    forms = [edwards_triple(i).h for i in ALL_INDICES]
    forms = [h for h in forms if h.coeff(12) and h.coeff(0)]
    assert len(forms) == 25
    for h in forms:
        axes = D._axes(np.roots([float(c) for c in reversed(h.coeffs)]))
        assert sorted(r for axis in axes for r in axis) == list(range(12))


def test_axes_agree_with_the_ordered_pair_scan():
    # _axes scores each unordered pair once; scoring all 132 ordered pairs,
    # as it did before, pairs the same roots on every sextic index
    def off_axis(roots, a, b):
        rest = np.delete(roots, [a, b])
        c = np.abs(np.poly((rest - roots[a]) / (rest - roots[b])))
        on = np.arange(len(c)) % 5 == len(rest) % 5
        return c[~on].max() / c[on].max()

    for i in D.SEXTIC_INDICES:
        h = edwards_triple(i).h
        roots = np.roots([float(Fr(c) / h.coeff(12))
                          for c in reversed(h.coeffs)])
        partner = [min((b for b in range(12) if b != a),
                       key=lambda b: off_axis(roots, a, b))
                   for a in range(12)]
        assert D._axes(roots) == [(a, b) for a, b in enumerate(partner)
                                  if a < b and partner[b] == a], i


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_factor_needs_icosahedral_roots(seed):
    # the roots of a random degree-12 polynomial pair into no axes
    rng = random.Random(seed)
    coeffs = [Fr(rng.randint(-99, 99)) for _ in range(12)] + [Fr(1)]
    roots = np.roots([float(c) for c in reversed(coeffs)])
    with pytest.raises(D.DerivationFailed, match="do not pair into the axes"):
        D._axes(roots)
    with pytest.raises(D.DerivationFailed, match="do not pair into the axes"):
        D._quadratic_factor(coeffs, coefficient_field(16))


def test_generator_shells_order_the_box():
    # shells r = 0..2 list the box [-2, 2]^6 once each, by sup-norm and then
    # in the box's lexicographic order (sorted() is stable)
    rows = [tuple(int(x) for x in c)
            for r in range(3) for chunk in D._shell(r, 6) for c in chunk]
    box = sorted(itertools.product(range(-2, 3), repeat=6),
                 key=lambda c: max(map(abs, c)))
    assert rows == box


def test_sextic_split_rebuild_h22():
    s = D.sextic_split(22)
    K = s.field
    assert list(K.min_poly) == [-4, 12, 0, -10, 0, 3, 1]
    rebuilt = (s.q * s.H).map_coeffs(lambda c: c * s.scalar)
    h = edwards_triple(22).h
    assert all(x == y for x, y in zip(rebuilt.coeffs, h.coeffs))


def test_sextic_split_monic_quadratic():
    for i in (5, 22, 24):
        q = D.sextic_split(i).q
        assert q.degree == 2 and q.coeff(2) == D.sextic_split(i).field.one


def test_sextic_split_rejects_non_sextic_index():
    with pytest.raises(ValueError):
        D.sextic_split(1)


def test_unit_data_verifies():
    for rep in sorted(set(D.FIELD_REP.values())):
        D.verify_unit_data(rep)


def test_unit_file_certified_once_per_text(tmp_path, monkeypatch):
    # the file is read on every call, so an edit is seen at once; a text is
    # parsed, checked and certified once, and a bad text raises on every call
    checks, certificates = [], []
    check, rank = D.check_sieve_primes, D._rank_mod5
    monkeypatch.setattr(D, "check_sieve_primes",
                        lambda primes, K: checks.append(K)
                        or check(primes, K))
    monkeypatch.setattr(D, "_rank_mod5",
                        lambda rows: certificates.append(rows) or rank(rows))
    raw = json.loads(D.unit_data_file(16).read_text())
    (tmp_path / "units").mkdir()
    path = tmp_path / "units" / "K16.json"
    monkeypatch.setenv("GFE_DATA_DIR", str(tmp_path))
    good = json.dumps(raw, indent=3)  # a text no other test parses
    path.write_text(good)
    want = D.verify_unit_data(16)
    assert D.verify_unit_data(16) == want
    assert len(checks) == len(certificates) == 1
    raw["generators"][0].append(7)
    path.write_text(json.dumps(raw))
    for _ in range(2):
        with pytest.raises(D.BadUnitData, match="6 coordinates"):
            D.verify_unit_data(16)
    assert len(checks) == 3 and len(certificates) == 1
    path.write_text(good)
    assert D.verify_unit_data(16) == want
    assert len(checks) == 3 and len(certificates) == 1
    assert D.class_unit(16, (1, 0, 0)) == want[0]
    assert len(checks) == 3 and len(certificates) == 1


def _write_unit_file(tmp_path, monkeypatch, rep, gens):
    """Make gens, with the bundled certification primes, K_rep's unit file
    under a GFE_DATA_DIR at tmp_path."""
    raw = json.loads(D.unit_data_file(rep).read_text())
    raw["generators"] = [[str(c) for c in g.coords] for g in gens]
    (tmp_path / "units").mkdir()
    (tmp_path / "units" / f"K{rep}.json").write_text(json.dumps(raw))
    monkeypatch.setenv("GFE_DATA_DIR", str(tmp_path))


def test_unit_data_rejects_non_units(tmp_path, monkeypatch):
    gens = D.verify_unit_data(22)
    _write_unit_file(tmp_path, monkeypatch, 22,
                     [gens[0] * 2, gens[1], gens[2]])
    with pytest.raises(D.BadUnitData, match="not a unit"):
        D.verify_unit_data(22)


def test_unit_data_rejects_dependent_sets(tmp_path, monkeypatch):
    gens = D.verify_unit_data(22)
    _write_unit_file(tmp_path, monkeypatch, 22,
                     [gens[0], gens[1], gens[0] * gens[1]])
    with pytest.raises(D.BadUnitData, match="independence certificate"):
        D.verify_unit_data(22)


def test_unit_data_rejects_other_signatures(tmp_path, monkeypatch):
    # completeness rests on signature (2, 2); x^6 + 1 has no real place.
    # the certificate is kept per (field, file), so the swapped field
    # certifies K22's file afresh
    _write_unit_file(tmp_path, monkeypatch, 22, D.verify_unit_data(22))
    monkeypatch.setattr(D, "coefficient_field",
                        lambda rep: NumberField([1, 0, 0, 0, 0, 0, 1], "x6"))
    with pytest.raises(D.BadUnitData, match="real places"):
        D.verify_unit_data(22)


def _reference_local_targets(split, rs, p, scale):
    """The point-by-point oracle of _local_targets: H evaluated exactly in K
    at scale times each point (t, 1), (1, 0) of P^1(F_p), reduced into each
    residue field and classified; a set of per-slot tuples, None where the
    value reduces to zero."""
    K = split.field
    targets = set()
    for u, v in [(t, 1) for t in range(p)] + [(1, 0)]:
        h = split.H.evaluate(K.from_int(scale * u), K.from_int(scale * v))
        row = []
        for fq in rs:
            x = fq.reduce(h)
            row.append(fq.fifth_power_class(x) if any(x) else None)
        targets.add(tuple(row))
    return targets


# (index, prime, scale): the oracle takes scale times each point, so a scale
# above 1 checks that H's classes do not depend on the representative (the
# scale^10 it multiplies H by is a fifth power); default primes only, as
# classes are taken only at p = 1 mod 5
LOCAL_TARGET_CASES = (
    [(i, p, c) for i in (6, 16, 22) for p in (11, 31, 101) for c in (1, 2, 3)]
    + [(16, 241, 4), (22, 101, 5), (6, 41, 6)])


@pytest.mark.parametrize("i,p,scale", LOCAL_TARGET_CASES)
def test_local_targets_match_recursive_reference(i, p, scale):
    split = D.sextic_split(i)
    rs = residue_split(split.field, p)
    got = D._local_targets(split, rs, p)
    rows = {tuple(None if c < 0 else c for c in row) for row in got.tolist()}
    assert got.shape == (len(rows), len(rs))
    assert rows == _reference_local_targets(split, rs, p, scale)


def test_local_targets_leave_numpy_ma_unloaded():
    # np.unique(..., axis=0) imports numpy.ma on its first call, a cold cost
    # that nothing else on the sextic path pays: neither the targets nor the
    # whole sieve of an index, its mod-25 pass and per-field tables included;
    # a fresh interpreter, since pytest's own process may have loaded
    # numpy.ma already
    code = ("import sys, gfe25.cli\n"
            "from gfe25 import descent as D\n"
            "from gfe25.algebra import residue_split\n"
            "s = D.sextic_split(22)\n"
            "D._local_targets(s, residue_split(s.field, 11), 11)\n"
            "D.unit_sieve(16)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = pathlib.Path(gfe25.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "False"


def _sieve_without_mod25(i, **kw):
    """unit_sieve with a mod-25 pass that keeps all 125 classes: the prime
    pass alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_mod25_classes",
                   lambda split, gens: np.ones(125, dtype=bool))
        return D.unit_sieve(i, **kw)


def test_unit_sieve_monotone_and_order_independent():
    small = _sieve_without_mod25(22, primes=(11, 31))
    bigger = _sieve_without_mod25(22, primes=(11, 31, 41, 61))
    assert set(bigger) <= set(small)
    swapped = _sieve_without_mod25(22, primes=(61, 41, 31, 11))
    assert swapped == bigger


def test_unit_sieve_survivors_without_mod25():
    # the prime pass alone; a target's -1 slot matches every class.  Pinned
    # from the p-adic refinement to depth 3 that the pass at the points of
    # P^1(F_p) replaced: the two agree on every index
    assert {i: _sieve_without_mod25(i) for i in D.SEXTIC_INDICES} == {
        5: [(4, 4, 0)],
        6: [(0, 0, 1), (0, 4, 1), (2, 1, 4), (2, 2, 0), (3, 0, 1)],
        8: [(4, 1, 2), (4, 2, 3), (4, 3, 4)],
        9: [],
        13: [(0, 0, 0)],
        14: [(0, 0, 1), (0, 4, 4), (2, 3, 3), (4, 0, 0), (4, 1, 2),
             (4, 3, 3)],
        15: [],
        16: [(0, 1, 1), (0, 2, 3), (2, 0, 0), (4, 0, 0), (4, 2, 2),
             (4, 3, 4)],
        21: [],
        22: [(4, 2, 0)],
        23: [(0, 0, 1), (0, 4, 1), (2, 1, 4), (2, 2, 0), (3, 0, 1)],
        24: [(1, 1, 4), (2, 4, 0), (4, 4, 2)]}
    # 11 alone keeps 75 classes
    assert len(_sieve_without_mod25(16, primes=(11,))) == 75


def test_unit_sieve_does_not_depend_on_class_labels(monkeypatch):
    # the labels 0..4 come from the choice of generator of mu_5; another
    # choice relabels every class k as c*k mod 5 for a unit c, which leaves
    # the sieve's linear matching, and so its survivors, as they are
    want = {i: (_sieve_without_mod25(i), D.unit_sieve(i))
            for i in (8, 16, 22, 24)}
    classes = Fq.fifth_power_classes
    monkeypatch.setattr(Fq, "fifth_power_classes",
                        lambda fq, rows: 2 * classes(fq, rows) % 5)
    for i, survivors in want.items():
        assert (_sieve_without_mod25(i), D.unit_sieve(i)) == survivors, i


def test_unit_sieve_stop_matches_full_walk(monkeypatch):
    # without witnesses every index has known = 0, so the walk stops only
    # on an empty set, which no further prime changes: the full walk
    stopped = {i: D.unit_sieve(i) for i in D.SEXTIC_INDICES}
    monkeypatch.setattr(D, "SIEVE_WITNESSES", {})
    assert stopped == {i: D.unit_sieve(i) for i in D.SEXTIC_INDICES}


def test_unit_sieve_walks_primes_until_known_classes(monkeypatch):
    # after the mod-25 pass, a prime is walked (and its targets built) only
    # while the survivors outnumber the known classes, explicit primes too
    walked = []
    targets = D._local_targets
    monkeypatch.setattr(D, "_local_targets", lambda split, rs, p:
                        walked.append(p) or targets(split, rs, p))

    def count(i, sieve=D.unit_sieve, **kw):
        walked.clear()
        sieve(i, **kw)
        return len(walked)

    assert {i: count(i) for i in D.SEXTIC_INDICES} == {
        6: 0, 22: 0, 23: 0, 5: 1, 13: 1, 14: 1, 16: 1, 9: 2, 8: 6,
        15: 13, 21: 13, 24: 13}
    assert count(22, primes=(61, 41, 31, 11)) == 0
    assert count(22, _sieve_without_mod25, primes=(61, 41, 31, 11)) == 4


@functools.lru_cache(maxsize=None)
def _fifth_powers_mod25(rep):
    """All fifth powers in O/25O = Z[x]/(25, T) for the sextic field K_rep,
    as a set of coordinate tuples: every base of O/5O raised to the fifth
    power by Python products, since (a + 5b)^5 = a^5 mod 25."""
    T = [int(c) for c in coefficient_field(rep).min_poly]

    def mul(a, b):
        return poly.divmod_mod(poly.mul_mod(a, b, 25), T, 25)[1]

    fifths = set()
    for base in itertools.product(range(5), repeat=6):
        w2 = mul(base, base)
        fifths.add(tuple(mul(mul(w2, w2), base)))
    return fifths


def _mod25_reference(i):
    """The per-class pass that _mod25_classes replaced, kept as its oracle:
    for each exponent e, the inverse of the power product eta_e reduced mod
    25 twists H(u, v), evaluated in K, at the 30 points of P^1(Z/25), and
    the twist is looked up among all fifth powers of O/25O."""
    rep = D.FIELD_REP[i]
    split = D.sextic_split(i)
    K = split.field
    T = [int(c) for c in K.min_poly]
    gens = D.verify_unit_data(rep)
    fifths = _fifth_powers_mod25(rep)
    pairs = [(u, 1) for u in range(25)] + [(1, 5 * t) for t in range(5)]
    hvals = [split.H.evaluate(K.from_int(u), K.from_int(v)).coords_mod(25)
             for u, v in pairs]
    kept = []
    for e in itertools.product(range(5), repeat=3):
        eta = gens[0] ** e[0] * gens[1] ** e[1] * gens[2] ** e[2]
        inv = eta.inverse().coords_mod(25)
        kept.append(any(
            tuple(poly.divmod_mod(poly.mul_mod(h, inv, 25), T, 25)[1])
            in fifths for h in hvals))
    return kept


@pytest.mark.parametrize("i", D.SEXTIC_INDICES)
def test_mod25_pass_matches_reference(i):
    rep = D.FIELD_REP[i]
    got = D._mod25_classes(D.sextic_split(i), D.verify_unit_data(rep))
    assert got.tolist() == _mod25_reference(i)


def test_mod25_pass_takes_no_inverse(monkeypatch):
    # eta^-1 = eta^4 modulo fifth powers, so the unit rows are powers of the
    # reduced generators; the per-field tables are rebuilt under the patch
    split = D.sextic_split(16)
    gens = D.verify_unit_data(16)
    want = D._mod25_classes(split, gens)
    D._unit_powers_mod25.cache_clear()
    D._fifth_power_parts.cache_clear()

    def refuse(self):
        raise AssertionError("NFElement.inverse on the mod-25 path")

    monkeypatch.setattr(NFElement, "inverse", refuse)
    assert D._mod25_classes(split, gens).tolist() == want.tolist()


@pytest.mark.parametrize("a,b,M", [(5, 13, ((1, 0), (-1, -2))),
                                   (6, 23, ((1, 0), (0, 2))),
                                   (14, 16, ((1, 1), (1, -1))),
                                   (15, 21, ((1, 1), (1, -1)))])
def test_index_two_substitutions(a, b, M):
    # h_a(M(u, v)) = 64 h_b(u, v) with det M = +-2, so the two indices split
    # over one field
    assert transform(edwards_triple(a).h, M) == edwards_triple(b).h.scale(64)
    assert D.FIELD_REP[a] == D.FIELD_REP[b]
    # the quadratic factor is unique up to a scalar, so H_a o M = c H_b
    split_a, split_b = D.sextic_split(a), D.sextic_split(b)
    Ha_M = transform(split_a.H, M)
    c = Ha_M.coeff(10) / split_b.H.coeff(10)
    assert all(x == c * y for x, y in zip(Ha_M.coeffs, split_b.H.coeffs))
    assert c.norm() == (-1 if a == 15 else 1) * 2**30
    # M is invertible mod every sieve prime, so it permutes P^1(F_p), and
    # H_b = (H_a o M) / c shifts a's targets by -class(c), slot by slot
    for p in D.DEFAULT_SIEVE_PRIMES:
        rs = residue_split(split_a.field, p)
        shift = np.array([fq.fifth_power_classes([fq.reduce(c)])[0]
                          for fq in rs])
        got = D._local_targets(split_a, rs, p)
        got = np.where(got < 0, -1, (got - shift) % 5)
        assert sorted(got.tolist()) == \
            D._local_targets(split_b, rs, p).tolist(), p


@st.composite
def full_rank_rows(draw):
    """The rows of an n x m integer matrix, n <= m and n <= 6, with entries
    up to 2^30 in absolute value (or up to 3, where ties in the rounding of
    mu are frequent); full rank is assumed by the caller."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 3 * n))
    top = draw(st.sampled_from((3, 2**30)))
    return draw(st.lists(st.lists(st.integers(-top, top), min_size=m,
                                  max_size=m), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(full_rank_rows())
def test_lll_matches_sympy(rows):
    import sympy as sp
    from sympy.polys.matrices import DomainMatrix

    M = DomainMatrix([[sp.ZZ(x) for x in row] for row in rows],
                     (len(rows), len(rows[0])), sp.ZZ)
    assume(M.rank() == len(rows))
    assert D._lll(rows) == [[int(x) for x in row] for row in M.lll().to_list()]


def test_lll_examples():
    assert D._lll([[1, 0], [7, 1]]) == [[1, 0], [0, 1]]
    # mu = 1/2 exactly: no reduction; mu = 3/2 rounds to 2
    assert D._lll([[2, 0], [1, 2]]) == [[2, 0], [1, 2]]
    assert D._lll([[2, 0], [3, 2]]) == [[2, 0], [-1, 2]]


def test_unit_sieve_rejects_bad_prime():
    with pytest.raises(D.IndexRisk):
        D.unit_sieve(22, primes=(5,))
    # a prime p != 1 mod 5 has residue fields without fifth-power classes
    for primes in ((13,), (11, 19)):
        with pytest.raises(D.IndexRisk, match="p = 1 mod 5"):
            D.unit_sieve(22, primes=primes)


def test_sieve_primes_stay_within_int64():
    # _local_targets sums 11 products of residues mod p in int64, so
    # 11 (p - 1)^2 < 2^63; 915690001 is the largest prime p = 1 mod 5 below
    # that bound and 915690241 the least above it, refused before any
    # trial division
    K = coefficient_field(D.FIELD_REP[13])
    D.check_sieve_primes([915690001], K)
    with pytest.raises(D.IndexRisk, match="2\\^63"):
        D.check_sieve_primes([915690241], K)
    with pytest.raises(D.IndexRisk):
        D.check_sieve_primes([10**400 + 1], K)


def test_unit_sieve_catalan_witness():
    surv = D.unit_sieve(5)
    assert len(surv) == 1
    s = D.sextic_split(5)
    eta = D.class_unit(D.FIELD_REP[5], surv[0])
    val = s.H.evaluate(s.field.from_int(0), s.field.from_int(1)) * eta.inverse()
    root = nf_fifth_root(val)
    assert root is not None and root**5 == val
    # the witness evaluates to the Catalan solution
    f, g, h = evaluate_triple(5, 0, 1)
    assert (abs(f), g, -h) == (3, -2, 1)


def test_unit_sieve_one_empty_case():
    assert D.unit_sieve(9) == []


def _rows_in_primes_above_5(T, fifths, rng, n):
    """2n rows of each prime P = (5, x - a) above 5, for the linear factors
    x - a of T mod 5, reduced mod (25, T): (x - a) z + 5r for random z and
    r, and (x - a)^5 w + 5r for w among the fifth powers."""
    rows = []
    for f, _ in poly.factor_mod(T, 5)[1]:
        for k in (1, 5):
            fk = poly.power(f, k, [1], poly.mul)
            for _ in range(n):
                z = list(rng.choice(fifths)) if k == 5 else \
                    [rng.randrange(25) for _ in range(6)]
                rows.append([(x + 5 * rng.randrange(5)) % 25 for x in
                             poly.divmod_mod(poly.mul_mod(fk, z, 25), T, 25)[1]])
    return rows


def test_fifth_powers_mod25_match_products():
    # the membership test on the parts of O/25O against the listing of all
    # fifth powers by Python products: every listed power, and a seeded
    # sample of uniform rows, of rows near the listed powers (w + 5r) and of
    # rows in each prime above 5
    rng = random.Random(25)
    for rep in sorted(set(D.FIELD_REP.values())):
        K = coefficient_field(rep)
        T = [int(c) for c in K.min_poly]
        fifths = _fifth_powers_mod25(rep)
        assert len(fifths) == 12525
        listed = sorted(fifths)
        assert D._is_fifth_power_mod25(K, np.array(listed)).all(), rep
        near = [[(c + 5 * rng.randrange(5)) % 25 for c in rng.choice(listed)]
                for _ in range(2000)]
        uniform = [[rng.randrange(25) for _ in range(6)] for _ in range(2000)]
        primes = _rows_in_primes_above_5(T, listed, rng, 500)
        assert len(primes) == 2000
        rows = near + uniform + primes
        got = D._is_fifth_power_mod25(K, np.array(rows)).tolist()
        assert got == [tuple(r) in fifths for r in rows], rep
        # the sample meets both outcomes in each group
        for group in (near, primes):
            assert len({tuple(r) in fifths for r in group}) == 2, rep
