"""Tests for rational point search and Mumford checks."""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
import sympy as sp

from gfe25 import _kernels as K
from gfe25 import descent, poly
from gfe25 import search as S

# M_4: y^2 = 3x(x^4 - 10x^2 + 5)(x^5 + 10x^4 - 10x^3 - 20x^2 + 5x + 2)
F4 = (0, 30, 75, -360, -300, 756, 330, -360, -60, 30, 3)
D1T = (189, 1230, 3345, 5340, 6390, 3846, 3060, -60, 705, -120, 36)
D2T = (516, 3120, 8805, 14460, 15660, 11274, 6390, 1860, 645, -30, 9)


def test_model_invariants():
    m = S.HyperellipticModel((32000, 0, 0, 0, 0, 1))
    assert (m.degree, m.genus) == (5, 2)
    assert S.HyperellipticModel(D1T).genus == 4
    with pytest.raises(ValueError):
        S.HyperellipticModel((0, 0, 1, 2, 1))    # (x+1)^2 x^0... not squarefree
    with pytest.raises(ValueError):
        S.HyperellipticModel((1, 1))             # degree too small


def test_squarefree_needs_the_gcd_over_q_only_where_no_prime_settles_it(
        monkeypatch):
    calls = []
    real = poly.gcd
    monkeypatch.setattr(poly, "gcd", lambda a, b: calls.append(a) or real(a, b))
    S.HyperellipticModel((32000, 0, 0, 0, 0, 1))
    assert calls == []
    # x^5 + c is x^5 modulo each prime of c; it is squarefree over Q all the
    # same
    c = math.prod(S._SQUAREFREE_PRIMES)
    S.HyperellipticModel((c, 0, 0, 0, 0, 1))
    assert calls == [[c, 0, 0, 0, 0, 1]]
    with pytest.raises(ValueError, match="squarefree"):
        S.HyperellipticModel(tuple(poly.mul([c, 0, 0, 1], [c, 0, 0, 1])))
    with pytest.raises(ValueError, match="squarefree"):
        S.HyperellipticModel(tuple(poly.mul([1, 7, 1], [1, 7, 1]) + [0]))


def test_points_quintic_32000():
    m = S.HyperellipticModel((32000, 0, 0, 0, 0, 1))
    pts = S.rational_points(m, 10)
    assert [str(p) for p in pts] == ["inf", "(-4, -176)", "(-4, 176)"]


def test_points_f4():
    pts = S.rational_points(S.HyperellipticModel(F4), 10)
    assert [str(p) for p in pts] == ["(0, 0)", "(1, -12)", "(1, 12)"]


def test_points_f4_height_100():
    pts = S.rational_points(S.HyperellipticModel(F4), 100)
    assert {(p.x, p.y) for p in pts} == {(0, 0), (1, 12), (1, -12)}


def test_points_degree10_models_only_infinity():
    for coeffs in (D1T, D2T):
        pts = S.rational_points(S.HyperellipticModel(coeffs), 20)
        assert [str(p) for p in pts] == ["inf+", "inf-"]


def test_infinity_branch_rules():
    # even degree, non-square leading coefficient: no rational infinity
    assert S.HyperellipticModel(F4).infinity_points() == []
    assert len(S.HyperellipticModel(D1T).infinity_points()) == 2


# y^2 = 9x^6 + 6x^5 + x^4 + x^3 - 6x^2 - 2x + 1: even degree, square
# leading coefficient, points with denominators up to 20
SQUARE_LEAD = (1, -2, -6, 1, 1, 6, 9)


def _oracle_affine_points(coeffs, H):
    """Affine points of height <= H, one x = p/q at a time: y exists iff
    F(x) >= 0 has a square numerator and denominator in lowest terms."""
    found = set()
    for q in range(1, H + 1):
        for p in range(-H, H + 1):
            if math.gcd(p, q) != 1:
                continue
            x = Fr(p, q)
            v = sum(c * x**k for k, c in enumerate(coeffs))
            a, b = math.isqrt(max(v.numerator, 0)), math.isqrt(v.denominator)
            if v >= 0 and a * a == v.numerator and b * b == v.denominator:
                found |= {(x, Fr(a, b)), (x, Fr(-a, b))}
    return sorted(found)


def _affine(points):
    return [(pt.x, pt.y) for pt in points if isinstance(pt, S.AffinePoint)]


def test_completeness_against_naive_oracle(monkeypatch):
    # _BATCH 1 forces one q-row per block, 200 three rows of 61
    batches = (S._BATCH, 1, 200)
    for coeffs in ((32000, 0, 0, 0, 0, 1), F4, D1T, SQUARE_LEAD):
        m = S.HyperellipticModel(coeffs)
        expected = _oracle_affine_points(coeffs, 30)
        for batch in batches:
            monkeypatch.setattr(S, "_BATCH", batch)
            pts = S.rational_points(m, 30)
            assert _affine(pts) == expected
            assert pts[:len(m.infinity_points())] == m.infinity_points()


def test_completeness_over_several_blocks():
    H = 150
    assert H > S._BATCH // (2 * H + 1)  # the box spans more than one block
    m = S.HyperellipticModel(SQUARE_LEAD)
    expected = _oracle_affine_points(SQUARE_LEAD, H)
    assert (Fr(-23, 20), Fr(16671, 8000)) in expected
    assert _affine(S.rational_points(m, H)) == expected


def _planted_curve(rng, xs, y1):
    """F = y1^2 + prod (q x - p) * G(x) with G random: F(p/q) = y1^2."""
    k = len(xs)
    G = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(
        max(0, 3 - k), 10 - k))] + [rng.choice([-3, -1, 1, 2, 5])]
    F = G
    for x in xs:
        F = poly.mul(F, [-x.numerator, x.denominator])
    return tuple(F[0] + y1 * y1 if i == 0 else c for i, c in enumerate(F))


def _coprime_x(rng, q, H):
    while True:
        p = rng.choice([H, -H, rng.randrange(-H, H + 1)])
        if math.gcd(p, q) == 1:
            return Fr(p, q)


def test_planted_points_on_both_sides_of_a_block_boundary():
    rng = random.Random(25)
    H = 200
    rows = S._BATCH // (2 * H + 1)  # q-rows per block
    assert 1 < rows < H
    edges = (1, rows - 1, rows, rows + 1, rows + 2, H)
    for q in edges * 2:
        xs = {_coprime_x(rng, q, H)}
        xs |= {_coprime_x(rng, rng.choice(edges), H)
               for _ in range(rng.randrange(3))}
        y1 = rng.choice([0, 1, rng.randrange(10**9)])
        while True:
            try:
                m = S.HyperellipticModel(_planted_curve(rng, sorted(xs), y1))
                break
            except ValueError:
                pass  # not squarefree: draw another G
        pts = S.rational_points(m, H)
        for x in xs:
            assert m.F(x) == y1 * y1
            assert S.AffinePoint(x, Fr(y1)) in pts
            assert S.AffinePoint(x, Fr(-y1)) in pts


@functools.cache
def _squares(m):
    return frozenset(r * r % m for r in range(m))


def test_square_tables_hold_exactly_the_squares():
    for m in K.MODULI:
        powers, table = K._residue_tables(m)
        assert table.size == powers.shape[1] * m * m  # every grid entry
        assert set(np.flatnonzero(table[:m]).tolist()) == _squares(m)
        assert (table.reshape(-1, m) == table[:m]).all()  # v mod m
        assert powers.tolist() == [[t**j % m for j in range(powers.shape[1])]
                                   for t in range(m)]


def _screen_oracle(coeffs, row, qs, odd):
    """Python ints: is T a square mod each modulus of the kernel, with no
    prime of a modulus dividing both p and q?"""
    d = len(coeffs) - 1
    primes = [l for l in range(2, max(K.MODULI) + 1)
              if sp.isprime(l) and any(m % l == 0 for m in K.MODULI)]
    out = []
    for q in qs:
        out.append([])
        for p in row:
            T = sum(c * p**k * q**(d - k) for k, c in enumerate(coeffs))
            T *= q if odd else 1
            out[-1].append(all(T % m in _squares(m) for m in K.MODULI)
                           and all(p % l or q % l for l in primes))
    return out


def test_prescreen_matches_a_python_square_test():
    rng = random.Random(5)
    primes = [m for m in K.MODULI if sp.isprime(m)]
    for d, bound in itertools.product(range(3, 11), (100, 2**80)):
        coeffs = [rng.randrange(-bound, bound) for _ in range(d)]
        coeffs.append(rng.choice([1, -1]) * rng.randrange(1, bound))
        odd = d % 2 == 1
        # p of both signs, and q on every residue class that is not a unit
        # mod some modulus: multiples of 2, 3, 5, 7 and of each prime
        row = sorted({0, 1, -1} | {rng.randrange(-10**7, 10**7)
                                   for _ in range(40)})
        qs = [k * rng.randrange(1, 10**5) for k in [2, 3, 5, 7] + primes]
        qs += [64, 63, 25, 9, 49, 125, 2**20, 3**10]
        qs += [rng.randrange(1, 10**7) for _ in range(10)]
        mask = K.prescreen(coeffs, np.array(row), np.array(qs), odd)
        assert mask.shape == (len(qs), len(row))
        assert mask.tolist() == _screen_oracle(coeffs, row, qs, odd)


# the points of the eight searches of the pipeline (genus2, gauss, sqrt5) at
# their default heights, as the int64 Horner prescreen that the table sieve
# replaced found them
PIPELINE_POINTS = {
    "x^5+32000": ["inf", "(-4, -176)", "(-4, 176)"],
    "x^5+8000": ["inf"],
    "M4": ["(0, 0)", "(1, -12)", "(1, 12)"],
    "D1t": ["inf+", "inf-"],
    "D2t": ["inf+", "inf-"],
    "D_0": ["inf+", "inf-"],
    "D_-1": ["(1, -192)", "(1, 192)"],
    "D_-2": ["(1, -96)", "(1, 96)"],
}


def test_pipeline_searches_return_the_pinned_points():
    models = {"x^5+32000": ((32000, 0, 0, 0, 0, 1), 1000),
              "x^5+8000": ((8000, 0, 0, 0, 0, 1), 1000),
              "M4": (descent.gauss_family(4).F, 100),
              "D1t": (D1T, 50), "D2t": (D2T, 50)}
    models.update({f"D_{j}": (descent.sqrt5_family(j).D.coeffs, 50)
                   for j in (0, -1, -2)})
    assert models.keys() == PIPELINE_POINTS.keys()
    for name, (coeffs, H) in models.items():
        pts = S.rational_points(S.HyperellipticModel(tuple(coeffs)), H)
        assert [str(p) for p in pts] == PIPELINE_POINTS[name], name


def test_search_memory_is_bounded_by_the_block():
    m = S.HyperellipticModel((32000, 0, 0, 0, 0, 1))
    S.rational_points(m, 2)
    tracemalloc.start()
    try:
        S.rational_points(m, 600)  # 721,801 box points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_model_rejects_rational_coefficients():
    with pytest.raises(ValueError, match="integer coefficients"):
        S.HyperellipticModel((Fr(1, 4), 0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="integer coefficients"):
        S.HyperellipticModel((1, Fr(3, 2), 0, 0, 0, 1))
    assert S.HyperellipticModel((1, 0, 0, 0, 0, 1)).degree == 5


def test_mumford_q_minus1():
    m = S.HyperellipticModel(D1T)
    assert S.mumford_check(m, [1, 3, 4, 2, 1], [-30, -90, -90, -60])
    assert S.mumford_check(m, [Fr(1, 9), Fr(4, 9), 0, Fr(-53, 27), 1],
                           [Fr(1118, 81), Fr(8063, 81), Fr(448, 3), Fr(-52693, 243)])


def test_mumford_q_minus2():
    m = S.HyperellipticModel(D2T)
    assert S.mumford_check(m, [1, 3, 4, 2, 1], [-15, -45, -45, -30])
    assert S.mumford_check(m, [Fr(3, 5), Fr(21, 5), Fr(23, 5), Fr(1, 5), 1],
                           [Fr(666, 25), Fr(1982, 25), Fr(321, 25), Fr(-683, 25)])


def test_mumford_rejects():
    m = S.HyperellipticModel((1, 0, 0, 0, 0, 1))  # y^2 = x^5 + 1
    assert not S.mumford_check(m, [0, 0, 1], [0])


@pytest.mark.parametrize("a", [[0], [], [2, 3], [1, 1, 1, 1]])
def test_mumford_bad_a_raises(a):
    # a(x) must be monic of degree at most the genus
    m = S.HyperellipticModel((1, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        S.mumford_check(m, a, [1])


def test_points_satisfy_curve_exactly():
    m = S.HyperellipticModel((32000, 0, 0, 0, 0, 1))
    for p in S.rational_points(m, 15):
        if isinstance(p, S.AffinePoint):
            assert p.y * p.y == m.F(p.x)
