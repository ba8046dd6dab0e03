"""Tests for rational point search and Mumford checks."""

from fractions import Fraction as Fr

import pytest

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


def test_completeness_against_naive_oracle():
    # per-x enumeration without the modular prescreen
    for coeffs in ((32000, 0, 0, 0, 0, 1), F4, D1T):
        m = S.HyperellipticModel(coeffs)
        fast = S.rational_points(m, 30)
        slow = S.rational_points(m, 30, prescreen=False)
        assert fast == slow


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
