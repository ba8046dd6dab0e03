"""Tests for binary forms, the 27 parameterizing triples, and solution assembly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfe25.bforms import (
    BinaryForm,
    NonIntegralResult,
    Solution,
    assemble_solution,
    binary_resultant,
    build_form,
    derived_forms,
    edwards_triple,
    evaluate_triple,
    forms_digest,
    integer_fifth_root,
    transform,
    verify_forms_data,
)

ALL_I = list(range(1, 28))


def test_syzygy_all_27():
    for i in ALL_I:
        t = edwards_triple(i)
        assert t.syzygy_residual().is_zero, f"triple {i} fails f^2+g^3+h^5=0"


def test_degrees():
    for i in ALL_I:
        t = edwards_triple(i)
        assert (t.f.degree, t.g.degree, t.h.degree) == (30, 20, 12)


def test_forms_data_matches_embedded():
    assert verify_forms_data()
    assert isinstance(forms_digest(), str) and len(forms_digest()) == 64


# bracket convention: coefficient of u^k v^(12-k) in h is C(12,k) * alpha_k
def test_bracket_convention_h5():
    h5 = edwards_triple(5).h
    assert h5.evaluate(0, 1) == -1                        # alpha_0
    assert h5.coeffs[6] == -3300                          # C(12,6) * (-25/7)
    assert h5.coeffs[6] == 924 * Fraction(-25, 7)
    assert h5.evaluate(1, 0) == -57025                    # alpha_12


def test_known_values():
    assert edwards_triple(22).h.evaluate(1, 0) == -648
    assert edwards_triple(1).h.evaluate(1, 1) == -267828
    t5 = edwards_triple(5)
    assert (t5.g.evaluate(0, 1), t5.f.evaluate(0, 1)) == (-2, -3)


def test_derived_forms_generic_bracket_breaks_syzygy():
    # the covariant construction works for any integral bracket, but the
    # f^2 + g^3 + h^5 = 0 identity holds only for the special ones
    h = build_form([1] * 13)
    g, f = derived_forms(h)
    assert (g.degree, f.degree) == (20, 30)
    residual = f * f + g * g * g + h**5
    assert not residual.is_zero


def test_evaluate_triple_catalan():
    f, g, h = evaluate_triple(5, 0, 1)
    assert (f, g, h) == (-3, -2, -1)


def test_assemble_solution_catalan():
    sol = assemble_solution(5, 0, 1, +1)
    assert isinstance(sol, Solution)
    assert (abs(sol.a), sol.b, sol.c, sol.z) == (3, -2, -1, 1)
    assert sol.primitive and not sol.trivial
    assert sol.check()
    both = {assemble_solution(5, 0, 1, s).a for s in (+1, -1)}
    assert both == {3, -3}


def test_assemble_solution_trivial():
    sol = assemble_solution(1, 0, 1, +1)
    assert sol.trivial
    assert (abs(sol.a), sol.b, sol.c) == (1, -1, 0)


def test_integer_fifth_root():
    assert integer_fifth_root(0) == 0
    assert integer_fifth_root(32) == 2
    assert integer_fifth_root(-243) == -3
    assert integer_fifth_root(33) is None
    assert integer_fifth_root(91125) is None


def test_integer_fifth_root_large():
    # beyond float precision, and beyond the float range (> 308 digits)
    for r in (10**16 + 7, 10**20 + 7, 3**500 + 2):
        n = r**5
        assert integer_fifth_root(n) == r
        assert integer_fifth_root(-n) == -r
        assert integer_fifth_root(n + 1) is None
        assert integer_fifth_root(n - 1) is None


def test_transform_substitution_identities():
    # -h2(-u/2, v) = -h10(v/2, u) = -h26((u+v)/2, (u-v)/2) all agree
    h2 = edwards_triple(2).h
    h10 = edwards_triple(10).h
    h26 = edwards_triple(26).h
    half = Fraction(1, 2)
    a = transform(h2, ((-half, 0), (0, 1))).scale(-1)
    b = transform(h10, ((0, half), (1, 0))).scale(-1)
    c = transform(h26, ((half, half), (half, -half))).scale(-1)
    assert a == b == c
    assert a.evaluate(0, 1) == 1 and a.evaluate(1, 0) == 25


def test_resultant_bilinear_in_roots():
    F = BinaryForm(2, (2, -3, 1))     # (u-1)(u-2) style: u^2 v^0 asc coeffs (v^2, uv, u^2)
    G = BinaryForm(1, (-3, 1))        # u - 3v
    r = binary_resultant(F, G)
    # Res(f,g) = lc(f)^deg g * prod g(roots): here product of F at root of G
    assert r != 0
    H = BinaryForm(1, (-1, 1))        # u - v, shares root with (u-v)(u-2v)
    K = BinaryForm(2, (2, -3, 1))
    assert binary_resultant(H, K) == 0


coeff = st.integers(min_value=-30, max_value=30)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=3, max_size=3), st.lists(coeff, min_size=4, max_size=4),
       st.integers(-5, 5), st.integers(-5, 5))
def test_resultant_vanishes_iff_common_root_at_point(fc, gc, u, v):
    # if two forms share the rational root (u:v), their resultant is 0
    if u == 0 and v == 0:
        return
    F = BinaryForm(2, tuple(fc))
    G = BinaryForm(3, tuple(gc))
    if F.evaluate(u, v) == 0 and G.evaluate(u, v) == 0 and (F.coeffs != (0,) * 3 and G.coeffs != (0,) * 4):
        assert binary_resultant(F, G) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 27), st.integers(-8, 8), st.integers(-8, 8))
def test_triple_identity_pointwise(i, u, v):
    f, g, h = evaluate_triple(i, u, v)
    assert f * f + g * g * g + h**5 == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=4, max_size=4),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-6, 6), st.integers(-6, 6))
def test_transform_is_substitution(fc, a, b, c, d, u, v):
    if a * d - b * c == 0:
        return
    F = BinaryForm(3, tuple(fc))
    M = ((a, b), (c, d))
    G = transform(F, M)
    assert G.evaluate(u, v) == F.evaluate(a * u + b * v, c * u + d * v)
