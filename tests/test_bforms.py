"""Tests for binary forms, the 27 parameterizing triples, and solution assembly."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from gfe25.algebra import auxiliary_field
from gfe25.bforms import (
    BinaryForm,
    EdwardsTriple,
    NonIntegralResult,
    Solution,
    assemble_solution,
    binary_resultant,
    build_form,
    derived_forms,
    edwards_triple,
    evaluate_triple,
    transform,
    verify_forms_data,
)

ALL_I = list(range(1, 28))


def test_syzygy_all_27():
    for i in ALL_I:
        assert edwards_triple(i).syzygy_holds(), \
            f"triple {i} fails f^2+g^3+h^5=0"


@pytest.mark.parametrize("k", [0, 5, 6, 12])
def test_syzygy_fails_with_one_coefficient_of_h_changed(k):
    t = edwards_triple(5)
    coeffs = list(t.h.coeffs)
    coeffs[k] += 1
    bad = EdwardsTriple(5, BinaryForm(12, tuple(coeffs)), t.g, t.f)
    assert any((bad.f**2 + bad.g**3 + bad.h**5).coeffs)
    assert not bad.syzygy_holds()


def test_syzygy_needs_integer_coefficients():
    t = edwards_triple(5)
    with pytest.raises(ValueError):
        EdwardsTriple(5, t.h.scale(Fraction(1, 2)), t.g, t.f).syzygy_holds()


def test_degrees():
    for i in ALL_I:
        t = edwards_triple(i)
        assert (t.f.degree, t.g.degree, t.h.degree) == (30, 20, 12)


def test_forms_data_matches_embedded():
    assert verify_forms_data()


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
    assert any(residual.coeffs)
    assert not EdwardsTriple(0, h, g, f).syzygy_holds()


def test_evaluate_triple_catalan():
    f, g, h = evaluate_triple(5, 0, 1)
    assert (f, g, h) == (-3, -2, -1)


def test_assemble_solution_catalan():
    sol = assemble_solution(5, 0, 1, +1)
    assert isinstance(sol, Solution)
    assert (abs(sol.a), sol.b, sol.c, sol.z) == (3, -2, -1, 1)
    assert sol.primitive and sol.a * sol.b * sol.c != 0
    assert sol.a**2 + sol.b**3 + sol.c**5 == 0
    assert sol.a**2 + sol.b**3 == sol.z**25
    both = {assemble_solution(5, 0, 1, s).a for s in (+1, -1)}
    assert both == {3, -3}


def test_assemble_solution_trivial():
    sol = assemble_solution(1, 0, 1, +1)
    assert sol.a * sol.b * sol.c == 0
    assert (abs(sol.a), sol.b, sol.c) == (1, -1, 0)


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


def _losing_leads(coeffs, lost):
    """The form with these coefficients and its top `lost` ones set to zero."""
    d = len(coeffs) - 1
    return BinaryForm(d, tuple(0 * c if k > d - lost else c
                               for k, c in enumerate(coeffs)))


def _sylvester_det(F, G, to_sympy):
    """The Sylvester determinant of the full coefficient vectors, in sympy."""
    m, n = F.degree, G.degree
    fc = [to_sympy(F.coeffs[m - k]) for k in range(m + 1)]
    gc = [to_sympy(G.coeffs[n - k]) for k in range(n + 1)]
    rows = ([[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)])
    return sp.expand(sp.Matrix(m + n, m + n, sum(rows, [])).det())


def test_binary_resultant_sign_of_lost_leads():
    # F = uv + v^2 (degree 2, u^2 coefficient 0), G = u + 2v: the Sylvester
    # determinant is -1, i.e. (-1)^(1*1) * 1 * Res(x + 1, x + 2)
    F, G = BinaryForm(2, (1, 1, 0)), BinaryForm(1, (2, 1))
    assert binary_resultant(F, G) == -1 == _sylvester_det(F, G, sp.Integer)
    # Res_(1,2)(G, F) = (-1)^(2*1) Res_(2,1)(F, G)
    assert binary_resultant(G, F) == -1


@settings(max_examples=150, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=5), st.lists(coeff, min_size=1, max_size=5),
       st.integers(0, 2), st.integers(0, 2))
def test_binary_resultant_matches_sylvester_determinant(fc, gc, dm, dn):
    # either form, or both, may lose leading coefficients (roots at infinity)
    F, G = _losing_leads(fc, dm), _losing_leads(gc, dn)
    assert binary_resultant(F, G) == _sylvester_det(F, G, sp.Integer)


gauss_coeff = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(gauss_coeff, min_size=1, max_size=4),
       st.lists(gauss_coeff, min_size=1, max_size=4),
       st.integers(0, 2), st.integers(0, 2))
def test_binary_resultant_over_gauss_matches_sylvester_determinant(fc, gc, dm, dn):
    K = auxiliary_field("gauss")
    F = _losing_leads([K.element(c) for c in fc], dm)
    G = _losing_leads([K.element(c) for c in gc], dn)
    det = _sylvester_det(F, G, lambda e: sp.Rational(str(e.coords[0]))
                         + sp.I * sp.Rational(str(e.coords[1])))
    want = K.element([Fraction(str(sp.re(det))), Fraction(str(sp.im(det)))])
    assert binary_resultant(F, G) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 27), st.integers(-8, 8), st.integers(-8, 8))
def test_triple_identity_pointwise(i, u, v):
    f, g, h = evaluate_triple(i, u, v)
    assert f * f + g * g * g + h**5 == 0


def _transform_reference(F, M):
    """F(M(u, v)) expanded over Q term by term: sum_k c_k lu^k lv^(d-k) for
    the linear forms lu, lv of M's rows."""
    (a, b), (c, d) = M
    lu = BinaryForm(1, (Fraction(b), Fraction(a)))
    lv = BinaryForm(1, (Fraction(d), Fraction(c)))
    n = F.degree
    out = BinaryForm(n, (0,) * (n + 1))
    for k, ck in enumerate(F.coeffs):
        out = out + (lu**k * lv ** (n - k)).scale(ck)
    return out


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(coeff, small_fractions), min_size=1, max_size=7),
       st.lists(small_fractions, min_size=4, max_size=4))
def test_transform_matches_the_expansion_over_q(fc, m):
    a, b, c, d = m
    if a * d - b * c == 0:
        return
    F = BinaryForm(len(fc) - 1, tuple(fc))
    M = ((a, b), (c, d))
    G = transform(F, M)
    assert G == _transform_reference(F, M)
    for x in G.coeffs:
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)


@pytest.mark.parametrize("M", [((Fraction(1, 2), 3), (Fraction(-2, 3), 1)),
                               ((0, Fraction(1, 2)), (1, 0)),
                               ((1, 1), (1, -1))])
def test_transform_with_number_field_coefficients(M):
    K = auxiliary_field("golden")
    F = BinaryForm(3, (K.element([1, 2]), K.element([Fraction(1, 3), 0]),
                       K.from_int(0), K.element([-5, 7], 4)))
    assert transform(F, M) == _transform_reference(F, M)


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
