"""Tests for number-field arithmetic, factorization, and residue splittings."""

import math
import warnings
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from gfe25 import algebra as alg, poly
from gfe25.bforms import edwards_triple

# Table of degree multisets of the twelfth-degree forms: index -> (over Q, over Q(sqrt5))
FACT_TYPES = {
    **{i: [1, 1, 10] for i in (1, 20, 25)},
    **{i: [4, 8] for i in (3, 4, 12, 17, 18, 27)},
    **{i: [6, 6] for i in (2, 10, 26)},
    **{i: [12] for i in (5, 6, 7, 8, 9, 11, 13, 14, 15, 16, 19, 21, 22, 23, 24)},
}


def test_factor_q_content_and_factors():
    content, facs = alg.factor_q([-4, 0, 4])   # 4x^2 - 4 = 4(x-1)(x+1)
    assert content == 4
    assert sorted(f for f, _ in facs) == [[-1, 1], [1, 1]]


# ---------------------------------------------------------------------------
# factorization over Q; sympy's factor_list is the reference


def _sympy_factor_q(coeffs):
    x = sp.Symbol("x")
    content, facs = sp.Poly([sp.Rational(Fraction(c).numerator,
                                         Fraction(c).denominator)
                             for c in coeffs[::-1]], x).factor_list()
    content = sp.Rational(content)
    return Fraction(int(content.p), int(content.q)), \
        [([int(c) for c in f.all_coeffs()[::-1]], m) for f, m in facs]


@st.composite
def products_over_q(draw):
    """A rational content, negative or not, times a product of powers of
    small integer polynomials of degree 1 to 4, up to degree 16."""
    out = [Fraction(draw(st.integers(-30, 30).filter(bool)),
                    draw(st.integers(1, 12)))]
    while len(out) < 9:
        d = draw(st.integers(1, 4))
        f = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        f.append(draw(st.integers(-4, 4).filter(bool)))
        out = poly.mul(out, poly.power(f, draw(st.integers(1, 3)), [1],
                                       poly.mul))
        if draw(st.booleans()):
            break
    return out


@settings(max_examples=300, deadline=None)
@given(products_over_q())
def test_factor_q_matches_sympy(coeffs):
    got = alg.factor_q(coeffs)
    assert got == _sympy_factor_q(coeffs)   # sympy's order as well
    content, facs = got
    prod = [content]
    for f, m in facs:
        assert f[-1] > 0 and math.gcd(*f) == 1
        prod = poly.mul(prod, poly.power(f, m, [1], poly.mul))
    assert prod == poly.trim(coeffs)


def test_factor_q_edge_cases():
    assert alg.factor_q([]) == (0, [])
    assert alg.factor_q([0, 0]) == (0, [])
    assert alg.factor_q([Fraction(-3, 4)]) == (Fraction(-3, 4), [])
    assert alg.factor_q([6, -4]) == (-2, [([-3, 2], 1)])
    assert alg.factor_q([0, 0, 0, 5]) == (5, [([0, 1], 3)])


@pytest.mark.parametrize("coeffs", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]])
def test_factor_q_proves_irreducible_by_recombination(coeffs, monkeypatch):
    # x^4 + 1 and x^4 - 10x^2 + 1 (the minimal polynomial of sqrt2 + sqrt3)
    # split mod every prime, so no degree pattern proves them irreducible:
    # the lifted factors are recombined, and no subset divides
    recombined = []
    real = alg._recombine
    monkeypatch.setattr(alg, "_recombine", lambda *args: recombined.append(
        args[0]) or real(*args))
    assert alg.factor_q(coeffs) == (1, [(coeffs, 1)])
    assert recombined == [coeffs]
    assert alg.factor_q(coeffs) == _sympy_factor_q(coeffs)


def test_factor_q_tries_subsets_that_are_not_factors(monkeypatch):
    # (x^4 + 1)(x^4 - 10x^2 + 1): both split into quadratics (or further)
    # mod every prime, so degree 2 is allowed and the first subsets tried
    # are a single quadratic, which divides neither factor over Q
    f = poly.mul([1, 0, 0, 0, 1], [1, 0, -10, 0, 1])
    tried = []
    real = poly.quotient_z
    monkeypatch.setattr(poly, "quotient_z", lambda a, b: tried.append(
        (len(b) - 1, real(a, b) is not None)) or real(a, b))
    assert alg.factor_q(f) == (1, [([1, 0, -10, 0, 1], 1), ([1, 0, 0, 0, 1], 1)])
    assert alg.factor_q(f) == _sympy_factor_q(f)
    assert tried[0] == (2, False)
    assert (4, True) in tried


def test_factor_q_on_the_table4_inputs():
    inputs = [poly.trim(edwards_triple(i).h.coeffs) for i in range(1, 28)]
    inputs += [alg._shifted_norm(inputs[i - 1], 1) for i in (2, 10, 26)]
    for coeffs in inputs:
        assert alg.factor_q(coeffs) == _sympy_factor_q(coeffs)


def test_golden_split_reads_the_patterns_of_factoring(monkeypatch):
    # table4 computes each (g, p) degree pattern once: the inert-prime test
    # reads those that factoring over Q already computed
    seen = []
    real = poly.distinct_degree_mod
    monkeypatch.setattr(poly, "distinct_degree_mod", lambda a, p: seen.append(
        (tuple(a), p)) or real(a, p))
    for i in range(1, 28):
        for field in ("Q", "golden"):
            seen.clear()
            alg.factorization_certificates(i, field)
            assert len(seen) == len(set(seen)), (i, field)


def test_factorization_types_over_q():
    for i, want in FACT_TYPES.items():
        if want in ([1, 1, 10], [4, 8]):
            assert alg.factorization_certificates(i, "Q")[0] == want, i


def test_factorization_types_over_golden():
    for i, want in FACT_TYPES.items():
        if want in ([6, 6], [12]):
            assert alg.factorization_certificates(i, "golden")[0] == want, i
    # the degree-8 factor of a [4,8] row splits further over Q(sqrt5)
    assert alg.factorization_certificates(3, "golden")[0] == [4, 4, 4]


def _factor_nf_type(i):
    """The type of h_i over Q(sqrt5) from sympy's factoring over the number
    field, the reference for factorization_certificates."""
    coeffs = poly.trim(edwards_triple(i).h.coeffs)
    _, facs = alg.factor_nf(coeffs, alg.auxiliary_field("golden"))
    return sorted([1] * (13 - len(coeffs))
                  + [len(f) - 1 for f, m in facs for _ in range(m)])


def test_golden_types_match_factor_nf():
    for i in range(1, 28):
        got, certificates = alg.factorization_certificates(i, "golden")
        assert got == _factor_nf_type(i), i
        if got == [12]:
            assert [list(c["certificate"]) for c in certificates] \
                == [["inert_prime"]], i
        elif got == [6, 6]:
            assert certificates == [{"degree": 12, "multiplicity": 1,
                                     "certificate": {"norm_shift": 1,
                                                     "norm_factor_degrees": [12, 12]}}]


@pytest.mark.parametrize("field", ["Q(sqrt5)", "sqrt5", "gauss", "R"])
def test_factorization_type_rejects_other_fields(field):
    with pytest.raises(ValueError, match="unsupported field"):
        alg.factorization_certificates(5, field)


X4_MINUS_2 = [-2, 0, 0, 0, 1]


@pytest.mark.parametrize("coeffs, want, certificate", [
    # (x^2 - sqrt5)(x^2 + sqrt5); (x + 1)^4 mod 2, which only the
    # squarefree test keeps from certifying [4]
    ([-5, 0, 0, 0, 1], [2, 2],
     {"norm_shift": 1, "norm_factor_degrees": [4, 4]}),
    (X4_MINUS_2, [4], {"inert_prime": 7}),
    # Eisenstein at 2; mod 5 it has a linear factor, but 5 is ramified, not
    # inert, so the certificate is the first inert prime that works
    ([2, -2, 0, 0, 1], [4], {"inert_prime": 7}),
    # roots phi^2 and phi^-2
    ([1, -3, 1], [1, 1], {"norm_shift": 1, "norm_factor_degrees": [2, 2]}),
    # roots +-sqrt5, 2 sqrt5 apart: the norm at k = 1 has the double root 0
    ([-5, 0, 1], [1, 1], {"norm_shift": 2, "norm_factor_degrees": [2, 2]}),
    ([0, 0, 0, 1, 1], [1, 1, 1, 1], "odd_degree"),
])
def test_golden_factorization(coeffs, want, certificate):
    got, certificates = alg._golden_factorization(coeffs)
    assert got == want
    assert certificates[-1]["certificate"] == certificate


def test_golden_factorization_keeps_multiplicity():
    got, certificates = alg._golden_factorization(
        poly.mul(X4_MINUS_2, X4_MINUS_2))
    assert got == [4, 4]
    assert certificates == [{"degree": 4, "multiplicity": 2,
                             "certificate": {"inert_prime": 7}}]


def test_shifted_norm_is_the_product_of_conjugate_shifts():
    K = alg.auxiliary_field("sqrt5")
    g, k = [3, -1, 4, 1, -5, 9], 2
    x_plus, x_minus = [K.gen * k, K.one], [K.gen * -k, K.one]
    shifted = [[], []]
    for c in reversed(g):       # Horner's rule in g(x +- k sqrt5)
        shifted = [poly.add(poly.mul(s, t), [K.from_int(c)])
                   for s, t in zip(shifted, (x_plus, x_minus))]
    want = [c.as_rational() for c in poly.mul(*shifted)]
    assert alg._shifted_norm(g, k) == want


def test_golden_ramified_at_5():
    K = alg.auxiliary_field("golden")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = alg.residue_split(K, 5)
    # one prime of degree 1 in a quadratic field: (x + 2)^2, ramified
    assert [fq.modpoly for fq in rs] == [(2, 1)]


@pytest.mark.parametrize("K", [alg.coefficient_field(rep) for rep in (5, 6, 16, 22, 24)]
                         + [alg.auxiliary_field(name) for name in
                            ("gauss", "golden", "sqrt5", "sqrt-5")],
                         ids=repr)
def test_discriminant_matches_sympy(K):
    # (-1)^(n(n-1)/2) Res(T, T') against sympy's discriminant as reference
    x = sp.Symbol("x")
    want = sp.discriminant(sp.Poly(K.min_poly[::-1], x).as_expr(), x)
    assert K.discriminant() == int(want)


def test_k5_residue_degrees():
    K5 = alg.coefficient_field(5)
    assert sorted(fq.f for fq in alg.residue_split(K5, 7)) == [1, 1, 4]
    assert sorted(fq.f for fq in alg.residue_split(K5, 11)) == [3, 3]


def test_nfelement_field_ops():
    G = alg.auxiliary_field("gauss")
    i = G.gen
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (G.element([2, 3]) / G.element([2, 3])) == G.one
    assert G.element([1, 1]).norm() == 2
    assert (1 / (1 + i)) == G.element([Fraction(1, 2), Fraction(-1, 2)])
    assert not G.element([Fraction(1, 2)]).is_integral
    assert (i ** 4) == 1


def test_golden_unit_is_integral():
    # the golden basis makes the fundamental unit a basis element
    K = alg.auxiliary_field("golden")
    eps = K.gen
    assert eps * eps == eps + 1
    assert (eps * (eps - 1)).is_rational() and (eps * (eps - 1)).as_rational() == 1
    assert eps.norm() == -1


def test_factor_nf_splits_gauss_quadratic():
    G = alg.auxiliary_field("gauss")
    lead, facs = alg.factor_nf([1, 0, 1], G)   # x^2 + 1 = (x-i)(x+i)
    assert lead == G.one
    roots = sorted(tuple(f[0].coords) for f, _ in facs)
    assert roots == [((-Fraction(1),) * 0 + (Fraction(0), Fraction(-1))),
                     ((Fraction(0), Fraction(1)))]


def test_nf_fifth_root_gauss():
    G = alg.auxiliary_field("gauss")
    r = alg.nf_fifth_root(G.element([-4, -4]))
    assert r == G.element([1, 1])
    assert alg.nf_fifth_root(G.element([2])) is None
    assert alg.nf_fifth_root(G.zero) == G.zero


def test_nf_fifth_root_sextic_roundtrip():
    K = alg.coefficient_field(22)
    e = K.element([1, -1, 0, 1])
    assert alg.nf_fifth_root(e ** 5) == e
    assert alg.nf_fifth_root(K.element([3])) is None


def test_nf_fifth_root_rejects_every_unit_generator():
    # verify_unit_data's rank-3 certificate shows that no generator is a
    # fifth power; their norms are +-1, so each None comes from the
    # coordinate bound of the p-adic lift
    from gfe25 import descent

    for rep in (5, 6, 16, 22, 24):
        for g in descent.verify_unit_data(rep):
            assert abs(g.norm()) == 1
            assert alg.nf_fifth_root(g) is None, (rep, g)


def test_nf_fifth_root_rejects_a_fifth_power_norm():
    # 50 + 25i = (2 + i)^3 (2 - i)^2 has norm 5^5 but is not a fifth power
    G = alg.auxiliary_field("gauss")
    x = G.element([50, 25])
    assert x == G.element([2, 1]) ** 3 * G.element([2, -1]) ** 2
    assert x.norm() == 5**5
    assert alg.nf_fifth_root(x) is None


def test_nf_fifth_root_refuses_a_field_without_a_usable_prime():
    # modulo every prime p not dividing its discriminant, x^5 - 2 has a
    # local degree f with p^f = 1 mod 5, so fifth roots are never unique
    K = alg.NumberField([-2, 0, 0, 0, 0, 1])
    with pytest.raises(ArithmeticError, match="no prime below"):
        alg.nf_fifth_root(K.from_int(2))


PACKAGE_FIELDS = [alg.coefficient_field(rep) for rep in (5, 6, 16, 22, 24)] \
    + [alg.auxiliary_field(name)
       for name in ("gauss", "golden", "sqrt5", "sqrt-5")]


@pytest.mark.parametrize("K", PACKAGE_FIELDS, ids=lambda K: K.label)
def test_power_sums_match_the_roots(K):
    import mpmath

    sums = alg._power_sums(K.min_poly, 2 * K.degree - 1)
    with mpmath.workprec(256):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(K.min_poly)],
                                 maxsteps=200, extraprec=256)
        for m, want in enumerate(sums):
            numeric = mpmath.fsum(r**m for r in roots)
            assert int(mpmath.nint(mpmath.re(numeric))) == want, (m, numeric)
            assert abs(numeric - want) < mpmath.mpf(2)**-200, (m, numeric)


def test_fifth_root_bound_covers_the_root():
    import random

    rng = random.Random(25)
    fields = [alg.auxiliary_field("gauss"), alg.auxiliary_field("golden"),
              alg.coefficient_field(5), alg.coefficient_field(16),
              alg.coefficient_field(22)]
    for _ in range(100):
        K = rng.choice(fields)
        e = K.element([Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 6)))
                       for _ in range(K.degree)])
        if not e:
            continue
        x = e**5
        s = alg.maximal_order(K).denom \
            * sp.ilcm(*(c.denominator for c in x.coords))
        W = s * e
        assert W.is_integral
        B = [int(c) for c in (s**5 * x).coords]
        assert alg._fifth_root_bound(K, B) >= max(abs(c) for c in W.coords)


def test_fq_fifth_power_class():
    K5 = alg.coefficient_field(5)
    fq = alg.residue_split(K5, 11)[0]
    assert fq.q == 11**3 and fq.q % 5 == 1
    assert fq.fifth_power_class(poly.pow_mod([2, 1], 5, fq.modpoly, 11)) == 0
    classes = {fq.fifth_power_class([c, 0, 0]) for c in range(1, 11)}
    assert 0 in classes and len(classes) > 1
    with pytest.raises(alg.ZeroInput):
        fq.fifth_power_class([0, 0, 0])


# residue fields of K16 with f = 1 and 5 (p = 11), 3 (p = 71) and 1, 2
# (p = 101); fifth-power classes are taken only at p = 1 mod 5
FIELDS_WITH_MU5 = [fq for p in (11, 71, 101) for fq in
                   alg.residue_split(alg.coefficient_field(16), p)]


# every residue field of K5 and K22 at the certification primes 11, 31, 41
SIEVE_FIELDS = [fq for rep in (5, 22) for p in (11, 31, 41)
                for fq in alg.residue_split(alg.coefficient_field(rep), p)]


def _zeta(p):
    # c^((p-1)/5) for the least c where that is not 1
    e = (p - 1) // 5
    return next(z for z in (pow(c, e, p) for c in range(1, p)) if z != 1)


def _class_by_definition(fq, a):
    # the k with a^((q-1)/5) = zeta^k, by scalar powers in F_q
    g, p = fq.modpoly, fq.p
    chi = poly.pow_mod(a, (fq.q - 1) // 5, g, p)
    assert not any(chi[1:])  # mu_5 lies in F_p
    for k in range(5):
        if chi[0] == pow(_zeta(p), k, p):
            return k
    raise AssertionError(f"{chi} is not a power of {_zeta(p)}")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS_WITH_MU5 + SIEVE_FIELDS), st.data())
def test_fq_fifth_power_class_matches_definition(fq, data):
    assert [F.f for F in FIELDS_WITH_MU5] == [1, 5, 3, 3, 1, 1, 2, 2]
    rows = data.draw(st.lists(
        st.lists(st.integers(0, fq.p - 1), min_size=fq.f, max_size=fq.f)
        .filter(any), min_size=1, max_size=12))
    want = [_class_by_definition(fq, r) for r in rows]
    assert fq.fifth_power_classes(rows).tolist() == want
    assert fq.fifth_power_class(rows[0]) == want[0]
    with pytest.raises(alg.ZeroInput):
        fq.fifth_power_classes(rows + [[0] * fq.f])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIEVE_FIELDS), st.data())
def test_fifth_power_classes_match_scalar_class(fq, data):
    # a batch classifies each row as that row alone does: no row of the
    # array arithmetic leaks into another
    rows = data.draw(st.lists(
        st.lists(st.integers(0, fq.p - 1), min_size=fq.f, max_size=fq.f)
        .filter(any), min_size=1, max_size=12))
    assert fq.fifth_power_classes(rows).tolist() == \
        [fq.fifth_power_class(r) for r in rows]
    with pytest.raises(alg.ZeroInput):
        fq.fifth_power_classes(rows + [[0] * fq.f])


def test_fifth_power_labels_pin_zeta():
    # zeta = c^((p-1)/5) for the least c that is not a fifth power mod p
    # fixes the class labels, which the sieve survivors do not depend on
    # (test_unit_sieve_does_not_depend_on_class_labels): c has class 1 and
    # every smaller residue class 0
    for p, c, zeta in [(11, 2, 4), (31, 2, 2), (41, 2, 10), (151, 3, 59),
                       (431, 5, 405)]:
        assert _zeta(p) == zeta == pow(c, (p - 1) // 5, p)
        labels = alg._fifth_power_labels(p)
        assert labels[1:c].tolist() == [0] * (c - 1) and labels[c] == 1
        assert alg.Fq(p, [-c, 1]).fifth_power_class([c]) == 1
        assert [int(labels[n]) for n in range(1, p)] == \
            [next(k for k in range(5) if pow(n, (p - 1) // 5, p)
                  == pow(zeta, k, p)) for n in range(1, p)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.integers(-3, 12))
def test_nf_pow_matches_repeated_products(coords, e):
    K = alg.coefficient_field(16)
    a = K.element(coords)
    if not a:
        a = K.one
    want = K.one
    for _ in range(abs(e)):
        want = want * a
    assert a**e == (want if e >= 0 else want.inverse())


def test_fq_rejects_modulus_not_monic():
    # y^4 = 3 + 3y needs the inverse of the leading 2; Fq reduces only by
    # monic moduli, so it refuses this one
    with pytest.raises(ValueError):
        alg.Fq(7, [1, 1, 0, 0, 2])
    assert alg.Fq(7, [1, 1, 0, 0, 8]).modpoly == (1, 1, 0, 0, 1)


def test_fq_fifth_power_classes_refuse_p_not_1_mod_5():
    # F_9, and F_{7^4} and the fields of K16 at 13 and 19, where q = 1 mod 5
    # but p != 1 mod 5: classes are taken only where mu_5 lies in F_p
    fields = [alg.Fq(3, [1, 0, 1]), alg.Fq(7, [1, 1, 0, 0, 1])] + [
        fq for p in (13, 19)
        for fq in alg.residue_split(alg.coefficient_field(16), p)]
    for fq in fields:
        with pytest.raises(ValueError, match="p = 1 mod 5"):
            fq.fifth_power_classes([[1] + [0] * (fq.f - 1)])
    assert alg.Fq(3, [1, 0, 1]).q == 9  # the field itself still builds


def test_reduction_map_is_ring_hom():
    K = alg.coefficient_field(5)
    fq = max(alg.residue_split(K, 7), key=lambda fq: fq.f)
    g, p = fq.modpoly, fq.p
    a = K.element([1, 2, 0, 1])
    b = K.element([3, 0, 1])
    ra, rb = fq.reduce(a), fq.reduce(b)
    assert fq.reduce(a * b) == \
        poly.divmod_mod(poly.mul_mod(ra, rb, p), g, p)[1]
    assert fq.reduce(a + b) == poly.divmod_mod(
        [x + y for x, y in zip(ra, rb)], g, p)[1]


def test_coords_mod():
    G = alg.auxiliary_field("gauss")
    assert G.element([Fraction(1, 2), -3]).coords_mod(25) == [13, 22]
    with pytest.raises(ValueError):
        G.element([Fraction(1, 5), 1]).coords_mod(25)


NAMED_FIELDS = ([alg.coefficient_field(i) for i in (5, 6, 16, 22, 24)]
                + [alg.auxiliary_field(n) for n in ("gauss", "golden", "sqrt5", "sqrt-5")])
rational_coords = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                           max_size=6)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(NAMED_FIELDS), st.lists(st.integers(-9, 9), min_size=6,
                                               max_size=6))
def test_maximal_order_coords_round_trip(K, c):
    order = alg.maximal_order(K)
    assert order.coords(order.element(c[:K.degree])) == c[:K.degree]


def _round_two(K):
    """(matrix, denom) of sympy's Round Two order, normalised by the gcd as
    maximal_order normalises its own: the reference for the Dedekind
    construction."""
    from sympy.polys.numberfields.basis import round_two

    ZK, _ = round_two(sp.Poly(K.min_poly[::-1], sp.symbols("x")))
    matrix = [[int(x) for x in row] for row in ZK.matrix.to_list()]
    g = math.gcd(int(ZK.denom), *(x for row in matrix for x in row))
    return tuple(tuple(x // g for x in row) for row in matrix), int(ZK.denom) // g


@pytest.mark.parametrize("K", NAMED_FIELDS + [alg.NumberField([-2, 0, 0, 0, 0, 1])],
                         ids=repr)
def test_maximal_order_matches_round_two(K):
    order = alg.maximal_order(K)
    assert (order.matrix, order.denom) == _round_two(K)


def test_maximal_order_finds_a_square_prime_past_the_cube_root():
    # disc(x^2 - 3 * 101^2) = 12 * 101^2: trial division stops at 2^6, and
    # the cofactor 101^2 is the square that names the prime 101, at which
    # Z[theta] is not maximal (theta / 101 is integral) and no alpha is stored
    K = alg.NumberField([-3 * 101**2, 0, 1])
    with pytest.raises(ValueError, match="101-maximal"):
        alg.maximal_order(K)


@st.composite
def integer_columns(draw):
    """(columns, n): integer columns of length n <= 5, often spanning a
    lattice of lower rank (integer combinations of fewer generators)."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-30, 30)
    gens = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=1, max_size=n + 1))
    coeffs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=len(gens),
                                    max_size=len(gens)),
                           min_size=1, max_size=8))
    cols = [[sum(c * g[k] for c, g in zip(row, gens)) for k in range(n)]
            for row in coeffs]
    return cols, n


@settings(max_examples=300, deadline=None)
@given(integer_columns())
def test_column_hnf_matches_sympy(cols_n):
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import hermite_normal_form

    cols, n = cols_n
    rows = [[sp.ZZ(col[k]) for col in cols] for k in range(n)]
    want = hermite_normal_form(DomainMatrix(rows, (n, len(cols)), sp.ZZ))
    assert alg._column_hnf(cols, n) == \
        tuple(tuple(int(x) for x in row) for row in want.to_list())


def test_column_hnf_examples():
    assert alg._column_hnf([[2, 0], [1, 3]], 2) == ((2, 1), (0, 3))
    assert alg._column_hnf([[4], [6]], 1) == ((2,),)
    # rank 1 in Z^2: one column, the pivot in the bottom row
    assert alg._column_hnf([[2, 4], [-3, -6]], 2) == ((1,), (2,))
    assert alg._column_hnf([[0, 0]], 2) == ((), ())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-50, 50), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.integers(1, 12))
def test_integer_inverse_matches_sympy(rows, scale):
    from sympy.polys.matrices import DomainMatrix

    M = DomainMatrix.from_list(rows, sp.ZZ)
    if M.det() == 0:
        with pytest.raises(ZeroDivisionError):
            alg._integer_inverse(rows, scale)
        return
    inv, d = M.inv_den()
    A = [[int(x) * scale for x in row] for row in inv.to_list()]
    g = math.gcd(int(d), *(x for row in A for x in row)) * (1 if d > 0 else -1)
    assert alg._integer_inverse(rows, scale) == \
        (tuple(tuple(x // g for x in row) for row in A), int(d) // g)


def test_maximal_order_indices():
    # [O_K : Z[theta]] = denom^n / det(matrix)
    for i, index in {5: 72, 6: 4, 16: 4, 22: 4, 24: 9}.items():
        order = alg.maximal_order(alg.coefficient_field(i))
        det = math.prod(order.matrix[k][k] for k in range(6))
        assert Fraction(order.denom**6, det) == index, i


def test_dedekind_criterion_on_known_orders():
    assert not alg._dedekind_maximal([3, 0, 1], 2)       # Z[sqrt-3]
    assert not alg._dedekind_maximal([-5, 0, 1], 2)      # Z[sqrt5]
    assert alg._dedekind_maximal([-1, -1, 1], 2)         # Z[(1 + sqrt5)/2]
    assert alg._dedekind_maximal([-1, -1, 1], 5)
    for p in (2, 5):                                     # Z[2^(1/5)]
        assert alg._dedekind_maximal([-2, 0, 0, 0, 0, 1], p)


def test_charpoly_of_a_p_maximal_element():
    # alpha_2 = (1 + sqrt5)/2 has x^2 - x - 1
    K = alg.auxiliary_field("sqrt5")
    assert alg._charpoly(K.element([1, 1], 2)) == [-1, -1, 1]


@pytest.mark.parametrize("alpha, why", [
    (((0, 1), 2), "not integral"),           # sqrt5/2: x^2 - 5/4
    (((1, 0), 1), "does not generate"),      # 1: (x - 1)^2
    (((0, 1), 1), "not 2-maximal"),          # sqrt5 itself
])
def test_a_stored_element_that_fails_its_check_raises(monkeypatch, alpha, why):
    K = alg.auxiliary_field("sqrt5")
    monkeypatch.setitem(alg._P_MAXIMAL_ELEMENTS, K.min_poly, {2: alpha})
    with pytest.raises(ValueError, match=why):
        alg.maximal_order.__wrapped__(K)


def test_a_field_without_its_stored_element_raises():
    # Z[sqrt-3] is not 2-maximal, and no alpha_2 is stored for x^2 + 3
    with pytest.raises(ValueError, match="no alpha_2"):
        alg.maximal_order(alg.NumberField([3, 0, 1], label="sqrt-3"))


def test_maximal_order_coords_reject_non_integral_elements():
    K = alg.coefficient_field(5)  # [O_K : Z[theta]] = 2^3 3^2
    order = alg.maximal_order(K)
    assert order.denom == 6
    assert order.coords(K.element([Fraction(1, 2)])) is None
    assert order.coords(K.element([0, Fraction(1, 3)])) is None
    outside = order.element([0, 0, 0, 0, 0, 1])
    assert not outside.is_integral and order.coords(outside) == [0] * 5 + [1]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(NAMED_FIELDS), st.lists(st.integers(-5, 5), min_size=6,
                                               max_size=6))
def test_principal_ideal_norm_is_element_norm(K, c):
    order = alg.maximal_order(K)
    g = order.element(c[:K.degree])
    if g:
        assert order.ideal([g])[1] == abs(g.norm())


def test_ideals_of_sqrt_minus_5():
    # h = 2: (2, 1 + sqrt-5) is the prime above 2 and is not principal
    K = alg.auxiliary_field("sqrt-5")
    order, t = alg.maximal_order(K), K.gen
    assert order.ideal([K.from_int(2), 1 + t]) == (((2, 1), (0, 1)), 2)
    assert order.ideal([1 + t])[1] == 6
    with pytest.raises(ValueError):
        order.ideal([t / 2])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NAMED_FIELDS), rational_coords, rational_coords)
def test_nf_product_and_norm_match_sympy(K, ac, bc):
    x = sp.Symbol("x")

    def expr(coeffs):
        return sum(sp.Rational(str(c)) * x**k for k, c in enumerate(coeffs))

    a, b = K.element(ac[:K.degree]), K.element(bc[:K.degree])
    rem = sp.Poly(sp.rem(expr(a.coords) * expr(b.coords), expr(K.min_poly), x), x)
    assert a * b == K.element([Fraction(str(c)) for c in reversed(rem.all_coeffs())])
    if a:
        norm = sp.resultant(expr(K.min_poly), expr(a.coords), x)
        assert a.norm() == Fraction(str(norm))


def test_nf_canonical_form_examples():
    # one form per element: equal values built from different inputs have
    # equal numerators and denominator, so they compare and hash equal
    for K in NAMED_FIELDS:
        half = K.element([Fraction(2, 4)])
        for same in (K.element([Fraction(1, 2)]), K.element([1], 2),
                     K.element([-3], -6), K.one / 2):
            assert same == half and hash(same) == hash(half)
        assert (half.num, half.den) == ((1,) + (0,) * (K.degree - 1), 2)
        third = K.element([0, Fraction(2, 3)])
        assert half * third == K.element([0, Fraction(1, 3)])
        assert hash(half * third) == hash(K.element([0, 1], 3))
        for zero in (K.zero, K.element([0, 0], 7), half - half, third * 0):
            assert zero.num == (0,) * K.degree and zero.den == 1
        with pytest.raises(ValueError):
            K.element(range(K.degree + 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NAMED_FIELDS), rational_coords, rational_coords)
def test_nf_canonical_form(K, ac, bc):
    ac, bc = ac[:K.degree], bc[:K.degree]
    a, b = K.element(ac), K.element(bc)
    pad = (Fraction(0),) * (K.degree - len(ac))
    assert a.coords == tuple(ac) + pad
    assert all(type(c) is Fraction for c in a.coords)
    for x in (a, b, a + b, a - b, a * b, -a):
        assert len(x.num) == K.degree and all(type(c) is int for c in x.num)
        assert x.den >= 1 and math.gcd(*x.num, x.den) == 1
        assert K.element(x.coords) == x and hash(K.element(x.coords)) == hash(x)
        assert K.element([3 * c for c in x.num], 3 * x.den) == x
    if a:
        inv = a.inverse()
        assert inv.den >= 1 and math.gcd(*inv.num, inv.den) == 1


coord = st.integers(min_value=-9, max_value=9)


@settings(max_examples=40, deadline=None)
@given(st.lists(coord, min_size=2, max_size=2), st.lists(coord, min_size=2, max_size=2))
def test_gauss_norm_multiplicative(ac, bc):
    G = alg.auxiliary_field("gauss")
    a, b = G.element(ac), G.element(bc)
    assert (a * b).norm() == a.norm() * b.norm()


@settings(max_examples=25, deadline=None)
@given(st.lists(coord, min_size=2, max_size=2))
def test_gauss_inverse_roundtrip(ac):
    G = alg.auxiliary_field("gauss")
    a = G.element(ac)
    if a:
        assert a * a.inverse() == G.one


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_sextic_mul_matches_sympy_norm(coords):
    K = alg.coefficient_field(6)
    a = K.element(coords)
    sq = a * a
    if a:
        assert sq.norm() == a.norm() ** 2
