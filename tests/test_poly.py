"""Tests for the exact polynomial and root arithmetic."""

import itertools
import math
from fractions import Fraction as Fr

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from gfe25 import poly

SMALL_PRIMES = (2, 3, 5, 7, 11, 31)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
rational_polys = st.lists(rationals, max_size=7)
int_polys = st.lists(st.integers(-60, 60), max_size=8)


def _mod(a, p):
    return poly.trim([c % p for c in a])


@settings(max_examples=200, deadline=None)
@given(rational_polys, rational_polys)
def test_divmod_and_gcdext_over_q(a, b):
    a, b = poly.trim(a), poly.trim(b)
    if b:
        q, r = poly.divmod(a, b)
        assert poly.add(poly.mul(q, b), r) == a
        assert len(r) < len(b)
    g, s, t = poly.gcdext(a, b)
    assert poly.add(poly.mul(s, a), poly.mul(t, b)) == g
    assert g == poly.gcd(a, b)
    if g:
        assert g[-1] == 1
        assert not poly.divmod(a, g)[1] and not poly.divmod(b, g)[1]


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys)
def test_quotient_z_matches_division_over_q(a, b):
    b = poly.trim(b)
    assume(b)
    q, r = poly.divmod(a, b)
    integral = all(Fr(c).denominator == 1 for c in q)
    want = [int(c) for c in q] if integral and not r else None
    assert poly.quotient_z(a, b) == want
    assert poly.quotient_z(poly.mul(a, b), b) == poly.trim(a)


def test_quotient_z_examples():
    assert poly.quotient_z([0, 0, 1], [0, 1]) == [0, 1]
    assert poly.quotient_z([1, 0, 1], [0, 1]) is None     # x does not divide
    assert poly.quotient_z([3, 0, 1], [2, 1]) is None     # 2 does not divide 3
    assert poly.quotient_z([2, 4], [1, 2]) == [2]
    assert poly.quotient_z([1, 2], [2, 4]) is None        # 1/2 over Q only
    assert poly.quotient_z([1, 2, 1], [1, 2, 1, 1]) is None
    assert poly.quotient_z([], [1, 1]) == []
    with pytest.raises(ZeroDivisionError):
        poly.quotient_z([1], [0])


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, st.sampled_from(SMALL_PRIMES),
       st.integers(1, 3))
def test_divmod_mod_p(a, b, p, k):
    m = p**k
    monic = _mod(b, m)[:4] + [1]
    q, r = poly.divmod_mod(a, monic, m)
    assert len(r) == len(monic) - 1
    assert all(0 <= c < m for c in q + r)
    assert _mod(poly.add(poly.mul_mod(q, monic, m), r), m) == _mod(a, m)


@settings(max_examples=100, deadline=None)
@given(int_polys, st.lists(st.integers(-60, 60), min_size=1, max_size=4),
       st.sampled_from(SMALL_PRIMES), st.sampled_from((1, 3)))
def test_pow_mod_matches_repeated_products(a, g, p, k):
    m, g = p**k, g + [1]
    want = poly.divmod_mod([1], g, m)[1]
    for e in range(13):
        assert poly.pow_mod(a, e, g, m) == want
        want = poly.divmod_mod(poly.mul_mod(want, a, m), g, m)[1]


def test_gcd_examples():
    # (x - 1)(x + 2) and (x - 1)(x + 3) share x - 1
    assert poly.gcd([-2, 1, 1], [-3, 2, 1]) == [-1, 1]
    assert poly.gcd([1, 0, 1], [0, 1]) == [1]
    assert poly.gcd([], []) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**40), st.integers(2, 7))
def test_int_root_against_power(r, k):
    n = r**k
    assert poly.int_root(n, k) == r
    if r > 1:
        assert poly.int_root(n + 1, k) is None
        assert poly.int_root(n - 1, k) is None
    if k % 2:
        assert poly.int_root(-n, k) == -r
    elif r:
        assert poly.int_root(-n, k) is None


def test_int_root_fifth_powers():
    assert poly.int_root(0, 5) == 0
    assert poly.int_root(32, 5) == 2
    assert poly.int_root(-243, 5) == -3
    assert poly.int_root(33, 5) is None
    assert poly.int_root(91125, 5) is None


def test_int_root_fifth_powers_large():
    # beyond float precision, and beyond the float range (> 308 digits)
    for r in (10**16 + 7, 10**20 + 7, 3**500 + 2):
        n = r**5
        assert poly.int_root(n, 5) == r
        assert poly.int_root(-n, 5) == -r
        assert poly.int_root(n + 1, 5) is None
        assert poly.int_root(n - 1, 5) is None


def test_fraction_root():
    assert poly.fraction_root(Fr(32, 243), 5) == Fr(2, 3)
    assert poly.fraction_root(Fr(-32, 243), 5) == Fr(-2, 3)
    assert poly.fraction_root(Fr(4, 9), 2) == Fr(2, 3)
    assert poly.fraction_root(Fr(-4, 9), 2) is None
    assert poly.fraction_root(Fr(2, 9), 2) is None
    assert poly.fraction_root(0, 2) == 0


# moduli for the row products: primes and 25, all held in int64
ROW_MODULI = (2, 7, 31, 25, 691)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ROW_MODULI), st.integers(1, 6), st.data())
def test_mul_rows_mod_matches_products(m, f, data):
    residues = st.integers(0, m - 1)
    g = data.draw(st.lists(residues, min_size=f, max_size=f)) + [1]
    a, b = (data.draw(st.lists(st.lists(residues, min_size=f, max_size=f),
                               min_size=1, max_size=5)) for _ in range(2))
    b = (b * len(a))[:len(a)]
    want = [poly.divmod_mod(poly.mul_mod(x, y, m), g, m)[1]
            for x, y in zip(a, b)]
    # int64 or object input rows alike; the kernel computes in int64
    for dtype in (np.int64, object):
        got = poly.mul_rows_mod(np.array(a, dtype=dtype),
                                np.array(b, dtype=dtype), g, m)
        assert got.dtype == np.int64
        assert got.tolist() == want
    # f * m^2 >= 2^63 could overflow int64, so the kernel refuses it
    with pytest.raises(ValueError, match="overflow"):
        poly.mul_rows_mod(a, b, g, 2**61 - 1)


def _sympy_resultant(a, b):
    x = sp.Symbol("x")
    res = sp.resultant(*(sp.Poly([sp.Rational(c.numerator, c.denominator)
                                  for c in f[::-1]], x) for f in (a, b)))
    return Fr(str(res))


@settings(max_examples=200, deadline=None)
@given(rational_polys, rational_polys)
def test_resultant_matches_sympy_over_q(a, b):
    a, b = poly.trim(map(Fr, a)), poly.trim(map(Fr, b))
    assume(a and b)
    if len(a) < len(b):
        a, b = b, a
    got = poly.resultant(a, b)
    assert got == _sympy_resultant(a, b)
    # sympy is the reference only for deg a >= deg b (see above)
    sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    assert poly.resultant(b, a) == sign * got


def test_resultant_examples():
    # Res(x, x^3 + 1) = 1, the Sylvester determinant; Res(x^3 + 1, x) = -1
    assert poly.resultant([0, 1], [1, 0, 0, 1]) == 1
    assert poly.resultant([1, 0, 0, 1], [0, 1]) == -1
    # Res(x^2 - 2, x - 3) = 3^2 - 2 and Res(x - 3, x^2 - 2) = 7 as well
    assert poly.resultant([-2, 0, 1], [-3, 1]) == 7
    assert poly.resultant([-3, 1], [-2, 0, 1]) == 7
    # Res(2x, 3x^2 + 1) = 2^2 * 1 (x = 0 is the root of 2x)
    assert poly.resultant([0, 2], [1, 0, 3]) == 4
    assert poly.resultant([5], [1, 2, 3]) == 25
    assert poly.resultant([], [1, 1]) == 0


@settings(max_examples=100, deadline=None)
@given(rational_polys, rational_polys, rational_polys)
def test_resultant_vanishes_on_common_factor(c, a, b):
    c = poly.trim(c)
    assume(len(c) > 1)
    a, b = poly.mul(c, a), poly.mul(c, b)
    assume(a and b)
    assert poly.resultant(a, b) == 0


# ---------------------------------------------------------------------------
# factorization over F_p; sympy's factor_list is the reference


def _sympy_factor_mod(a, p):
    x = sp.Symbol("x")
    lead, facs = sp.Poly([c % p for c in a[::-1]], x, modulus=p).factor_list()
    return int(lead) % p, [([int(c) % p for c in f.all_coeffs()[::-1]], m)
                           for f, m in facs]


@st.composite
def polys_mod_p(draw):
    """(p, a) with 1 <= deg a <= 12: dense integer polynomials, whose top
    coefficient may vanish mod p, or products of powers of monic factors,
    whose multiplicities may be multiples of p."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return p, draw(st.lists(st.integers(-60, 60), min_size=n + 1,
                                max_size=n + 1))
    a = [draw(st.integers(1, 60))]
    while len(a) <= n:
        d = draw(st.integers(1, min(3, n + 1 - len(a))))
        f = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        e = draw(st.integers(1, (n + 1 - len(a)) // d))
        a = poly.mul(a, poly.power(f + [1], e, [1], poly.mul))
    return p, a


@settings(max_examples=400, deadline=None)
@given(polys_mod_p())
def test_factor_mod_matches_sympy(pa):
    p, a = pa
    lead, facs = poly.factor_mod(a, p)
    want_lead, want = _sympy_factor_mod(a, p)
    prod = [lead]
    for f, e in facs:
        assert f[-1] == 1 and all(0 <= c < p for c in f)
        prod = poly.mul_mod(prod, poly.power(f, e, [1], poly.mul), p)
    assert _mod(prod, p) == _mod(a, p)
    assert sorted(facs) == sorted(want)
    assert (lead, facs) == (want_lead, want)   # sympy's order as well
    blocks = poly.distinct_degree_mod(a, p) if lead else []
    for d, e, g in blocks:
        here = [f for f, m in facs if len(f) - 1 == d and m == e]
        assert g == _mod(_product_mod(here, p), p)
    assert sorted((d, e) for d, e, _ in blocks) == \
        sorted({(len(f) - 1, e) for f, e in facs})


@settings(max_examples=200, deadline=None)
@given(polys_mod_p())
def test_degree_sums_count_multiplicities(pa):
    # the subset sums of the factor degrees, each factor counted as often as
    # it divides a, brute-forced from factor_mod
    p, a = pa
    lead, facs = poly.factor_mod(a, p)
    assume(lead)
    degrees = [len(f) - 1 for f, e in facs for _ in range(e)]
    want = {sum(c) for r in range(len(degrees) + 1)
            for c in itertools.combinations(degrees, r)}
    sums = poly.degree_sums(poly.distinct_degree_mod(a, p))
    assert {k for k in range(sums.bit_length()) if sums >> k & 1} == want


def _product_mod(fs, p):
    out = [1]
    for f in fs:
        out = poly.mul_mod(out, f, p)
    return out


def test_factor_mod_gauss_mod5():
    lead, facs = poly.factor_mod([1, 0, 1], 5)
    assert lead == 1
    assert sorted(f for f, _ in facs) == [[2, 1], [3, 1]]


def test_factor_mod_gauss_mod3_irreducible():
    _, facs = poly.factor_mod([1, 0, 1], 3)
    assert facs == [([1, 0, 1], 1)]


def test_factor_mod_edge_cases():
    # vanishing derivatives: (x^2 + 1)^5 and x^10 + x^5 + 1 = (x^2 + x + 1)^5
    assert poly.factor_mod(poly.power([1, 0, 1], 5, [1], poly.mul), 5) == \
        (1, [([2, 1], 5), ([3, 1], 5)])
    assert poly.factor_mod([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], 5) == \
        (1, [([1, 1, 1], 5)])
    # x^4 + 1 = (x + 1)^4 and x^6 + 1 = ((x + 1)(x^2 + x + 1))^2 mod 2:
    # p-th roots taken twice, and once
    assert poly.factor_mod([1, 0, 0, 0, 1], 2) == (1, [([1, 1], 4)])
    assert poly.factor_mod([1, 0, 0, 0, 0, 0, 1], 2) == \
        (1, [([1, 1], 2), ([1, 1, 1], 2)])
    # not monic, and a top coefficient that vanishes mod p
    assert poly.factor_mod([3, 0, 3], 7) == (3, [([1, 0, 1], 1)])
    assert poly.factor_mod([1, 2, 5], 5) == (2, [([3, 1], 1)])
    # constants
    assert poly.factor_mod([4], 7) == (4, [])
    assert poly.factor_mod([7, 14], 7) == (0, [])
    assert poly.factor_mod([], 3) == (0, [])
    for a, p in (([1, 0, 1], 5), ([3, 0, 3], 7), ([1, 2, 5], 5), ([4], 7)):
        assert poly.factor_mod(a, p) == _sympy_factor_mod(a, p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_PRIMES),
       st.lists(st.integers(-60, 60), min_size=1, max_size=9),
       st.integers(1, 60), st.integers(1, 3))
def test_hensel_lift_matches_factorization(p, low, lead, steps):
    # the coprime parts f^e of a mod p lift to monic g = f^e mod p with
    # lc(a) prod g = a mod p^(2^steps)
    assume(lead % p)
    a = low + [lead]
    m = p ** 2**steps
    parts = [poly.power(f, e, [1], lambda x, y: poly.mul_mod(x, y, p))
             for f, e in poly.factor_mod(a, p)[1]]
    lifted = poly.hensel_lift(a, parts, p, steps)
    assert len(lifted) == len(parts)
    for f, g in zip(parts, lifted):
        assert len(g) == len(f) and g[-1] == 1
        assert all(0 <= c < m for c in g) and _mod(g, p) == _mod(f, p)
    assert _mod(_product_mod([[lead]] + lifted, m), m) == _mod(a, m)


def test_hensel_lift_rejects_common_factors():
    # x^2 = x * x mod 5 is not a coprime factorization
    with pytest.raises(ValueError):
        poly.hensel_lift([0, 0, 1], [[0, 1], [0, 1]], 5)


def test_frobenius_rows_are_pth_powers():
    # past 2^63 / deg g, p^2 would overflow int64 sums: Python ints there
    for g, p in (([1, 1, 0, 1], 2), ([2, 0, 1, 0, 1], 7), ([3, 1], 11),
                 ([5, 0, 3, 1], 2**31 - 1), ([1, 2, 0, 4, 1], 2**61 - 1)):
        rows = poly.frobenius_rows(g, p)
        assert rows.tolist() == [poly.pow_mod([0] * k + [1], p, g, p)
                                 for k in range(len(g) - 1)]


#: the factorization types of the sextic fields' minimal polynomials at 5,
#: 7, 13, 19 and the 30 default sieve primes, in that order ("d^e" for a
#: factor of degree d and multiplicity e > 1)
SEXTIC_TYPES = {
    5: "1 1^5,1 1 4,6,3 3,3 3,1 1 2 2,1 5,3 3,1 5,3 3,1 1 2 2,1 5,3 3,3 3,"
       "1 1 2 2,1 5,1 1 2 2,1 1 2 2,1 5,1 5,1 5,1 1 2 2,1 1 2 2,1 1 2 2,1 5,"
       "1 5,3 3,1 1 2 2,1 1 1 1 1 1,3 3,1 5,3 3,1 1 2 2,1 5",
    6: "1 1^5,6,6,1 5,3 3,3 3,1 5,3 3,3 3,3 3,3 3,1 5,1 1 2 2,1 1 2 2,"
       "1 1 2 2,3 3,1 5,1 5,3 3,3 3,1 5,1 1 2 2,1 5,3 3,3 3,1 5,1 1 2 2,1 5,"
       "3 3,1 1 2 2,1 1 2 2,1 1 2 2,3 3,1 5",
    16: "1 1^5,6,1 1 4,1 1 2 2,1 5,1 5,1 5,1 5,3 3,1 1 2 2,3 3,3 3,3 3,3 3,"
        "3 3,1 5,1 1 2 2,3 3,3 3,1 1 2 2,3 3,1 5,3 3,1 1 2 2,1 1 2 2,3 3,"
        "1 5,1 5,3 3,3 3,3 3,3 3,1 5,3 3",
    22: "1 1^5,6,1 1 4,3 3,1 5,1 1 2 2,3 3,1 5,1 1 2 2,1 5,1 1 2 2,1 5,3 3,"
        "1 5,1 5,1 1 2 2,1 1 2 2,1 1 2 2,3 3,3 3,1 1 2 2,1 5,1 5,1 5,3 3,3 3,"
        "3 3,1 1 2 2,3 3,1 1 2 2,1 1 2 2,1 5,3 3,3 3",
    24: "1 1^5,1 1 4,2 2 2,1 5,1 5,3 3,1 1 2 2,1 5,1 5,1 5,3 3,1 5,1 1 2 2,"
        "3 3,3 3,1 5,1 1 2 2,1 5,1 1 2 2,1 5,1 1 2 2,1 5,1 1 2 2,3 3,1 5,"
        "1 1 2 2,1 5,3 3,3 3,3 3,1 5,1 5,3 3,1 5",
}


def test_sextic_minimal_polynomial_types():
    from gfe25.algebra import coefficient_field
    from gfe25.descent import DEFAULT_SIEVE_PRIMES

    for rep, want in SEXTIC_TYPES.items():
        K = coefficient_field(rep)
        types = [" ".join(f"{len(f) - 1}^{e}" if e > 1 else f"{len(f) - 1}"
                          for f, e in poly.factor_mod(K.min_poly, p)[1])
                 for p in (5, 7, 13, 19) + DEFAULT_SIEVE_PRIMES]
        assert ",".join(types) == want, rep


# ---------------------------------------------------------------------------
# real roots and primes; sympy is the reference

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=9))
def test_count_real_roots_matches_sympy(a):
    a = poly.trim(a)
    assume(a and len(poly.gcd(a, [k * c for k, c in enumerate(a)][1:])) == 1)
    want = sp.Poly(a[::-1], sp.Symbol("x")).count_roots()
    assert poly.count_real_roots(a) == want


def test_count_real_roots_examples():
    assert poly.count_real_roots([7]) == 0
    assert poly.count_real_roots([-2, 0, 1]) == 2
    assert poly.count_real_roots([2, 0, 1]) == 0
    assert poly.count_real_roots([0, -1, 0, 1]) == 3       # x^3 - x
    assert poly.count_real_roots([1, -2, 1]) == 1       # (x - 1)^2, distinct
    assert poly.count_real_roots([Fr(1, 2), 0, 0, 1]) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 3000), st.integers(-5, 3000))
def test_primes_match_sympy(lo, hi):
    assert poly.primes(lo, hi) == list(sp.primerange(lo, hi))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10, 10**10))
def test_is_prime_matches_sympy(n):
    assert poly.is_prime(n) == sp.isprime(n)


def test_is_prime_small_and_squares():
    assert [n for n in range(-3, 60) if poly.is_prime(n)] == \
        list(sp.primerange(0, 60))
    for p in (3, 5, 7, 31, 101, 65521):
        assert not poly.is_prime(p * p) and not poly.is_prime(p * (p + 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12), st.integers(0, 10**5))
def test_prime_factors_match_sympy(n, bound):
    factors, cofactor = poly.prime_factors(n, bound)
    full = sp.factorint(n)
    assert factors == {p: e for p, e in full.items() if p <= bound}
    assert list(factors) == sorted(factors)
    assert cofactor == math.prod(p**e for p, e in full.items() if p > bound)


def test_prime_factors_examples():
    assert poly.prime_factors(1, 10) == ({}, 1)
    assert poly.prime_factors(12, 1) == ({}, 12)
    assert poly.prime_factors(12, 3) == ({2: 2, 3: 1}, 1)
    assert poly.prime_factors(2**10 * 101, 100) == ({2: 10}, 101)
    assert poly.prime_factors(101 * 103, 101) == ({101: 1}, 103)
    assert poly.prime_factors(101**2, 101) == ({101: 2}, 1)
