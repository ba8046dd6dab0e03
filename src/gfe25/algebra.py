"""Number fields, exact element arithmetic, and polynomial factorization.

Factorization over F_p is gfe25.poly's (poly.factor_mod and
poly.distinct_degree_mod).  Factorization over Q is this module's own
(factor_q: degree patterns, then a Hensel lift and recombination where the
patterns leave the factors open), and the types over Q(sqrt5) come from the
factors over Q (see factorization_certificates).  factor_nf, the tests'
reference over number fields, which no stage calls, is the one sympy import.
A field element is held in one form, integer power-basis numerators over
one positive denominator (NFElement), and so are the integral basis and its
inverse.  The maximal order is certified prime by prime with Dedekind's
criterion, from theta and a few stored local generators (maximal_order).

Polynomials at this module's boundaries are ascending coefficient lists.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from importlib import resources

import numpy as np

from . import poly


class ZeroInput(Exception):
    pass


# ---------------------------------------------------------------------------

class NumberField:
    """Q[x]/(min_poly) with the power basis of theta = x."""

    def __init__(self, min_poly, label=""):
        self.min_poly = tuple(int(c) for c in min_poly)
        if self.min_poly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.label = label or f"deg{len(self.min_poly) - 1}"
        self.degree = len(self.min_poly) - 1

    def __repr__(self):
        return f"NumberField({self.label})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    # -- elements ----------------------------------------------------------
    def element(self, coords, den=1):
        """The NFElement (sum_k coords[k] theta^k) / den, for at most degree
        coordinates (ints or Fractions) and a nonzero int den."""
        coords = [c if isinstance(c, int) else Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError(f"{len(coords)} coordinates for {self.label}")
        d = math.lcm(*(c.denominator for c in coords))
        num, den = [c.numerator * d // c.denominator for c in coords], d * den
        g = math.gcd(den, *num) * (1 if den > 0 else -1)
        return NFElement(self, tuple(a // g for a in num)
                         + (0,) * (self.degree - len(num)), den // g)

    @property
    def zero(self):
        return self.element([])

    @property
    def one(self):
        return self.element([1])

    @property
    def gen(self):
        return self.element([0, 1])

    def from_int(self, n):
        return self.element([n])

    # -- invariants --------------------------------------------------------
    @lru_cache(maxsize=None)
    def discriminant(self):
        """disc(T) = (-1)^(n(n-1)/2) Res(T, T') for the monic T = min_poly
        (Cohen, GTM 138, 3.3)."""
        T, n = self.min_poly, self.degree
        res = poly.resultant(T, [k * c for k, c in enumerate(T)][1:])
        return (-1) ** (n * (n - 1) // 2) * int(res)

    # -- numerics ----------------------------------------------------------
    @lru_cache(maxsize=None)
    def embeddings(self):
        """The complex roots of min_poly in double precision, in np.roots
        order; read-only, since every caller shares the cached array."""
        roots = np.roots(np.array(self.min_poly[::-1], dtype=float))
        roots.flags.writeable = False
        return roots


@dataclass(frozen=True)
class NFElement:
    """(sum_k num[k] theta^k) / den in canonical form: den >= 1 and
    gcd(num..., den) = 1, so zero has den 1 and equal elements have equal
    num and den (Cohen, GTM 138, 4.2.1).  NumberField.element builds them."""
    field: NumberField
    num: tuple  # degree ints, ascending powers of theta
    den: int

    @property
    def coords(self):
        """The power-basis coordinates, as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        return self.field.element(
            [a * other.den + b * self.den for a, b in zip(self.num, other.num)],
            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        return self.field.element([other])

    def __mul__(self, other):
        # the integer schoolbook product, reduced by the monic min_poly
        other = self._coerce(other)
        prod = poly.mul(self.num, other.num)
        return self.field.element(poly.divmod(prod, self.field.min_poly)[1],
                                  self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("zero element")
        g, _s, t = poly.gcdext(self.field.min_poly, self.num)
        if len(g) != 1:
            raise ZeroDivisionError("element not invertible (reducible modulus?)")
        # t = 1 / num, already reduced as deg t < deg min_poly
        return self.field.element([self.den * c for c in t])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return poly.power(self, e, self.field.one, NFElement.__mul__)

    # -- predicates --------------------------------------------------------
    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element([other])
        return isinstance(other, NFElement) and self.field == other.field \
            and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    @property
    def is_integral(self):
        """Lies in Z[theta] (all power-basis coordinates integers)."""
        return self.den == 1

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.num[0], self.den)

    # -- invariants --------------------------------------------------------
    def norm(self):
        """Field norm down to Q: Res(min_poly, num) / den^degree."""
        return Fraction(poly.resultant(self.field.min_poly, self.num),
                        self.den ** self.field.degree)

    def coords_mod(self, m):
        """The coordinates reduced into [0, m); ValueError when the
        denominator is not invertible mod m."""
        inv = pow(self.den, -1, m)
        return [a * inv % m for a in self.num]

    def __repr__(self):
        return " + ".join(f"{c}" if i == 0 else f"{c}*t^{i}" if i > 1
                          else f"{c}*t"
                          for i, c in enumerate(self.coords) if c) or "0"


# ---------------------------------------------------------------------------
# named fields

@lru_cache(maxsize=None)
def _fields_data():
    text = resources.files("gfe25").joinpath("data/fields.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def coefficient_field(i):
    """The sextic coefficient field attached to the degree-10 residual form i.

    The twelve irreducible-over-Q(sqrt5) rows share five fields; this maps a
    representative index i in {5, 6, 16, 22, 24} to its field.
    """
    data = _fields_data()["sextics"]
    return NumberField(data[str(i)], label=f"K{i}")


@lru_cache(maxsize=None)
def auxiliary_field(name):
    """'gauss' = Q(i), 'golden' = Q(sqrt5) with integral golden-ratio basis,
    'sqrt5' = Q(sqrt5) pure-radical basis, 'sqrt-5' = Q(sqrt(-5))."""
    return NumberField(_fields_data()["auxiliary"][name], label=name)


# ---------------------------------------------------------------------------
# maximal orders

@dataclass(frozen=True)
class MaximalOrder:
    """O_K as the Z-span of the columns of matrix / denom, in power-basis
    coordinates, an upper-triangular HNF over the least denominator
    (maximal_order builds it from Dedekind certificates); ideals are integer
    matrices in the coordinates of that integral basis."""
    field: NumberField
    matrix: tuple       # n rows of n ints
    denom: int
    inverse: tuple      # n rows of n ints: (matrix / denom)^-1 * inverse_denom
    inverse_denom: int

    def coords(self, elem):
        """Integer coordinates of elem in the integral basis, or None when
        elem is not in O_K."""
        d = self.inverse_denom * elem.den
        out = [sum(a * x for a, x in zip(row, elem.num)) for row in self.inverse]
        return None if any(c % d for c in out) else [c // d for c in out]

    def element(self, coords):
        """The NFElement with the given integral-basis coordinates."""
        return self.field.element(
            [sum(a * int(c) for a, c in zip(row, coords)) for row in self.matrix],
            self.denom)

    @lru_cache(maxsize=None)
    def mult_tab(self):
        """Structure constants: mult_tab()[i][j] holds the coordinates of the
        product of basis elements i and j."""
        n = self.field.degree
        basis = [self.element([int(i == j) for j in range(n)])
                 for i in range(n)]
        return tuple(tuple(tuple(self.coords(a * b)) for b in basis)
                     for a in basis)

    def ideal(self, elems):
        """(HNF, norm) of the ideal the elements of O_K generate: the columns
        of the upper-triangular integer matrix HNF are a Z-basis of it, the
        HNF of the columns of the multiplication matrices sum c_i T_i of the
        elements (Cohen, GTM 138, 2.4.3), and the norm is its determinant."""
        n, tab = self.field.degree, self.mult_tab()
        cols = []
        for elem in elems:
            c = self.coords(elem)
            if c is None:
                raise ValueError(f"{elem!r} is not in the maximal order")
            cols += [[sum(c[i] * tab[i][j][k] for i in range(n))
                      for k in range(n)] for j in range(n)]
        basis = _column_hnf(cols, n)
        if len(basis[0]) != n:
            raise ValueError("the elements generate the zero ideal")
        return basis, math.prod(basis[k][k] for k in range(n))


def _column_hnf(cols, n):
    """The Hermite normal form of the integer columns of length n, as a tuple
    of n rows: upper triangular with n columns when they span a lattice of
    rank n, with fewer otherwise.

    Row by row from the bottom, the Euclidean algorithm on pairs of columns
    leaves one column with the row's gcd, made positive, and zeros to its
    left; the entries to its right in that row are reduced modulo it
    (Cohen, GTM 138, Alg. 2.4.5).  Every step is unimodular, and the form
    is unique, so it does not depend on the order of the columns."""
    cols = [list(c) for c in cols]
    k = len(cols)   # the pivots found so far are in cols[k:]
    for i in range(n - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        pivot = cols[k]
        for j in range(k - 1, -1, -1):
            while cols[j][i]:
                q = pivot[i] // cols[j][i]
                pivot, cols[j] = cols[j], [x - q * y
                                           for x, y in zip(pivot, cols[j])]
        if pivot[i] < 0:
            pivot = [-x for x in pivot]
        cols[k] = pivot
        if pivot[i] == 0:
            k += 1   # no pivot in this row
            continue
        for j in range(k + 1, len(cols)):
            q = cols[j][i] // pivot[i]
            cols[j] = [x - q * y for x, y in zip(cols[j], pivot)]
    return tuple(tuple(c[r] for c in cols[k:]) for r in range(n))


#: For the fields whose Z[theta] fails Dedekind's criterion at p: an alpha_p
#: in O_K with Z[alpha_p] p-maximal, as (power-basis numerators,
#: denominator), keyed by the minimal polynomial and then by p.
#: maximal_order checks each one before it uses it.
_P_MAXIMAL_ELEMENTS = {
    (5, 24, 0, 10, 0, 0, 1): {2: ((-10, -8, -9, -4, 0, -1), 6),      # K5
                              3: ((-14, -9, -11, -6, -1, -1), 6)},
    (-3, -6, 0, 0, 0, -2, 1): {2: ((-4, -3, -3, -2, -1, -1), 2)},     # K6
    (-10, 18, -15, 10, 0, 0, 1): {2: ((-2, 0, -3, -2, -1, 0), 2)},    # K16
    (-4, 12, 0, -10, 0, 3, 1): {2: ((-2, -2, -2, -3, -1, 0), 2)},     # K22
    (5, -6, 0, -10, 0, 0, 1): {3: ((-6, -7, -5, -5, -1, -1), 3)},     # K24
    (-5, 0, 1): {2: ((1, 1), 2)},                                     # sqrt5
}


@lru_cache(maxsize=None)
def maximal_order(K):
    """The maximal order of K, with the least common denominator.

    Z[theta] is p-maximal at every p whose square does not divide disc(T),
    as disc(T) = [O_K : Z[theta]]^2 d_K.  Those p come from trial division
    to B = 2^ceil(bitlen(disc)/3) >= |disc|^(1/3): it leaves a cofactor c
    whose primes all exceed B, so if p^2 | c, then c / p^2 < B and c = p^2,
    a perfect square.  At each p whose square divides disc(T),
    Dedekind's criterion (_dedekind_maximal) decides whether it is.  Where
    it is not, _p_maximal_element(K, p) gives an integral alpha_p with
    Z[alpha_p] p-maximal, certified by the same criterion on the
    characteristic polynomial of alpha_p; it raises ValueError when no stored
    alpha_p passes.

    The Z-module M = Z[theta] + sum_p Z[alpha_p] is then O_K: it lies in
    O_K, as theta and every alpha_p are integral, and at every p it contains
    an order R that is p-maximal.  As R <= M <= O_K, [O_K : M] divides
    [O_K : R], which is prime to p; so the finite index [O_K : M] is prime
    to every p, hence 1.  O_K is the HNF of the columns theta^j and
    alpha_p^j, j < n, over one denominator.
    """
    n, disc = K.degree, abs(K.discriminant())
    factors, c = poly.prime_factors(disc, 1 << -(-disc.bit_length() // 3))
    root = poly.int_root(c, 2)
    if root and root > 1:
        factors[root] = 2
    gens = [K.gen] + [_p_maximal_element(K, p) for p, k in factors.items()
                      if k >= 2 and not _dedekind_maximal(K.min_poly, p)]
    powers = [g**j for g in gens for j in range(n)]
    denom = math.lcm(*(x.den for x in powers))
    matrix = _column_hnf([[a * (denom // x.den) for a in x.num]
                          for x in powers], n)
    g = math.gcd(denom, *itertools.chain(*matrix))
    # (matrix / denom)^-1 = denom * matrix^-1
    return MaximalOrder(
        K, tuple(tuple(x // g for x in row) for row in matrix), denom // g,
        *_integer_inverse(matrix, denom))


def _dedekind_maximal(T, p):
    """Whether Z[x]/(T) is p-maximal, for a monic integer T, by Dedekind's
    criterion (Cohen, GTM 138, Thm 6.1.4): with T = prod g_i^e_i mod p,
    g = prod g_i, h = prod g_i^(e_i - 1) and F = (T - g h) / p, it is iff
    gcd(F, g, h) = 1 mod p."""
    facs = poly.factor_mod(T, p)[1]
    g = reduce(poly.mul, [f for f, _ in facs], [1])
    h = reduce(poly.mul, [f for f, e in facs for _ in range(e - 1)], [1])
    F = [c // p for c in poly.add(T, [-c for c in poly.mul(g, h)])]
    return len(poly.gcd_mod(poly.gcd_mod(F, g, p), h, p)) == 1


def _p_maximal_element(K, p):
    """The stored alpha_p of K, once its characteristic polynomial is shown
    to be integral (so alpha_p is in O_K), squarefree (so Q(alpha_p) = K)
    and p-maximal by Dedekind's criterion; ValueError otherwise, or when K
    has no alpha_p at p."""
    stored = _P_MAXIMAL_ELEMENTS.get(K.min_poly, {}).get(p)
    if stored is None:
        raise ValueError(f"Z[theta] is not {p}-maximal in {K.label}, "
                         f"and no alpha_{p} is stored for it")
    alpha = K.element(*stored)
    chi = _charpoly(alpha)
    if any(c.denominator != 1 for c in chi):
        raise ValueError(f"alpha_{p} of {K.label} is not integral")
    chi = [int(c) for c in chi]
    if len(poly.gcd(chi, [k * c for k, c in enumerate(chi)][1:])) != 1:
        raise ValueError(f"alpha_{p} of {K.label} does not generate it")
    if not _dedekind_maximal(chi, p):
        raise ValueError(f"Z[alpha_{p}] is not {p}-maximal in {K.label}")
    return alpha


def _charpoly(a):
    """The characteristic polynomial of a over Q, ascending Fractions, by
    Newton's identities from the traces of a, a^2, ..., a^n:
    k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) Tr(a^i)."""
    n, sums = a.field.degree, _power_sums(a.field.min_poly, a.field.degree)
    traces, x = [], a.field.one
    for _ in range(n):
        x = x * a
        traces.append(Fraction(sum(c * s for c, s in zip(x.num, sums)), x.den))
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1]
                     for i in range(1, k + 1)) / k)
    return [(-1) ** (n - j) * e[n - j] for j in range(n + 1)]


def _integer_inverse(rows, scale=1):
    """(A, d) with A / d = scale * rows^-1 for an invertible integer matrix:
    A an integer matrix and d >= 1 with no common factor.  Gauss-Jordan
    elimination over Q."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        r = next((r for r in range(c, n) if aug[r][c]), None)
        if r is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[r] = aug[r], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    d = math.lcm(*(x.denominator for row in aug for x in row[n:]))
    A = [[int(x * d) * scale for x in row[n:]] for row in aug]
    g = math.gcd(d, *itertools.chain(*A))
    return tuple(tuple(x // g for x in row) for row in A), d // g


# ---------------------------------------------------------------------------
# factorization over Q (Musser's degree patterns, then Zassenhaus)

#: the usable primes whose degree patterns are read before the factors are
#: lifted, and the primes tried before a squarefree test over Q
_PATTERN_PRIMES = 4


def factor_q(coeffs):
    """Factor over Q: (content, [(f, m)]) with coeffs (ints or Fractions,
    ascending) = content * prod f^m, the f distinct primitive irreducible
    integer polynomials with positive leading coefficient, sorted by degree,
    then multiplicity, then the coefficients from the top, as sympy sorts
    them; (0, []) for the zero polynomial."""
    content, factors, _ = _factorization(coeffs)
    return content, factors


def _factorization(coeffs):
    """factor_q's content and factors, and the degree patterns read on the
    way: a dict from each squarefree part (a tuple) to the blocks
    poly.distinct_degree_mod(part, p) at every prime p it visited.

    The squarefree parts are split off first (_squarefree_parts); each is
    then factored by _factor_squarefree."""
    coeffs = poly.trim(coeffs)
    if not coeffs:
        return Fraction(0), [], {}
    content, f = _primitive(coeffs)
    patterns, factors = {}, []
    for e, part in _squarefree_parts(f, patterns.setdefault(tuple(f), {})):
        known = patterns.setdefault(tuple(part), {})
        factors += [(g, e) for g in _factor_squarefree(part, known)]
    factors.sort(key=lambda fe: (len(fe[0]), fe[1], fe[0][::-1]))
    return content, factors, patterns


def _primitive(coeffs):
    """(c, f): the rational c with f = coeffs / c primitive in Z[x] with a
    positive leading coefficient, for nonzero coeffs."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    num = [int(c * den) for c in coeffs]
    g = math.gcd(*num) * (1 if num[-1] > 0 else -1)
    return Fraction(g, den), [x // g for x in num]


def _patterns_at(f, known):
    """(p, blocks) at the primes p not dividing lc(f), in increasing order,
    with blocks = poly.distinct_degree_mod(f, p), each computed once and kept
    in known."""
    for p in itertools.count(2):
        if f[-1] % p and poly.is_prime(p):
            if p not in known:
                known[p] = poly.distinct_degree_mod(f, p)
            yield p, known[p]


def _squarefree_parts(f, known):
    """[(e, part)] with f = prod part^e for a primitive f with positive
    leading coefficient, the parts primitive, squarefree and pairwise
    coprime, with positive leading coefficients.

    A prime p not dividing lc(f) at which f is squarefree mod p proves f
    squarefree.  After _PATTERN_PRIMES such primes without one, the
    squarefree decomposition over Q decides (Yun's algorithm, as in
    poly._squarefree_mod, whose p-th roots characteristic 0 does not
    need)."""
    if len(f) < 3:
        return [(1, f)] if len(f) == 2 else []
    for _, blocks in itertools.islice(_patterns_at(f, known), _PATTERN_PRIMES):
        if all(e == 1 for _, e, _ in blocks):
            return [(1, f)]
    out = []
    c = poly.gcd(f, [k * x for k, x in enumerate(f)][1:])
    w, e = poly.divmod(f, c)[0], 1
    while len(w) > 1:
        y = poly.gcd(w, c)
        if len(w) > len(y):
            out.append((e, _primitive(poly.divmod(w, y)[0])[1]))
        w, c, e = y, poly.divmod(c, y)[0], e + 1
    return out


def _factor_squarefree(f, known):
    """The irreducible factors of a primitive squarefree f with positive
    leading coefficient (Musser, "On the efficiency of a polynomial
    irreducibility test", JACM 25, 1978; Cohen, GTM 138, 3.5).

    At each usable prime p (not dividing lc(f), f squarefree mod p) the
    degrees of the factors mod p are a pattern, and the degree of every
    factor of f over Q is a sum of a sub-multiset of it.  The sets of such
    sums are intersected over the usable primes in increasing order; {0, n}
    proves f irreducible.  Otherwise the prime with the fewest factors is
    chosen after _PATTERN_PRIMES usable primes, or at once where there are
    at most two, and _recombine decides."""
    n = len(f) - 1
    if n < 2:
        return [f]
    allowed, best, usable = (1 << n + 1) - 1, None, 0
    for p, blocks in _patterns_at(f, known):
        if any(e > 1 for _, e, _ in blocks):
            continue
        allowed &= poly.degree_sums(blocks)
        if allowed == 1 | 1 << n:
            return [f]
        usable += 1
        count = sum((len(g) - 1) // d for d, _, g in blocks)
        if best is None or count < best[0]:
            best = count, p
        if count <= 2 or usable == _PATTERN_PRIMES:
            return _recombine(f, best[1], known[best[1]], allowed)


def _recombine(f, p, blocks, allowed):
    """The irreducible factors of a primitive squarefree f with positive
    leading coefficient, by Zassenhaus's recombination (Cohen, GTM 138,
    Alg. 3.5.7) of the factors mod p, where f is squarefree mod p and p does
    not divide lc(f), and blocks is poly.distinct_degree_mod(f, p); allowed
    has bit d set for every degree d that a factor may have.

    Let f = g h over Z with g of degree m < n.  Then (lc(f) / lc(g)) g has
    coefficients of absolute value at most binomial(m, j) M(f) <= B =
    binomial(n - 1, (n - 1) // 2) ||f||_2 (Mignotte's bound, M the Mahler
    measure), and it is lc(f) times the product of the lifts of g's factors
    mod p.  So the factors are lifted to q > 2B (poly.hensel_lift) and each
    subset S of s lifted factors, s = 1, 2, ..., whose degrees sum to an
    allowed degree gives the candidate lc(f) prod_S g_j mod q, in
    (-q/2, q/2], whose primitive part h is a factor iff it divides f, and by
    Gauss's lemma, as h is primitive, iff f / h is in Z[x].  A found
    factor and its subset are divided out.  Once 2s exceeds the number of
    factors left, what is left of f is irreducible, since a factor of it
    would have a cofactor with at most s - 1 of them, and those were all
    tried."""
    n = len(f) - 1
    bound = 2 * math.comb(n - 1, (n - 1) // 2) \
        * (math.isqrt(sum(c * c for c in f)) + 1)
    steps = 1
    while p ** 2**steps <= bound:
        steps += 1
    q = p ** 2**steps
    gs = poly.hensel_lift(f, [h for d, _, g in blocks
                              for h in poly.equal_degree_mod(g, d, p)],
                          p, steps)
    factors, s = [], 1
    while 2 * s <= len(gs):
        for subset in itertools.combinations(range(len(gs)), s):
            if not allowed >> sum(len(gs[j]) - 1 for j in subset) & 1:
                continue
            h = [f[-1]]
            for j in subset:
                h = poly.mul_mod(h, gs[j], q)
            h = _primitive([c - q if 2 * c > q else c for c in h])[1]
            quo = poly.quotient_z(f, h)
            if quo is None:
                continue
            factors.append(h)
            f = quo
            gs = [g for j, g in enumerate(gs) if j not in subset]
            break
        else:
            s += 1
    return factors + [f]


def factor_nf(coeffs, K):
    """Factor a polynomial with rational coefficients (ascending) over the
    number field K with sympy (Trager's algorithm), which no stage uses; the
    tests read it as a reference.  Returns (leading NFElement, [(list of
    NFElement coeffs ascending, mult)]); factors are monic.  The package's
    one sympy import, which the test extra supplies."""
    import sympy as sp
    from sympy.polys.factortools import dup_ext_factor

    # any fixed root works; factorization data is root-independent
    x = sp.Symbol("x")
    dom = sp.QQ.algebraic_field(sp.CRootOf(sp.Poly(K.min_poly[::-1], x), 0))
    f = [dom.convert(sp.Rational(c.numerator, c.denominator))
         for c in map(Fraction, reversed(poly.trim(coeffs)))]
    lead, facs = dup_ext_factor(f, dom)

    def to_nf(anp):
        return K.element([Fraction(int(c.numerator), int(c.denominator))
                          for c in reversed(anp.to_list())])
    return to_nf(lead), [([to_nf(a) for a in reversed(g)], m)
                         for g, m in facs]


INERT_PRIME_BOUND = 100


def factorization_certificates(i, field="Q"):
    """(type, certificates): the type is the degree multiset of h_i over Q
    ("Q") or Q(sqrt5) ("golden"), homogeneous convention (the
    12 - deg(h_i(x,1)) roots at infinity count as linear factors); the
    certificates are those of _golden_factorization over "golden" and none
    over "Q".

    Over Q(sqrt5) the type is read off the factors g of h_i(x, 1) over Q,
    without factoring over the number field (_golden_split):

    * A Q-irreducible g of degree d is either irreducible over a quadratic
      field or the product g1 * conj(g1) of two conjugate factors of degree
      d/2.  So an odd d stays irreducible.
    * An inert prime p = +-2 mod 5 has residue field F_p^2, on which
      conjugation acts as Frobenius.  Let p not divide lead(g), and let
      g mod p be squarefree with an irreducible factor phi of odd degree
      over F_p.  phi stays irreducible over F_p^2 and is fixed by Frobenius.
      If g = g1 * conj(g1), phi would divide both g1 and conj(g1) mod p, so
      phi^2 would divide g mod p.  Hence g is irreducible.
    * Otherwise take the first k >= 1 at which the norm
      N(x) = g(x + k sqrt5) g(x - k sqrt5) in Z[x] is squarefree.  Each
      factor of g over Q(sqrt5) of degree e then gives one Q-factor of N of
      degree 2e (Trager, "Algebraic factoring and rational function
      integration", SYMSAC 1976), so the degrees of g are half those of N's
      factors.
    """
    from .bforms import edwards_triple

    if field not in ("Q", "golden"):
        raise ValueError(f"unsupported field {field!r}")
    coeffs = poly.trim(edwards_triple(i).h.coeffs)  # those of h(x, 1)
    at_infinity = [1] * (13 - len(coeffs))
    if field == "golden":
        degrees, certificates = _golden_factorization(coeffs)
    else:
        degrees = [len(g) - 1 for g, m in factor_q(coeffs)[1] for _ in range(m)]
        certificates = []
    return sorted(at_infinity + degrees), certificates


def _golden_factorization(coeffs):
    """(sorted degrees of the irreducible factors over Q(sqrt5), counted
    with multiplicity, certificates) of a nonzero rational polynomial; the
    certificates give, for each Q-factor g, its degree, its multiplicity
    and how _golden_split decided it."""
    degrees, certificates = [], []
    _, factors, patterns = _factorization(coeffs)
    for g, m in factors:
        split, how = _golden_split(g, patterns.get(tuple(g), {}))
        degrees += split * m
        certificates.append({"degree": len(g) - 1, "multiplicity": m,
                             "certificate": how})
    return sorted(degrees), certificates


def _golden_split(g, known):
    """(degrees of the irreducible factors over Q(sqrt5), certificate) of
    the Q-irreducible primitive integer polynomial g, by the three cases of
    factorization_certificates: "odd_degree", {"inert_prime": p} for the
    least inert p below INERT_PRIME_BOUND that certifies irreducibility, or
    {"norm_shift": k, "norm_factor_degrees": [...]}.  known holds the blocks
    of g that factoring over Q computed, {p: poly.distinct_degree_mod(g, p)},
    and they are not computed again."""
    d = len(g) - 1
    if d % 2:
        return [d], "odd_degree"
    for p in poly.primes(2, INERT_PRIME_BOUND):
        if p % 5 not in (2, 3) or g[-1] % p == 0:
            continue
        blocks = known[p] if p in known else poly.distinct_degree_mod(g, p)
        if all(e == 1 for _, e, _ in blocks) \
                and any(k % 2 for k, _, _ in blocks):
            return [d], {"inert_prime": p}
    for k in itertools.count(1):
        facs = factor_q(_shifted_norm(g, k))[1]
        if all(m == 1 for _, m in facs):
            norm_degrees = sorted(len(f) - 1 for f, _ in facs)
            return [e // 2 for e in norm_degrees], \
                {"norm_shift": k, "norm_factor_degrees": norm_degrees}


def _shifted_norm(g, k):
    """g(x + k sqrt5) g(x - k sqrt5) = A^2 - 5 B^2 for the integer
    polynomial g, where g(x + k sqrt5) = A + B sqrt5 with A, B in Z[x]."""
    A, B = [0] * len(g), [0] * len(g)
    for n, c in enumerate(g):
        for j in range(n + 1):
            # (k sqrt5)^j = k^j 5^(j//2), times sqrt5 when j is odd
            (B if j % 2 else A)[n - j] += c * math.comb(n, j) * k**j * 5**(j // 2)
    return poly.add(poly.mul(A, A), [-5 * c for c in poly.mul(B, B)])


# ---------------------------------------------------------------------------
# residue fields

class Fq:
    """F_{p^f} = F_p[y]/(g) for monic g, with elements as integer rows of f
    residues mod p (ascending)."""

    def __init__(self, p, modpoly):
        self.p = p
        self.modpoly = tuple(int(c) % p for c in modpoly)
        if self.modpoly[-1] != 1:
            raise ValueError(f"modulus {list(modpoly)} is not monic mod {p}")
        self.f = len(self.modpoly) - 1
        self.q = p**self.f

    def reduce(self, elem):
        """The image in F_q, as a row, of an element of a field whose minimal
        polynomial g divides mod p; ValueError when p divides a denominator."""
        p = self.p
        return poly.divmod_mod(elem.coords_mod(p), self.modpoly, p)[1]

    def fifth_power_class(self, a):
        """fifth_power_classes of the one row a."""
        return int(self.fifth_power_classes([a])[0])

    def fifth_power_classes(self, rows):
        """The class 0..4 of every row a of an (n, f) integer array, as an
        int64 array; 0 iff a is a fifth power in F_q^x.  For p = 1 mod 5
        only, where mu_5 lies in F_p: ValueError at any other p.

        There a^((q-1)/5) = N(a)^((p-1)/5) for the norm
        N(a) = a * a^p * ... * a^(p^(f-1)) in F_p, the product of the
        Frobenius conjugates, each the previous one times the Frobenius
        matrix; the class is _fifth_power_labels(p) at N(a).
        """
        p, g = self.p, self.modpoly
        if p % 5 != 1:
            raise ValueError(f"fifth-power classes need p = 1 mod 5, "
                             f"not p = {p}")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.f) % p
        frob = self._frobenius_matrix()
        norm, conj = rows, rows
        for _ in range(self.f - 1):
            conj = conj @ frob % p
            norm = poly.mul_rows_mod(norm, conj, g, p)
        if (norm[:, 0] == 0).any():  # N(a) = 0 only for a = 0
            raise ZeroInput("fifth_power_classes of zero")
        return _fifth_power_labels(p)[norm[:, 0]]

    @lru_cache(maxsize=None)
    def _frobenius_matrix(self):
        """M with a^p = a @ M for a row a: row k holds (y^k)^p; read-only."""
        rows = poly.frobenius_rows(self.modpoly, self.p)
        rows.flags.writeable = False
        return rows

    def __hash__(self):
        return hash((self.p, self.modpoly))

    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.modpoly) == (other.p, other.modpoly)


@lru_cache(maxsize=None)
def _fifth_power_labels(p):
    """For p = 1 mod 5: the int64 array whose entry n, for n in F_p^x, is the
    k with n^((p-1)/5) = zeta^k mod p, where zeta = c^((p-1)/5) for the least
    c with c^((p-1)/5) != 1 (so c has class 1); entry 0 is unused."""
    e = (p - 1) // 5
    chars = [pow(n, e, p) for n in range(p)]
    zeta = next(x for x in chars[1:] if x != 1)
    label = {pow(zeta, k, p): k for k in range(5)}
    labels = np.array([label.get(x, 0) for x in chars], dtype=np.int64)
    labels.flags.writeable = False  # every field at p shares the array
    return labels


@lru_cache(maxsize=None)
def residue_split(K, p):
    """The residue fields of K at p, one Fq per monic irreducible factor of
    K's minimal polynomial mod p, in poly.factor_mod's order; cached, since
    it depends only on K and p."""
    facs = poly.factor_mod(K.min_poly, p)[1]
    if sum((len(g) - 1) * e for g, e in facs) != K.degree:
        raise ArithmeticError(f"local factors mod {p} do not multiply up "
                              f"to the degree of {K.label}")
    return tuple(Fq(p, g) for g, _ in facs)


# ---------------------------------------------------------------------------
# fifth roots in number fields

FIFTH_ROOT_PRIME_BOUND = 1000


def nf_fifth_root(x):
    """The w in K with w^5 = x, or None, which proves that x is not a fifth
    power in K.

    If w^5 = x, then W = s*w lies in Z[theta], for s the denominator of the
    maximal order times that of x, and W^5 = B := s^5*x.  At the prime p of
    _fifth_root_prime, W = B^e mod p with 5e = 1 mod L, and its Hensel lift
    mod p^k is unique (Cohen, GTM 138, 3.5 and 4.2).  Once p^k exceeds twice
    _fifth_root_bound, the symmetric residue of the lift is W if W exists, so
    a candidate failing the exact check proves None; so does a norm that is
    not a rational fifth power, since N(w)^5 = N(x).  Raises ArithmeticError
    when K has no usable prime below FIFTH_ROOT_PRIME_BOUND.
    """
    K = x.field
    if not x:
        return K.zero
    norm = x.norm()
    if poly.fraction_root(norm, 5) is None:
        return None
    s = maximal_order(K).denom * x.den
    B = [a * (s**5 // x.den) for a in x.num]
    T = K.min_poly
    p, L = _fifth_root_prime(K, norm * s**(5 * K.degree))
    bound = 2 * _fifth_root_bound(K, B)
    W = poly.pow_mod(B, pow(5, -1, L), T, p)
    # (5 W^4)^(L-1) is the inverse of 5 W^4 mod p, as u^L = 1 on the units
    c = poly.pow_mod([5 * a for a in poly.pow_mod(W, 4, T, p)], L - 1, T, p)
    q = p
    while True:
        cand = K.element([w - q if 2 * w > q else w for w in W], s)
        if cand**5 == x:
            return cand
        if q > bound:
            return None
        # W^5 = B mod q; correct W by q*t with t = c * (W^5 - B)/q mod p
        err = [(a - b) % (q * p) // q
               for a, b in zip(poly.pow_mod(W, 5, T, q * p), B)]
        t = poly.divmod_mod(poly.mul_mod(c, err, p), T, p)[1]
        W = [(w - q * a) % (q * p) for w, a in zip(W, t)]
        q *= p


def _fifth_root_prime(K, norm):
    """(p, L) for the least prime 7 <= p < FIFTH_ROOT_PRIME_BOUND that divides
    neither disc(T) nor the integer norm, and at which no local degree f has
    p^f = 1 mod 5; L is the lcm of the p^f - 1, the exponent of
    (Z[theta]/p)^x, which 5 then does not divide."""
    disc = K.discriminant()
    for p in poly.primes(7, FIFTH_ROOT_PRIME_BOUND):
        if disc % p == 0 or norm % p == 0:
            continue
        orders = [fq.q - 1 for fq in residue_split(K, p)]
        if all(o % 5 for o in orders):
            return p, math.lcm(*orders)
    raise ArithmeticError(f"no prime below {FIFTH_ROOT_PRIME_BOUND} makes "
                          f"fifth roots unique modulo p in {K.label}")


def _fifth_root_bound(K, B):
    """An integer C with |W_k| <= C for the coordinates of every W in
    Z[theta] with W^5 = B.

    Every conjugate of theta has modulus at most R = 1 + max|T_i| (Cauchy),
    so every conjugate of B at most S = sum |b_k| R^k and every conjugate of
    W at most 2^ceil(bitlen(S)/5).  The coordinates of W are
    M^-1 (Tr(W theta^j))_j for the trace form M, and
    |Tr(W theta^j)| <= n max|sigma(W)| R^j."""
    R = 1 + max(abs(c) for c in K.min_poly[:-1])
    S = sum(abs(b) * R**k for k, b in enumerate(B))
    top = K.degree * 2**(-(-S.bit_length() // 5))
    A, d = _trace_form_inverse(K)
    return -(-max(sum(abs(m) * top * R**j for j, m in enumerate(row))
                  for row in A) // d)


@lru_cache(maxsize=None)
def _trace_form_inverse(K):
    """(A, d) with A / d = M^-1 for the trace form M_jk = Tr(theta^(j+k))."""
    n, sums = K.degree, _power_sums(K.min_poly, 2 * K.degree - 1)
    return _integer_inverse([[sums[j + k] for k in range(n)] for j in range(n)])


def _power_sums(T, count):
    """The power sums Tr(theta^m) = sum of the m-th powers of the roots of the
    monic integer polynomial T, for 0 <= m < count, by Newton's identities."""
    n = len(T) - 1
    sums = [n]
    for m in range(1, count):
        acc = sum(T[n - i] * sums[m - i] for i in range(1, min(m - 1, n) + 1))
        sums.append(-acc - (m * T[n - m] if m <= n else 0))
    return sums
