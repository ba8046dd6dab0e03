"""Reductions of the parameterized curves to explicit auxiliary equations.

Four pipelines, one per factorization family of the degree-12 forms:

* Klein splitting: when h_i has two rational linear factors, pull them out,
  read off the (A, B, C) bracket, determine the finite set of twist scalars
  alpha, and derive the two Y^2 = X^5 + gamma curves together with the maps
  back to (u : v).
* Gaussian descent: when h_i has a quadratic factor splitting over Z[i],
  build the degree-10 hyperelliptic models M_i from the bracket data and invert
  points back to the two coefficient equations over Z.
* Real-quadratic descent: the unit-twisted fifth-power expansions over
  Z[(1+sqrt5)/2] and the resulting genus-4 curves D_j, plus the gcd analysis
  that turns their rational points into coprime (u, v) solutions.
* Sextic splitting and unit sieve: over each coefficient sextic field, split
  h_i into a quadratic times a primitive degree-10 form H_i and sieve the
  125 unit classes that could twist H_i(u, v) = unit * w^5.

Every splitting identity is verified by exact polynomial arithmetic; one
that does not hold, or a certificate that cannot be found, raises
DerivationFailed.
"""

import itertools
import json
import math
import os
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from . import padic, poly
from .algebra import (ZeroInput, auxiliary_field, coefficient_field,
                      maximal_order, residue_split)
from .bforms import BinaryForm, binary_resultant, edwards_triple, transform
from .search import HyperellipticModel, InfinitePoint


class DerivationFailed(Exception):
    """An identity, split or certificate of the descent does not hold."""


class BadUnitData(Exception):
    pass


class IndexRisk(Exception):
    pass


RATIONAL_SPLIT_INDICES = (1, 20, 25)
GAUSS_INDICES = (3, 4, 12, 17, 18, 27)
SEXTIC_INDICES = (5, 6, 8, 9, 13, 14, 15, 16, 21, 22, 23, 24)

# which labeled sextic field each index splits over
FIELD_REP = {5: 5, 9: 5, 13: 5, 6: 6, 23: 6, 8: 16, 14: 16, 16: 16,
             22: 22, 15: 24, 21: 24, 24: 24}

# witness pairs (u, v) realizing the surviving unit class of each sextic
# index, and the sextic indices where no unit class survives
SIEVE_WITNESSES = {22: (1, 0), 6: (0, 1), 23: (0, 1), 24: (1, 0),
                   5: (0, 1), 13: (0, 1), 14: (1, -1), 16: (0, 1)}
SIEVE_EMPTY = tuple(i for i in SEXTIC_INDICES if i not in SIEVE_WITNESSES)

ROOT_PAIRS = {
    1: (BinaryForm(1, (0, 1)), BinaryForm(1, (1, 0))),      # u, v
    20: (BinaryForm(1, (0, 1)), BinaryForm(1, (1, 0))),     # u, v
    25: (BinaryForm(1, (-1, 1)), BinaryForm(1, (1, 1))),    # u-v, u+v
}


# ---------------------------------------------------------------------------
# Klein splitting and the genus-2 reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KleinSplit:
    l1: BinaryForm
    l2: BinaryForm
    A: Fraction
    B: Fraction
    C: Fraction
    scale: Fraction
    b11_observed: tuple  # ((B/11)^2, A*C), recorded, never asserted


def _linear_parts(linear):
    """(a, b) with linear = a*u + b*v."""
    return linear.coeffs[1], linear.coeffs[0]


def klein_split(h, root_pair, name="h"):
    """Split h = scale * l1 * l2 * (A l1^10 + B l1^5 l2^5 + C l2^10); a
    DerivationFailed names h as name."""
    l1, l2 = root_pair
    a1, b1 = _linear_parts(l1)
    a2, b2 = _linear_parts(l2)
    det = Fraction(a1) * b2 - Fraction(b1) * a2
    if det == 0:
        raise ValueError("root pair is degenerate")
    # coordinates (s, t) = (l1, l2); substitute the inverse map
    ht = transform(h, ((b2 / det, -b1 / det), (-a2 / det, a1 / det)))
    if ht.coeff(0) != 0 or ht.coeff(12) != 0:
        raise DerivationFailed(f"designated linear forms do not divide {name}")
    for k in range(2, 11):
        if k != 6 and ht.coeff(k) != 0:
            raise DerivationFailed(
                f"unexpected s^{k} t^{12 - k} term in {name}")
    raw = [Fraction(ht.coeff(11)), Fraction(ht.coeff(6)), Fraction(ht.coeff(1))]
    content = Fraction(math.gcd(*(c.numerator for c in raw)),
                       math.lcm(*(c.denominator for c in raw)))
    scale = content if raw[0] > 0 else -content
    A, B, C = (c / scale for c in raw)
    rebuilt = (l1 * l2 * ((l1**10).scale(A) + (l1**5 * l2**5).scale(B)
                          + (l2**10).scale(C))).scale(scale)
    if any(Fraction(x) != Fraction(y) for x, y in zip(rebuilt.coeffs, h.coeffs)):
        raise DerivationFailed(f"product identity failed for {name}")
    return KleinSplit(l1, l2, A, B, C, scale, ((B / 11) ** 2, A * C))


def rational_split(i):
    """Klein split of h_i for the three rational indices."""
    if i not in RATIONAL_SPLIT_INDICES:
        raise ValueError(f"i={i} has no rational Klein split")
    return klein_split(edwards_triple(i).h, ROOT_PAIRS[i], f"h_{i}")


def _absorbed(split):
    """(A', B', C') with -h = l1 l2 (A' l1^10 + B' l1^5 l2^5 + C' l2^10)."""
    s = -split.scale
    return split.A * s, split.B * s, split.C * s


def _cofactor_form(split):
    A2, B2, C2 = _absorbed(split)
    l1, l2 = split.l1, split.l2
    return ((l1**10).scale(A2) + (l1**5 * l2**5).scale(B2)
            + (l2**10).scale(C2)).map_coeffs(lambda c: int(Fraction(c)))


def alpha_candidates(i, split=None):
    """The finite set of twist scalars compatible with the local data.

    Candidates are signed {2,3}-smooth numbers with exponents below 5.  For
    each small prime the admissible exponent is read off from the valuation
    of the cofactor on the surviving residue classes; since the split only
    pins the parameter line up to the sign re-parameterisation
    (u, v) -> (u, -v), both presentations are profiled and the smaller
    exponent is kept.  A fifth-power-residue check mod 25 is applied last.
    """
    if i not in RATIONAL_SPLIT_INDICES:
        raise ValueError(f"i={i} is not one of the rational-split indices")
    if split is None:
        split = rational_split(i)
    support = set()
    for n in (split.scale.numerator, split.scale.denominator,
              int(binary_resultant(split.l1, split.l2))):
        support |= set(poly.prime_factors(abs(n), abs(n))[0])
    support = sorted(support)
    G = _cofactor_form(split)
    allowed = {}
    for p in (2, 3):
        if p not in support:
            continue
        classes = padic.sieve_residue_classes(i, p).classes
        mirrored = [padic.ResidueClass(c.unit_slot, c.modulus,
                                       (-c.residue) % c.modulus)
                    for c in classes]
        depth = padic.DEFAULT_DEPTH[p] + 3
        vals = set()
        for cover in (classes, mirrored):
            prof = padic.valuation_profile(G, p, cover, depth)
            vals |= {w % 5 for w, det in prof if det}
        allowed[p] = {min(vals)} if vals else set(range(5))
    classes25 = padic.five_adic_classes(i)
    pairs25 = [uv for cls in classes25 for uv in cls.pair_mod(25)]
    fifth_powers25 = padic.FIFTH_POWER_UNITS_MOD25 | {0}
    out = set()
    for exps in itertools.product(range(5), repeat=len(support)):
        if any(p in allowed and e % 5 not in allowed[p]
               for p, e in zip(support, exps)):
            continue
        cand = math.prod(p**e for p, e in zip(support, exps))
        inv = pow(cand, -1, 25)
        if not any(G.evaluate(u, v) * inv % 25 in fifth_powers25
                   for (u, v) in pairs25):
            continue
        out.add(cand)
    return out


def _tenth_free(n):
    """(m, T) with n = m * T^10 and m free of 10th-power factors; a prime p
    with p^10 | n has p <= |n|^(1/10), so trial division stops there."""
    sign = -1 if n < 0 else 1
    T = 1
    bound = 1 << -(-abs(n).bit_length() // 10)
    for p, e in poly.prime_factors(abs(n), bound)[0].items():
        T *= p ** (e // 10)
    return sign * (abs(n) // T**10), T


def _side_data(split, alpha):
    """Per-side reduction data: (lead, m, gamma, T, t_num, t_den)."""
    A2, B2, C2 = _absorbed(split)
    D = B2 * B2 - 4 * A2 * C2
    out = []
    for lead, t_num, t_den in ((A2, split.l1, split.l2),
                               (C2, split.l2, split.l1)):
        m = 4 * alpha * lead
        gamma, T = _tenth_free(int(m**4 * D))
        out.append((lead, m, gamma, T, t_num, t_den))
    return out, B2


def genus2_models(split, alpha):
    """The two reduced curves Y^2 = X^5 + gamma."""
    sides, _ = _side_data(split, alpha)
    return tuple(HyperellipticModel((g, 0, 0, 0, 0, 1))
                 for (_, _, g, _, _, _) in sides)


def _normalized_pair(u, v):
    u, v = Fraction(u), Fraction(v)
    den = math.lcm(u.denominator, v.denominator)
    iu, iv = int(u * den), int(v * den)
    g = math.gcd(iu, iv)
    if g:
        iu, iv = iu // g, iv // g
    if iu < 0 or (iu == 0 and iv < 0):
        iu, iv = -iu, -iv
    return iu, iv


def genus2_back_substitute(split, alpha, point):
    """(u, v) behind a point on one of the reduced curves, or None."""
    sides, B2 = _side_data(split, alpha)
    if isinstance(point, InfinitePoint):
        a2, b2 = _linear_parts(split.l2)
        return _normalized_pair(-b2, a2)
    X, Y = Fraction(point.x), Fraction(point.y)
    for lead, m, gamma, T, t_num, t_den in sides:
        if Y * Y != X**5 + gamma:
            continue
        Yo = Y * T**5 / m**2
        t = poly.fraction_root((Yo - B2) / (2 * lead), 5)
        if t is None:
            return None  # the point does not lift
        an, bn = _linear_parts(t_num)
        ad, bd = _linear_parts(t_den)
        return _normalized_pair(-(bn - t * bd), an - t * ad)
    raise ValueError("point lies on neither reduced model")


# ---------------------------------------------------------------------------
# Gaussian descent
# ---------------------------------------------------------------------------

# per index: ascending (v^2, uv, u^2) coefficients of Re/Im, the scalars
# (gamma, alpha, beta), and the square-root form S
_GAUSS_TABLE = {
    3: ((1, 0, 3), (0, 0, 6), (3, 2, -1), (0, 6, 0)),
    4: ((1, 0, -3), (0, 0, 6), (3, 2, 1), (0, 6, 0)),
    12: ((2, 2, 2), (0, 0, -3), (-3, 2, 1), (0, 6, 3)),
    17: ((1, 0, 3), (-2, 0, 0), (-3, 2, 1), (0, 6, 0)),
    18: ((-1, 0, 3), (-2, 0, 0), (3, -2, 1), (0, 6, 0)),
    27: ((2, 2, 2), (1, -2, 1), (-3, -2, 1), (-3, 0, 3)),
}

# phi(1, X) and psi(1, X) from the fifth power (a + b i)^5, ascending in X
_PHI1 = (1, 0, -10, 0, 5)
_PSI1 = (0, 5, 0, -10, 0, 1)


@dataclass(frozen=True)
class GaussDescentData:
    i: int
    re: BinaryForm
    im: BinaryForm
    gamma: int
    alpha: int
    beta: int
    S: BinaryForm
    F: tuple  # ascending degree-10 coefficients
    M: HyperellipticModel
    quartic: BinaryForm       # re^2 + im^2, the rational quartic factor of h_i
    resultant: int            # Res(H, conj H) as a rational integer


def _support(n, primes, what):
    """The primes of `primes` dividing the integer n, in increasing order,
    by division alone; DerivationFailed, naming `what`, when n is 0 or a
    cofactor other than 1 is left."""
    if n == 0:
        raise DerivationFailed(f"{what} = 0")
    m = abs(n)
    for p in primes:
        while m % p == 0:
            m //= p
    if m != 1:
        raise DerivationFailed(
            f"{what} = {n} not {{{', '.join(map(str, primes))}}}-supported: "
            f"cofactor {m}")
    return tuple(p for p in primes if n % p == 0)


def gauss_family(i):
    if i not in GAUSS_INDICES:
        raise ValueError(f"i={i} is not one of the Gaussian-descent indices")
    re_c, im_c, (g, al, be), s_c = _GAUSS_TABLE[i]
    re, im = BinaryForm(2, re_c), BinaryForm(2, im_c)
    S = BinaryForm(2, s_c)
    quartic = re * re + im * im
    h = edwards_triple(i).h
    if h.coeff(12) == 0:
        raise DerivationFailed(
            f"h_{i} has a root at infinity; quartic split invalid")
    # h(x, 1) has degree 12, so a zero remainder with a quotient of degree 8
    # is h = quartic * octic as forms, with no factor v gained or lost
    quot, rem = poly.divmod(list(h.coeffs), list(quartic.coeffs))
    if rem or len(quot) != 9:
        raise DerivationFailed(f"re^2 + im^2 does not divide h_{i}")
    prehyper = (re.scale(al) + im.scale(be)) * im
    if prehyper.scale(g) != S * S:
        raise DerivationFailed(
            f"gamma (alpha Re + beta Im) Im != S^2 for i={i}")
    inner = [al * x + be * y for x, y in zip(list(_PHI1) + [0], _PSI1)]
    F = tuple(g * c for c in poly.mul(inner, _PSI1))
    G = auxiliary_field("gauss")
    H = BinaryForm(2, tuple(G.element([r, m]) for r, m in zip(re_c, im_c)))
    Hc = BinaryForm(2, tuple(G.element([r, -m]) for r, m in zip(re_c, im_c)))
    res = binary_resultant(H, Hc).as_rational()
    if res.denominator != 1:
        raise DerivationFailed(f"non-integral Res(H, conj H) for i={i}")
    res = int(res)
    _support(res, (2, 3), f"Res(H, conj H) for i={i}")
    return GaussDescentData(i, re, im, g, al, be, S, F,
                            HyperellipticModel(F), quartic, res)


@dataclass(frozen=True)
class GaussFiber:
    solutions: frozenset  # of (u, v)
    contradiction: str    # empty, or the impossible equation


_IM_DESC = {3: "6u^2", 4: "6u^2", 12: "-3u^2", 17: "-2v^2", 18: "-2v^2",
            27: "(u-v)^2"}


def _integer_quadratic_roots(a, b, c):
    """Integer roots of a x^2 + b x + c (a may be zero)."""
    if a == 0:
        if b == 0:
            return []
        return [-c // b] if c % b == 0 else []
    r = poly.int_root(b * b - 4 * a * c, 2)
    if r is None:
        return []
    out = []
    for s in (r, -r) if r else (0,):
        if (-b + s) % (2 * a) == 0:
            out.append((-b + s) // (2 * a))
    return sorted(set(out))


def _solve_pair(i, r, s):
    """Integer (u, v) with Re_i(u, v) = r and Im_i(u, v) = s, or None if the
    Im equation is already impossible."""
    re_c, im_c, _, _ = _GAUSS_TABLE[i]
    c2, c1, c0 = re_c  # re = c0 u^2 + c1 uv + c2 v^2
    # im = c w^2 for w = u (i = 3, 4, 12), w = v (i = 17, 18), w = u - v
    # (i = 27, c = 1)
    c = im_c[2] if i in (3, 4, 12) else im_c[0]
    root = None if s % c else poly.int_root(s // c, 2)
    if root is None:
        return None
    sols = set()
    for w in {root, -root}:
        if i in (3, 4, 12):
            sols |= {(w, v) for v in
                     _integer_quadratic_roots(c2, c1 * w, c0 * w * w - r)}
        elif i in (17, 18):
            sols |= {(u, w) for u in
                     _integer_quadratic_roots(c0, c1 * w, c2 * w * w - r)}
        else:
            sols |= {(v + w, v) for v in _integer_quadratic_roots(
                c0 + c1 + c2, 2 * c0 * w + c1 * w, c0 * w * w - r)}
    return sols


def gauss_back_substitute(i, point):
    """Solve the two coefficient equations behind a rational point on M_i."""
    if i not in GAUSS_INDICES:
        raise ValueError(f"i={i} is not one of the Gaussian-descent indices")
    X, Y = Fraction(point[0]), Fraction(point[1])
    b, a = X.numerator, X.denominator
    G = auxiliary_field("gauss")
    z5 = G.element([a, b]) ** 5
    r0, i0 = z5.coords
    targets = [(r0, i0), (-r0, -i0), (-i0, r0), (i0, -r0)]
    solutions = set()
    im_failed = []
    for r, s in targets:
        got = _solve_pair(i, int(r), int(s))
        if got is None:
            im_failed.append(int(s))
        else:
            solutions |= got
    if solutions and Y == 0:
        # ramification fibers: the square-root form S vanishes there
        _, _, _, s_c = _GAUSS_TABLE[i]
        Sf = BinaryForm(2, s_c)
        for u, v in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1),
                     (-1, 1), (-1, -1)):
            if Sf.evaluate(u, v) == 0:
                solutions.add((u, v))
    contradiction = ""
    if not solutions and len(im_failed) == 4 and len({abs(s) for s in im_failed}) == 1:
        contradiction = f"+-{abs(im_failed[0])} = {_IM_DESC[i]}"
    return GaussFiber(frozenset(solutions), contradiction)


# ---------------------------------------------------------------------------
# Descent over the real quadratic field of golden ratio
# ---------------------------------------------------------------------------

# (a + b sqrt5)^5 = P + Q sqrt5, ascending in a
_P5 = (0, 125, 0, 50, 0, 1)
_Q5 = (25, 0, 50, 0, 5, 0)


@dataclass(frozen=True)
class Sqrt5DescentData:
    j: int
    g1: BinaryForm
    g2: BinaryForm
    F: BinaryForm
    D: HyperellipticModel


def _check_sqrt5_identities(data):
    # epsilon^j (a + b sqrt5)^5 = g1 + g2 sqrt5, sampled exactly
    golden = auxiliary_field("golden")
    eps = golden.gen
    sqrt5 = 2 * eps - 1
    for a, b in ((1, 0), (0, 1), (2, -3), (-5, 4), (7, 11), (3, 2)):
        lhs = eps**data.j * (golden.from_int(a) + sqrt5 * b) ** 5
        rhs = (golden.from_int(0) + 1 * data.g1.evaluate(a, b)
               + sqrt5 * data.g2.evaluate(a, b))
        if lhs != rhs:
            raise DerivationFailed(
                f"unit-twisted fifth power mismatch, j={data.j}")
    # F factors through conjugate linear combinations over Q(sqrt(-5))
    K = auxiliary_field("sqrt-5")
    lam, lamc = K.element([55, 4], 27), K.element([55, -4], 27)
    c1 = data.g1 + data.g2.map_coeffs(lambda c: -lam * c)
    c2 = data.g1 + data.g2.map_coeffs(lambda c: -lamc * c)
    prod = c1 * c2
    for k in range(11):
        if prod.coeff(k) != Fraction(data.F.coeff(k), 81):
            raise DerivationFailed(
                f"conjugate combination product != F_{data.j}/81")
    _check_square_identity()


@lru_cache(maxsize=None)
def _check_square_identity():
    """The pulled-out square identity behind the construction; it does not
    depend on j, so it runs once (a failure is not cached, and raises again
    for every j)."""
    G1 = BinaryForm(6, (1, 0, 0, Fraction(-55, 2), 0, 0, -5))
    G2 = BinaryForm(6, (0, 0, 0, Fraction(-27, 2), 0, 0, 0))
    lhs = (G1 * G1).scale(81) - (G1 * G2).scale(330) + (G2 * G2).scale(345)
    rhs = BinaryForm(12, (1, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 25)).scale(81)
    if any(Fraction(x) != Fraction(y) for x, y in zip(lhs.coeffs, rhs.coeffs)):
        raise DerivationFailed("square identity (9(v^6 + 5u^6))^2 failed")


_F0_PRINTED = (81, -1650, 16725, -99000, 395250, -1039500, 1961250,
               -2475000, 2128125, -1031250, 215625)  # descending in a


@lru_cache(maxsize=None)
def sqrt5_family(j):
    if j not in (-2, -1, 0, 1, 2):
        raise ValueError("j must be in -2..2")
    # epsilon^j = c + d sqrt5 with epsilon = (1 + sqrt5)/2
    eps = auxiliary_field("sqrt5").element([1, 1], 2)
    c, d = (eps**j).coords
    g1 = BinaryForm(5, tuple(c * p + 5 * d * q for p, q in zip(_P5, _Q5)))
    g2 = BinaryForm(5, tuple(c * q + d * p for p, q in zip(_P5, _Q5)))
    F = (g1 * g1).scale(81) - (g1 * g2).scale(330) + (g2 * g2).scale(345)
    if not all(Fraction(cf).denominator == 1 for cf in F.coeffs):
        raise DerivationFailed(f"F_{j} is not integral")
    F = F.map_coeffs(lambda cf: int(Fraction(cf)))
    if j == 0 and tuple(F.coeffs) != tuple(reversed(_F0_PRINTED)):
        raise DerivationFailed("F_0 disagrees with the printed coefficients")
    data = Sqrt5DescentData(j, g1, g2, F, HyperellipticModel(tuple(F.coeffs)))
    _check_sqrt5_identities(data)
    return data


@dataclass(frozen=True)
class Sqrt5Conclusion:
    values: frozenset    # attainable v^6 + 5 u^6
    solutions: frozenset  # coprime (u, v)


_GCD_SCALINGS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1),
                 Fraction(3, 2), Fraction(-3, 2), Fraction(3), Fraction(-3))


def sqrt5_conclude(points_by_j, d1_empty=False, d2_empty=False):
    """Turn the rational points of D_0, D_-1, D_-2 into coprime (u, v).

    The two remaining twists have no rational points at all; that fact is an
    imported input and must be acknowledged explicitly by the caller.
    """
    if not (d1_empty and d2_empty):
        raise ValueError("emptiness of the two positive twists must be "
                         "acknowledged explicitly (d1_empty=d2_empty=True)")
    values = set()
    for j, points in points_by_j.items():
        F = sqrt5_family(j).F
        for point in points:
            if isinstance(point, InfinitePoint):
                cands = [(lam, Fraction(0)) for lam in _GCD_SCALINGS]
            else:
                x = Fraction(point.x)
                cands = [(lam * x.numerator, lam * x.denominator)
                         for lam in _GCD_SCALINGS]
            for a, b in cands:
                s = poly.fraction_root(F.evaluate(a, b), 2)
                if s is None:
                    continue
                val = s / 9
                if val.denominator == 1 and val > 0:
                    values.add(int(val))
    solutions = {(u, v)
                 for u in range(-4, 5) for v in range(-4, 5)
                 if math.gcd(u, v) == 1 and v**6 + 5 * u**6 in values}
    return Sqrt5Conclusion(frozenset(values), frozenset(solutions))


# ---------------------------------------------------------------------------
# Sextic splitting and the unit sieve
# ---------------------------------------------------------------------------

@dataclass
class SexticSplit:
    i: int
    field: object               # the coefficient NumberField
    q: BinaryForm               # monic quadratic u^2 + s uv + t v^2 over K
    H: BinaryForm               # primitive degree-10 form over O_K
    scalar: object              # K-element with h_i = scalar * q * H exactly
    res_support: tuple          # rational primes in the norm
    primes_above_5: int         # how many primes above 5 divide the resultant
    irreducibility_primes: tuple  # degree-1 primes (p, a) certifying q, H


#: largest sup-norm of the LLL coordinates searched by _ideal_generator
GENERATOR_BOUND = 6


def _ideal_generator(order, basis, norm):
    """Small element of the ideal of the maximal order whose norm matches
    the ideal norm; the columns of the integer matrix basis are a Z-basis of
    the ideal in the order's coordinates.

    In any number field such an element generates the ideal, since its
    principal ideal lies in the ideal with index 1; this certifies the
    caller's division.  The basis is LLL-reduced (_lll) as the rows of its
    complex embeddings, real and imaginary parts scaled to 24 bits and
    rounded, next to an identity block that carries the transform; the
    floats only choose the basis, and the exact norm decides.  The
    coordinates c on the reduced basis are searched shell by shell,
    max|c| = r for r = 0..GENERATOR_BOUND, each shell in lexicographic
    order.  The first exact match is therefore the match of least sup-norm,
    and among those the first in the lexicographic order of the whole box
    [-GENERATOR_BOUND, GENERATOR_BOUND]^n: the element a scan of that box
    keeping the smallest match would return.
    """
    K, d = order.field, order.denom
    n = K.degree
    pows = np.array([K.embeddings()**k for k in range(n)])

    def embedded(pb):
        """The complex embeddings of the elements with power-basis
        numerators pb over d, one row each."""
        return np.array([[sum(complex(x / d) * pows[i, r]
                              for i, x in enumerate(row)) for r in range(n)]
                         for row in pb])

    # power-basis numerators, over d, of the n ideal basis vectors
    pb = [[sum(a * basis[k][j] for k, a in enumerate(row))
           for row in order.matrix] for j in range(n)]
    emb = embedded(pb)
    # LLL-reduce the lattice (scaled embedding, with an identity block that
    # records the unimodular transform and shapes the reduction) so small
    # coordinates suffice below
    real = np.hstack([emb.real, emb.imag])
    scale = float(2**24) / max(1.0, np.abs(real).max())
    red = _lll([[int(x) for x in row] + [int(j == k) for k in range(n)]
                for j, row in enumerate(np.rint(real * scale))])
    pb = [[sum(red[j][2 * n + k] * pb[k][i] for k in range(n))
           for i in range(n)] for j in range(n)]
    emb = embedded(pb)
    for r in range(GENERATOR_BOUND + 1):
        for coords in _shell(r, n):
            absn = np.abs(np.prod(coords.astype(complex) @ emb, axis=1))
            close = np.where(
                np.abs(np.log(np.maximum(absn, 1e-300)) - math.log(norm))
                < 1e-6)[0]
            for c in coords[close]:
                g = K.element([sum(int(c[j]) * pb[j][k] for j in range(n))
                               for k in range(n)], d)
                if abs(g.norm()) == norm:
                    return g
    raise DerivationFailed(
        f"no generator of norm {norm} in {K.label} found within bound "
        f"{GENERATOR_BOUND}")


def _lll(rows):
    """The LLL-reduced basis (delta = 3/4) of the lattice spanned by the
    rows of a full-rank integer matrix, as lists of ints.

    Cohen's integral LLL (GTM 138, Alg. 2.6.7): d[i] is the Gram
    determinant of the first i rows and lam[k][j] = d[j + 1] mu_kj, both
    integers, so no rational arises.  Row k is reduced against row j when
    2|lam[k][j]| > d[j + 1], by the nearest integer q = floor(mu_kj + 1/2);
    rows k - 1 and k swap when 4 d[k + 1] d[k - 1] < 3 d[k]^2 -
    4 lam[k][k - 1]^2, the Lovasz condition."""
    b = [list(row) for row in rows]
    m = len(b)
    d = [1] + [0] * m
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            la = lam[k][k - 1]
            B = (d[k - 1] * d[k + 1] + la * la) // d[k]
            for i in range(k + 1, m):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - la * t) // d[k]
                lam[i][k - 1] = (B * t + la * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return b


def _shell(r, n):
    """The points c of Z^n with max|c| = r in lexicographic order, as arrays
    of rows, one array per value of the first coordinate; n >= 2."""
    rng = np.arange(-r, r + 1)
    rest = np.stack([g.ravel() for g in np.meshgrid(*[rng] * (n - 1),
                                                    indexing="ij")], axis=1)
    inner = rest[np.abs(rest).max(axis=1) == r]
    for c0 in rng:
        tail = rest if abs(c0) == r else inner
        yield np.hstack([np.full((len(tail), 1), c0), tail])


def _primitive_part(coeffs, rep):
    """Scale O_K coefficients to a primitive list.

    First clears rational denominators and content, then removes the residual
    content ideal by dividing through a norm-certified generator.
    """
    den = math.lcm(*(c.den for c in coeffs))
    num = math.gcd(*(a * (den // c.den) for c in coeffs for a in c.num))
    K = coefficient_field(rep)
    order = maximal_order(K)
    out = [c * Fraction(den, num) for c in coeffs]
    for _ in range(24):
        basis, n_ideal = order.ideal(out)
        if n_ideal == 1:
            return out
        # rest is 1 or one prime, larger than those of fac
        fac, rest = poly.prime_factors(n_ideal, math.isqrt(n_ideal))
        if len(fac) + (rest > 1) > 1:
            # peel one rational prime at a time: I + pO has norm a power of p
            basis, n_ideal = order.ideal(out + [K.from_int(min(fac))])
        g = _ideal_generator(order, basis, n_ideal)
        ginv = g.inverse()
        out = [c * ginv for c in out]
        if any(order.coords(c) is None for c in out):
            raise DerivationFailed(
                f"content generator does not divide over {K.label}")
    raise DerivationFailed(f"content removal over {K.label} did not terminate")


@lru_cache(maxsize=None)
def sextic_split(i):
    """h_i = scalar * q * H over its sextic field K, with q a monic quadratic
    and H a primitive degree-10 form over O_K, both irreducible over K.

    Find: the roots of h_i(x, 1) are the vertices of an icosahedron and
    those of q the two on one axis; of the matchings of the six axes to the
    six embeddings of K, the one whose double-precision solve for the
    coordinates of q is nearest to integers proposes q (_quadratic_factor).
    Prove: q divides h_i exactly over K, and q * H rebuilds h_i.  Certify:
    the degrees of q and H modulo degree-1 primes of K rule out every proper
    factor (_irreducibility_primes).  Floating point never decides: it only
    chooses which exact division to try.
    """
    if i not in SEXTIC_INDICES:
        raise ValueError(f"i={i} is not one of the sextic-split indices")
    K = coefficient_field(FIELD_REP[i])
    h = edwards_triple(i).h
    lead = h.coeff(12)
    if lead == 0:
        raise DerivationFailed(f"h_{i} has a root at infinity")
    qm, Hm = _quadratic_factor([Fraction(c) / lead for c in h.coeffs], K)
    Hc = _primitive_part(Hm, FIELD_REP[i])
    q_form = BinaryForm(2, tuple(qm))
    H_form = BinaryForm(10, tuple(Hc))
    scalar = Fraction(lead) * H_form.coeff(10).inverse()
    rebuilt = (q_form * H_form).map_coeffs(lambda c: c * scalar)
    for x, y in zip(rebuilt.coeffs, h.coeffs):
        if x != y:
            raise DerivationFailed(f"q * H does not rebuild h_{i}")
    certificate = _irreducibility_primes(q_form.coeffs, H_form.coeffs, K)
    q_int = q_form.map_coeffs(lambda c: c * scalar)
    res = binary_resultant(q_int, H_form)
    res_norm = res.norm()
    if res_norm.denominator != 1:
        raise DerivationFailed(f"non-integral norm of Res(q_{i}, H_{i})")
    support = _support(int(res_norm), (2, 3, 5),
                       f"the norm of Res(q_{i}, H_{i})")
    above5 = sum(1 for fq in residue_split(K, 5) if not any(fq.reduce(res)))
    return SexticSplit(i, K, q_form, H_form, scalar, support, above5,
                       certificate)


def _axes(roots):
    """The pairs (a, b), a < b, of antipodal vertices when the roots are the
    vertices of an icosahedron on the Riemann sphere; DerivationFailed
    when they do not pair up.

    In the coordinate z = (x - r_a)/(x - r_b) the rotation of order 5 about
    the axis through r_a and r_b is z -> zeta_5 z, so the other roots are
    the roots of a polynomial in z^5 alone.  The partner of r_a is the r_b
    whose z-polynomial has the smallest coefficients off the powers z^5k
    relative to those on them.  Swapping r_a and r_b (z -> 1/z) reverses
    that polynomial and keeps the ratio, so each pair is scored once.
    """
    def off_axis(a, b):
        rest = np.delete(roots, [a, b])
        c = np.abs(np.poly((rest - roots[a]) / (rest - roots[b])))
        on = np.arange(len(c)) % 5 == len(rest) % 5
        return c[~on].max() / c[on].max()

    score = np.full((len(roots), len(roots)), np.inf)
    for a, b in itertools.combinations(range(len(roots)), 2):
        score[a, b] = score[b, a] = off_axis(a, b)
    partner = score.argmin(axis=1).tolist()
    axes = [(a, b) for a, b in enumerate(partner) if a < b and partner[b] == a]
    if 2 * len(axes) != len(roots):
        raise DerivationFailed("the roots do not pair into the axes of "
                               "an icosahedron")
    return axes


def _quadratic_factor(coeffs, K):
    """(q, H) with coeffs = q * H exactly over K, q = [t, s, 1] monic
    quadratic; DerivationFailed when the roots have no icosahedral axes
    or the nearest proposal does not divide.

    Each degree-12 h_i is Klein's icosahedral form after a change of
    variables (the syzygy f^2 + g^3 + h^5 = 0), so the roots of h_i(x, 1)
    are the vertices of an icosahedron, and the roots of q over K are the
    two vertices on one of its six axes (Klein, Lectures on the Icosahedron,
    1884; Edwards, "Platonic solids and solutions to x^2 + y^3 = dz^r",
    J. reine angew. Math. 571, 2004).  The six conjugates of q are the six
    axes (_axes), one for each embedding of K.  For each of the 720
    bijections between embeddings and axes, a Vandermonde solve in double
    precision gives the coordinates of s = -(r_a + r_b) and t = r_a r_b,
    scaled by D = lcm(coefficient denominators) * maximal_order(K).denom:
    by Gauss's lemma for contents, D clears the denominators of s and t.
    Only the bijection nearest to integers is rounded, and exact division
    proves it, so floating point only chooses which division to try.
    """
    roots = np.roots(np.array([float(c) for c in reversed(coeffs)]))
    axes = _axes(roots)
    if len(axes) != K.degree:
        raise DerivationFailed(
            f"{len(axes)} axes for the {K.degree} embeddings of {K.label}")
    st = np.array([[roots[a] * roots[b], -(roots[a] + roots[b])]
                   for a, b in axes])
    perms = np.array(list(itertools.permutations(range(K.degree))))
    D = math.lcm(*(c.denominator for c in coeffs)) * maximal_order(K).denom
    x = D * np.linalg.solve(
        np.vander(K.embeddings(), K.degree, increasing=True), st[perms])
    best = x[np.abs(x - np.round(x.real)).max(axis=(1, 2)).argmin()]
    q = [K.element([int(c) for c in np.round(col.real)], D)
         for col in best.T] + [K.one]
    H, rem = poly.divmod([K.from_int(c) for c in coeffs], q)
    if rem:
        raise DerivationFailed(
            f"the axes nearest to integers give no quadratic factor over "
            f"{K.label}")
    return q, H


#: the certificate looks for degree-1 primes of K above p below this bound
IRREDUCIBILITY_PRIME_BOUND = 200


def _irreducibility_primes(q, H, K):
    """Degree-1 primes P = (p, theta - a) of K proving the polynomials q and
    H irreducible over K; DerivationFailed when the primes below
    IRREDUCIBILITY_PRIME_BOUND do not suffice.

    P is used when p divides neither disc(K) nor a coordinate denominator
    and both leading coefficients are units at P.  By Gauss's lemma in the
    valuation ring at P, a factor of degree d over K reduces to a factor of
    degree d mod P, so d is a sum of the degrees of some irreducible factors
    mod P, counted with multiplicity.  A polynomial is irreducible once the
    sums common to all P are only 0 and its degree (Musser, JACM 25, 1978).
    Returns the P that narrowed some common sums, in increasing order.
    """
    polys = (q, H)
    disc = K.discriminant()
    den = math.lcm(*(c.den for f in polys for c in f))
    # bit k of sums[j]: a factor of degree k of polys[j] is not yet ruled out
    sums = [(1 << len(f)) - 1 for f in polys]
    used = []
    for p in poly.primes(2, IRREDUCIBILITY_PRIME_BOUND):
        if disc % p == 0 or den % p == 0:
            continue
        # P has residue field F_p[y]/(y + g_0), where theta reduces to -g_0
        linear = {-fq.modpoly[0] % p: fq for fq in residue_split(K, p)
                  if fq.f == 1}
        for a, fq in sorted(linear.items()):
            reduced = [[fq.reduce(c)[0] for c in f] for f in polys]
            if not all(f[-1] for f in reduced):
                continue
            narrowed = False
            for k, f in enumerate(reduced):
                here = poly.degree_sums(poly.distinct_degree_mod(f, p))
                narrowed |= bool(sums[k] & ~here)
                sums[k] &= here
            if narrowed:
                used.append((p, a))
            if all(s == 1 | 1 << len(f) - 1 for s, f in zip(sums, polys)):
                return tuple(used)
    raise DerivationFailed(
        f"no irreducibility certificate over {K.label} from the degree-1 "
        f"primes below {IRREDUCIBILITY_PRIME_BOUND}")


def unit_data_file(rep):
    """The unit-generator file of field K_rep: units/K{rep}.json under
    GFE_DATA_DIR when it is there, else the bundled one."""
    base = os.environ.get("GFE_DATA_DIR")
    if base:
        path = pathlib.Path(base) / f"units/K{rep}.json"
        if path.is_file():
            return path
    return resources.files("gfe25").joinpath(f"data/units/K{rep}.json")


def _rank_mod5(rows):
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % 5), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, 5)
        rows[rank] = [c * inv % 5 for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % 5:
                f = rows[r][col]
                rows[r] = [(c - f * d) % 5 for c, d in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _generator_classes(gens, rs):
    """The fifth-power classes of the generators at the residue fields rs,
    as a (len(gens), slots) array; ZeroInput when a generator vanishes at
    one of them."""
    return np.array([fq.fifth_power_classes([fq.reduce(g) for g in gens])
                     for fq in rs]).T


def verify_unit_data(rep):
    """The three generators of K_rep's unit file, proved to span O_K^x
    modulo fifth powers; BadUnitData for any file that does not give them.

    Sturm counting gives K exactly two real places, so its signature is
    (2, 2): the unit rank is 3 and the only roots of unity are +-1, which
    are fifth powers.  O_K^x / (O_K^x)^5 is then F_5^3.  The generators are
    checked to be integral units, and their fifth-power classes at the
    certification primes, the classes unit_sieve uses, to have rank 3 mod 5,
    so they span it.

    This is the one reader of a unit file.  The file is read on every call,
    so an edit under GFE_DATA_DIR is seen, and each (field, file contents)
    is parsed, checked and certified once (_certified_units).
    """
    K = coefficient_field(rep)
    return list(_certified_units(K, unit_data_file(rep).read_bytes()))


@lru_cache(maxsize=None)
def _certified_units(K, data):
    """verify_unit_data for the unit file contents data of K, as a tuple;
    BadUnitData (which is not cached) as there."""
    where = f"the unit file of {K.label}"
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as e:  # also not UTF-8, too deep
        raise BadUnitData(f"{where} is not JSON: {e}") from None
    rows = raw.get("generators") if isinstance(raw, dict) else None
    if not isinstance(rows, list):
        raise BadUnitData(f"{where} is not an object with a list "
                          "'generators'")
    cert_primes = raw.get("certPrimes")
    try:
        check_sieve_primes(cert_primes, K)
    except (TypeError, IndexRisk) as e:  # not a list, or a bad entry
        raise BadUnitData(f"bad certPrimes in {where}: {e}") from None
    if any(not isinstance(row, list) or len(row) != K.degree for row in rows):
        raise BadUnitData(f"a generator of {K.label} does not have "
                          f"{K.degree} coordinates")
    try:
        gens = tuple(K.element(row) for row in rows)
    except (TypeError, ValueError, ArithmeticError) as e:
        raise BadUnitData(f"a generator of {K.label} has a coordinate that "
                          f"is not a rational number: {e}") from None
    real_places = poly.count_real_roots(K.min_poly)
    if real_places != 2:
        raise BadUnitData(f"{K.label} has {real_places} real places, not 2")
    if len(gens) != 3:
        raise BadUnitData("need exactly three generators")
    for g in gens:
        if g.norm() not in (1, -1):
            raise BadUnitData(f"generator {g!r} is not a unit")
        if maximal_order(K).coords(g) is None:
            raise BadUnitData(f"generator {g!r} is not an algebraic integer")
    try:
        blocks = [_generator_classes(gens, residue_split(K, q))
                  for q in cert_primes]
    except ZeroInput:
        blocks = None
    if not blocks or _rank_mod5(np.hstack(blocks).tolist()) != 3:
        raise BadUnitData("independence certificate failed at the "
                          f"certification primes {cert_primes}")
    return gens


def _local_targets(split, rs, p):
    """Fifth-power-class vectors of H at the p + 1 points (t, 1), (1, 0) of
    P^1(F_p), for the residue fields rs of K at p.

    Returns the distinct vectors as the rows of an (n, slots) int array:
    entry j is the class 0..4 of H(u, v) in the j-th residue field, or -1
    when H(u, v) reduces to zero there.  H, of degree d = 10, is read once:
    one (p + 1, d + 1) matrix of u^m v^(d - m) mod p, shared by all slots,
    times the (d + 1, f) rows fq.reduce of H's coefficients.

    Every row is a necessary condition.  Since p does not divide disc(T),
    the prime above p at slot j is P_j = (p, G_j) for the j-th local factor
    G_j (Dedekind-Kummer; Cohen, GTM 138, 4.8).  If a coprime (u, v) has
    H(u, v) = eta w^5, then at each slot j of its point mod p either P_j
    divides H(u, v), and the slot is -1, or H(u, v) is a P_j-unit, so w is
    one too and the class of H(u, v) is eta's class.  Scaling a point by
    c in F_p^x multiplies H by c^10, a fifth power, so one representative
    per point suffices.  A p-adic refinement of the points could only
    remove rows; had a pass kept an extra class, the sextic stage would
    report a mismatch, never a false pass.
    """
    d = split.H.degree
    # an entry of the product sums d + 1 = 11 products of residues, which
    # int64 holds for the primes check_sieve_primes accepts
    points = [(t, 1) for t in range(p)] + [(1, 0)]
    monomials = np.array([[pow(u, m, p) * pow(v, d - m, p) % p
                           for m in range(d + 1)] for u, v in points])
    targets = np.full((p + 1, len(rs)), -1)
    for j, fq in enumerate(rs):
        coeffs = np.array([fq.reduce(c) for c in split.H.coeffs])
        values = monomials @ coeffs % p
        unit = values.any(axis=1)
        targets[unit, j] = fq.fifth_power_classes(values[unit])
    return np.array(sorted(set(map(tuple, targets.tolist()))))


#: default sieve primes: the primes p = 1 mod 5 below 700
DEFAULT_SIEVE_PRIMES = tuple(p for p in poly.primes(7, 700) if p % 5 == 1)


def check_sieve_primes(primes, K):
    """Raise IndexRisk unless every sieve prime is an int p = 1 mod 5 with
    11 (p - 1)^2 < 2^63 that is prime and does not divide disc(K), for the
    sextic field K: mu_5 lies in F_p, so every residue field above p has
    fifth-power classes (Fq.fifth_power_classes), and _local_targets sums
    its 11 products of residues in int64.  The bound is tested first, so
    trial division stays cheap on any int."""
    disc = K.discriminant()
    bad = [p for p in primes if not isinstance(p, int) or p % 5 != 1
           or 11 * (p - 1) ** 2 >= 2**63 or not poly.is_prime(p)
           or disc % p == 0]
    if bad:
        raise IndexRisk(f"sieve primes {bad} are not primes p = 1 mod 5 "
                        f"with 11 (p - 1)^2 < 2^63, prime to disc({K.label})")


def unit_sieve(i, primes=DEFAULT_SIEVE_PRIMES):
    """Surviving subset of the 125 unit classes twisting H_i(u, v) = w^5.

    The mod-25 pass runs first, on all 125 classes (_mod25_classes).  Then
    at each prime p, the class vector of every surviving exponent e is
    e @ gen_classes mod 5, and e survives when some row of _local_targets,
    H read at the points of P^1(F_p), agrees with it at every slot where
    that row is not -1.  The primes must be p = 1 mod 5
    (check_sieve_primes).

    The primes are walked only while the survivors outnumber the classes of
    known global points: known = 1 for an index of SIEVE_WITNESSES, 0 for
    the others.  The stop is tested before each prime, so a prime past it
    builds no residue fields and no targets.  The stop is sound:

    * every pass is a predicate on the class e alone, so the order of the
      passes cannot change the result, and every prefix of the walk returns
      a superset of the classes of global points;
    * with known = 0 the stop is exact, since an empty set stays empty;
    * with known = 1 the sextic stage then proves with nf_fifth_root that
      the witness SIEVE_WITNESSES[i] lies in the one survivor.  No later
      prime can remove the class of a global point, so the full walk would
      return the same class, and the early stop cannot turn a mismatch into
      a pass.  `gfe unitsieve` goes through this same code.
    """
    rep = FIELD_REP[i]
    K = coefficient_field(rep)
    check_sieve_primes(primes, K)
    split = sextic_split(i)
    gens = verify_unit_data(rep)
    survivors = np.array(list(itertools.product(range(5), repeat=3)))
    survivors = survivors[_mod25_classes(split, gens)]
    known = 1 if i in SIEVE_WITNESSES else 0
    for p in primes:
        if len(survivors) <= known:
            break
        rs = residue_split(K, p)
        gen_classes = _generator_classes(gens, rs)
        targets = _local_targets(split, rs, p)
        classes = survivors @ gen_classes % 5
        match = (targets[None] < 0) | (targets[None] == classes[:, None])
        survivors = survivors[match.all(axis=2).any(axis=1)]
    return sorted(map(tuple, survivors.tolist()))


def _mod25_classes(split, gens):
    """Boolean mask over the 125 exponents e, in itertools.product order:
    whether H(u, v) / eta_e is a fifth power mod 25 at one of the 30 points
    (u, 1), u mod 25, and (1, 5t), t mod 5, of P^1(Z/25), for
    eta_e = gens[0]^e0 gens[1]^e1 gens[2]^e2.

    Reduction mod 25 is a ring map on the coordinates, whose denominators
    divide the order index and so are prime to 5.  H / eta_e is
    H eta_e^4 / eta_e^5, so it is a fifth power iff H eta_e^4 is: the 125
    rows of eta_e^4 mod 25 (_unit_powers_mod25, kept per field) twist the
    30 values of H in one poly.mul_rows_mod call, and no inverse is taken.
    The 3,750 twists are then tested by _is_fifth_power_mod25."""
    K = split.field
    if maximal_order(K).denom % 5 == 0:
        raise IndexRisk("5 divides the order index; mod-25 pass unavailable")
    T = [int(c) for c in K.min_poly]
    pairs = [(u, 1) for u in range(25)] + [(1, 5 * t) for t in range(5)]
    # H(u, v) mod 25 is linear in the coordinates of H's coefficients; its
    # coordinate k is the integer form of the coordinates k of H's
    forms = [BinaryForm(10, col) for col in
             zip(*(c.coords_mod(25) for c in split.H.coeffs))]
    hvals = np.array([[f.evaluate(u, v) % 25 for f in forms]
                      for u, v in pairs])
    units = _unit_powers_mod25(K, tuple(gens))
    twisted = poly.mul_rows_mod(np.repeat(units, len(hvals), axis=0),
                                np.tile(hvals, (len(units), 1)), T, 25)
    hit = _is_fifth_power_mod25(K, twisted)
    return hit.reshape(len(units), len(hvals)).any(axis=1)


@lru_cache(maxsize=None)
def _unit_powers_mod25(K, gens):
    """The 125 rows of eta_e^4 mod 25, in itertools.product order of e, as
    a read-only array: products of the powers 0..4 of the reduced g^4 of
    each generator g.  They depend only on the field and its generators,
    so the indices of one field share them."""
    T = [int(c) for c in K.min_poly]
    rows = np.array([K.one.coords_mod(25)])
    for g in gens:
        r = poly.pow_mod(g.coords_mod(25), 4, T, 25)
        powers = [rows]
        for _ in range(4):
            powers.append(poly.mul_rows_mod(powers[-1], [r] * len(rows), T,
                                            25))
        # row 5a + k is row a of the rows before g, times r^k
        rows = np.stack(powers, axis=1).reshape(-1, len(T) - 1)
    rows.flags.writeable = False
    return rows


def _is_fifth_power_mod25(K, rows):
    """Whether each row of an (n, deg K) integer array in [0, 25), the
    power-basis coordinates of an element of O/25O, is a fifth power there;
    a boolean array.  For 5 not dividing [O : Z[theta]], where
    O/25O = (Z/25)[x]/(T) for the minimal polynomial T of theta.

    The test runs on the Chinese-remainder parts of O/25O (Cohen, GTM 138,
    3.5).  Let T = prod f_j^(e_j) mod 5 with the f_j distinct monic
    irreducibles.  The parts f_j^(e_j) are pairwise coprime mod 5, and one
    Hensel step lifts them to monic T_j with T = prod T_j mod 25
    (poly.hensel_lift).  Two of them are comaximal in (Z/25)[x]: there
    s T_i + t T_k = 1 - 5h, a unit.  So O/25O is the product of the parts
    (Z/25)[x]/(T_j), and the map to part j is reduction mod T_j, a fixed
    integer matrix on the coordinates (_fifth_power_parts).  A row is a
    fifth power iff each of its parts is, since fifth roots in the parts
    combine to one in the product.  Every element of part j is b + 5c with
    the coefficients of b in [0, 5), and (b + 5c)^5 = b^5 mod 25, as 25
    divides binomial(5, k) (5c)^k for k >= 1.  So the fifth powers of part
    j are those of its 5^(deg T_j) bases b, kept as sorted integer codes.
    """
    hit = np.ones(len(rows), dtype=bool)
    for proj, codes in _fifth_power_parts(K):
        got = rows @ proj % 25 @ 25 ** np.arange(proj.shape[1])
        at = np.searchsorted(codes, got).clip(max=len(codes) - 1)
        hit &= codes[at] == got
    return hit


@lru_cache(maxsize=None)
def _fifth_power_parts(K):
    """One (projection, codes) pair per part (Z/25)[x]/(T_j) of O/25O, as
    read-only arrays: the (deg T, deg T_j) matrix whose row k is x^k mod
    (25, T_j), and the sorted codes sum c_k 25^k of the fifth powers of the
    part, from the fifth powers of its 5^(deg T_j) bases with coefficients
    in [0, 5) (_is_fifth_power_mod25 gives the argument)."""
    T = [int(c) for c in K.min_poly]
    _, factors = poly.factor_mod(T, 5)
    parts = [poly.power(f, e, [1], lambda a, b: poly.mul_mod(a, b, 5))
             for f, e in factors]
    out = []
    for g in poly.hensel_lift(T, parts, 5):
        d = len(g) - 1
        proj = np.array([poly.divmod_mod([0] * k + [1], g, 25)[1]
                         for k in range(len(T) - 1)])
        bases = np.array(list(itertools.product(range(5), repeat=d)))
        squares = poly.mul_rows_mod(bases, bases, g, 25)
        fifths = poly.mul_rows_mod(poly.mul_rows_mod(squares, squares, g, 25),
                                   bases, g, 25)
        codes = np.sort(fifths @ 25 ** np.arange(d))
        proj.flags.writeable = codes.flags.writeable = False
        out.append((proj, codes))
    return tuple(out)


def class_unit(rep, exponents):
    """The unit representing a sieve class."""
    gens = verify_unit_data(rep)
    return math.prod((g**e for g, e in zip(gens, exponents)),
                     start=coefficient_field(rep).one)
