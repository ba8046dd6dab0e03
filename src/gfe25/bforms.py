"""Exact binary-form algebra and the 27 parameterizing triples (f_i, g_i, h_i).

A binary form of degree d is stored as d+1 exact coefficients in ascending
powers of u: coeffs[k] is the coefficient of u^k v^(d-k).  All arithmetic in
this module is exact (Fraction or int); nothing here ever touches floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Sequence

from . import poly


class NonIntegralResult(Exception):
    """A division that must be exact left a remainder (corrupt input data)."""


class NotCoprime(Exception):
    pass


def _as_exact(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected exact rational, got {type(x)!r}")


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (u, v) with exact coefficients.

    Coefficients may be Fraction/int, or any field elements supporting
    +, -, * (number-field elements reuse this class unchanged).
    """

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("need degree+1 coefficients")

    def coeff(self, k: int):
        """Coefficient of u^k v^(degree-k)."""
        return self.coeffs[k]

    @property
    def is_integral(self) -> bool:
        return all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for c in self.coeffs
        )

    def evaluate(self, u, v):
        """sum_k c_k u^k v^(d-k), by Horner in u carrying the powers of v."""
        acc, vpow = self.coeffs[-1], 1
        for c in reversed(self.coeffs[:-1]):
            vpow *= v
            acc = acc * u + c * vpow
        return acc

    def du(self) -> "BinaryForm":
        if self.degree == 0:
            return BinaryForm(0, (0 * self.coeffs[0],))
        return BinaryForm(
            self.degree - 1,
            tuple(k * self.coeffs[k] for k in range(1, self.degree + 1)),
        )

    def dv(self) -> "BinaryForm":
        d = self.degree
        if d == 0:
            return BinaryForm(0, (0 * self.coeffs[0],))
        return BinaryForm(d - 1, tuple((d - k) * self.coeffs[k] for k in range(d)))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            d = self.degree + other.degree
            out = poly.mul(self.coeffs, other.coeffs)
            return BinaryForm(d, tuple(out) + (0,) * (d + 1 - len(out)))
        return BinaryForm(self.degree, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BinaryForm":
        if n < 0:
            raise ValueError("negative power")
        return poly.power(self, n, BinaryForm(0, (1,)), BinaryForm.__mul__)

    def scale(self, s) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(c * s for c in self.coeffs))

    def map_coeffs(self, fn) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(fn(c) for c in self.coeffs))

    def __str__(self):
        terms = []
        d = self.degree
        for k in range(d, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mono = []
            if k:
                mono.append(f"u^{k}" if k > 1 else "u")
            if d - k:
                mono.append(f"v^{d-k}" if d - k > 1 else "v")
            terms.append(f"{c}" + ("*" + "*".join(mono) if mono else ""))
        return " + ".join(terms) if terms else "0"


def build_form(alphas: Sequence) -> BinaryForm:
    """Degree-12 form from the 13-entry bracket notation.

    The coefficient of u^i v^(12-i) is C(12, i) * alphas[i]; entries may be
    non-integral rationals as long as the product comes out integral (which
    is checked by the caller through `is_integral` where it matters).
    """
    if len(alphas) != 13:
        raise ValueError("bracket notation needs 13 entries")
    coeffs = []
    for i, a in enumerate(alphas):
        c = math.comb(12, i) * Fraction(_as_exact(a))
        coeffs.append(int(c) if c.denominator == 1 else c)
    return BinaryForm(12, tuple(coeffs))


def derived_forms(h: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """The degree-20 and degree-30 companion forms of a degree-12 form.

    g = (h_uu h_vv - h_uv^2) / 132^2 and f = (h_u g_v - h_v g_u) / 240;
    both divisions must be exact for valid input data.
    """
    if h.degree != 12:
        raise ValueError("expected a degree-12 form")
    h_u, h_v = h.du(), h.dv()
    g_num = h_u.du() * h_v.dv() - h_u.dv() * h_u.dv()
    g = _exact_div(g_num, 132 * 132)
    f_num = h_u * g.dv() - h_v * g.du()
    f = _exact_div(f_num, 240)
    return g, f


def _exact_div(F: BinaryForm, n: int) -> BinaryForm:
    for c in F.coeffs:
        if c % n:
            raise NonIntegralResult(f"coefficient {c} not divisible by {n}")
    return BinaryForm(F.degree, tuple(c // n for c in F.coeffs))


def transform(F: BinaryForm, M) -> BinaryForm:
    """Substitute (u, v) -> M (u, v) with an exact 2x2 matrix M, det != 0.

    With D the lcm of the denominators of M's entries, lu = D (m00 u + m01 v)
    and lv = D (m10 u + m11 v) are integral, and F(M (u, v)) is
    sum_k c_k lu^k lv^(d-k) / D^d: integer products up to one division."""
    entries = [Fraction(_as_exact(x)) for row in M for x in row]
    D = math.lcm(*(x.denominator for x in entries))
    a, b, c, e = (int(x * D) for x in entries)
    if a * e - b * c == 0:
        raise ValueError("singular substitution")
    d = F.degree
    lu, lv = [[1]], [[1]]
    for _ in range(d):
        lu.append(poly.mul(lu[-1], [b, a]))  # ascending in u
        lv.append(poly.mul(lv[-1], [e, c]))
    out = [0] * (d + 1)
    for k, ck in enumerate(F.coeffs):
        if ck:
            for j, x in enumerate(poly.mul(lu[k], lv[d - k])):
                out[j] += ck * x
    scale = Fraction(1, D**d)
    for j, x in enumerate(out):
        x = x * scale
        out[j] = int(x) if isinstance(x, Fraction) and x.denominator == 1 else x
    return BinaryForm(d, tuple(out))


def binary_resultant(F: BinaryForm, G: BinaryForm):
    """GL2-covariant resultant of two binary forms.

    This is the (m+n)-size Sylvester determinant of the full coefficient
    vectors of F(x,1) and G(x,1), leading zeros included, so that roots at
    infinity are accounted for.  It is computed as the resultant of the
    trimmed polynomials, corrected for the dm and dn leading coefficients
    that F and G lose: Res_(m,n) = (-1)^(n dm) G_n^dm Res when only F loses
    some, F_m^dn Res when only G does, and 0 when both do.
    """
    m, n = F.degree, G.degree
    if not m or not n:
        # the Sylvester matrix is diagonal
        return F.coeffs[0] ** n * G.coeffs[0] ** m
    f, g = poly.trim(F.coeffs), poly.trim(G.coeffs)
    dm, dn = m + 1 - len(f), n + 1 - len(g)
    if dm and dn:
        return 0 * F.coeffs[m]
    res = poly.resultant(f, g)
    if dm:
        return (-1) ** (n * dm) * G.coeffs[n] ** dm * res
    return F.coeffs[m] ** dn * res


# ---------------------------------------------------------------------------
# The 27 triples
# ---------------------------------------------------------------------------

# Bracket data for h_1 .. h_27, embedded; verify_forms_data checks the
# shipped data/forms.json copy against it.
_BRACKETS = {
    1: ["0", "1", "0", "0", "0", "0", "-144/7", "0", "0", "0", "0", "-20736", "0"],
    2: ["-1", "0", "0", "-2", "0", "0", "80/7", "0", "0", "640", "0", "0", "-102400"],
    3: ["-1", "0", "-1", "0", "3", "0", "45/7", "0", "135", "0", "-2025", "0", "-91125"],
    4: ["1", "0", "-1", "0", "-3", "0", "45/7", "0", "-135", "0", "-2025", "0", "91125"],
    5: ["-1", "1", "1", "1", "-1", "5", "-25/7", "-35", "-65", "-215", "1025", "-7975", "-57025"],
    6: ["3", "1", "-2", "0", "-4", "-4", "24/7", "16", "-80", "-48", "-928", "-2176", "27072"],
    7: ["-10", "1", "4", "7", "2", "5", "80/7", "-5", "-50", "-215", "-100", "-625", "-10150"],
    8: ["-19", "-5", "-8", "-2", "8", "8", "80/7", "16", "64", "64", "-256", "-640", "-5632"],
    9: ["-7", "-22", "-13", "-6", "-3", "-6", "-207/7", "-54", "-63", "-54", "27", "1242", "4293"],
    10: ["-25", "0", "0", "-10", "0", "0", "80/7", "0", "0", "128", "0", "0", "-4096"],
    11: ["6", "-31", "-32", "-24", "-16", "-8", "-144/7", "-64", "-128", "-192", "-256", "256", "3072"],
    12: ["-64", "-32", "-32", "-32", "-16", "8", "248/7", "64", "124", "262", "374", "122", "-2353"],
    13: ["-64", "-64", "-32", "-16", "-16", "-32", "-424/7", "-76", "-68", "-28", "134", "859", "2207"],
    14: ["-25", "-50", "-25", "-10", "-5", "-10", "-235/7", "-50", "-49", "-34", "31", "614", "1763"],
    15: ["55", "29", "-7", "-3", "-9", "-15", "-81/7", "9", "-9", "-27", "-135", "-459", "567"],
    16: ["-81", "-27", "-27", "-27", "-9", "9", "171/7", "33", "63", "141", "149", "-67", "-1657"],
    17: ["-125", "0", "-25", "0", "15", "0", "45/7", "0", "27", "0", "-81", "0", "-729"],
    18: ["125", "0", "-25", "0", "-15", "0", "45/7", "0", "-27", "0", "-81", "0", "729"],
    19: ["-162", "-27", "0", "27", "18", "9", "108/7", "15", "6", "-51", "-88", "-93", "-710"],
    20: ["0", "81", "0", "0", "0", "0", "-144/7", "0", "0", "0", "0", "-256", "0"],
    21: ["-185", "-12", "31", "44", "27", "20", "157/7", "12", "-17", "-76", "-105", "-148", "-701"],
    22: ["100", "125", "50", "15", "0", "-15", "-270/7", "-45", "-36", "-27", "-54", "-297", "-648"],
    23: ["192", "32", "-32", "0", "-16", "-8", "24/7", "8", "-20", "-6", "-58", "-68", "423"],
    24: ["-395", "-153", "-92", "-26", "24", "40", "304/7", "48", "64", "64", "0", "-128", "-512"],
    25: ["-537", "-205", "-133", "-123", "-89", "-41", "45/7", "41", "71", "123", "187", "205", "-57"],
    26: ["359", "141", "-1", "-21", "-33", "-39", "-207/7", "-9", "-9", "-27", "-81", "-189", "-81"],
    27: ["295", "-17", "-55", "-25", "-25", "-5", "31/7", "-5", "-25", "-25", "-55", "-17", "295"],
}

ALL_INDICES = tuple(range(1, 28))


def verify_forms_data() -> None:
    """Check the shipped forms.json against the embedded bracket table."""
    payload = json.loads(
        resources.files("gfe25").joinpath("data/forms.json").read_bytes())
    if {rec["index"]: rec["alphas"] for rec in payload} != _BRACKETS:
        raise NonIntegralResult("data/forms.json disagrees with embedded table")
    return True


@dataclass(frozen=True)
class EdwardsTriple:
    index: int
    h: BinaryForm
    g: BinaryForm
    f: BinaryForm

    def syzygy_holds(self) -> bool:
        """Whether f^2 + g^3 + h^5 = 0, by one evaluation at (X, 1).

        With ||F|| the sum of the absolute values of F's coefficients, so
        that ||FG|| <= ||F|| ||G||, every coefficient of P = f^2 + g^3 + h^5
        is an integer of absolute value at most B = ||f||^2 + ||g||^3 +
        ||h||^5.  Let X = B + 2.  If P != 0, then P(x, 1), which has P's
        coefficients, has some degree n and a leading coefficient of absolute
        value at least 1, so |P(X, 1)| >= X^n - B (X^n - 1) / (X - 1) =
        (X^n + X - 2) / (X - 1) > 0."""
        f, g, h = self.f, self.g, self.h
        if not (f.is_integral and g.is_integral and h.is_integral):
            raise ValueError("the syzygy test needs integer coefficients")
        X = 2 + sum(map(abs, f.coeffs))**2 + sum(map(abs, g.coeffs))**3 \
            + sum(map(abs, h.coeffs))**5
        return f.evaluate(X, 1)**2 + g.evaluate(X, 1)**3 \
            + h.evaluate(X, 1)**5 == 0


@lru_cache(maxsize=None)
def edwards_triple(i: int) -> EdwardsTriple:
    if i not in _BRACKETS:
        raise ValueError(f"index {i} out of range 1..27")
    alphas = [Fraction(s) for s in _BRACKETS[i]]
    h = build_form(alphas)
    if not h.is_integral:
        raise NonIntegralResult(f"h_{i} is not integral")
    g, f = derived_forms(h)
    return EdwardsTriple(i, h, g, f)


def evaluate_triple(i: int, u: int, v: int) -> tuple[int, int, int]:
    """Exact values (f_i, g_i, h_i)(u, v)."""
    t = edwards_triple(i)
    return (t.f.evaluate(u, v), t.g.evaluate(u, v), t.h.evaluate(u, v))


# ---------------------------------------------------------------------------
# Solutions of x^2 + y^3 = z^25
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    a: int
    b: int
    c: int
    z: int
    provenance: tuple  # (i, u, v, sign)

    @property
    def primitive(self) -> bool:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1


@dataclass(frozen=True)
class Reject:
    reason: str  # "NotFifthPower" | "NotCoprime"
    provenance: tuple


def assemble_solution(i: int, u: int, v: int, sign: int):
    """Solution for z^5 = -h_i(u, v), or a Reject with the reason.

    The stored c is h_i(u, v) itself, so a^2 + b^3 + c^5 = 0 and
    a^2 + b^3 = z^25 both hold verbatim.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if math.gcd(u, v) != 1:
        raise NotCoprime(f"gcd({u}, {v}) != 1")
    fval, gval, hval = evaluate_triple(i, u, v)
    z = poly.int_root(-hval, 5)
    if z is None:
        return Reject("NotFifthPower", (i, u, v, sign))
    return Solution(sign * fval, gval, hval, z, (i, u, v, sign))
