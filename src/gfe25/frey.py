"""Frey curves attached to a^2 + b^3 = c^25, irreducibility hypothesis checks,
the mod-8/mod-9 congruence scans, and the multiplicative symplectic criterion.

The target-curve correspondence (Cremona labels, twist sets, +/- types) is
imported reference data in data/itoW.json; this module recomputes the parts
that are recomputable: the scans, the hypothesis check, and the valuation
ratio criterion used for i = 22.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .bforms import evaluate_triple
from .descent import SEXTIC_INDICES


class SingularCurve(Exception):
    pass


class BadInput(Exception):
    pass


@dataclass(frozen=True)
class ShortWeierstrass:
    """y^2 = x^3 + A x + B."""

    A: Fraction
    B: Fraction

    @property
    def c4(self):
        return -48 * self.A

    @property
    def c6(self):
        return -864 * self.B

    @property
    def discriminant(self):
        return -16 * (4 * self.A**3 + 27 * self.B**2)

    def __post_init__(self):
        if self.discriminant == 0:
            raise SingularCurve(f"A={self.A}, B={self.B}")


def frey_curve(a, b):
    """E_{a,b}: y^2 = x^3 + 3b x - 2a, with discriminant -1728(a^2 + b^3)."""
    if a * a + b**3 == 0:
        raise SingularCurve(f"a={a}, b={b}")
    return ShortWeierstrass(Fraction(3 * b), Fraction(-2 * a))


def irred_hypotheses(a, b):
    """Which sufficient condition for absolute irreducibility of the mod-p
    Frey representations holds: (i) a even or b not in {0, -1, 4} mod 8;
    (ii) a not +-1 mod 9 or b not -1 mod 3.  Returns {holds, via}."""
    cond_i = a % 2 == 0 or b % 8 not in (0, 7, 4)
    cond_ii = a % 9 not in (1, 8) or b % 3 != 2
    via = "(i)" if cond_i else ("(ii)" if cond_ii else "none")
    return {"holds": cond_i or cond_ii, "via": via}


@dataclass
class CongruenceScan:
    i: int
    mod8_pairs: set  # (a mod 4, b mod 8) over both signs of f
    mod9_pairs: set  # (a mod 9, b mod 3) over both signs of f
    all_hypotheses_hold: bool


def congruence_scan(i):
    """Scan (u, v) mod 8 (not both even) and mod 9 (not both divisible by 3)
    for the pairs (a, b) = (+-f_i, g_i) and check the irreducibility
    hypotheses on every combined class mod 72."""
    if i not in SEXTIC_INDICES:
        raise ValueError(f"i={i} is not one of the irreducible-type indices")
    mod8 = set()
    for u in range(8):
        for v in range(8):
            if u % 2 == 0 and v % 2 == 0:
                continue
            f, g, _ = evaluate_triple(i, u, v)
            for s in (1, -1):
                mod8.add((s * f % 4, g % 8))
    mod9 = set()
    for u in range(9):
        for v in range(9):
            if u % 3 == 0 and v % 3 == 0:
                continue
            f, g, _ = evaluate_triple(i, u, v)
            for s in (1, -1):
                mod9.add((s * f % 9, g % 3))
    all_hold = True
    for u in range(72):
        for v in range(72):
            if (u % 2 == 0 and v % 2 == 0) or (u % 3 == 0 and v % 3 == 0):
                continue
            f, g, _ = evaluate_triple(i, u, v)
            for s in (1, -1):
                if not irred_hypotheses(s * f, g)["holds"]:
                    all_hold = False
    return CongruenceScan(i, mod8, mod9, all_hold)


def symplectic_ratio(vE, vW):
    """Multiplicative-reduction symplectic criterion from discriminant
    valuations: symplectic iff vE/vW is a nonzero square mod 5."""
    if vW % 5 == 0:
        raise BadInput("vW must be nonzero mod 5")
    if vE % 5 == 0:
        return "inconclusive"
    ratio = vE * pow(vW, -1, 5) % 5
    return "symplectic" if ratio in (1, 4) else "antisymplectic"


def ito_w_rows():
    """Imported correspondence table (curve labels, twist sets, +/- types)."""
    text = resources.files("gfe25").joinpath("data/itoW.json").read_text()
    return json.loads(text)["rows"]
