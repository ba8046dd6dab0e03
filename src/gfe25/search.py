"""Bounded-height rational point search on hyperelliptic models, and Mumford
membership checks on their Jacobians."""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels, poly


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = F(x) with F an integer polynomial (ascending coefficients)."""

    coeffs: tuple
    label: str = ""

    def __post_init__(self):
        if not (3 <= self.degree <= 10):
            raise ValueError("degree out of range 3..10")
        if not self._squarefree():
            raise ValueError("F is not squarefree")

    @property
    def degree(self):
        c = self.coeffs
        d = len(c) - 1
        while d > 0 and c[d] == 0:
            d -= 1
        return d

    @property
    def genus(self):
        return -(-self.degree // 2) - 1  # ceil(deg/2) - 1

    def F(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _squarefree(self):
        d = [k * i for i, k in enumerate(self.coeffs)][1:]
        return len(poly.gcd(self.coeffs, d)) == 1

    def infinity_points(self):
        d = self.degree
        lead = self.coeffs[d]
        if d % 2 == 1:
            return [InfinitePoint(0)]
        r = math.isqrt(lead) if lead > 0 else -1
        if r * r == lead:
            return [InfinitePoint(+1), InfinitePoint(-1)]
        return []


@dataclass(frozen=True, order=True)
class AffinePoint:
    x: Fraction
    y: Fraction

    def __str__(self):
        return f"({self.x}, {self.y})"


@dataclass(frozen=True, order=True)
class InfinitePoint:
    sign: int  # +1/-1 branches for even degree, 0 for the single odd-degree point

    def __str__(self):
        return {0: "inf", 1: "inf+", -1: "inf-"}[self.sign]


# ---------------------------------------------------------------------------
# rational point search

_BATCH = 1 << 15


def rational_points(model, H, prescreen=True):
    """All points of naive height <= H (|num(x)|, den(x) <= H), plus infinity.

    Exact arithmetic throughout; the optional modular prescreen only discards
    candidates, every reported point is verified against the curve equation."""
    if H < 1:
        raise ValueError("height bound must be >= 1")
    d = model.degree
    coeffs = [int(c) for c in model.coeffs[:d + 1]]
    odd = d % 2 == 1
    points = list(model.infinity_points())

    pairs = [(p, q) for q in range(1, H + 1)
             for p in range(-H, H + 1) if math.gcd(p, q) == 1]
    for start in range(0, len(pairs), _BATCH):
        chunk = pairs[start:start + _BATCH]
        if prescreen:
            mask = _kernels.prescreen(coeffs, [p for p, _ in chunk],
                                      [q for _, q in chunk], odd)
            chunk = [pq for pq, ok in zip(chunk, mask) if ok]
        for p, q in chunk:
            N = _homogeneous_value(coeffs, p, q)
            T = N * q if odd else N
            if T < 0:
                continue
            r = math.isqrt(T)
            if r * r != T:
                continue
            x = Fraction(p, q)
            y = Fraction(r, q ** ((d + 1) // 2))
            if y * y != model.F(x):
                raise ArithmeticError(f"({x}, {y}) does not satisfy y^2 = F(x)")
            points.append(AffinePoint(x, y))
            if y:
                points.append(AffinePoint(x, -y))
    infs = sorted((pt for pt in points if isinstance(pt, InfinitePoint)),
                  reverse=True)
    affs = sorted(set(pt for pt in points if isinstance(pt, AffinePoint)))
    return infs + affs


def _homogeneous_value(coeffs, p, q):
    """sum_k c_k p^k q^(d-k), Horner in p."""
    acc = coeffs[-1]
    qpow = 1
    for c in reversed(coeffs[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return acc


# ---------------------------------------------------------------------------

def mumford_check(model, a, b):
    """True iff b^2 - F = 0 mod a exactly (divisor (a, b) lies on the Jacobian)."""
    a = poly.trim(a)
    if not a or a[-1] != 1:
        raise ValueError("a(x) must be monic")
    if len(a) - 1 > model.genus:
        raise ValueError("deg a exceeds the genus")
    diff = poly.add(poly.mul(b, b), [-c for c in model.coeffs])
    return not poly.divmod(diff, a)[1]
