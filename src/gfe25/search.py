"""Bounded-height rational point search on hyperelliptic models, and Mumford
membership checks on their Jacobians."""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, poly
from .bforms import BinaryForm


# 2 and 5 settle none of the verdict's models (5 divides the discriminant
# 5^5 c^4 of every y^2 = x^5 + c); 3, 7 or 11 settles each of them
_SQUAREFREE_PRIMES = (3, 7, 11, 13, 17)


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = F(x) with F an integer polynomial (ascending coefficients)."""

    coeffs: tuple
    label: str = ""

    def __post_init__(self):
        if not all(isinstance(c, numbers.Integral) for c in self.coeffs):
            raise ValueError("F must have integer coefficients")
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
        d = self.degree
        form = BinaryForm(d, tuple(int(c) for c in self.coeffs[:d + 1]))
        return form.evaluate(x, 1)

    def _squarefree(self):
        """Whether F is squarefree over Q.  If F = g^2 k with deg g > 0, then
        g and k can be taken in Z[x] (Gauss's lemma), so at a prime p not
        dividing lc(F), g keeps its degree and divides F and F' mod p.  So
        gcd(F, F') = 1 mod p proves F squarefree; the gcd over Q decides
        only where no prime of _SQUAREFREE_PRIMES does."""
        F = poly.trim(map(int, self.coeffs))
        dF = [k * c for k, c in enumerate(F)][1:]
        for p in _SQUAREFREE_PRIMES:
            if F[-1] % p and len(poly.gcd_mod(F, dF, p)) == 1:
                return True
        return len(poly.gcd(F, dF)) == 1

    def infinity_points(self):
        if self.degree % 2 == 1:
            return [InfinitePoint(0)]
        if poly.int_root(int(self.coeffs[self.degree]), 2) is not None:
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

_BATCH = 1 << 15  # box points per block; a block is always whole q-rows


def rational_points(model, H):
    """All points of naive height <= H (|num(x)|, den(x) <= H), plus infinity.

    The box |p| <= H, 1 <= q <= H is walked in blocks of whole q-rows, about
    _BATCH pairs and at least one row each.  `_kernels.prescreen` returns a
    block's boolean mask from its packed residue tables, which it builds on
    the first block, so memory is bounded by the block and the tables, not
    by H^2.  The kernel only discards.  Its survivors are tested for
    gcd(p, q) = 1 and then, as Python ints, for an exact square root of the
    homogeneous value; every point found is checked against y^2 = F(x) in
    exact rationals."""
    if H < 1:
        raise ValueError("height bound must be >= 1")
    d = model.degree
    coeffs = [int(c) for c in model.coeffs[:d + 1]]
    form = BinaryForm(d, tuple(coeffs))
    odd = d % 2 == 1
    points = list(model.infinity_points())

    row = np.arange(-H, H + 1, dtype=np.int64)
    rows = max(1, _BATCH // row.size)
    for q0 in range(1, H + 1, rows):
        q_block = np.arange(q0, min(q0 + rows, H + 1), dtype=np.int64)
        mask = _kernels.prescreen(coeffs, row, q_block, odd)
        qi, pi = np.divmod(np.flatnonzero(mask), row.size)
        ps, qs = row[pi], q_block[qi]
        coprime = np.gcd(ps, qs) == 1
        for p, q in zip(ps[coprime].tolist(), qs[coprime].tolist()):
            N = form.evaluate(p, q)
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
