"""Modular prescreen kernel for the rational point search.

The search tests whether T = sum_k c_k p^k q^(d-k) (times q for odd degree)
is a perfect square.  A square is a square modulo every m, and T mod m
depends only on p mod m and q mod m.  So the kernel is a table sieve, as in
Stoll's ratpoints: no arithmetic per (p, q) pair.

- For each modulus m of MODULI, T is evaluated once on the m x m grid of
  (q mod m, p mod m), and the squares mod m are marked, except in the cells
  where a prime of m divides both q and p: the search keeps only coprime
  pairs.
- Grid row r, spread along the row of p values of the box (p mod m), is the
  pattern of every q = r mod m; it is packed into bits, one bit per p.
- The mask of a block of q values is the AND, over the moduli, of the packed
  rows at q mod m, unpacked once.

MODULI are pairwise coprime: 64, 63 = 9 * 7, 25 and the primes 11 to 43.
On the genus-2 curves y^2 = x^5 + 32000 and y^2 = x^5 + 8000 at height
1000 (2,001,000 box points each), 100 and 179 pairs pass them all (61 and
179 of them coprime; 429 and 513 with the shared-prime cells kept), against
10,775 and 10,758 (0.54%) for the moduli
63 * 64 * 65 and 11 * 13 * 17 * 19 * 23 of the int64 Horner prescreen that
this sieve replaced.  The kernel only discards; the caller checks every pair
it keeps exactly.

The tables depend on the coefficients and on the row of p values, so they
are built by the first call of a search and kept, one set at a time, for the
next blocks of the same search.  They take sum(MODULI) = 416 packed rows of
ceil(len(row) / 8) bytes.  The power and square tables of each modulus do
not depend on the curve and are kept once built.  Nothing is built at
import.
"""

import functools

import numpy as np

from . import poly

MODULI = (64, 63, 25, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_POWERS = 11  # exponents 0..10: T has degree <= 10, times q for odd degree


def active_backend():
    """Name of the prescreen implementation."""
    return "numpy"


@functools.cache
def _residue_tables(m):
    """t^j mod m for t < m and j < _POWERS, as an (m, _POWERS) float64
    array, and whether v mod m is a square, for v < _POWERS * m^2, as a
    boolean table; built on first use."""
    t = np.arange(m, dtype=np.int64)
    powers = np.ones((m, _POWERS), dtype=np.int64)
    for j in range(1, _POWERS):
        powers[:, j] = powers[:, j - 1] * t % m
    squares = np.zeros(m, dtype=np.bool_)
    squares[powers[:, 2]] = True
    squares = np.tile(squares, _POWERS * m)
    powers = powers.astype(np.float64)
    powers.flags.writeable = squares.flags.writeable = False
    return powers, squares


def _square_grid(coeffs, odd, m):
    """(m, m) boolean grid: whether T(p, q) is a square mod m and no prime
    of m divides both p and q, at row q mod m and column p mod m.

    T(p, q) = sum_k c_k p^k q^(e - k), with e = d, or d + 1 for odd degree,
    is one matrix product of the power tables, with c_k q^(e - k) reduced
    mod m first: its entries are integers below _POWERS * m^2, so float64
    holds them exactly and they index the square table directly.  A cell
    whose row and column a prime l of m both divide holds no pair with
    gcd(p, q) = 1, which is all the search keeps, so it is cleared."""
    powers, squares = _residue_tables(m)
    d = len(coeffs) - 1
    e = d + 1 if odd else d
    c = np.array([ck % m for ck in coeffs], dtype=np.float64)
    a = np.fmod(powers[:, e - d:e + 1][:, ::-1] * c, m)
    grid = squares[(a @ powers[:, :d + 1].T).astype(np.intp)]
    for l in poly.primes(2, m + 1):
        if m % l == 0:
            grid[::l, ::l] = False
    return grid


@functools.lru_cache(maxsize=1)
def _packed_rows(coeffs, odd, row_bytes):
    """The packed rows of every modulus, stacked: the (sum(MODULI), bytes)
    uint8 array whose row offset_m + r is grid row r of modulus m at the p
    values of the row, one bit per p; and the offsets."""
    row = np.frombuffer(row_bytes, dtype=np.int64)
    width = -(-row.size // 8)
    # columns past the row pad it to whole bytes, so that a grid's rows pack
    # as one flat array; unpacking drops them again
    columns = np.zeros(8 * width, dtype=np.intp)
    blocks = []
    for m in MODULI:
        columns[:row.size] = row % m
        grid = _square_grid(coeffs, odd, m)
        blocks.append(np.packbits(grid[:, columns]).reshape(m, width))
    packed = np.concatenate(blocks)
    packed.flags.writeable = False
    offsets = np.cumsum((0,) + MODULI[:-1])
    return packed, offsets


def prescreen(coeffs, row, qs, odd):
    """(len(qs), len(row)) boolean mask: whether T(p, q) is a square mod
    every modulus and no prime of a modulus divides both p and q, at
    q = qs[i] and p = row[j].

    coeffs are ints (ascending, any size); row and qs are integer arrays."""
    row = np.ascontiguousarray(row, dtype=np.int64)
    qs = np.asarray(qs, dtype=np.int64)
    packed, offsets = _packed_rows(tuple(int(c) for c in coeffs), odd,
                                   row.tobytes())
    moduli = np.array(MODULI)[:, None]
    bits = np.bitwise_and.reduce(packed[offsets[:, None] + qs % moduli])
    return np.unpackbits(bits, axis=1, count=row.size).view(np.bool_)
