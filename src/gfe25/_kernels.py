"""Modular prescreen kernel for the rational point search.

The search tests whether N = sum_k c_k p^k q^(d-k) (times q for odd degree)
is a perfect square.  Almost all candidates fail already modulo
M = 63 * 64 * 65 = 262080, whose square residues make up ~3.5% of classes,
so the hot loop only does modular Horner evaluation, vectorized with numpy,
against a residue table.
"""

import numpy as np

MODULUS = 63 * 64 * 65  # pairwise-coprime smooth moduli folded into one


def _square_table(mod):
    t = np.zeros(mod, dtype=np.bool_)
    r = np.arange(mod // 2 + 1, dtype=np.int64)
    t[(r * r) % mod] = True
    return t


_SQ = _square_table(MODULUS)


def active_backend():
    """Name of the prescreen implementation."""
    return "numpy"


def prescreen(coeffs, ps, qs, odd):
    """Boolean mask: candidate (p, q) pairs whose square test survives mod M.

    coeffs are plain ints (ascending)."""
    mod = MODULUS
    cm = [c % mod for c in coeffs]
    ps = np.asarray(ps, dtype=np.int64) % mod
    qs = np.asarray(qs, dtype=np.int64) % mod
    acc = np.full(ps.shape, cm[-1], dtype=np.int64)
    qpow = np.ones_like(ps)
    for k in range(len(cm) - 2, -1, -1):
        qpow = (qpow * qs) % mod
        acc = (acc * ps + cm[k] * qpow) % mod
    if odd:
        acc = (acc * qs) % mod
    return _SQ[acc]
