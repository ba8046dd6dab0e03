"""Irreducibility hypotheses of the Frey representations attached to
a^2 + b^3 = c^25, and the mod-8/mod-9 congruence scans that check them.

The target-curve correspondence (Cremona labels, twist sets, +/- types,
including the "-" type of i = 22) is imported reference data in
data/itoW.json; this module recomputes the scans and the hypothesis check.
"""

import json
from dataclasses import dataclass
from importlib import resources

from .bforms import evaluate_triple
from .descent import SEXTIC_INDICES


# two sufficient conditions for the absolute irreducibility of the mod-p
# Frey representations: (i) a even or b not in {0, -1, 4} mod 8; (ii) a not
# +-1 mod 9 or b not -1 mod 3
def _cond_i(a, b):
    return a % 2 == 0 or b % 8 not in (0, 7, 4)


def _cond_ii(a, b):
    return a % 9 not in (1, 8) or b % 3 != 2


@dataclass
class CongruenceScan:
    i: int
    mod8_pairs: set  # (a mod 4, b mod 8) over both signs of f
    mod9_pairs: set  # (a mod 9, b mod 3) over both signs of f
    all_hypotheses_hold: bool


def congruence_scan(i):
    """Scan (u, v) mod 8 (not both even) and mod 9 (not both divisible by 3)
    for the pairs (a, b) = (+-f_i, g_i) and check that the irreducibility
    hypotheses hold on every combined class mod 72."""
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
    # (i) depends on (a, b) mod (4, 8) and (ii) on (a, b) mod (9, 3), so by
    # CRT "(i) or (ii)" holds on every class mod 72 iff (i) holds on every
    # class mod 8 or (ii) on every class mod 9
    all_hold = (all(_cond_i(a, b) for a, b in mod8)
                or all(_cond_ii(a, b) for a, b in mod9))
    return CongruenceScan(i, mod8, mod9, all_hold)


def ito_w_rows():
    """Imported correspondence table (curve labels, twist sets, +/- types)."""
    text = resources.files("gfe25").joinpath("data/itoW.json").read_text()
    return json.loads(text)["rows"]
