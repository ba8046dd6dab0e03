"""p-adic fifth-power tests and the residue-class sieve.

For each equation C_i : z^5 = -h_i(u,v) we ask which classes of coprime
p-adic pairs (u, v) can support a solution that is also primitive
(f_i, g_i, h_i not all divisible by p).  The sieve refines residue classes
of the ratio between the coordinates until the p-adic valuation of h_i is
pinned down on the whole class; a class dies when that valuation is not a
multiple of 5, or when the entire triple vanishes mod p on it.

One depth-first walk of the class tree does all of it: each class is
decided or split into its p children, and on the way back up it reports
whether it keeps a survivor.  A class whose p children all keep one is
reported whole, so the walk also yields the coarsest stable cover of the
survivors.  Below that, a surviving leaf at the depth cap is reported on
its own, and if it is undecided the depth is exhausted there.

Classes are reported in the two shapes used by the regression fixture:
"(p^k u + r, 1)" (second coordinate a unit) and "(1, p^k v + r)" (first
coordinate a unit).
"""

import json
from dataclasses import dataclass
from importlib import resources

from .bforms import evaluate_triple

# fifth powers among units mod 25; a 5-adic unit is a fifth power iff its
# residue mod 25 lands in this set (one Hensel step past mod 5 suffices:
# (1+5t)^5 = 1 + 25(...) so the criterion stabilizes at 5^2)
FIFTH_POWER_UNITS_MOD25 = {1, 7, 18, 24}

DEFAULT_DEPTH = {2: 7, 3: 5, 5: 4}


class DepthExhausted(Exception):
    """A class could not be decided or stabilized within maxDepth."""

    def __init__(self, classes, message="sieve depth exhausted"):
        self.classes = list(classes)
        super().__init__(f"{message}: {', '.join(str(c) for c in self.classes)}")


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, order=True)
class ResidueClass:
    """Constraint (non-unit coordinate)/(unit coordinate) ≡ residue mod modulus.

    unit_slot "second" means v is the unit: pairs (p^k t + r, 1).
    unit_slot "first" means u is the unit: pairs (1, p^k t + r).
    """

    unit_slot: str
    modulus: int
    residue: int

    def __str__(self):
        m, r = self.modulus, self.residue
        if self.unit_slot == "second":
            var = "u"
            shape = "({}, 1)"
        else:
            var = "v"
            shape = "(1, {})"
        if m == 1:
            inner = var
        elif r == 0:
            inner = f"{m}{var}"
        else:
            inner = f"{m}{var}+{r}"
        return shape.format(inner)

    def pair_mod(self, pk):
        """Representative (u, v) pairs mod pk covered by this class."""
        step = min(self.modulus, pk) if self.modulus > 1 else 1
        for r in range(self.residue % step, pk, step):
            if self.unit_slot == "second":
                yield (r, 1)
            else:
                yield (1, r)


@dataclass
class SieveResult:
    classes: list          # reported ResidueClass list (coarsest stable cover)
    excluded: list         # (ResidueClass, reason)
    accepted: list         # classes with valuation pinned to a multiple of 5
    undecided: list        # leaves at maxDepth with no verdict
    exhausted: list        # undecided classes that the cover reports


def _sieve_chart(i, p, chart, depth):
    """Refine one chart of C_i in a single walk of its class tree.

    Returns (excluded, accepted, undecided, cover, exhausted): excluded holds
    (ResidueClass, reason) pairs, the rest are ResidueClass lists.  cover is
    the coarsest stable cover of the survivors: a class is reported once all
    p of its children keep a survivor, or when it is a surviving leaf at the
    depth cap.  exhausted holds the undecided classes that the cover reports,
    or every undecided class when nothing in the chart was decided.
    """
    excluded, accepted, undecided, cover = [], [], [], []

    def rec(r, k):
        # True iff the class r mod p^k keeps a survivor; appends its cover
        cls = ResidueClass(chart, p**k, r)
        pair = (r, 1) if chart == "second" else (1, r)
        f, g, h = evaluate_triple(i, *pair)
        if k >= 1 and f % p == 0 and g % p == 0 and h % p == 0:
            excluded.append((cls, "NotPrimitive"))
            return False
        if h != 0:
            v = vp(-h, p)
            if v < k:
                # valuation constant on the whole class
                if v % 5 != 0:
                    excluded.append((cls, "ValuationNotMultipleOf5"))
                    return False
                if p != 5 or v + 2 <= k:
                    # at p = 5 the unit part is pinned mod 25 as well
                    if p == 5 and ((-h) // p**v % 25
                                   not in FIFTH_POWER_UNITS_MOD25):
                        excluded.append((cls, "ValuationNotMultipleOf5"))
                        return False
                    accepted.append(cls)
                    cover.append(cls)
                    return True
        if k == depth:
            undecided.append(cls)
            cover.append(cls)
            return True
        mark = len(cover)
        alive = [rec(r + j * p**k, k + 1) for j in range(p)]
        if all(alive):
            # every child keeps a survivor: report the class whole
            cover[mark:] = [cls]
        return any(alive)

    # the u-unit chart holds the pairs (1, v) with p | v
    rec(0, 0 if chart == "second" else 1)
    if excluded or accepted:
        undecided_set = set(undecided)
        exhausted = [c for c in cover if c in undecided_set]
    else:
        # nothing was determined in a chart that still has survivors:
        # the depth is clearly below what the refinement needs
        exhausted = undecided
    return excluded, accepted, undecided, cover, exhausted


def _sieve(i, p, depth):
    """_sieve_chart's five lists for the v-unit chart, then the u-unit one."""
    return [a + b for a, b in zip(_sieve_chart(i, p, "second", depth),
                                  _sieve_chart(i, p, "first", depth))]


def _merge_full_unit_chart(p, classes):
    """(pu+1,1)...(pu+p-1,1) together with (1, pv) is exactly 'u is a unit',
    which the fixture writes as the single class (1, v).  The fixture only
    collapses this way at p = 2; at p = 3 it keeps the finer classes."""
    if p != 2:
        return sorted(set(classes))
    ring = {ResidueClass("second", p, r) for r in range(1, p)}
    full_first = ResidueClass("first", p, 0)
    s = set(classes)
    if ring <= s and full_first in s:
        s -= ring
        s.discard(full_first)
        s.add(ResidueClass("first", 1, 0))
    return sorted(s)


def sieve_residue_classes(i, p, max_depth=None, strict=True):
    """Non-excluded residue classes for C_i at p ∈ {2, 3} (SieveResult)."""
    depth = DEFAULT_DEPTH[p] if max_depth is None else max_depth
    excluded, accepted, undecided, cover, exhausted = _sieve(i, p, depth)
    result = SieveResult(_merge_full_unit_chart(p, cover), excluded,
                         accepted, undecided, exhausted)
    if strict and exhausted:
        raise DepthExhausted(exhausted)
    return result


def five_adic_classes(i):
    """Classes mod 25 compatible with a 5-adically primitive solution of C_i."""
    _excluded, accepted, undecided, _cover, _exhausted = _sieve(
        i, 5, DEFAULT_DEPTH[5])
    out = set()
    for c in accepted + undecided:
        step = min(c.modulus, 25)
        out.update(ResidueClass(c.unit_slot, 25, r)
                   for r in range(c.residue % step, 25, step))
    return sorted(out, key=lambda c: (c.unit_slot == "first", c.residue))


def valuation_profile(form, p, classes, depth):
    """Set of attainable v_p(form(u,v)) on the classes, as (value, determined)
    pairs; undetermined entries are (cap, False) leaves at the depth cap."""
    profile = set()

    def rec(cls, r, k):
        u, v = (r, 1) if cls.unit_slot == "second" else (1, r)
        val = form.evaluate(u, v)
        if val != 0:
            w = vp(val, p)
            if w < k:
                profile.add((w, True))
                return
        if k >= depth:
            profile.add((k, False))
            return
        for j in range(p):
            rec(cls, r + j * p**k, k + 1)

    for cls in classes:
        k0 = 0
        m = cls.modulus
        while p**k0 < m:
            k0 += 1
        rec(cls, cls.residue, k0)
    return profile


def expected_table5():
    """Regression fixture: row i -> {2: set of class strings, 3: ...}."""
    text = resources.files("gfe25").joinpath("data/expected/expected_table5.json").read_text()
    raw = json.loads(text)
    return {int(i): {int(p): set(v) for p, v in row.items()} for i, row in raw.items()}


def verify_table5(i, p, want):
    """Compare the sieve's classes for (i, p) with want, the fixture's set of
    class strings (expected_table5()[i][p]); returns (ok, got, want)."""
    got = {str(c) for c in sieve_residue_classes(i, p).classes}
    return got == want, got, want
