"""Search for unit generators of the five sextic coefficient fields.

Prints one JSON object that maps each field "K{i}" to an object in the
format of src/gfe25/data/units/K{i}.json.  The bundled files came from an
earlier run; this script does not regenerate them and writes no file.  The
package never runs it: descent.verify_unit_data certifies each bundled file
when it is read.  A fresh run need not print the bundled generators (a unit
may come out negated, or another basis of the same group), and copying its
output over a bundled file would change every report's data digest and
cache key.

Needs sympy (Matrix.nullspace), which the package's test extra supplies:

    pip install -e .[test]
    python scripts/find_units.py

Finds three multiplicatively independent units in each sextic coefficient
field by collecting elements with {2,3,5}-smooth norms, assigning prime-ideal
valuation vectors (skipping elements where the split is ambiguous), and
forming products along integer kernel vectors of the valuation matrix.
Every candidate is verified exactly (integral, norm +-1); independence is
certified by the rank mod 5 of the fifth-power-class images at split primes
q = 1 mod 5, computed by the same descent._generator_classes and
descent._rank_mod5 that the package uses to re-check the data on loading.

For fields where the equation order Z[theta] is not maximal (K5 has index
2^3 3^2, so its units have denominator-6 power-basis coordinates and every
Z[theta]-based search misses them), a fallback enumerates small coordinates
over an integral basis of the maximal order and forms quotients of
equal-norm smooth elements, testing integrality in the maximal order.
"""

import itertools
import json
import pathlib
import sys
import warnings

import numpy as np
import sympy as sp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
from gfe25 import algebra as alg, descent, poly  # noqa: E402

SMOOTH = (2, 3, 5)


def smooth_factor(n):
    n = abs(n)
    vec = []
    for p in SMOOTH:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        vec.append(a)
    return vec if n == 1 else None


def pool(K, bound=3, keep=3000):
    pows = np.array([K.embeddings()**k for k in range(6)])
    rng = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*[rng] * 6, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    vals = coords.astype(complex) @ pows
    absn = np.abs(np.prod(vals, axis=1))
    absn[np.all(coords == 0, axis=1)] = np.inf
    order = np.argsort(absn)[:keep]
    out = []
    for idx in order:
        c = tuple(int(x) for x in coords[idx])
        e = K.element(c)
        n = int(e.norm())
        f = smooth_factor(n)
        if f is not None:
            out.append((e, n, f))
    return out


def valuation_vector(K, splits, e, nvec):
    """Valuations of (e) at all primes above 2,3,5, or None if ambiguous."""
    vec = []
    for p, rs in zip(SMOOTH, splits):
        a = nvec[SMOOTH.index(p)]
        degs = [fq.f for fq in rs]
        zero = []
        for fq in rs:
            try:
                zero.append(not any(fq.reduce(e)))
            except ValueError:
                return None
        if a == 0:
            if any(zero):
                return None  # index-divisor artifact; drop
            vec.extend([0] * len(degs))
            continue
        live = [j for j, z in enumerate(zero) if z]
        if len(live) == 1:
            j = live[0]
            f = degs[j]
            if a % f:
                return None
            vec.extend(a // f if k == j else 0 for k in range(len(degs)))
        else:
            return None
    return vec


def kernel_units(K, rows):
    elems = [r[0] for r in rows]
    M = sp.Matrix([r[1] for r in rows])
    null = M.T.nullspace()
    units = []
    for v in null:
        den = sp.lcm([x.q for x in v])
        iv = [int(x * den) for x in v]
        g = 0
        for x in iv:
            g = sp.gcd(g, x)
        if g:
            iv = [x // int(g) for x in iv]
        if max(abs(x) for x in iv) > 12:
            continue
        u = K.one
        for e, n in zip(elems, iv):
            if n > 0:
                u = u * e**n
            elif n < 0:
                u = u * (e.inverse() ** (-n))
        if u.is_integral and u.norm() in (1, -1) and not u.is_rational():
            units.append(u)
    return units


def class_rows(units, qs):
    """The fifth-power classes of each unit at the primes qs, the ones
    verify_unit_data certifies; a unit vanishing at one ends the list."""
    rows = []
    for e in units:
        try:
            vec = np.hstack([descent._generator_classes([e], rs)
                             for _, rs in qs])
        except alg.ZeroInput:
            return rows + [None]
        rows.append(vec[0].tolist())
    return rows


def rank5(rows):
    return descent._rank_mod5([r for r in rows if r])


def pick_independent(units, qs):
    rows = class_rows(units, qs)
    chosen, sel = [], []
    for u, row in zip(units, rows):
        if row is None:
            continue
        if rank5(sel + [row]) == len(sel) + 1:
            sel.append(row)
            chosen.append(u)
        if len(chosen) == 3:
            return chosen
    return None


def cert_primes(K, count=3):
    """The first count primes q > 7 that check_sieve_primes accepts for K,
    each with its residue fields."""
    out = []
    for q in poly.primes(8, 1000):
        try:
            descent.check_sieve_primes([q], K)
        except descent.IndexRisk:
            continue
        out.append((q, alg.residue_split(K, q)))
        if len(out) == count:
            return out
    raise ValueError(f"fewer than {count} certification primes below 1000")


def enrich(units, cap=200):
    seen = set(units)
    basis = list(units)
    for a, b in itertools.combinations(basis, 2):
        for u in (a * b, a * b.inverse()):
            if u.is_integral and not u.is_rational() and u not in seen:
                seen.add(u)
        if len(seen) > cap:
            break
    return sorted(seen, key=lambda u: max(abs(c.numerator) for c in u.coords))


def maximal_order_units(K, bound=4, norm_cap=3000):
    """Quotient search over an integral basis of the maximal order."""
    order = alg.maximal_order(K)
    # basis element j in power-basis coordinates is column j of matrix/denom
    pows = np.array([K.embeddings()**k for k in range(6)])
    basis_emb = np.array([[sum(order.matrix[i][j] / order.denom * pows[i, r]
                               for i in range(6))
                           for r in range(6)] for j in range(6)])
    rng = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*[rng] * 6, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    absn = np.abs(np.prod(coords.astype(complex) @ basis_emb, axis=1))
    absn[np.all(coords == 0, axis=1)] = np.inf
    groups = {}
    for idx in np.where(absn < norm_cap)[0]:
        e = order.element(coords[idx])
        n = int(e.norm())
        if n != 0 and smooth_factor(n) is not None:
            groups.setdefault(n, []).append(e)
    units = set()
    for n, els in groups.items():
        if abs(n) == 1:
            units.update(e for e in els if not e.is_rational())
            continue
        base = els[0]
        for e in els[1:]:
            q = e * base.inverse()
            if order.coords(q) is not None and not q.is_rational() \
                    and order.coords(q.inverse()) is not None:
                assert q.norm() in (1, -1)
                units.add(q)
    return sorted(units,
                  key=lambda u: max(abs(c.numerator) for c in u.coords))


def main():
    warnings.simplefilter("ignore")
    out = {}
    for rep in (5, 6, 16, 22, 24):
        K = alg.coefficient_field(rep)
        splits = [alg.residue_split(K, p) for p in SMOOTH]
        qs = cert_primes(K)
        found = []
        for bound, keep in ((3, 3000), (4, 8000)):
            rows = []
            for e, n, f in pool(K, bound, keep):
                if abs(n) == 1:
                    if not e.is_rational():
                        found.append(e)
                    continue
                vv = valuation_vector(K, splits, e, f)
                if vv is not None:
                    rows.append((e, vv))
            found.extend(kernel_units(K, rows[:60]))
            found = enrich(set(found))
            gens = pick_independent(found, qs)
            if gens:
                break
        if not gens:
            gens = pick_independent(maximal_order_units(K), qs)
        if not gens:
            print(f"K{rep}: FAILED (found {len(found)} units, rank "
                  f"{rank5(class_rows(found, qs))})", file=sys.stderr)
            continue
        out[f"K{rep}"] = {
            "generators": [[str(c) for c in g.coords] for g in gens],
            "certPrimes": [q for q, _ in qs],
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
