"""Exact univariate polynomial arithmetic and exact integer roots.

A polynomial is a list of coefficients in ascending powers of x, and the zero
polynomial is [].  The module provides:

* over a field, on ints and Fractions (over Q) or on any field elements with
  + - * / and truth, such as number-field elements: ring operations,
  division with remainder, the Euclidean and extended Euclidean algorithms
  (Cohen, "A Course in Computational Algebraic Number Theory", 3.1-3.2) and
  the Euclidean resultant (Cohen, 3.3); results carry no trailing zeros;
* over Z, exact division: the quotient in Z[x], or None as soon as a
  coefficient shows that there is none;
* powers by square-and-multiply in any ring, given its product and one;
* modulo an integer m, on ints only: products, and division by a monic
  polynomial whose remainder is a residue vector of exactly deg(divisor)
  entries in [0, m); powers in (Z/m)[y]/(g), and products there of the rows
  of two integer arrays;
* factorization modulo a prime p (Cohen, GTM 138, 3.4): a squarefree
  decomposition that takes p-th roots where the derivative vanishes, then
  distinct-degree factorization by the Frobenius rows, then a deterministic
  Cantor-Zassenhaus equal-degree split; and quadratic Hensel steps that
  lift a coprime factorization modulo p to one modulo p^(2^k);
* the number of real roots over Q, by Sturm's theorem;
* exact k-th roots of integers and Fractions, and the primes: a sieve,
  trial division, and the prime factors up to a bound.

This module imports nothing from the package.
"""

import math
from fractions import Fraction
from itertools import zip_longest


def trim(a):
    """a as a new list without trailing zero coefficients."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b):
    return trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def divmod(a, b):
    """(q, r) with a == q*b + r and deg r < deg b, over a field."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    # no inverse is needed for a monic divisor, or when a is already reduced
    inv = None if b[-1] == 1 or len(r) <= db else Fraction(1) / b[-1]
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] if inv is None else r[k] * inv
        if c:
            q[k - db] = c
            for j in range(db):
                r[k - db + j] -= c * b[j]
    return trim(q), trim(r[:db])


def quotient_z(a, b):
    """The q in Z[x] with a == q*b, for integer a and nonzero integer b, or
    None when b does not divide a in Z[x].

    A quotient in Z[x] has q(0) b(0) = a(0), so b(0) must divide a(0); then
    each step of the long division from the top needs lc(b) to divide the
    leading coefficient left, and the division stops at the first that it
    does not."""
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if a[0] % b[0] if b[0] else a[0]:
        return None
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k] % b[-1]:
            return None
        c = a[k] // b[-1]
        if c:
            q[k - db] = c
            for j in range(db):
                a[k - db + j] -= c * b[j]
    return None if any(a[:db]) else trim(q)


def gcd(a, b):
    """The monic gcd over Q, or [] when a and b are both zero."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod(a, b)[1]
    return _scaled(a, Fraction(1) / a[-1]) if a else []


def gcdext(a, b):
    """(g, s, t) with s*a + t*b == g and g = gcd(a, b) monic, over Q."""
    r0, r1 = trim(a), trim(b)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = divmod(r0, r1)
        q = [-c for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul(q, s1))
        t0, t1 = t1, add(t0, mul(q, t1))
    if not r0:
        return [], s0, t0
    inv = Fraction(1) / r0[-1]
    return _scaled(r0, inv), _scaled(s0, inv), _scaled(t0, inv)


def resultant(a, b):
    """Res(a, b) over a field; the degrees are those of a and b without
    trailing zeros, and Res is 0 when either is zero.

    For monic a this is the norm of b from K[x]/(a) to K."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return 0
    res = 1
    while len(b) > 1:
        # Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
        # for r = a mod b
        r = divmod(a, b)[1]
        if not r:
            return 0 * b[-1]
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def _scaled(a, c):
    return [x * c for x in a]


def count_real_roots(a):
    """The number of distinct real roots of a nonzero polynomial over Q, by
    Sturm's theorem: the sign changes of the Sturm sequence a, a', -rem,
    ... at -infinity less those at +infinity, read off the leading
    coefficients."""
    seq = [trim(a), trim([k * c for k, c in enumerate(a)][1:])]
    while seq[-1]:
        seq.append([-c for c in divmod(seq[-2], seq[-1])[1]])
    seq.pop()

    def changes(signs):
        return sum(x * y < 0 for x, y in zip(signs, signs[1:]))

    return changes([f[-1] * (-1) ** (len(f) - 1) for f in seq]) \
        - changes([f[-1] for f in seq])


def power(base, e, one, mul):
    """base^e for e >= 0 by square-and-multiply, with no squaring past the
    top bit; mul is the ring's product and one its identity."""
    out = one
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


# ---------------------------------------------------------------------------
# modulo m (ints only)

def mul_mod(a, b, m):
    """a*b with every coefficient reduced into [0, m); len(a)+len(b)-1 entries."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % m for c in out]


def divmod_mod(a, b, m):
    """(q, r) with a == q*b + r mod m, for b monic mod m.

    r has exactly deg b entries and q at least one, all in [0, m)."""
    db = len(b) - 1
    r = list(a) + [0] * (db - len(a))
    q = [0] * max(1, len(r) - db)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] % m
        if c:
            q[k - db] = c
            for j in range(db):
                r[k - db + j] -= c * b[j]
    return q, [c % m for c in r[:db]]


def pow_mod(a, e, g, m):
    """a^e in (Z/m)[y]/(g) for g monic mod m and e >= 0; a residue vector of
    deg g entries in [0, m)."""
    return power(divmod_mod(a, g, m)[1], e, divmod_mod([1], g, m)[1],
                 lambda x, y: divmod_mod(mul_mod(x, y, m), g, m)[1])


def mul_rows_mod(a, b, g, m):
    """Row-by-row products in (Z/m)[y]/(g) of two (n, f) integer arrays with
    entries in [0, m), for g monic of degree f; an (n, f) array in [0, m).

    A product coefficient sums at most f products of residues, so the arrays
    are int64; ValueError when f * m^2 >= 2^63, where they could overflow."""
    import numpy as np

    f = len(g) - 1
    if f * m * m >= 2**63:
        raise ValueError(f"int64 rows overflow for degree {f} modulo {m}")
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    low = np.array([c % m for c in g[:f]], dtype=np.int64)
    out = np.zeros((len(a), 2 * f - 1), dtype=np.int64)
    for k in range(f):
        out[:, k:k + f] += a[:, k:k + 1] * b
    out %= m
    for k in range(2 * f - 2, f - 1, -1):
        # y^f = -(g_0 + ... + g_(f-1) y^(f-1))
        out[:, k - f:k] = (out[:, k - f:k] - out[:, k:k + 1] * low) % m
    return out[:, :f]


def frobenius_rows(g, p):
    """The rows (y^k)^p in F_p[y]/(g), k < deg g, for g monic mod p: a^p is
    the row a times this matrix, an (f, f) integer array for f = deg g.

    Multiplication by y is the companion matrix C (row i is y^(i+1)), so
    multiplication by y^p is C^p, by square-and-multiply, and row k is row
    k - 1 times C^p.  The entries are int64 while f p^2 < 2^63, which
    bounds every sum of products, and Python ints past that."""
    import numpy as np

    f = len(g) - 1
    dtype = np.int64 if f * p * p < 2**63 else object
    companion = np.zeros((f, f), dtype=dtype)
    companion[range(f - 1), range(1, f)] = 1
    companion[f - 1] = [-c % p for c in g[:f]]
    one = np.eye(f, dtype=dtype)
    yp = power(companion, p, one, lambda a, b: a @ b % p)
    rows = [one[0]]
    for _ in range(f - 1):
        rows.append(rows[-1] @ yp % p)
    return np.array(rows)


# ---------------------------------------------------------------------------
# factorization over F_p (Cohen, GTM 138, 3.4): trimmed residue lists

def _monic(a, p):
    """a mod p, trimmed and scaled to be monic ([] for a = 0 mod p)."""
    a = trim([c % p for c in a])
    inv = pow(a[-1], -1, p) if a else 1
    return [c * inv % p for c in a]


def gcd_mod(a, b, p):
    """The monic gcd mod p, or [] when a and b are both zero mod p."""
    a, b = _monic(a, p), _monic(b, p)
    while b:
        a, b = b, _monic(divmod_mod(a, b, p)[1], p)
    return a


def _quo_mod(a, b, p):
    """a / b for b monic dividing a mod p."""
    return trim(divmod_mod(a, b, p)[0])


def _inverse_mod(a, g, p):
    """a^-1 in F_p[y]/(g) for g monic, by the extended Euclidean algorithm;
    ValueError when a and g are not coprime mod p.  Each step keeps
    t * a = r mod g, with the divisor r made monic."""
    r0, r1 = list(g), trim(divmod_mod(a, g, p)[1])
    t0, t1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, t1 = [c * inv % p for c in r1], [c * inv % p for c in t1]
        q, r = divmod_mod(r0, r1, p)
        r0, r1 = r1, trim(r)
        t0, t1 = t1, trim([c % p for c in add(t0, mul([-c for c in q], t1))])
    if len(r0) != 1:
        raise ValueError("not invertible modulo g")
    return divmod_mod(t0, g, p)[1]


def hensel_lift(a, factors, p, steps=1):
    """Monic g_j = f_j mod p with a = lc(a) prod g_j mod q = p^(2^steps),
    for an integer a with p not dividing lc(a) and monic factors f_j,
    pairwise coprime mod p, with a = lc(a) prod f_j mod p: quadratic
    Hensel steps (Hensel's lemma; Cohen, GTM 138, 3.5), as lists of
    residues mod q.

    A step from modulus q to q^2 takes e = (a - lc(a) prod g_j) / q, c_j
    = lc(a) times the product of the other factors, and s_j = 1 / c_j mod
    (q, g_j), and sets g_j to g_j + q d_j for d_j = e s_j mod g_j.  Then
    sum d_j c_j = e mod q, since both sides agree modulo every g_j and have
    degree below deg a, so lc(a) prod g_j = a mod q^2.  The s_j start
    modulo p from the extended Euclidean algorithm, and at each later step
    one Newton step s_j (2 - c_j s_j) mod g_j lifts them from sqrt(q) to
    q."""
    q, lead, gs, inverses = p, a[-1], [list(f) for f in factors], None
    for _ in range(steps):
        m = q * q
        prod = [lead]
        for g in gs:
            prod = mul_mod(prod, g, m)
        cs = [divmod_mod(prod, g, m)[0] for g in gs]  # lc(a) c_j, exactly
        if inverses is None:
            inverses = [_inverse_mod(c, g, p) for c, g in zip(cs, gs)]
        else:
            # s c = 1 mod (r, g) for r^2 = q, so s (2 - c s) c = 1 mod (q, g)
            for j, (c, g, s) in enumerate(zip(cs, gs, inverses)):
                u = [-x for x in divmod_mod(mul_mod(c, s, q), g, q)[1]]
                u[0] += 2
                inverses[j] = divmod_mod(mul_mod(s, u, q), g, q)[1]
        e = [(x - y) % m // q for x, y in zip_longest(a, prod, fillvalue=0)]
        gs = [[(x + q * y) % m for x, y in zip_longest(
                  g, divmod_mod(mul_mod(divmod_mod(e, g, q)[1], s, q),
                                g, q)[1], fillvalue=0)]
              for g, s in zip(gs, inverses)]
        q = m
    return gs


def _squarefree_mod(a, p):
    """[(e, s)]: a monic a = prod s^e mod p with every s monic, squarefree
    and coprime to the others, and no s = 1.

    Where p divides a multiplicity the derivative loses that factor, so the
    part c left after the loop is a polynomial in x^p, and its p-th root is
    c with only the coefficients of x^(kp), as b^p = b for b in F_p."""
    out = []
    c = gcd_mod(a, [k * x for k, x in enumerate(a)][1:], p)
    w, e = _quo_mod(a, c, p), 1
    while len(w) > 1:
        y = gcd_mod(w, c, p)
        if len(w) > len(y):
            out.append((e, _quo_mod(w, y, p)))
        w, c, e = y, _quo_mod(c, y, p), e + 1
    if len(c) > 1:
        out += [(e * p, s) for e, s in _squarefree_mod(c[::p], p)]
    return out


def distinct_degree_mod(a, p):
    """[(d, e, g)]: the monic irreducible factors of a mod p of degree d and
    multiplicity e have the monic product g; a is nonzero mod p.

    Distinct-degree factorization of each squarefree part s: h = x^(p^d)
    mod s by the Frobenius rows of s, and gcd(s, h - x) collects the
    factors of degree dividing d, of which those of lower degree have
    already been divided out."""
    out = []
    for e, s in _squarefree_mod(_monic(a, p), p):
        # h stays reduced mod the first s, of which each later s is a factor
        frob, h, d = frobenius_rows(s, p), [0, 1], 0
        while len(s) - 1 >= 2 * (d + 1):
            d += 1
            h = h @ frob[:len(h)] % p
            g = gcd_mod(s, add(h.tolist(), [0, -1]), p)
            if len(g) > 1:
                out.append((d, e, g))
                s = _quo_mod(s, g, p)
        if len(s) > 1:
            out.append((len(s) - 1, e, s))
    return out


def degree_sums(blocks):
    """Bitmask of the degree pattern that the blocks [(d, e, g)] of
    distinct_degree_mod describe: bit k is set iff k is the sum of the
    degrees of some of the irreducible factors, each counted up to its
    multiplicity.  A factor of a polynomial that reduces to these blocks
    mod p, with a leading coefficient prime to p, has one of these degrees
    (Musser, JACM 25, 1978)."""
    sums = 1
    for d, e, g in blocks:
        for _ in range(e * (len(g) - 1) // d):
            sums |= sums << d
    return sums


def factor_mod(a, p):
    """(lead, [(f, e)]): a = lead * prod f^e mod p with the f monic,
    irreducible and distinct, sorted by degree, then multiplicity, then the
    coefficients from the top (sympy's order); (0, []) for a = 0 mod p."""
    a = trim([c % p for c in a])
    if not a:
        return 0, []
    out = [(f, e) for d, e, g in distinct_degree_mod(a, p)
           for f in equal_degree_mod(g, d, p)]
    return a[-1], sorted(out, key=lambda fe: (len(fe[0]), fe[1], fe[0][::-1]))


def equal_degree_mod(g, d, p):
    """The monic irreducible factors of g, a monic squarefree product of
    factors of degree d, by Cantor-Zassenhaus.  The candidates t run
    through the polynomials of degree below deg g that are not constants,
    t = x, x + 1, ..., by the base-p digits of p, p + 1, ...  The gcd of g
    with t^((p^d - 1)/2) - 1 for odd p, or with the trace
    t + t^2 + ... + t^(2^(d-1)) for p = 2, splits g as soon as t has
    different characters (traces) modulo two of its factors; by the Chinese
    remainder theorem some candidate does.  Both are read off the conjugates
    t^(p^k), k < d, each the previous one times the Frobenius rows of g:
    t^((p^d - 1)/2) is their product to the power (p - 1)/2."""
    if len(g) - 1 == d:
        return [g]
    frob = frobenius_rows(g, p)
    for n in range(p, p**(len(g) - 1)):
        conj = [[n // p**k % p for k in range(len(g) - 1)]]
        for _ in range(d - 1):
            conj.append((conj[-1] @ frob % p).tolist())
        if p == 2:
            u = [sum(c) % 2 for c in zip(*conj)]
        else:
            u = [1]
            for c in conj:
                u = divmod_mod(mul_mod(u, c, p), g, p)[1]
            u = pow_mod(u, (p - 1) // 2, g, p)
            u[0] = (u[0] - 1) % p
        f = gcd_mod(g, u, p)
        if 1 < len(f) < len(g):
            return equal_degree_mod(f, d, p) \
                + equal_degree_mod(_quo_mod(g, f, p), d, p)
    raise ArithmeticError("no candidate splits the equal-degree product")


# ---------------------------------------------------------------------------
# exact roots

def int_root(n, k):
    """The integer r with r**k == n, or None (for odd k, n may be negative)."""
    if n < 0:
        r = int_root(-n, k) if k % 2 else None
        return None if r is None else -r
    if n < 2:
        return n
    # Newton's method from above converges to floor(n ** (1/k))
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == n else None


def fraction_root(x, k):
    """The Fraction r with r**k == x, or None."""
    x = Fraction(x)
    num, den = int_root(x.numerator, k), int_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# primes

def primes(lo, hi):
    """The primes p with lo <= p < hi, in increasing order, by the sieve of
    Eratosthenes."""
    sieve = bytearray([1]) * max(hi, 2)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(max(hi - 1, 0)) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(max(lo, 2), hi) if sieve[p]]


def is_prime(n):
    """Whether the integer n is prime, by trial division to sqrt(n)."""
    if n < 4:
        return n > 1
    return n % 2 != 0 and all(n % k for k in range(3, math.isqrt(n) + 1, 2))


def prime_factors(n, bound):
    """({p: e}, c) with n = c * prod p^e for an integer n >= 1: the p are
    the primes p <= bound that divide n, in increasing order, and every
    prime of the cofactor c exceeds bound.  Trial division, which stops
    once the cofactor is 1 or a prime."""
    out, k = {}, 2
    while k <= bound and k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1 if k == 2 else 2
    if 1 < n <= bound:
        out[n], n = 1, 1
    return out, n
