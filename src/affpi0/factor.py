"""Univariate factoring over F_p and Z, on dense coefficient lists.

A polynomial is the list of its coefficients, constant term first, with no
trailing zero, so the zero polynomial is []: residues in [0, p) over F_p,
ints over Z, `Fraction`s or ints over Q.  The field helpers take the prime
p, or None for Q; the Hensel step passes a prime power as p, and divides
only by monic polynomials there.

Over F_p a monic polynomial goes through Yun's squarefree decomposition (a
p-th root where the derivative vanishes), distinct-degree factorization and
Cantor–Zassenhaus equal-degree splitting (D. G. Cantor and H. Zassenhaus,
Math. Comp. 36, 1981) with a fixed-seed `random.Random`, p = 2 through the
trace map.  Over Z each squarefree part is factored modulo the first prime
that keeps it squarefree, lifted by Hensel's lemma past the Mignotte bound
and recombined by Zassenhaus's subset search (J. von zur Gathen and
J. Gerhard, *Modern Computer Algebra*, ch. 14–16).  Every factorization is
multiplied back and compared with its input.  Two guards of `LIMITS` bound
the work over Z: the number of modular factors (`max_factors`), whose
subsets the recombination searches, and the bit length of the lifting
modulus (`max_lift`).  Rational roots (`roots_int`) need neither: the
roots modulo such a prime are lifted one by one by Newton's iteration, and
each candidate is checked exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import PropertyViolationError, ResourceLimitError
from .polyring import LIMITS

# ---------------------------------------------------------------------------
# dense arithmetic over F_p (p a prime, or a prime power under monic
# divisors) and over Q (p None)


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _add(f: list, g: list, p: int | None) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim([c % p for c in out] if p else out)


def _sub(f: list, g: list, p: int | None) -> list:
    return _add(f, [-c for c in g], p)


def _mul(f: list, g: list, p: int | None) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([c % p for c in out] if p else out)


def _divmod(f: list, g: list, p: int | None) -> tuple[list, list]:
    """Quotient and remainder by the nonzero g."""
    rem = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p) if p else _inverse(g[-1])
    quo = [0] * max(len(rem) - dg, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dg] * inv
        if p:
            c %= p
        if c:
            quo[k] = c
            for j, b in enumerate(g):
                rem[k + j] -= c * b
            if p:
                for j in range(k, k + dg + 1):
                    rem[j] %= p
    return _trim(quo), _trim(rem[:dg])


def _inverse(c):
    """1/c over Q, an int when c is 1, so monic integer arithmetic stays
    in ints."""
    return 1 if c == 1 else Fraction(1) / c


def _monic(f: list, p: int | None) -> list:
    inv = pow(f[-1], -1, p) if p else _inverse(f[-1])
    return [c * inv % p for c in f] if p else [c * inv for c in f]


def _gcdex(f: list, g: list, p: int | None) -> tuple[list, list, list]:
    """(d, s, t) with s·f + t·g = d = gcd(f, g) monic (f, g not both
    zero), deg s < deg g − deg d and deg t < deg f − deg d."""
    r0, r1 = f, g
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p) if p else _inverse(r0[-1])
    scale = [inv % p] if p else [inv]
    return (_mul(r0, scale, p), _mul(s0, scale, p), _mul(t0, scale, p))


def _gcd(f: list, g: list, p: int | None) -> list:
    r0, r1 = f, g
    while r1:
        r0, r1 = r1, _divmod(r0, r1, p)[1]
    return _monic(r0, p)


def _deriv(f: list, p: int | None) -> list:
    out = [i * c for i, c in enumerate(f)][1:]
    return _trim([c % p for c in out] if p else out)


def _powmod(f: list, e: int, m: list, p: int) -> list:
    """f^e mod m over F_p."""
    result, base = [1], _divmod(f, m, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), m, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), m, p)[1]
    return _divmod(result, m, p)[1]


def _expand(unit, factors, p: int | None) -> list:
    """unit·Π g^e over the (g, e) pairs."""
    out = [unit]
    for g, e in factors:
        for _ in range(e):
            out = _mul(out, g, p)
    return out


def _sorted(factors: list) -> list:
    return sorted(factors, key=lambda ge: (len(ge[0]), ge[0]))


# ---------------------------------------------------------------------------
# over F_p


def factor_mod(f: list, p: int) -> tuple[int, list[tuple[list, int]]]:
    """(lc, [(g, e), ...]) with f = lc·Π g^e over F_p: the monic irreducible
    factors of the nonzero f with their multiplicities, sorted by degree
    and then by coefficients."""
    f = _trim([c % p for c in f])
    if not f:
        raise ValueError("the zero polynomial has no factorization")
    rng = random.Random(0)
    factors = []
    for g, e in _squarefree_mod(_monic(f, p), p):
        for h, d in _distinct_degree(g, p):
            factors += [(q, e) for q in _equal_degree(h, d, p, rng)]
    factors = _sorted(factors)
    if _expand(f[-1], factors, p) != f:
        raise PropertyViolationError(
            "factorization over F_p does not multiply back", witness=(f, p))
    return f[-1], factors


def roots_mod(f: list, p: int) -> list[int]:
    """The distinct roots in F_p of the nonzero f, ascending: the linear
    factors of gcd(f, x^p − x), split by Cantor–Zassenhaus."""
    f = _trim([c % p for c in f])
    if not f:
        raise ValueError("the zero polynomial has every root")
    if len(f) == 1:
        return []
    f = _monic(f, p)
    x = [0, 1]
    split = _gcd(f, _sub(_powmod(x, p, f, p), x, p), p)
    if len(split) == 1:
        return []
    roots = sorted(-q[0] % p for q in _equal_degree(split, 1, p,
                                                    random.Random(0)))
    if any(_divmod(f, [-r % p, 1], p)[1] for r in roots):
        raise PropertyViolationError("root search over F_p returned a "
                                     "non-root", witness=(f, p, roots))
    return roots


def _squarefree_mod(f: list, p: int) -> list[tuple[list, int]]:
    """Yun's decomposition of a monic f over F_p: pairwise coprime monic
    squarefree g with f = Π g^e.  Where the derivative vanishes, f is
    g(x^p) = g(x)^p, since every residue is its own p-th power."""
    if len(f) <= 1:
        return []
    df = _deriv(f, p)
    if not df:
        return [(g, e * p) for g, e in _squarefree_mod(f[::p], p)]
    c = _gcd(f, df, p)
    w = _divmod(f, c, p)[0]
    out, i = [], 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        c = _divmod(c, y, p)[0]
    if len(c) > 1:
        out += [(g, e * p) for g, e in _squarefree_mod(c[::p], p)]
    return out


def _distinct_degree(f: list, p: int) -> list[tuple[list, int]]:
    """[(g, d)]: g the product of the monic squarefree f's irreducible
    factors of degree d, from gcd(f, x^(p^d) − x)."""
    out = []
    x = h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list, d: int, p: int, rng: random.Random) -> list:
    """The monic irreducible factors of g, a product of distinct ones of
    degree d: gcd(g, T(a)) for random a, with T(a) = a^((p^d − 1)/2) − 1,
    or over F_2 the trace a + a² + … + a^(2^(d−1)), splits g with
    probability about 1/2."""
    n = len(g) - 1
    if n <= d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            t = b = a
            for _ in range(d - 1):
                b = _divmod(_mul(b, b, p), g, p)[1]
                t = _add(t, b, p)
        else:
            t = _sub(_powmod(a, (p ** d - 1) // 2, g, p), [1], p)
        h = _gcd(g, t, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod(g, h, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# over Z


def factor_int(f: list) -> tuple[int, list[tuple[list, int]]]:
    """(c, [(g, e), ...]) with f = c·Π g^e over Z: c the content of the
    nonzero f with the sign of its leading coefficient, each g irreducible
    over Q, primitive with a positive leading coefficient, sorted by degree
    and then by coefficients."""
    f = _trim(list(f))
    if not f:
        raise ValueError("the zero polynomial has no factorization")
    content = gcd(*f) * (1 if f[-1] > 0 else -1)
    primitive = [c // content for c in f]
    # a repeated factor of f would repeat modulo every prime not dividing
    # lc(f), so a good prime among the first few spares the decomposition
    p = _good_prime(primitive, 4)
    parts = ([] if len(primitive) == 1 else [(primitive, 1)] if p else
             _squarefree_int(primitive))
    factors = _sorted([(q, e) for g, e in parts
                       for q in _zassenhaus(g, p or _good_prime(g))])
    if _expand(content, factors, None) != f:
        raise PropertyViolationError(
            "factorization over Z does not multiply back", witness=f)
    return content, factors


def roots_int(f: list) -> list[Fraction]:
    """The distinct rational roots of the nonzero integer f, ascending.

    A root a/b of f's primitive squarefree part g has b | lc(g), so it
    reduces to a simple root of g modulo a good prime p.  Each root of
    `roots_mod` is lifted by Newton's iteration until the modulus exceeds
    twice the Cauchy bound |lc(g)·a/b| ≤ lc(g) + max|g_i|; its symmetric
    residue times lc(g) is then lc(g)·a/b if the root is rational, which
    exact evaluation decides.  Nothing is recombined, so no guard bounds
    the work."""
    f = _trim(list(f))
    if not f:
        raise ValueError("the zero polynomial has every root")
    g = _primitive(f)
    p = _good_prime(g, 4)
    if p is None:
        g = _primitive(_divmod(g, _gcd(g, _deriv(g, None), None), None)[0])
        p = _good_prime(g)
    lead, dg = g[-1], _deriv(g, None)
    bound = 2 * (lead + max(abs(c) for c in g))
    roots = []
    for r in roots_mod(g, p):
        m = p
        while m <= bound:
            m *= m
            r = (r - _value(g, r, m) * pow(_value(dg, r, m), -1, m)) % m
        c = lead * r % m
        root = Fraction(c - m if 2 * c > m else c, lead)
        if not _value(g, root, None):
            roots.append(root)
    return sorted(roots)


def _value(f: list, x, m: int | None):
    """f(x), modulo m unless m is None."""
    v = 0
    for c in reversed(f):
        v = v * x + c
        if m:
            v %= m
    return v


def _primitive(f: list) -> list:
    """The primitive integer multiple of f ≠ 0 over Q with a positive
    leading coefficient."""
    ratios = [Fraction(c).as_integer_ratio() for c in f]
    den = lcm(*[d for _, d in ratios])
    ints = [n * (den // d) for n, d in ratios]
    content = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // content for c in ints]


def _squarefree_int(f: list) -> list[tuple[list, int]]:
    """Yun's decomposition over Q of a primitive f with a positive leading
    coefficient: pairwise coprime squarefree g, primitive with positive
    leading coefficients, with f = Π g^e (Gauss's lemma makes it exact)."""
    if len(f) <= 1:
        return []
    df = _deriv(f, None)
    a = _gcd(f, df, None)
    b = _divmod(f, a, None)[0]
    d = _sub(_divmod(df, a, None)[0], _deriv(b, None), None)
    out, i = [], 1
    while len(b) > 1:
        a = _gcd(b, d, None)
        b = _divmod(b, a, None)[0]
        c = _divmod(d, a, None)[0]
        d = _sub(c, _deriv(b, None), None)
        if len(a) > 1:
            out.append((_primitive(a), i))
        i += 1
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def _next_prime(lead: int, p: int) -> int:
    """The least odd prime from p on that does not divide `lead`."""
    while not (_is_prime(p) and lead % p):
        p += 2
    return p


def _squarefree_modulo(f: list, p: int) -> bool:
    fp = [c % p for c in f]
    return len(_gcd(fp, _deriv(fp, p), p)) == 1


def _good_prime(f: list, tries: int | None = None) -> int | None:
    """The least odd prime not dividing lc(f) modulo which f stays
    squarefree, among the first `tries` primes not dividing lc(f), or
    None.  With no bound, f must be squarefree: then only the primes
    dividing lc(f)·disc(f) fail."""
    p = _next_prime(f[-1], 3)
    for _ in itertools.repeat(None) if tries is None else range(tries):
        if _squarefree_modulo(f, p):
            return p
        p = _next_prime(f[-1], p + 2)
    return None


def _zassenhaus(f: list, p: int) -> list[list]:
    """The irreducible factors of a squarefree primitive f with a positive
    leading coefficient, from its factors modulo the good prime p."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    modular = [g for g, _ in factor_mod(f, p)[1]]
    if len(modular) == 1:
        return [f]
    if len(modular) > LIMITS.max_factors:
        raise ResourceLimitError(
            f"factoring over Z: {len(modular)} factors modulo {p} exceed "
            f"guard max_factors = {LIMITS.max_factors}")
    # Mignotte: a proper factor of f has coefficients at most
    # 2^(n−1)·|f|_2, so lc(f) times a monic lift of one is recovered
    # from its symmetric residues once p^k exceeds twice that
    bound = 2 ** n * (isqrt(sum(c * c for c in f)) + 1) * f[-1]
    if bound.bit_length() > LIMITS.max_lift:
        raise ResourceLimitError(
            f"factoring over Z: a lifting modulus of {bound.bit_length()} "
            f"bits exceeds guard max_lift = {LIMITS.max_lift}")
    modulus = p
    while modulus <= bound:
        modulus *= p
    return _recombine(f, _hensel(f, modular, p, modulus), modulus)


def _hensel(f: list, factors: list[list], p: int, modulus: int
            ) -> list[list]:
    """Monic lifts modulo `modulus`, a power of p, of the monic factors of
    f ≡ lc(f)·Π factors (mod p), pairwise coprime: split the list in two
    and lift the pair quadratically, then each half."""
    if len(factors) == 1:
        return [_monic(f, modulus)]
    half = len(factors) // 2
    g = _expand(f[-1] % p, [(q, 1) for q in factors[:half]], p)
    h = _expand(1, [(q, 1) for q in factors[half:]], p)
    _, s, t = _gcdex(g, h, p)
    m = p
    while m < modulus:
        m = min(m * m, modulus)
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
    return (_hensel(g, factors[:half], p, modulus)
            + _hensel(h, factors[half:], p, modulus))


def _hensel_step(f, g, h, s, t, m):
    """One quadratic step (Modern Computer Algebra, Algorithm 15.10): from
    f ≡ g·h and s·g + t·h ≡ 1 modulo √m to both modulo m, h monic."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _divmod(_mul(s, b, m), h, m)
    s = _sub(s, d, m)
    t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h, s, t


def _recombine(f: list, lifted: list[list], modulus: int) -> list[list]:
    """The true factors of f: lc(f) times the product of a subset of the
    lifted factors, in symmetric residues, made primitive, is one when it
    divides f.  Subsets grow in size; a found factor leaves with its
    subset."""
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = _expand(f[-1], [(lifted[i], 1) for i in subset], modulus)
            g = [c - modulus if 2 * c > modulus else c for c in g]
            content = gcd(*g)
            g = [c // content for c in g]
            if f[0] % g[0] if g[0] else f[0]:
                continue
            quotient = _exact_quotient(f, g)
            if quotient is not None:
                found.append(g)
                f = quotient
                lifted = [q for i, q in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _exact_quotient(f: list, g: list) -> list | None:
    """f / g over Z when g divides f there, else None."""
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + dg], g[-1])
        if r:
            return None
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] -= c * b
    return None if any(rem[:dg]) else _trim(quo)


# ---------------------------------------------------------------------------
# Chinese remainders


def crt_idempotents(factors: list[tuple[list, int]], p: int | None
                    ) -> list[list]:
    """For pairwise coprime moduli m_i = g_i^e_i over F_p (or Q, p None),
    given as the pairs (g_i, e_i), the polynomials E_i of degree below
    deg Π m with E_i ≡ 1 mod m_i and E_i ≡ 0 mod m_j for j ≠ i:
    E_i = s_i·Π_{j≠i} m_j with s_i the inverse of that product modulo
    m_i."""
    moduli = [_expand(1, [ge], p) for ge in factors]
    total = _expand(1, factors, p)
    out = []
    for m in moduli:
        rest = _divmod(total, m, p)[0]
        d, s, _ = _gcdex(_divmod(rest, m, p)[1], m, p)
        if len(d) != 1:
            raise PropertyViolationError("CRT moduli share a factor",
                                         witness=factors)
        out.append(_mul(s, rest, p))
    return out
