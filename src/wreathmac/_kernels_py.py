"""Arithmetic kernels for sparse bivariate (Laurent) polynomials.

A polynomial is a dict mapping exponent pairs ``(a, b)`` to nonzero integer
coefficients.  The gcd machinery works on a dense recursive representation:
an element of Z[z][w] is a list indexed by the w-degree whose entries are
little-endian int lists (elements of Z[z]); trailing zeros are trimmed at
both levels and the zero polynomial is the empty list.

``kernels.py`` re-exports the functions that ``algebra`` calls.
"""

from math import gcd as _igcd
from math import isqrt


# ---------------------------------------------------------------------------
# sparse dict kernels

def pmul(a, b):
    """Multiply two sparse exponent-dict polynomials."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            key = (xa + xb, ya + yb)
            v = out.get(key)
            if v is None:
                out[key] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def padd(a, b):
    out = dict(a)
    for key, c in b.items():
        v = out.get(key)
        if v is None:
            out[key] = c
        else:
            v = v + c
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def pscale(a, c):
    if not c:
        return {}
    return {key: v * c for key, v in a.items()}


# ---------------------------------------------------------------------------
# univariate helpers (little-endian int lists over Z)

def utrim(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    del a[n:]
    return a


def umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return utrim(out)


def uscale(a, c):
    if not c:
        return []
    return [ai * c for ai in a]


def ucontent(a):
    g = 0
    for ai in a:
        if ai:
            g = _igcd(g, ai if ai > 0 else -ai)
            if g == 1:
                return 1
    return g


def udivexact_int(a, c):
    """Divide every coefficient by the integer c (must be exact)."""
    if c == 1:
        return list(a)
    out = []
    for ai in a:
        q, r = divmod(ai, c)
        if r:
            raise ArithmeticError("non-exact integer division in kernel")
        out.append(q)
    return out


def udivexact(a, b):
    """Exact division in Z[z]; raises if b does not divide a."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    if not a:
        return []
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    da = len(a) - 1
    if da < db:
        raise ArithmeticError("non-exact univariate division")
    out = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db]
        if c:
            q, r = divmod(c, lb)
            if r:
                raise ArithmeticError("non-exact univariate division")
            out[k] = q
            for j in range(db + 1):
                a[k + j] -= q * b[j]
    if any(a):
        raise ArithmeticError("non-exact univariate division")
    return utrim(out)


def ugcd(a, b):
    """Primitive-PRS gcd in Z[z], normalized to positive leading coefficient."""
    a = utrim(list(a))
    b = utrim(list(b))
    if not a:
        return _upos(b)
    if not b:
        return _upos(a)
    ca, cb = ucontent(a), ucontent(b)
    c = _igcd(ca, cb)
    a = udivexact_int(a, ca)
    b = udivexact_int(b, cb)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _uprem(a, b)
        a, b = b, r
        if b:
            cb = ucontent(b)
            b = udivexact_int(b, cb)
    if len(a) == 1:
        return [c]
    return uscale(_upos(a), c)


def _upos(a):
    return [-x for x in a] if a and a[-1] < 0 else list(a)


def _uprem(a, b):
    """Pseudo-remainder of a by b in Z[z] (b nonzero, deg a >= deg b)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while True:
        utrim(a)
        da = len(a) - 1
        if not a or da < db:
            return a
        la = a[-1]
        # lb*a - la*z^(da-db)*b kills the leading term
        for i in range(da):
            a[i] *= lb
        a[-1] = 0
        for j in range(db):
            a[da - db + j] -= la * b[j]


# ---------------------------------------------------------------------------
# bivariate recursive representation: list (w-degree) of Z[z] int lists

def btrim(A):
    n = len(A)
    while n and not A[n - 1]:
        n -= 1
    del A[n:]
    return A


def bscale_u(A, c):
    """Multiply by an element of Z[z]."""
    if not c:
        return []
    return btrim([umul(ai, c) for ai in A])


def bcontent(A):
    """Content of A in Z[z] (gcd of all w-coefficients)."""
    g = []
    for ai in A:
        if ai:
            g = ugcd(g, ai)
            if g == [1]:
                return g
    return g


def bdivexact_u(A, c):
    """Divide by an element of Z[z] (must divide every coefficient)."""
    if c == [1]:
        return [list(ai) for ai in A]
    return [udivexact(ai, c) if ai else [] for ai in A]


def bdivexact(A, B):
    """Exact division in Z[z][w]; raises if B does not divide A."""
    if not B:
        raise ZeroDivisionError("bivariate division by zero")
    if not A:
        return []
    A = [list(ai) for ai in A]
    db = len(B) - 1
    lb = B[-1]
    da = len(A) - 1
    if da < db:
        raise ArithmeticError("non-exact bivariate division")
    out = [[] for _ in range(da - db + 1)]
    for k in range(da - db, -1, -1):
        c = A[k + db]
        if c:
            q = udivexact(c, lb)
            out[k] = q
            # udivexact proved q*lb == c, so the leading row is cleared
            A[k + db] = []
            for j in range(db):
                if B[j]:
                    _usubmul(A[k + j], q, B[j])
    if any(A):
        raise ArithmeticError("non-exact bivariate division")
    return btrim(out)


def _usubmul(a, q, b):
    """a -= q*b in place, for nonzero q and b; a stays trimmed."""
    n = len(q) + len(b) - 1
    if len(a) < n:
        a.extend([0] * (n - len(a)))
    for i, qi in enumerate(q):
        if qi:
            for j, bj in enumerate(b):
                a[i + j] -= qi * bj
    utrim(a)


# ---------------------------------------------------------------------------
# gcd in Z[z][w]: the heuristic GCDHEU, with the subresultant PRS as fallback

# evaluation points GCDHEU tries, at each level, before it gives up
HEU_GCD_TRIES = 6


class Gcd(list):
    """A gcd G of A and B in the recursive dense form, as a list, with the
    cofactors ``quotients = (A/G, B/G)`` in the same form."""

    __slots__ = ("quotients",)

    def __init__(self, G, qa, qb):
        super().__init__(G)
        self.quotients = (qa, qb)


def bgcd(A, B):
    """gcd in Z[z][w] by GCDHEU, the heuristic integer-gcd method of Char,
    Geddes & Gonnet (J. Symb. Comp. 7, 1989, 31-48), returned as a ``Gcd``:
    the gcd G, which compares equal to and indexes like its list, with the
    cofactors ``G.quotients = (A/G, B/G)``.

    The common integer content is taken out.  Then z -> xi maps A and B to
    Z[w], their gcd there is found by the same method one level down
    (w -> xi', one integer gcd), and each coefficient of the image gcd is
    read back as a polynomial in z from its symmetric xi-adic digits.  At
    each level xi satisfies

        xi >= 2 * min(|A|_inf, |B|_inf) + 2

    for that level's inputs, |.|_inf being the largest absolute coefficient.
    Under this bound the theorem behind GCDHEU holds: a primitive candidate
    that divides both inputs exactly is their gcd.  So the exact divisions
    prove each result, and their quotients are the cofactors (those of the
    content-free inputs by the primitive candidate are A/G and B/G); a
    smaller xi (SymPy's ``99*isqrt(B)``) would turn the proof into a guess.
    A point at which a leading coefficient vanishes is skipped, and xi grows
    as in SymPy.  After ``HEU_GCD_TRIES`` failed points the subresultant PRS
    ``_bgcd_prs`` computes the gcd, and one division per input its
    cofactors.

    The gcd has a positive leading coefficient; a zero operand returns the
    other operand as it is, with the cofactors 0 and 1.
    """
    A = btrim([utrim(list(ai)) for ai in A])
    B = btrim([utrim(list(ai)) for ai in B])
    if not A:
        return Gcd(B, [], [[1]])
    if not B:
        return Gcd(A, [[1]], [])
    c = _igcd(_bicontent(A), _bicontent(B))
    if c != 1:
        A = [udivexact_int(ai, c) for ai in A]
        B = [udivexact_int(bi, c) for bi in B]
    if (len(A) == 1 and len(A[0]) == 1) or (len(B) == 1 and len(B[0]) == 1):
        return Gcd([[c]], A, B)  # a constant operand
    xi = 2 * min(_bnorm(A), _bnorm(B)) + 2
    for _ in range(HEU_GCD_TRIES):
        found = _bgcd_heu_at(A, B, xi)
        if found is not None:
            G, qa, qb = found
            break
        xi = _next_xi(xi)
    else:
        G = _bgcd_prs(A, B)
        if G[-1][-1] < 0:
            G = [uscale(gi, -1) for gi in G]
        qa, qb = bdivexact(A, G), bdivexact(B, G)
    return Gcd(G if c == 1 else [uscale(gi, c) for gi in G], qa, qb)


def _bgcd_heu_at(A, B, xi):
    """One GCDHEU try at z -> xi for primitive A, B: ``(G, A/G, B/G)``, or
    None if it fails."""
    if not (_ueval(A[-1], xi) and _ueval(B[-1], xi)):
        return None
    h = _ugcd_heu([_ueval(ai, xi) for ai in A], [_ueval(bi, xi) for bi in B])
    if h is None:
        return None
    G = [_symdigits(hi, xi) for hi in h]
    g = _bicontent(G)
    G = [udivexact_int(gi, g) for gi in G]
    if G[-1][-1] < 0:
        G = [uscale(gi, -1) for gi in G]
    if G == [[1]]:
        return G, A, B
    qa = _bquo(A, G)
    if qa is None:
        return None
    qb = _bquo(B, G)
    if qb is None:
        return None
    return G, qa, qb


def _ugcd_heu(a, b):
    """gcd in Z[w] of nonzero a and b, integer content included, with a
    positive leading coefficient, by GCDHEU (the bound of ``bgcd``); None if
    every try fails."""
    c = _igcd(ucontent(a), ucontent(b))
    if len(a) == 1 or len(b) == 1:
        return [c]
    if c != 1:
        a, b = udivexact_int(a, c), udivexact_int(b, c)
    xi = 2 * min(_unorm(a), _unorm(b)) + 2
    for _ in range(HEU_GCD_TRIES):
        va, vb = _ueval(a, xi), _ueval(b, xi)
        if va and vb:
            g = _symdigits(_igcd(va, vb), xi)
            g = udivexact_int(g, ucontent(g))
            if g[-1] < 0:
                g = uscale(g, -1)
            if len(g) == 1:
                return [c]
            if _udivides(a, g) and _udivides(b, g):
                return uscale(g, c)
        xi = _next_xi(xi)
    return None


def _ueval(a, x):
    """Value of a in Z[z] at z = x."""
    v = 0
    for ai in reversed(a):
        v = v * x + ai
    return v


def _symdigits(h, x):
    """Little-endian digits d_i of the integer h = sum d_i x^i, |d_i| <= x/2."""
    half = x // 2
    out = []
    while h:
        d = h % x
        if d > half:
            d -= x
        out.append(d)
        h = (h - d) // x
    return out


def _next_xi(xi):
    return 73794 * xi * isqrt(isqrt(xi)) // 27011


def _unorm(a):
    return max(max(a), -min(a))


def _bnorm(A):
    return max(_unorm(ai) for ai in A if ai)


def _bicontent(A):
    """Integer content of A (gcd of all its coefficients)."""
    g = 0
    for ai in A:
        g = _igcd(g, ucontent(ai))
        if g == 1:
            break
    return g


def _udivides(a, b):
    try:
        udivexact(a, b)
    except ArithmeticError:
        return False
    return True


def _bquo(A, B):
    """A/B when B divides A exactly, else None."""
    try:
        return bdivexact(A, B)
    except ArithmeticError:
        return None


def _bprem(A, B):
    """Pseudo-remainder of A by B in Z[z][w]: lc(B)^(deg A - deg B + 1) A mod B."""
    A = [list(ai) for ai in A]
    db = len(B) - 1
    lb = B[-1]
    e = len(A) - 1 - db + 1
    while True:
        btrim(A)
        da = len(A) - 1
        if not A or da < db:
            break
        la = A[-1]
        for i in range(da):
            A[i] = umul(A[i], lb)
        A[-1] = []
        for j in range(db):
            if B[j]:
                _usubmul(A[da - db + j], la, B[j])
        e -= 1
    for _ in range(e):
        A = [umul(ai, lb) for ai in A]
    return A


def _bgcd_prs(A, B):
    """Subresultant-PRS gcd in Z[z][w], primitive-part based; the fallback
    of ``bgcd``."""
    A = btrim([utrim(list(ai)) for ai in A])
    B = btrim([utrim(list(ai)) for ai in B])
    if not A:
        return B
    if not B:
        return A
    ca, cb = bcontent(A), bcontent(B)
    c = ugcd(ca, cb)
    A = bdivexact_u(A, ca)
    B = bdivexact_u(B, cb)
    if len(A) < len(B):
        A, B = B, A
    g = [1]
    h = [1]
    while True:
        d = len(A) - len(B)
        R = _bprem(A, B)
        if not R:
            result = bdivexact_u(B, bcontent(B))
            break
        if len(R) == 1:
            result = [[1]]
            break
        A, B = B, bdivexact_u(R, umul(g, _upow(h, d)))
        g = A[-1]
        if d > 0:
            h = udivexact(_upow(g, d), _upow(h, d - 1))
    return bscale_u(result, c)


def _upow(a, n):
    out = [1]
    for _ in range(n):
        out = umul(out, a)
    return out
