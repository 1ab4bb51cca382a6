"""Arithmetic kernels for sparse bivariate (Laurent) polynomials.

A polynomial is a dict mapping exponent pairs ``(a, b)`` to nonzero integer
coefficients.  The gcd machinery works on a dense representation: an
element of Z[z] is a little-endian list of ints, and an element of Z[z][w]
a list indexed by the w-degree whose entries are elements of Z[z].  Trailing
zeros are trimmed at both levels, the zero polynomial is the empty list, and
the leading entry of a nonzero polynomial tells its level.

Each dense algorithm is written once, over the coefficient ring (Z for Z[z],
Z[z] for Z[z][w]), and on Z[z][w] it reaches the Z[z] case through the
coefficients: integer content, scaling and division, the norm, evaluation at
z = xi and the xi-adic lift back, exact division, the pseudo-remainder, the
primitive PRS and GCDHEU.  ``bgcd`` runs GCDHEU and falls back to the
primitive PRS.

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
# dense polynomials over Z[z] and Z[z][w]

def trim(A):
    """Drop the zero leading entries (0 or []) of A, in place."""
    n = len(A)
    while n and not A[n - 1]:
        n -= 1
    del A[n:]
    return A


def _content(A):
    """The integer content of A: the gcd of its integer coefficients."""
    if A and type(A[-1]) is list:
        g = 0
        for a in A:
            g = _igcd(g, _content(a))
            if g == 1:
                break
        return g
    return _igcd(*A)


def _scale(A, c):
    """A times the integer c."""
    if A and type(A[-1]) is list:
        return [_scale(a, c) for a in A]
    return [a * c for a in A]


def _intdiv(A, c):
    """A over a positive integer c that divides its content."""
    if A and type(A[-1]) is list:
        return [_intdiv(a, c) for a in A]
    return [a // c for a in A]


def _norm(A):
    """The largest absolute value of a coefficient of nonzero A."""
    if type(A[-1]) is list:
        return max(_norm(a) for a in A if a)
    return max(max(A), -min(A))


def _lead(A):
    """The leading integer coefficient of nonzero A."""
    while type(A) is list:
        A = A[-1]
    return A


def _positive(A):
    """A or -A, whichever has a positive leading coefficient."""
    return _scale(A, -1) if A and _lead(A) < 0 else A


def _is_const(A):
    """Whether nonzero A is an integer."""
    return len(A) == 1 and (type(A[0]) is int or len(A[0]) == 1)


def _submul(a, q, b):
    """a - q*b in Z[z], in place in a, which is trimmed and returned."""
    n = len(q) + len(b) - 1
    if len(a) < n:
        a.extend([0] * (n - len(a)))
    for i, qi in enumerate(q):
        if qi:
            for j, bj in enumerate(b):
                a[i + j] -= qi * bj
    return trim(a)


def bdivexact(A, B):
    """A/B in Z[z] or Z[z][w]; raises ArithmeticError if B does not divide A.

    Each quotient coefficient is the exact division of a coefficient of A by
    the leading coefficient of B in the coefficient ring, Z or Z[z].
    """
    if not B:
        raise ZeroDivisionError("division by zero in kernel")
    if not A:
        return []
    db, lb = len(B) - 1, B[-1]
    n = len(A) - db
    if n < 1:
        raise ArithmeticError("non-exact division in kernel")
    flat = type(lb) is int
    A = list(A) if flat else [list(a) for a in A]
    out = [0 if flat else []] * n
    for k in range(n - 1, -1, -1):
        c = A[k + db]
        if not c:
            continue
        if flat:
            q, r = divmod(c, lb)
            if r:
                raise ArithmeticError("non-exact division in kernel")
            for j in range(db):
                A[k + j] -= q * B[j]
        else:
            q = bdivexact(c, lb)
            for j in range(db):
                if B[j]:
                    _submul(A[k + j], q, B[j])
        out[k] = q
    # q * lc(B) == c cleared every entry from db up: A[:db] is the remainder
    if any(A[:db]):
        raise ArithmeticError("non-exact division in kernel")
    return trim(out)


def _prem(A, B):
    """A pseudo-remainder of A by nonzero B: lc(B)^e A mod B, e being the
    number of steps that lower the degree, as a trimmed list."""
    A = list(A)
    db, lb = len(B) - 1, B[-1]
    flat = type(lb) is int
    while len(trim(A)) > db:
        la = A.pop()
        s = len(A) - db
        # lc(B) A - la x^s B, whose leading term is gone
        if flat:
            A = [a * lb for a in A]
            for j in range(db):
                A[s + j] -= la * B[j]
        else:
            # each a lc(B) as 0 - a (-lc(B))
            A = [_submul([], a, _scale(lb, -1)) for a in A]
            for j in range(db):
                _submul(A[s + j], la, B[j])
    return A


def _primitive(A):
    """(c, A/c) for nonzero A, c its content over the coefficient ring."""
    if type(A[-1]) is int:
        c = _content(A)
        return c, _intdiv(A, c)
    c = []
    for a in A:
        c = _prs(c, a)
    return c, [bdivexact(a, c) for a in A]


def _prs(A, B):
    """The gcd of A and B in Z[z] or Z[z][w], with a positive leading
    coefficient, by the primitive PRS (W. S. Brown, J. ACM 18, 1971).

    The contents over the coefficient ring are taken out first, and each
    pseudo-remainder is made primitive before it divides again; the gcd is
    the last nonzero one times the gcd of the contents.  Over Z that content
    is an integer gcd, over Z[z] ``_prs`` one level down.  The PRS is
    deterministic: it is the fallback of ``bgcd``, and the reference the
    kernel tests hold GCDHEU to.
    """
    if not (A and B):
        return _positive(A or B)
    ca, A = _primitive(A)
    cb, B = _primitive(B)
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _prem(A, B)
        A, B = B, R and _primitive(R)[1]
    if type(ca) is int:
        return _positive(_scale(A, _igcd(ca, cb)))
    # each a c as 0 - a (-c)
    c = _scale(_prs(ca, cb), -1)
    return _positive([_submul([], a, c) for a in A])


# ---------------------------------------------------------------------------
# gcd in Z[z][w]: the heuristic GCDHEU, with the primitive PRS as fallback

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

    ``_heu`` finds G and its cofactors.  If every point it tries fails, the
    primitive PRS ``_prs`` computes the gcd, and one division per input its
    cofactors.  The gcd has a positive leading coefficient; a zero operand
    returns the other operand as it is, with the cofactors 0 and 1.
    """
    A = trim([trim(list(a)) for a in A])
    B = trim([trim(list(b)) for b in B])
    if not A:
        return Gcd(B, [], [[1]])
    if not B:
        return Gcd(A, [[1]], [])
    found = _heu(A, B)
    if found is None:
        G = _prs(A, B)
        found = G, bdivexact(A, G), bdivexact(B, G)
    return Gcd(*found)


def _heu(A, B):
    """GCDHEU on nonzero A and B in Z[z] or Z[z][w]: ``(G, A/G, B/G)``, G
    the gcd with a positive leading coefficient, or None if every point fails.

    The common integer content is taken out.  Then z -> xi maps A and B to
    Z (from Z[z]) or to Z[w] (from Z[z][w]); the gcd of the images is
    ``math.gcd`` in Z and GCDHEU one level down in Z[w], and the image gcd is
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
    as in SymPy, for at most ``HEU_GCD_TRIES`` points.
    """
    c = _igcd(_content(A), _content(B))
    if c != 1:
        A, B = _intdiv(A, c), _intdiv(B, c)
    if _is_const(A) or _is_const(B):
        return ([c] if type(A[-1]) is int else [[c]]), A, B
    xi = 2 * min(_norm(A), _norm(B)) + 2
    for _ in range(HEU_GCD_TRIES):
        a, b = _eval(A, xi), _eval(B, xi)
        if type(a) is int:
            h = _igcd(a, b) if a and b else 0
        else:
            found = _heu(a, b) if a[-1] and b[-1] else None
            h = found[0] if found else 0
        if h:
            # h > 0 has a positive top digit, so G has a positive lead
            G = _lift(h, xi)
            G = _intdiv(G, _content(G))
            if _is_const(G):
                return _scale(G, c), A, B
            try:
                return _scale(G, c), bdivexact(A, G), bdivexact(B, G)
            except ArithmeticError:
                pass
        xi = _next_xi(xi)
    return None


def _eval(A, x):
    """A at z = x: an integer for A in Z[z], an int list (an element of
    Z[w]) for A in Z[z][w]."""
    if A and type(A[-1]) is list:
        return [_eval(a, x) for a in A]
    v = 0
    for a in reversed(A):
        v = v * x + a
    return v


def _lift(h, x):
    """The integer h as the polynomial in z of its symmetric x-adic digits
    (h = sum d_i x^i with |d_i| <= x/2), or an int list so read entry by
    entry; the inverse of ``_eval`` on small enough coefficients."""
    if type(h) is list:
        return [_lift(e, x) for e in h]
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
