# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled arithmetic kernels; mirrors the products and exact divisions
of ``_kernels_py`` exactly.  The bivariate gcd has no twin here:
``kernels.py`` takes ``bgcd`` from ``_kernels_py`` under both backends.

Exponents are machine ints; coefficients stay Python ints (arbitrary
precision).  The win over the pure-Python kernels is loop and dict overhead
in polynomial multiplication and exact division.
"""


def pmul(dict a, dict b):
    cdef long xa, ya, xb, yb
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    cdef dict out = {}
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


def padd(dict a, dict b):
    cdef dict out = dict(a)
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


def pscale(dict a, c):
    if not c:
        return {}
    return {key: v * c for key, v in a.items()}


def utrim(list a):
    cdef Py_ssize_t n = len(a)
    while n and not a[n - 1]:
        n -= 1
    del a[n:]
    return a


def umul(list a, list b):
    cdef Py_ssize_t i, j, la = len(a), lb = len(b)
    if la == 0 or lb == 0:
        return []
    cdef list out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return utrim(out)


def uadd(list a, list b):
    cdef Py_ssize_t i
    if len(a) < len(b):
        a, b = b, a
    cdef list out = list(a)
    for i in range(len(b)):
        out[i] = out[i] + b[i]
    return utrim(out)


def uscale(list a, c):
    if not c:
        return []
    return [ai * c for ai in a]


def udivexact(list a, list b):
    cdef Py_ssize_t db, da, k, j
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    if not a:
        return []
    a = list(a)
    db = len(b) - 1
    lb = b[db]
    da = len(a) - 1
    if da < db:
        raise ArithmeticError("non-exact univariate division")
    cdef list out = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db]
        if c:
            q, r = divmod(c, lb)
            if r:
                raise ArithmeticError("non-exact univariate division")
            out[k] = q
            for j in range(db + 1):
                a[k + j] = a[k + j] - q * b[j]
    for ai in a:
        if ai:
            raise ArithmeticError("non-exact univariate division")
    return utrim(out)


def btrim(list A):
    cdef Py_ssize_t n = len(A)
    while n and not A[n - 1]:
        n -= 1
    del A[n:]
    return A


def bmul(list A, list B):
    cdef Py_ssize_t i, j, la = len(A), lb = len(B)
    if la == 0 or lb == 0:
        return []
    cdef list out = [[] for _ in range(la + lb - 1)]
    for i in range(la):
        ai = A[i]
        if ai:
            for j in range(lb):
                bj = B[j]
                if bj:
                    out[i + j] = uadd(out[i + j], umul(ai, bj))
    return btrim(out)


def bdivexact(list A, list B):
    cdef Py_ssize_t db, da, k, j
    if not B:
        raise ZeroDivisionError("bivariate division by zero")
    if not A:
        return []
    A = [list(ai) for ai in A]
    db = len(B) - 1
    lb = B[db]
    da = len(A) - 1
    if da < db:
        raise ArithmeticError("non-exact bivariate division")
    cdef list out = [[] for _ in range(da - db + 1)]
    for k in range(da - db, -1, -1):
        c = A[k + db]
        if c:
            q = udivexact(c, lb)
            out[k] = q
            for j in range(db + 1):
                if B[j]:
                    A[k + j] = uadd(A[k + j], uscale(umul(q, B[j]), -1))
    for ai in A:
        if ai:
            raise ArithmeticError("non-exact bivariate division")
    return btrim(out)
