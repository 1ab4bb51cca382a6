"""Exact arithmetic: sparse bivariate Laurent polynomials and their fraction
field, with the power substitutions used by the polynomial specializations.

A ``LaurentPoly`` is a sparse map from exponent pairs ``(a, b)`` (possibly
negative) to nonzero rational coefficients, together with the pair of
variable names.  A ``RatFun`` is a reduced fraction of two such polynomials
in canonical form:

* numerator and denominator have integer coefficients and no negative
  exponents,
* their polynomial gcd is 1 and the gcd of their integer contents is 1,
* the leading coefficient of the denominator under graded lex (total degree,
  then exponent of the second variable) is positive.

Values are immutable after construction; all operations are pure functions,
so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from . import kernels

Expo = tuple[int, int]

ZW = ("z", "w")
QT = ("q", "t")


def _grlex_key(e: Expo):
    return (e[0] + e[1], e[1], e[0])


class LaurentPoly:
    """Sparse Laurent polynomial in two named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, str], terms=None):
        self.vars = vars
        clean = {}
        if terms:
            for e, c in terms.items():
                # the type test first: an isinstance check against the
                # Fraction ABC is slow, and most coefficients are ints
                if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
                    c = c.numerator
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars=QT):
        return cls(vars, {})

    @classmethod
    def const(cls, c, vars=QT):
        return cls(vars, {(0, 0): c})

    @classmethod
    def monomial(cls, e: Expo, c=1, vars=QT):
        return cls(vars, {e: c})

    @classmethod
    def var(cls, idx: int, vars=QT):
        return cls(vars, {((1, 0) if idx == 0 else (0, 1)): 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0, 0)}

    def constant_value(self):
        if not self.terms:
            return 0
        if self.terms.keys() != {(0, 0)}:
            raise ValueError("not a constant polynomial")
        return self.terms[(0, 0)]

    def min_exponents(self) -> Expo:
        if not self.terms:
            return (0, 0)
        return (min(a for a, _ in self.terms), min(b for _, b in self.terms))

    def max_exponents(self) -> Expo:
        if not self.terms:
            return (0, 0)
        return (max(a for a, _ in self.terms), max(b for _, b in self.terms))

    def leading_coeff(self):
        """Coefficient of the grlex-largest monomial."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms, key=_grlex_key)]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        self._check(other)
        return LaurentPoly(self.vars, kernels.padd(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly(self.vars, kernels.pscale(self.terms, other))
        self._check(other)
        # the kernels only add and multiply coefficients, so Fraction
        # coefficients pass through them unchanged
        return LaurentPoly(self.vars, kernels.pmul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a LaurentPoly; use RatFun")
        out = LaurentPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- maps and evaluation ------------------------------------------------

    def shift(self, da: int, db: int) -> "LaurentPoly":
        return LaurentPoly(self.vars, {(a + da, b + db): c for (a, b), c in self.terms.items()})

    def monomial_map(self, m: tuple[int, int, int, int], vars=None) -> "LaurentPoly":
        """Exponent substitution x -> x'^m00 y'^m01, y -> x'^m10 y'^m11."""
        m00, m01, m10, m11 = m
        out: dict[Expo, object] = {}
        for (a, b), c in self.terms.items():
            key = (a * m00 + b * m10, a * m01 + b * m11)
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return LaurentPoly(vars or self.vars, out)

    def eval_at(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += Fraction(c) * x**a * y**b
        return total

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (a, b), c in reversed(self.sorted_terms()):
            mono = []
            if a:
                mono.append(self.vars[0] if a == 1 else f"{self.vars[0]}^{a}")
            if b:
                mono.append(self.vars[1] if b == 1 else f"{self.vars[1]}^{b}")
            ms = "*".join(mono)
            if not ms:
                piece = str(c)
            elif c == 1:
                piece = ms
            elif c == -1:
                piece = f"-{ms}"
            else:
                piece = f"{c}*{ms}"
            if pieces and not piece.startswith("-"):
                pieces.append("+" + piece)
            else:
                pieces.append(piece)
        return " ".join(pieces)

    def json_terms(self) -> list:
        return [[a, b, str(c)] for (a, b), c in self.sorted_terms()]

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"


def _poly(vars, terms: dict) -> LaurentPoly:
    """The LaurentPoly of a clean term dict (nonzero coefficients, none an
    integral Fraction), stored as is.  ``LaurentPoly(...)`` copies and
    cleans its dict, because Fraction coefficients can sum to integral
    Fractions; the dicts the kernels return for integer inputs, and those
    built below from integer polynomials, are clean already."""
    p = object.__new__(LaurentPoly)
    p.vars, p.terms = vars, terms
    return p


def _mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a*b for integer polynomials in the same variables."""
    return _poly(a.vars, kernels.pmul(a.terms, b.terms))


def _add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a+b for integer polynomials in the same variables."""
    return _poly(a.vars, kernels.padd(a.terms, b.terms))


def poly_from_json(triples, vars=QT) -> LaurentPoly:
    terms = {}
    for a, b, c in triples:
        terms[(int(a), int(b))] = Fraction(c)
    return LaurentPoly(vars, terms)


# ---------------------------------------------------------------------------
# dict <-> recursive dense conversion for the gcd kernels


def _to_rec(terms: dict) -> list:
    # each row ends at its largest z-exponent and the last row is that of the
    # largest w-exponent, so the result is trimmed (terms are nonzero)
    if not terms:
        return []
    rec = [[] for _ in range(max(b for _, b in terms) + 1)]
    for (a, b), c in terms.items():
        row = rec[b]
        if len(row) <= a:
            row.extend([0] * (a + 1 - len(row)))
        row[a] = c
    return rec


def _from_rec(rec: list) -> dict:
    out = {}
    for b, row in enumerate(rec):
        for a, c in enumerate(row):
            if c:
                out[(a, b)] = c
    return out


def _int_content(terms: dict) -> int:
    g = 0
    for c in terms.values():
        g = _igcd(g, c if c > 0 else -c)
        if g == 1:
            return 1
    return g or 1


class RatFun:
    """Element of the fraction field of Z[x, y], stored in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("RatFun with zero denominator")
        num._check(den)
        self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPoly):
        return cls(p, LaurentPoly.const(1, p.vars))

    @classmethod
    def const(cls, c, vars=QT):
        c = Fraction(c)
        return cls(
            LaurentPoly.const(c.numerator, vars),
            LaurentPoly.const(c.denominator, vars),
        )

    @classmethod
    def zero(cls, vars=QT):
        return cls.const(0, vars)

    @classmethod
    def one(cls, vars=QT):
        return cls.const(1, vars)

    @classmethod
    def var(cls, idx: int, vars=QT):
        return cls.from_poly(LaurentPoly.var(idx, vars))

    @classmethod
    def monomial(cls, e: Expo, c=1, vars=QT):
        return cls(LaurentPoly.monomial(e, c, vars), LaurentPoly.const(1, vars))

    # -- predicates ---------------------------------------------------------

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant() and self.den.constant_value() == 1

    def as_poly(self) -> LaurentPoly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den.text()}")
        return self.num

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return Fraction(self.num.constant_value(), self.den.constant_value())

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other, self.vars)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        self.num._check(other.num)
        # Henrici: with g = gcd(d1, d2), d1 = g*db and d2 = g*dd, the sum is
        # t/(g*db*dd) with t = n1*dd + n2*db, and no factor of db or dd
        # divides t, so gcd(t, g) is all that can cancel
        if self.den == other.den:
            g, cof = self.den, None
            t = _add(self.num, other.num)
        else:
            g = _poly_gcd(self.den, other.den)
            db = _poly_divexact(self.den, g)
            dd = _poly_divexact(other.den, g)
            cof = _mul(db, dd)
            t = _add(_mul(self.num, dd), _mul(other.num, db))
        if t.is_zero():
            return RatFun.zero(self.vars)
        h = _poly_gcd(t, g)
        if not _is_one(h):
            t = _poly_divexact(t, h)
            g = _poly_divexact(g, h)
        return _signed(t, g if cof is None else _mul(g, cof))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        r = object.__new__(RatFun)
        r.num, r.den = -self.num, self.den
        return r

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        if self.is_zero() or other.is_zero():
            return RatFun.zero(self.vars)
        self.num._check(other.num)
        # Henrici: once the cross gcds (integer content included) are
        # cancelled, the product of two reduced fractions is reduced
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = _poly_gcd(n1, d2)
        if not _is_one(g1):
            n1, d2 = _poly_divexact(n1, g1), _poly_divexact(d2, g1)
        g2 = _poly_gcd(n2, d1)
        if not _is_one(g2):
            n2, d1 = _poly_divexact(n2, g2), _poly_divexact(d1, g2)
        return _signed(_mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def _scale(self, p: int, q: int):
        """Multiply by the rational p/q; polynomial coprimality is preserved,
        so only integer content and sign need renormalizing."""
        if p == 0:
            return RatFun.zero(self.vars)
        if q < 0:
            p, q = -p, -q
        nt = kernels.pscale(self.num.terms, p)
        dt = kernels.pscale(self.den.terms, q)
        g = _igcd(_int_content(nt), _int_content(dt))
        if g != 1:
            nt = {e: c // g for e, c in nt.items()}
            dt = {e: c // g for e, c in dt.items()}
        return _signed(_poly(self.vars, nt), _poly(self.vars, dt))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero RatFun")
        return _signed(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("RatFun division by zero")
            other = Fraction(other)
            return self._scale(other.denominator, other.numerator)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # powers of a reduced fraction stay reduced
        return _signed(self.num**n, self.den**n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other, self.vars)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- maps and evaluation ------------------------------------------------

    def monomial_map(self, m, vars=None) -> "RatFun":
        return RatFun(self.num.monomial_map(m, vars), self.den.monomial_map(m, vars))

    def scale_powers(self, r: int) -> "RatFun":
        """Raise both variables to the r-th power (x->x^r, y->y^r)."""
        return self.monomial_map((r, 0, 0, r))

    def eval_at(self, x, y) -> Fraction:
        d = self.den.eval_at(x, y)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval_at(x, y) / d

    def text(self) -> str:
        if self.is_polynomial():
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"

    def to_json(self):
        if self.is_polynomial():
            return self.num.json_terms()
        return {"num": self.num.json_terms(), "den": self.den.json_terms()}

    def __repr__(self):
        return f"RatFun({self.text()!r})"


def _normalize(num: LaurentPoly, den: LaurentPoly):
    vars = num.vars
    if num.is_zero():
        return LaurentPoly.zero(vars), LaurentPoly.const(1, vars)
    # clear negative exponents jointly
    na, nb = num.min_exponents()
    da, db = den.min_exponents()
    sa, sb = min(na, da), min(nb, db)
    if sa or sb:
        num = num.shift(-sa, -sb)
        den = den.shift(-sa, -sb)
    # clear rational coefficients
    mult = 1
    for c in num.terms.values():
        if isinstance(c, Fraction):
            mult = mult * c.denominator // _igcd(mult, c.denominator)
    for c in den.terms.values():
        if isinstance(c, Fraction):
            mult = mult * c.denominator // _igcd(mult, c.denominator)
    if mult != 1:
        num = num * mult
        den = den * mult
    nt, dt = num.terms, den.terms
    # integer content
    cg = _igcd(_int_content(nt), _int_content(dt))
    if cg > 1:
        nt = {e: c // cg for e, c in nt.items()}
        dt = {e: c // cg for e, c in dt.items()}
    # polynomial gcd; a one-term side can share nothing further: the joint
    # exponent shift and the content extraction above already make the gcd 1
    if not (len(nt) == 1 or len(dt) == 1):
        nr, dr = _to_rec(nt), _to_rec(dt)
        g = kernels.bgcd(nr, dr)
        if g != [[1]]:
            nt = _from_rec(kernels.bdivexact(nr, g))
            dt = _from_rec(kernels.bdivexact(dr, g))
    # integer-valued and zero-free: the Fractions are cleared above
    num = _poly(vars, nt)
    den = _poly(vars, dt)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def _signed(num: LaurentPoly, den: LaurentPoly) -> RatFun:
    """The RatFun of a coprime pair of integer polynomials without negative
    exponents: only the sign of the denominator's leading coefficient is
    fixed, nothing is re-normalised."""
    if den.leading_coeff() < 0:
        num, den = -num, -den
    r = object.__new__(RatFun)
    r.num, r.den = num, den
    return r


def _is_one(p: LaurentPoly) -> bool:
    return p.terms == {(0, 0): 1}


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd in Z[x, y] of two integer-coefficient ordinary polynomials (same
    vars), integer content included, as ``kernels.bgcd`` computes it.

    Against a one-term operand c*x^i*y^j of a nonzero other operand the gcd
    is the monomial of the exponent minima with the integer gcd of c and the
    other operand's content, so no kernel runs."""
    if len(b.terms) == 1 and a.terms:
        a, b = b, a
    if len(a.terms) == 1 and b.terms:
        ((i, j), c), = a.terms.items()
        g = c if c > 0 else -c
        for (x, y), v in b.terms.items():
            if g != 1:
                g = _igcd(g, v)
            if x < i:
                i = x
            if y < j:
                j = y
        return _poly(a.vars, {(i, j): g})
    return _poly(a.vars, _from_rec(kernels.bgcd(_to_rec(a.terms), _to_rec(b.terms))))


def _poly_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a/b; ``ArithmeticError`` when b does not divide a.

    By a one-term b = c*x^i*y^j it is an exponent shift and an integer
    division of every coefficient, without the kernel."""
    if len(b.terms) == 1:
        ((i, j), c), = b.terms.items()
        out = {}
        for (x, y), v in a.terms.items():
            qv, rv = divmod(v, c)
            if rv or x < i or y < j:
                raise ArithmeticError("non-exact division by a monomial")
            out[(x - i, y - j)] = qv
        return _poly(a.vars, out)
    return _poly(a.vars, _from_rec(kernels.bdivexact(_to_rec(a.terms), _to_rec(b.terms))))


# ---------------------------------------------------------------------------
# power substitutions


def substitute_powers(p: RatFun, mode: str, d: int) -> RatFun:
    """Map a polynomial in (z, w) to (q, t) via z, w -> powers of sqrt(q).

    mode "E":   z -> sqrt(q), w -> 1/sqrt(q), then multiply by sqrt(q)^d;
    mode "MHP": z -> -t*sqrt(q), w -> 1/sqrt(q), then multiply by (t*sqrt(q))^d.

    Every monomial z^a w^b must have a + b even and d must be even, so that
    all resulting exponents are integers.
    """
    if mode not in ("E", "MHP"):
        raise ValueError(f"unknown substitution mode {mode!r}")
    if d % 2:
        raise ValueError(f"odd dimension d={d}")
    poly = p.as_poly()
    out: dict[Expo, object] = {}
    for (a, b), c in poly.terms.items():
        if (a + b) % 2:
            raise ValueError(f"monomial z^{a} w^{b} has odd total degree")
        qexp = (d + a - b) // 2
        if mode == "E":
            key = (qexp, 0)
            coeff = c
        else:
            key = (qexp, d + a)
            coeff = -c if a % 2 else c
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return RatFun.from_poly(LaurentPoly(QT, out))


def half_specialize(p: RatFun) -> RatFun:
    """Substitute z -> sqrt(q), w -> 1/sqrt(q): z^a w^b -> q^((a-b)/2).

    The exponent difference a - b must have uniform parity within the
    numerator and within the denominator (an odd-parity pair cancels the
    half-integer power between them); mixed parity is an error.
    """

    def parity(poly: LaurentPoly) -> int:
        parities = {(a - b) % 2 for a, b in poly.terms}
        if len(parities) > 1:
            raise ValueError("mixed exponent-difference parity; no half-power substitution")
        return parities.pop() if parities else 0

    if p.is_zero():
        return RatFun.zero(QT)
    num, den = p.num, p.den
    if parity(num) != parity(den):
        raise ValueError("numerator and denominator parities differ")
    if parity(num):
        num = num.shift(1, 0)
        den = den.shift(1, 0)

    def spec(poly: LaurentPoly) -> LaurentPoly:
        out: dict[Expo, object] = {}
        for (a, b), c in poly.terms.items():
            key = ((a - b) // 2, 0)
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return LaurentPoly(QT, out)

    return RatFun(spec(num), spec(den))


def double_to_zw(r: RatFun) -> RatFun:
    """Substitute q -> z^2, t -> w^2 (coefficients of the two-variable series)."""
    return r.monomial_map((2, 0, 0, 2), ZW)
