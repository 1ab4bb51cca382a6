"""Exact arithmetic: sparse bivariate Laurent polynomials and their fraction
field.

A ``LaurentPoly`` is a sparse map from exponent pairs ``(a, b)`` (possibly
negative) to nonzero integer coefficients; its operators, its gcd with
cofactors and its exact division are the only polynomial arithmetic of the
package.  A value carries no variable names: where it is built fixes
whether it is over (z, w) or (q, t), and only ``text`` names the pair.  A
``RatFun`` is a reduced fraction of two such polynomials in canonical form:

* numerator and denominator have integer coefficients and no negative
  exponents,
* their polynomial gcd is 1 and the gcd of their integer contents is 1,
* the leading coefficient of the denominator under graded lex (total degree,
  then exponent of the second variable) is positive.

A ``RatFun`` has two makers: ``RatFun(num, den)`` reduces any pair, and
``_signed`` takes a coprime pair (Henrici's sum and product, an inverse, a
power, a negation) and fixes only the sign.  Every operator reads an
``int`` or ``Fraction`` operand as its ``RatFun.const``, so a product with a
scalar is Henrici's product of two fractions.

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
    """Sparse Laurent polynomial in two variables with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        # the polynomial owns ``terms``; it is copied only to drop zeros, so
        # the zero-free dicts the kernels return are stored as they are
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, e: Expo):
        return cls({e: 1})

    @classmethod
    def var(cls, idx: int):
        return cls({((1, 0) if idx == 0 else (0, 1)): 1})

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

    def __add__(self, other):
        return LaurentPoly(kernels.padd(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(kernels.pscale(self.terms, other))
        return LaurentPoly(kernels.pmul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a LaurentPoly; use RatFun")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def gcd(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly", "LaurentPoly"]:
        """``(g, self/g, other/g)`` with g the gcd in Z[x, y] of two ordinary
        polynomials, integer content included, as ``kernels.bgcd`` computes
        it; when g is 1 the cofactors are the operands themselves."""
        if len(other.terms) == 1 and self.terms:
            g, qb, qa = other._monomial_gcd(self)
            return g, qa, qb
        if len(self.terms) == 1 and other.terms:
            return self._monomial_gcd(other)
        G = kernels.bgcd(_to_rec(self.terms), _to_rec(other.terms))
        if G == [[1]]:
            return LaurentPoly.const(1), self, other
        qa, qb = G.quotients
        return (
            LaurentPoly(_from_rec(G)),
            LaurentPoly(_from_rec(qa)),
            LaurentPoly(_from_rec(qb)),
        )

    def _monomial_gcd(self, p: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly", "LaurentPoly"]:
        """``gcd`` of a one-term self = c*x^i*y^j and a nonzero p, without the
        kernel: the gcd is the monomial of the exponent minima with the
        integer gcd of c and the content of p."""
        ((i, j), c), = self.terms.items()
        g = c if c > 0 else -c
        for (x, y), v in p.terms.items():
            if g != 1:
                g = _igcd(g, v)
            if x < i:
                i = x
            if y < j:
                j = y
        if g == 1 and i == j == 0:
            return LaurentPoly.const(1), self, p
        g = LaurentPoly({(i, j): g})
        return g, self.divexact(g), p.divexact(g)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/other; ``ArithmeticError`` when other does not
        divide self.

        By a one-term other = c*x^i*y^j it is an exponent shift and an
        integer division of every coefficient, without the kernel."""
        if len(other.terms) == 1:
            ((i, j), c), = other.terms.items()
            out = {}
            for (x, y), v in self.terms.items():
                qv, rv = divmod(v, c)
                if rv or x < i or y < j:
                    raise ArithmeticError("non-exact division by a monomial")
                out[(x - i, y - j)] = qv
            return LaurentPoly(out)
        return LaurentPoly(_from_rec(kernels.bdivexact(_to_rec(self.terms), _to_rec(other.terms))))

    # -- maps and evaluation ------------------------------------------------

    def shift(self, da: int, db: int) -> "LaurentPoly":
        return LaurentPoly({(a + da, b + db): c for (a, b), c in self.terms.items()})

    def remap(self, f) -> "LaurentPoly":
        """The polynomial with each term c*x^a*y^b sent to s*c times the
        monomial of exponent e, where ``(e, s) = f(a, b)`` and s is 1 or -1;
        terms sent to one exponent add up."""
        out: dict[Expo, int] = {}
        for (a, b), c in self.terms.items():
            e, s = f(a, b)
            out[e] = out.get(e, 0) + s * c
        return LaurentPoly(out)

    def monomial_map(self, m: tuple[int, int, int, int]) -> "LaurentPoly":
        """Exponent substitution x -> x'^m00 y'^m01, y -> x'^m10 y'^m11."""
        m00, m01, m10, m11 = m
        return self.remap(lambda a, b: ((a * m00 + b * m10, a * m01 + b * m11), 1))

    def eval_at(self, x, y):
        """The value at a point; x and y are Fractions when an exponent is
        negative, so that the value stays exact."""
        total = 0
        for (a, b), c in self.terms.items():
            total += c * x**a * y**b
        return total

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def text(self, names=QT) -> str:
        """The polynomial printed in the variables ``names``."""
        if not self.terms:
            return "0"
        x, y = names
        pieces = []
        for (a, b), c in reversed(self.sorted_terms()):
            mono = []
            if a:
                mono.append(x if a == 1 else f"{x}^{a}")
            if b:
                mono.append(y if b == 1 else f"{y}^{b}")
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


class RatFun:
    """Element of the fraction field of Z[x, y], stored in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("RatFun with zero denominator")
        self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPoly):
        return cls(p, LaurentPoly.const(1))

    @classmethod
    def const(cls, c):
        # a Fraction's numerator and denominator are coprime, the latter positive
        c = Fraction(c)
        return _signed(LaurentPoly.const(c.numerator), LaurentPoly.const(c.denominator))

    @classmethod
    def zero(cls):
        return cls.const(0)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var(cls, idx: int):
        return cls.from_poly(LaurentPoly.var(idx))

    @classmethod
    def monomial(cls, e: Expo):
        return cls(LaurentPoly.monomial(e), LaurentPoly.const(1))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant() and self.den.constant_value() == 1

    def as_poly(self, names=QT) -> LaurentPoly:
        """The numerator of a polynomial; the error prints the denominator in
        the variables ``names``."""
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den.text(names)}")
        return self.num

    def constant_value(self) -> Fraction:
        return Fraction(self.num.constant_value(), self.den.constant_value())

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # Henrici: with g = gcd(d1, d2), d1 = g*db and d2 = g*dd, the sum is
        # t/(g*db*dd) with t = n1*dd + n2*db, and no factor of db or dd
        # divides t, so gcd(t, g) is all that can cancel
        if self.den == other.den:
            g, cof = self.den, None
            t = self.num + other.num
        else:
            g, db, dd = self.den.gcd(other.den)
            cof = db * dd
            t = self.num * dd + other.num * db
        if t.is_zero():
            return RatFun.zero()
        _, t, g = t.gcd(g)
        return _signed(t, g if cof is None else g * cof)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _signed(-self.num, self.den)

    def __mul__(self, other):
        other = _operand(other)
        if self.is_zero() or other.is_zero():
            return RatFun.zero()
        # Henrici: once the cross gcds (integer content included) are
        # cancelled, the product of two reduced fractions is reduced
        _, n1, d2 = self.num.gcd(other.den)
        _, n2, d1 = other.num.gcd(self.den)
        return _signed(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero RatFun")
        return _signed(self.den, self.num)

    def __truediv__(self, other):
        return self * _operand(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # powers of a reduced fraction stay reduced
        return _signed(self.num**n, self.den**n)

    def __eq__(self, other):
        other = _operand(other)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- maps and evaluation ------------------------------------------------

    def monomial_map(self, m) -> "RatFun":
        return RatFun(self.num.monomial_map(m), self.den.monomial_map(m))

    def eval_at(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        d = self.den.eval_at(x, y)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval_at(x, y) / d

    def text(self, names=QT) -> str:
        if self.is_polynomial():
            return self.num.text(names)
        return f"({self.num.text(names)}) / ({self.den.text(names)})"

    def to_json(self):
        if self.is_polynomial():
            return self.num.json_terms()
        return {"num": self.num.json_terms(), "den": self.den.json_terms()}

    @classmethod
    def from_json(cls, value):
        """The inverse of ``to_json``: a list of ``[a, b, "c"]`` triples is a
        polynomial, a ``{"num", "den"}`` mapping a fraction."""
        if not isinstance(value, dict):
            value = {"num": value, "den": [[0, 0, 1]]}
        num, den = (
            LaurentPoly({(int(a), int(b)): int(c) for a, b, c in value[part]})
            for part in ("num", "den")
        )
        return cls(num, den)

    def __repr__(self):
        return f"RatFun({self.text()!r})"


def _normalize(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.const(1)
    # clear negative exponents jointly
    na, nb = num.min_exponents()
    da, db = den.min_exponents()
    sa, sb = min(na, da), min(nb, db)
    if sa or sb:
        num = num.shift(-sa, -sb)
        den = den.shift(-sa, -sb)
    # the gcd carries the common integer content too
    _, num, den = num.gcd(den)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def _operand(x):
    """An ``int`` or ``Fraction`` operand as its ``RatFun.const``; any other
    operand as it is."""
    return RatFun.const(x) if isinstance(x, (int, Fraction)) else x


def _signed(num: LaurentPoly, den: LaurentPoly) -> RatFun:
    """The RatFun of a coprime pair of integer polynomials without negative
    exponents: only the sign of the denominator's leading coefficient is
    fixed, nothing is re-normalised."""
    if den.leading_coeff() < 0:
        num, den = -num, -den
    r = object.__new__(RatFun)
    r.num, r.den = num, den
    return r


def common_denominator(values) -> tuple[list[LaurentPoly], LaurentPoly]:
    """``(numerators, E)`` with E the lcm of the denominators of the
    ``RatFun`` values over (q, t), so that each value is its numerator / E."""
    # the values share few denominators: each distinct one joins the lcm
    # and is divided out of it once
    cofactors = dict.fromkeys(v.den for v in values)
    lcm = LaurentPoly.const(1)
    for den in cofactors:
        # times den / gcd(lcm, den), the gcd's second cofactor
        lcm = lcm * lcm.gcd(den)[2]
    for den in cofactors:
        cofactors[den] = lcm.divexact(den)
    one = LaurentPoly.const(1)
    return [v.num if (c := cofactors[v.den]) == one else v.num * c for v in values], lcm

