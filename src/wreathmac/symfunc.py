"""Symmetric functions in one alphabet and in a pair of alphabets.

One-alphabet bases, indexed by partitions: schur "s" and power "p".
Two-alphabet bases, indexed by 2-partitions: "s2", products
s_{a}(x0) s_{b}(x1), and "p2", products of per-alphabet power sums
p_{a}(x0) p_{b}(x1).  The wreath power sums, p_r(x0) + p_r(x1) in the first
slot and p_r(x0) - p_r(x1) in the second, are the image of p2 under the
alphabet substitution by [[1, 1], [1, -1]].

The power basis is the working basis: products, plethysms and alphabet
substitutions are computed there, and equality and the Hall inner product,
which is diagonal there (<p_mu, p_nu> = z_mu if mu = nu, else 0), read it.
A function converts to the Schur and power bases of its alphabet through
one memoized table per partition, applied to each alphabet.  Schur-to-power
tables expand the Jacobi-Trudi determinant with each complete function read
in power sums; symmetric-group character values, and with them the
power-to-Schur tables, are read off from those tables.
Coefficients are ``RatFun`` over (q, t); all values are immutable and
operations pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import RatFun
from .partitions import BiPartition, Partition, partition_list, z_stat


# ---------------------------------------------------------------------------
# one-alphabet transition tables (exact Fractions)


@lru_cache(maxsize=None)
def _h_to_power(n: int) -> dict[Partition, Fraction]:
    """h_n = sum over mu of p_mu / z_mu."""
    return {mu: Fraction(1, z_stat(mu)) for mu in partition_list(n)}


def _pmul(a: dict[Partition, Fraction], b: dict[Partition, Fraction]):
    """Product of two power-sum expansions."""
    out: dict[Partition, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def schur_to_power(lam: Partition) -> dict[Partition, Fraction]:
    """s_lam = det(h_{lam_i - i + j}) (Jacobi-Trudi), expanded along its
    columns with each entry h_k read in power sums."""

    @lru_cache(maxsize=None)
    def minor(rows: tuple[int, ...], col: int) -> dict[Partition, Fraction]:
        if not rows:
            return {(): Fraction(1)}
        out: dict[Partition, Fraction] = {}
        for pos, i in enumerate(rows):
            k = lam[i] - i + col
            if k < 0:
                continue
            rest = minor(rows[:pos] + rows[pos + 1 :], col + 1)
            for mu, c in _pmul(_h_to_power(k), rest).items():
                v = out.get(mu, 0) + (-c if pos % 2 else c)
                if v:
                    out[mu] = v
                elif mu in out:
                    del out[mu]
        return out

    result = minor(tuple(range(len(lam))), 0)
    minor.cache_clear()
    return result


@lru_cache(maxsize=None)
def symgroup_char(lam: Partition, mu: Partition) -> int:
    """Character of the symmetric group: coefficient chi^lam_mu."""
    if sum(lam) != sum(mu):
        raise ValueError("character needs equal sizes")
    c = schur_to_power(lam).get(mu, 0)
    v = c * z_stat(mu)
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise AssertionError("non-integral character value")
        v = v.numerator
    return v


@lru_cache(maxsize=None)
def _power_to_schur(mu: Partition) -> dict[Partition, int]:
    """p_mu = sum over lam of chi^lam_mu s_lam."""
    return {lam: chi for lam in partition_list(sum(mu)) if (chi := symgroup_char(lam, mu))}


# ---------------------------------------------------------------------------
# sparse symmetric functions


def _acc(out: dict, key, value: RatFun) -> None:
    """out[key] += value, for a dict of RatFun coefficients."""
    v = out.get(key)
    out[key] = value if v is None else v + value


class _SymFunc:
    """Sparse symmetric function with RatFun coefficients over (q, t),
    stored in one of the subclass's ``BASES``; equality and the Hall inner
    product are read in its power basis ``POWER``, where ``_z`` gives the
    self-pairing of each basis element."""

    __slots__ = ("basis", "coeffs")

    BASES: tuple[str, ...]
    POWER: str
    EMPTY: tuple  # the index of the empty product

    def __init__(self, basis: str, coeffs: dict):
        if basis not in self.BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def one(cls):
        return cls(cls.POWER, {cls.EMPTY: RatFun.one()})

    def __eq__(self, other):
        a, b = self.to_basis(self.POWER), other.to_basis(self.POWER)
        return a.coeffs == b.coeffs

    def hall_inner(self, other) -> RatFun:
        """sum over mu of c_mu d_mu z_mu, for the power-basis coefficients
        c and d of the two functions."""
        a, b = self.to_basis(self.POWER), other.to_basis(self.POWER)
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        total = RatFun.zero()
        for k, c in a.coeffs.items():
            d = b.coeffs.get(k)
            if d is not None:
                total = total + c * d * self._z(k)
        return total

    def to_basis(self, basis: str):
        """This function in ``basis``, one of ``BASES``: each index expanded
        by ``_expand`` through the per-partition transition table."""
        if basis == self.basis:
            return self
        if basis not in self.BASES:
            raise ValueError(f"cannot convert to basis {basis!r}")
        table = schur_to_power if basis == self.POWER else _power_to_schur
        out: dict = {}
        for k, c in self.coeffs.items():
            for key, f in self._expand(k, table):
                _acc(out, key, c * f)
        return type(self)(basis, out)

    def __repr__(self):
        parts = ", ".join(f"{k}: {c.text()}" for k, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}[{self.basis}]({parts})"


class SymFunc1(_SymFunc):
    """Symmetric function in one alphabet, indexed by partitions."""

    __slots__ = ()
    BASES = ("s", "p")
    POWER = "p"
    EMPTY = ()
    _z = staticmethod(z_stat)

    @classmethod
    def basis_elem(cls, basis: str, lam: Partition):
        return cls(basis, {tuple(lam): RatFun.one()})

    @staticmethod
    def _expand(lam: Partition, table):
        return table(lam).items()

    def scalar_plethysm(self, c: RatFun) -> "SymFunc1":
        """u(Z) -> u[c Z]: multiply p_mu by prod over parts r of c(x^r, y^r)."""
        p = self.to_basis("p")
        out = {}
        for mu, v in p.coeffs.items():
            f = v
            for r in mu:
                f = f * c.scale_powers(r)
            out[mu] = f
        return SymFunc1("p", out)

    def evaluate_scalar(self) -> RatFun:
        """Value of the plethystic evaluation with every p_r set to 1.

        Composing with ``scalar_plethysm`` this computes u[c] for a scalar
        alphabet c, e.g. s_lam[1/(1-q)].
        """
        p = self.to_basis("p")
        total = RatFun.zero()
        for _, c in p.coeffs.items():
            total = total + c
        return total


class SymFunc2(_SymFunc):
    """Symmetric function in the alphabet pair (x0, x1), indexed by
    2-partitions."""

    __slots__ = ()
    BASES = ("s2", "p2")
    POWER = "p2"
    EMPTY = ((), ())

    @staticmethod
    def _z(bp: BiPartition) -> int:
        return z_stat(bp[0]) * z_stat(bp[1])

    @classmethod
    def basis_elem(cls, basis: str, bp: BiPartition):
        return cls(basis, {(tuple(bp[0]), tuple(bp[1])): RatFun.one()})

    def __mul__(self, other: "SymFunc2") -> "SymFunc2":
        a, b = self.to_basis("p2"), other.to_basis("p2")
        out: dict[BiPartition, RatFun] = {}
        for (a0, a1), ca in a.coeffs.items():
            for (b0, b1), cb in b.coeffs.items():
                key = (
                    tuple(sorted(a0 + b0, reverse=True)),
                    tuple(sorted(a1 + b1, reverse=True)),
                )
                _acc(out, key, ca * cb)
        return SymFunc2("p2", out)

    @staticmethod
    def _expand(bp: BiPartition, table):
        """The table applied to each alphabet: the tensor product of the two
        expansions."""
        t0, t1 = table(bp[0]), table(bp[1])
        return (((k0, k1), f0 * f1) for k0, f0 in t0.items() for k1, f1 in t1.items())

    def alphabet_substitute(self, M) -> "SymFunc2":
        """u(X) -> u(M X) for a 2x2 matrix M of RatFun entries.

        In the p2 basis p_r(x_i) maps to sum_j M[i][j](q^r, t^r) p_r(x_j).
        """
        out: dict[BiPartition, RatFun] = {}
        for (l0, l1), c in self.to_basis("p2").coeffs.items():
            expansion = {((), ()): c}
            for row, parts in zip(M, (l0, l1)):
                for r in parts:
                    expansion = _insert_part(
                        expansion, r, row[0].scale_powers(r), row[1].scale_powers(r)
                    )
            for key, v in expansion.items():
                _acc(out, key, v)
        return SymFunc2("p2", out)


def _insert_part(expansion, r: int, c0, c1):
    """Multiply a p2 expansion by c0 p_r(x0) + c1 p_r(x1)."""
    out: dict[BiPartition, RatFun] = {}
    for (k0, k1), c in expansion.items():
        _acc(out, (tuple(sorted(k0 + (r,), reverse=True)), k1), c * c0)
        _acc(out, (k0, tuple(sorted(k1 + (r,), reverse=True))), c * c1)
    return out


# ---------------------------------------------------------------------------
# named constructors and derived quantities


# p_r(x0) -> p_r(x0) + p_r(x1) and p_r(x1) -> p_r(x0) - p_r(x1): the image
# of a p2 index is the product of the wreath power sums of its parts
_WREATH_POWER = [[RatFun.one(), RatFun.one()], [RatFun.one(), -RatFun.one()]]


def embed_diagonal(f: SymFunc1) -> SymFunc2:
    """u(z) -> u[x0 + x1]: power sums map to first-slot wreath power sums."""
    p = f.to_basis("p")
    return SymFunc2("p2", {(mu, ()): c for mu, c in p.coeffs.items()}).alphabet_substitute(
        _WREATH_POWER
    )


def wreath_char(alpha: BiPartition, beta: BiPartition) -> int:
    """Character value of the size-m wreath product (Z/2 wr S_m)."""
    if sum(alpha[0]) + sum(alpha[1]) != sum(beta[0]) + sum(beta[1]):
        raise ValueError("wreath character needs equal sizes")
    p_beta = SymFunc2.basis_elem("p2", beta).alphabet_substitute(_WREATH_POWER).to_basis("s2")
    c = p_beta.coeffs.get((tuple(alpha[0]), tuple(alpha[1])))
    if c is None:
        return 0
    v = c.constant_value()
    if v.denominator != 1:
        raise AssertionError("non-integral wreath character value")
    return v.numerator
