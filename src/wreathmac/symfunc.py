"""Symmetric functions in one alphabet and in a pair of alphabets.

An index is the tuple of its per-alphabet partitions: ``SymFunc1``
indexes by 1-tuples ``(lam,)``, ``SymFunc2`` by 2-partitions.  Each has a
Schur basis ("s", "s2": products of per-alphabet Schur functions) and a
power basis ("p", "p2": products of per-alphabet power sums).  Every
operation is written once, in the base class, over that tuple; a subclass
only names its bases, its number of alphabets and the matrix K that
exchanges them.

The power basis is the working basis: products and alphabet substitutions
are computed there, and equality and the Hall inner product, which is
diagonal there (<p_mu, p_nu> = z_mu if mu = nu, else 0, with z the product
of the per-alphabet z), read it.  An alphabet substitution by a matrix M,
with a row per alphabet of the function and a column per alphabet of the
result, sends p_r(x_i) to sum_j M[i][j](q^r, t^r) p_r(y_j): [[c]] is the
plethysm u[cZ], ``DIAGONAL`` = [[1, 1]] is u[x0 + x1], and the wreath power
sums, p_r(x0) + p_r(x1) in the first slot and p_r(x0) - p_r(x1) in the
second, are the image of p2 under [[1, 1], [1, -1]].

A function converts to the Schur and power bases of its alphabets through
one memoized table per partition, tensored over the alphabets.
Schur-to-power tables expand the Jacobi-Trudi determinant with each
complete function read in power sums; symmetric-group character values, and
with them the power-to-Schur tables, are read off from those tables.
Coefficients are ``RatFun`` over (q, t); all values are immutable and
operations pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from .algebra import RatFun
from .partitions import BiPartition, Partition, partition_list, z_stat


# ---------------------------------------------------------------------------
# power-sum expansions: dicts from index to coefficient


def _acc(out: dict, key, value) -> None:
    """out[key] += value."""
    v = out.get(key)
    out[key] = value if v is None else v + value


def _merge(a: Partition, b: Partition) -> Partition:
    """The partition whose parts are those of a and of b."""
    return tuple(sorted(a + b, reverse=True))


def _merge_index(a: tuple, b: tuple) -> tuple:
    """The index whose partition in each alphabet joins those of a and b."""
    return tuple(map(_merge, a, b))


def _product(a: dict, b: dict, merge) -> dict:
    """Product of two power-sum expansions; ``merge`` joins their indices."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _acc(out, merge(ka, kb), ca * cb)
    return out


# ---------------------------------------------------------------------------
# one-alphabet transition tables (exact Fractions)


@lru_cache(maxsize=None)
def _h_to_power(n: int) -> dict[Partition, Fraction]:
    """h_n = sum over mu of p_mu / z_mu."""
    return {mu: Fraction(1, z_stat(mu)) for mu in partition_list(n)}


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
            for mu, c in _product(_h_to_power(k), rest, _merge).items():
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


class _SymFunc:
    """Sparse symmetric function with RatFun coefficients over (q, t) in
    ``ALPHABETS`` alphabets, stored in one of the subclass's ``BASES`` (its
    Schur basis, then its power basis ``POWER``), indexed by tuples of
    per-alphabet partitions."""

    __slots__ = ("basis", "coeffs")

    BASES: tuple[str, str]
    POWER: str
    ALPHABETS: int
    EXCHANGE: list  # the matrix K that exchanges the alphabets

    def __init__(self, basis: str, coeffs: dict):
        if basis not in self.BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def basis_elem(cls, basis: str, key):
        return cls(basis, {tuple(map(tuple, key)): RatFun.one()})

    @classmethod
    def one(cls):
        return cls(cls.POWER, {((),) * cls.ALPHABETS: RatFun.one()})

    def __eq__(self, other):
        a, b = self.to_basis(self.POWER), other.to_basis(self.POWER)
        return a.coeffs == b.coeffs

    def __mul__(self, other):
        a, b = self.to_basis(self.POWER), other.to_basis(self.POWER)
        return type(self)(self.POWER, _product(a.coeffs, b.coeffs, _merge_index))

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
                total = total + c * d * prod(map(z_stat, k))
        return total

    def to_basis(self, basis: str):
        """This function in ``basis``, one of ``BASES``: each index expanded
        by the per-partition transition table, tensored over the
        alphabets."""
        if basis == self.basis:
            return self
        if basis not in self.BASES:
            raise ValueError(f"cannot convert to basis {basis!r}")
        table = schur_to_power if basis == self.POWER else _power_to_schur
        out: dict = {}
        for k, c in self.coeffs.items():
            for terms in product(*(table(lam).items() for lam in k)):
                keys, factors = zip(*terms)
                _acc(out, keys, c * prod(factors))
        return type(self)(basis, out)

    def alphabet_substitute(self, M):
        """u(X) -> u(M Y) for a matrix M of RatFun entries with a row per
        alphabet of this function and a column per alphabet of the result:
        in power sums p_r(x_i) maps to sum_j M[i][j](q^r, t^r) p_r(y_j)."""
        width = len(M[0])
        cls = _BY_ALPHABETS[width]
        images: dict = {}  # (i, r) -> the image of p_r(x_i)
        out: dict = {}
        for k, c in self.to_basis(self.POWER).coeffs.items():
            expansion = {((),) * width: c}
            for i, lam in enumerate(k):
                for r in lam:
                    image = images.get((i, r))
                    if image is None:
                        image = images[(i, r)] = {
                            tuple((r,) if j == col else () for j in range(width)):
                            m.monomial_map((r, 0, 0, r))
                            for col, m in enumerate(M[i])
                            if not m.is_zero()
                        }
                    expansion = _product(expansion, image, _merge_index)
            for key, v in expansion.items():
                _acc(out, key, v)
        return cls(cls.POWER, out)

    def __repr__(self):
        parts = ", ".join(f"{k}: {c.text()}" for k, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}[{self.basis}]({parts})"


class SymFunc1(_SymFunc):
    """Symmetric function in one alphabet, indexed by 1-tuples ``(lam,)``."""

    __slots__ = ()
    BASES = ("s", "p")
    POWER = "p"
    ALPHABETS = 1
    EXCHANGE = [[RatFun.one()]]


class SymFunc2(_SymFunc):
    """Symmetric function in the alphabet pair (x0, x1), indexed by
    2-partitions."""

    __slots__ = ()
    BASES = ("s2", "p2")
    POWER = "p2"
    ALPHABETS = 2
    EXCHANGE = [[RatFun.zero(), RatFun.one()], [RatFun.one(), RatFun.zero()]]


_BY_ALPHABETS = {cls.ALPHABETS: cls for cls in (SymFunc1, SymFunc2)}


# ---------------------------------------------------------------------------
# named substitutions and derived quantities


# p_r(z) -> p_r(x0) + p_r(x1): a one-alphabet function on the merged alphabet
DIAGONAL = [[RatFun.one(), RatFun.one()]]

# p_r(x0) -> p_r(x0) + p_r(x1) and p_r(x1) -> p_r(x0) - p_r(x1): the image
# of a p2 index is the product of the wreath power sums of its parts
_WREATH_POWER = [[RatFun.one(), RatFun.one()], [RatFun.one(), -RatFun.one()]]


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
