"""Symmetric functions in one alphabet and in a pair of alphabets.

An index is the tuple of its per-alphabet partitions: ``SymFunc1``
indexes by 1-tuples ``(lam,)``, ``SymFunc2`` by 2-partitions.  Both have
the Schur basis "s" (products of per-alphabet Schur functions) and the
power basis "p" in the channel power sums: p_r in one alphabet, and in two
the wreath power sums p^+_r = p_r(x0) + p_r(x1) and p^-_r = p_r(x0) -
p_r(x1) (Macdonald, ch. I, App. B), index (rho+, rho-).  Every operation
is written once, in the base class; a subclass names only its number of
alphabets.

Products, substitutions, equality and the Hall inner product, diagonal
with <p_mu, p_mu> = ``class_z(mu)``, are computed in the power basis.  The
exchange K of the alphabets fixes p^+_r and negates p^-_r, so each
substitution that commutes with K scales the channel power sums
(``alphabet_substitute``), and the merged alphabet x0 + x1 has the p^+_r as
its power sums (``on_merged_alphabet``).  The Schur-to-power table of an
index tensors the Jacobi-Trudi expansions of its partitions and splits
each p_r(x_i) over the channels; the power-to-Schur tables are the
character tables of S_N and of (Z/2)^N x S_N, read off from them.
Coefficients are ``RatFun`` over (q, t); values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .algebra import RatFun, common_denominator
from .partitions import BiPartition, Partition, bipartition_list, partition_list, z_stat


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
# transition tables (exact)


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
                _acc(out, mu, -c if pos % 2 else c)
        return {mu: c for mu, c in out.items() if c}

    result = minor(tuple(range(len(lam))), 0)
    minor.cache_clear()
    return result


@lru_cache(maxsize=None)
def class_z(key: tuple) -> int:
    """<p_key, p_key>, the order of the centralizer of the class ``key``:
    z(rho) in one alphabet, 2^(l(rho+) + l(rho-)) z(rho+) z(rho-) in two."""
    return prod(len(key) ** len(rho) * z_stat(rho) for rho in key)


@lru_cache(maxsize=None)
def _to_power(key: tuple) -> tuple[dict[tuple, int], int]:
    """The product of s_lam(x_i) over the partitions lam of ``key``, in the
    channel power sums, as integer numerators over one denominator: each
    Jacobi-Trudi expansion, with p_r(x_i) the sum over the channels j of
    (-1)^(i j) p^j_r / (the number of alphabets)."""
    width = len(key)
    out = {((),) * width: Fraction(1)}
    for i, lam in enumerate(key):
        factor: dict = {}
        for rho, c in schur_to_power(lam).items():
            term = {((),) * width: c}
            for r in rho:
                split = {}
                for ch in range(width):
                    index = tuple((r,) if j == ch else () for j in range(width))
                    split[index] = Fraction((-1) ** (i * ch), width)
                term = _product(term, split, _merge_index)
            for k, v in term.items():
                _acc(factor, k, v)
        out = _product(out, factor, _merge_index)
    out = {k: v for k, v in out.items() if v}
    den = lcm(*(v.denominator for v in out.values()))
    return {k: int(v * den) for k, v in out.items()}, den


@lru_cache(maxsize=None)
def schur_indices(width: int, n: int) -> tuple[tuple, ...]:
    """The indices of size n in ``width`` (1 or 2) alphabets, in the order
    of ``partition_list`` and ``bipartition_list``."""
    if width == 2:
        return bipartition_list(n)
    return tuple((lam,) for lam in partition_list(n))


@lru_cache(maxsize=None)
def _to_schur(key: tuple) -> tuple[dict[tuple, int], int]:
    """p_key = sum over alpha of chi^alpha_key s_alpha, over the denominator
    1: the characters of the symmetric group (one alphabet) or of
    (Z/2)^N x S_N (two), each read off the Schur-to-power table of alpha
    times ``class_z(key)``."""
    out = {}
    for alpha in schur_indices(len(key), sum(map(sum, key))):
        row, den = _to_power(alpha)
        chi, rest = divmod(row.get(key, 0) * class_z(key), den)
        if rest:
            raise AssertionError("non-integral character value")
        if chi:
            out[alpha] = chi
    return out, 1


# ---------------------------------------------------------------------------
# sparse symmetric functions


class _SymFunc:
    """Sparse symmetric function with RatFun coefficients over (q, t) in
    ``ALPHABETS`` alphabets, stored in the Schur basis ``SCHUR`` or the
    power basis ``POWER``, indexed by tuples of per-alphabet partitions."""

    __slots__ = ("basis", "coeffs", "_power")

    SCHUR = "s"
    POWER = "p"
    ALPHABETS: int

    def __init__(self, basis: str, coeffs: dict):
        if basis not in (self.SCHUR, self.POWER):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        self._power = None  # the power form, once converted to it

    @classmethod
    def basis_elem(cls, basis: str, key):
        return cls(basis, {tuple(map(tuple, key)): RatFun.one()})

    @classmethod
    def one_row(cls, n: int) -> tuple:
        """The index of h_n = s_(n) in the first alphabet."""
        return ((n,) if n else (),) + ((),) * (cls.ALPHABETS - 1)

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
                total = total + c * d * class_z(k)
        return total

    def to_basis(self, basis: str):
        """This function in ``basis``, ``SCHUR`` or ``POWER``: each index
        expanded by its transition table over one common denominator, so
        that each new coefficient is reduced once.  The power form, once
        computed, is kept on the function."""
        if basis == self.basis:
            return self
        if basis == self.POWER and self._power is not None:
            return self._power
        table = _to_power if basis == self.POWER else _to_schur
        rows = [table(k) for k in self.coeffs]
        nums, den = common_denominator(self.coeffs.values())
        scale = lcm(*(d for _, d in rows))
        sums: dict = {}
        for num, (row, d) in zip(nums, rows):
            for key, v in row.items():
                _acc(sums, key, num * (v * scale // d))
        den = den * scale
        out = type(self)(basis, {key: RatFun(v, den) for key, v in sums.items()})
        if basis == self.POWER:
            self._power = out
        return out

    def alphabet_substitute(self, *channels: RatFun):
        """The substitution that multiplies each part r of a power-basis
        index by the value of its channel's ``RatFun`` at (q^r, t^r): one
        value for one alphabet, the p^+ and then the p^- value for two."""
        if len(channels) != self.ALPHABETS:
            raise ValueError(f"expected {self.ALPHABETS} channel values, got {len(channels)}")
        f = self.to_basis(self.POWER)
        top = max((r for k in f.coeffs for rho in k for r in rho), default=0)
        at = [[c.monomial_map((r, 0, 0, r)) for r in range(1, top + 1)] for c in channels]
        one, out = RatFun.one(), {}
        for k, c in f.coeffs.items():
            out[k] = c * prod((at[i][r - 1] for i, rho in enumerate(k) for r in rho), start=one)
        return type(self)(self.POWER, out)

    def __repr__(self):
        parts = ", ".join(f"{k}: {c.text()}" for k, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}[{self.basis}]({parts})"


class SymFunc1(_SymFunc):
    """Symmetric function in one alphabet, indexed by 1-tuples ``(lam,)``."""

    __slots__ = ()
    ALPHABETS = 1


class SymFunc2(_SymFunc):
    """Symmetric function in the alphabet pair (x0, x1), indexed by
    2-partitions."""

    __slots__ = ()
    ALPHABETS = 2


# ---------------------------------------------------------------------------
# the merged alphabet and the wreath characters


def on_merged_alphabet(f: SymFunc1) -> SymFunc2:
    """u(z) -> u[x0 + x1]: p_r(x0 + x1) = p^+_r, so p_lam becomes the power
    index (lam, ())."""
    return SymFunc2(f.POWER, {(lam, ()): c for (lam,), c in f.to_basis(f.POWER).coeffs.items()})


def wreath_char(alpha: BiPartition, beta: BiPartition) -> int:
    """Character value of the size-m wreath product (Z/2 wr S_m): the Schur
    coefficient of alpha in p^+_{beta[0]} p^-_{beta[1]}."""
    if sum(alpha[0]) + sum(alpha[1]) != sum(beta[0]) + sum(beta[1]):
        raise ValueError("wreath character needs equal sizes")
    return _to_schur(beta)[0].get(alpha, 0)
