"""Symmetric functions in one alphabet and in a pair of alphabets.

One-alphabet bases: schur "s", power "p", complete "h".
Two-alphabet bases, indexed by 2-partitions:

* "s2": products s_{a}(x0) s_{b}(x1);
* "p2": products of per-alphabet power sums p_{a}(x0) p_{b}(x1);
* "wp": wreath power sums, products of p_r(x0) + p_r(x1) (first slot) and
  p_r(x0) - p_r(x1) (second slot).

Transition tables are computed per degree and memoized.  Schur-to-power
tables come from the Jacobi-Trudi determinant combined with the Newton
expansion of the complete functions; symmetric-group character values are
read off from those tables.  Coefficients are ``RatFun`` over a fixed
variable pair; all values are immutable and operations pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import QT, RatFun
from .partitions import BiPartition, Partition, partition_list, z_stat


# ---------------------------------------------------------------------------
# one-alphabet transition tables (exact Fractions)


@lru_cache(maxsize=None)
def _h_to_power(n: int) -> dict[Partition, Fraction]:
    """h_n = sum over mu of p_mu / z_mu."""
    return {mu: Fraction(1, z_stat(mu)) for mu in partition_list(n)}


def _pmul(a: dict[Partition, Fraction], b: dict[Partition, Fraction]):
    """Product in a multiplicative basis (power sums or h-monomials)."""
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
def _hmono_to_power(mono: Partition) -> dict[Partition, Fraction]:
    """Product h_{mono_1} h_{mono_2} ... expanded in power sums."""
    out = {(): Fraction(1)}
    for k in mono:
        out = _pmul(out, _h_to_power(k))
    return out


@lru_cache(maxsize=None)
def _jacobi_trudi(lam: Partition) -> dict[Partition, int]:
    """s_lam as an integer combination of h-monomials (Jacobi-Trudi)."""
    ell = len(lam)
    if ell == 0:
        return {(): 1}

    @lru_cache(maxsize=None)
    def minor(rows: tuple[int, ...], col: int) -> dict[Partition, int]:
        if not rows:
            return {(): 1}
        out: dict[Partition, int] = {}
        for pos, i in enumerate(rows):
            k = lam[i] - (i + 1) + (col + 1)
            if k < 0:
                continue
            rest = minor(tuple(r for r in rows if r != i), col + 1)
            sign = -1 if pos % 2 else 1
            for mono, c in rest.items():
                key = tuple(sorted(mono + ((k,) if k else ()), reverse=True))
                v = out.get(key, 0) + sign * c
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return out

    result = minor(tuple(range(ell)), 0)
    minor.cache_clear()
    return result


@lru_cache(maxsize=None)
def schur_to_power(lam: Partition) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for mono, c in _jacobi_trudi(lam).items():
        for mu, d in _hmono_to_power(mono).items():
            v = out.get(mu, 0) + c * d
            if v:
                out[mu] = v
            elif mu in out:
                del out[mu]
    return out


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


# ---------------------------------------------------------------------------
# symmetric functions in one alphabet


class SymFunc1:
    """Sparse symmetric function in one alphabet with RatFun coefficients."""

    __slots__ = ("basis", "coeffs", "vars")

    def __init__(self, basis: str, coeffs: dict[Partition, RatFun], vars=QT):
        if basis not in ("s", "p", "h"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.vars = vars
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def basis_elem(cls, basis: str, lam: Partition, vars=QT):
        return cls(basis, {tuple(lam): RatFun.one(vars)}, vars)

    @classmethod
    def one(cls, vars=QT):
        return cls("s", {(): RatFun.one(vars)}, vars)

    @classmethod
    def zero(cls, vars=QT):
        return cls("s", {}, vars)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        a, b = self.to_basis("s"), other.to_basis("s")
        return a.coeffs == b.coeffs

    def __add__(self, other):
        if self.basis != other.basis:
            other = other.to_basis(self.basis)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, RatFun.zero(self.vars)) + c
        return SymFunc1(self.basis, out, self.vars)

    def __neg__(self):
        return SymFunc1(self.basis, {k: -c for k, c in self.coeffs.items()}, self.vars)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SymFunc1":
        if isinstance(c, (int, Fraction)):
            c = RatFun.const(c, self.vars)
        return SymFunc1(self.basis, {k: v * c for k, v in self.coeffs.items()}, self.vars)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFun)):
            return self.scale(other)
        a, b = self.to_basis("p"), other.to_basis("p")
        out: dict[Partition, RatFun] = {}
        for ka, ca in a.coeffs.items():
            for kb, cb in b.coeffs.items():
                key = tuple(sorted(ka + kb, reverse=True))
                v = out.get(key)
                out[key] = ca * cb if v is None else v + ca * cb
        return SymFunc1("p", out, self.vars)

    __rmul__ = __mul__

    def to_basis(self, basis: str) -> "SymFunc1":
        if basis == self.basis:
            return self
        if basis == "p":
            return self._to_power()
        if basis == "s":
            return self._to_power()._power_to_schur()
        if basis == "h":
            return self._to_power()._power_to_h()
        raise ValueError(f"unknown basis {basis!r}")

    def _to_power(self) -> "SymFunc1":
        if self.basis == "p":
            return self
        out: dict[Partition, RatFun] = {}

        def accum(table, c):
            for mu, f in table.items():
                v = out.get(mu)
                add = c * f
                out[mu] = add if v is None else v + add

        for k, c in self.coeffs.items():
            if self.basis == "s":
                accum(schur_to_power(k), c)
            else:
                accum(_hmono_to_power(k), c)
        return SymFunc1("p", out, self.vars)

    def _power_to_schur(self) -> "SymFunc1":
        out: dict[Partition, RatFun] = {}
        for mu, c in self.coeffs.items():
            for lam in partition_list(sum(mu)):
                chi = symgroup_char(lam, mu)
                if chi:
                    v = out.get(lam)
                    add = c * chi
                    out[lam] = add if v is None else v + add
        return SymFunc1("s", out, self.vars)

    def _power_to_h(self) -> "SymFunc1":
        # p in h via inverting the h-in-p expansion degree by degree
        out: dict[Partition, RatFun] = {}
        for mu, c in self.coeffs.items():
            for lam, f in _power_to_hmono(mu).items():
                v = out.get(lam)
                add = c * f
                out[lam] = add if v is None else v + add
        return SymFunc1("h", out, self.vars)

    def scalar_plethysm(self, c: RatFun) -> "SymFunc1":
        """u(Z) -> u[c Z]: multiply p_mu by prod over parts r of c(x^r, y^r)."""
        p = self.to_basis("p")
        out = {}
        for mu, v in p.coeffs.items():
            f = v
            for r in mu:
                f = f * c.scale_powers(r)
            out[mu] = f
        return SymFunc1("p", out, self.vars)

    def hall_inner(self, other: "SymFunc1") -> RatFun:
        a, b = self.to_basis("s"), other.to_basis("s")
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        total = RatFun.zero(self.vars)
        for k, c in a.coeffs.items():
            d = b.coeffs.get(k)
            if d is not None:
                total = total + c * d
        return total

    def evaluate_scalar(self) -> RatFun:
        """Value of the plethystic evaluation with every p_r set to 1.

        Composing with ``scalar_plethysm`` this computes u[c] for a scalar
        alphabet c, e.g. s_lam[1/(1-q)].
        """
        p = self.to_basis("p")
        total = RatFun.zero(self.vars)
        for _, c in p.coeffs.items():
            total = total + c
        return total

    def __repr__(self):
        parts = ", ".join(f"{k}: {c.text()}" for k, c in sorted(self.coeffs.items()))
        return f"SymFunc1[{self.basis}]({parts})"


@lru_cache(maxsize=None)
def _power_to_hmono(mu: Partition) -> dict[Partition, Fraction]:
    # p_n = n h_n - sum_{i=1}^{n-1} h_i p_{n-i}  (Newton), extended to products
    if not mu:
        return {(): Fraction(1)}
    if len(mu) > 1:
        out = {(): Fraction(1)}
        for r in mu:
            out = _pmul(out, _power_to_hmono((r,)))
        return out
    n = mu[0]
    out: dict[Partition, Fraction] = {(n,): Fraction(n)}
    for i in range(1, n):
        for lam, c in _power_to_hmono((n - i,)).items():
            key = tuple(sorted(lam + (i,), reverse=True))
            v = out.get(key, 0) - c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# symmetric functions in the pair of alphabets


class SymFunc2:
    """Sparse symmetric function in the alphabet pair (x0, x1)."""

    __slots__ = ("basis", "coeffs", "vars")

    def __init__(self, basis: str, coeffs: dict[BiPartition, RatFun], vars=QT):
        if basis not in ("s2", "p2", "wp"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.vars = vars
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def basis_elem(cls, basis: str, bp: BiPartition, vars=QT):
        return cls(basis, {(tuple(bp[0]), tuple(bp[1])): RatFun.one(vars)}, vars)

    @classmethod
    def one(cls, vars=QT):
        return cls("s2", {((), ()): RatFun.one(vars)}, vars)

    @classmethod
    def zero(cls, vars=QT):
        return cls("s2", {}, vars)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        a, b = self.to_basis("s2"), other.to_basis("s2")
        return a.coeffs == b.coeffs

    def __add__(self, other):
        if self.basis != other.basis:
            other = other.to_basis(self.basis)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, RatFun.zero(self.vars)) + c
        return SymFunc2(self.basis, out, self.vars)

    def __neg__(self):
        return SymFunc2(self.basis, {k: -c for k, c in self.coeffs.items()}, self.vars)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SymFunc2":
        if isinstance(c, (int, Fraction)):
            c = RatFun.const(c, self.vars)
        return SymFunc2(self.basis, {k: v * c for k, v in self.coeffs.items()}, self.vars)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFun)):
            return self.scale(other)
        a, b = self.to_basis("p2"), other.to_basis("p2")
        out: dict[BiPartition, RatFun] = {}
        for (a0, a1), ca in a.coeffs.items():
            for (b0, b1), cb in b.coeffs.items():
                key = (
                    tuple(sorted(a0 + b0, reverse=True)),
                    tuple(sorted(a1 + b1, reverse=True)),
                )
                v = out.get(key)
                out[key] = ca * cb if v is None else v + ca * cb
        return SymFunc2("p2", out, self.vars)

    __rmul__ = __mul__

    def map_coeffs(self, fn) -> "SymFunc2":
        return SymFunc2(self.basis, {k: fn(c) for k, c in self.coeffs.items()}, self.vars)

    # -- basis conversions --------------------------------------------------

    def to_basis(self, basis: str) -> "SymFunc2":
        if basis == self.basis:
            return self
        if self.basis == "s2":
            f = self._s2_to_p2()
        elif self.basis == "wp":
            f = self._wp_to_p2()
        else:
            f = self
        if basis == "p2":
            return f
        if basis == "s2":
            return f._p2_to_s2()
        if basis == "wp":
            return f._p2_to_wp()
        raise ValueError(f"unknown basis {basis!r}")

    def _s2_to_p2(self) -> "SymFunc2":
        out: dict[BiPartition, RatFun] = {}
        for (l0, l1), c in self.coeffs.items():
            t0 = schur_to_power(l0)
            t1 = schur_to_power(l1)
            for m0, f0 in t0.items():
                for m1, f1 in t1.items():
                    key = (m0, m1)
                    v = out.get(key)
                    add = c * (f0 * f1)
                    out[key] = add if v is None else v + add
        return SymFunc2("p2", out, self.vars)

    def _p2_to_s2(self) -> "SymFunc2":
        out: dict[BiPartition, RatFun] = {}
        for (m0, m1), c in self.coeffs.items():
            for l0 in partition_list(sum(m0)):
                chi0 = symgroup_char(l0, m0)
                if not chi0:
                    continue
                for l1 in partition_list(sum(m1)):
                    chi1 = symgroup_char(l1, m1)
                    if chi1:
                        key = (l0, l1)
                        v = out.get(key)
                        add = c * (chi0 * chi1)
                        out[key] = add if v is None else v + add
        return SymFunc2("s2", out, self.vars)

    def _wp_to_p2(self) -> "SymFunc2":
        out: dict[BiPartition, RatFun] = {}
        for (l0, l1), c in self.coeffs.items():
            expansion = {((), ()): c}
            for r in l0:
                expansion = _p2_expand(expansion, r, plus=True)
            for r in l1:
                expansion = _p2_expand(expansion, r, plus=False)
            for key, v in expansion.items():
                prev = out.get(key)
                out[key] = v if prev is None else prev + v
        return SymFunc2("p2", out, self.vars)

    def _p2_to_wp(self) -> "SymFunc2":
        out: dict[BiPartition, RatFun] = {}
        half = Fraction(1, 2)
        for (m0, m1), c in self.coeffs.items():
            expansion = {((), ()): c}
            for r in m0:
                # p_r(x0) = (wp0_r + wp1_r)/2
                expansion = _wp_expand(expansion, r, half, half)
            for r in m1:
                # p_r(x1) = (wp0_r - wp1_r)/2
                expansion = _wp_expand(expansion, r, half, -half)
            for key, v in expansion.items():
                prev = out.get(key)
                out[key] = v if prev is None else prev + v
        return SymFunc2("wp", out, self.vars)

    # -- operations ---------------------------------------------------------

    def hall_inner(self, other: "SymFunc2") -> RatFun:
        a, b = self.to_basis("s2"), other.to_basis("s2")
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        total = RatFun.zero(self.vars)
        for k, c in a.coeffs.items():
            d = b.coeffs.get(k)
            if d is not None:
                total = total + c * d
        return total

    def alphabet_substitute(self, M) -> "SymFunc2":
        """u(X) -> u(M X) for a 2x2 matrix M of RatFun entries.

        In the p2 basis p_r(x_i) maps to sum_j M[i][j](vars^r) p_r(x_j).
        """
        p = self.to_basis("p2")
        out: dict[BiPartition, RatFun] = {}
        for (m0, m1), c in p.coeffs.items():
            expansion = {((), ()): c}
            for r in m0:
                expansion = _wp_expand(
                    expansion, r, M[0][0].scale_powers(r), M[0][1].scale_powers(r)
                )
            for r in m1:
                expansion = _wp_expand(
                    expansion, r, M[1][0].scale_powers(r), M[1][1].scale_powers(r)
                )
            for key, v in expansion.items():
                prev = out.get(key)
                out[key] = v if prev is None else prev + v
        return SymFunc2("p2", out, self.vars)

    def scalar_plethysm(self, c: RatFun) -> "SymFunc2":
        """Multiply the alphabet pair by a scalar alphabet c (both slots)."""
        p = self.to_basis("p2")
        out = {}
        for (m0, m1), v in p.coeffs.items():
            f = v
            for r in m0 + m1:
                f = f * c.scale_powers(r)
            out[(m0, m1)] = f
        return SymFunc2("p2", out, self.vars)

    def __repr__(self):
        parts = ", ".join(f"{k}: {c.text()}" for k, c in sorted(self.coeffs.items()))
        return f"SymFunc2[{self.basis}]({parts})"


def _p2_expand(expansion, r: int, plus: bool):
    """Multiply a p2 expansion by p_r(x0) +/- p_r(x1)."""
    out: dict[BiPartition, RatFun] = {}
    for (k0, k1), c in expansion.items():
        key0 = (tuple(sorted(k0 + (r,), reverse=True)), k1)
        v = out.get(key0)
        out[key0] = c if v is None else v + c
        key1 = (k0, tuple(sorted(k1 + (r,), reverse=True)))
        c1 = c if plus else -c
        v = out.get(key1)
        out[key1] = c1 if v is None else v + c1
    return out


def _wp_expand(expansion, r: int, c0, c1):
    """Multiply an expansion by c0 * b0_r + c1 * b1_r (slot insertions)."""
    out: dict[BiPartition, RatFun] = {}
    for (k0, k1), c in expansion.items():
        if c0:
            key0 = (tuple(sorted(k0 + (r,), reverse=True)), k1)
            add = c * c0
            v = out.get(key0)
            out[key0] = add if v is None else v + add
        if c1:
            key1 = (k0, tuple(sorted(k1 + (r,), reverse=True)))
            add = c * c1
            v = out.get(key1)
            out[key1] = add if v is None else v + add
    return out


# ---------------------------------------------------------------------------
# named constructors and derived quantities


def complete2(bp: BiPartition, vars=QT) -> SymFunc2:
    """h_{bp}(x) = h_{bp0}(x0) h_{bp1}(x1) expanded in the Schur basis."""
    out: dict[BiPartition, RatFun] = {}
    s0 = SymFunc1.basis_elem("h", bp[0], vars).to_basis("s")
    s1 = SymFunc1.basis_elem("h", bp[1], vars).to_basis("s")
    for l0, c0 in s0.coeffs.items():
        for l1, c1 in s1.coeffs.items():
            out[(l0, l1)] = c0 * c1
    return SymFunc2("s2", out, vars)


def embed_diagonal(f: SymFunc1) -> SymFunc2:
    """u(z) -> u[x0 + x1]: power sums map to first-slot wreath power sums."""
    p = f.to_basis("p")
    return SymFunc2("wp", {(mu, ()): c for mu, c in p.coeffs.items()}, f.vars)


def wreath_char(alpha: BiPartition, beta: BiPartition) -> int:
    """Character value of the size-m wreath product (Z/2 wr S_m)."""
    if sum(alpha[0]) + sum(alpha[1]) != sum(beta[0]) + sum(beta[1]):
        raise ValueError("wreath character needs equal sizes")
    p_beta = SymFunc2.basis_elem("wp", beta).to_basis("s2")
    c = p_beta.coeffs.get((tuple(alpha[0]), tuple(alpha[1])))
    if c is None:
        return 0
    v = c.constant_value()
    if v.denominator != 1:
        raise AssertionError("non-integral wreath character value")
    return v.numerator

