"""Combinatorial types of twisted conjugacy classes and of fixed characters:
general types (two 2-partitions plus a multiset of partitions), simple types
(eigenvalue multiplicity data), their duals, and the complete symmetric
functions attached to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import QT
from .partitions import BiPartition, Partition, check_partition, size2
from .symfunc import SymFunc1, SymFunc2, complete2, embed_diagonal


@dataclass(frozen=True)
class SimpleType:
    """Multiplicities of the eigenvalues of a semisimple twisted class:
    m_plus for eigenvalue 1, m_minus for the square root of -1, and one
    entry of star per generic eigenvalue orbit."""

    m_plus: int
    m_minus: int
    star: tuple[int, ...]

    def __post_init__(self):
        if self.m_plus < 0 or self.m_minus < 0 or any(m <= 0 for m in self.star):
            raise ValueError(f"invalid simple type {self}")
        object.__setattr__(self, "star", tuple(sorted(self.star, reverse=True)))

    @property
    def size(self) -> int:
        return self.m_plus + self.m_minus + sum(self.star)

    def __str__(self):
        return f"{self.m_plus},{self.m_minus}:{' '.join(map(str, self.star))}"


def parse_simple_type(s: str) -> SimpleType:
    """Parse the class syntax "m+,m-:m1 m2 ..." (star part may be empty)."""
    try:
        head, _, tail = s.partition(":")
        mp, mm = (int(x) for x in head.split(","))
        star = tuple(int(x) for x in tail.split()) if tail.strip() else ()
        return SimpleType(mp, mm, star)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed class {s!r} (expected 'm+,m-:m1 m2 ...')") from exc


@dataclass(frozen=True)
class TypeData:
    """General type: two 2-partitions and an unordered multiset of nonempty
    partitions (stored sorted)."""

    plus: BiPartition
    minus: BiPartition
    star: tuple[Partition, ...]

    def __post_init__(self):
        star = tuple(sorted((check_partition(p) for p in self.star), reverse=True))
        if any(not p for p in star):
            raise ValueError("star slots must be nonempty partitions")
        object.__setattr__(self, "star", star)

    @property
    def size(self) -> int:
        return size2(self.plus) + size2(self.minus) + sum(sum(p) for p in self.star)


def simple_dual(beta: SimpleType) -> TypeData:
    """Dual of a simple type: one-row partitions in the first slots."""
    one_row = lambda m: ((m,) if m else (), ())
    return TypeData(
        plus=one_row(beta.m_plus),
        minus=one_row(beta.m_minus),
        star=tuple((m,) for m in beta.star),
    )


def h_of_type(omega: TypeData, vars=QT) -> SymFunc2:
    """Product of complete symmetric functions: two-alphabet factors for the
    2-partition slots, diagonal-alphabet factors for the star slots."""
    out = complete2(omega.plus, vars) * complete2(omega.minus, vars)
    for lam in omega.star:
        out = out * embed_diagonal(SymFunc1.basis_elem("h", lam, vars))
    return out.to_basis("s2")

