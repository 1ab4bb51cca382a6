"""Simple types of twisted conjugacy classes (eigenvalue multiplicity data)
and the complete symmetric functions dual to them, built from one-row Schur
functions (h_m = s_(m)), the generic ones on the merged alphabet x0 + x1,
and held in power sums, the basis the Hall pairing reads.
"""

from __future__ import annotations

from collections import namedtuple

from .symfunc import SymFunc1, SymFunc2, on_merged_alphabet


class SimpleType(namedtuple("SimpleType", "m_plus m_minus star")):
    """Multiplicities of the eigenvalues of a semisimple twisted class:
    m_plus for eigenvalue 1, m_minus for the square root of -1, and one
    entry of star per generic eigenvalue orbit (kept in descending order)."""

    __slots__ = ()

    def __new__(cls, m_plus: int, m_minus: int, star: tuple[int, ...]):
        if m_plus < 0 or m_minus < 0 or any(m <= 0 for m in star):
            raise ValueError(f"invalid simple type {m_plus},{m_minus}:{' '.join(map(str, star))}")
        return super().__new__(cls, m_plus, m_minus, tuple(sorted(star, reverse=True)))

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


def h_of_type(beta: SimpleType) -> SymFunc2:
    """Product of the complete symmetric functions dual to a simple type:
    h_(m_plus) and h_(m_minus) of the first alphabet, and the
    diagonal-alphabet h_(m) of each generic multiplicity m."""
    schur = SymFunc2.SCHUR
    out = SymFunc2.basis_elem(schur, SymFunc2.one_row(beta.m_plus))
    out = out * SymFunc2.basis_elem(schur, SymFunc2.one_row(beta.m_minus))
    for m in beta.star:
        out = out * on_merged_alphabet(SymFunc1.basis_elem(schur, SymFunc1.one_row(m)))
    return out
