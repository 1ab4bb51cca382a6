"""Exact linear solving over the rational-function field Q(q, t).

Gaussian elimination on the ``RatFun`` entries, then back substitution.
Every value stays reduced by Henrici's rules (``algebra.RatFun``), so rows
are never cleared to integer polynomials.  Each column's pivot is the
nonzero entry with the fewest terms.  The solver demands a unique solution
and checks consistency of redundant rows; both failure modes raise.
"""

from __future__ import annotations

from .algebra import RatFun


class LinearSolveError(ArithmeticError):
    pass


def _size(r: RatFun) -> int:
    return len(r.num.terms) + len(r.den.terms)


def solve_unique(rows: list[list[RatFun]], rhs: list[RatFun]) -> list[RatFun]:
    """Solve M x = b for the unique x; M may have redundant extra rows."""
    if not rows:
        raise LinearSolveError("empty system")
    ncols, zero = len(rows[0]), RatFun.zero()
    mat = [row + [b] for row, b in zip(rows, rhs)]
    for c in range(ncols):
        live = [i for i in range(c, len(mat)) if not mat[i][c].is_zero()]
        if not live:
            raise LinearSolveError(f"rank-deficient system in column {c}")
        p = min(live, key=lambda i: _size(mat[i][c]))
        mat[c], mat[p] = mat[p], mat[c]
        top = mat[c]
        support = [j for j in range(c + 1, ncols + 1) if not top[j].is_zero()]
        for row in mat[c + 1 :]:
            if not row[c].is_zero():
                m = row[c] / top[c]
                for j in support:
                    row[j] = row[j] - m * top[j]
                row[c] = zero
    if any(not row[ncols].is_zero() for row in mat[ncols:]):
        raise LinearSolveError("inconsistent system")
    x = [zero] * ncols
    for c in range(ncols - 1, -1, -1):
        row, acc = mat[c], mat[c][ncols]
        for j in range(c + 1, ncols):
            if not row[j].is_zero():
                acc = acc - row[j] * x[j]
        x[c] = acc / row[c]
    return x
