"""Fraction-free linear solving over the rational-function field.

Rows are cleared to common integer-polynomial form and reduced by one-step
Bareiss elimination (all divisions exact over Z[x, y]), so intermediate
entries stay polynomial.  The solver demands a unique solution and checks
consistency of redundant rows; both failure modes raise.
"""

from __future__ import annotations

from .algebra import LaurentPoly, RatFun, common_denominator


class LinearSolveError(ArithmeticError):
    pass


def solve_unique(rows: list[list[RatFun]], rhs: list[RatFun]) -> list[RatFun]:
    """Solve M x = b for the unique x; M may have redundant extra rows."""
    if not rows:
        raise LinearSolveError("empty system")
    ncols = len(rows[0])
    one = LaurentPoly.const(1)

    # clear denominators row by row
    mat = [common_denominator(row + [b])[0] for row, b in zip(rows, rhs)]

    nrows = len(mat)
    prev = one
    piv_rows: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not mat[i][c].is_zero():
                piv = i
                break
        if piv is None:
            raise LinearSolveError(f"rank-deficient system in column {c}")
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][c]
        for i in range(r + 1, nrows):
            if all(mat[i][j].is_zero() for j in range(c, ncols + 1)):
                continue
            fi = mat[i][c]
            for j in range(c, ncols + 1):
                num = pivot * mat[i][j] - fi * mat[r][j]
                mat[i][j] = num.divexact(prev) if not num.is_zero() else num
        prev = pivot
        piv_rows.append(r)
        r += 1

    # redundant rows must have vanished entirely
    for i in range(ncols, nrows):
        if not all(mat[i][j].is_zero() for j in range(ncols + 1)):
            raise LinearSolveError("inconsistent system")

    # back substitution over the fraction field
    x: list[RatFun | None] = [None] * ncols
    for c in range(ncols - 1, -1, -1):
        row = mat[c]
        acc = RatFun(row[ncols], one)
        for j in range(c + 1, ncols):
            if not row[j].is_zero():
                acc = acc - RatFun(row[j], one) * x[j]
        x[c] = acc / RatFun(row[c], one)
    return x  # type: ignore[return-value]
