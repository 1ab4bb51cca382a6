import pytest

from wreathmac.algebra import RatFun
from wreathmac.linsolve import LinearSolveError, solve_unique

q = RatFun.var(0)
t = RatFun.var(1)
one = RatFun.one()
zero = RatFun.zero()

# entries of the planted systems: constants, Laurent monomials, and
# fractions with non-monomial denominators
ENTRIES = (
    zero,
    one,
    RatFun.const(-2),
    q,
    t,
    RatFun.monomial((-1, 2)),
    q - t,
    1 + q * t,
    one / (1 + q - t),
    (q - 1) / (1 + q * t),
    t / (q**2 - t),
)


def entry(rng):
    return rng.choice(ENTRIES)


def nonzero(rng):
    return rng.choice([e for e in ENTRIES if not e.is_zero()])


def dot(row, x):
    acc = zero
    for a, b in zip(row, x):
        acc = acc + a * b
    return acc


def planted(rng, n, extra):
    """A system of n unknowns with a unique solution x, its rows shuffled,
    plus ``extra`` rows that are combinations of the others."""
    # M = L U with unit lower L and upper U of nonzero diagonal is
    # nonsingular
    lower = [[one if i == j else entry(rng) if j < i else zero for j in range(n)] for i in range(n)]
    upper = [[nonzero(rng) if i == j else entry(rng) if j > i else zero for j in range(n)] for i in range(n)]
    rows = [[dot(lower[i], [upper[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]
    for _ in range(extra):
        coef = [entry(rng) for _ in range(n)]
        rows.append([dot(coef, [r[j] for r in rows[:n]]) for j in range(n)])
    rng.shuffle(rows)
    x = [entry(rng) for _ in range(n)]
    return rows, [dot(r, x) for r in rows], x


def test_planted_systems_are_solved_exactly(rng):
    for _ in range(150):
        rows, rhs, x = planted(rng, rng.randint(1, 4), rng.randint(0, 2))
        assert solve_unique(rows, rhs) == x


def test_caller_lists_are_not_mutated(rng):
    rows, rhs, x = planted(rng, 4, 2)
    before = [list(r) for r in rows], list(rhs)
    assert solve_unique(rows, rhs) == x
    assert ([list(r) for r in rows], list(rhs)) == before


def test_inconsistent_redundant_row_raises(rng):
    for _ in range(20):
        rows, rhs, _ = planted(rng, rng.randint(1, 4), rng.randint(0, 1))
        total = [zero] * len(rows[0])
        for r in rows:
            total = [a + b for a, b in zip(total, r)]
        rows.append(total)
        rhs.append(sum(rhs, zero) + 1)
        with pytest.raises(LinearSolveError, match="inconsistent"):
            solve_unique(rows, rhs)


def test_duplicated_column_raises(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        rows, rhs, _ = planted(rng, n, rng.randint(0, 2))
        i, j = rng.sample(range(n), 2)
        for r in rows:
            r[j] = r[i]
        with pytest.raises(LinearSolveError, match="rank-deficient"):
            solve_unique(rows, rhs)


def test_too_few_rows_raise():
    with pytest.raises(LinearSolveError, match="rank-deficient system in column 1"):
        solve_unique([[one, q]], [t])


def test_empty_system_raises():
    with pytest.raises(LinearSolveError):
        solve_unique([], [])

