import pytest

from wreathmac.partitions import (
    brace,
    core_quotient,
    dominance_geq,
    dual,
    from_core_quotient,
    hook_poly,
    hooks,
    induced_dominance_geq,
    n_stat,
    parse_bipartition,
    parse_partition,
    partitions_of,
    size2,
)


def test_dominance_examples():
    assert dominance_geq((2,), (1, 1))
    assert dominance_geq((3, 1), (2, 2))
    assert not dominance_geq((2, 2), (3, 1))
    assert dominance_geq((3, 1), (3, 1))
    with pytest.raises(ValueError):
        dominance_geq((2,), (1, 1, 1))


def test_quotient_core_examples():
    assert core_quotient((3,)) == (1, ((1,), ()))
    assert core_quotient((2,)) == (0, ((1,), ()))
    assert core_quotient((1, 1)) == (0, ((), (1,)))
    # the size-5 staircase-core family, as forced by the beta-number
    # convention (r even exactly when the core is a single box)
    assert core_quotient((5,)) == (1, ((2,), ()))
    assert core_quotient((3, 2)) == (1, ((1, 1), ()))
    assert core_quotient((3, 1, 1)) == (1, ((1,), (1,)))
    assert core_quotient((2, 2, 1)) == (1, ((), (2,)))
    assert core_quotient((1,) * 5) == (1, ((), (1, 1)))


def test_brace_examples():
    assert brace(((1,), ()), 0) == (2,)
    assert brace(((1,), ()), 1) == (3,)
    assert brace(((), (1,)), 1) == (1, 1, 1)


def test_round_trip_and_size_law():
    for n in range(11):
        for lam in partitions_of(n):
            d, quot = core_quotient(lam)
            assert n == d * (d + 1) // 2 + 2 * size2(quot)
            assert from_core_quotient(quot, d) == lam
            if d <= 1:
                assert brace(quot, d) == lam


def test_induced_orders_size2():
    order0 = [((2,), ()), ((), (2,)), ((1,), (1,)), ((1, 1), ()), ((), (1, 1))]
    order1 = [((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    for order, core in ((order0, 0), (order1, 1)):
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                assert induced_dominance_geq(a, b, core) == (i <= j)


def test_hooks():
    assert sorted(h for _, _, h in hooks((2,))) == [1, 2]
    assert sorted(h for _, _, h in hooks((2, 2, 1))) == [1, 1, 2, 3, 4]
    assert hooks(()) == []
    for n in range(7):
        for lam in partitions_of(n):
            assert sum(h for _, _, h in hooks(lam)) == n + n_stat(lam) + n_stat(dual(lam))


def test_hook_poly_and_stats():
    from wreathmac.algebra import RatFun

    q = RatFun.var(0)
    assert hook_poly((1,)) == 1 - q
    assert n_stat((1, 1)) == 1
    assert n_stat((2,)) == 0
    assert dual((2, 1)) == (2, 1)
    for n in range(8):
        for lam in partitions_of(n):
            assert dual(dual(lam)) == lam


def test_parsing():
    assert parse_partition("[3,1,1]") == (3, 1, 1)
    assert parse_partition("[]") == ()
    assert parse_bipartition("([2],[1,1])") == ((2,), (1, 1))
    with pytest.raises(ValueError):
        parse_partition("[1,3]")
