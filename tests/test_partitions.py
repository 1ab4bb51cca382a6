import pytest

from wreathmac.partitions import (
    PAIRING_T_INV_Q,
    bipartition_list,
    brace,
    dominance_geq,
    dual,
    hook_product,
    hooks,
    n_stat,
    parse_bipartition,
    parse_partition,
    partitions_of,
)


def test_dominance_examples():
    assert dominance_geq((2,), (1, 1))
    assert dominance_geq((3, 1), (2, 2))
    assert not dominance_geq((2, 2), (3, 1))
    assert dominance_geq((3, 1), (3, 1))
    with pytest.raises(ValueError):
        dominance_geq((2,), (1, 1, 1))


def test_brace_examples():
    assert brace(((1,), ()), 0) == (2,)
    assert brace(((1,), ()), 1) == (3,)
    assert brace(((), (1,)), 1) == (1, 1, 1)
    with pytest.raises(ValueError):
        brace(((1,), ()), 2)


def test_quotient_core_examples():
    # each partition is the brace of its 2-quotient at its 2-core
    assert brace(((1,), ()), 1) == (3,)
    assert brace(((1,), ()), 0) == (2,)
    assert brace(((), (1,)), 0) == (1, 1)
    # the size-5 family with 2-core (1), as forced by the beta-number
    # convention (q0 on the even beta-numbers, q1 on the odd ones)
    assert brace(((2,), ()), 1) == (5,)
    assert brace(((1, 1), ()), 1) == (3, 2)
    assert brace(((1,), (1,)), 1) == (3, 1, 1)
    assert brace(((), (2,)), 1) == (2, 2, 1)
    assert brace(((), (1, 1)), 1) == (1,) * 5


def test_brace_is_a_bijection_onto_the_core():
    # a partition's number of even hooks is its 2-weight, so the partitions
    # of n with n // 2 even hooks are those with 2-core (n % 2)
    for n in range(13):
        labels = [brace(bp, n % 2) for bp in bipartition_list(n // 2)]
        assert all(sum(lam) == n for lam in labels)
        assert len(set(labels)) == len(labels)
        even = {lam for lam in partitions_of(n) if sum(h % 2 == 0 for *_, h in hooks(lam)) == n // 2}
        assert set(labels) == even


def test_induced_orders_size2():
    order0 = [((2,), ()), ((), (2,)), ((1,), (1,)), ((1, 1), ()), ((), (1, 1))]
    order1 = [((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    for order, core in ((order0, 0), (order1, 1)):
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                assert dominance_geq(brace(a, core), brace(b, core)) == (i <= j)


def test_hooks():
    assert sorted(h for _, _, h in hooks((2,))) == [1, 2]
    assert sorted(h for _, _, h in hooks((2, 2, 1))) == [1, 1, 2, 3, 4]
    assert hooks(()) == []
    for n in range(7):
        for lam in partitions_of(n):
            assert sum(h for _, _, h in hooks(lam)) == n + n_stat(lam) + n_stat(dual(lam))


def test_hook_poly_and_stats():
    from wreathmac.algebra import RatFun

    # the hook polynomial prod (1 - q^hook), squared, is the self-pairing at
    # u = 1, t = 1/q up to the power q^(-2n(lam)-|lam|)
    q = RatFun.var(0)
    assert hook_product((1,), PAIRING_T_INV_Q) == (1 - q) ** 2 / q
    for n in range(9):
        for lam in partitions_of(n):
            hook_poly = RatFun.one()
            for *_, h in hooks(lam):
                hook_poly = hook_poly * (1 - q**h)
            want = q ** (-2 * n_stat(lam) - n) * hook_poly**2
            assert hook_product(lam, PAIRING_T_INV_Q) == want, lam
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
