import json
from importlib import resources
from math import comb, factorial, prod

import pytest

from wreathmac.algebra import RatFun
from wreathmac.macdonald import qt_inner, triangular_family
from wreathmac.partitions import (
    PAIRING_QT,
    bipartition_list,
    brace,
    dual_index,
    hook_product,
    parse_bipartition,
)
from wreathmac.symfunc import SymFunc2
from wreathmac.wreath import wreath_H, wreath_N

q = RatFun.var(0)
t = RatFun.var(1)
one = RatFun.one()


def standard_tableaux(lam):
    """f^lam by the hook-length formula."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
    hooks = prod(row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return factorial(sum(lam)) // hooks


def nabla_and_cot(bp, core):
    """The self-pairing over its even-hook (cotangent) factor at u = 1, and
    that factor."""
    cot = hook_product(brace(bp, core), PAIRING_QT, even_only=True)
    return wreath_N(bp, core) / cot, cot


def load_reference():
    with resources.files("wreathmac.fixtures").joinpath("wreath_reference.json").open() as fh:
        return json.load(fh)


def test_degree_one_family_both_cores():
    for core in (0, 1):
        assert wreath_H(((1,), ()), core).coeffs == {
            ((1,), ()): one,
            ((), (1,)): q,
        }
        assert wreath_H(((), (1,)), core).coeffs == {
            ((1,), ()): one,
            ((), (1,)): t,
        }


@pytest.mark.parametrize("core,key", [(0, "wreath_core0_size2"), (1, "wreath_core1_size2")])
def test_degree_two_family(core, key):
    fixture = load_reference()[key]
    for label, row in fixture.items():
        got = wreath_H(parse_bipartition(label), core).coeffs
        want = {parse_bipartition(b): RatFun.from_json(v) for b, v in row.items()}
        assert got == want


@pytest.mark.parametrize("core,key", [(0, "pair_core0_size2"), (1, "pair_core1_size2")])
def test_pairings_size2(core, key):
    fixture = load_reference()[key]
    for label, value in fixture.items():
        assert wreath_N(parse_bipartition(label), core) == RatFun.from_json(value)


def test_pairings_size1():
    assert wreath_N(((1,), ()), 0) == (q**2 - 1) * (q - t)
    assert wreath_N(((), (1,)), 0) == (t**2 - 1) * (t - q)
    # nabla is trivial in degree 1 and the cotangent factor carries the u
    nabla, cot = nabla_and_cot(((1,), ()), 0)
    assert nabla == one
    assert cot == wreath_N(((1,), ()), 0)


@pytest.mark.parametrize("core", [0, 1])
def test_pairing_is_qt_inner_at_both_members(core):
    # wreath_N reads one member of each dual pair off the other; here each
    # member's pairing is its own qt_inner call
    for n in range(4):
        for bp in bipartition_list(n):
            H = wreath_H(bp, core)
            assert wreath_N(bp, core) == qt_inner(H, H), bp


def test_qt_inner_examples():
    H = wreath_H(((1,), ()), 0)
    assert qt_inner(H, H) == (q**2 - 1) * (q - t)
    H2 = wreath_H(((), (1,)), 0)
    assert qt_inner(H, H2).is_zero()
    assert qt_inner(SymFunc2.one(), SymFunc2.one()) == one
    # symmetry of the pairing
    f = SymFunc2("s", {((1,), ()): one, ((), (1,)): q})
    g = SymFunc2("s", {((1,), ()): -one, ((), (1,)): t})
    assert qt_inner(f, g) == qt_inner(g, f)


def assert_orthogonal(n, core):
    labels = bipartition_list(n)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            assert qt_inner(wreath_H(a, core), wreath_H(b, core)).is_zero(), (a, b)


@pytest.mark.parametrize("core", [0, 1])
def test_orthogonality_sizes_up_to_2(core):
    for n in range(3):
        assert_orthogonal(n, core)


@pytest.mark.parametrize("core", [0, 1])
def test_orthogonality_size_3_stretch(core):
    assert_orthogonal(3, core)


@pytest.mark.parametrize("core", [0, 1])
def test_orthogonality_size_4(core):
    assert_orthogonal(4, core)


@pytest.mark.parametrize("core", [0, 1])
def test_parameter_swap_is_label_dual(core):
    # two independent solves: wreath_H reads one member of each dual pair
    # off the other, so through it the map would be checked against itself
    def solve(bp):
        return triangular_family(SymFunc2, bp, lambda index: brace(index, core)).coeffs

    for n in range(4):
        for bp in bipartition_list(n):
            solved = solve(bp)
            swapped = {k: c.monomial_map((0, 1, 1, 0)) for k, c in solved.items()}
            assert swapped == solve(dual_index(bp))
            assert wreath_H(bp, core).coeffs == solved


@pytest.mark.parametrize("core", [0, 1])
def test_schur_positivity(core):
    for n in range(5):
        for bp in bipartition_list(n):
            for coeff in wreath_H(bp, core).coeffs.values():
                assert len(coeff.den.terms) == 1  # Laurent monomial denominator
                assert all(v > 0 for v in coeff.num.terms.values())


@pytest.mark.parametrize("core", [0, 1])
def test_value_at_q_t_one(core):
    # H(X; 1, 1) = (p^+_1)^n: the coefficient of s_(lam0, lam1) is
    # binom(n, |lam0|) f^lam0 f^lam1; and the coefficient of the one-row
    # s_((n), ()) is 1 at every (q, t)
    for n in range(5):
        want = {
            (a, b): comb(n, sum(a)) * standard_tableaux(a) * standard_tableaux(b)
            for a, b in bipartition_list(n)
        }
        for bp in bipartition_list(n):
            H = wreath_H(bp, core)
            assert {key: c.eval_at(1, 1) for key, c in H.coeffs.items()} == want, bp
            assert H.coeffs[SymFunc2.one_row(n)] == one, bp


@pytest.mark.parametrize("core", [0, 1])
def test_total_equals_nabla_times_cot(core):
    # the pairing is its cotangent factor times a Laurent monomial, so the
    # series divides by nabla at the cost of one monomial
    for n in range(5):
        for bp in bipartition_list(n):
            nabla, _ = nabla_and_cot(bp, core)
            assert len(nabla.num.terms) == len(nabla.den.terms) == 1, bp


def test_nabla_values_size2():
    # the non-trivial nabla factors are monomials
    assert nabla_and_cot(((1, 1), ()), 0)[0] == (t**2).inverse()
    assert nabla_and_cot(((), (2,)), 0)[0] == (q**2).inverse()
    assert nabla_and_cot(((1, 1), ()), 1)[0] == (q**2).inverse()
    assert nabla_and_cot(((), (2,)), 1)[0] == (t**2).inverse()
