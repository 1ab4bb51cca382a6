from fractions import Fraction
from math import factorial, prod

import pytest

from wreathmac.algebra import RatFun
from wreathmac.macdonald import _image_tables, macdonald_H, qt_inner, triangular_family
from wreathmac.partitions import (
    DEFORMED_ZW,
    PAIRING_QT,
    dual,
    dual_index,
    hook_product,
    hooks,
    n_stat,
    partition_list,
)
from wreathmac.symfunc import SymFunc1, SymFunc2, schur_indices

q = RatFun.var(0)
t = RatFun.var(1)
one = RatFun.one()
zero = RatFun.zero()


def standard_tableaux(lam):
    """f^lam by the hook-length formula."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
    hooks = prod(row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return factorial(sum(lam)) // hooks


def test_degree_2_expansions():
    assert macdonald_H(((2,),)).coeffs == {((2,),): one, ((1, 1),): q}
    assert macdonald_H(((1, 1),)).coeffs == {((2,),): one, ((1, 1),): t}
    assert macdonald_H(((1,),)).coeffs == {((1,),): one}


def test_pairings():
    assert hook_product((2,), PAIRING_QT) == (q**2 - 1) * (q - t) * (q - 1) * (1 - t)
    assert hook_product((1,), PAIRING_QT) == (q - 1) * (1 - t)
    H2 = macdonald_H(((2,),))
    H11 = macdonald_H(((1, 1),))
    assert qt_inner(H2, H2) == hook_product((2,), PAIRING_QT)
    assert qt_inner(H2, H11).is_zero()
    assert qt_inner(SymFunc1.one(), SymFunc1.one()) == one


def test_orthogonality_to_degree_4():
    for n in range(5):
        for a in schur_indices(1, n):
            for b in schur_indices(1, n):
                v = qt_inner(macdonald_H(a), macdonald_H(b))
                assert v == (hook_product(a[0], PAIRING_QT) if a == b else RatFun.zero())


def test_parameter_swap_symmetry():
    # two independent solves: macdonald_H reads one member of each dual pair
    # off the other, so through it the map would be checked against itself
    swap = (0, 1, 1, 0)

    def solve(index):
        return triangular_family(SymFunc1, index, lambda index: index[0]).coeffs

    for n in range(5):
        for index in schur_indices(1, n):
            (lam,) = index
            solved = solve(index)
            swapped = {k: c.monomial_map(swap) for k, c in solved.items()}
            assert swapped == solve(dual_index(index))
            assert macdonald_H(index).coeffs == solved
            # the pairing swaps under (q, t) exchange, the deformed pairing
            # under (z, w) exchange
            for vmap in (PAIRING_QT, DEFORMED_ZW):
                assert hook_product(lam, vmap).monomial_map(swap) == hook_product(dual(lam), vmap)


def test_t_inverse_specialization():
    inv1mq = (one - q).inverse()
    for n in range(5):
        for index in schur_indices(1, n):
            (lam,) = index
            s = SymFunc1.basis_elem("s", index).alphabet_substitute(inv1mq)
            # s_lam[1/(1-q)]: every p_r at 1, read by pairing with h_n = s_(n)
            h_n = SymFunc1.basis_elem("s", SymFunc1.one_row(n))
            f = s.hall_inner(h_n).inverse()
            lhs = {
                k: c.monomial_map((1, 0, -1, 0))
                for k, c in macdonald_H(index).coeffs.items()
            }
            rhs = {
                k: c * f
                for k, c in s.to_basis("s").coeffs.items()
            }
            assert lhs == rhs
            assert hook_product(lam, PAIRING_QT).monomial_map((1, 0, -1, 0)) == RatFun.monomial(
                (-n, 0)
            ) * f * f
            hook_poly = prod((1 - q**h for *_, h in hooks(lam)), start=one)
            assert f == hook_poly / RatFun.monomial((n_stat(lam), 0))


def test_value_at_q_t_one():
    # H~_lam(X; 1, 1) = p_1^n: the coefficient of s_mu is f^mu; and the
    # coefficient of the one-row s_(n) is 1 at every (q, t)
    for n in range(7):
        want = {index: standard_tableaux(*index) for index in schur_indices(1, n)}
        for index in schur_indices(1, n):
            H = macdonald_H(index)
            assert {key: c.eval_at(1, 1) for key, c in H.coeffs.items()} == want, index
            assert H.coeffs[SymFunc1.one_row(n)] == one, index


def test_deformed_at_one():
    for n in range(6):
        for lam in partition_list(n):
            at_u1 = hook_product(lam, DEFORMED_ZW).monomial_map((1, 0, -1, 0))
            expect = hook_product(lam, PAIRING_QT).monomial_map((2, 0, -2, 0))
            assert at_u1 == expect


def test_hook_product_matches_box_formula(rng):
    # each form of the product the library builds, with (u, q, t) at the
    # point (x, y) of its variable pair
    forms = (
        (lambda lam, e: hook_product(lam, PAIRING_QT, e), lambda x, y: (1, x, y)),
        (
            lambda lam, e: hook_product(lam, PAIRING_QT, e).monomial_map((2, 0, 0, 2)),
            lambda x, y: (1, x * x, y * y),
        ),
        (lambda lam, e: hook_product(lam, DEFORMED_ZW, e), lambda x, y: (x * y, x * x, y * y)),
    )
    for form, (build, uqt) in enumerate(forms):
        for even_only in (False, True):
            for n in range(7):
                for lam in partition_list(n):
                    x, y = (
                        Fraction(rng.randrange(-8, 9) or 1, rng.randrange(1, 9)) for _ in range(2)
                    )
                    u, q_, t_ = uqt(x, y)
                    want = Fraction(1)
                    for a, l, h in hooks(lam):
                        if not (even_only and h % 2):
                            want *= (q_ ** (a + 1) - u * t_**l) * (q_**a - t_ ** (l + 1) / u)
                    got = build(lam, even_only).eval_at(x, y)
                    assert got == want, (form, even_only, lam, x, y)


@pytest.mark.parametrize("cls", [SymFunc1, SymFunc2], ids=["SymFunc1", "SymFunc2"])
def test_qt_inner_is_the_hall_pairing_after_three_substitutions(cls, rng):
    # (q + t)I - (1 + qt)K is the product of -K, I - qK and I - tK, with K
    # the exchange of the alphabets; K fixes p^+_r and negates p^-_r, so
    # each factor is a pair of channel values (the first alone for one
    # alphabet)
    def channels(plus, minus):
        return (plus, minus)[: cls.ALPHABETS]

    def operand():
        keys = [k for n in range(4) for k in schur_indices(cls.ALPHABETS, n)]
        coeffs = {k: q * rng.randrange(-2, 3) + t * rng.randrange(-2, 3) + 1 for k in keys}
        return cls(rng.choice((cls.SCHUR, cls.POWER)), coeffs)

    for _ in range(5):
        f, g = operand(), operand()
        twisted = (
            g.alphabet_substitute(*channels(-one, one))
            .alphabet_substitute(*channels(1 - q, 1 + q))
            .alphabet_substitute(*channels(1 - t, 1 + t))
        )
        assert qt_inner(f, g) == f.hall_inner(twisted)


@pytest.mark.parametrize("cls", [SymFunc1, SymFunc2], ids=["SymFunc1", "SymFunc2"])
def test_t_image_table_is_the_substituted_one(cls):
    # the t-side is read off the q-side by exchanging q and t; here it is
    # substituted directly, X -> (I - tK)X
    schur = cls.SCHUR
    channels = (1 - t, 1 + t)[: cls.ALPHABETS]
    for n in range(4):
        q_side, t_side = _image_tables(cls, n)
        assert list(t_side) == list(q_side) == list(schur_indices(cls.ALPHABETS, n))
        for b, row in t_side.items():
            image = cls.basis_elem(schur, b).alphabet_substitute(*channels)
            assert row == image.to_basis(schur).coeffs, b
