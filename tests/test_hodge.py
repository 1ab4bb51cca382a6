import json
import random
import re
from importlib import resources

import pytest

from wreathmac import cli, hodge
from wreathmac.algebra import QT, LaurentPoly, RatFun, ZW
from wreathmac.classtypes import SimpleType, h_of_type, parse_simple_type
from wreathmac.hodge import (
    ProblemSpec,
    compute_hodge,
    dimension,
    e_polynomial,
    e_reading,
    mhp_reading,
    mixed_hodge,
)
from wreathmac.partitions import partition_list

q = RatFun.var(0)
t = RatFun.var(1)
z = RatFun.var(0)
w = RatFun.var(1)
pt = parse_simple_type


def goldens():
    with resources.files("wreathmac.fixtures").joinpath("hodge_goldens.json").open() as fh:
        return json.load(fh)


def spec_of(entry):
    return ProblemSpec(
        entry["g"], entry["k"], entry["n"], tuple(pt(c) for c in entry["classes"])
    )


def test_e_reading_examples():
    # monomial-wise: sqrt(q)^d * p(sqrt(q), 1/sqrt(q))
    assert e_reading(z**2 + w**2, 2) == q**2 + 1
    assert mhp_reading(RatFun.one(), 0) == RatFun.one()


def test_reading_parity_errors():
    with pytest.raises(ValueError):
        e_reading(z, 2)  # odd total degree
    with pytest.raises(ValueError):
        e_reading(z**2, 3)  # odd dimension
    with pytest.raises(ValueError, match="^odd dimension d=3$"):
        mhp_reading(z**2, 3)
    with pytest.raises(ValueError, match=r"^monomial z\^1 w\^0 has odd total degree$"):
        mhp_reading(z, 2)
    # the recorded `sweep` failures digest this text
    with pytest.raises(ValueError, match=r"^not a polynomial: denominator z\^2 -1$"):
        mhp_reading(z / (z**2 - 1), 2)


def test_mhp_at_minus_one_matches_e(rng):
    for _ in range(20):
        terms = {}
        for _ in range(6):
            a, b = rng.randrange(0, 5), rng.randrange(0, 5)
            if (a + b) % 2:
                b += 1
            terms[(a, b)] = rng.randrange(-5, 6)
        p = RatFun.from_poly(LaurentPoly(terms))
        d = 2 * rng.randrange(3, 6)
        e = e_reading(p, d)
        m = mhp_reading(p, d)
        collapsed = {}
        for (a, b), c in m.as_poly().terms.items():
            key = (a, 0)
            collapsed[key] = collapsed.get(key, 0) + (c if b % 2 == 0 else -c)
        assert RatFun.from_poly(LaurentPoly(collapsed)) == e


def test_spec_validation():
    # `compute` prints these messages on stderr, so they are matched exactly
    cases = (
        ((0, 1, 2, (pt("0,0:1"),)), "expected 2 classes, got 1"),  # wrong class count
        ((0, 1, 4, (pt("0,0:1"), pt("0,0:1"))), "class 0,0:1 has size 1, expected 2"),
        ((0, 0, 1, ()), "need g >= 0, k >= 1, n >= 1"),
        ((-1, 1, 2, (pt("0,0:1"), pt("1,0:"))), "need g >= 0, k >= 1, n >= 1"),
    )
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProblemSpec(*args)
    spec = ProblemSpec(0, 1, 2, (pt("0,1:"), pt("0,0:1")))
    assert not spec.ccl_ok


def test_dimension_examples():
    entry = goldens()["hb_n4"]
    assert dimension(spec_of(entry)) == 8
    entry = goldens()["hb_n5"]
    assert dimension(spec_of(entry)) == 24
    for g, k in ((0, 1), (1, 1), (0, 2), (2, 1)):
        spec = ProblemSpec(g, k, 1, tuple(SimpleType(0, 0, ()) for _ in range(2 * k)))
        assert dimension(spec) == 2 * (g + k - 1)


def test_rank_one_closed_form():
    for g, k in ((0, 1), (1, 1), (0, 2), (2, 1)):
        spec = ProblemSpec(g, k, 1, tuple(SimpleType(0, 0, ()) for _ in range(2 * k)))
        res = compute_hodge(spec)
        assert res.zw == (z - w) ** (2 * (g + k - 1))
        mhp, checks = mixed_hodge(res, e_polynomial(res)[0])
        assert mhp == (t + q * t**2) ** (2 * (g + k - 1))
        assert checks["t_minus_one_is_e"]
        assert checks["curious_duality"]


def test_rank_two_e_polynomial():
    entry = goldens()["e_n2_g1k1"]
    spec = spec_of(entry)
    e, checks = e_polynomial(compute_hodge(spec))
    assert e == 2 * q**4 - 2 * q**3 - 2 * q + 2
    assert checks["routes_agree"] and checks["palindromic"]
    assert checks["e_leading"] == "2"


@pytest.mark.parametrize("key", ["e_n3_all_regular", "e_n3_with_special"])
def test_rank_three_e_polynomials(key):
    entry = goldens()[key]
    e, _ = e_polynomial(compute_hodge(spec_of(entry)))
    assert e == RatFun.from_json(entry["e"])


@pytest.mark.parametrize("key", ["hb_n4", "hb_n5"])
def test_reference_two_variable_polynomials(key):
    entry = goldens()[key]
    spec = spec_of(entry)
    res = compute_hodge(spec)
    assert res.zw == RatFun.from_json(entry["zw"])
    assert res.d == entry["d"]
    assert all(
        res.checks[key] is True
        for key in (
            "is_polynomial",
            "degree_le_d",
            "degree_eq_d",
            "even_total_degree",
            "neg_z_nonnegative",
            "zw_symmetric",
        )
    )


def test_symmetries_on_small_config():
    spec = ProblemSpec(1, 1, 3, (pt("0,0:1"), pt("1,0:")))
    res = compute_hodge(spec)
    poly = res.zw.as_poly()
    assert poly.monomial_map((0, 1, 1, 0)) == poly  # z <-> w
    # invariance under z, w -> -z, -w is the even-total-degree condition
    assert all((a + b) % 2 == 0 for a, b in poly.terms)
    mhp, checks = mixed_hodge(res, e_polynomial(res)[0])
    assert checks["t_minus_one_is_e"] and checks["curious_duality"]


def test_mixed_hodge_compares_with_the_e_polynomial_passed_in(monkeypatch):
    # route A is read once per result, by ``e_polynomial``
    res = compute_hodge(ProblemSpec(1, 1, 2, (pt("0,0:1"), pt("1,0:"))))
    e, _ = e_polynomial(res)
    calls = []
    monkeypatch.setattr(hodge, "e_reading", lambda *args: calls.append(args) or e_reading(*args))
    _, checks = mixed_hodge(res, e)
    assert len(calls) == 0 and checks["t_minus_one_is_e"]
    assert mixed_hodge(res, e + 1)[1]["t_minus_one_is_e"] is False


def test_non_ccl_warns_but_computes():
    spec = ProblemSpec(1, 1, 2, (pt("0,1:"), pt("0,0:1")))
    res = compute_hodge(spec)
    assert res.warnings
    # the e-routes still agree beyond the conjecture's hypotheses
    e, checks = e_polynomial(res)
    assert checks["routes_agree"]


def assert_every_check_true(spec, d):
    res = compute_hodge(spec)
    e, e_checks = e_polynomial(res)
    _, m_checks = mixed_hodge(res, e)
    checks = {**res.checks, **e_checks, **m_checks}
    flags = {key: v for key, v in checks.items() if isinstance(v, bool)}
    assert set(flags) == {
        "is_polynomial",
        "degree_le_d",
        "degree_eq_d",
        "even_total_degree",
        "neg_z_nonnegative",
        "zw_symmetric",
        "routes_agree",
        "palindromic",
        "t_minus_one_is_e",
        "curious_duality",
    }
    assert all(flags.values()), flags
    assert res.d == d
    return res


def test_rank_six_finishes_with_every_check_true():
    # the rank-6 configuration of the ROADMAP; its polynomial is not frozen
    # as a golden until an independent route confirms it
    spec = ProblemSpec(0, 2, 6, (pt("0,0:1 1 1"), pt("0,0:1 1 1"), pt("3,0:"), pt("3,0:")))
    assert_every_check_true(spec, 24)


def test_rank_seven_finishes_with_every_check_true():
    # odd rank: the two wreath series are taken at different 2-cores
    spec = ProblemSpec(0, 2, 7, (pt("0,0:1 1 1"), pt("1,0:1 1"), pt("3,0:"), pt("3,0:")))
    assert_every_check_true(spec, 48)


def test_rank_eight_finishes_with_every_check_true():
    # it needs every size-4 wreath family; the polynomial is not frozen
    # until an independent evaluation confirms it
    spec = ProblemSpec(0, 2, 8, (pt("0,0:1 1 1 1"), pt("0,0:1 1 1 1"), pt("4,0:"), pt("4,0:")))
    res = assert_every_check_true(spec, 48)
    assert len(res.zw.num.terms) == 624


@pytest.mark.xfail(
    strict=True,
    reason="degree_le_d reads the zero polynomial's max_exponents() (0, 0) as its degree; "
    "the fix changes a recorded benchmark digest",
)
def test_zero_polynomial_is_within_a_negative_degree_bound():
    # an empty variety: d = -2 and the two-variable polynomial is 0, which
    # has no term above any degree bound
    spec = ProblemSpec(0, 1, 2, (pt("0,0:1"), pt("0,0:1")))
    res = compute_hodge(spec)
    assert res.d == -2 and res.zw.is_zero()
    assert res.checks["degree_le_d"] is True


# -- memoised pairing tables ------------------------------------------------

# at (g, k, n) = (0, 2, 4): the benchmark's sweep warm-up tuple, then the
# first tuple of each of its succeeding class-tuple bands
SWEEP_TUPLES = (
    ("2,0:", "2,0:", "0,0:1 1", "0,0:1 1"),
    ("2,0:", "0,0:1 1", "0,1:1", "0,2:"),
    ("1,0:1", "0,0:1 1", "0,2:", "0,2:"),
    ("0,0:1 1", "1,1:", "1,1:", "0,2:"),
    ("2,0:", "0,0:1 1", "0,0:1 1", "1,1:"),
    ("0,0:1 1", "0,0:1 1", "1,1:", "1,1:"),
    ("2,0:", "2,0:", "2,0:", "1,0:1"),
)


def clear_pairing_memos():
    """Clear every memo among the ``hodge`` module globals, so that a memo
    added later cannot keep a "cold" run warm."""
    cleared = set()
    for name, obj in vars(hodge).items():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
            cleared.add(name)
    assert {"_pairing_rows", "_class_column"} <= cleared


def compute_json(capsys, classes) -> tuple[int, str]:
    """Exit code and stdout of ``compute --json`` at (g, k, n) = (0, 2, 4);
    some tuples falsify a check and exit 2, with a full payload."""
    argv = ["compute", "--g", "0", "--k", "2", "--n", "4", "--json"]
    for c in classes:
        argv += ["--class", c]
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def test_warm_tables_give_the_cold_output(capsys):
    cold = {}
    for classes in SWEEP_TUPLES:
        clear_pairing_memos()
        cold[classes] = compute_json(capsys, classes)
    clear_pairing_memos()
    orders = (SWEEP_TUPLES, SWEEP_TUPLES[3:] + SWEEP_TUPLES[2::-1])
    for order in orders:
        for classes in order:
            assert compute_json(capsys, classes) == cold[classes], classes


def test_same_gkn_builds_no_series(capsys, monkeypatch):
    calls = []
    for name in (
        "wreath_series_terms",
        "star_series_terms",
        "one_param_wreath_terms",
        "one_param_star_terms",
        "invert_series",
    ):
        builder = getattr(hodge, name)
        monkeypatch.setattr(
            hodge, name, lambda *args, _f=builder, _n=name: calls.append(_n) or _f(*args)
        )
    clear_pairing_memos()
    compute_json(capsys, SWEEP_TUPLES[0])
    assert set(calls) == {
        "wreath_series_terms",
        "star_series_terms",
        "one_param_wreath_terms",
        "one_param_star_terms",
        "invert_series",
    }
    calls.clear()
    compute_json(capsys, SWEEP_TUPLES[1])
    assert calls == []


# -- grouped pairing sum ----------------------------------------------------

SIZE_TWO_TYPES = ("2,0:", "0,2:", "1,1:", "1,0:1", "0,1:1", "0,0:2", "0,0:1 1")


def route_series(route, g, k, n):
    """The three series that ``_pairing_rows`` pairs, built afresh, and the
    map that reads a pairing over (q, t) on the route."""
    if route == ZW:
        wreath_terms, star_terms = hodge.wreath_series_terms, hodge.star_series_terms
    else:
        wreath_terms, star_terms = hodge.one_param_wreath_terms, hodge.one_param_star_terms
    N = n // 2
    first = wreath_terms(n % 2, g, k, N)
    second = wreath_terms(0, g, k, N)
    inverted = hodge.invert_series(star_terms(g, k, N), N)
    at_route = (lambda v: v.monomial_map((2, 0, 0, 2))) if route == ZW else (lambda v: v)
    return first, second, inverted, at_route


def reference_pairing(spec, route):
    """The pairing sum as the formula reads: over every index triple, the
    triple's coefficient times the Hall pairings of its Schur factor against
    each class function, folded with plain ``RatFun`` addition.  The
    pairings are over (q, t); route ZW reads them at q = z^2, t = w^2."""
    first, second, inverted, at_route = route_series(route, spec.g, spec.k, spec.n)
    hs = [h_of_type(beta) for beta in spec.classes]
    total = RatFun.zero()
    for a, b, s in hodge._triples(first, second, inverted, spec.n // 2):
        phi = (a.factor * b.factor * s.factor).to_basis("s")
        value = a.coeff * b.coeff * s.coeff
        for h in hs:
            value = value * at_route(phi.hall_inner(h))
        total = total + value
    return total


def simple_types(size):
    return [
        SimpleType(mp, mm, lam)
        for mp in range(size + 1)
        for mm in range(size + 1 - mp)
        for lam in partition_list(size - mp - mm)
    ]


@pytest.mark.parametrize(
    "g, k, n, types",
    [
        (1, 1, 2, simple_types(1)),
        (0, 2, 4, simple_types(2)),
        (1, 1, 4, simple_types(2)),
        (0, 2, 5, simple_types(2)),
        (0, 2, 6, [pt("0,0:1 1 1"), pt("3,0:"), pt("1,1:1")]),
    ],
)
def test_class_columns_are_the_hall_pairings_in_lowest_terms(g, k, n, types):
    # the rows of ``_pairing_rows`` hold their coefficient over their group's
    # denominator and their factor as power-sum numerators over ``E``; here
    # each row is matched to index triples again, by its coefficient and by
    # its factor: to one triple, or at even rank to the two triples (a, b, s)
    # and (b, a, s) of one coefficient and factor, and each triple serves
    # one row
    for route in (ZW, QT):
        first, second, inverted, at_route = route_series(route, g, k, n)
        by_value = {}
        for a, b, s in hodge._triples(first, second, inverted, n // 2):
            coeff = a.coeff * b.coeff * s.coeff
            if not coeff.is_zero():
                phi = a.factor * b.factor * s.factor
                by_value.setdefault((coeff, frozenset(phi.coeffs.items())), []).append(phi)
        E, groups = hodge._pairing_rows(route, g, k, n)
        phis = []
        for d, rows in groups:
            lcm = LaurentPoly.const(1)
            for num, factor in rows:
                value = RatFun(num, d)
                factor = frozenset((mu, RatFun(v, E)) for mu, v in factor.items())
                for m in (1,) if n % 2 else (1, 2):
                    matches = by_value.get((value / m, factor), ())
                    if len(matches) >= m:
                        break
                assert len(matches) >= m, route
                phis.append(matches[-1])
                del matches[-m:]
                lcm = lcm * lcm.gcd(value.den)[2]
            # each group's denominator is the lcm of its rows' coefficient
            # denominators, up to the sign that is a unit of Z[q, t]
            assert d in (lcm, -lcm), route
        assert not any(by_value.values()), route
        for beta in types:
            h = h_of_type(beta)
            nums, lcm = hodge._class_column(route, g, k, n, beta)
            assert len(nums) == len(phis)
            for num, phi in zip(nums, phis):
                assert RatFun(num, lcm) == at_route(phi.hall_inner(h)), (beta, route)
            common = lcm
            for num in nums:
                if not num.is_zero():
                    common = common.gcd(num)[0]
            assert common == LaurentPoly.const(1), (beta, route)


def seeded_tuples(seed, count, size):
    rng = random.Random(seed)
    return [tuple(rng.choice(SIZE_TWO_TYPES) for _ in range(size)) for _ in range(count)]


# its two-variable function is not a polynomial: a denominator survives
NON_POLYNOMIAL = ("0,2:", "2,0:", "0,0:2", "2,0:")


@pytest.mark.parametrize(
    "g, k, n, tuples",
    [
        (0, 2, 4, [NON_POLYNOMIAL] + seeded_tuples(4, 4, 4)),
        (1, 1, 4, seeded_tuples(11, 4, 2)),
        (0, 2, 5, seeded_tuples(5, 2, 4)),
        (0, 2, 6, [("1,0:2", "0,0:1 1 1", "2,1:", "3,0:")]),
    ],
)
def test_grouped_sum_equals_plain_fold(g, k, n, tuples):
    for classes in tuples:
        spec = ProblemSpec(g, k, n, tuple(pt(c) for c in classes))
        for route in (ZW, QT):
            value = hodge._pair_against_classes(spec, route)
            assert value == reference_pairing(spec, route), (classes, route)
            if classes == NON_POLYNOMIAL and route == ZW:
                assert not value.is_polynomial()


# a prime near 2^61: a wrong join differs from the row sum at a random point
# modulo it with probability about (degree) / 2^61
PRIME = 2**61 - 1


def value_mod_prime(poly, point):
    """A Laurent polynomial at ``point`` modulo ``PRIME``."""
    x, y = point
    return sum(c * pow(x, a, PRIME) * pow(y, b, PRIME) for (a, b), c in poly.terms.items()) % PRIME


@pytest.mark.parametrize(
    "g, k, n, classes",
    [
        (0, 2, 4, NON_POLYNOMIAL),
        (0, 2, 4, ("0,0:1 1", "0,0:1 1", "2,0:", "2,0:")),
        (1, 1, 4, ("1,0:1", "0,0:2")),
        (0, 2, 5, ("0,0:1 1", "1,0:1", "2,0:", "2,0:")),
        (0, 2, 6, ("1,0:2", "0,0:1 1 1", "2,1:", "3,0:")),
        (0, 2, 6, ("0,0:1 1 1", "0,0:1 1 1", "3,0:", "3,0:")),
        (0, 2, 7, ("0,0:1 1 1", "1,0:1 1", "3,0:", "3,0:")),
    ],
)
def test_pairing_sum_at_a_point_modulo_a_prime(rng, g, k, n, classes):
    # the join of the groups checked without it and without RatFun +: every
    # row of ``_pairing_rows``, its coefficient numerator times its class
    # numerators over its denominators, summed at a random point mod PRIME
    spec = ProblemSpec(g, k, n, tuple(pt(c) for c in classes))
    for route in (ZW, QT):
        point = (rng.randrange(2, PRIME), rng.randrange(2, PRIME))

        def at(poly):
            return value_mod_prime(poly, point)

        columns = [hodge._class_column(route, g, k, n, beta) for beta in spec.classes]
        _, groups = hodge._pairing_rows(route, g, k, n)
        total, i = 0, 0
        for d, rows in groups:
            for num, _ in rows:
                top, bottom = at(num), at(d)
                for nums, lcm in columns:
                    top, bottom = top * at(nums[i]) % PRIME, bottom * at(lcm) % PRIME
                total += top * pow(bottom, -1, PRIME)
                i += 1
        value = hodge._pair_against_classes(spec, route)
        assert total % PRIME == at(value.num) * pow(at(value.den), -1, PRIME) % PRIME, route
