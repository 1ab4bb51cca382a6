import json
from importlib import resources

import pytest

from wreathmac.algebra import RatFun, ZW, poly_from_json
from wreathmac.classtypes import SimpleType, parse_simple_type
from wreathmac.hodge import (
    ProblemSpec,
    compute_hodge,
    dimension,
    e_polynomial,
    mixed_hodge,
)

q = RatFun.var(0)
t = RatFun.var(1)
z = RatFun.var(0, ZW)
w = RatFun.var(1, ZW)
pt = parse_simple_type


def goldens():
    with resources.files("wreathmac.fixtures").joinpath("hodge_goldens.json").open() as fh:
        return json.load(fh)


def spec_of(entry):
    return ProblemSpec(
        entry["g"], entry["k"], entry["n"], tuple(pt(c) for c in entry["classes"])
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(0, 1, 2, (pt("0,0:1"),))  # wrong class count
    with pytest.raises(ValueError):
        ProblemSpec(0, 1, 4, (pt("0,0:1"), pt("0,0:1")))  # wrong size
    with pytest.raises(ValueError):
        ProblemSpec(0, 0, 1, ())
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
        mhp, checks = mixed_hodge(spec, res)
        assert mhp == (t + q * t**2) ** (2 * (g + k - 1))
        assert checks["t_minus_one_is_e"]
        assert checks["curious_duality"]


def test_rank_two_e_polynomial():
    entry = goldens()["e_n2_g1k1"]
    spec = spec_of(entry)
    e, checks = e_polynomial(spec)
    assert e == 2 * q**4 - 2 * q**3 - 2 * q + 2
    assert checks["routes_agree"] and checks["palindromic"]
    assert checks["e_leading"] == "2"


@pytest.mark.parametrize("key", ["e_n3_all_regular", "e_n3_with_special"])
def test_rank_three_e_polynomials(key):
    entry = goldens()[key]
    e, _ = e_polynomial(spec_of(entry))
    assert e == RatFun.from_poly(poly_from_json(entry["e"]))


@pytest.mark.parametrize("key", ["hb_n4", "hb_n5"])
def test_reference_two_variable_polynomials(key):
    entry = goldens()[key]
    spec = spec_of(entry)
    res = compute_hodge(spec)
    assert res.zw == RatFun.from_poly(poly_from_json(entry["zw"], ZW))
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
    mhp, checks = mixed_hodge(spec, res)
    assert checks["t_minus_one_is_e"] and checks["curious_duality"]


def test_non_ccl_warns_but_computes():
    spec = ProblemSpec(1, 1, 2, (pt("0,1:"), pt("0,0:1")))
    res = compute_hodge(spec)
    assert res.warnings
    # the e-routes still agree beyond the conjecture's hypotheses
    e, checks = e_polynomial(spec, res)
    assert checks["routes_agree"]


def test_rank_six_finishes_with_every_check_true():
    # the rank-6 configuration of the ROADMAP; its polynomial is not frozen
    # as a golden until an independent route confirms it
    spec = ProblemSpec(0, 2, 6, (pt("0,0:1 1 1"), pt("0,0:1 1 1"), pt("3,0:"), pt("3,0:")))
    res = compute_hodge(spec)
    _, e_checks = e_polynomial(spec, res)
    _, m_checks = mixed_hodge(spec, res)
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
    assert res.d == 24
