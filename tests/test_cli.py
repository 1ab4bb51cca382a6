import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathmac import cli
from wreathmac.classtypes import parse_simple_type
from wreathmac.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_json_round_trip(capsys):
    code, out = run_cli(
        capsys,
        "compute",
        "--g", "1", "--k", "1", "--n", "2",
        "--class", "0,0:1", "--class", "1,0:",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 4
    assert payload["e_poly"] == [[0, 0, "2"], [1, 0, "-2"], [3, 0, "-2"], [4, 0, "2"]]
    # canonical serialization: parse and re-dump is byte-identical
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out.strip()


def test_compute_text_output(capsys):
    # the two-variable polynomial prints over (z, w), the specialisations
    # over (q, t)
    code, out = run_cli(
        capsys,
        "compute", "--g", "1", "--k", "1", "--n", "2",
        "--class", "0,0:1", "--class", "1,0:",
    )
    assert code == 0
    lines = out.splitlines()
    assert "hb = 2*w^4 -4*z*w^3 +4*z^2*w^2 -4*z^3*w +2*z^4 +2*w^2 -4*z*w +2*z^2" in lines
    assert "e_poly = 2*q^4 -2*q^3 -2*q +2" in lines
    assert "mhp = 2*q^4*t^8 +4*q^3*t^7 +2*q^3*t^6 +4*q^2*t^6 +4*q^2*t^5 +4*q*t^5 +2*q*t^4 +2*t^4" in lines


def test_compute_rank_one(capsys):
    code, out = run_cli(
        capsys,
        "compute", "--n", "1", "--g", "2", "--k", "1",
        "--class", "0,0:", "--class", "0,0:",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    # (t + q t^2)^4 has leading term q^4 t^8
    assert [4, 8, "1"] in payload["mhp"]
    assert payload["checks"]["curious_duality"] is True


def test_compute_bad_input(capsys):
    code, _ = run_cli(
        capsys, "compute", "--g", "0", "--k", "1", "--n", "4", "--class", "0,0:1",
        "--class", "0,0:1",
    )
    assert code == 3


def computation_error(*args):
    raise ArithmeticError("planted")


def test_compute_computation_error_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "e_polynomial", computation_error)
    code = main(
        ["compute", "--g", "1", "--k", "1", "--n", "2", "--class", "0,0:1", "--class", "1,0:"]
    )
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "computation error: planted\n")


def test_oracle_computation_error_exits_1(capsys, monkeypatch):
    # ``cmd_oracle`` imports ``count_points`` when it runs
    monkeypatch.setattr("wreathmac.oracle.count_points", computation_error)
    code = main(["oracle", "--q", "7", "--n", "2", "--g", "1", "--eigs", "2", "--eigs", "1"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "computation error: planted\n")


def test_compute_check_all_passes(capsys):
    code, _ = run_cli(
        capsys,
        "compute", "--g", "0", "--k", "2", "--n", "3",
        "--class", "0,0:1", "--class", "0,0:1", "--class", "0,0:1", "--class", "1,0:",
        "--check-all", "--json",
    )
    assert code == 0


def test_wreath_mac_dump(capsys):
    code, out = run_cli(capsys, "wreath-mac", "--size", "1", "--core", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    fam = payload["family"]
    assert fam["([1],[])"]["schur"]["([],[1])"] == [[1, 0, "1"]]
    assert fam["([],[1])"]["schur"]["([],[1])"] == [[0, 1, "1"]]
    code, out = run_cli(capsys, "wreath-mac", "--size", "2", "--core", "1")
    assert code == 0 and "pairing" in out


# sha256 of the size-3 dumps, trailing newline included: every family they
# print comes out of the exact linear solve
WREATH_MAC_SIZE_3 = {
    0: "8e8d213057ddbc8dc766804b43e050063b23a7cc509ecfbc1c57214376e0de54",
    1: "f67f92884ec6d2755b271828a97a29f7c7b9a0b688298d000c674dfe6847acd6",
}


@pytest.mark.parametrize("core", [0, 1])
def test_wreath_mac_size_3_dump_is_pinned(capsys, core):
    code, out = run_cli(capsys, "wreath-mac", "--size", "3", "--core", str(core), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WREATH_MAC_SIZE_3[core]


# sha256 of `compute --json` at ranks 6 and 7 (g = 0, k = 2), trailing
# newline included: the pairing sum, both E routes and the mixed Hodge
# polynomial, whatever order the pairing joins its groups in
COMPUTE_RANK_6_7 = {
    6: (
        ("0,0:1 1 1", "0,0:1 1 1", "3,0:", "3,0:"),
        "fae1f8f3df44669a37951bd1773977889f7b3f435c9dfeb2ad3354f22dd32b1e",
    ),
    7: (
        ("0,0:1 1 1", "1,0:1 1", "3,0:", "3,0:"),
        "5977da6336715bcc022c8f805f45bb4960c655cb613fdda00297452bea37397e",
    ),
}


@pytest.mark.parametrize("n", sorted(COMPUTE_RANK_6_7))
def test_compute_json_at_ranks_6_and_7_is_pinned(capsys, n):
    classes, digest = COMPUTE_RANK_6_7[n]
    argv = ["compute", "--g", "0", "--k", "2", "--n", str(n), "--json"]
    for c in classes:
        argv += ["--class", c]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `compute --json` at rank 6, classes "0,0:1 1 1" twice and
# "3,0:" 2k - 2 times, trailing newline included: the wreath coefficients
# at g = 1 and at k = 3, whose cotangent factors cancel
COMPUTE_RANK_6_G_K = {
    (1, 2): "b8df8291a49e613822dc4f613cc7a3be443b01f65500f1434a49f10fbcb4fc45",
    (0, 3): "816d68762a67a385a1c4bde303e45579fab40396cbddc4a24d648a54c5e8f03c",
}


@pytest.mark.parametrize("g, k", sorted(COMPUTE_RANK_6_G_K))
def test_compute_json_at_rank_6_with_g_1_or_k_3_is_pinned(capsys, g, k):
    classes = ["0,0:1 1 1"] * 2 + ["3,0:"] * (2 * k - 2)
    argv = ["compute", "--g", str(g), "--k", str(k), "--n", "6", "--json"]
    for c in classes:
        argv += ["--class", c]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_RANK_6_G_K[g, k]


def test_oracle_pass_verdict(capsys):
    code, out = run_cli(
        capsys,
        "oracle", "--q", "7", "--n", "2", "--g", "1",
        "--eigs", "2", "--eigs", "1",
        "--strong-check", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4104
    assert payload["formula"] == 4104
    assert payload["verdict"] == "PASS"


def test_oracle_rank_one(capsys):
    code, out = run_cli(
        capsys, "oracle", "--q", "5", "--n", "1", "--g", "1", "--eigs", "", "--eigs", "", "--json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 4**2


def test_oracle_rejects_nongeneric(capsys):
    code, _ = run_cli(
        capsys, "oracle", "--q", "7", "--n", "2", "--g", "1", "--eigs", "2", "--eigs", "3"
    )
    assert code == 3


def test_oracle_rejects_q_not_an_odd_prime(capsys):
    for q in ("4", "0", "2", "-3"):
        for n, eigs in (("1", ["", ""]), ("2", ["2", "1"])):
            argv = ["oracle", "--q", q, "--n", n, "--g", "1"]
            for e in eigs:
                argv += ["--eigs", e]
            code, out = run_cli(capsys, *argv)
            assert (code, out) == (3, "")


def test_oracle_rejects_bad_input_before_counting(capsys):
    # each case breaks one rule; none may reach a count (exit 1) or a
    # genericity verdict, and the message names the rule
    cases = (
        (["--n", "1", "--g", "-1", "--eigs", "", "--eigs", ""], "genus must be nonnegative"),
        (["--n", "1", "--g", "1"], "positive even number"),
        (["--n", "1", "--g", "1", "--eigs", ""], "positive even number"),
        (["--n", "2", "--g", "1", "--eigs", "2", "--eigs", "1", "--eigs", "3"], "positive even number"),
        (["--n", "2", "--g", "1", "--eigs", "7", "--eigs", "1"], "units"),
        (["--n", "2", "--g", "0", "--eigs", "2", "--eigs", "-14"], "units"),
        (["--n", "0", "--g", "1", "--eigs", "", "--eigs", ""], "rank 1 and 2"),
        (["--n", "-1", "--g", "1", "--eigs", "", "--eigs", ""], "rank 1 and 2"),
        (["--n", "3", "--g", "1", "--eigs", "2", "--eigs", "1"], "rank 1 and 2"),
        (["--n", "4", "--g", "1", "--eigs", "2 3", "--eigs", "1 2"], "rank 1 and 2"),
    )
    for argv, rule in cases:
        code = main(["oracle", "--q", "7", *argv])
        out, err = capsys.readouterr()
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and rule in err, (argv, err)


def test_oracle_refuses_out_of_reach_input_at_once(capsys):
    # without the limit, q = 101 at rank 2 needs gigabytes of arrays, the
    # generic 2 / 1 / ... / 1 at q = 7 tries 2^40 sign choices, and the
    # rank-1 cases enumerate 10^12 and 4^24 tuples, print a count of over
    # 4300 digits (a ValueError of int -> str) or spend minutes on the
    # formula at a large genus; the refusal comes before the primality
    # check (trial division of a large q) too
    cases = (
        ["--q", "1000003", "--n", "2", "--g", "1", "--eigs", "2", "--eigs", "3"],
        ["--q", "101", "--n", "2", "--g", "0", "--eigs", "2", "--eigs", "3"],
        ["--q", "7", "--n", "2", "--g", "0", "--eigs", "2", *["--eigs", "1"] * 39],
        ["--q", "1000003", "--n", "1", "--g", "1", "--eigs", "", "--eigs", ""],
        ["--q", "5", "--n", "1", "--g", "0", *["--eigs", ""] * 24],
        ["--q", "101", "--n", "1", "--g", "1100", "--eigs", "", "--eigs", ""],
        ["--q", "7", "--n", "1", "--g", "3000", "--eigs", "", "--eigs", ""],
        ["--q", "3", "--n", "1", "--g", "1001", "--eigs", "", "--eigs", ""],
        ["--q", str(10**40 + 1), "--n", "2", "--g", "1", "--eigs", "2", "--eigs", "3"],
    )
    for argv in cases:
        refused_at_once(capsys, ["oracle", *argv])


def test_oracle_checks_rank_and_eigs_before_the_primality_of_q(capsys):
    # trial division of this prime q takes seconds; a broken rank or --eigs
    # rule is reported before it, by the CLI and by ``count_points``
    q = 10000000000000061
    cases = (
        (["--n", "3", "--g", "0", "--eigs", "1", "--eigs", "1"],
         "error: the oracle counts points at rank 1 and 2 only, not n=3"),
        (["--n", "1", "--g", "0"],
         "error: --eigs must be given a positive even number of times (2k), not 0"),
    )
    for argv, message in cases:
        refused_at_once(capsys, ["oracle", "--q", str(q), *argv], message)
    from wreathmac.oracle import count_points

    start = time.perf_counter()
    with pytest.raises(ValueError, match="rank 1 and 2 only"):
        count_points(3, 0, q, [1, 1])
    assert time.perf_counter() - start < 1


def refused_at_once(capsys, argv, message="error: out of reach"):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (3, ""), argv
    assert err.startswith(message) and "Traceback" not in err, err
    assert elapsed < 1, (argv, elapsed)


eig_text = st.one_of(
    st.lists(st.integers(-60, 60), max_size=2).map(lambda xs: " ".join(map(str, xs))),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.sampled_from((1, 2)),
    st.sampled_from((0, 1)),
    st.sampled_from((2, 4)).flatmap(lambda twok: st.lists(eig_text, min_size=twok, max_size=twok)),
    st.booleans(),
)
def test_oracle_eigs_end_in_an_exit_code(q, n, g, eigs, strong):
    # whatever the --eigs text, the oracle answers with an exit code (a
    # count, a computation error, a failed verdict or bad input), never an
    # uncaught exception
    argv = ["oracle", "--q", str(q), "--n", str(n), "--g", str(g)]
    for e in eigs:
        argv += ["--eigs", e]
    if strong:
        argv.append("--strong-check")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)


def test_selftest_filter(capsys):
    code, out = run_cli(capsys, "selftest", "--filter", "09-partition")
    assert code == 0
    assert out.count("PASS") == 1 and "09-partition-identities" in out


def test_selftest_json_prints_only_the_document(capsys):
    # no timed PASS lines before it: the stdout parses, and two runs match
    argv = ("selftest", "--filter", "09-partition", "--json")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert [r["name"] for r in payload["results"]] == ["09-partition-identities"]
    assert payload["results"][0]["passed"] is True
    assert run_cli(capsys, *argv) == (code, out)


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_selftest_filter_matching_nothing_exits_3(capsys, json_flag):
    assert main(["selftest", "--filter", "nosuch", *json_flag]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no acceptance criterion matches 'nosuch'\n"


def test_wreath_mac_size_zero(capsys):
    code, out = run_cli(capsys, "wreath-mac", "--size", "0", "--core", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["([],[])"]["pairing"] == [[0, 0, "1"]]


@pytest.mark.parametrize("size, core", [(40, 0), (6, 1)])
def test_wreath_mac_refuses_out_of_reach_size_at_once(capsys, size, core):
    # without the limit, size 40 runs for hours; size 5 (rank 10) is the
    # largest that a documented run solves
    refused_at_once(capsys, ["wreath-mac", "--size", str(size), "--core", str(core)])


@pytest.mark.parametrize(
    "size, core, message",
    [(0, 2, "error: core must be 0 or 1\n"), (-1, 0, "error: size must be nonnegative\n")],
)
def test_wreath_mac_refuses_a_bad_core_or_size(capsys, size, core, message):
    refused_at_once(capsys, ["wreath-mac", "--size", str(size), "--core", str(core)], message)


@pytest.mark.parametrize("n, star", [(60, "30"), (12, "1 1 1 1 1 1"), (13, "6")])
def test_compute_refuses_out_of_reach_rank_at_once(capsys, n, star):
    argv = ["compute", "--g", "0", "--k", "1", "--n", str(n), "--json"]
    refused_at_once(capsys, argv + ["--class", f"0,0:{star}"] * 2)


@pytest.mark.parametrize(
    "g, k, n, classes",
    [
        (100, 1, 2, ["0,0:1", "1,0:"]),
        (30, 2, 4, ["0,0:1 1", "0,0:1 1", "2,0:", "2,0:"]),
    ],
)
def test_compute_refuses_out_of_reach_genus_at_once(capsys, g, k, n, classes):
    # d = 796 and 968: runs that take minutes; the refusal builds no series
    argv = ["compute", "--g", str(g), "--k", str(k), "--n", str(n), "--json"]
    refused_at_once(capsys, argv + [arg for c in classes for arg in ("--class", c)])


def test_oracle_rank_one_verdict(capsys):
    code, out = run_cli(
        capsys, "oracle", "--q", "7", "--n", "1", "--g", "1", "--eigs", "", "--eigs", "", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 36 and payload["verdict"] == "PASS"


def test_oracle_non_ccl_skips_formula(capsys):
    code, out = run_cli(
        capsys, "oracle", "--q", "13", "--n", "2", "--g", "1",
        "--eigs", "2", "--eigs", "5", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert "verdict" not in payload
    assert payload["count"] == 13**6 - 3 * 13**4 + 4 * 13**3 - 3 * 13**2 + 1


def test_usage_errors_exit_3(capsys):
    # exit code 2 means a falsified property check, so a command line that
    # argparse rejects is bad input (3), with argparse's message on stderr
    cases = (
        (["compute", "--g", "0", "--k", "1"], "required: --n, --class"),
        (["compute", "--g", "x", "--k", "1", "--n", "2", "--class", "0,0:"], "invalid int"),
        (["compute", "--g", "0", "--k", "1", "--n", "2", "--class", "--"], "expected one argument"),
        (["oracle", "--q", "x", "--n", "1", "--g", "1"], "argument --q: invalid int"),
        (["wreath-mac", "--size", "1"], "required: --core"),
        (["selftest", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["bogus"], "invalid choice"),
        ([], "required: command"),
    )
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (3, ""), argv
        assert "error: " in err and message in err, (argv, err)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["compute", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: wreathmac" in capsys.readouterr().out


def _rejected(text):
    try:
        parse_simple_type(text)
    except ValueError:
        return True
    return False


@settings(max_examples=200, deadline=None)
# "--" is argparse's end-of-options marker (test_usage_errors_exit_3)
@given(
    (st.text() | st.text(alphabet="0123456789,: -", max_size=12)).filter(
        lambda text: text != "--" and _rejected(text)
    )
)
# text that argparse alone would read as an option
@example("-1,0:")
@example("-h")
@example("-x=1")
@example("--json")
def test_rejected_class_text_exits_3(text):
    # a --class that does not parse is bad input: main returns 3 with the
    # class parser's message, nothing on stdout, no traceback, also when
    # the text starts with "-"
    argv = ["compute", "--g", "0", "--k", "1", "--n", "2", "--class", text, "--class", "0,0:1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().startswith("error: malformed class "), err.getvalue()


def test_cli_import_loads_no_startup_heavy_module():
    # every `compute` process pays for what `import wreathmac.cli` loads:
    # numpy is the oracle's, and dataclasses (with inspect) or typing cost
    # more start-up than the records and annotations they would serve
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys; before = set(sys.modules); import wreathmac.cli; "
        "heavy = ('numpy', 'dataclasses', 'inspect', 'typing'); "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in heavy))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--q", "7", "--n", "1", "--g", "0", "--eigs", "", "--eigs", ""],
        ["selftest", "--filter", "hook"],
    ],
)
def test_numpy_commands_exit_3_without_numpy(capsys, monkeypatch, argv):
    # numpy is the optional `oracle` extra: a None entry in sys.modules makes
    # its import fail, and the modules that import it are loaded afresh
    monkeypatch.setitem(sys.modules, "numpy", None)
    for name in ("wreathmac.oracle", "wreathmac.acceptance"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pip install wreathmac[oracle]" in captured.err


def test_parser_is_built_once_and_calls_share_no_lists(capsys):
    assert build_parser() is build_parser()
    argv = ["compute", "--g", "1", "--k", "1", "--n", "2", "--class", "0,0:1", "--class", "1,0:", "--json"]
    first = run_cli(capsys, *argv)
    # a shared --class list would hand the second call 4 classes (exit 3)
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0
    parser = build_parser()
    base = ["oracle", "--q", "7", "--n", "2", "--g", "1"]
    a = parser.parse_args(base + ["--eigs", "2", "--eigs", "1"])
    b = parser.parse_args(base + ["--eigs", "3"])
    c = parser.parse_args(base)
    assert (a.eigs, b.eigs, c.eigs) == (["2", "1"], ["3"], [])
