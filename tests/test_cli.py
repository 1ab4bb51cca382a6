import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wreathmac.cli import main

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


def test_selftest_filter(capsys):
    code, out = run_cli(capsys, "selftest", "--filter", "09-partition")
    assert code == 0
    assert out.count("PASS") == 1 and "09-partition-identities" in out


def test_wreath_mac_size_zero(capsys):
    code, out = run_cli(capsys, "wreath-mac", "--size", "0", "--core", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["([],[])"]["pairing"] == [[0, 0, "1"]]


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
        (["oracle", "--q", "x", "--n", "1", "--g", "1"], "argument --q: invalid int"),
        (["wreath-mac", "--size", "1"], "required: --core"),
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


def test_cli_import_does_not_load_numpy():
    # only the oracle and the acceptance suite need numpy; `compute` pays
    # for its import in every process when the CLI module loads it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, wreathmac.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
