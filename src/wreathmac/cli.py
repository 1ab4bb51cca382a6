"""Command-line front end.

Subcommands: ``compute`` (the two-variable polynomial, E-polynomial, and
conjectural mixed Hodge polynomial of a class configuration), ``oracle``
(brute-force finite-field point count, with a formula comparison when
applicable), ``wreath-mac`` (dump a wreath Macdonald family with pairings),
and ``selftest`` (the acceptance suite).

Exit codes: 0 success, 1 computation error, 2 falsified property check,
3 bad input.  Polynomials are serialized as grlex-sorted coefficient
triples, so JSON output is canonical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classtypes import parse_simple_type
from .hodge import ProblemSpec, compute_hodge, e_polynomial, mixed_hodge
from .partitions import bipartition_list, bipartition_str
from .wreath import wreath_H, wreath_N

CHECK_KEYS = (
    "is_polynomial",
    "degree_le_d",
    "even_total_degree",
    "neg_z_nonnegative",
    "zw_symmetric",
)


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cmd_compute(args) -> int:
    try:
        classes = tuple(parse_simple_type(c) for c in args.cls)
        spec = ProblemSpec(args.g, args.k, args.n, classes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        result = compute_hodge(spec)
        e_poly, e_checks = e_polynomial(spec, result)
        mhp, m_checks = mixed_hodge(spec, result)
    except ArithmeticError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    checks = dict(result.checks)
    checks.update(e_checks)
    checks.update(m_checks)
    payload = {
        "hb": result.zw.to_json(),
        "d": result.d,
        "e_poly": e_poly.to_json(),
        "mhp": mhp.to_json(),
        "checks": {k: v for k, v in checks.items()},
        "warnings": result.warnings,
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"d = {result.d}")
        print(f"hb = {result.zw.text()}")
        print(f"e_poly = {e_poly.text()}")
        print(f"mhp = {mhp.text()}")
        for key, val in sorted(checks.items()):
            print(f"check {key}: {val}")
        for w in result.warnings:
            print(f"warning: {w}")
    # a falsified conjecture property is exit code 2; without --check-all the
    # properties gate only inputs satisfying the conjecture's hypotheses
    conjecture_keys = CHECK_KEYS + ("palindromic", "t_minus_one_is_e", "curious_duality")
    if spec.ccl_ok or args.check_all:
        failed = [k for k in conjecture_keys if checks.get(k) is False]
        if failed:
            print(f"falsified checks: {failed}", file=sys.stderr)
            return 2
    return 0


def _missing_numpy(exc: ImportError) -> int:
    """Bad input for a subcommand that needs the optional numpy: exit code 3
    with an install hint.  Any other failed import propagates."""
    if exc.name != "numpy":
        raise exc
    print("error: this command needs numpy: pip install wreathmac[oracle]", file=sys.stderr)
    return 3


def cmd_oracle(args) -> int:
    # the oracle and the acceptance suite import numpy, an optional
    # dependency that ``compute`` does not need, so they are imported by the
    # subcommands that use them
    try:
        from .oracle import count_points, genericity_check, require_odd_prime
    except ImportError as exc:
        return _missing_numpy(exc)

    try:
        require_odd_prime(args.q)
        if args.n not in (1, 2):
            raise ValueError(f"the oracle counts points at rank 1 and 2 only, not n={args.n}")
        if args.g < 0:
            raise ValueError(f"the genus must be nonnegative, not g={args.g}")
        if not args.eigs or len(args.eigs) % 2:
            raise ValueError(
                f"--eigs must be given a positive even number of times (2k), "
                f"not {len(args.eigs)}"
            )
        eig_lists = [[int(x) for x in s.split()] if s.strip() else [] for s in args.eigs]
        if args.n == 1:
            eigenvalues = [1] * len(eig_lists)
        else:
            if any(len(e) != 1 for e in eig_lists):
                raise ValueError("each --eigs needs 1 entry for n=2")
            eigenvalues = [e[0] for e in eig_lists]
            if any(a % args.q == 0 for a in eigenvalues):
                raise ValueError(f"eigenvalues must be units mod q={args.q}, not 0")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.n == 2:
            tuples = [tuple(e) for e in eig_lists]
            generic, witness = genericity_check(tuples, args.q, strong=args.strong_check)
            if not generic:
                print(f"non-generic input: {witness}", file=sys.stderr)
                return 3
        count = count_points(args.n, args.g, args.q, eigenvalues)
    except (ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    payload: dict = {"q": args.q, "count": count}
    verdict = None
    # compare against the formula when the types satisfy its hypotheses
    types = [_type_of_eigenvalue(a, args.q, args.n) for a in eigenvalues]
    if all(t is not None for t in types) and all(t.m_minus == 0 for t in types):
        k = len(eigenvalues) // 2
        spec = ProblemSpec(args.g, k, args.n, tuple(types))
        e_poly, _ = e_polynomial(spec)
        value = e_poly.eval_at(args.q, 0)
        payload["formula"] = int(value)
        verdict = "PASS" if value == count else "FAIL"
        payload["verdict"] = verdict
    if args.json:
        print(_dump(payload))
    else:
        print(f"count = {count}")
        if "formula" in payload:
            print(f"formula = {payload['formula']}  [{verdict}]")
    return 0 if verdict in (None, "PASS") else 2


def _type_of_eigenvalue(a: int, q: int, n: int):
    if n == 1:
        return parse_simple_type("0,0:")
    a %= q
    if a in (1, q - 1):
        return parse_simple_type("1,0:")
    if (a * a + 1) % q == 0:
        return parse_simple_type("0,1:")
    return parse_simple_type("0,0:1")


def cmd_wreath_mac(args) -> int:
    if args.core not in (0, 1):
        print("error: core must be 0 or 1", file=sys.stderr)
        return 3
    if args.size < 0:
        print("error: size must be nonnegative", file=sys.stderr)
        return 3
    family = {}
    for bp in bipartition_list(args.size):
        H = wreath_H(bp, args.core)
        P = wreath_N(bp, args.core)
        family[bipartition_str(bp)] = (H, P)
    if args.json:
        payload = {
            "size": args.size,
            "core": args.core,
            "family": {
                label: {
                    "schur": {
                        bipartition_str(b): c.to_json()
                        for b, c in sorted(H.expansion.coeffs.items())
                    },
                    "pairing": P.total.to_json(),
                    "pairing_cot": P.cot_at_one.to_json(),
                    "pairing_nabla": P.nabla.to_json(),
                }
                for label, (H, P) in family.items()
            },
        }
        print(_dump(payload))
    else:
        for label, (H, P) in family.items():
            print(f"H[{label}]:")
            for b, c in sorted(H.expansion.coeffs.items()):
                print(f"  s{bipartition_str(b)} * ({c.text()})")
            print(f"  pairing = {P.total.text()}")
            print(f"  nabla   = {P.nabla.text()}")
    return 0


def cmd_selftest(args) -> int:
    try:
        from .acceptance import run_criteria
    except ImportError as exc:
        return _missing_numpy(exc)

    results = run_criteria(filter_substr=args.filter, seed=args.seed)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} ({r.elapsed:.2f}s)"
        if r.detail and not r.passed:
            line += f": {r.detail}"
        print(line)
        all_ok = all_ok and r.passed
    if args.json:
        print(
            _dump(
                {
                    "results": [
                        {"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results
                    ]
                }
            )
        )
    return 0 if all_ok else 2


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: exit code 3, not argparse's 2, which this
    CLI reserves for a falsified property check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wreathmac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="polynomial invariants of a class configuration")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--class",
        dest="cls",
        action="append",
        required=True,
        help='class type "m+,m-:m1 m2 ..." (repeat 2k times)',
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--check-all",
        action="store_true",
        help="gate the exit code on the property checks even for inputs "
        "outside the conjecture's hypotheses",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="brute-force finite-field point count")
    p.add_argument("--q", type=int, required=True, help="an odd prime")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument(
        "--eigs",
        action="append",
        default=[],
        help="eigenvalues of one class, space separated (repeat 2k times)",
    )
    p.add_argument("--strong-check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("wreath-mac", help="dump a wreath Macdonald family")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--core", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_wreath_mac)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--filter", default="")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
