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
from functools import lru_cache

from .algebra import ZW
from .classtypes import parse_simple_type
from .hodge import CONJECTURE_KEYS, ProblemSpec, compute_hodge, dimension, e_polynomial, mixed_hodge
from .partitions import PAIRING_QT, bipartition_list, bipartition_str, brace, hook_product
from .wreath import wreath_H, wreath_N


# The largest wreath Macdonald label size that a run may solve: rank 10 (size
# 5) takes about 21.7 s in one process, and each size up multiplies the labels
# and their solve times, so a larger one would run for hours.
MAX_LABEL_SIZE = 5

# The largest variety dimension d that ``compute`` accepts: the largest
# accepted inputs of ranks 2, 4, 6 and 8 (g = 50, 12, 5, 2) take 10, 12, 27
# and 45 s in one process; rank 2 at d = 796 (g = 100) runs over 150 s.
MAX_DIMENSION = 400


def _require_within_reach(what: str, value: int, bound: int) -> None:
    """ValueError when ``value`` is above ``bound``; it reads the input
    only, so it runs before any solve."""
    if value > bound:
        raise ValueError(f"out of reach: {what} {value} (at most {bound})")


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cmd_compute(args) -> int:
    try:
        _require_within_reach("wreath Macdonald labels of size", args.n // 2, MAX_LABEL_SIZE)
        classes = tuple(parse_simple_type(c) for c in args.cls)
        spec = ProblemSpec(args.g, args.k, args.n, classes)
        _require_within_reach("variety dimension", dimension(spec), MAX_DIMENSION)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        result = compute_hodge(spec)
        e_poly, e_checks = e_polynomial(result)
        mhp, m_checks = mixed_hodge(result, e_poly)
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
        "checks": checks,
        "warnings": result.warnings,
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"d = {result.d}")
        print(f"hb = {result.zw.text(ZW)}")
        print(f"e_poly = {e_poly.text()}")
        print(f"mhp = {mhp.text()}")
        for key, val in sorted(checks.items()):
            print(f"check {key}: {val}")
        for w in result.warnings:
            print(f"warning: {w}")
    # a falsified conjecture property is exit code 2; without --check-all the
    # properties gate only inputs satisfying the conjecture's hypotheses
    if spec.ccl_ok or args.check_all:
        failed = [k for k in CONJECTURE_KEYS if checks.get(k) is False]
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
        from .oracle import count_points, genericity_check, require_countable, twisted_type
    except ImportError as exc:
        return _missing_numpy(exc)

    try:
        eig_lists = [[int(x) for x in s.split()] for s in args.eigs]
        if args.n == 2 and any(len(e) != 1 for e in eig_lists):
            raise ValueError("each --eigs needs 1 entry for n=2")
        # rank 1 counts with placeholder eigenvalues, one per --eigs
        eigenvalues = [e[0] for e in eig_lists] if args.n == 2 else [1] * len(eig_lists)
        require_countable(args.n, args.g, args.q, eigenvalues)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.n == 2:
            generic, witness = genericity_check(eigenvalues, args.q, strong=args.strong_check)
            if not generic:
                print(f"non-generic input: {witness}", file=sys.stderr)
                return 3
        count = count_points(args.n, args.g, args.q, eigenvalues)
    except ArithmeticError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    payload: dict = {"q": args.q, "count": count}
    verdict = None
    # compare against the formula when the types satisfy its hypotheses
    if args.n == 1:
        types = [parse_simple_type("0,0:")] * len(eigenvalues)
    else:
        types = [twisted_type(a, args.q) for a in eigenvalues]
    spec = ProblemSpec(args.g, len(eigenvalues) // 2, args.n, tuple(types))
    if spec.ccl_ok:
        e_poly, _ = e_polynomial(compute_hodge(spec))
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


def cmd_wreath_mac(args) -> int:
    try:
        if args.core not in (0, 1):
            raise ValueError("core must be 0 or 1")
        if args.size < 0:
            raise ValueError("size must be nonnegative")
        _require_within_reach("wreath Macdonald labels of size", args.size, MAX_LABEL_SIZE)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    family = {}
    for bp in bipartition_list(args.size):
        total = wreath_N(bp, args.core)
        cot = hook_product(brace(bp, args.core), PAIRING_QT, even_only=True)
        family[bipartition_str(bp)] = (wreath_H(bp, args.core), total, cot, total / cot)
    if args.json:
        payload = {
            "size": args.size,
            "core": args.core,
            "family": {
                label: {
                    "schur": {
                        bipartition_str(b): c.to_json()
                        for b, c in sorted(H.coeffs.items())
                    },
                    "pairing": total.to_json(),
                    "pairing_cot": cot.to_json(),
                    "pairing_nabla": nabla.to_json(),
                }
                for label, (H, total, cot, nabla) in family.items()
            },
        }
        print(_dump(payload))
    else:
        for label, (H, total, _, nabla) in family.items():
            print(f"H[{label}]:")
            for b, c in sorted(H.coeffs.items()):
                print(f"  s{bipartition_str(b)} * ({c.text()})")
            print(f"  pairing = {total.text()}")
            print(f"  nabla   = {nabla.text()}")
    return 0


def cmd_selftest(args) -> int:
    try:
        from .acceptance import run_criteria
    except ImportError as exc:
        return _missing_numpy(exc)

    results = run_criteria(filter_substr=args.filter)
    if not results:
        print(f"error: no acceptance criterion matches {args.filter!r}", file=sys.stderr)
        return 3
    if args.json:
        # the document alone, without the timings, so that runs compare
        rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        print(_dump({"results": rows}))
    else:
        for r in results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.elapsed:.2f}s)"
            if r.detail and not r.passed:
                line += f": {r.detail}"
            print(line)
    return 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: exit code 3, not argparse's 2, which this
    CLI reserves for a falsified property check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` returns a
    fresh namespace and copies the ``append`` defaults, so calls share no
    state."""
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    # argparse reads a token that starts with "-" as an option, so a class
    # text such as "-1,0:" is joined to its flag and reaches
    # parse_simple_type; "--" stays argparse's end-of-options marker
    if argv is None:
        argv = sys.argv[1:]
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--class" and arg.startswith("-") and arg != "--":
            joined[-1] = f"--class={arg}"
        else:
            joined.append(arg)
    args = build_parser().parse_args(joined)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
