"""Command line front end.

Every command is a pure function of its arguments: identical invocation,
identical bytes out. Text is the default; --json switches to a single
object {"input": ..., "result": ..., "details": ...} with stable key
order. Exit codes: 0 success or verified, 1 usage error, 2 malformed
permutation or word, 3 refuted or mismatching cross-check, 4 sweep
bound exceeded.

Stdout is a byte contract: tests and the benchmark compare its digests,
so it has one writer. A handler never prints. It returns its input,
result, details and text lines, and `main` alone writes either the text
lines or the JSON object built from the other three. A result of False
is a refutation and exits 3; a ValueError from a handler prints one
`error:` line and exits 2, 4 or 1 by its kind.
"""

from __future__ import annotations

import argparse
import sys

from .conjectures import check_conjecture1, check_conjecture2
from .enumeration import (
    DEFAULT_BOUND,
    BoundExceededError,
    check_bound,
    count_a,
    count_row,
    count_table,
    extremal_sextet,
    forbidden,
    minimal_forbidden,
    oracle_allowed,
)
from .permutations import _size, format_marked, format_permutation, parse_permutation
from .realization import explain_nmin, realize_check, witness
from .words import EventuallyPeriodicWord, pat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MALFORMED = 2
EXIT_REFUTED = 3
EXIT_BOUND = 4


class _MalformedError(ValueError):
    """A permutation or word literal that does not parse."""


def _literal(parse, text: str):
    """parse(text), with a literal that does not parse reported as malformed."""
    try:
        return parse(text)
    except ValueError as exc:
        raise _MalformedError(str(exc)) from None


def _perm_set(given, perms) -> tuple:
    """The output of a command whose result is a set of permutations, sorted."""
    ordered = sorted(perms)
    lines = [format_permutation(p) for p in ordered]
    return given, [list(p) for p in ordered], {"count": len(perms)}, lines


def _cmd_nmin(args) -> tuple:
    pi = _literal(parse_permutation, args.perm)
    report = explain_nmin(pi)
    strict = sorted(report.a_set)
    theta = format_marked(report.theta)
    details = {
        "A": strict,
        "delta": report.delta,
        "delta_case": report.delta_case,
        "theta": theta,
        "des": report.des,
        "eps": report.eps,
    }
    lines = [
        f"N={report.n_min}",
        "A={" + ",".join(str(a) for a in strict) + "}",
        f"Delta={report.delta} case={report.delta_case or 'none'}",
        f"theta={theta}",
        f"des={report.des} eps={report.eps}",
    ]
    return {"perm": list(pi)}, report.n_min, details, lines


def _cmd_witness(args) -> tuple:
    pi = _literal(parse_permutation, args.perm)
    spec = witness(pi, variant=args.variant, m=args.m)
    symbols = set(spec.word.pre) | set(spec.word.per)
    good = realize_check(pi, spec.word) and len(symbols) == spec.word.alphabet_size
    literal = spec.word.to_string()
    lines = [
        f"word={literal}",
        f"variant={spec.variant} k={spec.k} m={spec.m}",
        f"check={'ok' if good else 'FAIL'}",
    ]
    return (
        {"perm": list(pi), "variant": args.variant, "m": args.m},
        literal,
        {"variant": spec.variant, "k": spec.k, "m": spec.m, "check": good},
        lines,
    )


def _cmd_pat(args) -> tuple:
    result = pat(_literal(EventuallyPeriodicWord.from_string, args.word), args.n)
    return (
        {"word": args.word, "n": args.n},
        list(result) if result else None,
        {},
        [format_permutation(result) if result else "undefined"],
    )


def _cmd_pattern_set(args) -> tuple:
    perms = args.compute(args.n, args.N, workers=args.threads)
    return _perm_set({"n": args.n, "N": args.N}, perms)


def _cmd_count(args) -> tuple:
    value = count_a(args.n, args.N, method=args.method, workers=args.threads)
    return {"n": args.n, "N": args.N}, value, {"method": args.method}, [str(value)]


def _cmd_table(args) -> tuple:
    rows = list(count_table(args.n_max))
    lines = ["n\tN\ta_nN"] + [f"{n}\t{N}\t{a}" for n, N, a in rows]
    return {"n_max": args.n_max}, [[n, N, a] for n, N, a in rows], {}, lines


def _cmd_sextet(args) -> tuple:
    return _perm_set({"n": args.n}, extremal_sextet(args.n))


def _cmd_conjecture1(args) -> tuple:
    report = check_conjecture1(args.n, bound=args.bound)
    verdict = "verified" if report.matches else "REFUTED"
    details = {
        "population": report.sn_distribution.size(),
        "distinct_descent_sets": len(report.sn_distribution.by_set),
        "by_count": {str(k): v for k, v in report.t0_distribution.by_count.items()},
    }
    lines = [f"conjecture1 n={args.n}: {verdict} (descent-set distributions compared)"]
    return {"n": args.n}, report.matches, details, lines


def _cmd_conjecture2(args) -> tuple:
    report = check_conjecture2(args.n_max)
    lines = [
        f"n={c.n} N={c.N} a={c.a} even={'yes' if c.even else 'NO'}"
        + (f" six={'yes' if c.six_ok else 'NO'}" if c.six_claimed else "")
        for c in report.cells
    ]
    ok = report.verified()
    lines.append(f"conjecture2 up to n={args.n_max}: {'verified' if ok else 'REFUTED'}")
    return {"n_max": args.n_max}, ok, {"cells": [c._asdict() for c in report.cells]}, lines


def _cmd_xcheck(args) -> tuple:
    _size(args.n_max, 2, "n_max")
    _size(args.N_max, 2, "N_max")
    check_bound(args.n_max)
    methods = ("closed", "brute", "oracle")
    lines = []
    cells = []
    for n in range(2, args.n_max + 1):
        rows = [count_row(n, args.N_max, method=m, workers=args.threads) for m in methods]
        for N, (closed, b, o) in enumerate(zip(*rows), start=2):
            good = closed == b == o
            lines.append(
                f"n={n} N={N} closed={closed} brute={b} oracle={o} "
                + ("ok" if good else "MISMATCH")
            )
            cells.append({"n": n, "N": N, "closed": closed, "brute": b, "oracle": o, "ok": good})
    all_ok = all(cell["ok"] for cell in cells)
    lines.append("xcheck: " + ("all agree" if all_ok else "MISMATCH FOUND"))
    return {"n_max": args.n_max, "N_max": args.N_max}, all_ok, {"cells": cells}, lines


def _worker_count(text: str) -> int:
    if not (text.strip().isdecimal() and text.isascii()):
        raise argparse.ArgumentTypeError(f"worker count must be an integer >= 0, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--threads",
        type=_worker_count,
        default=1,
        help="worker count for exhaustive sweeps",
    )
    parser = argparse.ArgumentParser(
        prog="shiftpat",
        description="Permutation patterns realized by one-sided full shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nmin", parents=[common], help="minimal alphabet size of a pattern")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_nmin)

    p = sub.add_parser("witness", parents=[common], help="a word realizing the pattern")
    p.add_argument("perm")
    p.add_argument("--variant", choices=list("ABCDEF"), default=None)
    p.add_argument(
        "--m", type=int, default=None,
        help="repetition count for variants A/B (default: the least the bound admits)",
    )
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("pat", parents=[common], help="pattern of a word's first n suffixes")
    p.add_argument("word", help="word literal PRE(PER), e.g. 10302(0)")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_pat)

    for name, compute, text in (
        ("allowed", oracle_allowed, "patterns realized over N symbols"),
        ("forbidden", forbidden, "patterns never realized"),
        ("minimal-forbidden", minimal_forbidden, "forbidden patterns minimal by containment"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("n", type=int)
        p.add_argument("N", type=int)
        p.set_defaults(handler=_cmd_pattern_set, compute=compute)

    p = sub.add_parser("count", parents=[common], help="number of patterns with n_min = N")
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.add_argument(
        "--method", choices=["closed", "recurrence", "brute", "oracle"], default="closed"
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("table", parents=[common], help="TSV stratification table")
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("sextet", parents=[common], help="the six patterns needing n-1 symbols")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_sextet)

    p = sub.add_parser("conjecture1", parents=[common], help="descent-set equidistribution check")
    p.add_argument("n", type=int)
    p.add_argument(
        "--bound", type=int, default=DEFAULT_BOUND, help="largest n the sweep will accept"
    )
    p.set_defaults(handler=_cmd_conjecture1)

    p = sub.add_parser("conjecture2", parents=[common], help="divisibility of the counts by 6")
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=_cmd_conjecture2)

    p = sub.add_parser("xcheck", parents=[common], help="closed vs brute vs oracle audit")
    p.add_argument("n_max", type=int)
    p.add_argument("N_max", type=int)
    p.set_defaults(handler=_cmd_xcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_USAGE if exc.code == 2 else exc.code
    # a count can pass the int-to-str limit (4300 digits by default), so it
    # is lifted while the command runs and prints, and the caller's setting
    # comes back after: tests and the benchmark call main in process
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved is None:  # an interpreter without the limit
        return _run(args)
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(args) -> int:
    """Run the parsed command, print its text lines or JSON object and return its exit code."""
    try:
        given, result, details, lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _MalformedError):
            return EXIT_MALFORMED
        return EXIT_BOUND if isinstance(exc, BoundExceededError) else EXIT_USAGE
    if args.json:
        import json  # here, so that a text command never loads it

        print(json.dumps({"input": given, "result": result, "details": details}))
    else:
        for line in lines:
            print(line)
    return EXIT_REFUTED if result is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
