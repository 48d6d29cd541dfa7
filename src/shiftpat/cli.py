"""Command line front end.

Every command is a pure function of its arguments: identical invocation,
identical bytes out. Text is the default; --json switches to a single
object {"input": ..., "result": ..., "details": ...} with stable key
order. Exit codes: 0 success or verified, 1 usage error, 2 malformed
permutation or word, 3 refuted or mismatching cross-check, 4 sweep
bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .conjectures import check_conjecture1, check_conjecture2
from .enumeration import (
    BoundExceededError,
    count_a,
    count_table,
    enumerate_by_nmin,
    extremal_sextet,
    forbidden,
    minimal_forbidden,
    oracle_allowed,
)
from .permutations import (
    format_marked,
    format_permutation,
    marked_des,
    marked_eps,
    parse_permutation,
    theta,
)
from .realization import a_set, delta, n_min, realize_check, witness
from .words import EventuallyPeriodicWord, pat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MALFORMED = 2
EXIT_REFUTED = 3
EXIT_BOUND = 4


class _MalformedError(ValueError):
    """A permutation or word literal that does not parse."""


def _perm(text: str):
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise _MalformedError(str(exc)) from None


def _word(text: str) -> EventuallyPeriodicWord:
    try:
        return EventuallyPeriodicWord.from_string(text)
    except ValueError as exc:
        raise _MalformedError(str(exc)) from None


def _emit(args, data, lines) -> None:
    if args.json:
        print(json.dumps(data))
    else:
        for line in lines:
            print(line)


def _perm_lines(perms) -> list:
    return [format_permutation(p) for p in sorted(perms)]


def _cmd_nmin(args) -> int:
    pi = _perm(args.perm)
    N = n_min(pi)
    strict = sorted(a_set(pi)) if len(pi) >= 2 else []
    d, case = delta(pi) if len(pi) >= 2 else (0, None)
    mc = theta(pi)
    des = marked_des(mc) if len(pi) >= 2 else 0
    eps = marked_eps(mc) if len(pi) >= 2 else 0
    data = {
        "input": {"perm": list(pi)},
        "result": N,
        "details": {
            "A": strict,
            "delta": d,
            "delta_case": case,
            "theta": format_marked(mc),
            "des": des,
            "eps": eps,
        },
    }
    lines = [
        f"N={N}",
        "A={" + ",".join(str(a) for a in strict) + "}",
        f"Delta={d} case={case if case else 'none'}",
        f"theta={format_marked(mc)}",
        f"des={des} eps={eps}",
    ]
    _emit(args, data, lines)
    return EXIT_OK


def _cmd_witness(args) -> int:
    pi = _perm(args.perm)
    spec = witness(pi, variant=args.variant, m=args.m)
    symbols = set(spec.word.pre) | set(spec.word.per)
    good = realize_check(pi, spec.word) and len(symbols) == spec.word.alphabet_size
    data = {
        "input": {"perm": list(pi), "variant": args.variant, "m": args.m},
        "result": spec.word.to_string(),
        "details": {"variant": spec.variant, "k": spec.k, "m": spec.m, "check": good},
    }
    lines = [
        f"word={spec.word.to_string()}",
        f"variant={spec.variant} k={spec.k} m={spec.m}",
        f"check={'ok' if good else 'FAIL'}",
    ]
    _emit(args, data, lines)
    return EXIT_OK


def _cmd_pat(args) -> int:
    w = _word(args.word)
    result = pat(w, args.n)
    data = {
        "input": {"word": args.word, "n": args.n},
        "result": list(result) if result else None,
        "details": {},
    }
    _emit(args, data, [format_permutation(result) if result else "undefined"])
    return EXIT_OK


def _pattern_set_command(compute):
    def handler(args) -> int:
        perms = compute(args.n, args.N, workers=args.threads)
        data = {
            "input": {"n": args.n, "N": args.N},
            "result": [list(p) for p in sorted(perms)],
            "details": {"count": len(perms)},
        }
        _emit(args, data, _perm_lines(perms))
        return EXIT_OK

    return handler


def _cmd_count(args) -> int:
    value = count_a(args.n, args.N, method=args.method, workers=args.threads)
    data = {
        "input": {"n": args.n, "N": args.N},
        "result": value,
        "details": {"method": args.method},
    }
    _emit(args, data, [str(value)])
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = list(count_table(args.n_max))
    data = {
        "input": {"n_max": args.n_max},
        "result": [[n, N, a] for n, N, a in rows],
        "details": {},
    }
    lines = ["n\tN\ta_nN"] + [f"{n}\t{N}\t{a}" for n, N, a in rows]
    _emit(args, data, lines)
    return EXIT_OK


def _cmd_sextet(args) -> int:
    perms = extremal_sextet(args.n)
    data = {
        "input": {"n": args.n},
        "result": [list(p) for p in sorted(perms)],
        "details": {"count": len(perms)},
    }
    _emit(args, data, _perm_lines(perms))
    return EXIT_OK


def _cmd_conjecture1(args) -> int:
    report = check_conjecture1(args.n, bound=args.bound)
    verdict = "verified" if report.matches else "REFUTED"
    data = {
        "input": {"n": args.n},
        "result": report.matches,
        "details": {
            "population": report.sn_distribution.size(),
            "distinct_descent_sets": len(report.sn_distribution.by_set),
            "by_count": {str(k): v for k, v in report.t0_distribution.by_count.items()},
        },
    }
    _emit(args, data, [f"conjecture1 n={args.n}: {verdict} (descent-set distributions compared)"])
    return EXIT_OK if report.matches else EXIT_REFUTED


def _cmd_conjecture2(args) -> int:
    report = check_conjecture2(args.n_max)
    lines = []
    cells = []
    for c in report.cells:
        six = "yes" if c.six_ok else "NO"
        lines.append(
            f"n={c.n} N={c.N} a={c.value} even={'yes' if c.even else 'NO'}"
            + (f" six={six}" if c.six_claimed else "")
        )
        cells.append(
            {
                "n": c.n,
                "N": c.N,
                "a": c.value,
                "even": c.even,
                "six_claimed": c.six_claimed,
                "six_ok": c.six_ok,
            }
        )
    ok = report.verified()
    lines.append(f"conjecture2 up to n={args.n_max}: {'verified' if ok else 'REFUTED'}")
    data = {"input": {"n_max": args.n_max}, "result": ok, "details": {"cells": cells}}
    _emit(args, data, lines)
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_xcheck(args) -> int:
    lines = []
    cells = []
    all_ok = True
    for n in range(2, args.n_max + 1):
        brute = enumerate_by_nmin(n, workers=args.threads).counts
        previous = frozenset()
        for N in range(2, args.N_max + 1):
            current = oracle_allowed(n, N, workers=args.threads)
            closed = count_a(n, N)
            b = brute.get(N, 0)
            o = len(current) - len(previous)
            good = closed == b == o
            all_ok = all_ok and good
            lines.append(
                f"n={n} N={N} closed={closed} brute={b} oracle={o} "
                + ("ok" if good else "MISMATCH")
            )
            cells.append({"n": n, "N": N, "closed": closed, "brute": b, "oracle": o, "ok": good})
            previous = current
    lines.append("xcheck: " + ("all agree" if all_ok else "MISMATCH FOUND"))
    data = {
        "input": {"n_max": args.n_max, "N_max": args.N_max},
        "result": all_ok,
        "details": {"cells": cells},
    }
    _emit(args, data, lines)
    return EXIT_OK if all_ok else EXIT_REFUTED


def _worker_count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"worker count must be an integer >= 0, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--threads",
        type=_worker_count,
        default=os.environ.get("SHIFTPAT_THREADS", "1"),
        help="worker count for exhaustive sweeps (env SHIFTPAT_THREADS)",
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
    p.add_argument("--m", type=int, default=None, help="repetition count for variants A/B")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("pat", parents=[common], help="pattern of a word's first n suffixes")
    p.add_argument("word", help="word literal PRE(PER), e.g. 10302(0)")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_pat)

    p = sub.add_parser("allowed", parents=[common], help="patterns realized over N symbols")
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(handler=_pattern_set_command(oracle_allowed))

    p = sub.add_parser("forbidden", parents=[common], help="patterns never realized")
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(handler=_pattern_set_command(forbidden))

    p = sub.add_parser(
        "minimal-forbidden", parents=[common], help="forbidden patterns minimal by containment"
    )
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(handler=_pattern_set_command(minimal_forbidden))

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
    p.add_argument("--bound", type=int, default=9, help="largest n the sweep will accept")
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
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return EXIT_USAGE if code == 2 else int(code)
    try:
        return args.handler(args)
    except _MalformedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
