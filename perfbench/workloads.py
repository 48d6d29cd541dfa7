"""Seeded inputs, timed passes and output checks for the shiftpat benchmark.

A workload is a list of steps. Each step is one top-level request, a CLI
command run in-process or a library call, timed as a whole; its outputs
are checked after the clock stops. The library is reached only through
module attributes (``realization.n_min``, never a name imported into this
module), so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import time
import traceback
from math import factorial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from shiftpat import cli, enumeration, realization, words  # noqa: E402

WORKLOADS = ("audit", "queries", "series")
# p99 sits among the ~120 slowest of the long patterns, whose cost varies
# 3x within one length, so fewer patterns make p99 follow the seed.
QUERY_COUNT = 12000
# (share, shortest, longest) of the query pattern lengths; length sets the
# unroll width of pat (about n^2 for variants A and B) and so the tail. The
# lengths are dealt evenly within each band, so every seed has the same
# length multiset and a seed changes only the patterns and their order.
QUERY_LENGTHS = ((0.70, 4, 12), (0.25, 13, 24), (0.05, 25, 40))
AUDIT_BRUTE_N = 9
SERIES_N = 48
RECURRENCE_N = 24

_CELL = re.compile(r"^n=(\d+) N=(\d+) closed=(\d+) brute=(\d+) oracle=(\d+) (ok|MISMATCH)$")


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Output checks attempted and failed; failures are kept, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class Step:
    """One top-level request: ``call()`` is timed, ``verify(result, checks)`` is not."""

    __slots__ = ("label", "call", "verify")

    def __init__(self, label, call, verify):
        self.label = label
        self.call = call
        self.verify = verify


def run_cli(argv):
    """cli.main(argv) in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def cli_step(key, digests, extra_verify=None, threads=1):
    """`shiftpat KEY --threads THREADS` checked against the stdout digest
    recorded for KEY. The worker count is always passed, so SHIFTPAT_THREADS
    in the environment cannot change it."""
    argv = key.split() + ["--threads", str(threads)]

    def verify(result, checks):
        code, out = result
        checks.check(code == 0, f"shiftpat {' '.join(argv)} exited {code}")
        checks.check(
            stdout_digest(out) == digests[key],
            f"shiftpat {' '.join(argv)} stdout differs from the recorded digest",
        )
        if extra_verify is not None:
            extra_verify(out, checks)

    return Step("cli " + " ".join(argv), lambda: run_cli(argv), verify)


def _verify_xcheck_cells(out, checks):
    cells = [_CELL.match(line) for line in out.splitlines()[:-1]]
    checks.check(len(cells) == 7 * 3 and all(cells), "xcheck 8 4 printed an unexpected cell list")
    for m in filter(None, cells):
        n, N, closed, brute, oracle = m.group(1, 2, 3, 4, 5)
        checks.check(
            closed == brute == oracle and m.group(6) == "ok",
            f"xcheck cell n={n} N={N}: closed={closed} brute={brute} oracle={oracle}",
        )


def _verify_table_rows(out, checks):
    totals = {}
    for line in out.splitlines()[1:]:
        n, _, a = (int(x) for x in line.split("\t"))
        totals[n] = totals.get(n, 0) + a
    checks.check(sorted(totals) == list(range(2, SERIES_N + 1)), "table 48 is missing rows")
    for n, total in totals.items():
        checks.check(total == factorial(n), f"table row n={n} sums to {total}, not {n}!")


def _brute_step():
    def call():
        return enumeration.enumerate_by_nmin(AUDIT_BRUTE_N)

    def verify(row, checks):
        n = AUDIT_BRUTE_N
        checks.check(row.total() == factorial(n), f"brute S_{n} row sums to {row.total()}")
        for N in range(2, n):
            closed = enumeration.count_a(n, N)
            got = row.counts.get(N, 0)
            checks.check(got == closed, f"brute a({n},{N})={got} but closed form gives {closed}")

    return Step(f"enumerate_by_nmin({AUDIT_BRUTE_N})", call, verify)


def _closed_vs_recurrence():
    cells = []
    for n in range(2, RECURRENCE_N + 1):
        for N in range(2, max(2, n - 1) + 1):
            closed = enumeration.count_a(n, N)
            rec = enumeration.count_a(n, N, method="recurrence")
            cells.append((n, N, closed, rec))
    binary = [
        (n, enumeration.count_binary(n), enumeration.count_a(n, 2))
        for n in range(2, SERIES_N + 1)
    ]
    return cells, binary


def _verify_closed_vs_recurrence(result, checks):
    cells, binary = result
    for n, N, closed, rec in cells:
        checks.check(closed == rec, f"a({n},{N}): closed {closed} != recurrence {rec}")
    for n, b, a in binary:
        checks.check(b == a, f"count_binary({n})={b} but count_a({n},2)={a}")


def query_patterns(seed: int) -> list:
    """QUERY_COUNT random patterns whose lengths follow QUERY_LENGTHS."""
    lengths = []
    for share, lo, hi in QUERY_LENGTHS:
        lengths += [lo + i % (hi - lo + 1) for i in range(round(share * QUERY_COUNT))]
    rng = random.Random(seed)
    rng.shuffle(lengths)
    out = []
    for n in lengths:
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        out.append(tuple(pi))
    return out


def _applicable_variants(pi):
    n, b = len(pi), pi[-1]
    variants = []
    if b != n:
        variants.append("A")
    if b != 1:
        variants.append("B")
    if b == 1:
        variants.append("C")
    if b == n:
        variants.append("D")
    if 1 < b < n and realization.delta(pi) == (1, "I"):
        variants.extend(["E", "F"])
    return variants


def query(pi):
    """n_min by both formulas, then every applicable witness, round-tripped and re-patterned."""
    n = len(pi)
    N = realization.n_min(pi)
    marked = realization.n_min_marked(pi)
    witnesses = []
    for variant in _applicable_variants(pi):
        word = realization.witness(pi, variant=variant).word
        back = words.EventuallyPeriodicWord.from_string(word.to_string())
        witnesses.append(
            (variant, back == word, words.pat(back, n) == pi, len(set(back.pre) | set(back.per)))
        )
    return N, marked, witnesses


def _query_step(pi):
    def verify(result, checks):
        N, marked, witnesses = result
        checks.check(N == marked, f"{pi}: n_min={N} but n_min_marked={marked}")
        for variant, round_trip, pattern_ok, symbols in witnesses:
            checks.check(round_trip, f"{pi} variant {variant}: word literal does not round-trip")
            checks.check(pattern_ok, f"{pi} variant {variant}: pat(witness) differs")
            checks.check(symbols == N, f"{pi} variant {variant}: {symbols} symbols, n_min={N}")

    return Step("query", lambda: query(pi), verify)


def make_inputs(workload: str, seed: int):
    """The steps of one pass. Only ``queries`` draws its inputs from the seed;
    ``audit`` (the paper's four-way agreement) and ``series`` (its closed
    forms) are fixed tables."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "queries":
        return [_query_step(pi) for pi in query_patterns(seed)]
    digests = load_digests()
    if workload == "audit":
        return [
            cli_step("xcheck 8 4", digests, _verify_xcheck_cells),
            cli_step("minimal-forbidden 7 3", digests),
            cli_step("conjecture1 9", digests),
            _brute_step(),
        ]
    return [
        cli_step(f"table {SERIES_N}", digests, _verify_table_rows),
        cli_step(f"conjecture2 {SERIES_N}", digests),
        Step(f"closed vs recurrence n<={RECURRENCE_N}", _closed_vs_recurrence,
             _verify_closed_vs_recurrence),
    ]


def fanout_steps(workload: str, workers: int):
    """Steps a traced run adds to check that fanned-out output is identical:
    the audit's xcheck at `workers`, held to the one-worker digest."""
    if workload != "audit":
        return []
    return [cli_step("xcheck 8 4", load_digests(), _verify_xcheck_cells, threads=workers)]


def run_pass(steps, checks: Checks, on_step=None):
    """Run every step once; returns (pass wall seconds, per-step seconds)."""
    clock = time.perf_counter
    latencies = []
    start = clock()
    for step in steps:
        t0 = clock()
        try:
            result = step.call()
        except Exception:
            t1 = clock()
            checks.fail(f"{step.label} raised:\n{traceback.format_exc()}")
        else:
            t1 = clock()
            try:
                step.verify(result, checks)
            except Exception:
                checks.fail(f"checking {step.label} raised:\n{traceback.format_exc()}")
        latencies.append(t1 - t0)
        if on_step is not None:
            on_step(step.label, t0, t1)
    return clock() - start, latencies
