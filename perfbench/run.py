#!/usr/bin/env python3
"""shiftpat benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from src/ as it
stands. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json, ``--trace 1`` the per-layer ones and
writes the full trace to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from reference import REF_S, Meter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Worker count the traced audit run compares against one worker; the
# machine the benchmark was written on has two cores.
FANOUT_WORKERS = 2
# Fresh interpreters timed for setup_s: PROBES_PER_GAP before the first
# pass and after each pass, topped up to at least MIN_SETUP_PROBES, so they
# sample the whole run. One probe scatters by about 20 % even scaled, so
# setup_s is the median of 40 to 120 of them. One more runs first, untimed,
# so that the bytecode cache is written before anything is measured. A
# traced run, which needs only cli.import_s, spawns TRACED_SETUP_PROBES up
# front.
PROBES_PER_GAP = 10
MIN_SETUP_PROBES = 40
TRACED_SETUP_PROBES = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; passes run until the next one would overrun it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_specs(kind: str) -> list:
    """(name, unit) of each metric BENCHMARK.json declares under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def git_commit():
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shiftpat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "fanout_workers": FANOUT_WORKERS if args.trace and args.workload == "audit" else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class SetupProbes:
    """Fresh interpreters timed from spawn until they have imported
    shiftpat.cli and built the workload's inputs (``walls``, scaled to the
    reference host speed by kernel samples taken before and after each
    probe), with the import alone as each one measures it (``imports``,
    unscaled)."""

    def __init__(self, workload: str, seed: int, meter: Meter):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.meter = meter
        self.walls, self.raw_walls, self.imports = [], [], []
        self._spawn()  # writes the bytecode cache; not recorded

    def _spawn(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"setup probe {self.cmd} exited {proc.returncode}")
        return t1 - t0, json.loads(line)["import_s"]

    def take(self, count: int) -> None:
        for _ in range(count):
            before = self.meter.sample()
            wall, import_s = self._spawn()
            self.walls.append(wall * Meter.scale(before, self.meter.sample()))
            self.raw_walls.append(wall)
            self.imports.append(import_s)


def low_decile(values) -> float:
    """First decile: start-up noise only ever adds time, so the fast end
    of the probes is the steady one."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metered_pass(workloads, steps, checks, meter):
    """One pass with the reference kernel sampling the host's speed; returns
    the pass time and each step's latency, both scaled to REF_S."""
    spans = []
    meter.start()
    try:
        t0 = time.perf_counter()
        workloads.run_pass(steps, checks, lambda label, a, b: spans.append((a, b)))
        t1 = time.perf_counter()
    finally:
        meter.stop()
    return meter.scaled(t0, t1), [meter.scaled(a, b) for a, b in spans]


def timed_passes(workloads, steps, checks, seconds, probes, meter):
    """Passes, with set-up probes between them, until the next pass and its
    probes would end past `seconds`; at least one pass.

    Returns the scaled pass times, the pass wall times (kernel samples
    included) and each query's median scaled latency over the passes; the
    percentiles are then taken over the workload's distinct queries.
    """
    walls, raw, per_pass = [], [], []
    start = time.perf_counter()
    probes.take(PROBES_PER_GAP)
    gap = time.perf_counter() - start  # what the probes after each pass take
    while True:
        t0 = time.perf_counter()
        wall, latencies = metered_pass(workloads, steps, checks, meter)
        took = time.perf_counter() - t0
        walls.append(wall)
        raw.append(took)
        per_pass.append(latencies)
        probes.take(PROBES_PER_GAP)
        if time.perf_counter() - start + took + gap > seconds:
            break
    probes.take(max(0, MIN_SETUP_PROBES - len(probes.walls)))
    return walls, raw, [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(args, workloads, steps, checks):
    meter = Meter()
    probes = SetupProbes(args.workload, args.seed, meter)
    walls, raw, latencies = timed_passes(workloads, steps, checks, args.seconds, probes, meter)
    run_s = statistics.median(walls)
    report_line("passes", {"count": len(walls), "scaled_s": walls, "wall_s": raw,
                           "latency_samples": len(latencies), "repeats_per_sample": len(walls)})
    report_line("setup_probes", {"count": len(probes.walls), "scaled_s": probes.walls,
                                 "wall_s": probes.raw_walls})
    report_line("reference", {"ref_s": REF_S, "samples": len(meter.took),
                              "median_s": statistics.median(meter.took)})
    return {
        "setup_s": statistics.median(probes.walls),
        "run_s": run_s,
        "queries_per_s": len(steps) / run_s,
        "query_p50_us": percentile(latencies, 50) * 1e6,
        "query_p99_us": percentile(latencies, 99) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(args, workloads, steps, checks, meta):
    from tracer import Tracer, oracle_words

    probes = SetupProbes(args.workload, args.seed, Meter())
    probes.take(TRACED_SETUP_PROBES)
    tracer = Tracer()
    origin = time.perf_counter()
    plain, traced_walls, pass_counts, first_sweeps = [], [], [], None
    while True:
        wall, _ = workloads.run_pass(steps, checks)
        plain.append(wall)
        before, sweeps_before = tracer.snapshot(), len(tracer.sweeps)
        pass_span = tracer.span(f"pass {len(traced_walls)}", time.perf_counter() - origin, None)

        def on_step(label, t0, t1, parent=pass_span["id"]):
            tracer.span(label, t0 - origin, t1 - origin, parent)

        tracer.install()
        try:
            wall, _ = workloads.run_pass(steps, checks, on_step)
        finally:
            tracer.uninstall()
        pass_span["end"] = time.perf_counter() - origin
        traced_walls.append(wall)
        after = tracer.snapshot()
        pass_counts.append({k: after[k] - before.get(k, 0) for k in after})
        if first_sweeps is None:
            first_sweeps = tracer.sweeps[sweeps_before:]
        if time.perf_counter() - origin + plain[0] + wall > args.seconds:
            break
    checks.check(all(c == pass_counts[0] for c in pass_counts),
                 "call counts differ between identical traced passes")

    P = len(traced_walls)
    calls = pass_counts[0]
    stats = tracer.stats

    # .get: a function a later change removes reads 0 instead of failing the run
    def count(key):
        return calls.get(key, 0)

    def self_s(key):
        return stats.get(key, (0, 0.0, 0.0))[2] / P

    def wall_s(key):
        return stats.get(key, (0, 0.0, 0.0))[1] / P

    oracle = [c for c in first_sweeps if c["fn"] == "enumeration.oracle_allowed"]
    scanned = sum(oracle_words(c["args"]["n"], c["args"]["N"]) for c in oracle)
    returned = sum(c["returned"] for c in oracle)
    largest = max(oracle, key=lambda c: oracle_words(c["args"]["n"], c["args"]["N"]), default=None)
    n_min_calls = count("realization.n_min")
    cp_in_nmin = tracer.check_in_nmin / P
    speedup, jobs_per_worker = fanout(workloads, first_sweeps, FANOUT_WORKERS)
    for step in workloads.fanout_steps(args.workload, FANOUT_WORKERS):
        workloads.run_pass([step], checks)
    metrics = {
        "realization.n_min.calls": n_min_calls,
        "realization.n_min.self_s": self_s("realization.n_min"),
        "realization.n_min.us_per_call": (
            wall_s("realization.n_min") / n_min_calls * 1e6 if n_min_calls else 0.0),
        "realization.a_set.calls": count("realization.a_set"),
        "realization.delta.calls": count("realization.delta"),
        "permutations.check_permutation.calls": count("permutations.check_permutation"),
        "permutations.check_permutation.per_nmin": cp_in_nmin / n_min_calls if n_min_calls else 0.0,
        "permutations.check_permutation.per_query":
            count("permutations.check_permutation") / len(steps),
        "realization.witness.calls": count("realization.witness"),
        "realization.witness.self_s": self_s("realization.witness"),
        "realization.base_assignment.calls": count("realization.base_assignment"),
        "words.pat.calls": count("words.pat"),
        "words.pat.self_s": self_s("words.pat"),
        "words.psi.calls": count("words.psi"),
        "words.psi.self_s": self_s("words.psi"),
        "words.mobius.calls": count("words.mobius"),
        "enumeration.count_a.calls": count("enumeration.count_a"),
        "enumeration.count_a.self_s": self_s("enumeration.count_a"),
        "enumeration.solve_recurrence.calls": count("enumeration.solve_recurrence"),
        "enumeration.enumerate_by_nmin.self_s": self_s("enumeration.enumerate_by_nmin"),
        "enumeration.enumerate_by_nmin.wall_s": wall_s("enumeration.enumerate_by_nmin"),
        "enumeration.oracle_allowed.calls": count("enumeration.oracle_allowed"),
        "enumeration.oracle_allowed.self_s": self_s("enumeration.oracle_allowed"),
        "enumeration.oracle_allowed.wall_s": wall_s("enumeration.oracle_allowed"),
        "enumeration.oracle_allowed.words_scanned": scanned,
        "enumeration.oracle_allowed.yield": returned / scanned if scanned else 0.0,
        "enumeration.oracle_allowed.peak_alloc_mb": oracle_peak_alloc_mb(workloads, largest),
        "enumeration.forbidden.self_s": self_s("enumeration.forbidden"),
        "enumeration.minimal_forbidden.self_s": self_s("enumeration.minimal_forbidden"),
        "enumeration.fanout_speedup": speedup,
        "enumeration.jobs_per_worker": jobs_per_worker,
        "conjectures.check_conjecture1.self_s": self_s("conjectures.check_conjecture1"),
        "conjectures.descent_distribution.self_s": self_s("conjectures.descent_distribution"),
        "permutations.descent_set.calls": count("permutations.descent_set"),
        "permutations.marked_cycles.self_s": self_s("permutations.marked_cycles"),
        "conjectures.check_conjecture2.self_s": self_s("conjectures.check_conjecture2"),
        "cli.main.calls": count("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_s": low_decile(probes.imports),
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(plain) - 1,
    }
    report_line("passes", {"untraced_walls_s": plain, "traced_walls_s": traced_walls})
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"meta": meta, "traced_passes": P, "per_pass_calls": calls,
                       "per_layer": metrics})
    report_line("trace_file", str(path.relative_to(ROOT)))
    return metrics


def oracle_peak_alloc_mb(workloads, call) -> float:
    """Peak traced allocation of one recorded oracle_allowed call, re-run alone
    under tracemalloc after the traced passes; 0 without a call."""
    if call is None:
        return 0.0
    tracemalloc.start()
    try:
        workloads.enumeration.oracle_allowed(**call["args"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def fanout(workloads, sweep_calls, workers: int):
    """(1-worker wall / `workers`-worker wall, mean jobs per worker) of the
    pass's enumerate_by_nmin and oracle_allowed calls, re-run untraced at
    both worker counts in alternating order; (0, 0) when there are none.

    Jobs are counted as the program submits them, through a pool class
    swapped into the enumeration namespace for the re-runs."""
    enumeration = workloads.enumeration
    calls = [c for c in sweep_calls
             if c["fn"] in ("enumeration.enumerate_by_nmin", "enumeration.oracle_allowed")]
    if not calls:
        return 0.0, 0.0
    pool_cls = enumeration.ProcessPoolExecutor
    jobs_per_worker = []

    class CountingPool(pool_cls):
        def map(self, fn, *iterables, **kwargs):
            jobs = list(iterables[0])
            jobs_per_worker.append(len(jobs) / self._max_workers)
            return super().map(fn, jobs, *iterables[1:], **kwargs)

    wall = {1: 0.0, workers: 0.0}
    enumeration.ProcessPoolExecutor = CountingPool
    try:
        for i, call in enumerate(calls):
            fn = getattr(enumeration, call["fn"].split(".")[1])
            for w in (1, workers) if i % 2 == 0 else (workers, 1):
                t0 = time.perf_counter()
                fn(**dict(call["args"], workers=w))
                wall[w] += time.perf_counter() - t0
    finally:
        enumeration.ProcessPoolExecutor = pool_cls
    return wall[1] / wall[workers], statistics.mean(jobs_per_worker) if jobs_per_worker else 0.0


def report_line(label, value) -> None:
    print(f"# {label} {json.dumps(value)}", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shiftpat" / "__init__.py").is_file():
        print(f"error: no shiftpat package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    try:
        steps = workloads.make_inputs(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    specs = metric_specs(kind)
    meta = run_metadata(args)
    report_line("meta", meta)

    checks = workloads.Checks()
    if args.trace:
        values = traced(args, workloads, steps, checks, meta)
    else:
        values = end_to_end(args, workloads, steps, checks)
    if set(values) != {name for name, _ in specs}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json {kind}")

    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    report_line("failed_frac", {"failed": checks.failed, "attempted": checks.attempted,
                                "value": checks.failed / max(1, checks.attempted)})
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
