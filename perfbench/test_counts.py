"""Self-tests of the benchmark.

Every ``*.calls`` metric and ``words_scanned`` must repeat exactly between
two traced runs of one seed, so that a later change can claim a count
change. Each traced run takes one untraced and one traced pass; the
three workloads together take a few minutes.

    python3 -m pytest perfbench/test_counts.py
    python3 -m pytest perfbench/test_counts.py -k queries
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


_runs = {}


def traced_metrics(workload, attempt):
    """Per-layer values of traced run `attempt` (0 or 1), run once per session."""
    if (workload, attempt) not in _runs:
        proc = run_bench(ROOT, workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        _runs[workload, attempt] = {k: v["value"] for k, v in result["metrics"].items()}
    return _runs[workload, attempt]


def is_count(name):
    return name.endswith(".calls") or name.endswith(".words_scanned")


@pytest.mark.parametrize("workload", ["queries", "audit", "series"])
def test_counts_repeat_exactly(workload):
    first, second = traced_metrics(workload, 0), traced_metrics(workload, 1)
    counts = sorted(filter(is_count, first))
    assert "enumeration.oracle_allowed.words_scanned" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_queries_never_touch_enumeration():
    m = traced_metrics("queries", 0)
    assert m["realization.n_min.calls"] > 0 and m["words.pat.calls"] > 0
    assert m["enumeration.count_a.calls"] == m["enumeration.oracle_allowed.calls"] == 0


def test_series_never_touches_permutations_or_realization():
    m = traced_metrics("series", 0)
    assert m["words.psi.calls"] > 0 and m["enumeration.solve_recurrence.calls"] > 0
    assert m["realization.n_min.calls"] == m["permutations.check_permutation.calls"] == 0
    assert m["permutations.descent_set.calls"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "queries", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
