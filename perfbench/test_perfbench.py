"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The tests that start the benchmark as a subprocess take about a minute
together.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".evals", ".madds", "_bits_max", "report_bytes", "product_pairs")


def bench(*args, cwd=run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def coefficients(report: dict) -> dict:
    """(output, component, monomial) -> coefficient string."""
    out = {}
    for label, typed in report["outputs"].items():
        value = typed["value"]
        table = value.get("gamma") or value.get("comps") or {"": value}
        for comp, jet in table.items():
            for mono, c in jet["coeffs"].items():
                out[(label, comp, mono)] = c
    return out


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycle_depends_only_on_the_seed(workload):
    expected = run.load_expected()

    def stored(name):
        return run.stored_report(expected, name)

    first = workloads.cycle(workload, 7, stored)
    assert first == workloads.cycle(workload, 7, stored)
    assert all(op.name in expected for op in first if op.expect_ok)


@pytest.mark.parametrize("entry", workloads.verify_pool(), ids=lambda entry: workloads.scenario_name(*entry))
def test_tamper_changes_one_output_coefficient(entry):
    text = run.stored_report(run.load_expected(), workloads.scenario_name(*entry))
    original = json.loads(text)
    for seed in range(4):
        tampered_text, _ = workloads.tamper(text, random.Random(seed))
        tampered = json.loads(tampered_text)
        assert tampered_text == json.dumps(tampered, sort_keys=True, separators=(",", ":")) + "\n"
        assert {k: v for k, v in tampered.items() if k != "outputs"} == {
            k: v for k, v in original.items() if k != "outputs"
        }
        before, after = coefficients(original), coefficients(tampered)
        changed = {k for k in before.keys() | after.keys() if before.get(k) != after.get(k)}
        # one coefficient, stored once or under both orders of a symmetric pair
        assert len({(label, mono) for label, _, mono in changed}) == 1
        assert 1 <= len(changed) <= 2


@pytest.mark.parametrize("workload", ["verify-reports", "statistical-n4"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert code == 0
        results.append(json.loads(lines[-1]))
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
    counts = [n for n in names if n.endswith(COUNTS)]
    assert counts
    assert {n: results[0]["metrics"][n] for n in counts} == {
        n: results[1]["metrics"][n] for n in counts
    }


def test_untraced_run_reports_end_to_end_metrics():
    code, lines = bench("--workload", "verify-reports", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_fails_without_program_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "ricci-n3", "--seed", "1", "--seconds", "1", cwd=bare)
        assert code != 0
        assert not lines or not lines[-1].startswith("{")
    finally:
        shutil.rmtree(bare)
