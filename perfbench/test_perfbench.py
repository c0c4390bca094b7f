"""Self-test of the benchmark: output schema and every correctness check.

Run from the repository root with ``python3 -m pytest -q perfbench``.
The short runs make real passes of each workload (about a minute in
all); the planted faults call the checks on doctored program outputs.
"""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=run.child_env(), capture_output=True, text=True,
        timeout=300,
    )


def test_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    } == run.END_TO_END_UNITS
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    } == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload,trace", [
    ("serve-static", 0),
    ("serve-churn", 0),
    ("alg1-sweep", 0),
    ("serve-churn", 1),
])
def test_short_run_prints_every_metric(workload, trace):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    *_, info_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == units
    assert all(
        isinstance(metric["value"], (int, float))
        for metric in result["metrics"].values()
    )
    info = json.loads(info_line)["info"]
    assert info["provenance"]["backend"] == workloads.WORKLOADS[
        workload
    ].backend
    assert len(info["digest"]) == 64
    if trace:
        assert result["metrics"]["native.fallback_ratio"]["value"] > 0


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark(
        tmp_path, "--workload", "serve-static", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_teardown_stops_every_process_the_run_started():
    from multiprocessing import active_children, resource_tracker

    workloads.setup("alg1-sweep")  # warm pool; its arena starts the tracker
    tracker_pid = resource_tracker._resource_tracker._pid
    assert active_children() and tracker_pid is not None
    workloads.teardown()
    assert active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(tracker_pid, os.WNOHANG)


def test_serve_counter_checks_fire_on_doctored_counters():
    from repro.service.runner import run_service

    result = run_service(dataclasses.replace(
        workloads.serve_config("serve-static", 1), duration=100.0
    ))
    assert workloads.check_serve(result) == []

    result.counters["completed"]["read"] += 1
    assert any("offered" in v for v in workloads.check_serve(result))
    result.counters["completed"]["read"] -= 1
    result.counters["in_flight"] += 1
    assert any("pending" in v for v in workloads.check_serve(result))


def test_sweep_check_fires_on_a_spec_violation():
    from repro.exec.engine import run_many

    clean = workloads.sweep_tasks(1)[:1]
    broken = workloads.sweep_tasks(
        1, broken_client={"kind": "regressing"}, check_spec_online=True,
    )[:1]
    assert workloads.check_sweep(clean, run_many(clean, jobs=1)) == []
    payloads = run_many(broken, jobs=1)
    assert payloads[0]["spec_violation"] is not None
    assert any(
        "spec violation" in v for v in workloads.check_sweep(broken, payloads)
    )


def test_sweep_check_fires_on_a_monotone_cell_that_did_not_converge():
    task = workloads.sweep_tasks(1)[0]
    assert task.params["monotone"]
    payload = {"spec_violation": None, "converged": False}
    assert any(
        "did not converge" in v
        for v in workloads.check_sweep([task], [payload])
    )


def test_same_output_check_fires_on_differing_digests():
    assert workloads.check_same_outputs(["a", "a", "a"]) == []
    assert workloads.check_same_outputs(["a", "b", "a"])


def test_record_count_check_fires_on_a_missing_record():
    assert workloads.check_records(5, 5) == []
    assert workloads.check_records(4, 5)


def test_backend_check_fires_on_the_wrong_backend():
    from repro.sim import kernel

    with kernel.use_backend("python"):
        with pytest.raises(workloads.BenchError):
            workloads.check_backend("native")
