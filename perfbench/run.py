"""The repository benchmark: one workload, one seed, one JSON result.

Usage::

    python3 perfbench/run.py --workload serve-static --seed 1 \\
        --seconds 25 --trace 0

Workloads are ``serve-static``, ``serve-churn`` and ``alg1-sweep`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
for ``--seconds``; ``--trace 1`` reports the per-layer metrics of a
separate profiled pass.  The last line of standard output is the result
object; the line before it carries provenance, the simulated-output
digest and sample counts.

Exit status: 0 when every correctness check holds, 1 when one fails or
the workload cannot be measured as defined (e.g. the native kernel does
not build), 2 when the repository sources are missing.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import sysconfig
import traceback
from typing import Any, Dict, List, Optional

import workloads
from layers import LAYERS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS: Dict[str, str] = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_latency_p50": "sim_t",
    "sim_latency_p999": "sim_t",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "obs.observe_calls": "count",
    "native.fallback_ratio": "ratio",
    "registers.py_handler_calls": "count",
    "registers.msgs_per_op": "msg/op",
    "registers.retries_per_op": "retry/op",
    "membership.views_installed": "count",
    "membership.stale_nacks": "count",
    "membership.view_refreshes": "count",
    "membership.transfers_incomplete": "count",
    "sim.futures.callbacks": "count",
    "sim.scheduler.events": "count",
    "sim.scheduler.ns_per_event": "ns",
    "sim.network.messages_sent": "count",
    "quorum.quorums_sampled": "count",
    "service.offered": "count",
    "service.shed": "count",
    "service.peak_in_flight": "count",
    "iterative.iterations": "count",
    "iterative.rounds": "count",
    "iterative.cache_hits": "ratio",
    "exec.pool_start_s": "s",
    "exec.tasks": "count",
    "exec.efficiency": "ratio",
    "failed_ratio": "ratio",
    "trace.overhead": "ratio",
}


def child_env() -> Dict[str, str]:
    """The environment of child interpreters: this checkout's sources, no
    ``REPRO_KERNEL``/``REPRO_JOBS`` to override the workload, and bytecode
    caches on, so that set-up times imports rather than compilation."""
    env = {
        name: value for name, value in os.environ.items()
        if name not in ("REPRO_KERNEL", "REPRO_JOBS",
                        "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def build_native() -> None:
    """Rebuild the kernel extension from the checked-out C source.

    The old module is removed first, so a failed build cannot leave an
    extension compiled from other sources in place.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = SRC / "repro" / "_native" / f"_kernel{suffix}"
    if target.exists():
        target.unlink()
    done = subprocess.run(
        [sys.executable, "-m", "repro._native.build"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=600,
    )
    if done.returncode != 0 or not target.is_file():
        raise workloads.BenchError(
            f"native kernel build failed: {done.stderr.strip()[-2000:]}"
        )


def setup_samples(workload: str) -> List[Dict[str, Any]]:
    """Set-up measured in fresh interpreters, several times."""
    samples = []
    for _ in range(workloads.SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=170,
        )
        if done.returncode != 0:
            raise workloads.BenchError(
                f"set-up sample failed: {done.stderr.strip()[-2000:]}"
            )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> Optional[str]:
    """HEAD of this checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    """One digest of every Python and C source file under ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(info: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "backend": info["backend"],
        "have_fast_rng": info["have_fast_rng"],
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "cpu_count": os.cpu_count(),
        "jobs": workloads.JOBS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def result_line(units: Dict[str, str], metrics: Dict[str, float],
                attempted: int, failed: int, correct: bool) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=tuple(workloads.WORKLOADS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repository sources at {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(1, str(SRC))
    sys.dont_write_bytecode = False  # see child_env

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        if workloads.WORKLOADS[args.workload].backend == "native":
            build_native()
        try:
            # The first set-up of a fresh checkout also writes the
            # bytecode caches; the measured samples run after it.
            info = workloads.setup(args.workload)
            samples = setup_samples(args.workload)
            if args.trace:
                outcome = workloads.traced(
                    args.workload, args.seed,
                    statistics.median(s.get("pool_start_s", 0.0)
                                      for s in samples),
                )
            else:
                outcome = workloads.measure(
                    args.workload, args.seed, args.seconds
                )
                outcome.metrics["setup_s"] = statistics.median(
                    s["setup_s"] for s in samples
                )
        finally:
            workloads.teardown()
    except workloads.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # the program under test failed
        traceback.print_exc()
        print(result_line(units, {}, 1, 1, False))
        print(f"perfbench: {args.workload} raised {error!r}", file=sys.stderr)
        return 1

    violations = list(outcome.violations)
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        violations.append(f"metrics not measured: {missing}")
    print(json.dumps({"info": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(info),
        "setup_samples_s": [s["setup_s"] for s in samples],
        "violations": violations,
        **outcome.info,
    }}))
    print(result_line(units, outcome.metrics, outcome.attempted,
                      outcome.failed, not violations))
    for violation in violations:
        print(f"perfbench: correctness check failed: {violation}",
              file=sys.stderr)
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
