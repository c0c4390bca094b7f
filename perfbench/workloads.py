"""The benchmark's workloads: inputs from a seed, measured passes, checks.

Three workloads run the repository's public entry points:

* ``serve-static`` and ``serve-churn`` call
  :func:`repro.service.runner.run_service` on the native kernel;
* ``alg1-sweep`` calls :func:`repro.exec.engine.run_many` over ``alg1``
  :class:`~repro.exec.task.RunTask` cells of the paper's Figure 2
  workload on the pure-python kernel, over a warm two-worker pool.

The repository is imported inside :func:`setup`, never at module level,
because import time is part of the measured set-up.

A *pass* is one complete run of a workload's input.  The simulator is
deterministic, so every pass of one seed must produce the same simulated
outputs; each pass is summarised by a sha256 digest of them (the service
metrics snapshot, or the canonical JSON of the alg1 payloads), and any
two digests that differ fail the run.
"""

import cProfile
import gc
import hashlib
import json
import multiprocessing
import os
import pstats
import random
import resource
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from layers import LayerProfile

#: Pool workers for the sweep: two, never more than the host has.
JOBS = min(2, os.cpu_count() or 1)

#: Every measured run makes at least this many timed passes.
MIN_PASSES = 2

#: Simulated duration of one serve pass.  At the Poisson rate of 8 ops/t
#: this offers about 12,000 operations, so the exact p999 of the
#: completed ones has at least ten samples beyond it.
SERVE_DURATION = 1500.0
SERVE_RATE = 8.0

#: The sweep's Figure 2 cells: (variant, monotone, delay kind, k).  Each
#: of the four variants runs two quorum sizes, and each k in {3, 4, 6, 9}
#: runs once at constant and once at exponential delay.  Paper scale (34
#: vertices, 34 servers) puts k = 1 and 2 at 2-5x the cost of the other
#: cells, and such uneven tasks make a two-worker pool's wall time depend
#: on the task order more than on the code; these cost within about 1.5x
#: of each other.  Eight tasks make a pass short enough to time several.
SWEEP_CELLS: Tuple[Tuple[str, bool, str, int], ...] = (
    ("monotone/sync", True, "constant", 3),
    ("monotone/sync", True, "constant", 6),
    ("monotone/async", True, "exponential", 4),
    ("monotone/async", True, "exponential", 9),
    ("non-monotone/sync", False, "constant", 4),
    ("non-monotone/sync", False, "constant", 9),
    ("non-monotone/async", False, "exponential", 3),
    ("non-monotone/async", False, "exponential", 6),
)
SWEEP_VERTICES = 34
SWEEP_SERVERS = 34
SWEEP_MAX_ROUNDS = 250

#: Set-up samples: each is a fresh interpreter running :func:`setup`.
SETUP_SAMPLES = 9


class BenchError(RuntimeError):
    """The benchmark cannot measure what it claims to (e.g. no native kernel)."""


@dataclass(frozen=True)
class Workload:
    kind: str  # "serve" or "sweep"
    backend: str


WORKLOADS: Dict[str, Workload] = {
    "serve-static": Workload("serve", "native"),
    "serve-churn": Workload("serve", "native"),
    "alg1-sweep": Workload("sweep", "python"),
}


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def serve_config(workload: str, seed: int) -> Any:
    """The ServiceConfig of a serve workload: defaults plus the load."""
    from repro.service.runner import ServiceConfig

    extra: Dict[str, Any] = {}
    if workload == "serve-churn":
        # 0.04 replacements per time unit: a quarter of the SLO knee.
        extra = {
            "membership": {"kind": "churn", "period": 25.0, "batch": 1},
            "read_fraction": 0.5,
        }
    return ServiceConfig(
        seed=seed,
        arrivals={"kind": "poisson", "rate": SERVE_RATE},
        duration=SERVE_DURATION,
        **extra,
    )


def cell_seed(seed: int, label: str, k: int) -> int:
    """A 63-bit task seed for one sweep cell, derived from the run seed."""
    digest = hashlib.sha256(f"{seed}/{label}/{k}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sweep_tasks(seed: int, **extra_params: Any) -> List[Any]:
    """The sweep's alg1 tasks in canonical (cell) order."""
    from repro.exec.task import RunTask

    return [
        RunTask(
            kind="alg1",
            params={
                "graph": {"kind": "chain", "n": SWEEP_VERTICES},
                "quorum": {
                    "kind": "probabilistic", "n": SWEEP_SERVERS, "k": k,
                },
                "delay": {"kind": delay, "mean": 1.0},
                "monotone": monotone,
                "max_rounds": SWEEP_MAX_ROUNDS,
                **extra_params,
            },
            seed=cell_seed(seed, label, k),
        )
        for label, monotone, delay, k in SWEEP_CELLS
    ]


def shuffled(tasks: Sequence[Any], seed: int, attempt: int) -> List[Any]:
    """The tasks in a seed-drawn order; each pass draws its own."""
    order = list(tasks)
    random.Random(f"{seed}/{attempt}").shuffle(order)
    return order


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #


def setup(workload: str) -> Dict[str, Any]:
    """Import the program, select and check the backend, start the pool.

    The backend and job count are set here and in every call below, so
    ``REPRO_KERNEL`` and ``REPRO_JOBS`` cannot change a workload.
    """
    spec = WORKLOADS[workload]
    from repro.sim import kernel

    kernel.select_backend(spec.backend)
    info: Dict[str, Any] = {"backend": spec.backend, "have_fast_rng": None}
    if spec.backend == "native":
        if not kernel.native_available():
            raise BenchError(
                f"native kernel unavailable: {kernel.native_import_error()}"
            )
        from repro._native import load_kernel

        info["have_fast_rng"] = bool(load_kernel().HAVE_FAST_RNG)
    check_backend(spec.backend)
    if spec.kind == "serve":
        import repro.service.runner  # noqa: F401
    else:
        import repro.exec.workers  # noqa: F401
        from repro.exec.engine import run_many
        from repro.exec.task import RunTask

        started = time.perf_counter()
        run_many(
            [RunTask("exec_probe", {}, index) for index in range(JOBS)],
            jobs=JOBS,
        )
        info["pool_start_s"] = time.perf_counter() - started
    return info


def check_backend(backend: str) -> None:
    """Fail when the kernel resolves to another backend than requested."""
    from repro.sim import kernel

    selected = kernel.selected_backend()
    if selected != backend:
        raise BenchError(
            f"kernel backend is {selected!r}, the workload needs {backend!r}"
        )


def teardown() -> None:
    """Stop every process the run started and wait for each to end.

    That is the warm pool's workers, then the multiprocessing resource
    tracker, which the first shared-memory arena starts and which would
    otherwise outlive this process until it noticed the exit.  The
    tracker is stopped after the workers, which hold its pipe open too.
    """
    from multiprocessing import resource_tracker

    from repro.exec import pool

    pool.shutdown_pool(wait=True)
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


# --------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """One run of a workload's whole input, summarised."""

    wall: float
    digest: str
    ops: int  # register operations completed
    attempted: int  # register operations offered (serve) or invoked (alg1)
    failed: int  # of those, failed (see ``failed_ratio`` in README.md)
    counts: Dict[str, float]  # per-layer counts from public results
    violations: List[str] = field(default_factory=list)


def metric_total(snapshot: Dict[str, Any], name: str,
                 labels: Optional[List[str]] = None) -> float:
    """Sum of a counter/gauge family's series in a metrics snapshot."""
    for instrument in snapshot["instruments"]:
        if instrument["name"] == name:
            return sum(
                value for series_labels, value in instrument["series"]
                if labels is None or series_labels == labels
            )
    return 0


def serve_pass(config: Any, profile: Optional[cProfile.Profile] = None
               ) -> Pass:
    from repro.service.runner import run_service

    result, wall = _timed(lambda: run_service(config), profile)
    check_backend("native")
    counters = result.counters
    timed_out = sum(counters["timed_out"].values())
    unreachable = sum(counters["unreachable"].values())
    pending = counters["in_flight"]
    membership = result.membership or {}
    snapshot = result.snapshot
    return Pass(
        wall=wall,
        digest=hashlib.sha256(result.snapshot_bytes).hexdigest(),
        ops=result.completed,
        attempted=result.offered,
        failed=result.shed + timed_out + unreachable + pending,
        counts={
            "events": result.events,
            "messages_sent": metric_total(snapshot, "repro_messages_sent_total"),
            "deliveries": metric_total(
                snapshot, "repro_messages_delivered_total"
            ),
            "retries": result.retries,
            "membership.views_installed": membership.get("views_installed", 0),
            "membership.stale_nacks": membership.get("stale_nacks", 0),
            "membership.view_refreshes": membership.get("view_refreshes", 0),
            "membership.transfers_incomplete": membership.get(
                "state_transfers_incomplete", 0
            ),
            "service.offered": result.offered,
            "service.shed": result.shed,
            "service.peak_in_flight": counters["peak_in_flight"],
        },
        violations=check_serve(result),
    )


def check_serve(result: Any) -> List[str]:
    """Counter identities of one ServiceResult."""
    counters = result.counters
    pending = counters["in_flight"]
    accounted = (
        result.completed + result.shed
        + sum(counters["timed_out"].values())
        + sum(counters["unreachable"].values())
        + pending
    )
    violations = []
    if result.offered != accounted:
        violations.append(
            f"offered {result.offered} != completed + shed + timed out + "
            f"unreachable + pending = {accounted}"
        )
    if pending:
        violations.append(f"{pending} operations pending at quiescence")
    return violations


def sweep_pass(tasks: Sequence[Any], jobs: int,
               profile: Optional[cProfile.Profile] = None) -> Pass:
    from repro.exec.engine import run_many

    payloads, wall = _timed(
        lambda: run_many(tasks, jobs=jobs, cache=None), profile
    )
    check_backend("python")
    return sweep_summary(tasks, payloads, wall)


def sweep_summary(tasks: Sequence[Any], payloads: Sequence[Any],
                  wall: float) -> Pass:
    # Hash in canonical task order, so every shuffle gives one digest.
    # alg1 payloads hold no host-time field: all of a payload is simulated.
    canonical = sorted(
        ([task.canonical(), payload] for task, payload in zip(tasks, payloads)),
        key=lambda pair: pair[0],
    )
    digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    ).hexdigest()
    snapshots = [payload["metrics"] for payload in payloads]

    def total(name: str, labels: Optional[List[str]] = None) -> float:
        return sum(metric_total(s, name, labels) for s in snapshots)

    failed = sum(
        payload["timeouts"] + payload.get("unreachable", 0)
        for payload in payloads
    )
    return Pass(
        wall=wall,
        digest=digest,
        ops=int(total("repro_ops_completed_total")),
        attempted=int(total("repro_ops_invoked_total")),
        failed=failed,
        counts={
            "events": total("repro_scheduler_events_total"),
            "messages_sent": sum(p["messages"] for p in payloads),
            "deliveries": total("repro_messages_delivered_total"),
            "retries": sum(p["retries"] for p in payloads),
            "reads": total("repro_ops_invoked_total", ["read"]),
            "iterative.iterations": sum(
                p["total_iterations"] for p in payloads
            ),
            "iterative.rounds": sum(p["rounds"] for p in payloads),
            "cache_hits": sum(p["cache_hits"] for p in payloads),
            "exec.tasks": len(payloads),
        },
        violations=check_sweep(tasks, payloads),
    )


def check_sweep(tasks: Sequence[Any], payloads: Sequence[Any]) -> List[str]:
    """No spec violation anywhere; every monotone cell converges.

    A payload's ``hung_ops`` counts reads still in flight when the run
    stopped at its fixed point; those are not failures.
    """
    violations = []
    for task, payload in zip(tasks, payloads):
        cell = f"{'monotone' if task.params['monotone'] else 'non-monotone'} " \
               f"{task.params['delay']['kind']} k={task.params['quorum']['k']}"
        if payload.get("spec_violation") is not None:
            violations.append(
                f"{cell}: spec violation {payload['spec_violation']}"
            )
        elif task.params["monotone"] and not payload["converged"]:
            violations.append(f"{cell}: monotone cell did not converge")
    return violations


def check_same_outputs(digests: Sequence[str]) -> List[str]:
    """Every pass of one seed must produce the same simulated outputs."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"same-seed passes differ: {len(distinct)} distinct digests"]
    return []


def _timed(call: Callable[[], Any],
           profile: Optional[cProfile.Profile] = None) -> Tuple[Any, float]:
    gc.collect()
    started = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        value = call()
    finally:
        if profile is not None:
            profile.disable()
    return value, time.perf_counter() - started


# --------------------------------------------------------------------- #
# Per-operation simulated latency
# --------------------------------------------------------------------- #


@contextmanager
def recording_ops(owner: type, methods: Sequence[str],
                  scheduler_of: Callable[[Any], Any]) -> Iterator[array]:
    """Record the simulated latency of every op that completes.

    Wraps ``owner.<method>`` for each method returning a future (or None
    when the op was refused) and appends ``completion - invocation`` in
    simulated time for each future that settles successfully.  The extra
    callback only reads the clock, so the simulation is unchanged; the
    digest check against unrecorded passes confirms it.
    """
    latencies = array("d")
    originals = {name: owner.__dict__[name] for name in methods}

    def wrap(original: Callable[..., Any]) -> Callable[..., Any]:
        def recorded(self: Any, *args: Any) -> Any:
            future = original(self, *args)
            if future is not None:
                scheduler = scheduler_of(self)
                started = scheduler.now

                def settled(done: Any) -> None:
                    if not done.failed:
                        latencies.append(scheduler.now - started)

                future.add_callback(settled)
            return future

        return recorded

    try:
        for name, original in originals.items():
            setattr(owner, name, wrap(original))
        yield latencies
    finally:
        for name, original in originals.items():
            setattr(owner, name, original)


def reference_pass(workload: str, seed: int) -> Tuple[Pass, array]:
    """An unmeasured pass that records every op's simulated latency.

    Returns the pass and the latencies the end-to-end quantiles use.
    Serve ops are recorded around ``KeyValueFrontend.get``/``put``.  alg1
    ops are recorded around the register client's ``read``/``write``,
    task by task in-process, because the recording cannot reach into
    pool workers.  Only the cells with exponential delays feed the
    sweep's quantiles: at constant delay every op takes exactly two
    delays, which says nothing about the tail.
    """
    if WORKLOADS[workload].kind == "serve":
        from repro.service.frontend import KeyValueFrontend

        with recording_ops(KeyValueFrontend, ("get", "put"),
                           lambda frontend: frontend.deployment.scheduler
                           ) as latencies:
            done = serve_pass(serve_config(workload, seed))
        sampled = latencies
    else:
        from repro.exec.engine import run_many
        from repro.registers.client import QuorumRegisterClient

        tasks = sweep_tasks(seed)
        payloads: List[Any] = []
        sampled = array("d")
        with recording_ops(QuorumRegisterClient, ("read", "write"),
                           lambda client: client.network.scheduler
                           ) as latencies:
            for task in tasks:
                first = len(latencies)
                payloads += run_many([task], jobs=1, cache=None)
                if task.params["delay"]["kind"] == "exponential":
                    sampled.extend(latencies[first:])
        check_backend("python")
        done = sweep_summary(tasks, payloads, wall=0.0)
    done.violations += check_records(len(latencies), done.ops)
    return done, sampled


def check_records(records: int, completed: int) -> List[str]:
    """One per-op record for every op the program reports completed."""
    if records != completed:
        return [f"{records} per-op records but {completed} ops completed"]
    return []


def exact_quantile(values: array, q: float) -> float:
    """The inverted-CDF sample quantile (no interpolation)."""
    import numpy

    return float(numpy.quantile(
        numpy.frombuffer(values, dtype=numpy.float64), q,
        method="inverted_cdf",
    ))


# --------------------------------------------------------------------- #
# Measured run (end-to-end metrics) and traced run (per-layer metrics)
# --------------------------------------------------------------------- #


def measured_pass(workload: str, seed: int, attempt: int,
                  profile: Optional[cProfile.Profile] = None,
                  jobs: int = JOBS) -> Pass:
    if WORKLOADS[workload].kind == "serve":
        return serve_pass(serve_config(workload, seed), profile)
    return sweep_pass(
        shuffled(sweep_tasks(seed), seed, attempt), jobs, profile
    )


def peak_rss_mib() -> float:
    """Peak resident memory of this process and its live pool workers."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
        except OSError:
            pass  # the worker exited between listing and reading
    return peak_kib / 1024.0


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int  # passes run, each one call of the program's entry point
    failed: int  # passes that failed a correctness check
    violations: List[str]
    info: Dict[str, Any]


def failed_passes(passes: Sequence[Pass], digest: str) -> int:
    return sum(1 for p in passes if p.violations or p.digest != digest)


def failed_ratio(done: Pass) -> float:
    """Simulated operations that failed, per operation attempted."""
    return done.failed / done.attempted if done.attempted else 0.0


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    """A warm-up pass, timed passes for ``seconds``, a recorded pass.

    The warm-up pass is not timed: the first pass after set-up runs up
    to 40% slower (pool workers most of all), and a steady-state figure
    should not depend on how many passes fit behind it.
    """
    warmup = measured_pass(workload, seed, 0)
    passes: List[Pass] = []
    started = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - started < seconds):
        passes.append(measured_pass(workload, seed, len(passes) + 1))
    rss = peak_rss_mib()
    reference, latencies = reference_pass(workload, seed)
    every = [warmup] + passes + [reference]
    violations = [v for p in every for v in p.violations]
    violations += check_same_outputs([p.digest for p in every])
    metrics = {
        "ops_per_s": statistics.median(p.ops / p.wall for p in passes),
        "peak_rss_mib": rss,
    }
    if latencies:
        metrics["sim_latency_p50"] = exact_quantile(latencies, 0.5)
        metrics["sim_latency_p999"] = exact_quantile(latencies, 0.999)
    return Outcome(
        metrics=metrics,
        attempted=len(every),
        failed=failed_passes(every, reference.digest),
        violations=violations,
        info={
            "digest": reference.digest,
            "passes": len(passes),
            "warmup_wall_s": warmup.wall,
            "pass_walls_s": [p.wall for p in passes],
            "ops_per_pass": reference.ops,
            "failed_ratio": failed_ratio(reference),
            "sim_latency_samples": len(latencies),
        },
    )


def traced(workload: str, seed: int, pool_start_s: float) -> Outcome:
    """Per-layer metrics from one profiled pass beside untraced ones.

    After a warm-up pass, serve makes three untraced passes and one under
    cProfile.  The sweep makes one pooled pass, two in-process passes
    (``jobs=1``; the second is the untraced baseline) and one profiled
    in-process pass, since the profiler cannot see into pool workers.
    """
    sweep = WORKLOADS[workload].kind == "sweep"
    warmup = measured_pass(workload, seed, 0)
    if sweep:
        pooled = measured_pass(workload, seed, 1)
        in_process = [
            measured_pass(workload, seed, 1, jobs=1) for _ in range(2)
        ]
        baseline = in_process[1:]  # the first warms this process up
        untraced = [warmup, pooled] + in_process
    else:
        baseline = [
            measured_pass(workload, seed, attempt) for attempt in (1, 2, 3)
        ]
        untraced = [warmup] + baseline
    profile = cProfile.Profile()
    traced_pass = measured_pass(workload, seed, 1, profile=profile,
                                jobs=1)
    layers = LayerProfile(pstats.Stats(profile))
    every = untraced + [traced_pass]
    violations = [v for p in every for v in p.violations]
    violations += check_same_outputs([p.digest for p in every])

    untraced_wall = statistics.median(p.wall for p in baseline)
    counts = traced_pass.counts
    ops = traced_pass.ops or 1
    registers_modules = (
        "repro.registers.server", "repro.registers.client",
        "repro.registers.atomic",
    )
    handler_calls = layers.calls_to(registers_modules, "on_message")
    metrics: Dict[str, float] = dict(layers.metrics())
    metrics.update({
        "obs.observe_calls": layers.calls_to(
            ("repro.obs.quantiles", "repro.obs.registry"), "observe"
        ),
        "native.fallback_ratio": (
            handler_calls / counts["deliveries"] if counts["deliveries"]
            else 0.0
        ),
        "registers.py_handler_calls": handler_calls,
        "registers.msgs_per_op": counts["messages_sent"] / ops,
        "registers.retries_per_op": counts["retries"] / ops,
        "sim.futures.callbacks": layers.calls_from(
            "repro.sim.futures", "_run_callbacks"
        ),
        "sim.scheduler.events": counts["events"],
        "sim.scheduler.ns_per_event": (
            untraced_wall * 1e9 / counts["events"] if counts["events"]
            else 0.0
        ),
        "sim.network.messages_sent": counts["messages_sent"],
        "quorum.quorums_sampled": layers.calls_to(
            ("repro.quorum.probabilistic",), "quorum"
        ),
        "failed_ratio": failed_ratio(traced_pass),
        "trace.overhead": traced_pass.wall / untraced_wall,
    })
    for name in (
        "membership.views_installed", "membership.stale_nacks",
        "membership.view_refreshes", "membership.transfers_incomplete",
        "service.offered", "service.shed", "service.peak_in_flight",
        "iterative.iterations", "iterative.rounds", "exec.tasks",
    ):
        metrics[name] = counts.get(name, 0)
    reads = counts.get("reads", 0)
    metrics["iterative.cache_hits"] = (
        counts["cache_hits"] / reads if reads else 0.0
    )
    metrics["exec.pool_start_s"] = pool_start_s if sweep else 0.0
    metrics["exec.efficiency"] = (
        baseline[0].wall / (JOBS * pooled.wall) if sweep else 0.0
    )
    return Outcome(
        metrics=metrics,
        attempted=len(every),
        failed=failed_passes(every, untraced[0].digest),
        violations=violations,
        info={
            "digest": traced_pass.digest,
            "traced_wall_s": traced_pass.wall,
            "untraced_wall_s": untraced_wall,
            "profiled_total_self_s": layers.total_s,
            "self_share": {
                layer: share / layers.total_s
                for layer, share in sorted(layers.self_s.items())
            } if layers.total_s else {},
        },
    )
