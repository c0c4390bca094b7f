"""Native register-protocol fast path: bit-identity and gating.

The native kernel now draws RNG values in C — per-message exponential
delays, the k-of-n quorum sample — and runs the quorum fan-out
(``Network.broadcast``) and the live latency histogram natively.  All of
it is contractually bit-identical to the pure-python reference, so these
tests pin the contract four ways:

* **draw-level properties** — the C ``quorum_sample`` and the C
  exponential delay consume the Generator stream exactly as numpy does,
  value-identical and state-identical (hypothesis over seeds/shapes),
* **hardened end-to-end equivalence** — a deployment exercising every
  per-message fallback guard at once (retries + loss + adversary + span
  tracing) produces identical fingerprints on both backends,
* **differential traces** — random seeds, quorum shapes, membership
  timelines, loss and retries deliver the same messages (``repr``
  included, so view stamps count) and end with the same counters on
  both backends; a planted one-message divergence proves the comparison
  bites,
* **gating** — the fast paths install only on the native backend, fall
  back per call when a hook flips on mid-run, and the pure-python
  backend never sees them; under churn the cores hand back exactly the
  membership traffic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.strategies import RandomHostileAdversary
from repro.membership import MembershipSchedule
from repro.obs.core import Observability
from repro.obs.spans import SpanRecorder
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import QuorumRegisterClient
from repro.registers.deployment import RegisterDeployment
from repro.registers.messages import ReadQuery, ReadReply
from repro.registers.server import ReplicaServer
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, ExponentialDelay

needs_native = pytest.mark.skipif(
    not kernel.native_available(),
    reason=f"native kernel not built: {kernel.native_import_error()}",
)


def _fast_rng_available():
    if not kernel.native_available():
        return False
    from repro._native import load_kernel

    return bool(getattr(load_kernel(), "HAVE_FAST_RNG", 0))


needs_fast_rng = pytest.mark.skipif(
    not _fast_rng_available(),
    reason="native kernel built without numpy's C random library",
)


# --------------------------------------------------------------------- #
# Draw-level bit-identity: quorum_sample vs Generator.choice
# --------------------------------------------------------------------- #


@needs_fast_rng
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=1200),
    data=st.data(),
)
def test_quorum_sample_matches_choice_bit_for_bit(seed, n, data):
    """C quorum_sample == rng.choice(n, size=k, replace=False), and the
    two Generators end in the same state (same stream consumption)."""
    from repro._native import load_kernel

    k = data.draw(st.integers(min_value=1, max_value=n))
    rng_py = np.random.default_rng(seed)
    rng_c = np.random.default_rng(seed)
    expected = frozenset(rng_py.choice(n, size=k, replace=False).tolist())
    got = load_kernel().quorum_sample(rng_c, n, k)
    assert got == expected
    assert rng_c.bit_generator.state == rng_py.bit_generator.state


@needs_fast_rng
def test_quorum_sample_validates_arguments():
    from repro._native import load_kernel

    sample = load_kernel().quorum_sample
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample(rng, 5, 6)  # k > n
    with pytest.raises(ValueError):
        sample(rng, 5, 0)  # k < 1
    with pytest.raises(ValueError):
        sample(rng, 0, 1)  # empty universe


@needs_fast_rng
def test_quorum_system_uses_native_sampler_transparently():
    """With the sampler installed, quorum() output and stream consumption
    are unchanged — installation is pure speed, never semantics."""
    system = ProbabilisticQuorumSystem(34, 6)
    saved = ProbabilisticQuorumSystem._native_sampler
    try:
        ProbabilisticQuorumSystem._native_sampler = None
        rng_py = np.random.default_rng(7)
        plain = [system.quorum(rng_py) for _ in range(50)]
        with kernel.use_backend("native"):
            sampler = kernel.native_quorum_sampler()
        assert sampler is not None
        ProbabilisticQuorumSystem._native_sampler = staticmethod(sampler)
        rng_c = np.random.default_rng(7)
        native = [system.quorum(rng_c) for _ in range(50)]
        assert native == plain
        assert rng_c.bit_generator.state == rng_py.bit_generator.state
    finally:
        ProbabilisticQuorumSystem._native_sampler = saved


# --------------------------------------------------------------------- #
# Hardened end-to-end equivalence: every fallback guard at once
# --------------------------------------------------------------------- #


def _hardened_fingerprint(backend, seed):
    """Run a deployment that trips every per-message fallback guard —
    loss (broadcast serialization), an adversary, span tracing, retries
    with jitter — and return everything countable about the run."""
    with kernel.use_backend(backend):
        obs = Observability(spans=SpanRecorder())
        adversary = RandomHostileAdversary(drop_budget=10, drop_rate=0.2)
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(12, 4),
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=seed,
            retry_interval=4.0,
            loss_rate=0.05,
            observability=obs,
            adversary=adversary,
        )
        deployment.declare_register("x", writer=0)
        deployment.declare_register("y", writer=1)
        a = deployment.handle(0, "x")
        b = deployment.handle(1, "y")
        for i in range(25):
            a.write(i)
            b.write(-i)
            if i % 3 == 0:
                a.read()
                b.read()
        deployment.run()
        stats = deployment.network.stats
        return (
            round(deployment.scheduler.now, 12),
            deployment.scheduler.events_processed,
            stats.sent,
            stats.delivered,
            stats.dropped,
            deployment.total_retries,
            deployment.total_timeouts,
            [c.ops_completed for c in deployment.clients],
            [s.reads_served for s in deployment.servers],
            [s.writes_applied for s in deployment.servers],
            [s.stale_updates_ignored for s in deployment.servers],
            adversary.summary(),
            obs.spans.finished,
        )


@needs_native
@pytest.mark.parametrize("seed", [3, 17])
def test_hardened_run_is_identical_across_backends(seed):
    assert _hardened_fingerprint("python", seed) == _hardened_fingerprint(
        "native", seed
    )


# --------------------------------------------------------------------- #
# Property: randomized seeds, event-for-event backend equivalence
# --------------------------------------------------------------------- #


def _membership_schedule(timeline, n):
    """A MembershipSchedule from a drawn events or churn timeline."""
    if timeline[0] == "churn":
        _, period, batch, _ = timeline
        return MembershipSchedule.churn(n, period, min(batch, n), horizon=20.0)
    schedule = MembershipSchedule()
    fresh = n
    for time, action, index in timeline[1]:
        if action == "join":
            schedule.join(time, [fresh])
            fresh += 1
        else:
            schedule.leave(time, [index % n])
    return schedule


def _delivery_trace(
    backend, seed, n, k, mean, timeline=None, loss_rate=0.0, retry=None
):
    """Full delivery trace and per-node counters of a seeded two-client
    workload whose operations overlap the membership timeline."""
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(n, k),
            num_clients=2,
            delay_model=ExponentialDelay(mean),
            seed=seed,
            loss_rate=loss_rate,
            retry_interval=retry,
            # Detailed stats would send every message through the Python
            # handlers; scalar stats keep the native cores in play.
            detailed_stats=False,
            record_history=False,
        )
        deployment.declare_register("x", writer=0)
        deployment.declare_register("y", writer=1)
        if timeline is not None:
            deployment.install_membership(
                _membership_schedule(timeline, n), drain=timeline[-1]
            )
        trace = []
        network = deployment.network
        original_deliver = network._deliver

        def recording_deliver(src, dst, message, kind):
            trace.append(
                (round(deployment.scheduler.now, 9), kind, src, dst,
                 repr(message))
            )
            original_deliver(src, dst, message, kind)

        network._deliver = recording_deliver
        a = deployment.handle(0, "x")
        b = deployment.handle(1, "y")
        for i in range(40):
            deployment.scheduler.schedule(0.5 * i, a.write, i)
            deployment.scheduler.schedule(0.5 * i, b.read)
        deployment.run()
        counters = (
            [
                (s.reads_served, s.stale_nacks_sent, s.retired_messages_ignored)
                for s in deployment.servers
            ],
            [(c.view_refreshes, c.stale_nacks) for c in deployment.clients],
        )
        return trace, counters


_half_units = st.integers(min_value=2, max_value=40).map(lambda t: t / 2)

#: None (static), explicit join/leave events, or a churn period and batch;
#: the last entry of either timeline is the leavers' drain window.
_timelines = st.one_of(
    st.none(),
    st.tuples(
        st.just("events"),
        st.lists(
            st.tuples(
                _half_units,
                st.sampled_from(["join", "leave"]),
                st.integers(min_value=0, max_value=39),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1.0, 4.0]),
    ),
    st.tuples(
        st.just("churn"),
        st.sampled_from([2.0, 5.0, 8.0]),
        st.integers(min_value=1, max_value=2),
        st.sampled_from([1.0, 4.0]),
    ),
)


@needs_native
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_backends_deliver_identical_traces_for_random_seeds(seed, n, data):
    """For arbitrary seeds, quorum shapes, membership timelines, loss and
    retry settings, the native backend delivers the exact message
    sequence of the python backend — same times, kinds, view stamps and
    payloads — and ends with the same per-node counters."""
    k = data.draw(st.integers(min_value=1, max_value=n))
    mean = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    timeline = data.draw(_timelines)
    loss_rate = data.draw(st.sampled_from([0.0, 0.05, 0.2]))
    retry = data.draw(st.sampled_from([None, 2.0, 5.0]))
    args = (seed, n, k, mean, timeline, loss_rate, retry)
    trace_py, counters_py = _delivery_trace("python", *args)
    trace_native, counters_native = _delivery_trace("native", *args)
    assert trace_py == trace_native
    assert counters_py == counters_native
    assert trace_py  # the workload actually produced traffic


@needs_native
def test_trace_comparison_catches_one_planted_divergence(monkeypatch):
    """A python-backend server that answers a single read with a wrong
    value — invisible in delivery kinds, times and counters — makes the
    comparison above fail."""
    original = ReplicaServer.on_message
    planted = []

    def diverging_on_message(self, src, message):
        if planted or not isinstance(message, ReadQuery):
            return original(self, src, message)
        planted.append(message)
        timestamp, value = self._replica(message.register)
        self.reads_served += 1
        self.network.send(
            self.node_id, src,
            ReadReply(message.register, message.op_id, "planted", timestamp),
        )

    args = (11, 6, 3, 1.0)
    monkeypatch.setattr(ReplicaServer, "on_message", diverging_on_message)
    trace_py, counters_py = _delivery_trace("python", *args)
    monkeypatch.undo()
    trace_native, counters_native = _delivery_trace("native", *args)
    assert len(planted) == 1
    assert counters_py == counters_native
    assert [entry[:4] for entry in trace_py] == [
        entry[:4] for entry in trace_native
    ]
    diverged = [
        (mine, theirs)
        for mine, theirs in zip(trace_py, trace_native)
        if mine != theirs
    ]
    assert len(diverged) == 1
    assert "v='planted'" in diverged[0][0][4]


# --------------------------------------------------------------------- #
# Native coverage under churn: only membership events reach Python
# --------------------------------------------------------------------- #


@needs_native
def test_native_cores_hand_back_only_membership_traffic(monkeypatch):
    """Under churn the cores answer view-stamped requests and replies
    themselves.  The Python server handler sees exactly the nacked
    requests, those a retired server ignores and the state transfer; the
    Python client handler sees exactly the nacks and the replies stamped
    with a view newer than the client's."""
    calls = {"server": 0, "client": 0}

    def counted(cls, key):
        original = cls.on_message

        def on_message(self, src, message):
            calls[key] += 1
            return original(self, src, message)

        monkeypatch.setattr(cls, "on_message", on_message)

    # Before the deployment exists: the cores capture the class handler.
    counted(ReplicaServer, "server")
    counted(QuorumRegisterClient, "client")
    with kernel.use_backend("native"):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 3),
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=5,
            retry_interval=4.0,
            detailed_stats=False,
            record_history=False,
        )
        deployment.declare_register("x", writer=0)
        deployment.declare_register("y", writer=1)
        deployment.install_membership(
            MembershipSchedule.churn(6, 4.0, 2, horizon=60.0), drain=6.0
        )
        network = deployment.network
        original_deliver = network._deliver
        seen = {"state": 0, "newer_replies": 0}
        clients = {c.node_id: c for c in deployment.clients}

        def recording_deliver(src, dst, message, kind):
            if kind in ("state_request", "state_reply"):
                seen["state"] += 1
            elif kind in ("read_reply", "write_ack") and (
                message.view > clients[dst]._view.view_id
            ):
                seen["newer_replies"] += 1
            original_deliver(src, dst, message, kind)

        network._deliver = recording_deliver
        a = deployment.handle(0, "x")
        b = deployment.handle(1, "y")
        for i in range(120):
            deployment.scheduler.schedule(0.5 * i, a.write, i)
            deployment.scheduler.schedule(0.5 * i, b.read)
        deployment.run()

    nacks = sum(s.stale_nacks_sent for s in deployment.servers)
    retired = sum(s.retired_messages_ignored for s in deployment.servers)
    assert nacks > 0 and retired > 0
    assert seen["newer_replies"] > 0 and seen["state"] > 0
    assert nacks == deployment.total_stale_nacks
    assert calls["server"] == nacks + retired + seen["state"]
    assert calls["client"] == nacks + seen["newer_replies"]
    assert deployment.pending_ops == 0


# --------------------------------------------------------------------- #
# Native latency histogram
# --------------------------------------------------------------------- #


def _latency_snapshot(backend):
    with kernel.use_backend(backend):
        obs = Observability()
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(10, 3),
            num_clients=2,
            delay_model=ExponentialDelay(1.0),
            seed=5,
            detailed_stats=False,
            observability=obs,
        )
        deployment.declare_register("x", writer=0)
        handle = deployment.handle(0, "x")
        reader = deployment.handle(1, "x")
        for i in range(20):
            handle.write(i)
            reader.read()
        deployment.run()
        read = obs.metrics.sample("repro_op_latency", ["read"])
        write = obs.metrics.sample("repro_op_latency", ["write"])
        return (
            read.count,
            write.count,
            read.quantile(0.5),
            read.quantile(0.95),
            write.quantile(0.5),
        )


@needs_native
def test_native_latency_histogram_matches_python():
    """The C completion path feeds the live latency histogram itself —
    identical counts and quantiles, no per-message fallback needed."""
    assert _latency_snapshot("python") == _latency_snapshot("native")
    counts = _latency_snapshot("native")
    assert counts[0] == 20 and counts[1] == 20


# --------------------------------------------------------------------- #
# Gating: the fast paths install only where they belong
# --------------------------------------------------------------------- #


def _build_network(backend):
    with kernel.use_backend(backend):
        deployment = RegisterDeployment(
            ProbabilisticQuorumSystem(6, 2),
            num_clients=1,
            delay_model=ConstantDelay(1.0),
            seed=1,
        )
    return deployment


def test_python_backend_gets_no_cores():
    deployment = _build_network("python")
    network = deployment.network
    assert "broadcast" not in vars(network)
    assert "send" not in vars(network)
    with kernel.use_backend("python"):
        assert kernel.make_broadcast_core(network) is None
        assert kernel.native_quorum_sampler() is None


@needs_native
def test_native_backend_installs_broadcast_core():
    deployment = _build_network("native")
    network = deployment.network
    from repro._native import load_kernel

    module = load_kernel()
    assert isinstance(vars(network)["broadcast"], module.BroadcastCore)
    assert isinstance(vars(network)["send"], module.SendCore)


@needs_native
def test_broadcast_core_falls_back_when_hooks_flip_on():
    """Mid-run mutations (a tap, loss, an adversary) are honoured per
    call: the C broadcast defers to the Python method, which sees them."""
    deployment = _build_network("native")
    network = deployment.network
    seen = []
    network.add_tap(lambda src, dst, message: seen.append((src, dst)))
    dsts = deployment.server_ids[:4]
    network.broadcast(deployment.clients[0].node_id, dsts, "probe")
    assert len(seen) == len(dsts)  # the tap ran: Python path took over
    sent_before = network.stats.sent
    network.broadcast(deployment.clients[0].node_id, [], "probe")
    assert network.stats.sent == sent_before  # empty fan-out is a no-op


@needs_native
def test_broadcast_core_rejects_unknown_destination():
    deployment = _build_network("native")
    network = deployment.network
    with pytest.raises(KeyError, match="unknown destination node"):
        network.broadcast(
            deployment.clients[0].node_id, [10**9], "probe"
        )
