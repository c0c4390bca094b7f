"""Tests for futures and gather."""

import pytest

from repro.sim.futures import Future, FutureError, gather


def test_future_starts_pending():
    fut = Future("f")
    assert not fut.done
    assert not fut.failed


def test_resolve_sets_result():
    fut = Future()
    fut.resolve(42)
    assert fut.done
    assert fut.result() == 42


def test_result_before_resolve_raises():
    fut = Future("pending")
    with pytest.raises(FutureError):
        fut.result()


def test_double_resolve_raises():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(FutureError):
        fut.resolve(2)


def test_fail_then_result_raises_original():
    fut = Future()
    fut.fail(ValueError("boom"))
    assert fut.failed
    with pytest.raises(ValueError, match="boom"):
        fut.result()


def test_fail_after_resolve_raises():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(FutureError):
        fut.fail(RuntimeError("late"))


def test_callback_runs_on_resolve():
    fut = Future()
    seen = []
    fut.add_callback(lambda f: seen.append(f.result()))
    fut.resolve("value")
    assert seen == ["value"]


def test_callback_on_already_resolved_runs_immediately():
    fut = Future()
    fut.resolve(7)
    seen = []
    fut.add_callback(lambda f: seen.append(f.result()))
    assert seen == [7]


def test_callbacks_run_in_registration_order():
    fut = Future()
    order = []
    fut.add_callback(lambda f: order.append(1))
    fut.add_callback(lambda f: order.append(2))
    fut.add_callback(lambda f: order.append(3))
    fut.resolve(None)
    assert order == [1, 2, 3]


def test_gather_collects_in_input_order():
    futures = [Future(str(i)) for i in range(3)]
    combined = gather(futures)
    futures[2].resolve("c")
    futures[0].resolve("a")
    assert not combined.done
    futures[1].resolve("b")
    assert combined.done
    assert combined.result() == ["a", "b", "c"]


def test_gather_empty_resolves_immediately():
    combined = gather([])
    assert combined.done
    assert combined.result() == []


def test_gather_propagates_failure():
    futures = [Future(), Future()]
    combined = gather(futures)
    futures[0].fail(RuntimeError("dead"))
    assert combined.done
    assert combined.failed
    with pytest.raises(RuntimeError, match="dead"):
        combined.result()
    # Late resolutions of other members are harmless.
    futures[1].resolve("ok")


def test_gather_with_pre_resolved_inputs():
    done = Future()
    done.resolve(1)
    pending = Future()
    combined = gather([done, pending])
    assert not combined.done
    pending.resolve(2)
    assert combined.result() == [1, 2]


def test_gather_fails_with_the_first_input_to_fail():
    futures = [Future(str(i)) for i in range(3)]
    combined = gather(futures)
    futures[2].fail(ValueError("first"))
    futures[0].fail(RuntimeError("second"))
    assert combined.failed
    assert isinstance(combined.exception, ValueError)


def test_gather_input_already_failed_before_gather():
    # Pre-settled inputs are seen in input order: the earlier of two
    # pre-failed inputs wins, even behind a pre-resolved success.
    ok, first, second = Future(), Future(), Future()
    ok.resolve(1)
    first.fail(ValueError("first"))
    second.fail(RuntimeError("second"))
    pending = Future()
    combined = gather([ok, pending, first, second])
    assert combined.failed
    assert isinstance(combined.exception, ValueError)
    pending.resolve(2)  # late settlement is harmless
    assert isinstance(combined.exception, ValueError)


def test_gather_success_after_combined_failure_is_ignored():
    futures = [Future(), Future(), Future()]
    combined = gather(futures)
    futures[1].fail(RuntimeError("dead"))
    futures[0].resolve("a")
    futures[2].resolve("c")
    assert combined.failed
    with pytest.raises(RuntimeError, match="dead"):
        combined.result()
