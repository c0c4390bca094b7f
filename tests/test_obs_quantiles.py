"""Quantile estimation: the LogSketch and Histogram.quantile.

Three layers of checks:

1. **LogSketch contract** — rejection of non-finite and negative input,
   every quantile within relative error ``ALPHA`` of the exact
   inverted-CDF sample quantile (seeded streams + hypothesis), and an
   exact merge: merging two sketches in either order gives the state of
   one sketch over both streams.
2. **The SLO table's ``n/a`` rule** — a quantile ``q`` is printed only
   from at least ``1/(1-q)`` samples.
3. **Histogram.quantile vs numpy** (hypothesis) — for data within the
   finite bucket range the histogram's interpolated quantile is within
   one bucket width of the exact sample quantile; any quantile landing
   in the +Inf bucket reports exactly ``+inf`` (the PR's bugfix contract,
   as opposed to clamping to the largest finite bound).
"""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import ALPHA, LogSketch
from repro.obs.registry import Histogram, MetricsError
from repro.service.runner import (
    SLO_QUANTILES,
    ServiceConfig,
    enough_samples,
    run_service,
)

SLO_QS = [q for _, q in SLO_QUANTILES]


def sketch_of(values):
    sketch = LogSketch()
    for value in values:
        sketch.observe(value)
    return sketch


def assert_within_alpha(estimate, exact):
    # The bucket representative is within ALPHA of every value in the
    # bucket; the slack absorbs float rounding at a bucket's edge.
    assert abs(estimate - exact) <= ALPHA * exact * (1.0 + 1e-9), (
        estimate, exact,
    )


# --- LogSketch contract ----------------------------------------------------


def test_sketch_rejects_non_finite_and_negative():
    sketch = LogSketch()
    for bad in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
        with pytest.raises(MetricsError):
            sketch.observe(bad)
    assert sketch.count == 0
    for bad_q in (-0.1, 1.5):
        with pytest.raises(MetricsError):
            sketch.quantile(bad_q)


def test_sketch_empty_quantile_is_nan():
    sketch = LogSketch()
    assert sketch.count == 0
    assert all(math.isnan(sketch.quantile(q)) for q in SLO_QS)


def test_sketch_zero_bucket_reports_exact_zero():
    sketch = sketch_of([0.0, 0.0, 0.0, 5.0])
    assert sketch.count == 4
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(0.75) == 0.0
    assert_within_alpha(sketch.quantile(1.0), 5.0)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
@pytest.mark.parametrize(
    "sampler",
    [
        lambda rng, n: rng.uniform(0.0, 100.0, n),
        lambda rng, n: rng.exponential(5.0, n),
        lambda rng, n: rng.normal(50.0, 3.0, n),
    ],
    ids=["uniform", "exponential", "normal"],
)
def test_sketch_accuracy_on_seeded_streams(q, sampler):
    rng = np.random.default_rng(42)
    data = sampler(rng, 5000)
    sketch = sketch_of(float(value) for value in data)
    exact = float(np.quantile(data, q, method="inverted_cdf"))
    assert_within_alpha(sketch.quantile(q), exact)


# --- hypothesis: relative error and exact merges ---------------------------

LATENCIES = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(
            min_value=1e-9, max_value=1e6,
            allow_nan=False, allow_infinity=False, allow_subnormal=False,
        ),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=80, deadline=None)
@given(values=LATENCIES)
def test_sketch_within_alpha_of_inverted_cdf(values):
    sketch = sketch_of(values)
    assert sketch.count == len(values)
    for q in SLO_QS:
        exact = float(np.quantile(values, q, method="inverted_cdf"))
        assert_within_alpha(sketch.quantile(q), exact)


@settings(max_examples=60, deadline=None)
@given(first=LATENCIES, second=LATENCIES)
def test_sketch_merge_equals_sketch_of_concatenation(first, second):
    whole = sketch_of(first + second)
    forward = LogSketch().merge(sketch_of(first)).merge(sketch_of(second))
    backward = sketch_of(second).merge(sketch_of(first))
    assert forward == whole
    assert backward == whole
    for merged in (forward, backward):
        assert merged.count == whole.count
        for q in SLO_QS:
            assert merged.quantile(q) == whole.quantile(q)


# --- the SLO table's n/a rule ----------------------------------------------


def test_enough_samples_is_one_over_one_minus_q():
    assert not enough_samples(1, 0.5)
    assert enough_samples(2, 0.5)
    assert not enough_samples(99, 0.99)
    assert enough_samples(100, 0.99)
    assert not enough_samples(999, 0.999)
    assert enough_samples(1000, 0.999)


def test_slo_table_prints_na_below_one_over_one_minus_q():
    result = run_service(
        ServiceConfig(duration=80.0, num_servers=8, quorum_size=3,
                      num_registers=8)
    )
    rows = {
        line.split()[0]: line.split()[1:]
        for line in result.slo_table().splitlines()
        if line.split()[:1] in (["read"], ["write"], ["all"])
    }
    assert set(rows) == {"read", "write", "all"}
    for kind, cells in rows.items():
        count = int(cells[0])
        assert count == result.latency_counts[kind]
        assert count < 1000  # a short run: p999 cannot be reported
        for (_, q), cell in zip(SLO_QUANTILES, cells[1:]):
            if enough_samples(count, q):
                assert float(cell) == pytest.approx(
                    result.streaming[kind][q], abs=5e-4
                )
            else:
                assert cell == "n/a"
    assert rows["all"][3] == "n/a"
    assert result.latency_counts["all"] == result.completed


# --- hypothesis: Histogram.quantile vs numpy -------------------------------

BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(
        st.floats(
            min_value=0.0, max_value=30.0,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1,
        max_size=150,
    ),
    q=st.floats(min_value=0.01, max_value=1.0),
)
def test_histogram_quantile_matches_numpy_within_bucket_resolution(values, q):
    histogram = Histogram(buckets=BOUNDS)
    for value in values:
        histogram.observe(value)
    estimate = histogram.quantile(q)
    # The histogram picks the first bucket whose cumulative count reaches
    # ceil(q*n) — the bucket holding the inverted-CDF sample quantile.
    # Its estimate must therefore land inside that bucket's bounds (the
    # "bounded error" contract: off by at most one bucket's resolution),
    # and report exactly +inf whenever that sample sits past the last
    # finite bound.
    exact = float(np.quantile(values, q, method="inverted_cdf"))
    if exact > BOUNDS[-1]:
        assert estimate == math.inf
    else:
        index = bisect_left(BOUNDS, exact)
        upper = BOUNDS[index]
        lower = BOUNDS[index - 1] if index else 0.0
        assert lower <= estimate <= upper


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(
            min_value=16.001, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1,
        max_size=50,
    ),
)
def test_histogram_all_overflow_mass_reports_inf_everywhere(values):
    histogram = Histogram(buckets=BOUNDS)
    for value in values:
        histogram.observe(value)
    assert histogram.overflow == len(values)
    for q in (0.01, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == math.inf


# --- cross-check: sketch and Histogram agree on the same stream ------------


def test_sketch_and_histogram_agree_on_latency_shaped_stream():
    rng = np.random.default_rng(7)
    data = rng.gamma(shape=2.0, scale=2.0, size=3000)
    histogram = Histogram(buckets=tuple(float(b) for b in range(1, 33)))
    sketch = LogSketch()
    for value in data:
        histogram.observe(float(value))
        sketch.observe(float(value))
    for q in SLO_QS:
        h = histogram.quantile(q)
        if math.isinf(h):
            continue  # overflow tail: the histogram refuses to guess
        assert h == pytest.approx(sketch.quantile(q), rel=0.25), q


def test_observe_rejection_applies_through_registry_family():
    # The front-door path used by the simulator: family -> child.observe.
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    child = registry.histogram("lat", buckets=(1.0,)).labels()
    with pytest.raises(MetricsError):
        child.observe(float("nan"))
