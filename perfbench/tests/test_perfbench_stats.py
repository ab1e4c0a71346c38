"""Metric arithmetic of the perfbench benchmark.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import (  # noqa: E402
    OUTSIDE,
    REPRO_OTHER,
    analysis_share,
    attribute,
    failed_frac,
    percentile,
    self_time_buckets,
    tail_percentile,
    worker_busy_frac,
)
from tracing import Sampler, Tracer  # noqa: E402
from run import metric_unit  # noqa: E402
from workloads import (  # noqa: E402
    NOMINAL_SPEED,
    Outcome,
    SpeedProbe,
    layer_metric_names,
    measure,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- percentiles --------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected_pct", [
    (1000, 99),   # 10 samples beyond p99
    (999, 95),    # p99 has only 9 beyond
    (200, 95),    # 10 beyond p95
    (100, 90),    # 10 beyond p90, 5 beyond p95
    (99, 75),     # p90 has only 9 beyond
    (20, 50),     # 10 beyond the median
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_pct):
    values = [float(i) for i in range(n)]
    pct, value = tail_percentile(values)
    assert pct == expected_pct
    assert value == percentile(values, pct)
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_none_below_twenty_samples():
    assert tail_percentile([1.0] * 19) is None


# -- bases of the ratios ------------------------------------------------
def test_worker_busy_frac_base_is_workers_times_wall():
    # two workers busy 3 s of a 4 s pass: 6 of 8 worker-seconds
    assert worker_busy_frac([1.0, 2.0, 3.0], workers=2, wall=4.0) == 0.75
    assert worker_busy_frac([], workers=2, wall=0.0) == 0.0


def test_analysis_share_base_is_simulation_time():
    assert analysis_share(rollback_s=0.5, sim_s=5.0) == 0.1
    assert analysis_share(rollback_s=0.0, sim_s=0.0) == 0.0


def test_failed_frac_counts_failed_over_attempted():
    assert failed_frac(0, 45) == 0.0
    assert failed_frac(3, 45) == pytest.approx(1 / 15)
    with pytest.raises(ValueError):
        failed_frac(0, 0)


# -- self-time attribution ----------------------------------------------
def test_nested_frame_is_billed_to_innermost_repro_frame():
    stack = [  # innermost first
        ("copy", "_deepcopy_dict"),
        ("copy", "deepcopy"),
        ("repro.core.checkpoint", "take"),
        ("repro.core.controller", "_on_checkpoint"),
        ("repro.simmpi.engine", "run"),
        ("__main__", "main"),
    ]
    assert attribute(stack) == ("core.checkpoint", True)
    # numpy under a kernel: billed to the kernel's package, no deepcopy
    assert attribute([("numpy.core.numeric", "dot"),
                      ("repro.apps.cg", "step"),
                      ("repro.simmpi.process", "resume")]) == ("apps", False)
    # deepcopy below the owning frame does not count
    assert attribute([("repro.core.state", "snapshot"),
                      ("copy", "deepcopy")]) == ("core.state", False)


def test_unlisted_modules_fall_into_package_buckets():
    assert attribute([("repro.simmpi.api", "send")])[0] == "simmpi.other"
    assert attribute([("repro.lint.certify", "x")])[0] == "lint.other"
    assert attribute([("repro.cli", "main")])[0] == REPRO_OTHER
    assert attribute([("pickle", "loads"), ("__main__", "main")]) == \
        (OUTSIDE, False)
    buckets = self_time_buckets()
    assert len(buckets) == len(set(buckets))
    assert {"simmpi.other", "core.state", "apps", OUTSIDE} <= set(buckets)


def test_sampler_bills_deepcopy_to_its_repro_caller():
    # a function whose frames report the module name of a repro module
    namespace = {"__name__": "repro.core.state", "copy": copy,
                 "time": time}
    exec(
        "def hot(seconds):\n"
        "    data = [{'k': list(range(50))} for _ in range(50)]\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        copy.deepcopy(data)\n",
        namespace,
    )
    sampler = Sampler(interval=0.002)
    sampler.start()
    try:
        namespace["hot"](0.3)
    finally:
        sampler.stop()
    assert not sampler.is_alive()
    billed = sampler.self_s["core.state"]
    assert billed > 0.2
    assert 0.5 * billed < sampler.self_s["copy.deepcopy"] <= billed


def test_speed_probe_times_only_between_begin_and_end():
    with SpeedProbe([max(os.sched_getaffinity(0))]) as probe:
        probe.begin()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        speed, busy = probe.end()
        time.sleep(0.25)
        # too short for a timing: the two outer timings stand in
        probe.begin()
        short_speed, short_busy = probe.end()
    assert not [t for t in threading.enumerate()
                if t.name.startswith("perfbench-speed")]
    assert speed > 0 and 0 < busy < 0.05
    assert short_speed > 0 and short_busy == 0.0


class _SleepBatches:
    """A workload whose batches take a fixed 0.3 s and do 2 ops."""

    def __init__(self, inline: bool) -> None:
        self.INLINE = inline

    def batch(self, tracer, op):
        start = time.perf_counter()
        time.sleep(0.3)
        return Outcome(2, 0, time.perf_counter() - start)


@pytest.mark.parametrize("inline", [True, False])
def test_measure_normalises_the_wall_by_the_speed_timed_during_it(inline):
    cpus = os.sched_getaffinity(0)
    out = measure(_SleepBatches(inline), 0.5, None)
    assert os.sched_getaffinity(0) == cpus
    assert out.attempted == 2 * out.batches >= 4
    assert 2 / 0.3 * 0.9 < out.rate() < 2 / 0.3 * 1.1
    assert out.norm_rate() == pytest.approx(
        out.rate() * NOMINAL_SPEED / out.speed())
    assert 1e6 < out.speed() < 1e9


def test_tracer_spans_nest_and_share_the_op_id():
    tracer = Tracer()
    with tracer.span("op", op=7):
        with tracer.span("child"):
            pass
    (name, start, end, parent, op), child = tracer.spans
    assert (name, parent, op) == ("op", -1, 7)
    assert child[0] == "child" and child[3] == 0 and child[4] == 7
    assert start <= child[1] <= child[2] <= end
    assert tracer.total("child") == child[2] - child[1]


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["per_layer"]] == \
        layer_metric_names() + ["tracing_overhead"]
    for m in doc["per_layer"]:
        if m["name"] != "tracing_overhead":
            assert m["unit"] == metric_unit(m["name"]), m
    assert [m["name"] for m in doc["end_to_end"]] == \
        ["setup_s", "norm_ops_per_s", "peak_rss_mb"]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in doc["end_to_end"]
               if m is not setup)
