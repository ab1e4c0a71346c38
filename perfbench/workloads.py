"""perfbench workload bodies, run in a fresh child process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --phase {setup,run,trace} --out-dir DIR

``setup`` only times set-up; ``run`` then measures ops untraced for
``S`` seconds; ``trace`` measures an untraced pass (the base of
``tracing_overhead``) and then a traced pass of the same length.  The
last stdout line is one JSON object for ``run.py``.  The parent puts the
checkout's ``src`` on ``PYTHONPATH``; the library is only reached
through the public entry points the CLI commands call.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from stats import (
    DEEPCOPY,
    analysis_share,
    median,
    ratio,
    self_time_buckets,
    tail_percentile,
    worker_busy_frac,
)
from tracing import NullTracer, Sampler, Tracer


@dataclass
class Outcome:
    """What one batch of ops did: ops attempted and failed, the wall time
    spent inside the library calls, and why ops failed.  A measured pass
    also counts its batches and keeps its normalised wall: each batch's
    wall times the machine speed during it over ``NOMINAL_SPEED``."""

    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)
    batches: int = 0
    norm_wall: float = 0.0

    def rate(self) -> float:
        """Ops per second of library-call wall."""
        return ratio(self.attempted, self.wall)

    def norm_rate(self) -> float:
        """Ops per second of normalised wall: ``norm_ops_per_s``."""
        return ratio(self.attempted, self.norm_wall)

    def speed(self) -> float:
        """The machine speed averaged over the pass, weighted by wall."""
        return ratio(NOMINAL_SPEED * self.norm_wall, self.wall)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall += other.wall
        self.errors.extend(other.errors)


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Workload:
    """What every workload shares: its seed, where it may write, and
    no-op hooks for the ones that prepare inputs after set-up."""

    #: a batch runs in this process, on one vCPU with its speed probe
    INLINE = True

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def prepare(self) -> None:
        """Untimed input preparation between set-up and the first batch."""

    def close(self) -> None:
        """Remove what :meth:`prepare` left on disk."""


# ----------------------------------------------------------------------
# table1-cg1024: one quick Table-I cell
# ----------------------------------------------------------------------
class Table1Cell(Workload):
    """CG at 1024 ranks, 4 block clusters, 4 iterations, lightweight
    protocol: the composition of ``repro.campaigns.table1_cell`` with the
    world kept, so the simulator's own counts can be pinned."""

    PARAMS = {"kernel": "CG", "ranks": 1024, "clusters": 4, "niters": 4}
    #: the simulator is deterministic: these are exact, not tolerances
    EXPECTED = {"events_dispatched": 199828, "messages_sent": 98000,
                "pct_log": 3.636734693877551,
                "pct_rollback": 52.36727396647135}

    def setup(self) -> None:
        # the cell ignores its seed (table1_cell documents why); the
        # workload seed still rides along as the sweep executor's would
        self.params = {**self.PARAMS, "seed": self.seed}
        # lazy set-up: module imports and first-call paths, on a tiny cell
        self._cell({"kernel": "CG", "ranks": 16, "clusters": 4,
                    "niters": 1}, NullTracer())

    def _cell(self, params: dict, tracer) -> dict:
        from repro.analysis import SpeSampler, rollback_analysis
        from repro.apps import TABLE1_KERNELS
        from repro.core import ProtocolConfig, build_ft_world
        from repro.core.clustering import block_clusters

        name, nprocs, ncl = params["kernel"], params["ranks"], params["clusters"]
        niters = params["niters"]
        cls = TABLE1_KERNELS[name]
        factory = lambda r, s: cls(r, s, niters=niters, compute_time=1e-5)
        config = ProtocolConfig(
            checkpoint_interval=6e-5,
            cluster_of=block_clusters(nprocs, ncl),
            cluster_stagger=8e-6, rank_stagger=2e-7,
            lightweight=True, retain_payloads=False,
        )
        with tracer.span("core.build_world"):
            world, controller = build_ft_world(nprocs, factory, config,
                                               copy_payloads=False)
        with tracer.span("simmpi.run"):
            sampler = SpeSampler(controller, interval=7e-5)
            sampler.arm()
            world.launch()
            world.run()
        if not sampler.snapshots:
            sampler.take()
        log = controller.logging_stats()
        with tracer.span("analysis.rollback"):
            rb = rollback_analysis(sampler.snapshots, nprocs)
        tracer.add("simmpi.events_dispatched", world.engine.events_dispatched)
        tracer.add("simmpi.messages_sent", world.network.messages_sent)
        tracer.add("core.checkpoints", controller.store.checkpoints_taken)
        tracer.add("analysis.solves", len(sampler.snapshots) * nprocs)
        return {
            "events_dispatched": world.engine.events_dispatched,
            "messages_sent": world.network.messages_sent,
            "pct_log": 100 * log["log_fraction"],
            "pct_rollback": rb.percent,
        }

    def batch(self, tracer, op: int) -> Outcome:
        t0 = time.perf_counter()
        try:
            with tracer.span("op.cell", op):
                got = self._cell(self.params, tracer)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            return Outcome(1, 1, time.perf_counter() - t0,
                           [f"cell raised {exc!r}"])
        wall = time.perf_counter() - t0
        bad = {k: (got[k], v) for k, v in self.EXPECTED.items()
               if got[k] != v}
        if bad:
            return Outcome(1, 1, wall, [f"cell statistics differ "
                                        f"(got, expected): {bad}"])
        return Outcome(1, 0, wall)

    def layer_metrics(self, tracer: Tracer) -> dict:
        run_s = tracer.total("simmpi.run")
        rollback_s = tracer.total("analysis.rollback")
        counts = tracer.counts
        return {
            "simmpi.run_s": run_s,
            "simmpi.events_per_s": ratio(counts["simmpi.events_dispatched"],
                                         run_s),
            "core.build_world_s": tracer.total("core.build_world"),
            "analysis.rollback_s": rollback_s,
            "analysis.solves_per_s": ratio(counts["analysis.solves"],
                                           rollback_s),
            "analysis.share": analysis_share(rollback_s, run_s),
            "op.wall_s": tracer.total("op.cell"),
        }


# ----------------------------------------------------------------------
# chaos-recovery: a seeded chaos campaign with live failures
# ----------------------------------------------------------------------
class ChaosRecovery(Workload):
    """Seeded ``run_campaign`` trials, inline, no shrinking, every default
    oracle.

    Trials are a stratified sample, so that every run has the same mix
    whatever its seed: a round draws one trial per chaos kernel, and
    round ``r`` takes each kernel's trial from stratum ``r mod n`` of its
    ``(ranks, iterations-third)`` strata, by drawing campaign seeds from
    the workload seed until the trial's schedule falls in that stratum.
    The generator draws ranks and iterations uniformly and independently,
    so cycling through the strata keeps its distribution; within a
    kernel, ranks and iterations explain about 70% of the variance of a
    trial's log cost.  The CG kernel is left out of the pool: its trials
    cost 4-10x the others' and alone set the run-to-run spread; CG is
    simulated by every other workload."""

    EXCLUDED_KERNELS = ("cg",)
    #: ``generate_schedule`` draws iterations from ``range(16, 40)``
    NITERS_THIRDS = ((16, 24), (24, 32), (32, 40))

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.round = 0
        self.trial_durations: list[float] = []

    def setup(self) -> None:
        from repro.chaos.schedule import KERNELS
        from repro.sweep import task_seed

        self.kernels = sorted(set(KERNELS) - set(self.EXCLUDED_KERNELS))
        self.strata = {k: [(n, third) for n in KERNELS[k].nprocs_choices
                           for third in self.NITERS_THIRDS]
                       for k in self.kernels}
        self.task_seed = task_seed
        # lazy set-up: one cheap trial, the same for every workload seed
        self._trial("pingpong", 0, NullTracer(), None)

    def _trial(self, kernel: str, campaign_seed: int, tracer, op) -> Outcome:
        from repro.chaos import run_campaign
        from repro.chaos.oracles import ORACLES
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        results = []
        t0 = time.perf_counter()
        try:
            with tracer.span("chaos.trial", op):
                report = run_campaign(
                    1, seed=campaign_seed, workers=1, kernels=(kernel,),
                    shrink=0, obs=registry, on_progress=results.append)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            return Outcome(1, 1, time.perf_counter() - t0,
                           [f"{kernel} trial {campaign_seed} raised {exc!r}"])
        wall = time.perf_counter() - t0
        if tracer.enabled:
            self.trial_durations.append(wall)
            tracer.add("sweep.task_s", sum(r.duration for r in results))
            for name, counter in (
                    ("simmpi.events_dispatched", "engine.events_dispatched"),
                    ("simmpi.messages_sent", "network.channel.messages"),
                    ("core.checkpoints", "checkpoint.stored"),
                    ("core.ranks_rolled_back", "recovery.rollbacks")):
                tracer.add(name, registry.get_counter_total(counter))
            tracer.add("core.recovery_rounds", sum(
                r.value["stats"].get("recovery_rounds", 0)
                for r in results if r.ok))
        verdicts = results[0].value.get("oracles", {}) \
            if results and results[0].ok else {}
        if not (report.ok and report.passed == 1
                and set(verdicts) == set(ORACLES)):
            return Outcome(1, 1, wall, [
                f"{kernel} trial (campaign seed {campaign_seed}): "
                f"{report.summary()}; oracles evaluated: {sorted(verdicts)}"])
        return Outcome(1, 0, wall)

    def _campaign_seed(self, kernel: str) -> int:
        """First campaign seed of this round's sequence for ``kernel``
        whose trial falls in the kernel's stratum for this round."""
        from repro.chaos import schedule_for_trial

        strata = self.strata[kernel]
        nprocs, (lo, hi) = strata[self.round % len(strata)]
        for draw in itertools.count():
            seed = self.task_seed(self.seed, self.round, f"{kernel}/{draw}")
            schedule = schedule_for_trial(seed, 0, kernels=(kernel,))
            if schedule.nprocs == nprocs and lo <= schedule.niters < hi:
                return seed

    def batch(self, tracer, op: int) -> Outcome:
        out = Outcome()
        for kernel in self.kernels:
            seed = self._campaign_seed(kernel)
            out.add(self._trial(kernel, seed, tracer, op))
        self.round += 1
        return out

    def layer_metrics(self, tracer: Tracer) -> dict:
        durations = self.trial_durations
        tail = tail_percentile(durations)
        wall = tracer.total("chaos.trial")
        return {
            "chaos.trials": len(durations),
            "chaos.trial_p50_s": median(durations),
            "chaos.trial_tail_pct": tail[0] if tail else 0,
            "chaos.trial_tail_s": tail[1] if tail else 0.0,
            "sweep.worker_busy_frac": worker_busy_frac(
                [tracer.counts["sweep.task_s"]], 1, wall),
            "op.wall_s": wall,
        }


# ----------------------------------------------------------------------
# campaign-cold / campaign-warm: the cached Table-I campaign
# ----------------------------------------------------------------------
class CampaignCold(Workload):
    """``repro table1 --workers 2 --cache DIR`` made directly: the 45-cell
    grid through ``run_sweep`` into a fresh cache directory per pass, so
    every pass executes and stores every cell."""

    KERNELS = ("MG", "LU", "FT", "CG", "BT")
    RANKS = (16, 32, 64)
    CLUSTERS = (1, 2, 4)
    NITERS = 4
    WORKERS = 2
    INLINE = False
    #: digest of the 45 cell values: table1_cell ignores its seed and the
    #: simulator is deterministic, so it is the same for every run
    VALUES_DIGEST = "c8912eef0ee02cedf22fb013247f58d2"

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.executed_durations: list[float] = []
        self.entry_sizes: list[int] = []
        self.lookups = 0
        self.hits = 0
        self.reference: tuple[str, str] | None = None

    def setup(self) -> None:
        from repro.campaigns import table1_cell, table1_tasks
        from repro.service import ResultCache

        self.tasks = table1_tasks(self.KERNELS, self.RANKS, self.CLUSTERS,
                                  self.NITERS)
        # lazy set-up: the cache-key path and one small cell, in-process
        task = self.tasks[0]
        ResultCache().key_for(table1_cell, task.params, self.seed,
                              collect_obs=True)
        table1_cell({**task.params, "seed": self.seed})

    def _pass(self, tracer, cache_dir: str, op: int):
        from repro.campaigns import table1_cell
        from repro.obs import MetricsRegistry
        from repro.sweep import run_sweep

        registry = _timed_registry(tracer) if tracer.enabled \
            else MetricsRegistry()
        cache = _timed_cache(tracer, cache_dir)
        service_obs = MetricsRegistry() if tracer.enabled else None
        t0 = time.perf_counter()
        with tracer.span("sweep.pass", op):
            results = run_sweep(
                table1_cell, self.tasks, workers=self.WORKERS,
                base_seed=self.seed, obs=registry, collect_obs=True,
                cache=cache, service_obs=service_obs)
        wall = time.perf_counter() - t0
        if tracer.enabled:
            stats = cache.stats()
            self.lookups += stats["hits"] + stats["misses"]
            self.hits += stats["hits"]
            for name in ("service.leases", "service.steals"):
                tracer.add(name, service_obs.get_counter_total(name))
            executed = [r for r in results if not r.cached]
            self.executed_durations.extend(r.duration for r in executed)
            if executed:
                tracer.add("sweep.cold_wall_s", wall)
                for name, counter in (
                        ("simmpi.events_dispatched",
                         "engine.events_dispatched"),
                        ("simmpi.messages_sent", "network.channel.messages"),
                        ("core.checkpoints", "checkpoint.stored")):
                    tracer.add(name, registry.get_counter_total(counter))
        return results, registry, cache, wall

    @staticmethod
    def _digests(results, registry) -> tuple[str, str, str]:
        """(results document, merged obs export, cell values) digests."""
        from repro.obs.export import dump_metrics
        from repro.sweep import results_document

        doc = results_document(results, sweep_name="table1")
        values = [r.value for r in results]
        return (_digest(_canonical(doc)),
                _digest(dump_metrics(registry, "jsonl")),
                _digest(_canonical(values)))

    def _check(self, results, registry, cache, expect_hits: bool) -> list[str]:
        errors = [f"cell {r.name} failed: {r.error}"
                  for r in results if not r.ok]
        stats = cache.stats()
        n = len(self.tasks)
        if expect_hits and (stats["hits"], stats["misses"]) != (n, 0):
            errors.append(f"warm pass was not all hits: {stats}")
        if not expect_hits and (stats["misses"], stats["stores"]) != (n, n):
            errors.append(f"cold pass did not execute and store every "
                          f"cell: {stats}")
        doc, obs, values = self._digests(results, registry)
        if values != self.VALUES_DIGEST:
            errors.append(f"cell values digest {values} != pinned "
                          f"{self.VALUES_DIGEST}")
        if self.reference is None:
            self.reference = (doc, obs)
        elif expect_hits and (doc, obs) != self.reference:
            errors.append("warm results document or merged obs export "
                          "differs from the cold pass")
        elif not expect_hits and obs != self.reference[1]:
            errors.append("merged obs export differs between cold passes")
        return errors

    def _cache_entry_sizes(self, cache_dir: str) -> list[int]:
        return [os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(cache_dir) for f in files
                if f.endswith(".pkl")]

    def batch(self, tracer, op: int) -> Outcome:
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.out_dir)
        try:
            results, registry, cache, wall = self._pass(tracer, cache_dir, op)
            errors = self._check(results, registry, cache, expect_hits=False)
            if tracer.enabled:
                self.entry_sizes.extend(self._cache_entry_sizes(cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        n = len(self.tasks)
        return Outcome(n, n if errors else 0, wall, errors)

    def layer_metrics(self, tracer: Tracer) -> dict:
        cold_wall = tracer.counts["sweep.cold_wall_s"]
        return {
            "sweep.task_p50_s": median(self.executed_durations),
            "sweep.worker_busy_frac": worker_busy_frac(
                self.executed_durations, self.WORKERS, cold_wall),
            "service.key_s": tracer.total("service.key"),
            "service.get_s": tracer.total("service.get"),
            "service.put_s": tracer.total("service.put"),
            "service.hit_ratio": ratio(self.hits, self.lookups),
            "service.entry_bytes": (sum(self.entry_sizes)
                                    / len(self.entry_sizes)
                                    if self.entry_sizes else 0.0),
            "obs.merge_s": tracer.total("obs.merge"),
            "op.wall_s": tracer.total("sweep.pass"),
        }


class CampaignWarm(CampaignCold):
    """The warm half of the cached campaign: one untimed cold pass fills
    a cache directory, then every measured pass re-runs the same call
    with a fresh ``ResultCache`` on that directory, so every cell is a
    disk hit (key hashing, read, unpickle, obs merge).  Hits are served
    in this process; the pool never starts."""

    INLINE = True
    cache_dir = None

    def prepare(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.out_dir)
        results, registry, cache, _ = self._pass(NullTracer(),
                                                 self.cache_dir, -1)
        self.fill_errors = self._check(results, registry, cache,
                                       expect_hits=False)
        self.entry_sizes = self._cache_entry_sizes(self.cache_dir)

    def batch(self, tracer, op: int) -> Outcome:
        results, registry, cache, wall = self._pass(tracer, self.cache_dir, op)
        errors = self.fill_errors + self._check(results, registry, cache,
                                                expect_hits=True)
        n = len(self.tasks)
        return Outcome(n, n if errors else 0, wall, errors)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def _timed_registry(tracer):
    """A MetricsRegistry whose ``merge`` calls are spans."""
    from repro.obs import MetricsRegistry

    class TimedRegistry(MetricsRegistry):
        def merge(self, snap):
            with tracer.span("obs.merge"):
                super().merge(snap)

    return TimedRegistry()


def _timed_cache(tracer, path: str):
    """A ResultCache on ``path``; with tracing, its public calls are spans."""
    from repro.service import ResultCache

    if not tracer.enabled:
        return ResultCache(path)

    class TimedCache(ResultCache):
        def key_for(self, *args, **kwargs):
            with tracer.span("service.key"):
                return super().key_for(*args, **kwargs)

        def get(self, key):
            with tracer.span("service.get"):
                return super().get(key)

        def put(self, key, result):
            with tracer.span("service.put"):
                super().put(key, result)

    return TimedCache(path)


WORKLOADS = {
    "table1-cg1024": Table1Cell,
    "chaos-recovery": ChaosRecovery,
    "campaign-cold": CampaignCold,
    "campaign-warm": CampaignWarm,
}

#: every per-layer metric, reported on every workload (0 where the
#: workload never calls that layer, or where it runs in pool workers the
#: benchmark cannot time from outside)
LAYER_METRICS = (
    "simmpi.run_s", "simmpi.events_dispatched", "simmpi.events_per_s",
    "simmpi.messages_sent",
    "core.build_world_s", "core.checkpoints", "core.recovery_rounds",
    "core.ranks_rolled_back",
    "analysis.rollback_s", "analysis.solves", "analysis.solves_per_s",
    "analysis.share",
    "chaos.trials", "chaos.trial_p50_s", "chaos.trial_tail_s",
    "chaos.trial_tail_pct",
    "sweep.task_p50_s", "sweep.worker_busy_frac",
    "service.key_s", "service.get_s", "service.put_s", "service.hit_ratio",
    "service.entry_bytes", "service.leases", "service.steals",
    "obs.merge_s",
    "op.wall_s",
)
#: counts reported per op, so that they repeat exactly on deterministic ops
PER_OP_COUNTS = ("simmpi.events_dispatched", "simmpi.messages_sent",
                 "core.checkpoints", "core.recovery_rounds",
                 "core.ranks_rolled_back", "analysis.solves",
                 "service.leases", "service.steals")


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    return [*LAYER_METRICS, *(f"{b}.self_s" for b in self_time_buckets()),
            f"{DEEPCOPY}_s", "sampler.samples"]


#: iterations per second of :func:`machine_speed`'s loop on a nominal
#: machine: a normalised rate is a host rate times this over the speed
#: measured while the batch ran
NOMINAL_SPEED = 2.0e7
#: seconds between two timings of the speed probe, and the length of one:
#: shorter than a scheduler slice, so that a timing running beside pool
#: workers is not cut by them
PROBE_PERIOD = 0.1
PROBE_SECONDS = 0.001


def machine_speed(seconds: float = 0.02) -> float:
    """Iterations per second of a fixed pure-Python loop, right now.

    The host is shared and a busy core's speed drifts by tens of percent
    within seconds.  Timing this loop while a batch runs measures the
    drift so it can be divided out."""
    t0 = time.perf_counter()
    n = 0
    while True:
        for _ in range(2000):
            n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


class SpeedProbe:
    """Times :func:`machine_speed`'s loop on each of ``cpus`` every
    ``PROBE_PERIOD`` seconds between :meth:`begin` and :meth:`end`, from
    one thread pinned to each; a context that starts and stops them.

    The loop holds the GIL, so inline work waits while the probe on its
    vCPU runs: :meth:`end` returns the seconds the loop took, for the
    caller to take out of the work's wall.  Pool workers do not wait
    (each probe delays the worker on its vCPU by about 1%).

    Two timings, before and after a 7-9 s 1024-rank cell, miss the drift
    inside it: over ten 20 s runs of ``table1-cg1024`` the quartile
    spread of the normalised rate was 14% with those two, 5.1% with the
    mean of an in-batch probe's ~70 timings and 18% unnormalised; over
    ten ``campaign-cold`` runs, one probe per vCPU spread 2.0% where one
    unpinned probe spread 5.2% (see ``perfbench/README.md``)."""

    def __init__(self, cpus: list[int]) -> None:
        self._threads = [threading.Thread(target=self._run, args=(cpu,),
                                          name=f"perfbench-speed-{cpu}",
                                          daemon=True)
                         for cpu in cpus]
        self._speeds: dict[int, list[float]] = {cpu: [] for cpu in cpus}
        self._busy = 0.0
        self._before = 0.0
        self._lock = threading.Lock()
        self._active = threading.Event()
        self._halt = threading.Event()

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        while not self._halt.wait(PROBE_PERIOD):
            with self._lock:
                if self._active.is_set():
                    t0 = time.perf_counter()
                    self._speeds[cpu].append(machine_speed(PROBE_SECONDS))
                    self._busy += time.perf_counter() - t0

    def begin(self) -> None:
        before = machine_speed()
        with self._lock:
            self._speeds = {cpu: [] for cpu in self._speeds}
            self._busy, self._before = 0.0, before
            self._active.set()

    def end(self) -> tuple[float, float]:
        """(machine speed over the interval since :meth:`begin`, seconds
        the probes' loops took in it).  A probe's timings are evenly
        spaced, so their mean is its vCPU's speed averaged over the
        interval; the vCPUs weigh the same.  An interval too short for
        the probes gets the mean of two timings just before and after."""
        with self._lock:
            self._active.clear()
            speeds, busy = self._speeds, self._busy
        means = [statistics.fmean(v) for v in speeds.values() if v]
        if means:
            return statistics.fmean(means), busy
        return (self._before + machine_speed()) / 2, busy


@contextmanager
def probed(inline: bool) -> Iterator[SpeedProbe]:
    """A speed probe on the vCPUs the work runs on.  Inline work and its
    probe are pinned to one vCPU; a pool gets a probe on every vCPU.  The
    vCPUs of a shared host change speed independently, so a probe must
    time the cores the program runs on."""
    cpus = os.sched_getaffinity(0)
    if inline:
        os.sched_setaffinity(0, {max(cpus)})
    try:
        with SpeedProbe([max(cpus)] if inline else sorted(cpus)) as probe:
            yield probe
    finally:
        if inline:
            os.sched_setaffinity(0, cpus)


def measure(workload, seconds: float, tracer) -> Outcome:
    """Run batches until ``seconds`` of wall time have passed.  A batch's
    wall is the time of its library calls (output checks, and for an
    inline batch the probe's loop, excluded), scaled by the machine speed
    the probe timed during it over ``NOMINAL_SPEED``.  The reported rate
    is all ops over the sum of those normalised walls: the median of the
    batch rates moved with the mix of trials in a chaos round and spread
    twice as wide."""
    total = Outcome()
    t0 = time.perf_counter()
    op = 0
    with probed(workload.INLINE) as probe:
        while True:
            probe.begin()
            start = time.perf_counter()
            batch = workload.batch(tracer, op)
            elapsed = time.perf_counter() - start
            speed, busy = probe.end()
            if workload.INLINE:
                # the probe's share of the batch that fell inside its calls
                batch.wall -= busy * min(1.0, ratio(batch.wall, elapsed))
            total.add(batch)
            total.batches += 1
            total.norm_wall += batch.wall * speed / NOMINAL_SPEED
            op += 1
            if time.perf_counter() - t0 >= seconds:
                return total


def traced_pass(workload, seconds: float, out_path: str) -> tuple[Outcome,
                                                                   dict]:
    tracer = Tracer()
    sampler = Sampler()
    sampler.start()
    try:
        outcome = measure(workload, seconds, tracer)
    finally:
        sampler.stop()
    tracer.write(out_path)
    layers = dict.fromkeys(layer_metric_names(), 0.0)
    for name in PER_OP_COUNTS:
        layers[name] = ratio(tracer.counts[name], outcome.attempted)
    own = workload.layer_metrics(tracer)
    unknown = set(own) - set(layers)
    if unknown:
        raise ValueError(f"unlisted per-layer metrics: {sorted(unknown)}")
    layers.update(own)
    for bucket in self_time_buckets():
        layers[f"{bucket}.self_s"] = sampler.self_s.get(bucket, 0.0)
    layers[f"{DEEPCOPY}_s"] = sampler.self_s.get(DEEPCOPY, 0.0)
    layers["sampler.samples"] = sampler.samples
    return outcome, layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    # set-up is timed like a batch: inline, probed, normalised
    with probed(inline=True) as probe:
        probe.begin()
        t0 = time.perf_counter()
        import repro

        src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..",
                                            "src"))
        if not os.path.realpath(repro.__file__).startswith(src + os.sep):
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  f"from {src}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](args.seed, args.out_dir)
        workload.setup()
        host_s = time.perf_counter() - t0
        speed, busy = probe.end()
    host_s -= busy
    result: dict = {"setup_s": host_s * speed / NOMINAL_SPEED,
                    "setup_host_s": host_s}
    if args.phase == "setup":
        print(json.dumps(result))
        return 0
    try:
        workload.prepare()
        outcome = measure(workload, args.seconds, NullTracer())
        result["untraced"] = {"attempted": outcome.attempted,
                              "failed": outcome.failed,
                              "wall_s": outcome.wall,
                              "batches": outcome.batches,
                              "ops_per_s": outcome.rate(),
                              "norm_ops_per_s": outcome.norm_rate(),
                              "machine_speed": outcome.speed()}
        errors = list(outcome.errors)
        if args.phase == "trace":
            path = os.path.join(
                args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
            traced, layers = traced_pass(workload, args.seconds, path)
            result["traced"] = {"attempted": traced.attempted,
                                "failed": traced.failed,
                                "wall_s": traced.wall,
                                "norm_ops_per_s": traced.norm_rate(),
                                "spans": path}
            result["layers"] = layers
            errors.extend(traced.errors)
    finally:
        workload.close()
    result["errors"] = errors[:20]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
