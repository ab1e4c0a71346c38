"""Metric arithmetic for the perfbench benchmark.

Pure functions over plain numbers and frame names, with no import of
``repro``, so the tests in ``perfbench/tests`` pin the definitions every
reported number rests on.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: percentiles tried, highest first, for a distribution's tail
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100 * n))


def tail_percentile(values: Sequence[float],
                    min_beyond: int = MIN_BEYOND) -> tuple[int, float] | None:
    """``(pct, value)`` for the highest of :data:`TAIL_PERCENTILES` that
    has at least ``min_beyond`` samples beyond it, or ``None`` when even
    the median has fewer."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(len(values), pct) >= min_beyond:
            return pct, percentile(values, pct)
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0 (the layer
    did no work on this workload)."""
    return numerator / denominator if denominator else 0.0


def worker_busy_frac(task_durations: Iterable[float], workers: int,
                     wall: float) -> float:
    """Share of the pool's capacity spent inside tasks.

    Base: ``workers x wall`` of the passes that executed the tasks.  The
    rest is pool start, pickling, IPC and the parent's cache work."""
    return ratio(sum(task_durations), workers * wall)


def analysis_share(rollback_s: float, sim_s: float) -> float:
    """Offline rollback analysis time per simulated-run time (base:
    ``simmpi.run_s``); the ROADMAP gate is <= 0.1."""
    return ratio(rollback_s, sim_s)


def failed_frac(failed: int, attempted: int) -> float:
    """Failed ops per attempted op; an op that errors, fails an oracle or
    fails an output check counts once."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


# ----------------------------------------------------------------------
# Self-time attribution of sampled stacks
# ----------------------------------------------------------------------
#: modules reported on their own; every other module of a package listed
#: here lands in ``<package>.other``
OWN_MODULES = (
    "simmpi.engine", "simmpi.network", "simmpi.process", "simmpi.runtime",
    "simmpi.message", "simmpi.trace",
    "core.protocol", "core.state", "core.logstore", "core.checkpoint",
    "core.recovery", "core.controller",
    "analysis.rollback",
    "lint.sanitize",
    "service.cache", "service.scheduler",
    "obs.registry", "obs.flight",
)
#: packages (or top-level modules) reported as one bucket
WHOLE_PACKAGES = ("apps", "chaos", "sweep", "campaigns", "netmodel",
                  "baselines")
SPLIT_PACKAGES = tuple(sorted({m.split(".")[0] for m in OWN_MODULES}))
#: repro modules outside every bucket above (cli, errors, ...)
REPRO_OTHER = "repro.other"
#: samples with no repro frame: the benchmark itself and the interpreter
OUTSIDE = "outside"
#: time under copy.deepcopy, also billed to the deepcopy's repro caller
DEEPCOPY = "copy.deepcopy"


def self_time_buckets() -> list[str]:
    """Every bucket a sample can land in, in report order."""
    return ([*OWN_MODULES, *(f"{p}.other" for p in SPLIT_PACKAGES),
             *WHOLE_PACKAGES, REPRO_OTHER, OUTSIDE])


def bucket_of(module: str) -> str:
    """Bucket of a ``repro.*`` module name."""
    name = module[len("repro."):]
    if name in OWN_MODULES:
        return name
    package = name.split(".")[0]
    if package in SPLIT_PACKAGES:
        return f"{package}.other"
    if package in WHOLE_PACKAGES:
        return package
    return REPRO_OTHER


def attribute(frames: Sequence[tuple[str, str]]) -> tuple[str, bool]:
    """Owner bucket of one sampled stack, and whether it is under deepcopy.

    ``frames`` are ``(module, function)`` pairs, innermost first.  The
    sample belongs to the innermost ``repro.*`` frame, so time in the
    stdlib, numpy or pickle is billed to the repro code that called it;
    ``copy.deepcopy`` on the stack above that frame is flagged so the
    deepcopy share is reported beside the owners.
    """
    under_deepcopy = False
    for module, function in frames:
        if module.startswith("repro."):
            return bucket_of(module), under_deepcopy
        if module == "copy" and function == "deepcopy":
            under_deepcopy = True
    return OUTSIDE, under_deepcopy
