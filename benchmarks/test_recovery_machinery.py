"""Recovery machinery micro-benchmarks.

Section III-B of the paper notes that "for very large scale applications,
computing the recovery line could be expensive because it requires to scan
the table again every time a rollback is found" and suggests parallel
scanning.  Our worklist solver rescans only the inbound entries of ranks
whose restart bound dropped (and the Table I analysis replaces per-failure
solves with one graph closure per snapshot); this benchmark
measures how the recovery-line computation and a full live recovery scale
with the rank count, and times checkpoint capture.
"""

import random

import pytest

from repro.apps import Stencil1D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.recovery import RecoveryLineSolver, compute_recovery_line

from conftest import emit, format_table, is_paper_scale


def synthetic_spe(nprocs: int, epochs: int = 6, degree: int = 8, seed: int = 1):
    """Random-but-plausible SPE tables: each rank talks to ``degree``
    neighbours, reception epochs near sending epochs (non-logged rule)."""
    rng = random.Random(seed)
    tables = {}
    for rank in range(nprocs):
        table = {}
        date = 0
        for e in range(1, epochs + 1):
            peers = {}
            for _ in range(degree):
                peer = rng.randrange(nprocs)
                if peer != rank:
                    peers[peer] = max(1, e - rng.randrange(2))
            table[e] = (date, peers)
            date += rng.randrange(1, 20)
        tables[rank] = table
    return tables


SIZES = [64, 256, 1024] if is_paper_scale() else [64, 256]


@pytest.fixture(scope="module")
def scaling_rows():
    import time

    rows = []
    for nprocs in SIZES:
        tables = synthetic_spe(nprocs)
        solver = RecoveryLineSolver(tables)
        t0 = time.perf_counter()
        trials = 50
        total_rolled = 0
        for f in range(trials):
            rl = solver.solve({f % nprocs: max(tables[f % nprocs])})
            total_rolled += len(rl)
        dt = (time.perf_counter() - t0) / trials
        rows.append([nprocs, f"{dt * 1e3:.3f}", f"{total_rolled / trials:.1f}"])
    return rows


def test_recovery_line_scaling_table(scaling_rows, benchmark):
    table = format_table(
        ["ranks", "recovery-line ms (worklist)", "mean rolled back"],
        scaling_rows,
    )
    emit("recovery_machinery.txt", table)
    tables = synthetic_spe(SIZES[-1])
    solver = RecoveryLineSolver(tables)
    benchmark(lambda: solver.solve({0: max(tables[0])}))


def test_recovery_line_reuses_index(benchmark):
    """Amortisation check: reusing the solver's index across failure
    hypotheses (the domino baseline's pattern) is much cheaper than
    rebuilding it per failure."""
    tables = synthetic_spe(256)
    solver = RecoveryLineSolver(tables)

    def amortised():
        for f in range(16):
            solver.solve({f: max(tables[f])})

    benchmark(amortised)


def test_recovery_line_wrapper_equivalent(benchmark):
    tables = synthetic_spe(64)
    solver = RecoveryLineSolver(tables)

    def check():
        for f in (0, 5, 63):
            assert solver.solve({f: max(tables[f])}) == compute_recovery_line(
                tables, {f: max(tables[f])}
            )
        return True

    assert benchmark(check)


def test_live_recovery_latency(benchmark):
    """Wall-clock cost of a full live recovery round (kill, drain, line,
    replay, resume) on a small world — a regression canary for the
    controller's polling machinery."""
    def run():
        world, ctl = build_ft_world(
            8, lambda r, s: Stencil1D(r, s, niters=20, cells=4),
            ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
        )
        ctl.inject_failure(5e-5, 3)
        ctl.arm()
        world.launch()
        world.run()
        return len(ctl.recovery_reports)

    assert benchmark(run) == 1


def test_checkpoint_capture_cost(benchmark):
    """Time to capture one full checkpoint (app snapshot + protocol state
    deep copy) for a mid-sized rank state."""
    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=10, cells=4096),
        ProtocolConfig(),
    )
    world.launch()
    world.run()
    ctl.protocols[0].state.begin_epoch()
    counter = iter(range(10**9))

    def capture():
        # bump the epoch each time so the store accepts the checkpoint
        ctl.protocols[0].state.epoch = 100 + next(counter)
        ctl.store_checkpoint(0)

    benchmark(capture)
