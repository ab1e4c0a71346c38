"""Equivalence property: the worklist recovery-line solver (with and
without an ``on_step`` tracer) and the Table I rollback closure compute
the same least fix-point as the literal Fig. 4 transcription.

The closure answers only line *sizes*, one per single-rank failure, from
a reachability graph over (rank, restart-epoch bound) nodes — a different
algorithm from the worklist — so it is pinned three ways:

* randomized SPE tables: every single-rank failure at every epoch,
  including ranks that appear only as receivers, failed ranks absent from
  the tables, and non-contiguous rank ids;
* :func:`rollback_analysis` over snapshot lists, with ``failed_ranks``
  subsets;
* real SPE snapshots of a 64-rank CG Table I cell, against the worklist.

The worklist itself is also checked on multi-failure unions, on repeated
solves on one instance (the explain/baseline usage), and on the full
protocol stack driving the minimized chaos reproducer schedules, where
every live ``solve`` call is cross-checked mid-recovery.
"""

import random

import pytest

from repro.chaos.schedule import FailureSpec, TrialSchedule
from repro.chaos.trial import run_trial_schedule
from repro.analysis.rollback import (
    SpeSnapshot,
    rollback_analysis,
    rollback_counts,
)
from repro.core.recovery import NaiveRecoveryLineSolver, RecoveryLineSolver


def _random_world(rng: random.Random):
    """Random SPE tables plus a failure set drawn from their epochs."""
    nprocs = rng.randint(2, 12)
    tables = {}
    for rank in range(nprocs):
        n_epochs = rng.randint(1, 5)
        spe = {}
        date = 0
        for epoch in range(1, n_epochs + 1):
            spe[epoch] = (date, {})
            date += rng.randint(0, 40)
        tables[rank] = spe
    # edges: sender k, from one of its epochs, to a peer, received in an
    # arbitrary epoch (receptions need not exist in the receiver's SPE —
    # only restart epochs must, and those are always sender-side epochs)
    for k in range(nprocs):
        for epoch_send in tables[k]:
            for _ in range(rng.randint(0, 3)):
                j = rng.randrange(nprocs)
                if j == k:
                    continue
                epoch_recv = rng.randint(1, 6)
                peers = tables[k][epoch_send][1]
                peers[j] = max(peers.get(j, 0), epoch_recv)
    n_failed = rng.randint(1, min(3, nprocs))
    failed = {}
    for rank in rng.sample(range(nprocs), n_failed):
        failed[rank] = rng.choice(sorted(tables[rank]))
    return tables, failed


def _assert_equivalent(tables, failed):
    ref = NaiveRecoveryLineSolver(tables).solve(failed)
    solver = RecoveryLineSolver(tables)
    fast = solver.solve(failed)
    steps = []
    traced = RecoveryLineSolver(tables).solve(
        failed, on_step=lambda *a: steps.append(a)
    )
    assert fast == ref
    assert traced == ref
    # the mapping's iteration order must also be rank-sorted (it can leak
    # into restore scheduling)
    assert list(fast) == list(ref) == list(traced) == sorted(ref)
    # repeating the solve on the same instance must not corrupt its index
    assert solver.solve(failed) == ref
    # every traced step lowers a bound onto an edge that exists
    for k, epoch_send, j, _epoch_recv, _bound in steps:
        assert epoch_send in tables[k]
    return solver, ref


def _assert_closure_matches(tables):
    """Closure counts == len(naive) == len(traced) for every single-rank
    failure at every epoch of the tables, failed ranks queried together
    (one closure per epoch, as the analysis queries one per snapshot)."""
    epochs = sorted({e for spe in tables.values() for e in spe})
    for epoch in epochs:
        restarts = {r: epoch for r, spe in tables.items() if epoch in spe}
        counts = rollback_counts(tables, restarts)
        assert set(counts) == set(restarts)
        for rank, count in counts.items():
            failed = {rank: epoch}
            ref = NaiveRecoveryLineSolver(tables).solve(failed)
            traced = RecoveryLineSolver(tables).solve(
                failed, on_step=lambda *a: None
            )
            assert count == len(ref) == len(traced), (rank, epoch)


def test_randomized_tables_and_failures():
    rng = random.Random(20110)
    for _ in range(300):
        tables, failed = _random_world(rng)
        _assert_equivalent(tables, failed)
        _assert_closure_matches(tables)


def test_closure_with_ranks_absent_from_tables():
    """Receivers with no SPE table of their own never roll back unless
    they fail; a failed rank absent from the tables rolls back itself plus
    whatever its inbound receptions force (the reference sees it as a rank
    with one empty epoch, which adds no edge)."""
    rng = random.Random(31)
    for _ in range(150):
        tables, _ = _random_world(rng)
        ranks = sorted(tables)
        dropped = set(rng.sample(ranks, rng.randint(1, max(1, len(ranks) // 3))))
        kept = {r: spe for r, spe in tables.items() if r not in dropped}
        if not kept:
            continue
        _assert_closure_matches(kept)
        for rank in sorted(dropped):
            epoch = rng.randint(1, 6)
            padded = {**kept, rank: {epoch: (0, {})}}
            ref = NaiveRecoveryLineSolver(padded).solve({rank: epoch})
            assert rollback_counts(kept, {rank: epoch}) == {rank: len(ref)}


def test_rollback_analysis_matches_reference_on_subsets():
    """The analysis aggregates closure counts per (snapshot, failed rank)
    in snapshot-major order, for all ranks or a ``failed_ranks`` subset."""
    rng = random.Random(5)
    for _ in range(60):
        snaps = []
        for t in range(rng.randint(1, 3)):
            tables, _ = _random_world(rng)
            snaps.append(SpeSnapshot(
                time=float(t), spe_tables=tables,
                epochs={r: rng.choice(sorted(spe)) for r, spe in tables.items()},
            ))
        nprocs = min(len(s.spe_tables) for s in snaps)
        subsets = [None, rng.sample(range(nprocs), rng.randint(1, nprocs))]
        for failed_ranks in subsets:
            stats = rollback_analysis(snaps, nprocs, failed_ranks)
            ranks = range(nprocs) if failed_ranks is None else failed_ranks
            expected = [
                len(NaiveRecoveryLineSolver(s.spe_tables).solve(
                    {f: s.epochs[f]}))
                for s in snaps for f in ranks
            ]
            assert stats.counts == expected
            assert stats.trials == len(expected)
            assert list(stats.per_rank_mean) == list(ranks)


def test_closure_matches_worklist_on_cg_snapshots():
    """Real SPE snapshots of a 64-rank CG Table I cell: the closure's
    count for every (snapshot, failed rank) equals the worklist's line."""
    from repro.apps import TABLE1_KERNELS
    from repro.analysis import SpeSampler
    from repro.core import ProtocolConfig, build_ft_world
    from repro.core.clustering import block_clusters

    nprocs = 64
    cls = TABLE1_KERNELS["CG"]
    config = ProtocolConfig(
        checkpoint_interval=6e-5, cluster_of=block_clusters(nprocs, 4),
        cluster_stagger=8e-6, rank_stagger=2e-7,
        lightweight=True, retain_payloads=False,
    )
    world, controller = build_ft_world(
        nprocs, lambda r, s: cls(r, s, niters=4, compute_time=1e-5), config,
        copy_payloads=False,
    )
    sampler = SpeSampler(controller, interval=7e-5)
    sampler.arm()
    world.launch()
    world.run()
    assert len(sampler.snapshots) >= 3
    for snap in sampler.snapshots:
        counts = rollback_counts(snap.spe_tables, snap.epochs)
        solver = RecoveryLineSolver(snap.spe_tables)
        for f in range(nprocs):
            line = solver.solve({f: snap.epochs[f]}, on_step=lambda *a: None)
            assert counts[f] == len(line), (snap.time, f)
    # the cell must exercise multi-rank lines, not trivial ones
    assert rollback_analysis(sampler.snapshots, nprocs).mean_count > 1


def test_repeated_solves_reuse_one_solver():
    """One solver per snapshot, one solve per failed rank (the domino
    baseline's pattern): solves must not bleed into each other."""
    rng = random.Random(4096)
    for _ in range(40):
        tables, _ = _random_world(rng)
        solver = RecoveryLineSolver(tables)
        for rank in sorted(tables):
            for epoch in sorted(tables[rank]):
                failed = {rank: epoch}
                assert solver.solve(failed) == NaiveRecoveryLineSolver(
                    tables
                ).solve(failed)


def test_multi_failure_union_matches_reference():
    rng = random.Random(7)
    for _ in range(100):
        tables, _ = _random_world(rng)
        ranks = sorted(tables)
        failed = {r: min(tables[r]) for r in ranks[: len(ranks) // 2 + 1]}
        _assert_equivalent(tables, failed)


def test_sparse_rank_ids_match_reference():
    """Non-contiguous rank ids (offline analyses can slice worlds) must
    match the reference, for the worklist and the closure."""
    rng = random.Random(99)
    for _ in range(60):
        tables, failed = _random_world(rng)
        remap = {r: r * 1_000_003 + 17 for r in tables}
        tables = {
            remap[k]: {
                e: (d, {remap[j]: er for j, er in peers.items()})
                for e, (d, peers) in spe.items()
            }
            for k, spe in tables.items()
        }
        failed = {remap[r]: e for r, e in failed.items()}
        _assert_equivalent(tables, failed)
        _assert_closure_matches(tables)


@pytest.mark.parametrize(
    "failures",
    [
        # the minimized chaos reproducers (tests/chaos/test_reproducers.py):
        # multi-failure and mid-recovery geometries
        (FailureSpec(1, "at", frac=0.5), FailureSpec(2, "drain", delta=1.0e-6)),
        (FailureSpec(1, "at", frac=0.5), FailureSpec(1, "restored", delta=1.2e-4)),
        (
            FailureSpec(1, "at", frac=0.4),
            FailureSpec(2, "drain", delta=0.0),
            FailureSpec(3, "drain", delta=0.0),
        ),
    ],
    ids=["drain-window", "rekill-restored", "queued-rounds"],
)
def test_live_recovery_solves_match_reference(monkeypatch, failures):
    """Cross-check every recovery-line solve the protocol stack performs
    while driving the reproducer schedules — real SPE tables, multiple
    failures, solves happening mid-recovery."""
    from repro.core import recovery as rec

    orig = rec.RecoveryLineSolver.solve
    solves = []

    def checking(self, failed_restarts, on_step=None):
        out = orig(self, failed_restarts, on_step)
        ref = NaiveRecoveryLineSolver(self.spe_tables).solve(failed_restarts)
        assert out == ref and list(out) == list(ref)
        # the traced and untraced solves must agree on the live tables
        if on_step is None:
            other = orig(
                rec.RecoveryLineSolver(self.spe_tables),
                failed_restarts,
                lambda *a: None,
            )
        else:
            other = orig(rec.RecoveryLineSolver(self.spe_tables), failed_restarts)
        assert other == ref
        solves.append(len(failed_restarts))
        return out

    monkeypatch.setattr(rec.RecoveryLineSolver, "solve", checking)
    sched = TrialSchedule(
        seed=3, kernel="stencil", nprocs=4, niters=20, failures=failures
    )
    result = run_trial_schedule(sched)
    assert result.passed, {
        name: result.detail(name) for name in result.failed_oracles()
    }
    assert solves, "schedule drove no recovery-line solves"
