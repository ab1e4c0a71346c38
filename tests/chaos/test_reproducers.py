"""Minimized chaos reproducers, landed as permanent regression tests.

Each schedule below is the shrunk form of a corner the chaos campaign
drives: a second failure arriving during the post-failure network drain,
a re-kill of a rank that just finished restoring, two failures queued
back-to-back behind an in-flight recovery round, and the ANY_SOURCE
reduction rounds that stall on cross-branch phase skew.  They pin today's
correct behavior — all five oracles must keep passing — and double as
documentation of the exact virtual-time geometry of each corner.
"""

from repro.chaos.schedule import FailureSpec, TrialSchedule
from repro.chaos.trial import run_trial_schedule


def _assert_all_oracles(result):
    assert result.passed, {
        name: result.detail(name) for name in result.failed_oracles()
    }


def test_failure_during_network_drain():
    """A second rank dies ~1 us after the first — inside the drain the
    recovery round runs before restoring (in-flight traffic purge)."""
    sched = TrialSchedule(
        seed=1, kernel="stencil", nprocs=4, niters=20,
        failures=(
            FailureSpec(1, "at", frac=0.5),
            FailureSpec(2, "drain", delta=1.0e-6),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    # the drain-window failure must not merge into the first round
    assert result.stats["recovery_rounds"] == 2
    assert result.stats["failures_fired"] == 2


def test_failure_of_just_restored_rank():
    """The rank that just came back from its checkpoint dies again right
    after resuming — its second restore must start from the re-uploaded
    SPE state, not the stale pre-round table."""
    sched = TrialSchedule(
        seed=2, kernel="stencil", nprocs=4, niters=20,
        failures=(
            FailureSpec(1, "at", frac=0.5),
            FailureSpec(1, "restored", delta=1.2e-4),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["recovery_rounds"] == 2
    # both kills hit rank 1
    assert [r for r, _t in result.stats["fired"]] == [1, 1]


def test_two_back_to_back_queued_rounds():
    """Two more failures land while round 1 is still in flight; both are
    queued and must drain as separate rounds after settle — not merge,
    not strand (the all-dead-batch loop in ``_poll_settled``)."""
    sched = TrialSchedule(
        seed=3, kernel="stencil2d", nprocs=4, niters=16,
        failures=(
            FailureSpec(0, "at", frac=0.45),
            FailureSpec(2, "recovery", delta=2.0e-5),
            FailureSpec(3, "recovery", delta=1.5e-5),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["recovery_rounds"] == 3
    assert result.stats["failures_fired"] == 3


def test_any_source_stall_rescue_keeps_phase_order():
    """ANY_SOURCE reduction, rank 0 dies 2 us into the drain after rank
    5's failure.  Round 2 stalls: rank 0 waits for an orphan re-send from
    rank 4 in phase 12, which needs rank 6's partial sum, which needs rank
    7's logged phase-12 replay — gated behind that same orphan (phases
    recorded in different execution branches).  The watchdog must release
    rank 7's replay, not every pending one: flushing them all let rank 5's
    *next-iteration* replay (phase 14) into rank 4's ANY_SOURCE receive
    ahead of rank 6's message, and rank 4 re-sent date 13 with a different
    sum (send_witness)."""
    sched = TrialSchedule(
        seed=3823231204599652711, kernel="reduce", nprocs=8, niters=27,
        clusters=4, checkpoint_interval=1.5e-5, checkpoint_jitter=0.15,
        checkpoint_seed=57703, rank_stagger=0.0,
        failures=(
            FailureSpec(5, "at", frac=0.2),
            FailureSpec(0, "drain", delta=2.0e-6),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["recovery_rounds"] == 2


def test_any_source_rekill_during_recovery():
    """Same defect through another geometry: rank 1 dies during rank 2's
    recovery round and again right after its restore."""
    sched = TrialSchedule(
        seed=7507968875361463874, kernel="reduce", nprocs=8, niters=33,
        clusters=1, checkpoint_interval=3e-5, checkpoint_jitter=0.15,
        checkpoint_seed=60994, rank_stagger=3e-6,
        failures=(
            FailureSpec(2, "at", frac=0.37),
            FailureSpec(1, "recovery", delta=6.0e-5),
            FailureSpec(1, "restored", delta=6.581322855354503e-05),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["failures_fired"] == 3


def test_any_source_same_phase_replays_wait_for_orphans():
    """Root rank 0 of the reduction is stuck waiting for rank 2's current
    iteration value, whose replay sits in the same phase as rank 1's
    *next*-iteration replay.  Rank 1 still awaits an orphan re-send from
    rank 0 at that phase, so its replay may depend on rank 0's re-sent
    total; the watchdog must release rank 2's replay first."""
    sched = TrialSchedule(
        seed=7796337159141067246, kernel="reduce", nprocs=8, niters=19,
        clusters=1, checkpoint_interval=3e-5, checkpoint_jitter=0.3,
        checkpoint_seed=2542, rank_stagger=0.0,
        failures=(
            FailureSpec(0, "at", frac=0.72),
            FailureSpec(4, "recovery", delta=4.0e-5),
            FailureSpec(3, "at", frac=0.72),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)


def test_any_source_stall_prefers_free_replay_over_release():
    """Fourth round of a four-failure reduction: the cycle runs through a
    logged replay at a *higher* phase (rank 3's value for rank 2) than the
    lowest pending one (rank 1's next-iteration value for rank 0, held
    behind its own orphan).  Releasing gated processes instead let rank 4
    race its next-iteration value into rank 0's ANY_SOURCE receive; the
    watchdog must emit the sender with no orphan wait first."""
    sched = TrialSchedule(
        seed=2048378661955980725, kernel="reduce", nprocs=6, niters=31,
        clusters=1, ack_batch=2, checkpoint_interval=3e-5,
        checkpoint_jitter=0.3, checkpoint_seed=19893, rank_stagger=1e-6,
        failures=(
            FailureSpec(4, "at", frac=0.26),
            FailureSpec(3, "drain", delta=5.0e-7),
            FailureSpec(4, "restored", delta=1.3793641029623816e-4),
            FailureSpec(0, "recovery", delta=1.0e-5),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["recovery_rounds"] == 4
