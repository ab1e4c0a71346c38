"""Offline rollback analysis — the paper's Table I methodology (Sec. V-E-1).

    "To compute the number of processes to roll back, the SPE table of all
    processes is saved every 30 s during the execution.  We analyze these
    data offline and run the recovery protocol: for each version of SPE,
    we compute the rollbacks that would be induced by the failure of each
    process.  Then, we can compute an estimation of the average number of
    processes to roll back in the event of a failure."

:class:`SpeSampler` attaches to a live controller and snapshots every
rank's SPE table at a fixed virtual period; :func:`rollback_analysis`
answers, for every snapshot, how many ranks the failure of each process
would roll back, and aggregates the statistics the paper reports (``%rl``).

All failures of one snapshot query the same monotone rollback-dependency
graph, so instead of one recovery-line fix-point per (snapshot, failed
rank) pair, :func:`rollback_counts` builds that graph once and closes it
(the reachability view of CIC in Garcia et al., arXiv:1702.06167):

* a node ``(j, b)`` stands for "rank ``j`` restarts at epoch ``b`` or
  below", for every sending epoch ``b`` of ``j`` plus ``j``'s queried
  restart epoch;
* an SPE entry "``k`` sent from ``Es`` to ``j``, received in ``Er``" adds
  the edge (``j``, largest bound of ``j`` <= ``Er``) -> (``k``, ``Es``):
  ``j`` re-executing that reception forces ``k`` to re-send;
* a chain edge links ``(j, b)`` to ``(j, next larger bound)``, since
  restarting at or below ``b`` is restarting at or below any larger bound.

A failure's rollback count is the number of distinct ranks reachable from
``(f, restart epoch)`` — exactly ``len()`` of the Fig. 4 fix-point's
recovery line, which is the least fix-point of the same implications.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..core.controller import FTController

__all__ = ["SpeSnapshot", "SpeSampler", "RollbackStats", "rollback_analysis",
           "rollback_counts"]


@dataclass
class SpeSnapshot:
    """All ranks' SPE tables + current epochs at one instant."""

    time: float
    spe_tables: dict[int, dict]  # rank -> spe export
    epochs: dict[int, int]       # rank -> current epoch (= latest ckpt epoch)


class SpeSampler:
    """Periodically snapshots the SPE tables of a running world."""

    def __init__(self, controller: FTController, interval: float,
                 first_at: float | None = None):
        self.controller = controller
        self.interval = interval
        self.snapshots: list[SpeSnapshot] = []
        self._first_at = interval if first_at is None else first_at

    def arm(self) -> None:
        assert self.controller.world is not None
        self.controller.world.engine.schedule_at(self._first_at, self._tick)

    def _tick(self) -> None:
        assert self.controller.world is not None
        if self.controller.world.all_done:
            return  # stop the timer or the event queue never drains
        self.take()
        self.controller.world.engine.schedule(self.interval, self._tick)

    def take(self) -> SpeSnapshot:
        """Record one snapshot immediately."""
        ctl = self.controller
        snap = SpeSnapshot(
            time=ctl.now,
            spe_tables={r: p.state.spe_export() for r, p in enumerate(ctl.protocols)},
            epochs={r: p.state.epoch for r, p in enumerate(ctl.protocols)},
        )
        self.snapshots.append(snap)
        return snap


@dataclass
class RollbackStats:
    """Aggregated rollback statistics over (snapshot × failed rank) trials."""

    nprocs: int
    trials: int
    #: rolled-back process count for each trial
    counts: list[int] = field(default_factory=list)
    #: per failed rank: mean rolled-back count across snapshots
    per_rank_mean: dict[int, float] = field(default_factory=dict)

    @property
    def mean_count(self) -> float:
        return float(np.mean(self.counts)) if self.counts else 0.0

    @property
    def mean_fraction(self) -> float:
        return self.mean_count / self.nprocs if self.nprocs else 0.0

    @property
    def percent(self) -> float:
        """The paper's ``%rl`` column."""
        return 100.0 * self.mean_fraction

    def worst_fraction(self) -> float:
        return max(self.counts) / self.nprocs if self.counts else 0.0

    def best_fraction(self) -> float:
        return min(self.counts) / self.nprocs if self.counts else 0.0


def rollback_counts(
    spe_tables: dict[int, dict],
    restarts: dict[int, int],
) -> dict[int, int]:
    """Recovery-line size for each single-rank failure of one snapshot.

    ``restarts`` maps each rank to consider failing to the epoch it would
    restart at; the result maps it to the number of ranks its failure
    rolls back (itself included) — ``len(compute_recovery_line(spe_tables,
    {f: restarts[f]}))`` for every ``f``, from one graph closure.  Like a
    count, this resolves no dates, so it does not validate restart epochs
    against the SPE tables.
    """
    # bound nodes per rank: its non-empty sending epochs, plus its restart
    bounds: dict[int, set[int]] = {}
    for k, spe in spe_tables.items():
        sending = {es for es, (_date, peers) in spe.items() if peers}
        if sending:
            bounds[k] = sending
    for f, epoch in restarts.items():
        bounds.setdefault(f, set()).add(epoch)
    # rank -> (ascending bounds, id of its first node); one bit per rank
    nodes: dict[int, tuple[list[int], int]] = {}
    succ: list[list[int]] = []
    bit: list[int] = []
    for pos, (rank, rank_bounds) in enumerate(bounds.items()):
        ordered = sorted(rank_bounds)
        first = len(succ)
        nodes[rank] = (ordered, first)
        last = first + len(ordered) - 1
        succ.extend([i + 1] for i in range(first, last))
        succ.append([])
        bit.extend([1 << pos] * len(ordered))
    for k, spe in spe_tables.items():
        for es, (_date, peers) in spe.items():
            if not peers:
                continue
            k_bounds, k_first = nodes[k]
            target = k_first + bisect_left(k_bounds, es)
            for j, er in peers.items():
                j_node = nodes.get(j)
                if j_node is None:
                    continue  # j sends nothing and is not queried: it never rolls back
                i = bisect_right(j_node[0], er)
                if i:
                    succ[j_node[1] + i - 1].append(target)
    roots = {f: nodes[f][1] + bisect_left(nodes[f][0], e)
             for f, e in restarts.items()}
    reach = _reachable_bits(succ, bit, roots.values())
    return {f: reach[v].bit_count() for f, v in roots.items()}


def _reachable_bits(succ: list[list[int]], bit: list[int],
                    roots: Iterable[int]) -> list[int]:
    """Bitset of the ranks reachable from each node reachable from
    ``roots`` (0 for the others), by one iterative Tarjan SCC pass.

    Tarjan emits components in reverse topological order, so when a
    component closes every component it points into is already final: its
    bitset is its own rank bits ORed with theirs.  A node with a non-zero
    bitset is in a closed component; a visited node without one is still
    on the Tarjan stack.
    """
    order = [0] * len(succ)  # DFS number, 0 = unvisited
    low = [0] * len(succ)
    reach = [0] * len(succ)
    stack: list[int] = []
    counter = 0
    for root in roots:
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, edges = calls[-1]
            for w in edges:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                if not reach[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                calls.pop()
                if calls:
                    u = calls[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    members = []
                    acc = 0
                    while True:
                        x = stack.pop()
                        members.append(x)
                        acc |= bit[x]
                        if x == v:
                            break
                    for x in members:
                        for w in succ[x]:
                            acc |= reach[w]
                    for x in members:
                        reach[x] = acc
    return reach


def rollback_analysis(
    snapshots: list[SpeSnapshot],
    nprocs: int,
    failed_ranks: list[int] | None = None,
) -> RollbackStats:
    """Run the recovery protocol offline for every (snapshot, failure).

    A failed process restarts at its latest checkpoint, i.e. the beginning
    of its current epoch; every rank appearing in the resulting recovery
    line rolls back (including the failed one).  One
    :func:`rollback_counts` closure per snapshot answers all its failures.
    """
    ranks = list(range(nprocs)) if failed_ranks is None else failed_ranks
    stats = RollbackStats(nprocs=nprocs, trials=len(snapshots) * len(ranks))
    per_rank: dict[int, list[int]] = {r: [] for r in ranks}
    for snap in snapshots:
        counts = rollback_counts(snap.spe_tables,
                                 {f: snap.epochs[f] for f in ranks})
        for f in ranks:
            stats.counts.append(counts[f])
            per_rank[f].append(counts[f])
    stats.per_rank_mean = {
        r: float(np.mean(v)) if v else 0.0 for r, v in per_rank.items()
    }
    return stats
