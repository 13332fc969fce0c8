"""Scalar reference implementations: the oracles the production paths match.

Production code has one path per behaviour, and several of those paths are
array or memoised forms of a plain loop: the columnar C1+C2 election
(:meth:`~repro.core.cost_model.AggregationCostModel.best_candidate`), the
vectorised water-filling of :class:`~repro.multijob.contention.ContentionLedger`
and the array-state slice loop of
:class:`~repro.multijob.runtime.MultiJobRuntime`.  This module keeps the
plain loops.  Each production path is bit-for-bit equal to its reference
here, which the property tests, the interference equivalence test and
``repro bench`` check by calling these names directly.

Production code never imports this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.cost_model import AggregationCostModel, CostBreakdown
from repro.core.partitioning import Partition
from repro.core.placement import PlacementResult, node_level_partitions
from repro.core.topology_iface import TopologyInterface
from repro.multijob.contention import _EPS, ContentionLedger
from repro.multijob.runtime import _BYTES_EPS, _REL_BYTES_EPS, MultiJobRuntime
from repro.obs import recorder as obs_recorder


def reference_best_candidate(
    model: AggregationCostModel, candidates: Iterable[int], volumes: Mapping[int, int]
) -> tuple[int, list[CostBreakdown]]:
    """:meth:`AggregationCostModel.best_candidate` as a loop over ``evaluate()``.

    Ties go to the lowest rank, as with ``MPI_Allreduce(MINLOC)``.
    """
    breakdowns = [model.evaluate(int(c), volumes) for c in candidates]
    return min(breakdowns, key=lambda b: (b.total, b.candidate)).candidate, breakdowns


def reference_placement(
    partitions: list[Partition],
    iface: TopologyInterface,
    *,
    granularity: str = "rank",
) -> PlacementResult:
    """The topology-aware ``place_aggregators`` elected by :func:`reference_best_candidate`."""
    if granularity == "node":
        partitions = node_level_partitions(partitions, iface)
    model = AggregationCostModel(iface)
    result = PlacementResult(strategy="topology-aware", aggregators=[])
    for partition in partitions:
        winner, breakdowns = reference_best_candidate(
            model, partition.rank_array.tolist(), partition.bytes_per_rank
        )
        result.aggregators.append(winner)
        result.breakdowns[partition.index] = next(
            b for b in breakdowns if b.candidate == winner
        )
    return result


class ReferenceContentionLedger(ContentionLedger):
    """:class:`ContentionLedger` solved by a dict-based loop, without a memo.

    Every call is a fresh solve, so ``sim.contention_allocations`` counts
    every call; ``sim.contention_iterations`` equals the production ledger's.
    """

    def allocate(self, active: Iterable[str] | None = None) -> dict[str, float]:
        """Max-min fair rates (bytes/s) for the active flows."""
        rate, iterations = self._allocate_scalar(self._active_ids(active))
        rec = obs_recorder()
        if rec is not None:
            rec.inc("sim.contention_iterations", iterations)
            rec.inc("sim.contention_allocations")
        return rate

    def _allocate_scalar(self, ids: Sequence[str]) -> tuple[dict[str, float], int]:
        """Reference progressive-filling loop over plain dicts.

        Flows are visited in ``ids`` order and resources in registration
        order everywhere a float accumulates, so the result is reproducible
        and bit-comparable with the vectorised path.
        """
        rate = {flow_id: 0.0 for flow_id in ids}
        used = {key: 0.0 for key in self.resources}
        unfrozen = list(ids)
        iterations = 0
        while unfrozen:
            iterations += 1
            # How far can every unfrozen rate rise together?
            step = min(
                self.flows[flow_id].demand - rate[flow_id] for flow_id in unfrozen
            )
            binding_keys: list[tuple] = []
            for key, capacity in self.resources.items():
                weight_sum = 0.0
                for flow_id in unfrozen:
                    weight_sum += self.flows[flow_id].weights.get(key, 0.0)
                if weight_sum <= 0.0:
                    continue
                headroom = (capacity - used[key]) / weight_sum
                if headroom < step - _EPS * capacity:
                    step = max(0.0, headroom)
                    binding_keys = [key]
                elif abs(headroom - step) <= _EPS * capacity:
                    binding_keys.append(key)
            if step > 0.0:
                for flow_id in unfrozen:
                    rate[flow_id] += step
                    for key, weight in self.flows[flow_id].weights.items():
                        used[key] += step * weight
            # Freeze flows that hit their demand or touch a saturated resource.
            saturated = set(binding_keys)
            for key, capacity in self.resources.items():
                if used[key] >= capacity * (1.0 - _EPS):
                    saturated.add(key)
            newly_frozen = {
                flow_id
                for flow_id in unfrozen
                if rate[flow_id] >= self.flows[flow_id].demand * (1.0 - _EPS)
                or any(key in saturated for key in self.flows[flow_id].weights)
            }
            if not newly_frozen:
                # Every remaining flow advanced to its demand cap.
                break
            unfrozen = [
                flow_id for flow_id in unfrozen if flow_id not in newly_frozen
            ]
        return rate, iterations


class ReferenceMultiJobRuntime(MultiJobRuntime):
    """:class:`MultiJobRuntime` on the per-job scalar slice loop and ledger."""

    ledger_class = ReferenceContentionLedger

    def _advance(self, peak: dict[tuple, float], now: float) -> None:
        """The original per-job fluid loop over plain Python state."""
        done_at = {
            job.name: job.total_bytes
            - max(_BYTES_EPS, job.total_bytes * _REL_BYTES_EPS)
            for job in self.jobs
        }
        pending = {job.name: job for job in self.jobs}
        while pending:
            active = [
                job for job in pending.values() if job.ready_s <= now + _BYTES_EPS
            ]
            future_ready = [
                job.ready_s for job in pending.values() if job.ready_s > now
            ]
            if not active:
                now = min(future_ready)
                continue
            for job in active:
                if job.io_start_s is None:
                    job.io_start_s = max(now, job.ready_s)
            rates = self.ledger.allocate([job.name for job in active])
            if all(rates[job.name] == 0.0 for job in active):
                # Nothing moves this slice; jump to the next arrival, or —
                # when there is none — nothing will ever move again.
                if not future_ready:
                    raise self._starved([job.name for job in active])
                now = min(future_ready)
                continue
            for key, usage in self.ledger.utilization(rates).items():
                capacity = self.ledger.resources[key]
                peak[key] = max(peak[key], usage / capacity)
            # Advance to the earliest of: slice end, a completion, an arrival.
            horizon = now + self.slice_s
            if future_ready:
                horizon = min(horizon, min(future_ready))
            for job in active:
                rate = rates[job.name]
                if rate > 0.0:
                    remaining = job.total_bytes - job.bytes_done
                    horizon = min(horizon, now + remaining / rate)
            dt = max(horizon - now, 0.0)
            for job in active:
                job.bytes_done += rates[job.name] * dt
            now = horizon
            completed = False
            for job in list(active):
                if job.bytes_done >= done_at[job.name]:
                    job.finish_s = now
                    self.ledger.remove_flow(job.name)
                    del pending[job.name]
                    completed = True
            if dt == 0.0 and not completed:
                # A zero-width slice that completes nothing recomputes the
                # identical state next iteration — a numerical stall.
                raise self._starved([job.name for job in active])
