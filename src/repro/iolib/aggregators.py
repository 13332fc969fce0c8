"""Baseline aggregator selection policies.

The MPI I/O implementations the paper compares against choose aggregators
without regard to data volumes or the full topology:

* **bridge-first / rank order** (MPICH on BG/Q): the first aggregator is the
  bridge node of the Pset, the remaining aggregators simply follow rank
  order — "This strategy takes into account neither the distance between the
  compute nodes and the storage system nor the amount of data exchanged"
  (Section IV-B);
* **rank order** (generic ROMIO / Cray MPI): aggregators are the first rank
  of every ``num_ranks / cb_nodes`` block;
* **random** — used in the ablation study as a worst-ish-case control.

All policies return *world ranks* (one aggregator per partition of ranks, in
partition order) so they can be compared one-for-one against the
topology-aware placement in :mod:`repro.core.placement`.
"""

from __future__ import annotations

import numpy as np

from repro.machine.machine import Machine
from repro.machine.mira import MiraMachine
from repro.topology.mapping import RankMapping
from repro.utils.rng import seeded_rng
from repro.utils.validation import require, require_positive


def partition_bounds(num_ranks: int, num_partitions: int) -> list[int]:
    """Boundaries of ``num_partitions`` contiguous rank blocks (first blocks larger).

    Block ``i`` is ``range(bounds[i], bounds[i + 1])``; there are at most
    ``num_ranks`` blocks.  Contiguous rank blocks own contiguous file regions
    for all the paper's workloads, which is the partition definition TAPIOCA
    uses ("a subset of nodes hosting processes sharing a contiguous piece of
    data in file").
    """
    require_positive(num_ranks, "num_ranks")
    require_positive(num_partitions, "num_partitions")
    num_partitions = min(num_partitions, num_ranks)
    base, extra = divmod(num_ranks, num_partitions)
    return [index * base + min(index, extra) for index in range(num_partitions + 1)]


def partition_ranks(num_ranks: int, num_partitions: int) -> list[list[int]]:
    """The blocks of :func:`partition_bounds` as lists of ranks."""
    bounds = partition_bounds(num_ranks, num_partitions)
    return [list(range(start, stop)) for start, stop in zip(bounds, bounds[1:])]


def rank_order_aggregators(
    num_ranks: int, num_aggregators: int
) -> list[int]:
    """Generic ROMIO policy: the first rank of each contiguous rank block."""
    return partition_bounds(num_ranks, num_aggregators)[:-1]


def bridge_first_aggregators(
    machine: Machine, mapping: RankMapping, num_aggregators: int
) -> list[int]:
    """MPICH-on-BG/Q policy: the bridge node's rank first, then rank order.

    For each partition, if a rank of the partition lives on a bridge node it
    becomes the aggregator; otherwise the partition's first rank is used.
    On machines without bridge nodes this degenerates to rank order.
    """
    bounds = np.asarray(partition_bounds(mapping.num_ranks, num_aggregators))
    if isinstance(machine, MiraMachine):
        bridge_nodes = machine.bridge_nodes()
    else:
        bridge_nodes = [gateway.node for gateway in machine.io_gateways()]
    starts, stops = bounds[:-1], bounds[1:]
    # The first bridge-hosted rank at or after each block start; the
    # appended sentinel (num_ranks) never falls inside a block.
    on_bridge = np.flatnonzero(np.isin(mapping.node_array, bridge_nodes))
    first = np.append(on_bridge, bounds[-1])[np.searchsorted(on_bridge, starts)]
    return np.where(first < stops, first, starts).tolist()


def random_aggregators(
    num_ranks: int, num_aggregators: int, *, seed: int | None = None
) -> list[int]:
    """One uniformly random aggregator per contiguous rank partition."""
    rng = seeded_rng(seed)
    bounds = partition_bounds(num_ranks, num_aggregators)
    return [
        start + int(rng.integers(0, stop - start))
        for start, stop in zip(bounds, bounds[1:])
    ]


def select_default_aggregators(
    machine: Machine,
    mapping: RankMapping,
    num_aggregators: int,
    *,
    policy: str = "default",
    seed: int | None = None,
) -> list[int]:
    """Dispatch to the named baseline policy.

    Args:
        machine: the platform (used by the bridge-first policy).
        mapping: rank-to-node mapping.
        num_aggregators: number of aggregators (= partitions).
        policy: ``"default"`` (bridge-first on machines that expose
            gateways, rank order otherwise), ``"rank-order"`` or ``"random"``.
        seed: RNG seed for the random policy.
    """
    require(num_aggregators >= 1, "need at least one aggregator")
    if policy == "default":
        if machine.io_locality_known():
            return bridge_first_aggregators(machine, mapping, num_aggregators)
        return rank_order_aggregators(mapping.num_ranks, num_aggregators)
    if policy == "rank-order":
        return rank_order_aggregators(mapping.num_ranks, num_aggregators)
    if policy == "random":
        return random_aggregators(mapping.num_ranks, num_aggregators, seed=seed)
    raise ValueError(
        f"unknown aggregator policy {policy!r}; "
        "expected 'default', 'rank-order' or 'random'"
    )
