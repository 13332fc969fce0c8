"""Partitioning ranks for aggregation.

The paper calls a *partition* "a subset of nodes hosting processes sharing a
contiguous piece of data in file.  The number of aggregators defines the
partition size, each partition electing one aggregator among the processes."

For the workloads of the evaluation (IOR, HACC-IO) contiguous rank blocks own
contiguous file regions, so partitions are built as contiguous rank blocks —
either ``num_aggregators`` equal blocks (``partition_by="contiguous"``), or
aligned with the machine's I/O partitions (Psets on Mira,
``partition_by="pset"``) with the aggregators spread evenly across them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.iolib.aggregators import partition_bounds
from repro.machine.machine import Machine
from repro.obs import span as obs_span
from repro.topology.mapping import RankMapping
from repro.utils.validation import require, require_positive
from repro.workloads.base import Workload


@dataclass(frozen=True, eq=False)
class Partition:
    """One aggregation partition, stored as two aligned columns.

    Attributes:
        index: partition index (also the aggregator index).
        rank_array: world ranks belonging to the partition, ascending
            (read-only int64).
        volumes: bytes each member rank contributes (ω(i, A)), aligned with
            ``rank_array`` (read-only int64).  A ``rank -> bytes`` mapping
            is accepted at construction and turned into the column.
    """

    index: int
    rank_array: np.ndarray
    volumes: np.ndarray

    def __post_init__(self) -> None:
        ranks, volumes = _frozen(self.rank_array), self.volumes
        if not isinstance(volumes, np.ndarray) and isinstance(volumes, Mapping):
            require(
                set(volumes) == set(ranks.tolist()),
                "bytes_per_rank keys must match the partition ranks",
            )
            volumes = [volumes[rank] for rank in ranks.tolist()]
        volumes = _frozen(volumes)
        require(ranks.ndim == 1 and ranks.size > 0, "a partition needs at least one rank")
        require(volumes.shape == ranks.shape, "volumes must align with the partition ranks")
        object.__setattr__(self, "rank_array", ranks)
        object.__setattr__(self, "volumes", volumes)

    @property
    def total_bytes(self) -> int:
        """Total bytes aggregated by this partition (ω(A, IO))."""
        return int(self.volumes.sum())

    @property
    def size(self) -> int:
        """Number of ranks in the partition."""
        return int(self.rank_array.size)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Member ranks as a tuple: a lazy view for the discrete-event path."""
        return tuple(self.rank_array.tolist())

    @cached_property
    def bytes_per_rank(self) -> dict[int, int]:
        """``rank -> bytes``: a lazy view for the scalar cost model."""
        return dict(zip(self.rank_array.tolist(), self.volumes.tolist()))


def _frozen(column) -> np.ndarray:
    """``column`` as a read-only int64 array, never freezing the caller's."""
    if isinstance(column, np.ndarray) and column.dtype == np.int64 and not column.flags.writeable:
        return column
    view = np.asarray(column, dtype=np.int64).view()
    view.setflags(write=False)
    return view


def _split(
    start: int, ranks: np.ndarray, volumes: np.ndarray, num_blocks: int
) -> list[Partition]:
    """Cut aligned rank/volume columns into contiguous partitions."""
    bounds = partition_bounds(ranks.size, num_blocks)
    return [
        Partition(start + index, ranks[lo:hi], volumes[lo:hi])
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def build_partitions(
    workload: Workload,
    num_aggregators: int,
    *,
    machine: Machine | None = None,
    mapping: RankMapping | None = None,
    partition_by: str = "contiguous",
) -> list[Partition]:
    """Split the workload's ranks into aggregation partitions.

    Args:
        workload: the declared I/O workload (provides per-rank volumes).
        num_aggregators: number of partitions to build.
        machine: required for ``partition_by="pset"``.
        mapping: rank-to-node mapping, required for ``partition_by="pset"``.
        partition_by: ``"contiguous"`` or ``"pset"``.

    Returns:
        Partitions in ascending rank order; their union is exactly the
        workload's ranks and they are pairwise disjoint.  Every partition
        is a slice of the workload's :meth:`~repro.workloads.base.Workload.
        rank_bytes` column.
    """
    require_positive(num_aggregators, "num_aggregators")
    if partition_by not in ("contiguous", "pset"):
        raise ValueError(
            f"partition_by must be 'contiguous' or 'pset', got {partition_by!r}"
        )
    if partition_by == "pset" and (machine is None or mapping is None):
        raise ValueError("partition_by='pset' requires machine and mapping")
    with obs_span("partitioning", cat="core", partition_by=partition_by):
        ranks = np.arange(workload.num_ranks, dtype=np.int64)
        ranks.setflags(write=False)
        volumes = workload.rank_bytes()
        if partition_by == "contiguous":
            return _split(0, ranks, volumes, num_aggregators)
        # Group ranks by the machine's I/O partition of their node (one
        # lookup per distinct node), then split each group into its share
        # of the aggregators.  The stable sort keeps ranks ascending.
        nodes, node_of_rank = np.unique(mapping.nodes_of(ranks), return_inverse=True)
        group_of_node = np.array(
            [machine.partition_of_node(node) for node in nodes.tolist()],
            dtype=np.int64,
        )
        groups = group_of_node[node_of_rank]
        order = np.argsort(groups, kind="stable")
        grouped_volumes = volumes[order]
        for column in (order, grouped_volumes):
            column.setflags(write=False)
        group_ids, group_sizes = np.unique(groups, return_counts=True)
        per_group = max(1, num_aggregators // group_ids.size)
        partitions: list[Partition] = []
        bounds = np.concatenate(([0], np.cumsum(group_sizes))).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            partitions.extend(
                _split(len(partitions), order[lo:hi], grouped_volumes[lo:hi], per_group)
            )
        return partitions


def partition_of_rank(partitions: list[Partition], rank: int) -> Partition:
    """The partition containing ``rank``.

    Raises:
        KeyError: if no partition contains the rank.
    """
    for partition in partitions:
        if rank in partition.rank_array:
            return partition
    raise KeyError(f"rank {rank} is not in any partition")
