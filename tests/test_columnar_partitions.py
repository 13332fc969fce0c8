"""The columnar rank layer: per-rank byte columns, partitions, node collapse.

Partitions are slices of a workload's ``rank_bytes()`` column and the pset
path groups ranks with one node-array gather.  These tests hold each
columnar step to a per-rank reference written the way the layer used to
work, including on mappings where the pset groups are not contiguous.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partitioning import Partition, build_partitions, partition_of_rank
from repro.core.placement import node_level_partitions
from repro.core.topology_iface import TopologyInterface
from repro.iolib.aggregators import (
    bridge_first_aggregators,
    partition_bounds,
    partition_ranks,
)
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.topology.mapping import block_mapping, random_mapping, round_robin_mapping
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload


def _reference_pset_blocks(workload, num_aggregators, machine, mapping):
    """The per-rank pset grouping: one node lookup per rank."""
    groups: dict[int, list[int]] = {}
    for rank in range(workload.num_ranks):
        node = mapping.node(rank)
        groups.setdefault(machine.partition_of_node(node), []).append(rank)
    per_group = max(1, num_aggregators // len(groups))
    blocks = []
    for group_id in sorted(groups):
        members = sorted(groups[group_id])
        for block in partition_ranks(len(members), per_group):
            blocks.append(tuple(members[i] for i in block))
    return blocks


class TestRankBytes:
    def test_non_uniform_column_matches_per_rank_accessor(self):
        workload = SyntheticWorkload(13, seed=4, max_segment_bytes=1 << 12)
        assert not workload.is_uniform()
        column = workload.rank_bytes()
        assert column.dtype == np.int64
        assert column.tolist() == [workload.bytes_per_rank(r) for r in range(13)]
        assert not column.flags.writeable
        assert workload.rank_bytes() is column  # built once per workload

    def test_uniform_column_calls_the_accessor_once(self):
        calls = []

        class Counted(HACCIOWorkload):
            def bytes_per_rank(self, rank=0):
                calls.append(rank)
                return super().bytes_per_rank(rank)

        workload = Counted(64, 1_000)
        assert workload.rank_bytes().tolist() == [38_000] * 64
        workload.rank_bytes()
        assert calls == [0]

    def test_subclass_override_of_bytes_per_rank_is_honoured(self):
        class Skewed(IORWorkload):
            def bytes_per_rank(self, rank=0):
                return 100 * rank

            def is_uniform(self):
                return False

        workload = Skewed(8, transfer_size=64)
        assert workload.rank_bytes().tolist() == [100 * r for r in range(8)]
        partitions = build_partitions(workload, 3)
        for partition in partitions:
            assert partition.volumes.tolist() == [100 * r for r in partition.ranks]


class TestPartitions:
    @pytest.mark.parametrize(
        "make_mapping",
        [
            lambda: round_robin_mapping(256, 64, 4),
            lambda: random_mapping(256, 64, 4, seed=9),
            lambda: random_mapping(250, 64, 4, seed=3),
        ],
    )
    @pytest.mark.parametrize("num_aggregators", [1, 4, 7, 16])
    def test_pset_path_matches_the_per_rank_reference(self, make_mapping, num_aggregators):
        machine = MiraMachine(64, pset_size=16)
        mapping = make_mapping()
        workload = SyntheticWorkload(mapping.num_ranks, seed=5)
        partitions = build_partitions(
            workload, num_aggregators, machine=machine, mapping=mapping, partition_by="pset"
        )
        expected = _reference_pset_blocks(workload, num_aggregators, machine, mapping)
        assert [p.ranks for p in partitions] == expected
        assert [p.index for p in partitions] == list(range(len(expected)))
        for partition in partitions:
            assert partition.bytes_per_rank == {
                r: workload.bytes_per_rank(r) for r in partition.ranks
            }

    def test_pset_path_rejects_ranks_beyond_the_mapping(self):
        machine = MiraMachine(32, pset_size=16)
        mapping = block_mapping(64, 32, 2)
        with pytest.raises(ValueError, match=r"rank 64 out of range \[0, 64\)"):
            build_partitions(
                IORWorkload(80, transfer_size=64),
                4,
                machine=machine,
                mapping=mapping,
                partition_by="pset",
            )

    def test_contiguous_partitions_are_slices_of_the_column(self):
        workload = SyntheticWorkload(23, seed=1)
        partitions = build_partitions(workload, 5)
        bounds = partition_bounds(23, 5)
        assert [p.ranks for p in partitions] == [
            tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
        ]
        column = workload.rank_bytes()
        for partition in partitions:
            assert np.shares_memory(partition.volumes, column)
            assert partition.total_bytes == int(column[partition.rank_array].sum())

    def test_partition_of_rank_reads_the_arrays(self):
        workload = IORWorkload(40, transfer_size=64)
        partitions = build_partitions(workload, 6)
        for rank in range(40):
            partition = partition_of_rank(partitions, rank)
            lo, hi = partition.rank_array[0], partition.rank_array[-1]
            assert lo <= rank <= hi
        with pytest.raises(KeyError):
            partition_of_rank(partitions, 40)
        # Membership never built the lazy per-rank views.
        for partition in partitions:
            assert "ranks" not in partition.__dict__
            assert "bytes_per_rank" not in partition.__dict__

    def test_columns_are_read_only_and_the_caller_keeps_its_arrays(self):
        ranks = np.array([3, 4, 5])
        partition = Partition(0, ranks, np.array([1, 2, 3]))
        assert not partition.rank_array.flags.writeable
        assert ranks.flags.writeable
        assert partition.bytes_per_rank == {3: 1, 4: 2, 5: 3}
        assert Partition(1, (3, 4), {4: 7, 3: 6}).volumes.tolist() == [6, 7]


class TestNodeCollapse:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_rank_reference(self, seed):
        machine = generic_cluster(32, nodes_per_leaf=8)
        mapping = random_mapping(128, 32, 4, seed=seed)
        iface = TopologyInterface(machine, mapping)
        workload = SyntheticWorkload(128, seed=seed)
        partitions = build_partitions(workload, 3)
        collapsed_partitions = node_level_partitions(partitions, iface)
        for partition, collapsed in zip(partitions, collapsed_partitions):
            volumes_by_node: dict[int, int] = {}
            representative: dict[int, int] = {}
            for rank in partition.ranks:
                node = mapping.node(rank)
                volumes_by_node[node] = (
                    volumes_by_node.get(node, 0) + partition.bytes_per_rank[rank]
                )
                representative[node] = min(representative.get(node, rank), rank)
            assert collapsed.index == partition.index
            assert collapsed.ranks == tuple(sorted(representative.values()))
            assert collapsed.bytes_per_rank == {
                representative[node]: volume for node, volume in volumes_by_node.items()
            }


class TestBridgeFirst:
    @pytest.mark.parametrize("num_aggregators", [1, 3, 8, 32])
    def test_matches_the_per_rank_reference(self, num_aggregators):
        machine = MiraMachine(64, pset_size=16)
        mapping = random_mapping(256, 64, 4, seed=11)
        bridges = set(machine.bridge_nodes())
        expected = []
        for block in partition_ranks(mapping.num_ranks, num_aggregators):
            on_bridge = [rank for rank in block if mapping.node(rank) in bridges]
            expected.append(on_bridge[0] if on_bridge else block[0])
        assert bridge_first_aggregators(machine, mapping, num_aggregators) == expected
