"""The columnar C1+C2 election equals the scalar ``evaluate()`` reference.

:meth:`AggregationCostModel.best_candidate` prices every candidate of a
partition at once as a producers × candidates matrix.  These seeded
property tests compare it, candidate by candidate and bit for bit, with
:func:`repro.reference.reference_best_candidate`, the loop over the
per-candidate scalar :meth:`AggregationCostModel.evaluate`: on a machine
with known I/O locality (Mira), one without (Theta) and a generic cluster;
at rank and node granularity; with and without background contention; on
ties; and on invalid (negative) volumes.
"""

from __future__ import annotations

import pytest

from repro.core import cost_model
from repro.core.cost_model import AggregationCostModel
from repro.core.partitioning import Partition
from repro.core.placement import node_level_partitions
from repro.core.topology_iface import TopologyInterface
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.multijob.contention import LinkContentionFactors
from repro.reference import reference_best_candidate
from repro.topology.mapping import block_mapping, random_mapping
from repro.utils.rng import seeded_rng

RANKS_PER_NODE = 4

MACHINES = {
    "mira": lambda: MiraMachine(32, pset_size=16),
    "theta": lambda: ThetaMachine(32),
    "generic": lambda: generic_cluster(32, nodes_per_leaf=8, num_gateways=2),
}


def _model(kind: str, *, seed: int, contended: bool = False):
    machine = MACHINES[kind]()
    num_ranks = machine.num_nodes * RANKS_PER_NODE
    mapping = random_mapping(num_ranks, machine.num_nodes, RANKS_PER_NODE, seed=seed)
    contention = None
    if contended:
        rng = seeded_rng(seed)
        background = [
            (int(a), int(b)) for a, b in rng.integers(0, machine.num_nodes, (16, 2))
        ]
        contention = LinkContentionFactors(machine.topology, mapping, background)
    iface = TopologyInterface(machine, mapping)
    return AggregationCostModel(iface, contention=contention), num_ranks


def _random_partition(rng, num_ranks: int, size: int) -> Partition:
    ranks = sorted(int(r) for r in rng.choice(num_ranks, size=size, replace=False))
    volumes = [int(v) for v in rng.integers(0, 1 << 24, size=size)]
    volumes[int(rng.integers(0, size))] = 0  # an empty producer is legal
    return Partition(0, ranks, volumes)


def _bits(breakdown) -> tuple:
    return (
        breakdown.candidate,
        float(breakdown.aggregation).hex(),
        float(breakdown.io).hex(),
    )


def _assert_matches_scalar(model, candidates, partition) -> None:
    winner, breakdowns = model.best_candidate(candidates, partition)
    expected, reference = reference_best_candidate(
        model, candidates, partition.bytes_per_rank
    )
    assert [_bits(b) for b in breakdowns] == [_bits(b) for b in reference]
    assert winner == expected
    # The mapping form of the same volumes takes the same kernel.
    assert model.best_candidate(candidates, partition.bytes_per_rank) == (
        winner,
        breakdowns,
    )


@pytest.mark.parametrize("kind", sorted(MACHINES))
@pytest.mark.parametrize("contended", [False, True])
def test_rank_granularity_matches_scalar(kind, contended):
    rng = seeded_rng(101)
    for trial in range(4):
        model, num_ranks = _model(kind, seed=trial, contended=contended)
        partition = _random_partition(rng, num_ranks, size=int(rng.integers(1, 40)))
        candidates = [int(c) for c in rng.permutation(partition.rank_array)]
        _assert_matches_scalar(model, candidates, partition)


@pytest.mark.parametrize("kind", sorted(MACHINES))
@pytest.mark.parametrize("contended", [False, True])
def test_node_granularity_matches_scalar(kind, contended):
    rng = seeded_rng(202)
    for trial in range(4):
        model, num_ranks = _model(kind, seed=10 + trial, contended=contended)
        partition = _random_partition(rng, num_ranks, size=int(rng.integers(4, 64)))
        [collapsed] = node_level_partitions([partition], model.iface)
        _assert_matches_scalar(model, collapsed.rank_array.tolist(), collapsed)


@pytest.mark.parametrize("kind", sorted(MACHINES))
@pytest.mark.parametrize("contended", [False, True])
def test_pricing_in_small_column_blocks_matches_scalar(kind, contended, monkeypatch):
    """A partition whose matrix exceeds one block is priced in column slices."""
    monkeypatch.setattr(cost_model, "_BLOCK_CELLS", 7)
    rng = seeded_rng(404)
    for trial in range(3):
        model, num_ranks = _model(kind, seed=3 + trial, contended=contended)
        partition = _random_partition(rng, num_ranks, size=int(rng.integers(2, 30)))
        _assert_matches_scalar(model, partition.rank_array.tolist(), partition)


def test_a_large_partition_fetches_its_node_pair_tables_once(monkeypatch):
    """Theta at 4096 nodes with the default one-OST stripe elects over four
    1024-node partitions: each election gathers one node-pair table and
    slices it into many column blocks, never refetching it per block."""
    from repro.core.partitioning import build_partitions
    from repro.core.placement import place_aggregators
    from repro.topology.mapping import block_mapping
    from repro.workloads.ior import IORWorkload

    machine = ThetaMachine(4096)
    mapping = block_mapping(4096, 4096, 1)
    iface = TopologyInterface(machine, mapping)
    partitions = build_partitions(IORWorkload(4096, 1 << 20), 4)
    fetches = []
    original = TopologyInterface.node_pair_arrays

    def counting(self, nodes):
        fetches.append(len(nodes))
        return original(self, nodes)

    monkeypatch.setattr(TopologyInterface, "node_pair_arrays", counting)
    placement = place_aggregators(partitions, iface, granularity="node")
    assert fetches == [1024] * 4
    assert 1024 * 1024 > cost_model._BLOCK_CELLS  # so the blocks really slice
    assert len(placement.aggregators) == 4


@pytest.mark.parametrize("kind", sorted(MACHINES))
def test_candidates_outside_the_producers_match_scalar(kind):
    rng = seeded_rng(303)
    model, num_ranks = _model(kind, seed=7)
    partition = _random_partition(rng, num_ranks, size=12)
    outsiders = [r for r in range(num_ranks) if r not in partition.rank_array][:5]
    candidates = outsiders + partition.rank_array.tolist()[:3]
    _assert_matches_scalar(model, candidates, partition)


@pytest.mark.parametrize("kind", sorted(MACHINES))
def test_ties_break_toward_the_lowest_rank(kind):
    machine = MACHINES[kind]()
    num_ranks = machine.num_nodes * RANKS_PER_NODE
    mapping = block_mapping(num_ranks, machine.num_nodes, RANKS_PER_NODE)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    # Four ranks on one node with equal volumes: every candidate costs the same.
    partition = Partition(0, [8, 9, 10, 11], [1 << 20] * 4)
    winner, breakdowns = model.best_candidate([11, 9, 10, 8], partition)
    assert len({b.total for b in breakdowns}) == 1
    assert winner == 8
    _assert_matches_scalar(model, [11, 9, 10, 8], partition)


@pytest.mark.parametrize(
    "volumes, candidates",
    [
        ({0: 100, 1: -5, 2: 100}, [0, 2]),
        ({0: -7, 1: 3, 2: -9}, [0, 1]),  # the first candidate's own volume is skipped
        ({0: -7, 1: 3}, [0]),  # only the io_bytes total is left to fail
        ({0: 100, 3: -1}, [3, 5]),
    ],
)
def test_negative_volume_raises_the_scalar_message(volumes, candidates):
    machine = ThetaMachine(8)
    model = AggregationCostModel(TopologyInterface(machine, block_mapping(16, 8, 2)))
    with pytest.raises(ValueError) as scalar:
        reference_best_candidate(model, candidates, volumes)
    with pytest.raises(ValueError) as fast:
        model.best_candidate(candidates, volumes)
    assert str(fast.value) == str(scalar.value)
