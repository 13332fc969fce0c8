"""The aggregator-placement cost model (paper, Section IV-B).

For one partition and one candidate aggregator ``A``:

* aggregation cost — the cost of every producer shipping its data to ``A``::

      C1 = Σ_{i ∈ V_C, i ≠ A}  ( l · d(i, A) + ω(i, A) / B_{i→A} )

* I/O cost — the cost of ``A`` shipping the aggregated data to the storage
  system's entry point ``IO``::

      C2 = l · d(A, IO) + ω(A, IO) / B_{A→IO}

* objective — ``TopoAware(A) = C1 + C2``, minimised over the candidates.

On platforms where the I/O node locality is not exposed (Theta), ``C2`` is
set to zero, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from repro.core.topology_iface import TopologyInterface
from repro.obs import recorder as obs_recorder
from repro.utils.validation import require_non_negative


class ContentionFactors(Protocol):
    """Background-traffic slowdown factors for the cost model.

    When other jobs share the machine, the bandwidth available between two
    ranks is no longer the link's nominal bandwidth.  Implementations (e.g.
    :class:`repro.multijob.contention.LinkContentionFactors`) report a
    multiplicative factor >= 1 describing how many concurrent streams the
    narrowest link on the route is shared between.
    """

    def bandwidth_factor(self, src_rank: int, dst_rank: int) -> float:
        """Sharing factor (>= 1) on the route between two ranks."""
        ...

    def bandwidth_factors(self, src_ranks, dst_node):  # pragma: no cover
        """Batched twin: the factor of each source rank's route to one node.

        :meth:`AggregationCostModel.best_candidate` prices contention
        through this.
        """
        ...


@dataclass(frozen=True)
class CostBreakdown:
    """The two cost terms for one candidate aggregator.

    Attributes:
        candidate: candidate world rank.
        aggregation: C1, seconds.
        io: C2, seconds (0 when the I/O locality is unknown).
    """

    candidate: int
    aggregation: float
    io: float

    @property
    def total(self) -> float:
        """The objective value ``C1 + C2``."""
        return self.aggregation + self.io


class AggregationCostModel:
    """Evaluates the paper's objective function through a topology interface.

    Args:
        iface: the topology abstraction for the machine + mapping.
        contention: optional background-traffic factors from concurrently
            running jobs; ``None`` (the default) reproduces the paper's
            dedicated-machine costs exactly.
    """

    def __init__(
        self,
        iface: TopologyInterface,
        *,
        contention: ContentionFactors | None = None,
    ) -> None:
        self.iface = iface
        self.contention = contention

    def _effective_bandwidth(self, src_rank: int, dst_rank: int) -> float:
        """Rank-to-rank bandwidth after background contention (bytes/s)."""
        bandwidth = self.iface.bandwidth_between_ranks(src_rank, dst_rank)
        if self.contention is not None:
            bandwidth /= max(1.0, self.contention.bandwidth_factor(src_rank, dst_rank))
        return bandwidth

    # ------------------------------------------------------------------ #
    # Individual terms
    # ------------------------------------------------------------------ #

    def aggregation_cost(
        self, candidate: int, volumes: Mapping[int, int]
    ) -> float:
        """C1: cost of every producer rank shipping its bytes to ``candidate``.

        Args:
            candidate: candidate aggregator (world rank).
            volumes: bytes each producer rank of the partition would send,
                keyed by world rank (``ω(i, A)``).
        """
        latency = self.iface.get_latency()
        total = 0.0
        for rank, nbytes in volumes.items():
            if rank == candidate:
                continue
            require_non_negative(nbytes, f"volume of rank {rank}")
            hops = self.iface.distance_between_ranks(rank, candidate)
            bandwidth = self._effective_bandwidth(rank, candidate)
            total += latency * hops + float(nbytes) / bandwidth
        return total

    def io_cost(self, candidate: int, io_bytes: int) -> float:
        """C2: cost of the candidate shipping ``io_bytes`` to its I/O node.

        Returns 0 when the platform does not expose I/O node locality, per
        the paper's rule for Theta.
        """
        require_non_negative(io_bytes, "io_bytes")
        if not self.iface.io_locality_known():
            return 0.0
        distance = self.iface.distance_to_io_node(candidate)
        if distance is None:
            return 0.0
        latency = self.iface.get_latency()
        bandwidth = self.iface.io_bandwidth_of_rank(candidate)
        return latency * distance + float(io_bytes) / bandwidth

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #

    def evaluate(
        self, candidate: int, volumes: Mapping[int, int]
    ) -> CostBreakdown:
        """The full objective for one candidate.

        ``ω(A, IO)`` is the sum of every producer's contribution — the total
        amount the aggregator will eventually push to storage (including its
        own data).
        """
        io_bytes = sum(volumes.values())
        return CostBreakdown(
            candidate=candidate,
            aggregation=self.aggregation_cost(candidate, volumes),
            io=self.io_cost(candidate, io_bytes),
        )

    def best_candidate(
        self, candidates, volumes
    ) -> tuple[int, list[CostBreakdown]]:
        """Evaluate every candidate and return (winner, all breakdowns).

        Ties are broken towards the lowest rank, matching the behaviour of
        ``MPI_Allreduce(MINLOC)``.

        Args:
            candidates: candidate world ranks (a sequence or an int array).
            volumes: bytes each producer rank ships (``ω(i, A)``): a
                ``rank -> bytes`` mapping, or a
                :class:`~repro.core.partitioning.Partition`, whose
                ``rank_array``/``volumes`` columns are used directly.

        All candidates are priced at once as one producers × candidates
        matrix (see :meth:`_price`); the breakdowns are bit-identical to
        :meth:`evaluate`'s.
        """
        if len(candidates) == 0:
            raise ValueError("no candidates to evaluate")
        candidates = np.asarray(candidates, dtype=np.int64)
        aggregation, io = self._price(candidates, volumes)
        breakdowns = list(
            map(CostBreakdown, candidates.tolist(), aggregation.tolist(), io.tolist())
        )
        rec = obs_recorder()
        if rec is not None:
            rec.inc("costmodel.candidates", len(breakdowns))
        winner = min(breakdowns, key=lambda b: (b.total, b.candidate))
        return winner.candidate, breakdowns

    def _price(self, candidates: np.ndarray, volumes) -> tuple[np.ndarray, np.ndarray]:
        """C1 and C2 of every candidate, as arrays in candidate order.

        Candidates are the columns of a producers × candidates matrix whose
        row ``i`` holds producer ``i``'s term, in producer order.  A
        candidate's own term is set to 0.0, which leaves a running float sum
        unchanged, so a sequential ``cumsum`` down each column equals the
        left-to-right loop of :meth:`aggregation_cost` bit for bit.  Hops
        and bandwidths are gathered from the node-pair matrices of the
        partition's distinct nodes, fetched once; the columns are priced
        :data:`_BLOCK_CELLS` cells at a time to bound the temporaries.
        """
        iface = self.iface
        producers, nbytes = _columns(volumes)
        if nbytes.size and nbytes.min() < 0:
            _check_volumes(candidates.tolist(), producers, nbytes, _total(volumes))
        nodes = iface.nodes_of_ranks(np.concatenate((producers, candidates)))
        # The partition's distinct nodes, ascending, and each rank's index
        # into them (a set is cheaper than np.unique for the usual few nodes).
        node_list = sorted(set(nodes.tolist()))
        hops, bandwidths = iface.node_pair_arrays(node_list)
        local = np.searchsorted(np.array(node_list), nodes)
        producer_local = local[: producers.size, None]
        candidate_local, candidate_nodes = local[producers.size :], nodes[producers.size :]
        latency = iface.get_latency()
        volume = nbytes.astype(np.float64)[:, None]
        aggregation = np.zeros(candidates.size)
        step = max(1, _BLOCK_CELLS // max(producers.size, 1))
        for lo in range(0, candidates.size if producers.size else 0, step):
            hi = lo + step
            column = candidate_local[lo:hi]
            bandwidth = bandwidths[producer_local, column]
            if self.contention is not None:
                factor = self._factors(producers, candidate_nodes[lo:hi])
                bandwidth = bandwidth / np.maximum(1.0, factor)
            terms = latency * hops[producer_local, column] + volume / bandwidth
            terms[producers[:, None] == candidates[lo:hi]] = 0.0
            aggregation[lo:hi] = terms.cumsum(axis=0)[-1]
        io = np.zeros(candidates.size)
        if iface.io_locality_known():
            distance, io_bandwidth = iface.io_arrays(candidate_nodes)
            known = distance >= 0
            io_bytes = float(_total(volumes))
            io[known] = latency * distance[known] + io_bytes / io_bandwidth[known]
        return aggregation, io

    def _factors(self, producers: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Contention factor of each producer's route to each target node."""
        distinct, target_of = np.unique(targets, return_inverse=True)
        factors = [
            np.asarray(self.contention.bandwidth_factors(producers, node), dtype=np.float64)
            for node in distinct.tolist()
        ]
        return np.column_stack(factors)[:, target_of]


#: Cells of one producers × candidates block of :meth:`AggregationCostModel._price`:
#: 256 KiB per float64 temporary.  Electing over four 1024-node Theta
#: partitions on a 2-vCPU x86 VM, blocks of 2**14 to 2**16 cells were equally
#: fast; 2**12 took about 1.6x as long and 2**19 about 1.8x.
_BLOCK_CELLS = 1 << 15


def _columns(volumes) -> tuple[np.ndarray, np.ndarray]:
    """``(producer ranks, bytes)`` of a mapping or a partition."""
    if hasattr(volumes, "rank_array"):
        return volumes.rank_array, volumes.volumes
    producers = np.fromiter(volumes.keys(), dtype=np.int64, count=len(volumes))
    return producers, np.array(list(volumes.values()))


def _total(volumes):
    """``ω(A, IO)``: the bytes the aggregator pushes to storage."""
    if hasattr(volumes, "rank_array"):
        return volumes.total_bytes
    return sum(volumes.values())


def _check_volumes(
    candidates: list[int], producers: np.ndarray, nbytes: np.ndarray, io_bytes
) -> None:
    """Raise exactly what :meth:`AggregationCostModel.evaluate` would, per
    candidate in order: a negative volume of any producer other than the
    candidate itself, then a negative ``io_bytes``."""
    negative = [
        (rank, value)
        for rank, value in zip(producers.tolist(), nbytes.tolist())
        if value < 0
    ]
    for candidate in candidates:
        for rank, value in negative:
            if rank != candidate:
                require_non_negative(value, f"volume of rank {rank}")
        require_non_negative(io_bytes, "io_bytes")
