"""Compute node and memory tier descriptions.

The paper's future work (and our implemented extension in
:mod:`repro.core.memory`) aggregates data through the memory/storage
hierarchy of a node — DRAM, high-bandwidth MCDRAM, node-local SSD — so the
node model names each tier with its capacity and bandwidth.  The aggregation
buffer placement chooses a tier based on these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import GIB, gbps
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class MemoryTier:
    """One level of a node's memory/storage hierarchy.

    Attributes:
        name: tier name, e.g. ``"dram"``, ``"mcdram"``, ``"ssd"``.
        capacity: capacity in bytes.
        bandwidth: sustainable bandwidth in bytes/s for streaming access.
        latency: access latency in seconds.
        persistent: whether data survives the job (SSD / NVRAM tiers).
    """

    name: str
    capacity: int
    bandwidth: float
    latency: float = 1.0e-7
    persistent: bool = False

    def __post_init__(self) -> None:
        require_positive(self.capacity, "capacity")
        require_positive(self.bandwidth, "bandwidth")
        require_positive(self.latency, "latency")

    def transfer_time(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` into or out of this tier."""
        if nbytes <= 0:
            return 0.0
        return self.latency + float(nbytes) / self.bandwidth


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node type.

    Attributes:
        name: node model name.
        cores: physical cores per node.
        threads_per_core: hardware threads per core.
        clock_ghz: nominal clock in GHz.
        memory_tiers: available memory/storage tiers, fastest first.
    """

    name: str
    cores: int
    threads_per_core: int
    clock_ghz: float
    memory_tiers: tuple[MemoryTier, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require_positive(self.cores, "cores")
        require_positive(self.threads_per_core, "threads_per_core")
        require_positive(self.clock_ghz, "clock_ghz")

    @property
    def hardware_threads(self) -> int:
        """Total hardware threads per node."""
        return self.cores * self.threads_per_core

    def tier(self, name: str) -> MemoryTier:
        """Look up a memory tier by name.

        Raises:
            KeyError: if the node has no tier with that name.
        """
        for tier in self.memory_tiers:
            if tier.name == name:
                return tier
        raise KeyError(f"node {self.name!r} has no memory tier {name!r}")

    def has_tier(self, name: str) -> bool:
        """Whether the node has a tier called ``name``."""
        return any(t.name == name for t in self.memory_tiers)

    @property
    def main_memory(self) -> MemoryTier:
        """The DRAM tier (first tier named ``"dram"``, else the largest tier)."""
        for tier in self.memory_tiers:
            if tier.name == "dram":
                return tier
        if not self.memory_tiers:
            raise KeyError(f"node {self.name!r} has no memory tiers")
        return max(self.memory_tiers, key=lambda t: t.capacity)


def bgq_node() -> NodeSpec:
    """Mira compute node: 16 PowerPC A2 cores at 1.6 GHz, 16 GB DDR3."""
    return NodeSpec(
        name="IBM BG/Q PowerPC A2",
        cores=16,
        threads_per_core=4,
        clock_ghz=1.6,
        memory_tiers=(
            MemoryTier("dram", capacity=16 * GIB, bandwidth=gbps(28.0)),
        ),
    )


def knl_node() -> NodeSpec:
    """Theta compute node: KNL 7250, 68 cores, 192 GB DDR4 + 16 GB MCDRAM + 128 GB SSD."""
    return NodeSpec(
        name="Intel KNL 7250",
        cores=68,
        threads_per_core=4,
        clock_ghz=1.6,
        memory_tiers=(
            MemoryTier("mcdram", capacity=16 * GIB, bandwidth=gbps(400.0)),
            MemoryTier("dram", capacity=192 * GIB, bandwidth=gbps(90.0)),
            MemoryTier(
                "ssd",
                capacity=128 * GIB,
                bandwidth=gbps(0.5),
                latency=50.0e-6,
                persistent=True,
            ),
        ),
    )


def commodity_node(cores: int = 32, memory_gib: int = 128) -> NodeSpec:
    """A generic commodity cluster node (used by the fat-tree machine)."""
    return NodeSpec(
        name=f"commodity-{cores}c",
        cores=cores,
        threads_per_core=2,
        clock_ghz=2.5,
        memory_tiers=(
            MemoryTier("dram", capacity=memory_gib * GIB, bandwidth=gbps(100.0)),
        ),
    )
