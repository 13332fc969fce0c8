"""Simulated MPI communicators: the collectives TAPIOCA and two-phase I/O make.

The communicator implements only the MPI calls the two protocols use:

* ``barrier`` and ``allgather`` (phase synchronisation);
* ``allreduce`` with the ``minloc`` operation (the aggregator election);
* ``create_window`` (collective RMA window allocation, like
  ``MPI_Win_allocate``);
* ``split`` to derive sub-communicators (one per aggregation partition).

All ranks of a communicator must call collectives in the same order — this
is checked and a :class:`~repro.simmpi.errors.SimMPIError` is raised on a
mismatch, which turns a silent deadlock into a clear test failure.

Timing model: a collective costs ``ceil(log2(P))`` log-tree steps, each
priced on the communicator's average hop distance
(:meth:`repro.simmpi.world.SimWorld.collective_step_cost`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence, TYPE_CHECKING

from repro.simmpi.engine import Event
from repro.simmpi.errors import SimMPIError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.simmpi.world import SimWorld


class ReduceOp:
    """Named reduction operations: the one MPI_Op the election uses."""

    MINLOC = "minloc"

    @classmethod
    def combine(cls, op: str, values: Sequence[Any]) -> Any:
        """Combine per-rank contributions with the named operation.

        ``minloc`` expects ``(value, location)`` pairs and returns the pair
        with the smallest value (ties resolved towards the smallest location,
        as MPI does).
        """
        if not values:
            raise SimMPIError("cannot reduce an empty value list")
        if op != cls.MINLOC:
            raise SimMPIError(f"unknown reduction operation {op!r}")
        pairs = [tuple(v) for v in values]
        for pair in pairs:
            if len(pair) != 2:
                raise SimMPIError(f"{op} requires (value, location) pairs, got {pair!r}")
        return min(pairs, key=lambda p: (p[0], p[1]))


@dataclass
class _CollectiveSlot:
    """Rendezvous state for one collective call instance."""

    name: str
    expected: int
    contributions: dict[int, Any] = field(default_factory=dict)
    completions: dict[int, Event] = field(default_factory=dict)
    nbytes: int = 8


class Communicator:
    """A group of ranks that can communicate.

    Ranks inside a communicator are numbered ``0 .. size-1``; the mapping to
    world ranks is kept in :attr:`world_ranks`.
    """

    def __init__(self, world: "SimWorld", world_ranks: Sequence[int], name: str = "comm"):
        if len(world_ranks) == 0:
            raise SimMPIError("a communicator needs at least one rank")
        if len(set(world_ranks)) != len(world_ranks):
            raise SimMPIError("duplicate ranks in communicator")
        self.world = world
        self.name = name
        self.world_ranks: tuple[int, ...] = tuple(world_ranks)
        self._rank_of_world = {wr: r for r, wr in enumerate(self.world_ranks)}
        # Collective bookkeeping: per-rank call counters + active slots.
        self._collective_counter: dict[int, int] = {r: 0 for r in range(self.size)}
        self._collective_slots: dict[int, _CollectiveSlot] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.world_ranks)

    def world_rank(self, rank: int) -> int:
        """World rank of communicator rank ``rank``."""
        self._validate_rank(rank)
        return self.world_ranks[rank]

    def comm_rank_of_world(self, world_rank: int) -> int:
        """Communicator rank of a world rank (KeyError if not a member)."""
        return self._rank_of_world[world_rank]

    def node_of(self, rank: int) -> int:
        """Compute node hosting communicator rank ``rank``."""
        return self.world.node_of_rank(self.world_rank(rank))

    def _validate_rank(self, rank: int, name: str = "rank") -> int:
        if not 0 <= rank < self.size:
            raise SimMPIError(
                f"{name} {rank} out of range for communicator {self.name!r} "
                f"of size {self.size}"
            )
        return rank

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def _collective_cost(self, nbytes: int) -> float:
        """Cost of one collective over this communicator (log-tree model)."""
        if self.size == 1:
            return 0.0
        steps = max(1, math.ceil(math.log2(self.size)))
        return steps * self.world.collective_step_cost(self, int(nbytes))

    def _enter_collective(
        self, rank: int, name: str, value: Any, nbytes: int
    ) -> tuple[_CollectiveSlot, Event, bool]:
        """Register a rank's arrival at its next collective; returns the slot."""
        self._validate_rank(rank)
        seq = self._collective_counter[rank]
        self._collective_counter[rank] = seq + 1
        slot = self._collective_slots.get(seq)
        if slot is None:
            slot = _CollectiveSlot(name=name, expected=self.size, nbytes=nbytes)
            self._collective_slots[seq] = slot
        if slot.name != name:
            raise SimMPIError(
                f"collective mismatch on {self.name!r}: rank {rank} called "
                f"{name!r} while others called {slot.name!r}"
            )
        if rank in slot.contributions:
            raise SimMPIError(
                f"rank {rank} entered collective {name!r} twice at sequence {seq}"
            )
        slot.contributions[rank] = value
        slot.nbytes = max(slot.nbytes, nbytes)
        completion = self.world.env.event()
        slot.completions[rank] = completion
        complete = len(slot.contributions) == slot.expected
        if complete:
            del self._collective_slots[seq]
        return slot, completion, complete

    def _finish_collective(
        self, slot: _CollectiveSlot, result_for_rank: Callable[[int], Any]
    ) -> None:
        """Schedule completion of every participant after the collective cost."""
        env = self.world.env
        cost = self._collective_cost(slot.nbytes)

        def _release() -> Generator[Event, Any, None]:
            yield env.timeout(cost)
            for rank, event in slot.completions.items():
                if not event.triggered:
                    event.succeed(result_for_rank(rank))

        env.process(_release(), name=f"{self.name}:{slot.name}")

    def _run_collective(
        self,
        rank: int,
        name: str,
        value: Any,
        nbytes: int,
        result_builder: Callable[[dict[int, Any]], Callable[[int], Any]],
    ) -> Generator[Event, Any, Any]:
        slot, completion, is_last = self._enter_collective(rank, name, value, nbytes)
        if is_last:
            try:
                builder = result_builder(slot.contributions)
            except Exception as exc:
                # A malformed collective (e.g. a ``minloc`` contribution that
                # is not a ``(value, location)`` pair) fails every participant
                # rather than deadlocking the others.
                for event in slot.completions.values():
                    if not event.triggered:
                        event.fail(exc)
            else:
                self._finish_collective(slot, builder)
        result = yield completion
        return result

    def barrier(self, rank: int) -> Generator[Event, Any, None]:
        """Synchronise all ranks of the communicator."""
        yield from self._run_collective(
            rank, "barrier", None, 0, lambda contrib: (lambda r: None)
        )

    def allreduce(
        self, rank: int, value: Any, op: str, nbytes: int = 8
    ) -> Generator[Event, Any, Any]:
        """Reduce and deliver the result to every rank.

        With ``op="minloc"`` and ``value=(cost, rank)`` pairs this is exactly
        the aggregator election of the paper (Section IV-B).
        """

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            combined = ReduceOp.combine(op, [contrib[r] for r in sorted(contrib)])
            return lambda r: combined

        result = yield from self._run_collective(rank, f"allreduce:{op}", value, nbytes, build)
        return result

    def allgather(
        self, rank: int, value: Any, nbytes: int = 8
    ) -> Generator[Event, Any, list[Any]]:
        """Gather per-rank values and deliver the full list to every rank."""

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            ordered = [contrib[r] for r in sorted(contrib)]
            return lambda r: list(ordered)

        result = yield from self._run_collective(rank, "allgather", value, nbytes, build)
        return result

    # ------------------------------------------------------------------ #
    # RMA window allocation (collective, like MPI_Win_allocate)
    # ------------------------------------------------------------------ #

    def create_window(self, rank: int, size: int) -> Generator[Event, Any, Any]:
        """Collectively allocate an RMA window; this rank exposes ``size`` bytes.

        Ranks may expose different sizes (aggregators expose their buffers,
        other ranks expose nothing); all participants receive the *same*
        :class:`~repro.simmpi.rma.Window` object.
        """
        from repro.simmpi.rma import Window  # local import to avoid a cycle

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            sizes = {r: int(contrib[r]) for r in contrib}
            window = Window(self.world, self, sizes=sizes)
            return lambda r: window

        result = yield from self._run_collective(
            rank, "create_window", int(size), 16, build
        )
        return result

    # ------------------------------------------------------------------ #
    # Sub-communicators
    # ------------------------------------------------------------------ #

    def split(
        self, rank: int, color: int, key: int | None = None
    ) -> Generator[Event, Any, "Communicator"]:
        """Split into sub-communicators by ``color`` (collective).

        Ranks supplying the same ``color`` end up in the same communicator,
        ordered by ``key`` (default: their rank in the parent).
        """
        key = rank if key is None else key

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            groups: dict[int, list[tuple[int, int]]] = {}
            for r in sorted(contrib):
                c, k = contrib[r]
                groups.setdefault(c, []).append((k, r))
            comms: dict[int, Communicator] = {}
            for c, members in groups.items():
                ordered = [self.world_rank(r) for _k, r in sorted(members)]
                comms[c] = Communicator(
                    self.world, ordered, name=f"{self.name}.split({c})"
                )
            return lambda r, _comms=comms, _contrib=contrib: _comms[_contrib[r][0]]

        result = yield from self._run_collective(
            rank, "split", (color, key), 16, build
        )
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name!r} size={self.size}>"
