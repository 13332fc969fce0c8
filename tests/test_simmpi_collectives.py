"""Tests for the simulated MPI communicator: the collectives the protocols use."""

import pytest

from repro.machine.mira import MiraMachine
from repro.simmpi.communicator import ReduceOp
from repro.simmpi.errors import DeadlockError, RankProgramError, SimMPIError
from repro.simmpi.world import SimWorld


@pytest.fixture
def world() -> SimWorld:
    return SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=2)


class TestReduceOp:
    def test_minloc_ties_go_to_lowest_location(self):
        pairs = [(3.0, 0), (1.0, 2), (1.0, 1), (7.0, 3)]
        assert ReduceOp.combine("minloc", pairs) == (1.0, 1)

    def test_minloc_requires_pairs(self):
        with pytest.raises(SimMPIError):
            ReduceOp.combine("minloc", [(1.0, 2, 3)])

    def test_unknown_op(self):
        for op in ("xor", "sum", "maxloc"):
            with pytest.raises(SimMPIError):
                ReduceOp.combine(op, [(1, 0), (2, 1)])

    def test_empty_rejected(self):
        with pytest.raises(SimMPIError):
            ReduceOp.combine("minloc", [])


class TestCollectives:
    def test_allgather_and_barrier(self, world):
        def program(ctx):
            values = yield from ctx.comm.allgather(ctx.rank * 10)
            yield from ctx.comm.barrier()
            return values

        result = world.run(program)
        expected = [r * 10 for r in range(world.num_ranks)]
        assert all(value == expected for value in result.returns)
        assert result.elapsed > 0

    def test_allreduce_minloc_election(self, world):
        def program(ctx):
            cost = float((ctx.rank * 7) % 5)
            winner = yield from ctx.comm.allreduce((cost, ctx.rank), op="minloc")
            return winner

        result = world.run(program)
        costs = [(float((r * 7) % 5), r) for r in range(world.num_ranks)]
        expected = min(costs)
        assert all(value == expected for value in result.returns)

    def test_malformed_minloc_fails_every_rank(self, world):
        def program(ctx):
            value = (1.0, ctx.rank, "extra") if ctx.rank == 0 else (1.0, ctx.rank)
            yield from ctx.comm.allreduce(value, op="minloc")

        # The last arrival raises inside the reduction; every participant
        # must fail instead of the others deadlocking in the collective.
        with pytest.raises(RankProgramError, match="rank 0 failed"):
            world.run(program)

    def test_missing_participant_deadlocks(self, world):
        def program(ctx):
            if ctx.rank != 0:
                yield from ctx.comm.barrier()

        with pytest.raises(DeadlockError):
            world.run(program)

    def test_collective_name_mismatch_detected(self, world):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier()
            else:
                yield from ctx.comm.allgather(1)

        with pytest.raises((RankProgramError, DeadlockError)):
            world.run(program)

    def test_split_groups_by_color(self, world):
        def program(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            members = yield from sub.allgather(ctx.rank)
            return sorted(members)

        result = world.run(program)
        evens = [r for r in range(world.num_ranks) if r % 2 == 0]
        odds = [r for r in range(world.num_ranks) if r % 2 == 1]
        for rank, members in enumerate(result.returns):
            assert members == (evens if rank % 2 == 0 else odds)

    def test_split_key_reorders_ranks(self, world):
        def program(ctx):
            # Reverse ordering within the single colour.
            sub = yield from ctx.comm.split(0, key=-ctx.rank)
            return sub.rank

        result = world.run(program)
        # World rank N-1 has the smallest key so becomes sub-rank 0.
        assert result.returns[world.num_ranks - 1] == 0
        assert result.returns[0] == world.num_ranks - 1

