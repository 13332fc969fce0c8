"""The discrete-event MPI as an oracle for the analytic MPI-IO model.

The two-phase collective write runs on :class:`repro.simmpi.world.SimWorld`
(real collectives, RMA puts and file writes) and is compared with the flow
model :func:`repro.perfmodel.mpiio.model_mpiio` that produces the
artifacts.  The elapsed times must agree within a documented 5% band on
both machines and on the IOR and HACC-IO (AoS and SoA) workloads; at the
time of writing the ratios lie in 0.971-1.004.

The TAPIOCA cells are deliberately not gated here: their DES and model
still diverge (up to 5.2x on Theta HACC SoA), which is tracked as open work
in ROADMAP.md.
"""

from __future__ import annotations

import pytest

from repro.iolib.hints import MPIIOHints
from repro.iolib.twophase import TwoPhaseCollectiveIO
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.perfmodel.mpiio import model_mpiio
from repro.simmpi.world import SimWorld
from repro.utils.units import MIB
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload

#: DES/model elapsed-time band the MPI-IO model is held to.
BAND = (0.95, 1.05)
RANKS_PER_NODE = 2

MACHINES = {
    "mira16": lambda: MiraMachine(16, pset_size=16),
    "theta16": lambda: ThetaMachine(16),
}
WORKLOADS = {
    "ior": lambda: IORWorkload(32, transfer_size=1 * MIB),
    "hacc-aos": lambda: HACCIOWorkload(32, particles_per_rank=25000, layout="aos"),
    "hacc-soa": lambda: HACCIOWorkload(32, particles_per_rank=25000, layout="soa"),
}


@pytest.mark.parametrize("workload_id", sorted(WORKLOADS))
@pytest.mark.parametrize("machine_id", sorted(MACHINES))
def test_two_phase_des_agrees_with_mpiio_model(machine_id, workload_id):
    machine = MACHINES[machine_id]()
    workload = WORKLOADS[workload_id]()
    hints = MPIIOHints(cb_nodes=4, cb_buffer_size=1 * MIB)
    world = SimWorld(machine, ranks_per_node=RANKS_PER_NODE)
    simulated = world.run(TwoPhaseCollectiveIO(world, workload, hints).write_program())
    modelled = model_mpiio(machine, workload, hints, ranks_per_node=RANKS_PER_NODE)
    ratio = simulated.elapsed / modelled.elapsed
    assert BAND[0] <= ratio <= BAND[1], (
        f"{machine_id}/{workload_id}: DES {simulated.elapsed:.6f}s vs model "
        f"{modelled.elapsed:.6f}s (ratio {ratio:.3f})"
    )
