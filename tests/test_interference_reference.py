"""Every interference sweep point runs bit-identically on the scalar reference.

The four ``interference_*`` experiments reach the contention engine through
:meth:`Simulation.multijob_runtime`.  This test records every scenario that
call sees while an experiment runs at scale 8, then runs each one through
:class:`~repro.multijob.runtime.MultiJobRuntime` and through
:class:`~repro.reference.ReferenceMultiJobRuntime` (dict-based ledger,
per-job slice loop) with the same job specs and allocation policy, and
requires equal outcomes and peak utilizations.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import EXPERIMENTS
from repro.multijob.runtime import MultiJobRuntime
from repro.reference import ReferenceMultiJobRuntime
from repro.scenario.simulation import Simulation

INTERFERENCE_IDS = sorted(e for e in EXPERIMENTS if e.startswith("interference_"))


def test_the_four_interference_experiments_are_covered():
    assert INTERFERENCE_IDS == [
        "interference_alloc_policy",
        "interference_bb_drain",
        "interference_job_count",
        "interference_theta_ost",
    ]


@pytest.mark.parametrize("experiment_id", INTERFERENCE_IDS)
def test_every_sweep_point_matches_the_reference(experiment_id, monkeypatch):
    scenarios = []
    original = Simulation.multijob_runtime

    def recording(simulation):
        scenarios.append(simulation.scenario)
        return original(simulation)

    monkeypatch.setattr(Simulation, "multijob_runtime", recording)
    EXPERIMENTS[experiment_id](8.0)
    monkeypatch.undo()
    assert len(scenarios) >= 2, "an interference sweep has at least two points"

    for scenario in scenarios:
        simulation = Simulation(scenario)
        policy = scenario.multijob.allocation_policy
        fast = MultiJobRuntime(
            simulation.machine, simulation.job_specs(), allocation_policy=policy
        ).run()
        reference = ReferenceMultiJobRuntime(
            simulation.machine, simulation.job_specs(), allocation_policy=policy
        ).run()
        assert fast.outcomes == reference.outcomes, scenario.id
        assert fast.peak_utilization == reference.peak_utilization, scenario.id
