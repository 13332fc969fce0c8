"""The benchmark's three seeded workloads.

Each workload turns a seed into a list of operations (:meth:`generate`),
performs one operation through the program's public API (:meth:`call`) and
checks the outcomes afterwards (:meth:`check`).  The program only ever sees
the generated inputs; the seed stays in the benchmark.

* ``paper_figures`` -- the 22 registered experiments at scale 1 through
  ``evaluate(id)`` into a fresh store, each compared against the paper's
  digitised figure.  The ids and their order are pinned here, so
  registering a new experiment does not change the workload; its inputs are
  the same for every seed.
* ``tune_stream`` -- a closed loop of single-scenario ``evaluate()`` calls
  against a fresh on-disk store, drawn from the default tuning spaces of the
  MPI-IO bases.  A fixed share of the calls repeat an earlier point, so both
  store hits and misses carry weight.
* ``multijob_contention`` -- seeded multi-job Theta scenarios, the only
  workload whose time the contention ledger and fluid loop dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench.hostspeed import HostMeter
from repro.autotune.defaults import as_tunable, suggest_space
from repro.autotune.space import canonical_point
from repro.core.api import evaluate
from repro.experiments.store import ArtifactStore
from repro.reporting import compare_result
from repro.scenario.registry import get_scenario
from repro.scenario.spec import (
    ALLOCATION_POLICIES,
    IOStrategySpec,
    JobScenarioSpec,
    MachineSpec,
    MultiJobSpec,
    Scenario,
    StorageSpec,
    WorkloadSpec,
)
from repro.utils.units import MB, MIB

#: The experiments registered when the benchmark was defined, pinned.
PAPER_IDS = (
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "table1",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "headline",
    "ablation_placement",
    "ablation_pipelining",
    "ablation_aggregators",
    "ablation_io_locality",
    "ablation_burst_buffer",
    "interference_theta_ost",
    "interference_job_count",
    "interference_alloc_policy",
    "interference_bb_drain",
    "tuning_theta_rediscovery",
    "tuning_interference_aware",
    "placement_optimality",
)

#: The digitised IOR figures the other two workloads check accuracy on.
IOR_FIGURE_IDS = ("fig07", "fig08", "fig09", "fig10")

#: MPI-IO scenarios the tuning stream draws its points around.
TUNE_BASES = ("fig07", "fig08", "tuning_theta_rediscovery")

#: Evaluations per tuning-stream pass (at least 1,000 for a p99).
TUNE_OPS = 2000

#: Share of tuning-stream evaluations that repeat an earlier point.  A
#: synthetic ratio, not measured from any user's traffic: it gives store
#: hits and misses both weight, and is kept clear of one half, so the
#: median is a hit and the tail percentiles are misses.
TUNE_HIT_SHARE = 0.65

#: IOR data sizes per rank drawn uniformly by the stream: points of the
#: paper's x axis.
TUNE_BYTES_PER_RANK = (200_000, 500_000, 1_000_000, 2_000_000, 3_600_000)

#: Multi-job scenarios per pass, and jobs per scenario.  A fixed job count
#: keeps the scenarios' costs alike, so the tail percentiles do not hinge
#: on which seed drew the largest scenario.
MULTIJOB_SCENARIOS = 48
MULTIJOB_JOBS = 24

#: Lustre OSTs of the Theta model.
THETA_OSTS = 56


@dataclass
class Outcome:
    """One operation as performed: its latency and raw result or error."""

    latency_s: float
    value: Any = None
    error: str | None = None


@dataclass
class Verdict:
    """The output checks of one pass."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    paper_rms_max: float | None = None

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {index}: {message}")


def _strip_wall_time(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip_wall_time(v) for k, v in value.items() if "wall_time" not in k}
    if isinstance(value, list):
        return [_strip_wall_time(v) for v in value]
    return value


def digest(outputs: list) -> str:
    """SHA-256 of the simulated outputs, wall-time fields stripped."""
    text = json.dumps(_strip_wall_time(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _bad_values(result, *, positive: bool) -> str | None:
    """Why a result's values are not finite (and positive), or ``None``."""
    for series in result.series:
        for point in series.points:
            value = point.bandwidth_gbps
            if not math.isfinite(value) or value < 0 or (positive and value <= 0):
                return f"{series.label!r} has value {value} at x={point.x}"
    return None


def execute(
    workload: "Workload",
    ops: list,
    scratch: Path,
    frame: Callable[[], AbstractContextManager],
    meter: HostMeter,
    stop_at: float | None = None,
    expected_s: list[float] | None = None,
) -> tuple[list[Outcome], float]:
    """Perform the operations in order; returns the outcomes and wall time.

    ``frame`` wraps each operation (the tracer's operation frame, or a null
    context).  An exception ends only its own operation: it is recorded as
    a failure and the stream goes on.  ``meter`` samples the host's speed
    between operations, outside their frames and the wall time.  With
    ``stop_at`` (a :func:`time.monotonic` time), the pass ends before the
    first operation that would end after it, going by ``expected_s``,
    each operation's latency in an earlier pass.
    """
    state = workload.open(scratch)
    outcomes: list[Outcome] = []
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(ops):
        if stop_at is not None and time.monotonic() + expected_s[index] > stop_at:
            break
        with frame():
            op_start = clock()
            try:
                value, error = workload.call(state, op), None
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                value, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(clock() - op_start, value, error))
        meter.maybe_sample(index + 1)
    wall_s = clock() - start - meter.spent_s
    meter.sample(len(outcomes))
    return outcomes, wall_s


class Workload:
    """Interface of one benchmark workload."""

    name = ""

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def content_hashes(self, ops: list) -> list[str]:
        """The content hash of each generated scenario, for determinism tests."""
        raise NotImplementedError

    def open(self, scratch: Path) -> Any:
        """Per-pass state (a fresh store) under ``scratch``."""
        return None

    def call(self, state: Any, op: Any) -> Any:
        raise NotImplementedError

    def check(self, ops: list, outcomes: list[Outcome]) -> Verdict:
        raise NotImplementedError


class PaperFigures(Workload):
    name = "paper_figures"

    def generate(self, seed: int) -> list[str]:
        """The pinned ids in registry order, as ``repro run-all`` runs them.

        The order decides which experiment pays for building each machine
        model, so a seeded order would move the per-operation latencies
        between seeds without any change to the program.
        """
        return list(PAPER_IDS)

    def open(self, scratch: Path) -> ArtifactStore:
        return ArtifactStore(scratch / "store")

    def call(self, store: ArtifactStore, experiment_id: str):
        evaluation = evaluate(experiment_id, scale=1, store=store)
        return evaluation, compare_result(evaluation.result)

    def check(self, ops: list[str], outcomes: list[Outcome]) -> Verdict:
        verdict = Verdict()
        outputs: dict[str, dict] = {}
        rms: list[float] = []
        for index, (experiment_id, outcome) in enumerate(zip(ops, outcomes)):
            if outcome.error is not None:
                verdict.fail(index, f"{experiment_id}: {outcome.error}")
                continue
            evaluation, comparison = outcome.value
            result = evaluation.result
            outputs[experiment_id] = result.to_dict()
            if comparison.points:
                rms.append(comparison.rms_shape_deviation())
            if evaluation.cached:
                verdict.fail(index, f"{experiment_id}: served from a fresh store")
            elif not result.all_checks_pass():
                verdict.fail(index, f"{experiment_id}: failed checks {result.failed_checks()}")
            elif bad := _bad_values(result, positive=result.x_label == "MB/rank"):
                verdict.fail(index, f"{experiment_id}: {bad}")
        verdict.digest = digest([outputs[key] for key in sorted(outputs)])
        verdict.paper_rms_max = max(rms) if rms else None
        return verdict


class TuneStream(Workload):
    name = "tune_stream"

    def generate(self, seed: int) -> list[tuple[Scenario, dict, bool]]:
        """``(base, overrides, planned_hit)`` per evaluation.

        The positions of the misses are drawn, their number is fixed; the
        first evaluation is always a miss.  Every miss is a point not drawn
        before, every hit repeats a uniformly chosen earlier miss.
        """
        rng = np.random.default_rng(seed)
        bases = {name: as_tunable(get_scenario(name, scale=1)) for name in TUNE_BASES}
        names = sorted(bases)
        spaces = {name: suggest_space(bases[name]) for name in names}
        misses = round(TUNE_OPS * (1.0 - TUNE_HIT_SHARE))
        is_miss = np.zeros(TUNE_OPS, dtype=bool)
        is_miss[0] = True
        is_miss[1 + rng.choice(TUNE_OPS - 1, size=misses - 1, replace=False)] = True
        written: list[tuple[Scenario, dict]] = []
        seen: set[tuple[str, str]] = set()
        ops = []
        for miss in is_miss:
            if not miss:
                base, point = written[rng.integers(len(written))]
                ops.append((base, point, True))
                continue
            while True:
                name = names[rng.integers(len(names))]
                point = spaces[name].sample(rng)
                point["workload.bytes_per_rank"] = int(
                    TUNE_BYTES_PER_RANK[rng.integers(len(TUNE_BYTES_PER_RANK))]
                )
                point["workload.access"] = ("read", "write")[rng.integers(2)]
                key = (name, canonical_point(point))
                if key not in seen:
                    break
            seen.add(key)
            written.append((bases[name], point))
            ops.append((bases[name], point, False))
        return ops

    def content_hashes(self, ops: list) -> list[str]:
        return [base.with_overrides(point).content_hash() for base, point, _hit in ops]

    def open(self, scratch: Path) -> ArtifactStore:
        return ArtifactStore(scratch / "store")

    def call(self, store: ArtifactStore, op):
        base, point, _hit = op
        return evaluate(base, overrides=point, store=store)

    def check(self, ops: list, outcomes: list[Outcome]) -> Verdict:
        verdict = Verdict()
        written: dict[str, dict] = {}
        outputs = []
        for index, ((_base, _point, planned_hit), outcome) in enumerate(zip(ops, outcomes)):
            if outcome.error is not None:
                verdict.fail(index, outcome.error)
                continue
            evaluation = outcome.value
            result = evaluation.result.to_dict()
            outputs.append([evaluation.key, evaluation.cached, result])
            if evaluation.cached != planned_hit:
                verdict.fail(index, f"cached={evaluation.cached}, planned hit={planned_hit}")
            elif planned_hit and written.get(evaluation.key) != result:
                verdict.fail(index, "store hit differs from the miss that wrote it")
            elif bad := _bad_values(evaluation.result, positive=True):
                verdict.fail(index, bad)
            if not evaluation.cached:
                written[evaluation.key] = result
        verdict.digest = digest(outputs)
        return verdict


class MultiJobContention(Workload):
    name = "multijob_contention"

    def generate(self, seed: int) -> list[Scenario]:
        rng = random.Random(seed)
        return [self._scenario(rng, index) for index in range(MULTIJOB_SCENARIOS)]

    @staticmethod
    def _scenario(rng: random.Random, index: int) -> Scenario:
        """A couple of dozen small Theta jobs with staggered arrivals."""
        jobs = []
        for job_index in range(MULTIJOB_JOBS):
            nodes = rng.choice((4, 8, 12, 16))
            stripes = rng.choice((1, 2, 4, 8))
            buffer_size = rng.choice((4, 8, 16)) * MIB
            if rng.random() < 0.5:
                io = IOStrategySpec(
                    kind="tapioca",
                    num_aggregators=rng.choice((4, 8, 16)),
                    buffer_size=buffer_size,
                )
            else:
                io = IOStrategySpec(
                    kind="mpiio",
                    aggregators_per_ost=rng.choice((1, 2)),
                    buffer_size=buffer_size,
                )
            jobs.append(
                JobScenarioSpec(
                    name=f"job{job_index}",
                    num_nodes=nodes,
                    workload=WorkloadSpec(
                        kind="ior",
                        bytes_per_rank=rng.choice((1, 2, 4, 8)) * MB,
                        access=rng.choice(("read", "write")),
                    ),
                    io=io,
                    storage=StorageSpec(
                        kind="lustre",
                        stripe_count=stripes,
                        stripe_size=8 * MIB,
                        ost_start=rng.randrange(THETA_OSTS - stripes + 1),
                    ),
                    arrival_s=round(rng.uniform(0.0, 2.0), 3),
                )
            )
        total_nodes = sum(job.num_nodes for job in jobs)
        return Scenario(
            id=f"multijob_contention_{index}",
            machine=MachineSpec(kind="theta", num_nodes=-(-total_nodes // 4) * 4),
            multijob=MultiJobSpec(
                jobs=tuple(jobs),
                allocation_policy=ALLOCATION_POLICIES[index % len(ALLOCATION_POLICIES)],
            ),
        )

    def content_hashes(self, ops: list[Scenario]) -> list[str]:
        return [scenario.content_hash() for scenario in ops]

    def call(self, _state, scenario: Scenario):
        return evaluate(scenario)

    def check(self, ops: list, outcomes: list[Outcome]) -> Verdict:
        verdict = Verdict()
        outputs = []
        for index, outcome in enumerate(outcomes):
            if outcome.error is not None:
                verdict.fail(index, outcome.error)
                continue
            result = outcome.value.result
            outputs.append(result.to_dict())
            if not result.all_checks_pass():
                verdict.fail(index, f"failed checks {result.failed_checks()}")
            elif bad := _bad_values(result, positive=True):
                verdict.fail(index, bad)
        verdict.digest = digest(outputs)
        return verdict


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperFigures(), TuneStream(), MultiJobContention())
}


def paper_rms_max(experiment_ids: tuple[str, ...] = IOR_FIGURE_IDS) -> float:
    """Max RMS shape deviation from the paper over some digitised figures."""
    return max(
        compare_result(evaluate(experiment_id, scale=1).result).rms_shape_deviation()
        for experiment_id in experiment_ids
    )
