"""Tests of the benchmark: seeded inputs, output checks and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

from perfbench import run, tidy
from perfbench.hostspeed import REFERENCE_S, HostMeter
from perfbench.tracer import Tracer
from perfbench.workloads import PAPER_IDS, TUNE_HIT_SHARE, TUNE_OPS, WORKLOADS, execute
from repro.scenario.simulation import clear_machine_cache

ROOT = Path(__file__).resolve().parents[2]

#: Small slices of each workload that reach every layer named for it.
PAPER_SLICE = ["fig09", "tuning_theta_rediscovery", "placement_optimality"]
LAYERS_FIRING = {
    "paper_figures": (
        "core.partitioning.calls",
        "core.partitioning.ranks",
        "core.partitioning.partitions",
        "core.placement.calls",
        "core.placement.candidates",
        "core.cost_model.best_candidate.calls",
        "workloads.bytes_per_rank.calls",
        "topology.node_of_rank.calls",
        "topology.pair_metrics.calls",
        "perfmodel.tapioca.calls",
        "perfmodel.rounds",
        "machine.builds",
        "experiments.self_s",
        "autotune.self_s",
        "placement_opt.self_s",
        "reporting.self_s",
    ),
    "tune_stream": (
        "scenario.calls",
        "experiments.store.loads",
        "experiments.store.saves",
        "experiments.store.bytes_written",
        "experiments.store.hit_frac",
        "iolib.calls",
        "perfmodel.mpiio.calls",
        "perfmodel.flows.calls",
        "perfmodel.flows.senders",
        "storage.read_calls",
        "storage.write_calls",
    ),
    "multijob_contention": (
        "multijob.contention.allocs",
        "multijob.contention.flow_resource_cells",
        "multijob.contention.self_s",
        "multijob.runtime.calls",
        "multijob.allocator.self_s",
    ),
}


def sliced_ops(name: str, seed: int = 7) -> list:
    ops = WORKLOADS[name].generate(seed)
    if name == "paper_figures":
        return PAPER_SLICE
    return ops[:300] if name == "tune_stream" else ops[:2]


@pytest.mark.parametrize("name", ["tune_stream", "multijob_contention"])
def test_same_seed_same_scenarios_other_seed_others(name):
    workload = WORKLOADS[name]
    first = workload.content_hashes(workload.generate(3))
    assert first == workload.content_hashes(workload.generate(3))
    assert first != workload.content_hashes(workload.generate(4))


def test_paper_figures_runs_the_pinned_ids_in_registry_order():
    from repro.experiments.harness import EXPERIMENTS

    workload = WORKLOADS["paper_figures"]
    assert list(PAPER_IDS) == [key for key in EXPERIMENTS if key in PAPER_IDS]
    assert workload.generate(1) == workload.generate(2) == list(PAPER_IDS)


def test_tune_stream_fixes_the_share_of_repeated_points():
    ops = WORKLOADS["tune_stream"].generate(5)
    hits = [planned_hit for _base, _point, planned_hit in ops]
    assert len(ops) == TUNE_OPS
    assert not hits[0]
    assert sum(hits) == TUNE_OPS - round(TUNE_OPS * (1 - TUNE_HIT_SHARE))
    misses = [base.with_overrides(point).content_hash() for base, point, hit in ops if not hit]
    assert len(set(misses)) == len(misses)


@pytest.mark.parametrize("name", sorted(LAYERS_FIRING))
def test_layers_fire_and_tracing_changes_no_output(name, tmp_path):
    workload = WORKLOADS[name]
    ops = sliced_ops(name)
    untraced, _ = execute(workload, ops, tmp_path / "untraced", nullcontext, HostMeter())
    clear_machine_cache()  # so the traced run builds its machines too
    tracer = Tracer()
    with tracer.installed():
        traced, _ = execute(workload, ops, tmp_path / "traced", tracer.operation, HostMeter())
    plain, observed = workload.check(ops, untraced), workload.check(ops, traced)
    assert plain.failed == observed.failed == 0, plain.problems + observed.problems
    assert plain.digest == observed.digest
    metrics = tracer.metrics()
    silent = [metric for metric in LAYERS_FIRING[name] if not metrics[metric][0] > 0]
    assert not silent
    assert metrics["trace.unattributed_frac"][0] <= 0.05
    if name == "tune_stream":
        assert metrics["core.placement.calls"][0] == 0


def test_a_pass_stops_before_an_operation_that_would_end_after_the_deadline(tmp_path):
    workload = WORKLOADS["multijob_contention"]
    ops = workload.generate(7)[:3]
    # By these latencies the second operation would end after the deadline.
    expected = [0.0, 3600.0, 0.0]
    stop_at = time.monotonic() + 60.0
    outcomes, _ = execute(workload, ops, tmp_path, nullcontext, HostMeter(), stop_at, expected)
    assert len(outcomes) == 1
    assert workload.check(ops[:1], outcomes).failed == 0


def test_host_meter_scales_each_operation_by_the_samples_around_it():
    from perfbench import hostspeed

    meter = HostMeter()
    # Set-up and operations 0-2 ran at half the reference speed, 3-5 at full.
    half, full = 2 * REFERENCE_S, REFERENCE_S
    meter.positions = [0, 0, 0, 1, 2, 3, 4, 5, 6, 6]
    meter.samples_s = [half] * 5 + [full] * 5
    assert hostspeed.WINDOW == 2
    assert meter.setup_factor() == 0.5
    # Operation 0 sits between the samples at positions 0 and 1.
    assert meter.factors(6) == [0.5, 0.5, pytest.approx(2 / 3), 1.0, 1.0, 1.0]


def test_host_meter_samples_between_operations_outside_the_wall_time(tmp_path, monkeypatch):
    from perfbench import hostspeed

    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.0)
    meter = HostMeter()
    outcomes, wall_s = execute(WORKLOADS["paper_figures"], ["fig08", "fig07"], tmp_path, nullcontext, meter)
    # The first samples, one after each operation, and one at the end.
    assert meter.positions == [0] * hostspeed.FIRST_SAMPLES + [1, 2, 2]
    assert wall_s < sum(outcome.latency_s for outcome in outcomes) + meter.spent_s / 4


def test_timing_tracer_leaves_the_accessors_unwrapped(tmp_path):
    from repro.topology.mapping import RankMapping

    node = RankMapping.__dict__["node"]
    workload = WORKLOADS["paper_figures"]
    tracer = Tracer(counting=False)
    with tracer.installed():
        assert RankMapping.__dict__["node"] is node
        execute(workload, ["fig09"], tmp_path, tracer.operation, HostMeter())
    metrics = tracer.metrics()
    assert metrics["core.placement.self_s"][0] > 0
    assert metrics["topology.node_of_rank.calls"][0] == 0
    assert metrics["core.cost_model.best_candidate.calls"][0] == 0


def test_uninstall_restores_every_binding():
    import repro.core.placement as placement
    import repro.perfmodel.tapioca as tapioca
    from repro.topology.mapping import RankMapping

    place, node = placement.place_aggregators, RankMapping.__dict__["node"]
    tracer = Tracer()
    with tracer.installed():
        patched = tracer.patched()
        assert tapioca.place_aggregators is not place
        assert RankMapping.__dict__["node"] is not node
    assert len(patched) > 50
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert tapioca.place_aggregators is placement.place_aggregators is place
    assert RankMapping.__dict__["node"] is node


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.span("inner")(lambda: time.sleep(0.03))

    def body():
        time.sleep(0.02)
        inner()

    outer = tracer.span("outer")(body)
    with tracer.operation():
        outer()
    assert tracer.self_s["inner"] == pytest.approx(0.03, abs=0.01)
    assert tracer.self_s["outer"] == pytest.approx(0.02, abs=0.01)
    assert tracer.unattributed_s < 0.005
    assert tracer.calls == {"inner": 1, "outer": 1}


def test_refuses_to_measure_under_program_switches(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    assert run.main(["--workload", "tune_stream", "--seed", "1", "--seconds", "1"]) == 2
    assert "REPRO_DISABLE_FASTPATH" in capsys.readouterr().err


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_tidy_has_one_row_per_metric_and_run(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    for index in range(2):
        record = {
            "workload": "tune_stream",
            "seed": index,
            "trace": False,
            "correct": True,
            "environment": {"git_sha": None},
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}, "setup_s": {"value": 0.5, "unit": "s"}},
        }
        (raw / f"run{index}.json").write_text(json.dumps(record))
    assert tidy.write_tidy(raw, tmp_path / "metrics.csv") == 4
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",") == list(tidy.COLUMNS)
    assert len(lines) == 5


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert per_layer == [*Tracer().metrics(), "trace.overhead_frac"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    # Three complete passes and one that stopped after its first operation,
    # measured while the host ran at half the reference speed.
    passes = [
        {
            "setup_s": 1.0,
            "setup_factor": 0.5,
            "latencies_s": [2 * t for t in latencies],
            "host_factors": [0.5] * len(latencies),
            "peak_rss_mb": rss,
        }
        for latencies, rss in (
            ([0.5, 2.0, 1.0], 50.0),
            ([0.25, 3.0, 1.5], 40.0),
            ([1.0, 2.5, 1.0], 60.0),
            ([0.75], 10.0),
        )
    ]
    setups = [{"setup_s": 2 * t, "setup_factor": 0.5} for t in (0.4, 0.6, 0.9)]
    metrics = run.end_to_end(passes, setups, 0.3)
    assert [metric["name"] for metric in spec["end_to_end"]] == list(metrics)
    # Each operation's latency is its mean over the passes that made it:
    # 0.625, 2.5 and 7/6 s, at the reference speed.
    assert metrics["wall_s"] == pytest.approx((0.625 + 2.5 + 7 / 6, "s"))
    assert metrics["op_p50_ms"] == pytest.approx((7000 / 6, "ms"))
    assert metrics["op_p90_ms"] == pytest.approx((2500 - 0.2 * (2500 - 7000 / 6), "ms"))
    assert metrics["peak_rss_mb"] == (50.0, "MiB")
    assert metrics["setup_s"] == (0.5, "s")
    assert metrics["paper_rms_max"] == (0.3, "1")
    measured = run.end_to_end(passes, setups, 0.3, scaled=False)
    assert measured["wall_s"] == pytest.approx((2 * (0.625 + 2.5 + 7 / 6), "s"))
    assert measured["setup_s"] == (1.0, "s")
