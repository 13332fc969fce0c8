"""Run one benchmark workload and report its metrics.

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 42 --trace 0

The run repeats passes of the workload, each in a fresh interpreter
(``perfbench/one_pass.py``), for ``--seconds`` seconds:

* ``--trace 0``: the end-to-end metrics, measured untraced.  The last pass
  stops before the operation that would end after the deadline.
* ``--trace 1``: the per-layer metrics of ``BENCHMARK.json``.  Self times
  come from passes that install the layer spans only, alternated with
  untraced passes (their wall-time ratio is the tracing overhead); counts
  come from one pass that also counts the per-rank accessors.

Every metric is printed by name with its unit; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when every output check passed, 1 when one failed and 2 when the run
could not be made.  Raw results go to ``perfbench/out/raw/`` and the tidy
table to ``perfbench/out/metrics.csv``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = ROOT / "perfbench" / "out"

#: Environment variables that change what the program runs.
FORBIDDEN_ENV = ("REPRO_TRACE", "REPRO_DISABLE_FASTPATH")

#: Seconds left before the deadline below which an untraced run starts no
#: further pass: a probe and a pass's set-up take about one.
MIN_TAIL_S = 2.0

#: Seconds one pass may take before the run is abandoned.
PASS_TIMEOUT_S = 150


class RunError(RuntimeError):
    """The run could not be made (as opposed to an output check failing)."""


def run_child(workload: str, seed: int, *flags: str, stdin: str | None = None) -> dict:
    """One ``one_pass.py`` process; its JSON record."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "one_pass.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    command.extend(flags)
    # One thread per process: the workloads are single-process by design.
    # A fixed hash seed makes every pass the same process, set orders and all.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            input=stdin,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise RunError(f"a {workload} pass exceeded {PASS_TIMEOUT_S} s") from error
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RunError(f"a {workload} pass exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_passes(
    workload: str, seed: int, deadline: float, trace: bool
) -> tuple[list[dict], list[dict]]:
    """The passes of a run, which ends at ``deadline`` (``time.monotonic()``).

    Untraced, the first pass is complete.  Each further pass follows a
    set-up probe and ends before the first operation that would end after
    the deadline, going by the first pass's latencies, so the run measures
    until its end.  Traced, a round is an untraced and a span-timing pass;
    the first round adds the counting pass, and rounds go on while the
    next would end in time.  Returns the pass records and the probe records.
    """
    if not trace:
        passes, probes = [run_child(workload, seed)], []
        expected = json.dumps(passes[0]["latencies_s"])
        while deadline - time.monotonic() > MIN_TAIL_S:
            probes.append(run_child(workload, seed, "--setup-only"))
            record = run_child(workload, seed, "--stop-at", repr(deadline), stdin=expected)
            if record["attempted"]:
                passes.append(record)
        return passes, probes

    passes = []
    rounds = 0
    while True:
        round_flags = [None, "time", "count"] if rounds == 0 else [None, "time"]
        round_s = 0.0
        for flag in round_flags:
            started = time.monotonic()
            trace_flags = ("--trace", flag) if flag else ()
            passes.append(run_child(workload, seed, *trace_flags))
            if flag != "count":
                round_s += time.monotonic() - started
        rounds += 1
        if time.monotonic() + round_s > deadline:
            return passes, []


def percentile_ms(latencies: list[float], percent: int) -> float:
    """The ``percent``-th percentile of the latencies, in ms."""
    return statistics.quantiles(latencies, n=100, method="inclusive")[percent - 1] * 1e3


def end_to_end(
    passes: list[dict], probes: list[dict], rms: float, scaled: bool = True
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run.

    Times are scaled to the reference host (:mod:`perfbench.hostspeed`),
    each by the host's speed around it, or as measured with
    ``scaled=False``.  Every operation's latency is its mean over the
    passes that made it (the last pass of a run may stop early).
    ``wall_s`` is the sum of these means and the ``op_*`` percentiles are
    taken over them, so each operation counts once however many passes
    made it.  Set-up time is the median over the passes and the set-up
    probes; peak RSS the median over the complete passes.
    """
    count = max(len(record["latencies_s"]) for record in passes)
    scaled_passes = [
        [
            latency * (factor if scaled else 1.0)
            for latency, factor in zip(record["latencies_s"], record["host_factors"])
        ]
        for record in passes
    ]
    latencies = [
        statistics.fmean(row[index] for row in scaled_passes if index < len(row))
        for index in range(count)
    ]
    setups = [
        record["setup_s"] * (record["setup_factor"] if scaled else 1.0)
        for record in passes + probes
    ]
    complete = [record for record in passes if len(record["latencies_s"]) == count]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (math.fsum(latencies), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in complete), "MiB"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "op_p99_ms": (percentile_ms(latencies, 99), "ms"),
        "paper_rms_max": (rms, "1"),
    }


def per_layer(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run."""
    timed = [record for record in passes if record["trace"] == "time"]
    (counted,) = [record for record in passes if record["trace"] == "count"]
    untraced = [record for record in passes if not record["trace"]]
    metrics: dict[str, tuple[float, str]] = {}
    for name, (value, unit) in counted["layers"]["metrics"].items():
        if unit == "s" or name == "trace.unattributed_frac":
            value = statistics.median(r["layers"]["metrics"][name][0] for r in timed)
        metrics[name] = (value, unit)
    overhead = (
        statistics.median(r["wall_s"] for r in timed)
        / statistics.median(r["wall_s"] for r in untraced)
        - 1.0
    )
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def layer_shares(passes: list[dict]) -> dict[str, float]:
    """Each timed layer's share of the traced self time (median pass)."""
    traced = [record["layers"]["self_s"] for record in passes if record["trace"] == "time"]
    medians = {layer: statistics.median(r[layer] for r in traced) for layer in traced[0]}
    total = sum(medians.values()) or 1.0
    return {layer: value / total for layer, value in medians.items()}


def environment() -> dict:
    """What the figures were measured on."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def declared_metrics(trace: bool) -> list[str]:
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads(BENCHMARK.read_text())
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def write_raw(record: dict) -> None:
    """Store one run's raw record and refresh the tidy table."""
    from perfbench.tidy import write_tidy

    raw_dir = OUT / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = raw_dir / f"{record['workload']}-s{record['seed']}-t{int(record['trace'])}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    write_tidy(raw_dir, OUT / "metrics.csv")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper_figures", "tune_stream", "multijob_contention"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds
    trace = bool(args.trace)

    forbidden = [name for name in FORBIDDEN_ENV if name in os.environ]
    if forbidden:
        print(f"refusing to measure with {', '.join(forbidden)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "core" / "api.py").is_file() or not BENCHMARK.is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    rms = None
    if not trace and args.workload != "paper_figures":
        # Accuracy on the IOR figures, once per run, inside its time.
        from perfbench.workloads import paper_rms_max

        rms = paper_rms_max()
    try:
        passes, probes = run_passes(args.workload, args.seed, deadline, trace)
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    attempted = sum(record["attempted"] for record in passes)
    failed = sum(record["failed"] for record in passes)
    # A pass that stopped early has the digest of fewer outputs.
    digests = sorted({record["digest"] for record in passes if record["complete"]})
    problems = [problem for record in passes for problem in record["problems"]]
    if len(digests) > 1:
        problems.append(f"passes disagree on the simulated outputs: {digests}")
    if trace:
        metrics = per_layer(passes)
    else:
        if rms is None:
            rms = passes[0]["paper_rms_max"]
        metrics = end_to_end(passes, probes, rms)
        measured = end_to_end(passes, probes, rms, scaled=False)
    correct = failed == 0 and len(digests) == 1
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "environment": environment(),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": correct,
        "digest": digests[0] if len(digests) == 1 else digests,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if trace:
        record["layer_shares"] = layer_shares(passes)
    else:
        record["probes"] = probes
        record["measured_metrics"] = {
            name: {"value": v, "unit": u} for name, (v, u) in measured.items()
        }
    write_raw(record)

    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"{'passes':32s} {len(passes)}")
    print(f"{'attempted':32s} {attempted} ops")
    print(f"{'failed_frac':32s} {failed / attempted:.6f}")
    print(f"{'digest':32s} {record['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    if not trace:
        for name, (value, unit) in measured.items():
            if unit in ("s", "ms"):
                print(f"{'measured ' + name:32s} {value:.6g} {unit}")
    else:
        for layer, share in sorted(record["layer_shares"].items(), key=lambda kv: -kv[1]):
            print(f"{'share ' + layer:32s} {share * 100:.1f} %")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
