"""One pass of a benchmark workload, in a fresh interpreter.

A CLI user pays cold imports and cold caches on every invocation, so each
pass is its own process: it imports the program, generates the inputs from
the seed (together the set-up time), performs every operation with
``jobs=1`` and no threads, checks the outputs and prints one JSON line.

    python3 perfbench/one_pass.py --workload tune_stream --seed 1 [--trace time|count | --setup-only]

``--trace time`` wraps the layers' spans only, so their self times hold no
counting cost; ``--trace count`` also wraps the per-rank accessors and
reports the counts (its times are not used).  ``--setup-only`` stops after
the set-up and reports only its time and the host-speed scale for it:
the run adds these probes between passes so set-up time is a
median of more samples.  ``--stop-at T`` ends the pass before the first
operation that would end after ``T`` (a ``time.monotonic()`` time), going
by the latencies of an earlier pass, which it reads from standard input
as a JSON list.  Every pass samples the host's speed after set-up and
between operations (``perfbench/hostspeed.py``).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "perfbench" / "out" / "tmp"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", choices=("time", "count"))
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--stop-at", type=float)
    args = parser.parse_args(argv)
    expected_s = json.loads(sys.stdin.read()) if args.stop_at is not None else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostMeter
    from perfbench.workloads import WORKLOADS, execute

    workload = WORKLOADS[args.workload]
    ops = workload.generate(args.seed)
    setup_s = time.perf_counter() - START
    meter = HostMeter()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_factor": meter.setup_factor()}))
        return 0

    SCRATCH.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    layers = None
    try:
        if args.trace:
            from perfbench.tracer import Tracer

            tracer = Tracer(counting=args.trace == "count")
            with tracer.installed():
                outcomes, wall_s = execute(workload, ops, scratch, tracer.operation, meter)
            layers = {
                "metrics": tracer.metrics(),
                "self_s": tracer.layer_self_s(),
            }
        else:
            outcomes, wall_s = execute(
                workload, ops, scratch, nullcontext, meter, args.stop_at, expected_s
            )
        verdict = workload.check(ops[: len(outcomes)], outcomes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(outcomes),
        "complete": len(outcomes) == len(ops),
        "failed": verdict.failed,
        "problems": verdict.problems,
        "digest": verdict.digest,
        "paper_rms_max": verdict.paper_rms_max,
        "latencies_s": [outcome.latency_s for outcome in outcomes],
        "layers": layers,
        "setup_factor": meter.setup_factor(),
        "host_factors": meter.factors(len(outcomes)),
        "reference_samples_s": meter.samples_s,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
