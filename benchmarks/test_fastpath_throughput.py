"""Benchmark: placement and tuning throughput, and the placement speedup.

The counterpart of ``repro bench`` inside the pytest benchmark suite: the
same placement and tuning measurements (see
:mod:`repro.experiments.bench`), with conservative absolute floors so a
regression fails even on slow CI machines.  The placement speedup over the
scalar reference (:mod:`repro.reference`) is printed for the record but
only asserted to stay above 1x with a margin — host-dependent noise must
not flake the build.
"""

from __future__ import annotations

from repro.experiments.bench import bench_placement, bench_tune

#: Fast-path placement throughput floor (candidates/second).  The fast path
#: clears ~14k candidates/s on a laptop-class core at 512 nodes; 1,500
#: leaves an order of magnitude for slower CI hardware while still sitting
#: well above the pre-fast-path scalar rate (~750-2,000/s).
MIN_PLACEMENT_CANDIDATES_PER_SECOND = 1_500.0

#: The fast path must beat the scalar path by a clear margin on the
#: quadratic placement benchmark (observed: ~7x on Theta, ~19x on Mira).
MIN_PLACEMENT_SPEEDUP = 2.0

#: Tuning throughput floor (points/second) at smoke scale.
MIN_TUNE_POINTS_PER_SECOND = 20.0


def test_placement_fastpath_throughput(benchmark):
    entry = benchmark.pedantic(
        bench_placement,
        args=("theta",),
        kwargs={"nodes": 512, "num_aggregators": 8},
        rounds=1,
        iterations=1,
    )
    rate = entry["fast"]["candidates_per_s"]
    print()
    print(
        f"placement fast path: {rate:,.0f} candidates/s "
        f"(scalar {entry['scalar']['candidates_per_s']:,.0f}, "
        f"speedup {entry['speedup']:.1f}x)"
    )
    assert rate >= MIN_PLACEMENT_CANDIDATES_PER_SECOND, (
        f"placement throughput regressed: {rate:,.0f} candidates/s "
        f"(floor: {MIN_PLACEMENT_CANDIDATES_PER_SECOND:,.0f})"
    )
    assert entry["speedup"] >= MIN_PLACEMENT_SPEEDUP, (
        f"fast path no longer beats the scalar path: {entry['speedup']:.2f}x "
        f"(floor: {MIN_PLACEMENT_SPEEDUP}x)"
    )


def test_tune_fastpath_throughput(benchmark):
    entry = benchmark.pedantic(
        bench_tune,
        args=("fig08",),
        kwargs={"budget": 16, "scale": 8.0},
        rounds=1,
        iterations=1,
    )
    rate = entry["fast"]["points_per_s"]
    print()
    print(f"tuning: {rate:,.1f} points/s")
    assert entry["points"] == 16
    assert rate >= MIN_TUNE_POINTS_PER_SECOND, (
        f"tuning throughput regressed: {rate:,.1f} points/s "
        f"(floor: {MIN_TUNE_POINTS_PER_SECOND})"
    )
