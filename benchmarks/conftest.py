"""Shared helpers for the benchmark suite.

Each benchmark file regenerates one figure or table of the paper at the
paper's scale (node counts, aggregator counts, buffer/stripe sizes from the
figure captions), prints the reproduced series, and asserts the qualitative
checks (who wins, by what factor, where the optimum lies).

Run with::

    pytest benchmarks/ --benchmark-only

Pass ``-s`` to see the reproduced tables inline.

The suite also works in minimal environments without ``pytest-benchmark``:
a fallback ``benchmark`` fixture runs each experiment once without timing
statistics.  Set ``REPRO_BENCH_ARTIFACTS=<dir>`` to additionally persist
every reproduced result as a JSON artifact (plus ``manifest.json``) so CI
can upload the sweep.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.api import evaluate
from repro.experiments.store import ArtifactStore

#: Scale divisor applied to node counts.  1.0 reproduces the paper's scale;
#: set REPRO_BENCH_SCALE=8 (for example) for a quick smoke run.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: When set, every benchmarked experiment is persisted into this directory.
ARTIFACT_DIR = os.environ.get("REPRO_BENCH_ARTIFACTS", "")


class _PlainBenchmark:
    """Minimal stand-in for the ``benchmark`` fixture of pytest-benchmark.

    Only the entry points used by this suite (``pedantic`` and plain calls)
    are provided; the function under test runs exactly once and its return
    value is passed through, so the qualitative checks still execute — just
    without timing statistics.
    """

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1):
        return target(*args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)


class _FallbackBenchmarkPlugin:
    """Provides a plain ``benchmark`` fixture when pytest-benchmark is absent."""

    @pytest.fixture
    def benchmark(self):
        return _PlainBenchmark()


def pytest_configure(config):
    """Degrade gracefully when pytest-benchmark is missing or disabled."""
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_FallbackBenchmarkPlugin(), "fallback-benchmark")


@pytest.fixture(scope="session")
def artifact_store() -> ArtifactStore | None:
    """Artifact store for the benchmark sweep, or ``None`` when disabled."""
    return ArtifactStore(ARTIFACT_DIR) if ARTIFACT_DIR else None


@pytest.fixture
def experiment_runner(benchmark, artifact_store):
    """Run a registered experiment once under pytest-benchmark and verify it."""

    def run(experiment_id: str):
        start = time.perf_counter()
        result = benchmark.pedantic(
            lambda: evaluate(experiment_id, scale=BENCH_SCALE).result,
            rounds=1,
            iterations=1,
        )
        wall_time = time.perf_counter() - start
        if artifact_store is not None:
            artifact_store.save(result, scale=BENCH_SCALE, wall_time_s=wall_time)
        print()
        print(result.render())
        assert result.all_checks_pass(), (
            f"{experiment_id} failed qualitative checks: {result.failed_checks()}"
        )
        return result

    return run
