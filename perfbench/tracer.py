"""Layer-attributed tracing for the benchmark's traced runs.

The tracer wraps the public functions of each program layer from the
outside, so the program itself carries no benchmark code.  Each wrapper is
either

* a **span**: timed with ``perf_counter``; the span's *self time* is its
  duration minus the durations of the spans it caused (its children), so
  every traced second lands in exactly one layer; or
* a **count**: the per-rank accessors run millions of times per workload,
  so they are only counted and their time stays with the calling span.

Counting millions of calls costs time of its own, which would land in the
calling spans' self time.  A tracer built with ``counting=False`` installs
the spans only: its self times are the ones to report, and a second pass
with ``counting=True`` supplies the counts.

Patching follows the binding each caller resolves.  ``from x import f``
copies ``f`` into the importing module, so a function is replaced in every
loaded module of the program (and of the benchmark's workloads) that binds
it; methods are replaced on every class of the hierarchy that defines them.
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: A hook run after a wrapped call: ``(args, kwargs, result) -> None``.
After = Callable[[tuple, dict, Any], None]

#: Modules whose bindings are patched: the program and the benchmark's own
#: workloads, which call the program's public functions by name.
_CALLERS = ("repro", "perfbench.workloads")

#: Layers whose self time the per-layer metrics report, in report order.
TIMED_LAYERS = (
    "core.partitioning",
    "core.placement",
    "topology.pair_metrics",
    "perfmodel.flows",
    "perfmodel.tapioca",
    "perfmodel.mpiio",
    "iolib",
    "storage",
    "scenario",
    "experiments.store.load",
    "experiments.store.save",
    "multijob.contention",
    "multijob.runtime",
    "multijob.allocator",
    "machine",
    "experiments",
    "autotune",
    "placement_opt",
    "reporting",
)


class Tracer:
    """Per-layer call counts and self times, collected by patched wrappers.

    Use :meth:`installed` around the traced work and :meth:`operation`
    around each benchmark operation, so time inside an operation that no
    layer span covers is measured as unattributed.  With ``counting=False``
    the count wrappers are not installed, and the counts they feed stay 0.
    """

    def __init__(self, counting: bool = True) -> None:
        self.counting = counting
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op_s = 0.0
        self.unattributed_s = 0.0
        # One frame per open span: the summed duration of its children.
        self._frames: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, layer: str, after: After | None = None):
        """A wrapper factory timing calls as spans of ``layer``."""
        frames, self_s, calls, clock = self._frames, self.self_s, self.calls, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(args, kwargs, result)
                    return result
                finally:
                    elapsed = clock() - start
                    frames.pop()
                    self_s[layer] += elapsed - frame[0]
                    calls[layer] += 1
                    if frames:
                        frames[-1][0] += elapsed

            return wrapper

        return make

    def count(self, name: str, after: After | None = None):
        """A wrapper factory counting calls under ``name`` without timing them."""
        counts = self.counts

        def make(fn):
            if after is None:

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)

            else:

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    result = fn(*args, **kwargs)
                    after(args, kwargs, result)
                    return result

            return wrapper

        return make

    @contextmanager
    def operation(self) -> Iterator[None]:
        """Frame one benchmark operation; uncovered time is unattributed."""
        frame = [0.0]
        self._frames.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._frames.pop()
            self.op_s += elapsed
            self.unattributed_s += elapsed - frame[0]

    # -- patching -----------------------------------------------------------

    def patch_function(self, module_name: str, name: str, make) -> None:
        """Replace a function in its module and in every module that imported it."""
        original = getattr(sys.modules[module_name], name)
        wrapper = make(original)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith(_CALLERS):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def patch_functions(self, module_name: str, make) -> None:
        """Patch every public function defined in a module."""
        module = sys.modules[module_name]
        for name, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == module_name
                and not name.startswith("_")
            ):
                self.patch_function(module_name, name, make)

    def patch_method(self, cls: type, name: str, make, *, subclasses: bool = True) -> None:
        """Replace a method on ``cls`` and on each subclass that overrides it."""
        classes = [cls, *_all_subclasses(cls)] if subclasses else [cls]
        for klass in classes:
            raw = klass.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((klass, name, raw))
            setattr(klass, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, name, original)`` of every binding currently patched."""
        return list(self._patches)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install the layer wrappers for the duration of the block."""
        install_layers(self)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics as ``{name: (value, unit)}``."""
        calls, counts, self_s = self.calls, self.counts, self.self_s
        loads = calls["experiments.store.load"]
        return {
            "core.partitioning.calls": (calls["core.partitioning"], "count"),
            "core.partitioning.self_s": (self_s["core.partitioning"], "s"),
            "core.partitioning.ranks": (counts["core.partitioning.ranks"], "count"),
            "core.partitioning.partitions": (
                counts["core.partitioning.partitions"],
                "count",
            ),
            "core.placement.calls": (calls["core.placement"], "count"),
            "core.placement.self_s": (self_s["core.placement"], "s"),
            "core.placement.candidates": (counts["core.placement.candidates"], "count"),
            "core.cost_model.best_candidate.calls": (
                counts["core.cost_model.best_candidate"],
                "count",
            ),
            "workloads.bytes_per_rank.calls": (counts["workloads.bytes_per_rank"], "count"),
            "workloads.segments_for_rank.calls": (
                counts["workloads.segments_for_rank"],
                "count",
            ),
            "topology.node_of_rank.calls": (counts["topology.node_of_rank"], "count"),
            "topology.pair_metrics.calls": (calls["topology.pair_metrics"], "count"),
            "topology.pair_metrics.self_s": (self_s["topology.pair_metrics"], "s"),
            "perfmodel.flows.calls": (calls["perfmodel.flows"], "count"),
            "perfmodel.flows.self_s": (self_s["perfmodel.flows"], "s"),
            "perfmodel.flows.senders": (counts["perfmodel.flows.senders"], "count"),
            "perfmodel.tapioca.calls": (calls["perfmodel.tapioca"], "count"),
            "perfmodel.tapioca.self_s": (self_s["perfmodel.tapioca"], "s"),
            "perfmodel.mpiio.calls": (calls["perfmodel.mpiio"], "count"),
            "perfmodel.mpiio.self_s": (self_s["perfmodel.mpiio"], "s"),
            "perfmodel.rounds": (counts["perfmodel.rounds"], "count"),
            "iolib.calls": (calls["iolib"], "count"),
            "iolib.self_s": (self_s["iolib"], "s"),
            "storage.read_calls": (counts["storage.read"], "count"),
            "storage.write_calls": (counts["storage.write"], "count"),
            "storage.self_s": (self_s["storage"], "s"),
            "scenario.calls": (calls["scenario"], "count"),
            "scenario.self_s": (self_s["scenario"], "s"),
            "experiments.store.loads": (loads, "count"),
            "experiments.store.saves": (calls["experiments.store.save"], "count"),
            "experiments.store.load_s": (self_s["experiments.store.load"], "s"),
            "experiments.store.save_s": (self_s["experiments.store.save"], "s"),
            "experiments.store.bytes_written": (counts["experiments.store.bytes"], "B"),
            "experiments.store.hit_frac": (
                counts["experiments.store.hits"] / loads if loads else 0.0,
                "frac",
            ),
            "multijob.contention.allocs": (counts["multijob.contention.allocs"], "count"),
            "multijob.contention.self_s": (self_s["multijob.contention"], "s"),
            "multijob.contention.flow_resource_cells": (
                counts["multijob.contention.cells"],
                "count",
            ),
            "multijob.runtime.calls": (calls["multijob.runtime"], "count"),
            "multijob.runtime.self_s": (self_s["multijob.runtime"], "s"),
            "multijob.allocator.self_s": (self_s["multijob.allocator"], "s"),
            "machine.builds": (calls["machine"], "count"),
            "machine.self_s": (self_s["machine"], "s"),
            "experiments.self_s": (self_s["experiments"], "s"),
            "autotune.self_s": (self_s["autotune"], "s"),
            "placement_opt.self_s": (self_s["placement_opt"], "s"),
            "reporting.self_s": (self_s["reporting"], "s"),
            "trace.unattributed_frac": (
                self.unattributed_s / self.op_s if self.op_s else 0.0,
                "frac",
            ),
        }

    def layer_self_s(self) -> dict[str, float]:
        """Self time per timed layer (store load and save merged)."""
        merged: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            key = "experiments.store" if layer.startswith("experiments.store") else layer
            merged[key] = merged.get(key, 0.0) + self.self_s[layer]
        return merged


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        klass = stack.pop()
        if klass not in found:
            found.append(klass)
            stack.extend(klass.__subclasses__())
    return found


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics report."""
    # Import every module that defines or binds a wrapped name first, so the
    # scan for importers sees them all.
    import repro.autotune.tuner as tuner
    import repro.core.api  # noqa: F401
    import repro.core.cost_model as cost_model
    import repro.core.topology_iface as topology_iface
    import repro.experiments.backends as backends
    import repro.experiments.harness  # noqa: F401
    import repro.experiments.results as results
    import repro.experiments.store as store
    import repro.machine.generic as generic
    import repro.machine.mira as mira
    import repro.machine.theta as theta
    import repro.multijob.allocator as allocator
    import repro.multijob.contention as contention
    import repro.multijob.runtime as runtime
    import repro.placement_opt.anneal  # noqa: F401
    import repro.placement_opt.certify  # noqa: F401
    import repro.placement_opt.exact  # noqa: F401
    import repro.placement_opt.problem as problem
    import repro.reporting  # noqa: F401
    import repro.scenario.simulation as simulation
    import repro.scenario.spec as spec
    import repro.storage.base as storage_base
    import repro.topology.base as topology_base
    import repro.topology.mapping as mapping
    import repro.workloads.base as workloads_base
    from repro.iolib import hints

    counts = tracer.counts
    span, count = tracer.span, tracer.count

    def count_method(cls: type, name: str, make) -> None:
        if tracer.counting:
            tracer.patch_method(cls, name, make)

    # Partitioning, placement and the per-rank accessors they drive.
    def partitions(args, kwargs, result):
        counts["core.partitioning.partitions"] += len(result)
        counts["core.partitioning.ranks"] += sum(len(p.ranks) for p in result)

    def candidates(args, kwargs, result):
        counts["core.placement.candidates"] += len(_arg(args, kwargs, 1, "candidates"))

    tracer.patch_function(
        "repro.core.partitioning", "build_partitions", span("core.partitioning", partitions)
    )
    tracer.patch_function(
        "repro.core.placement", "place_aggregators", span("core.placement")
    )
    count_method(
        cost_model.AggregationCostModel,
        "best_candidate",
        count("core.cost_model.best_candidate", candidates),
    )
    for accessor in ("bytes_per_rank", "segments_for_rank"):
        count_method(workloads_base.Workload, accessor, count(f"workloads.{accessor}"))
    count_method(mapping.RankMapping, "node", count("topology.node_of_rank"))
    count_method(
        topology_iface.TopologyInterface, "node_of_rank", count("topology.node_of_rank")
    )
    tracer.patch_method(
        topology_base.Topology, "pair_metrics", span("topology.pair_metrics")
    )

    # The analytic models, flow analysis, MPI-IO library and storage models.
    def senders(args, kwargs, result):
        by_aggregator = _arg(args, kwargs, 1, "senders_by_aggregator")
        counts["perfmodel.flows.senders"] += sum(len(v) for v in by_aggregator.values())

    def rounds(args, kwargs, result):
        counts["perfmodel.rounds"] += result.num_rounds

    tracer.patch_function("repro.perfmodel.flows", "analyze_flows", span("perfmodel.flows", senders))
    tracer.patch_function(
        "repro.perfmodel.tapioca", "model_tapioca", span("perfmodel.tapioca", rounds)
    )
    tracer.patch_function("repro.perfmodel.mpiio", "model_mpiio", span("perfmodel.mpiio", rounds))
    for module_name in ("repro.iolib.aggregators", "repro.iolib.tuning"):
        tracer.patch_functions(module_name, span("iolib"))
    for method in ("resolve_cb_nodes", "lustre_stripe", "with_updates"):
        tracer.patch_method(hints.MPIIOHints, method, span("iolib"))

    def phase_access(args, kwargs, result):
        counts[f"storage.{_arg(args, kwargs, 1, 'profile').access}"] += 1

    def operation_access(args, kwargs, result):
        counts[f"storage.{kwargs.get('access', 'write')}"] += 1

    tracer.patch_method(
        storage_base.FileSystemModel, "phase_time", span("storage", phase_access)
    )
    tracer.patch_method(
        storage_base.FileSystemModel, "operation_time", span("storage", operation_access)
    )

    # Scenario description, hashing and resolution.  ``job_specs`` is the
    # multi-job counterpart of ``resolve``.  ``Simulation.run`` is left
    # unwrapped, so model code that no layer covers shows as unattributed.
    for method in ("with_overrides", "content_hash", "to_dict", "from_dict"):
        tracer.patch_method(spec.Scenario, method, span("scenario"), subclasses=False)
    for method in ("resolve", "job_specs"):
        tracer.patch_method(simulation.Simulation, method, span("scenario"))

    # The artifact store and its backends.
    def hit(args, kwargs, result):
        if result is not None:
            counts["experiments.store.hits"] += 1

    def written(args, kwargs, result):
        counts["experiments.store.bytes"] += len(_arg(args, kwargs, 2, "text"))

    for method in ("cached_envelope", "load_scenario_result"):
        tracer.patch_method(store.ArtifactStore, method, span("experiments.store.load", hit))
    for method in ("save", "save_scenario_result", "refresh_manifest"):
        tracer.patch_method(store.ArtifactStore, method, span("experiments.store.save"))
    count_method(backends.StoreBackend, "put", count("experiments.store.put", written))

    # Multi-job contention.
    def cells(args, kwargs, result):
        ledger = args[0]
        counts["multijob.contention.allocs"] += 1
        counts["multijob.contention.cells"] += len(result) * len(ledger.resources)

    tracer.patch_method(
        contention.ContentionLedger, "allocate", span("multijob.contention", cells)
    )
    for method in ("__init__", "bandwidth_factor", "bandwidth_factors"):
        tracer.patch_method(
            contention.LinkContentionFactors, method, span("multijob.contention")
        )
    for method in ("__init__", "run"):
        tracer.patch_method(runtime.MultiJobRuntime, method, span("multijob.runtime"))
    for method in ("__init__", "allocate", "release"):
        tracer.patch_method(allocator.NodeAllocator, method, span("multijob.allocator"))

    # Machine construction: the three concrete machines, not their subclasses
    # (a subclass constructor calls up into one of them).
    for cls in (mira.MiraMachine, theta.ThetaMachine, generic.GenericClusterMachine):
        tracer.patch_method(cls, "__init__", span("machine"), subclasses=False)

    # Sweep code, the tuner, the placement solvers and the paper comparison.
    tracer.patch_function("repro.experiments.runner", "run_experiments", span("experiments"))
    for method in ("to_dict", "from_dict"):
        tracer.patch_method(results.ExperimentResult, method, span("experiments"))
    tracer.patch_method(tuner.Tuner, "tune", span("autotune"))
    for module_name in (
        "repro.placement_opt.anneal",
        "repro.placement_opt.certify",
        "repro.placement_opt.exact",
        "repro.placement_opt.problem",
    ):
        tracer.patch_functions(module_name, span("placement_opt"))
    tracer.patch_method(problem.PlacementProblem, "from_partitions", span("placement_opt"))
    tracer.patch_function("repro.reporting.paperdata", "compare_result", span("reporting"))
