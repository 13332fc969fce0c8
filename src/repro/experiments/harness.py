"""Experiment registry and runner.

Every registered experiment is a scenario definition: a base
:class:`~repro.scenario.spec.Scenario` plus a sweep, run through the
:class:`~repro.scenario.simulation.Simulation` facade.  The registry
functions therefore accept, next to the ``scale`` divisor, an optional
``overrides`` mapping of dotted spec paths (the CLI's ``--set``) applied to
the base scenario before the sweep expands it.
"""

from __future__ import annotations

from difflib import get_close_matches
from typing import Any, Callable, Mapping

from repro.experiments import ablations, autotuning, figures, interference, optimality
from repro.experiments.results import ExperimentResult

#: Registry mapping experiment ids to their reproduction functions.  Each
#: function takes ``(scale, overrides=None)``; stubs taking only ``scale``
#: keep working as long as no overrides are requested.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig07": figures.fig07_ior_mira,
    "fig08": figures.fig08_ior_theta,
    "fig09": figures.fig09_micro_mira,
    "fig10": figures.fig10_micro_theta,
    "table1": figures.table1_buffer_stripe_ratio,
    "fig11": figures.fig11_hacc_mira_1k,
    "fig12": figures.fig12_hacc_mira_4k,
    "fig13": figures.fig13_hacc_theta_1k,
    "fig14": figures.fig14_hacc_theta_2k,
    "headline": figures.headline_claims,
    "ablation_placement": ablations.ablation_placement,
    "ablation_pipelining": ablations.ablation_pipelining,
    "ablation_aggregators": ablations.ablation_aggregator_count,
    "ablation_io_locality": ablations.ablation_io_locality,
    "ablation_burst_buffer": ablations.ablation_burst_buffer,
    "interference_theta_ost": interference.interference_theta_ost,
    "interference_job_count": interference.interference_job_count,
    "interference_alloc_policy": interference.interference_alloc_policy,
    "interference_bb_drain": interference.interference_bb_drain,
    "tuning_theta_rediscovery": autotuning.tuning_theta_rediscovery,
    "tuning_interference_aware": autotuning.tuning_interference_aware,
    "placement_optimality": optimality.placement_optimality,
}


def list_experiments() -> list[str]:
    """All registered experiment ids, figures first."""
    return list(EXPERIMENTS)


def describe_experiments() -> dict[str, str]:
    """One-line description per experiment id.

    The descriptions come from the registry functions' docstring summaries,
    so the CLI's ``list`` output stays in lock-step with the code.
    """
    descriptions = {}
    for experiment_id, function in EXPERIMENTS.items():
        lines = (function.__doc__ or "").strip().splitlines()
        descriptions[experiment_id] = lines[0].strip() if lines else ""
    return descriptions


def suggest_experiments(experiment_id: str, n: int = 3) -> list[str]:
    """Registered ids closest to a (misspelled) experiment id."""
    return get_close_matches(experiment_id, list(EXPERIMENTS), n=n)


def unknown_experiment_message(experiment_id: str) -> str:
    """Human-readable error for an unknown id, with a did-you-mean hint."""
    matches = suggest_experiments(experiment_id)
    hint = f" (did you mean: {', '.join(matches)}?)" if matches else ""
    return (
        f"unknown experiment {experiment_id!r}{hint}; "
        f"known: {', '.join(EXPERIMENTS)}"
    )


def _run_registered(
    experiment_id: str,
    scale: float = 1.0,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentResult:
    """Execute one registered experiment (the canonical internal executor).

    Everything public — :func:`repro.core.api.evaluate` and the parallel
    runner's worker processes — funnels through here.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(unknown_experiment_message(experiment_id))
    if overrides:
        result = EXPERIMENTS[experiment_id](scale, overrides)
        _maybe_certify(experiment_id, scale, overrides, result)
        return result
    return EXPERIMENTS[experiment_id](scale)


def _maybe_certify(
    experiment_id: str,
    scale: float,
    overrides: Mapping[str, Any],
    result: ExperimentResult,
) -> None:
    """Opportunistically certify the greedy placement's optimality gap.

    Only engages when the caller explicitly asked for it (``--set
    placement.certify=true``), so certify-off runs — and their artifacts —
    are bit-for-bit what they were before this hook existed.  Experiments
    without a certifiable base scenario (multi-job, MPI-IO, or simply not
    registered as a scenario) are skipped silently: certification is an
    annotation, never a reason for a run to fail.
    """
    if not overrides.get("placement.certify"):
        return
    if result.optimality_gap is not None:
        return  # the experiment certified itself
    from repro.placement_opt.certify import maybe_certify_result
    from repro.scenario.registry import get_scenario
    from repro.scenario.spec import ScenarioError

    try:
        scenario = get_scenario(experiment_id, scale=scale).with_overrides(overrides)
        maybe_certify_result(result, scenario)
    except (KeyError, ScenarioError):
        return
