"""The perf-regression observatory behind ``repro dash``.

Renders the ``BENCH_*.json`` trajectory — every committed benchmark
artifact, ``BENCH_5.json`` onward — as one CSV (plus a multi-panel plot
when matplotlib is available) and checks the newest observation of every
metric against its documented floor.

The metric set is :data:`repro.experiments.bench.HISTORY_METRICS`: a
metric added there appears in the table, the CSV and the floor gate, with
older artifacts backfilled as ``"-"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.bench import (
    HISTORY_METRICS,
    history_regressions,
    history_row,
    load_history,
    render_history,
)
from repro.obs import recorder, span

#: File stem of the dashboard outputs (``dashboard.csv`` / ``.png`` / ``.svg``).
DASHBOARD_STEM = "dashboard"


@dataclass
class DashboardReport:
    """The outcome of one :func:`render_dashboard` run."""

    out_dir: Path
    rows: list[dict] = field(default_factory=list)
    csv_path: Path | None = None
    plot_paths: list[Path] = field(default_factory=list)
    regressions: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def passed(self) -> bool:
        """Whether no metric breached its floor."""
        return not self.regressions

    def summary(self) -> str:
        """A ``/stats``-style summary: trajectory table, floors, verdict."""
        lines = [render_history(self.rows)]
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        lines.append("")
        lines.append(
            f"Benchmarks: {len(self.rows)}  metrics: {len(HISTORY_METRICS)}"
            + (f"  -> {self.csv_path}" if self.csv_path else "")
        )
        if self.plot_paths:
            lines.append("Plots: " + ", ".join(p.name for p in self.plot_paths))
        if self.regressions:
            lines.extend(f"REGRESSION: {message}" for message in self.regressions)
        lines.append("Floor gate: " + ("PASS" if self.passed() else "FAIL"))
        return "\n".join(lines)


def render_dashboard(
    history_root: str | Path = ".",
    out_dir: str | Path = "figures",
    *,
    plots: bool = True,
) -> DashboardReport:
    """Render the benchmark trajectory: CSV always, plots when possible.

    Args:
        history_root: directory scanned for ``BENCH_<n>.json``.
        out_dir: where ``dashboard.csv`` (and plots) land.
        plots: set ``False`` to force CSV-only output.

    The caller decides what to do with :meth:`DashboardReport.passed` —
    the CLI's ``--check`` exits non-zero on any breach.
    """
    from repro.reporting.plotting import plot_dashboard

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    report = DashboardReport(out_dir=out_path)
    with span("reporting.render:dashboard", cat="reporting"):
        history = load_history(history_root, on_warning=report.warnings.append)
        report.rows = [history_row(name, payload) for name, payload in history]
        report.csv_path = out_path / f"{DASHBOARD_STEM}.csv"
        report.csv_path.write_text(
            render_history(report.rows, as_csv=True) + "\n", encoding="utf-8"
        )
        if plots and report.rows:
            report.plot_paths = plot_dashboard(
                [metric.header for metric in HISTORY_METRICS],
                [row["name"] for row in report.rows],
                [
                    [row.get(metric.key) for row in report.rows]
                    for metric in HISTORY_METRICS
                ],
                out_path,
                stem=DASHBOARD_STEM,
            )
        report.regressions = history_regressions(report.rows)
        rec = recorder()
        if rec is not None:
            rec.inc("reporting.bench_points", len(report.rows))
            rec.inc("reporting.bench_regressions", len(report.regressions))
    return report


def metric_headers() -> list[str]:
    """The dashboard's metric column headers, in order."""
    return [metric.header for metric in HISTORY_METRICS]
