"""Tests for ``repro run-all`` and artifact-backed ``repro report``."""

import json

import repro.experiments.report as report_module
from repro.cli import main
from repro.experiments.harness import EXPERIMENTS
from repro.experiments.results import ExperimentResult, Series

#: Quick registry subset; scale 8 is fast and passes every qualitative check.
QUICK_ARGS = ["--experiment", "table1", "--experiment", "fig10", "--scale", "8"]


def _failing_experiment(scale: float) -> ExperimentResult:
    series = Series("stub")
    series.add(1.0, 1.0)
    return ExperimentResult(
        experiment_id="table1",
        title="stubbed failure",
        machine="nowhere",
        x_label="x",
        series=[series],
        checks={"doomed": False},
    )


class TestRunAllExitCodes:
    def test_all_pass_returns_zero(self, tmp_path, capsys):
        code = main(["run-all", *QUICK_ARGS, "--out", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 ran, 0 cache hits, 0 failed checks" in output
        assert "[PASS] table1" in output

    def test_failed_check_returns_nonzero(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "table1", _failing_experiment)
        code = main(["run-all", *QUICK_ARGS, "--jobs", "1"])
        assert code == 1
        output = capsys.readouterr().out
        assert "[FAIL] table1" in output
        assert "failed: table1" in output

    def test_fail_fast_skips_rest(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "table1", _failing_experiment)
        code = main(["run-all", *QUICK_ARGS, "--jobs", "1", "--fail-fast"])
        assert code == 1
        assert "fig10" not in capsys.readouterr().out


class TestRunAllArtifacts:
    def test_artifacts_manifest_and_cache(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run-all", *QUICK_ARGS, "--out", str(out_dir)]) == 0
        capsys.readouterr()

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["experiments"]) == {"table1", "fig10"}
        for experiment_id in ("table1", "fig10"):
            envelope = json.loads((out_dir / f"{experiment_id}.json").read_text())
            assert envelope["scale"] == 8.0
            assert envelope["result"]["experiment_id"] == experiment_id

        # A second identical invocation is served entirely from the cache.
        assert main(["run-all", *QUICK_ARGS, "--out", str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "0 ran, 2 cache hits, 0 failed checks" in output
        # Two per-row "cached" markers plus the summary's fresh-vs-cached note.
        assert output.count("cached") == 3
        assert "fresh 0.00s + 2 cached (orig " in output

        # --no-cache forces both to re-run.
        assert main(["run-all", *QUICK_ARGS, "--out", str(out_dir), "--no-cache"]) == 0
        assert "2 ran, 0 cache hits" in capsys.readouterr().out

    def test_parallel_jobs_smoke(self, tmp_path, capsys):
        code = main(["run-all", *QUICK_ARGS, "--jobs", "2", "--out", str(tmp_path)])
        assert code == 0
        assert "2 ran" in capsys.readouterr().out


class TestReportFromArtifacts:
    def test_report_reads_artifacts_without_resimulating(
        self, tmp_path, monkeypatch, capsys
    ):
        out_dir = tmp_path / "artifacts"
        assert main(["run-all", *QUICK_ARGS, "--out", str(out_dir)]) == 0

        def explode(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("report --from must not re-simulate")

        monkeypatch.setattr(report_module, "evaluate", explode)
        report_file = tmp_path / "EXPERIMENTS.md"
        code = main(["report", "--from", str(out_dir), "-o", str(report_file)])
        assert code == 0
        text = report_file.read_text()
        assert "table1" in text and "fig10" in text
        assert "from artifacts" in text

    def test_report_from_corrupt_artifact_fails_cleanly(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        out_dir.mkdir()
        (out_dir / "fig99.json").write_text("{trunc", encoding="utf-8")
        code = main(["report", "--from", str(out_dir), "-o", str(tmp_path / "x.md")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_stale_artifact_warning(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli_module

        out_dir = tmp_path / "artifacts"
        assert main(["run-all", *QUICK_ARGS, "--out", str(out_dir)]) == 0
        monkeypatch.setattr(cli_module, "git_sha", lambda *a, **k: "f" * 40)
        assert main(["run-all", *QUICK_ARGS, "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "warning: artifacts" in captured.err
        assert "--no-cache" in captured.err

    def test_report_from_empty_dir_fails(self, tmp_path, capsys):
        code = main(
            ["report", "--from", str(tmp_path / "nothing"), "-o", str(tmp_path / "x.md")]
        )
        assert code == 1
        assert "no experiment artifacts" in capsys.readouterr().err
