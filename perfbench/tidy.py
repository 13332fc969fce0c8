"""Turn the raw per-run JSON records into one tidy CSV table.

One row per workload x metric x run, so the runs of two commits can be
compared with any table tool:

    python3 perfbench/tidy.py            # perfbench/out/raw -> perfbench/out/metrics.csv
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

COLUMNS = ("run", "git_sha", "workload", "seed", "trace", "metric", "unit", "value", "correct")


def tidy_rows(raw_dir: Path) -> list[dict]:
    """The rows of every raw record under ``raw_dir``, in file-name order."""
    rows = []
    for path in sorted(raw_dir.glob("*.json")):
        record = json.loads(path.read_text())
        for metric, entry in record["metrics"].items():
            rows.append(
                {
                    "run": path.stem,
                    "git_sha": record["environment"]["git_sha"] or "",
                    "workload": record["workload"],
                    "seed": record["seed"],
                    "trace": int(record["trace"]),
                    "metric": metric,
                    "unit": entry["unit"],
                    "value": repr(entry["value"]),
                    "correct": int(record["correct"]),
                }
            )
    return rows


def write_tidy(raw_dir: Path, out_path: Path) -> int:
    """Rewrite ``out_path`` from the raw records; returns the row count."""
    rows = tidy_rows(raw_dir)
    with out_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "out"
    count = write_tidy(out / "raw", out / "metrics.csv")
    print(f"{count} rows -> {out / 'metrics.csv'}")
    sys.exit(0)
