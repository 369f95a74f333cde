"""Correctness checks and quality figures read from a finished run's outputs."""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

REPORT_FILES = ("report.csv", "report.md", "report_by_level.csv",
                "report_raw.csv", "report.dat", "manifest.json")
REL_COLUMNS = ("avg_rel_rmse", "headline_rel_rmse")


def output_problems(out: Path, labels: list[str]) -> list[str]:
    """Documented outputs that are missing, and ``ar_1`` rows that do not
    read exactly 1.000."""
    problems = [f"missing {name}" for name in REPORT_FILES if not (out / name).is_file()]
    for label in labels:
        bundle = out / "checkpoints" / label
        try:
            manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"bundle {label}: unreadable manifest ({exc})")
            continue
        if not manifest["nodes"]:
            problems.append(f"bundle {label}: no nodes")
        problems += [
            f"bundle {label}: missing {entry['file']}"
            for entry in manifest["nodes"].values()
            if not (bundle / entry["file"]).is_file()
        ]
    if (out / "report.csv").is_file():
        with open(out / "report.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["model"] == "ar_1"]
        if not rows:
            problems.append("report.csv has no ar_1 rows")
        problems += [
            f"report.csv ar_1 horizon {r['horizon']} {col}={r[col]}"
            for r in rows for col in REL_COLUMNS if r[col] != "1.000"
        ]
    return problems


def output_digest(out: Path) -> dict[str, str]:
    """SHA-256 of ``report_raw.csv`` and every checkpoint file."""
    files = [out / "report_raw.csv", *sorted((out / "checkpoints").rglob("*.ckpt"))]
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files if p.is_file()
    }


def rel_rmse_means(out: Path, root: str) -> tuple[float, float]:
    """(avg_rel_rmse, headline_rel_rmse): the mean over every non-``ar_1``
    model and horizon of the per-horizon mean relative RMSE over non-root
    nodes, and of the root's relative RMSE, at full precision."""
    disagg: dict[tuple[str, str], list[float]] = {}
    headline: list[float] = []
    with open(out / "report_raw.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["model"] == "ar_1":
                continue
            try:
                value = float(r["rel_rmse"])
            except ValueError:  # an "n/a(<code>)" cell
                continue
            if r["node"] == root:
                headline.append(value)
            else:
                disagg.setdefault((r["model"], r["horizon"]), []).append(value)
    return (
        statistics.fmean(statistics.fmean(v) for v in disagg.values()),
        statistics.fmean(headline),
    )


def first_origin(panel, node: str, rho: int) -> int:
    """The first test origin of ``node`` with ``rho`` observations before it."""
    return max(panel.split_index[node], rho)


def reload_forecast_digest(out: Path, config: Path, labels: list[str]) -> str:
    """Reload every bundle through ``load_bundle`` and forecast the first
    admissible test origin of every node; returns a digest of the values.

    Raises ValueError when a forecast is not finite."""
    from hiergru.checkpoint import load_bundle
    from hiergru.cli import load_config
    from hiergru.dataset import load_series_csv

    cfg = load_config(config)
    panel = load_series_csv(cfg["series"], already_rates=cfg["already_rates"],
                            train_fraction=cfg["split_fraction"])
    horizon = max(cfg["horizons"])
    digest = hashlib.sha256()
    for label in labels:
        bundle = load_bundle(out / "checkpoints" / label)
        for node in bundle.covered_nodes():
            values = bundle.forecast(panel, node, first_origin(panel, node, bundle.rho),
                                     horizon)
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{label}/{node}: non-finite reloaded forecast")
            digest.update(values.tobytes())
    return digest.hexdigest()
