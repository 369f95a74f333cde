"""Rolling-origin evaluation over the test split and report rendering.

Every admissible test origin of every node produces a recursive forecast;
per-node RMSE at each horizon is normalized by the same node's AR(1) RMSE
at the same horizon, and report rows aggregate disaggregated (non-root)
nodes separately from the headline (root) series.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .baselines import fit_baseline
from .dataset import SeriesPanel
from .errors import (
    DegenerateDistanceVarianceError,
    DegenerateVarianceError,
    HiergruError,
    MissingBaselineError,
)
from .hierarchy import Hierarchy, NodeId
from .metrics import distance_correlation, pearson, relative_rmse, rmse

MONTHLY_HORIZONS = (0, 1, 2, 3, 4, 8)
DAILY_HORIZONS = (0, 1, 2, 3, 7, 14)

AGG_COLUMNS = (
    "avg_rel_rmse",
    "avg_pearson",
    "avg_dist_corr",
    "headline_rel_rmse",
    "headline_pearson",
    "headline_dist_corr",
)
LEVEL_COLUMNS = ("rel_rmse", "pearson", "dist_corr")


@dataclass(frozen=True)
class Cell:
    """A numeric report cell, or an n/a marker with a reason code."""

    value: float | None
    code: str | None = None

    def render(self) -> str:
        if self.value is None:
            return f"n/a({self.code})"
        return f"{self.value:.3f}"

    def render_raw(self) -> str:
        if self.value is None:
            return f"n/a({self.code})"
        return repr(self.value)


def _mean_cell(cells: list[Cell]) -> Cell:
    vals = [c.value for c in cells if c.value is not None]
    if not vals:
        return Cell(None, "no-nodes")
    return Cell(float(np.mean(vals)))


@dataclass
class EvalReport:
    """Aggregate rows keyed by (model label, horizon), a per-level
    breakdown, and the underlying per-node metrics."""

    labels: tuple[str, ...]
    horizons: tuple[int, ...]
    rows: dict[tuple[str, int], dict[str, Cell]]
    level_rows: dict[tuple[str, int, int], dict[str, Cell]]
    level_counts: dict[int, int]
    node_metrics: dict[tuple[str, NodeId, int], dict[str, Cell]]


def _metric_cell(fn, actuals, predictions) -> Cell:
    codes = {
        DegenerateVarianceError: "degenerate-variance",
        DegenerateDistanceVarianceError: "degenerate-distance-variance",
    }
    try:
        return Cell(fn(actuals, predictions))
    except tuple(codes) as exc:
        return Cell(None, codes[type(exc)])


def _collect_forecasts(bundle, panel, node, horizons):
    """Predictions and matching actuals from every admissible test origin."""
    max_h = max(horizons)
    rates = panel.rates[node]
    per_h = {j: ([], []) for j in horizons}
    for origin in panel.test_positions(node):
        if origin < bundle.rho:
            continue
        traj = bundle.forecast(panel, node, origin, max_h)
        for j in horizons:
            if origin + j < rates.shape[0]:
                per_h[j][0].append(traj[j])
                per_h[j][1].append(rates[origin + j])
    return {
        j: (np.array(p), np.array(a)) for j, (p, a) in per_h.items()
    }


def evaluate(
    bundles: list,
    panel: SeriesPanel,
    h: Hierarchy,
    horizons=MONTHLY_HORIZONS,
) -> EvalReport:
    """Rolling-origin evaluation of fitted bundles against the panel's test
    segments.

    An AR(1) reference is fit implicitly on every node as the RMSE
    normalization denominator.  Aggregate rows average the per-node values
    over the disaggregated (non-root) nodes; headline columns are the
    root's own.
    """
    horizons = tuple(sorted(set(int(j) for j in horizons)))
    if not horizons or horizons[0] < 0:
        raise HiergruError(f"invalid horizon list {horizons}")
    labels = [b.display_label for b in bundles]
    if len(set(labels)) != len(labels):
        raise HiergruError(f"duplicate model labels: {labels}")

    reference = fit_baseline(panel, h, "ar", rho=1)
    if not reference.models:
        raise MissingBaselineError("no node could fit the AR(1) reference")

    ref_rmse: dict[tuple[NodeId, int], float] = {}
    for node in h.bfs_order():
        if node not in reference.models:
            continue
        for j, (preds, actuals) in _collect_forecasts(
            reference, panel, node, horizons
        ).items():
            if actuals.size:
                ref_rmse[(node, j)] = rmse(actuals, preds)

    node_metrics: dict[tuple[str, NodeId, int], dict[str, Cell]] = {}

    for label, bundle in zip(labels, bundles):
        for node in h.bfs_order():
            if node not in bundle.model_map:
                for j in horizons:
                    node_metrics[(label, node, j)] = {
                        "n": Cell(0.0),
                        "rmse": Cell(None, "no-model"),
                        "rel_rmse": Cell(None, "no-model"),
                        "pearson": Cell(None, "no-model"),
                        "dist_corr": Cell(None, "no-model"),
                    }
                continue
            collected = _collect_forecasts(bundle, panel, node, horizons)
            for j in horizons:
                preds, actuals = collected[j]
                if actuals.size == 0:
                    node_metrics[(label, node, j)] = {
                        "n": Cell(0.0),
                        "rmse": Cell(None, "no-predictions"),
                        "rel_rmse": Cell(None, "no-predictions"),
                        "pearson": Cell(None, "no-predictions"),
                        "dist_corr": Cell(None, "no-predictions"),
                    }
                    continue
                e = rmse(actuals, preds)
                ref = ref_rmse.get((node, j))
                if ref is None:
                    rel = Cell(None, "no-model")
                elif ref == 0.0:
                    rel = Cell(None, "zero-baseline")
                else:
                    rel = Cell(relative_rmse(e, ref))
                node_metrics[(label, node, j)] = {
                    "n": Cell(float(actuals.size)),
                    "rmse": Cell(e),
                    "rel_rmse": rel,
                    "pearson": _metric_cell(pearson, actuals, preds),
                    "dist_corr": _metric_cell(distance_correlation, actuals, preds),
                }

    rows = {}
    for label in labels:
        for j in horizons:
            disagg = [
                node_metrics[(label, n, j)] for n in h.bfs_order() if n != h.root
            ]
            head = node_metrics[(label, h.root, j)]
            rows[(label, j)] = {
                "avg_rel_rmse": _mean_cell([m["rel_rmse"] for m in disagg]),
                "avg_pearson": _mean_cell([m["pearson"] for m in disagg]),
                "avg_dist_corr": _mean_cell([m["dist_corr"] for m in disagg]),
                "headline_rel_rmse": head["rel_rmse"],
                "headline_pearson": head["pearson"],
                "headline_dist_corr": head["dist_corr"],
            }

    report = EvalReport(
        labels=tuple(labels),
        horizons=horizons,
        rows=rows,
        level_rows={},
        level_counts={},
        node_metrics=node_metrics,
    )
    per_level_table(report, h)
    return report


def per_level_table(report: EvalReport, h: Hierarchy) -> dict:
    """Fill (and return) the per-level breakdown: the same aggregation
    restricted to the nodes of each level; level 0 is the headline."""
    levels = sorted(set(h.level.values()))
    by_level = {lv: [n for n in h.bfs_order() if h.level[n] == lv] for lv in levels}
    report.level_counts.clear()
    report.level_counts.update({lv: len(ns) for lv, ns in by_level.items()})
    report.level_rows.clear()
    for label in report.labels:
        for j in report.horizons:
            for lv, nodes in by_level.items():
                metrics = [report.node_metrics[(label, n, j)] for n in nodes]
                report.level_rows[(label, j, lv)] = {
                    "rel_rmse": _mean_cell([m["rel_rmse"] for m in metrics]),
                    "pearson": _mean_cell([m["pearson"] for m in metrics]),
                    "dist_corr": _mean_cell([m["dist_corr"] for m in metrics]),
                }
    return report.level_rows


# ---------------------------------------------------------------- rendering

def _level_name(level: int) -> str:
    return "headline" if level == 0 else str(level)


def render_report(report: EvalReport, fmt: str = "csv") -> str:
    """Aggregate table, 3-decimal cells, deterministic order."""
    header = ["model", "horizon", *AGG_COLUMNS]
    body = [
        [label, str(j)] + [report.rows[(label, j)][c].render() for c in AGG_COLUMNS]
        for label in report.labels
        for j in report.horizons
    ]
    return _render_table(header, body, fmt)


def render_level_report(report: EvalReport, fmt: str = "csv") -> str:
    header = ["model", "horizon", "level", "nodes", *LEVEL_COLUMNS]
    body = []
    for label in report.labels:
        for j in report.horizons:
            for lv in sorted(report.level_counts):
                cells = report.level_rows[(label, j, lv)]
                body.append(
                    [label, str(j), _level_name(lv), str(report.level_counts[lv])]
                    + [cells[c].render() for c in LEVEL_COLUMNS]
                )
    return _render_table(header, body, fmt)


def render_raw(report: EvalReport) -> str:
    """Per-node values at full precision, for replays and diffing."""
    lines = ["model,node,horizon,n,rmse,rel_rmse,pearson,dist_corr"]
    for label in report.labels:
        for (lab, node, j), m in sorted(report.node_metrics.items()):
            if lab != label:
                continue
            lines.append(
                ",".join(
                    [
                        label,
                        _csv_quote(node),
                        str(j),
                        str(int(m["n"].value or 0)),
                        m["rmse"].render_raw(),
                        m["rel_rmse"].render_raw(),
                        m["pearson"].render_raw(),
                        m["dist_corr"].render_raw(),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def render_gnuplot(report: EvalReport) -> str:
    """Model-per-block data file: horizon vs aggregate columns, '?' for n/a."""
    out = io.StringIO()
    out.write("# hiergru evaluation data\n")
    out.write("# columns: horizon " + " ".join(AGG_COLUMNS) + "\n")
    for label in report.labels:
        out.write(f'\n# model "{label}"\n')
        for j in report.horizons:
            cells = report.rows[(label, j)]
            vals = [
                "?" if cells[c].value is None else repr(cells[c].value)
                for c in AGG_COLUMNS
            ]
            out.write(f"{j} " + " ".join(vals) + "\n")
    return out.getvalue()


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_table(header, body, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_csv_quote(c) for c in row) for row in body]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        lines += ["| " + " | ".join(row) + " |" for row in body]
        return "\n".join(lines) + "\n"
    raise HiergruError(f"unknown report format {fmt!r}")


def write_report_files(report: EvalReport, outdir) -> None:
    """report.csv, report.md, report_by_level.csv, report_raw.csv, report.dat."""
    from pathlib import Path

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(render_report(report, "csv"), encoding="utf-8")
    (out / "report.md").write_text(render_report(report, "markdown"), encoding="utf-8")
    (out / "report_by_level.csv").write_text(
        render_level_report(report, "csv"), encoding="utf-8"
    )
    (out / "report_raw.csv").write_text(render_raw(report), encoding="utf-8")
    (out / "report.dat").write_text(render_gnuplot(report), encoding="utf-8")
