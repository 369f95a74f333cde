"""Rolling-origin evaluation over the test split and report rendering.

Each bundle is forecast once, into a :func:`forecast_table`: per node, the
recursive forecasts from every test origin (all of a bundle's nodes roll
forward together, by :meth:`~hiergru.models.ModelBundle.forecast_nodes`)
beside the rates they forecast, NaN past the node's data.  Every score
reads that table: per-node RMSE at each horizon is normalized by the same
node's AR(1) RMSE at the same horizon, and report rows aggregate
disaggregated (non-root) nodes separately from the headline (root) series.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .baselines import fit_baseline
from .dataset import SeriesPanel
from .errors import (
    DegenerateDistanceVarianceError,
    DegenerateVarianceError,
    HiergruError,
    MetricOverflowError,
    MissingBaselineError,
    ZeroBaselineError,
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
    with np.errstate(over="ignore"):
        mean = float(np.mean(vals))
    return Cell(mean) if np.isfinite(mean) else Cell(None, "overflow")


def _means(metrics: list[dict[str, Cell]]) -> dict[str, Cell]:
    """Per :data:`LEVEL_COLUMNS` metric, its mean over per-node metrics."""
    return {c: _mean_cell([m[c] for m in metrics]) for c in LEVEL_COLUMNS}


def _na_metrics(code: str, n: int = 0) -> dict[str, Cell]:
    """A node and horizon without metrics: every metric n/a, over ``n``
    forecasts."""
    cells = {c: Cell(None, code) for c in ("rmse", *LEVEL_COLUMNS)}
    return {"n": Cell(float(n)), **cells}


@dataclass(frozen=True)
class EvalReport:
    """Aggregate rows keyed by (model label, horizon), a per-level
    breakdown keyed by (model label, horizon, level) with each level's node
    count, and the underlying per-node metrics."""

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
        MetricOverflowError: "overflow",
        ZeroBaselineError: "zero-baseline",
    }
    try:
        return Cell(fn(actuals, predictions))
    except tuple(codes) as exc:
        return Cell(None, codes[type(exc)])


def forecast_table(bundle, panel, nodes, horizons) -> dict[NodeId, tuple]:
    """{node: (forecasts, actuals)} for each of ``nodes`` the bundle has a
    model for: two ``(origins, H + 1)`` arrays whose row i holds the
    forecasts from, and the rates at, the node's i-th test origin and the H
    steps after it, actuals NaN past the node's data.  H is the farthest of
    ``horizons`` that some node's first origin has an actual for, else 0.

    A bundle with ``forecast_nodes`` forecasts every node in one call, any
    other bundle one origin at a time.  :func:`evaluate` reports inf or NaN
    forecasts as ``n/a(non-finite-forecast)``, so numpy's overflow and
    invalid-value warnings would only repeat them."""
    origins = {n: panel.test_origins(n, bundle.rho)
               for n in nodes if n in bundle.model_map}
    reach = [panel.length(n) - 1 - int(at[0]) for n, at in origins.items() if at.size]
    max_h = min(max(horizons), max(reach, default=0))
    with np.errstate(over="ignore", invalid="ignore"):
        if hasattr(bundle, "forecast_nodes"):
            trajs = bundle.forecast_nodes(panel, origins, max_h)
        else:
            trajs = {node: np.array(
                [bundle.forecast(panel, node, o, max_h) for o in at]
            ).reshape(at.shape[0], max_h + 1) for node, at in origins.items()}
    steps, pad = np.arange(max_h + 1), np.full(max_h + 1, np.nan)
    return {node: (trajs[node], np.append(panel.rates[node], pad)[at[:, None] + steps])
            for node, at in origins.items()}


def _pairs(cell, j):
    """(predictions, actuals) of a table cell at horizon ``j``: one pair per
    origin with an actual ``j`` steps on, none for ``j`` past H.  Rates are
    finite (:func:`~hiergru.dataset.build_panel`), so NaN means no actual."""
    predictions, actuals = (a[:, j:j + 1].ravel() for a in cell)
    keep = ~np.isnan(actuals)
    return predictions[keep], actuals[keep]


def _rmse_cell(actuals, predictions) -> Cell:
    if not np.isfinite(predictions).all():
        return Cell(None, "non-finite-forecast")
    return _metric_cell(rmse, actuals, predictions)


def rmse_cells(table, horizons) -> dict[tuple[NodeId, int], Cell]:
    """The :func:`_rmse_cell` of each (node, horizon) of a table with pairs."""
    pairs = {(n, j): _pairs(cell, j) for n, cell in table.items() for j in horizons}
    return {key: _rmse_cell(a, p) for key, (p, a) in pairs.items() if a.size}


def _node_cells(table, node, j, ref: Cell | None) -> dict[str, Cell]:
    """One node and horizon's cells from a :func:`forecast_table`: all
    n/a(no-model) for a node it lacks, n/a(no-predictions) without pairs.
    ``ref`` is the reference RMSE (None: no reference model there); a
    relative RMSE whose own or reference RMSE is n/a carries its code."""
    if node not in table:
        return _na_metrics("no-model")
    predictions, actuals = _pairs(table[node], j)
    if not actuals.size:
        return _na_metrics("no-predictions")
    e = _rmse_cell(actuals, predictions)
    if e.code == "non-finite-forecast":
        return _na_metrics(e.code, actuals.size)
    if ref is None:
        rel = Cell(None, "no-model")
    elif e.value is None:
        rel = e
    elif ref.value is None:
        rel = ref
    else:
        rel = _metric_cell(relative_rmse, e.value, ref.value)
    return {
        "n": Cell(float(actuals.size)),
        "rmse": e,
        "rel_rmse": rel,
        "pearson": _metric_cell(pearson, actuals, predictions),
        "dist_corr": _metric_cell(distance_correlation, actuals, predictions),
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

    ref_rmse = rmse_cells(forecast_table(
        reference, panel, reference.covered_nodes(), horizons), horizons)

    node_metrics: dict[tuple[str, NodeId, int], dict[str, Cell]] = {}
    for label, bundle in zip(labels, bundles):
        table = forecast_table(bundle, panel, h.bfs_order(), horizons)
        node_metrics.update(
            ((label, node, j), _node_cells(table, node, j, ref_rmse.get((node, j))))
            for node in h.bfs_order()
            for j in horizons
        )

    rows = {}
    for label in labels:
        for j in horizons:
            disagg = [node_metrics[(label, n, j)] for n in h.non_root_nodes()]
            head = node_metrics[(label, h.root, j)]
            rows[(label, j)] = {
                **{f"avg_{c}": cell for c, cell in _means(disagg).items()},
                **{f"headline_{c}": head[c] for c in LEVEL_COLUMNS},
            }

    # the same aggregation restricted to each level; level 0 is the headline
    level_rows = {
        (label, j, lv): _means([node_metrics[(label, n, j)] for n in nodes])
        for label in labels
        for j in horizons
        for lv, nodes in enumerate(h.levels)
    }
    return EvalReport(
        labels=tuple(labels),
        horizons=horizons,
        rows=rows,
        level_rows=level_rows,
        level_counts={lv: len(nodes) for lv, nodes in enumerate(h.levels)},
        node_metrics=node_metrics,
    )


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
    metrics = ("rmse", *LEVEL_COLUMNS)
    header = ["model", "node", "horizon", "n", *metrics]
    items = sorted(report.node_metrics.items())
    body = [
        [label, node, str(j), str(int(m["n"].value or 0))]
        + [m[c].render_raw() for c in metrics]
        for label in report.labels
        for (lab, node, j), m in items
        if lab == label
    ]
    return _render_table(header, body, "csv")


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


def _csv_row(cells) -> str:
    """One row in the csv module's quoting, ended by "\n".  The writer's
    own "\r\n" terminator, cut off here, makes it quote a cell that holds
    "\r" as well as one that holds "\n"."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue()[:-2] + "\n"


def _render_table(header, body, fmt):
    if fmt == "csv":
        return "".join(_csv_row(row) for row in [header, *body])
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
