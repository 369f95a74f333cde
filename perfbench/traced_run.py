"""The traced run: ``hiergru run --jobs 1`` in-process under the span tracer.

Usage (from the checkout root, with ``src`` on PYTHONPATH)::

    python3 perfbench/traced_run.py --config C --out DIR --result R.json \
        --spans S.npz --seed N [--jobs-compare igru,hrnn]

It calls ``hiergru.cli.main`` so the stage sequence is exactly ``cmd_run``'s,
then, with the tracer removed, checks that every saved bundle reloads and
reproduces the in-run forecasts bit for bit, times the ``--jobs``
comparison and the kernel microbenchmarks, and writes one JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import warnings
from collections import Counter
from pathlib import Path

from hiergru import baselines, checkpoint, cli, dataset, evaluation, gru
from hiergru import hierarchy, metrics, models
from checks import first_origin
from kernels import run_kernels
from tracer import SpanStats, Tracer

# Labels and model families the workloads use; a name that does not occur
# in a workload reports 0.
LABELS = ("ar_1", "rw", "rf", "gbt", "fc", "igru", "knngru", "hrnn", "bihrnn")
FAMILIES = ("ar", "rw", "rf", "gbt", "fc", "igru", "knngru", "hrnn", "bihrnn")
TRAINERS = {"igru": "train_igru", "knngru": "train_knn_gru",
            "hrnn": "train_hrnn", "bihrnn": "train_bihrnn"}
WARNING_CATEGORIES = (
    "UserWarning", "RuntimeWarning", "NodeSkippedWarning",
    "SingularDesignWarning", "AllZeroWeightsWarning",
    "InsufficientNeighborsWarning",
)


def _tag_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["tag"]


def install(tracer: Tracer) -> None:
    functions = [
        (cli, "load_config"),
        (cli, "fit_entry", lambda a, k: a[0]["label"]),
        (hierarchy, "load_hierarchy"),
        (hierarchy, "impute_weights"),
        (hierarchy, "precision_schedule"),
        (dataset, "load_series_csv"),
        (dataset, "make_windows"),
        (gru, "loss_and_grad"),
        (gru, "optimize"),
        (gru, "predict_sequence"),
        *((models, fn) for fn in TRAINERS.values()),
        (models, "select_neighbors"),
        (models, "forecast", lambda a, k: a[0].tag),
        (baselines, "fit_baseline", _tag_arg),
        (baselines, "fit_forest"),
        (baselines, "fit_gbt"),
        (evaluation, "evaluate"),
        (evaluation, "write_report_files"),
        (metrics, "rmse"),
        (metrics, "pearson"),
        (metrics, "distance_correlation"),
        (checkpoint, "save_bundle"),
    ]
    for module, attr, *suffix in functions:
        short = module.__name__.rsplit(".", 1)[1]
        tracer.wrap_function(module, attr, f"{short}.{attr}", *suffix)
    tracer.wrap_method(baselines.TreeEnsemble, "predict", "baselines.TreeEnsemble.predict")
    tracer.wrap_method(models.ModelBundle, "predict_next", "models.predict_next")
    tracer.wrap_method(baselines.BaselineBundle, "predict_next", "baselines.predict_next")


def layer_metrics(tracer: Tracer, saved: list) -> dict[str, float]:
    spans = tracer.summary()

    def s(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    def per_call_us(name: str) -> float:
        return s(name).total_s / s(name).calls * 1e6 if s(name).calls else 0.0

    forecasts = [s(n) for n in spans if n.startswith("models.forecast:")]
    trees = sum(
        len(m.trees)
        for bundle, _ in saved
        for m in bundle.model_map.values()
        if isinstance(m, baselines.TreeEnsemble)
    )
    tree_fit = s("baselines.fit_forest").total_s + s("baselines.fit_gbt").total_s
    return {
        "cli.load_s": s("cli.load_config").top_s + s("hierarchy.load_hierarchy").top_s
        + s("dataset.load_series_csv").top_s,
        "cli.impute_s": s("hierarchy.impute_weights").top_s,
        **{f"cli.fit_s.{label}": s(f"cli.fit_entry:{label}").top_s for label in LABELS},
        "cli.evaluate_s": s("evaluation.evaluate").top_s,
        "cli.report_s": s("evaluation.write_report_files").top_s,
        "cli.checkpoint_s": s("checkpoint.save_bundle").top_s,
        "gru.loss_and_grad.calls": s("gru.loss_and_grad").calls,
        "gru.loss_and_grad_s": s("gru.loss_and_grad").total_s,
        "gru.loss_and_grad.us": per_call_us("gru.loss_and_grad"),
        "gru.optimize.self_s": s("gru.optimize").self_s,
        "gru.predict_sequence.calls": s("gru.predict_sequence").calls,
        "gru.predict_sequence_s": s("gru.predict_sequence").total_s,
        **{f"models.train_s.{tag}": s(f"models.{fn}").total_s for tag, fn in TRAINERS.items()},
        "models.select_neighbors_s": s("models.select_neighbors").total_s,
        "models.forecast.calls": sum(f.calls for f in forecasts),
        "models.forecast.self_s": sum(f.self_s for f in forecasts),
        **{f"models.forecast.us.{fam}": per_call_us(f"models.forecast:{fam}")
           for fam in FAMILIES},
        **{f"baselines.fit_s.{tag}": s(f"baselines.fit_baseline:{tag}").total_s
           for tag in ("ar", "rw", "rf", "gbt", "fc")},
        "baselines.trees": trees,
        "baselines.tree_fit.us": tree_fit / trees * 1e6 if trees else 0.0,
        "baselines.ensemble_predict.calls": s("baselines.TreeEnsemble.predict").calls,
        "baselines.ensemble_predict.us": per_call_us("baselines.TreeEnsemble.predict"),
        "evaluation.evaluate_s": s("evaluation.evaluate").total_s,
        "evaluation.trajectories": sum(f.calls for f in forecasts),
        "evaluation.self_s": s("evaluation.evaluate").self_s,
        "evaluation.reference_fit_s": tracer.total_under(
            "baselines.fit_baseline:ar", "evaluation.evaluate"),
        "metrics.distance_correlation.calls": s("metrics.distance_correlation").calls,
        "metrics.distance_correlation_s": s("metrics.distance_correlation").total_s,
        "metrics.pearson_s": s("metrics.pearson").total_s,
        "metrics.rmse_s": s("metrics.rmse").total_s,
        "checkpoint.save_bundle_s": s("checkpoint.save_bundle").total_s,
        "dataset.load_series_csv_s": s("dataset.load_series_csv").total_s,
        "dataset.make_windows.calls": s("dataset.make_windows").calls,
        "dataset.make_windows_s": s("dataset.make_windows").total_s,
        "hierarchy.load_hierarchy_s": s("hierarchy.load_hierarchy").total_s,
        "hierarchy.impute_weights_s": s("hierarchy.impute_weights").total_s,
        "hierarchy.precision_schedule_s": s("hierarchy.precision_schedule").total_s,
    }


def reload_mismatches(saved: list, panel, horizon: int) -> tuple[list[str], float]:
    """Reload every saved bundle; compare its forecast with the in-run
    bundle's at the first admissible test origin of every node."""
    bad = []
    load_s = 0.0
    for bundle, path in saved:
        t0 = time.perf_counter()
        reloaded = checkpoint.load_bundle(path)
        load_s += time.perf_counter() - t0
        for node in bundle.covered_nodes():
            origin = first_origin(panel, node, bundle.rho)
            a = bundle.forecast(panel, node, origin, horizon)
            b = reloaded.forecast(panel, node, origin, horizon)
            if a.tobytes() != b.tobytes():
                bad.append(f"{Path(path).name}/{node}")
    return bad, load_s


def jobs_comparison(tags, cfg: dict, seed: int) -> dict[str, float]:
    """Wall time of each tag's public fit at jobs=1 and jobs=2, with the
    epochs and tree count the workload configures for that tag."""
    entry = {m["tag"]: m["params"] for m in cfg["models"]}
    h = hierarchy.load_hierarchy(cfg["hierarchy"])
    panel = dataset.load_series_csv(
        cfg["series"], already_rates=cfg["already_rates"],
        train_fraction=cfg["split_fraction"],
    )
    if set(h.nodes) - set(h.weight):
        h = hierarchy.impute_weights(panel, h)

    def spec(tag):
        return models.TrainSpec(seed=seed, epochs=entry[tag]["epochs"])

    fits = {
        "igru": ("models.train_s.igru", lambda j: models.train_igru(
            panel, h, spec("igru"), jobs=j)),
        "hrnn": ("models.train_s.hrnn", lambda j: models.train_hrnn(
            panel, h, spec("hrnn"), jobs=j)),
        "rf": ("baselines.fit_s.rf", lambda j: baselines.fit_baseline(
            panel, h, "rf", entry["rf"]["rho"],
            baselines.ForestConfig(n_trees=entry["rf"]["n_trees"], seed=seed), jobs=j)),
    }
    out = {}
    for tag in tags:
        name, fit = fits[tag]
        for jobs in (1, 2):
            t0 = time.perf_counter()
            fit(jobs)
            out[f"{name}.jobs{jobs}"] = time.perf_counter() - t0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs-compare", default="")
    args = ap.parse_args()

    tracer = Tracer()
    install(tracer)
    saved = []
    traced_save = cli.save_bundle

    def capture(bundle, dirpath):
        saved.append((bundle, dirpath))
        return traced_save(bundle, dirpath)

    cli.save_bundle = capture
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_start = time.perf_counter_ns()
        rc = cli.main(["run", "--config", args.config, "--out", args.out, "--jobs", "1"])
        run_end = time.perf_counter_ns()
    cli.save_bundle = traced_save
    tracer.uninstall()

    result = {"rc": rc, "run_start_ns": run_start, "run_end_ns": run_end,
              "unwrapped": tracer.missing}
    if rc == 0:
        layers = layer_metrics(tracer, saved)
        result["stages_s"] = sum(v.top_s for v in tracer.summary().values())
        cfg = cli.load_config(args.config)
        panel = dataset.load_series_csv(
            cfg["series"], already_rates=cfg["already_rates"],
            train_fraction=cfg["split_fraction"],
        )
        result["reload_mismatches"], layers["checkpoint.load_bundle_s"] = (
            reload_mismatches(saved, panel, max(cfg["horizons"]))
        )
        ckpt_files = [p for p in Path(args.out, "checkpoints").rglob("*") if p.is_file()]
        layers["checkpoint.files"] = sum(p.suffix == ".ckpt" for p in ckpt_files)
        layers["checkpoint.bytes"] = sum(p.stat().st_size for p in ckpt_files)
        with open(cfg["series"], encoding="utf-8") as fh:
            layers["dataset.rows"] = sum(1 for _ in fh) - 1
        by_category = Counter(w.category.__name__ for w in caught)
        for name in WARNING_CATEGORIES:
            layers[f"warnings.{name}"] = by_category.get(name, 0)
        layers["warnings.total"] = len(caught)
        result["warnings_by_line"] = dict(Counter(
            f"{Path(w.filename).name}:{w.lineno} {w.category.__name__}" for w in caught
        ))
        tags = [t for t in args.jobs_compare.split(",") if t]
        layers.update(jobs_comparison(tags, cfg, args.seed))
        layers["nproc"] = len(os.sched_getaffinity(0))
        layers.update(run_kernels(args.seed))
        result["layers"] = layers
    tracer.save(args.spans)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
