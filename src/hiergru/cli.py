"""Command-line entry point: data preparation, synthetic data generation,
and reproducible end-to-end runs.

Exit codes: 0 success, 2 configuration problems, 3 data problems (or
arrays too large to allocate), 4 training divergence.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .checkpoint import _json_dump, _sha256, save_bundle
from .dataset import (
    DEFAULT_TRAIN_FRACTION,
    SynthSpec,
    load_series_csv,
    save_series_csv,
    synth_panel,
)
from .errors import DivergenceError, HiergruError, InvalidSpecError, _is_int
from .evaluation import (
    DAILY_HORIZONS,
    MONTHLY_HORIZONS,
    _mean_cell,
    evaluate,
    forecast_table,
    rmse_cells,
    write_report_files,
)
from .hierarchy import impute_weights, load_hierarchy, save_hierarchy
from .registry import TAGS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# A label names the bundle directory checkpoints/<label>.
_SAFE_LABEL = re.compile(r"[A-Za-z0-9_.-]+")


class ConfigError(HiergruError):
    """Configuration file violates the documented schema."""


# ------------------------------------------------------------------- config

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def load_config(path) -> dict:
    """Parse and validate the JSON run configuration."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {p} is not UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config {p} cannot be read: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")

    known_top = {
        "hierarchy", "series", "already_rates", "split_fraction",
        "horizons", "seed", "out", "models",
    }
    unknown = sorted(set(raw) - known_top)
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
    for key in ("hierarchy", "series"):
        _require(isinstance(raw.get(key), str), f"config needs a string {key!r} path")
    _require(
        isinstance(raw.get("models"), list) and raw["models"],
        "config needs a non-empty 'models' list",
    )

    cfg = {
        "hierarchy": raw["hierarchy"],
        "series": raw["series"],
        "already_rates": raw.get("already_rates", False),
        "split_fraction": raw.get("split_fraction", DEFAULT_TRAIN_FRACTION),
        "horizons": _parse_horizons(raw.get("horizons", "monthly")),
        "seed": raw.get("seed", 0),
        "out": raw.get("out"),
        "models": [_parse_model_entry(m) for m in raw["models"]],
    }
    _require(isinstance(cfg["already_rates"], bool), "'already_rates' must be a bool")
    _require(_is_int(cfg["seed"]), "'seed' must be an integer")
    _require(
        cfg["out"] is None or (isinstance(cfg["out"], str) and cfg["out"]),
        "'out' must be a non-empty string or null",
    )
    _require(
        isinstance(cfg["split_fraction"], (int, float))
        and 0.0 < cfg["split_fraction"] < 1.0,
        "'split_fraction' must lie in (0, 1)",
    )
    labels = [m["label"] for m in cfg["models"]]
    _require(
        len(set(labels)) == len(labels),
        f"duplicate model labels: {sorted(labels)}; add distinct 'label' fields",
    )
    for m in cfg["models"]:
        if TAGS[m["tag"]].saves_anchors:
            anchors = _anchors_label(m["label"])
            _require(
                anchors not in labels,
                f"model label {anchors!r} collides with the anchors bundle "
                f"that {m['tag']} model {m['label']!r} saves under that name",
            )
    return cfg


def _anchors_label(label: str) -> str:
    return f"{label}_anchors"


def _parse_horizons(value):
    if value == "monthly":
        return list(MONTHLY_HORIZONS)
    if value == "daily":
        return list(DAILY_HORIZONS)
    _require(
        isinstance(value, list) and value
        and all(_is_int(v) and v >= 0 for v in value),
        "'horizons' must be 'monthly', 'daily', or a list of nonnegative integers",
    )
    return sorted(set(value))


def _parse_model_entry(entry) -> dict:
    if isinstance(entry, str):
        entry = {"tag": entry}
    _require(isinstance(entry, dict), f"model entry must be a tag or object: {entry!r}")
    tag = entry.get("tag")
    _require(
        isinstance(tag, str) and tag in TAGS,
        f"unknown model tag {tag!r}; registered tags: {', '.join(sorted(TAGS))}",
    )
    keys = TAGS[tag].keys
    label = entry.get("label", tag)
    _require(isinstance(label, str) and label, "'label' must be a non-empty string")
    _require(
        _SAFE_LABEL.fullmatch(label) is not None and label not in (".", ".."),
        f"model label {label!r} is not a safe directory name; use only "
        "letters, digits, '_', '.' and '-', and not '.' or '..'",
    )
    params = {
        k: v for k, v in entry.items() if k not in ("tag", "label", "grid")
    }
    bad = sorted(k for k in params if k not in keys)
    _require(
        not bad,
        f"model {label!r}: key(s) {', '.join(bad)} not valid for tag {tag!r}",
    )
    _build(tag, label, params)
    grid = entry.get("grid", {})
    _require(isinstance(grid, dict), f"model {label!r}: 'grid' must be an object")
    for k, values in grid.items():
        _require(
            k in keys and isinstance(values, list) and values,
            f"model {label!r}: grid key {k!r} must name a valid parameter "
            "and list at least one value",
        )
        for v in values:
            _build(tag, label, {**params, k: v})
    return {"tag": tag, "label": label, "params": params, "grid": grid}


def _build(tag: str, label: str, params: dict):
    """The tag's training config from ``params``, or a ConfigError naming
    the model label and the key that failed its kind or range check."""
    try:
        return TAGS[tag].build(params)
    except HiergruError as exc:
        raise ConfigError(f"model {label!r}: {exc}") from exc


# ----------------------------------------------------------------- training

def fit_entry(entry: dict, panel, h, seed: int, anchors_cache: dict):
    """Train one configured model; returns (bundle, extra_bundles_to_save).

    The extras are the hrnn anchors a bihrnn entry trained for itself,
    saved as ``<label>_anchors``; ``anchors_cache`` shares them with later
    hrnn and bihrnn entries of the same spec."""
    tag, label = TAGS[entry["tag"]], entry["label"]
    config = _build(entry["tag"], label, {"seed": seed, **entry["params"]})
    bundle, anchors = tag.fit(panel, h, config, anchors_cache)
    extras = [] if anchors is None else [(_anchors_label(label), anchors)]
    return replace(bundle, label=label), extras


# -------------------------------------------------------------- grid search

def _validation_score(bundle, panel) -> float | None:
    """Mean over nodes of one-step RMSE cells on the sub-panel's test tail;
    None when no node has a forecast there, or a cell or the mean is n/a."""
    table = forecast_table(bundle, panel, bundle.covered_nodes(), (0,))
    cells = list(rmse_cells(table, (0,)).values())
    if any(c.value is None for c in cells):
        return None
    return _mean_cell(cells).value  # None without cells


def run_grid_search(entry: dict, panel, h, seed: int) -> dict:
    """Exhaustive search over the entry's listed values; candidates train on
    the head of the training segment and are scored by RMSE on its tail,
    an unscored (None) one ranking last.  Returns the winning entry (grid
    removed, parameters merged)."""
    grid = entry["grid"]
    if not grid:
        return entry
    inner = panel.train_segment(DEFAULT_TRAIN_FRACTION)
    keys = sorted(grid)
    best = None
    choices = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        candidate = {
            "tag": entry["tag"],
            "label": entry["label"],
            "params": {**entry["params"], **dict(zip(keys, combo))},
            "grid": {},
        }
        bundle, _ = fit_entry(candidate, inner, h, seed, {})
        score = _validation_score(bundle, inner)
        choices.append({"params": dict(zip(keys, combo)), "score": score})
        rank = float("inf") if score is None else score  # scores are finite
        if best is None or rank < best[0]:
            best = (rank, candidate)
    winner = best[1]
    winner["grid_trace"] = choices
    return winner


# ------------------------------------------------------------- subcommands

def cmd_synth(args) -> int:
    try:
        spec = SynthSpec(
            depth=args.depth,
            branching=args.branching,
            length=args.length,
            leaf_noise_sd=args.leaf_noise_sd,
            seed=args.seed,
            ar_coeff=args.ar_coeff,
        )
    except InvalidSpecError as exc:
        raise ConfigError(f"synth: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h, panel = synth_panel(spec)
    save_hierarchy(h, out / "hierarchy.csv")
    save_series_csv(panel, out / "series.csv")
    print(f"wrote {out / 'hierarchy.csv'} ({len(h.nodes)} nodes)")
    print(f"wrote {out / 'series.csv'} ({len(panel.calendar)} periods, rates)")
    return EXIT_OK


def cmd_prepare(args) -> int:
    src, dst = Path(args.input), Path(args.output)
    panel = load_series_csv(src, already_rates=args.already_rates)
    if args.already_rates:
        shutil.copyfile(src, dst)  # validated byte-identical passthrough
    else:
        save_series_csv(panel, dst)
    print(f"wrote {dst} ({len(panel.rates)} nodes)")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.already_rates:
        cfg["already_rates"] = True
    out_value = args.out or cfg["out"]
    _require(bool(out_value), "no output directory (use --out or config 'out')")
    out = Path(out_value)
    for at in (out, *out.parents):
        if at.exists():
            _require(at.is_dir(), f"output directory {out}: {at} is not a directory")
            break

    h = load_hierarchy(cfg["hierarchy"])
    panel = load_series_csv(
        cfg["series"],
        already_rates=cfg["already_rates"],
        train_fraction=cfg["split_fraction"],
    )
    missing_series = sorted(set(h.nodes) - set(panel.rates))
    if missing_series:
        raise HiergruError(
            f"hierarchy node(s) without series data: {', '.join(missing_series)}"
        )
    imputed = sorted(set(h.nodes) - set(h.weight))
    if imputed:
        h = impute_weights(panel, h)

    entries = cfg["models"]
    if args.grid:
        entries = [run_grid_search(e, panel, h, cfg["seed"]) for e in entries]

    anchors_cache: dict = {}
    bundles = []
    saved = []
    for entry in entries:
        bundle, extras = fit_entry(entry, panel, h, cfg["seed"], anchors_cache)
        bundles.append(bundle)
        saved.append((entry["label"], bundle))
        saved.extend(extras)

    report = evaluate(bundles, panel, h, cfg["horizons"])
    out.mkdir(parents=True, exist_ok=True)
    write_report_files(report, out)
    for label, bundle in saved:
        save_bundle(bundle, out / "checkpoints" / label)

    manifest = {
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_sha256": _sha256(Path(args.config).read_bytes()),
        "hierarchy_sha256": _sha256(Path(cfg["hierarchy"]).read_bytes()),
        "series_sha256": _sha256(Path(cfg["series"]).read_bytes()),
        "seed": cfg["seed"],
        "split_fraction": cfg["split_fraction"],
        "horizons": cfg["horizons"],
        "imputed_weights": imputed,
        "models": [
            {
                "tag": e["tag"],
                "label": e["label"],
                "params": e["params"],
                "grid_trace": e.get("grid_trace"),
                "node_seeds": {
                    n: p["seed"] for n, p in b.provenance.items() if "seed" in p
                } or None,
            }
            for e, b in zip(entries, bundles)
        ],
    }
    _json_dump(manifest, out / "manifest.json")
    print(f"report written to {out}")
    return EXIT_OK


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiergru",
        description="Hierarchical per-node GRU forecasting toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic hierarchy + panel")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--depth", type=int, default=2)
    synth.add_argument("--branching", type=int, default=3)
    synth.add_argument("--length", type=int, default=120)
    synth.add_argument("--leaf-noise-sd", type=float, default=0.5)
    synth.add_argument("--ar-coeff", type=float, default=0.6)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    prepare = sub.add_parser("prepare", help="convert raw index levels to rates")
    prepare.add_argument("input", help="raw series.csv of index levels")
    prepare.add_argument("output", help="destination rates csv")
    prepare.add_argument(
        "--already-rates", action="store_true",
        help="validate and pass the file through unchanged",
    )
    prepare.set_defaults(func=cmd_prepare)

    run = sub.add_parser("run", help="train, forecast, and evaluate a model list")
    run.add_argument("--config", required=True, help="JSON run configuration")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument("--seed", type=int, help="global seed (overrides config)")
    run.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and has no effect: every model "
        "trains in the calling thread",
    )
    run.add_argument(
        "--already-rates", action="store_true",
        help="treat the series file as rates regardless of config",
    )
    run.add_argument(
        "--grid", action="store_true",
        help="grid-search each model's listed values on a train-tail split",
    )
    run.set_defaults(func=cmd_run)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print ``kind: exc`` as one stderr line and return ``code``.  A line
    break inside the message (a node id read from a file may hold one) is
    shown as ``\\n``."""
    print(f"{kind}: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except DivergenceError as exc:
        return _fail("training diverged", exc, EXIT_DIVERGED)
    except (HiergruError, OSError, MemoryError) as exc:
        return _fail("data error", exc, EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
