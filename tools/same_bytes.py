"""Check that ``hiergru run`` writes the same bytes as at another revision.

    python tools/same_bytes.py [REV]

REV (default ``HEAD``) is a git revision of this repository.  Its ``src/``
is extracted with ``git archive`` into a temporary directory (nothing is
written under ``.git``); the working tree's ``src/`` is the other side.
Both sides run ``hiergru run --jobs 1`` on the same inputs, written once by
``perfbench/workloads.make_inputs``:

* the panel-s, deep-gru and long-eval workloads at panel seeds 0-2;
* a config listing every model tag (three specs of ar, two of rf, four of gbt
  with one of no trees and one of depth 0, a bihrnn before its hrnn, a
  second bihrnn with sgd, an igru, a knngru and an rw whose rho is
  longer than every series, so that no node has an origin, and an igru, a
  knngru and an ar at the window boundary: rho 89 leaves each node one
  training window, and an igru at rho 90 none; and an igru, a knngru, and
  an hrnn with its bihrnn at rho 1, whose windows are the zero-state step
  alone);
* a ``--grid`` config;
* the panel-s workload at panel seed 0 with horizons 0, 1, 25 and 40: of
  its 30 test periods, horizon 25 reaches the first five origins and
  horizon 40 none;
* the panel-s workload at panel seed 0 fitting ar, rw, rf and gbt, with
  one rate of -0.9110926589655e253 as the last training rate of one node,
  whose forecasts overflow to inf, and one in the test segment of another,
  whose metrics overflow: the ``n/a(non-finite-forecast)`` and
  ``n/a(overflow)`` cells;
* a ragged panel with blank non-root weights: nodes start late, end early,
  or are too short to give a knngru window;
* a wide panel, ``synth --depth 2 --branching 7`` (57 nodes), at a few
  epochs of igru, knngru, hrnn and bihrnn: 56 nodes of 86 training windows
  are more than one optimiser run holds (``models._RUN_WINDOWS``), so they
  train in runs of 47 and 9 nodes (hrnn's last level of 48 in 47 and 1),
  and one leaf that ends early makes each bundle forecast in two stacks.

Every output file is compared byte for byte, except the ``created_utc``
line of the run manifest.  Every checkpoint bundle directory that either
side writes is also loaded through the working tree's ``load_bundle``, and
a bundle that does not load fails its side's run, so that a change to the
checkpoint reader is checked on every tag, against the files REV writes as
well as its own.  One more check runs on the working tree alone:
the panel-s workload at panel seed 0, whose rf, gbt and fc families once
fitted on a thread pool, must write the same bytes with ``--jobs 4`` as
with ``--jobs 1``.  The first line printed counts the lines of the ``.py``
files under both sides' ``src/``: ``src/ lines: <REV> -> <working tree>
(<delta>)``; it changes no comparison.  Then one line is printed per run.  Under a run that differs
follows one line per checkpoint bundle directory naming every file of it
that differs, and one line per report file naming the models whose rows
(or ``report.dat`` blocks) differ, so that a change meant to touch one
model's outputs can be seen to touch nothing else.  For the run manifest,
each such model also says whether its chosen ``params`` differ, and
whether its entries differ only in their ``grid_trace`` scores, so that a
change that moves only scores can be seen to choose the same winners.
The exit status is 1 if any run differs or fails on either side.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hiergru.checkpoint import load_bundle  # noqa: E402
from hiergru.errors import HiergruError  # noqa: E402
from workloads import make_inputs  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CREATED = re.compile(rb'\n *"created_utc": "[^"]*",?')

ALL_TAGS = [
    {"tag": "ar", "rho": 1, "label": "ar_1"},
    {"tag": "ar", "rho": 3},
    {"tag": "rw", "rho": 4},
    {"tag": "rf", "rho": 6, "n_trees": 5},
    {"tag": "rf", "rho": 4, "n_trees": 5, "min_leaf": 3, "feature_frac": 0.5,
     "label": "rf_b"},
    {"tag": "gbt", "rho": 6, "n_trees": 5},
    {"tag": "gbt", "rho": 4, "n_trees": 5, "subsample": 0.7, "shrinkage": 0.2,
     "label": "gbt_b"},
    {"tag": "gbt", "rho": 3, "n_trees": 0, "label": "gbt_0"},
    {"tag": "gbt", "rho": 5, "n_trees": 4, "max_depth": 0, "subsample": 0.5,
     "label": "gbt_d0"},
    {"tag": "fc", "rho": 6, "hidden": 8, "epochs": 10},
    {"tag": "deepnn", "epochs": 2},
    {"tag": "sgru", "epochs": 10},
    {"tag": "igru", "epochs": 10},
    {"tag": "knngru", "epochs": 10, "k_neighbors": 3},
    {"tag": "bihrnn", "epochs": 10},
    {"tag": "hrnn", "epochs": 10},
    {"tag": "bihrnn", "epochs": 10, "optimizer": "sgd", "lr": 0.01,
     "label": "bihrnn_sgd"},
    {"tag": "igru", "rho": 200, "epochs": 10, "label": "igru_long"},
    {"tag": "knngru", "rho": 200, "epochs": 10, "k_neighbors": 3,
     "label": "knngru_long"},
    {"tag": "rw", "rho": 200, "label": "rw_long"},
    # every panel-s node has 120 rates split at 90: rho 89 leaves one
    # training window per node, rho 90 none (igru keeps its initial
    # parameters and still forecasts all 30 test origins)
    {"tag": "igru", "rho": 89, "epochs": 5, "label": "igru_89"},
    {"tag": "knngru", "rho": 89, "epochs": 5, "k_neighbors": 3,
     "label": "knngru_89"},
    {"tag": "ar", "rho": 89, "label": "ar_89"},
    {"tag": "igru", "rho": 90, "epochs": 5, "label": "igru_90"},
    # at rho 1 every window is the zero-state step alone
    {"tag": "igru", "rho": 1, "epochs": 10, "label": "igru_1"},
    {"tag": "knngru", "rho": 1, "epochs": 10, "k_neighbors": 3,
     "label": "knngru_1"},
    {"tag": "hrnn", "rho": 1, "epochs": 10, "label": "hrnn_1"},
    {"tag": "bihrnn", "rho": 1, "epochs": 10, "label": "bihrnn_1"},
]

GRID = [
    {"tag": "ar", "rho": 1, "label": "ar_1"},
    {"tag": "ar", "label": "ar_grid", "grid": {"rho": [1, 2, 4]}},
    {"tag": "rf", "n_trees": 5, "grid": {"rho": [4, 8], "max_depth": [2, 4]}},
    {"tag": "gbt", "n_trees": 5, "grid": {"shrinkage": [0.1, 0.3]}},
    {"tag": "igru", "epochs": 10, "grid": {"hidden": [4, 8]}},
]

RAGGED = [
    {"tag": "ar", "rho": 1, "label": "ar_1"},
    {"tag": "rf", "n_trees": 5},
    {"tag": "igru", "epochs": 20},
    {"tag": "knngru", "epochs": 20, "k_neighbors": 3},
    {"tag": "hrnn", "epochs": 20},
    {"tag": "bihrnn", "epochs": 20},
]

WIDE = [
    {"tag": "ar", "rho": 1, "label": "ar_1"},
    {"tag": "igru", "epochs": 3},
    {"tag": "knngru", "epochs": 3},
    {"tag": "hrnn", "epochs": 3},
    {"tag": "bihrnn", "epochs": 3},
]

# panel-s holds out 30 periods: horizon 25 reaches some origins, 40 none
FAR_HORIZONS = [0, 1, 25, 40]

# node -> (periods dropped from the start, periods kept at most)
RAGGED_CUTS = {
    "root.0.1": (30, None),  # starts late
    "root.1.0.1": (0, 80),  # ends early
    "root.0.0.1": (115, None),  # 5 rates left: its train split is <= rho
}


# panel-s splits each node's 120 rates at 90.  A huge rate as a node's last
# training rate makes its forecasts overflow to inf (n/a(non-finite-forecast),
# which would hide any other code on that node); one in another node's test
# segment keeps the forecasts finite and overflows the metrics (n/a(overflow)).
# A gradient-trained family would stop the run as diverged on such a rate.
HUGE_RATE = "-0.9110926589655e253"
OVERFLOW_RATES = {"root.0": 89, "root.1.1": 100}
OVERFLOW = [
    {"tag": "ar", "rho": 1, "label": "ar_1"},
    {"tag": "ar", "rho": 3},
    {"tag": "rw", "rho": 4},
    {"tag": "rf", "rho": 12, "n_trees": 20},
    {"tag": "gbt", "rho": 12, "n_trees": 20},
]


def _with(config: Path, **keys) -> Path:
    """``config`` with its top-level ``keys`` replaced."""
    cfg = json.loads(config.read_text(encoding="utf-8"))
    cfg.update(keys)
    config.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return config


def _edit_series(config: Path, edit) -> None:
    """Rewrite the config's series.csv: ``edit(node, i, value)`` gives the
    value of each node's i-th row, or None to drop the row."""
    series = config.parent / "series.csv"
    with open(series, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    kept, seen = [header], {}
    for node, period, value in rows:
        i = seen[node] = seen.get(node, -1) + 1
        value = edit(node, i, value)
        if value is not None:
            kept.append([node, period, value])
    with open(series, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(kept)


def _cut(config: Path, cuts: dict) -> None:
    """Keep, of each node's rows of the config's series, those that
    ``cuts`` keeps: node -> (periods dropped from the start, periods kept
    at most)."""

    def keep(node, i, value):
        start, most = cuts.get(node, (0, None))
        return value if i >= start and (most is None or i - start < most) else None

    _edit_series(config, keep)


def _make_ragged(config: Path) -> Path:
    _cut(config, RAGGED_CUTS)
    return _with(config, models=RAGGED)


def _make_wide(config: Path) -> Path:
    """The panel-s config's files replaced by a 57-node panel of the same
    length, whose leaf ``root.6.6`` ends ten periods early."""
    from hiergru.dataset import SynthSpec, save_series_csv, synth_panel
    from hiergru.hierarchy import save_hierarchy

    h, panel = synth_panel(SynthSpec(
        depth=2, branching=7, length=120, leaf_noise_sd=0.75, seed=0))
    save_hierarchy(h, config.parent / "hierarchy.csv")
    save_series_csv(panel, config.parent / "series.csv")
    _cut(config, {"root.6.6": (0, 110)})
    return _with(config, models=WIDE)


def _make_overflow(config: Path) -> Path:
    """The config's series with a huge finite rate at each of
    :data:`OVERFLOW_RATES`, fitting the :data:`OVERFLOW` models."""
    _edit_series(config, lambda node, i, value: (
        HUGE_RATE if OVERFLOW_RATES.get(node) == i else value))
    return _with(config, models=OVERFLOW)


def write_runs(inputs: Path) -> list[tuple[str, Path, list[str]]]:
    """(name, config path, extra CLI flags) for every run."""
    runs = []
    for name in ("panel-s", "deep-gru", "long-eval"):
        for seed in range(3):
            runs.append((f"{name} seed {seed}",
                         make_inputs(name, seed, inputs / f"{name}-{seed}"), []))
    all_tags = make_inputs("panel-s", 0, inputs / "all-tags")
    runs.append(("all tags", _with(all_tags, models=ALL_TAGS), []))
    grid = make_inputs("panel-s", 1, inputs / "grid")
    runs.append(("grid", _with(grid, models=GRID), ["--grid"]))
    far = make_inputs("panel-s", 0, inputs / "far")
    runs.append(("horizons past the data", _with(far, horizons=FAR_HORIZONS), []))
    overflow = make_inputs("panel-s", 0, inputs / "overflow")
    runs.append(("overflow", _make_overflow(overflow), []))
    ragged = make_inputs("deep-gru", 0, inputs / "ragged")
    runs.append(("ragged blank-weight", _make_ragged(ragged), []))
    wide = make_inputs("panel-s", 2, inputs / "wide")
    runs.append(("wide, two runs", _make_wide(wide), []))
    return runs


def extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest / "src"


def src_lines(src: Path) -> int:
    """The number of lines of the ``.py`` files under ``src``."""
    return sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py"))


def run_side(src: Path, config: Path, flags: list[str], out: Path,
             jobs: int = 1) -> str | None:
    """Run one side; None on success, else the tail of its stderr."""
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "hiergru.cli", "run", "--config", str(config),
         "--out", str(out), "--jobs", str(jobs), *flags],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return None
    return f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"


def reload_error(out: Path) -> str | None:
    """None when every checkpoint bundle directory under ``out`` loads
    through :func:`load_bundle`, else the first failure."""
    for bundle in sorted((out / "checkpoints").iterdir()):
        try:
            load_bundle(bundle)
        except HiergruError as exc:
            return f"checkpoints/{bundle.name} does not load: {exc}"
    return None


def differences(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        x, y = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel == Path("manifest.json"):
            x, y = CREATED.sub(b"", x), CREATED.sub(b"", y)
        if x != y:
            diff.append(str(rel))
    return len(files_a | files_b), diff


def _models(path: Path) -> dict[str, list]:
    """A report file's lines by the model they belong to: a csv row's first
    field, a markdown table row's first cell, or the ``# model "<label>"``
    block of report.dat that the line sits in; for the run manifest, each
    model's entry.  Everything else goes under ``(header)``."""
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("created_utc", None)
        return {"(header)": [data], **{m["label"]: [m] for m in data.pop("models")}}
    lines: dict[str, list] = {}
    model = "(header)"
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        if path.suffix == ".csv":
            model = line.split(",", 1)[0] if i else "(header)"
        elif path.suffix == ".md":
            model = line.split("|")[1].strip() if line.startswith("|") else "(header)"
        elif line.startswith("# model "):
            model = line[len("# model "):].strip('"')
        lines.setdefault(model, []).append(line)
    return lines


def _params_note(x: list | None, y: list | None) -> str:
    """How a model's run-manifest entries (from :func:`_models`) differ."""
    if x is None or y is None:
        return "on one side only"
    x, y = x[0], y[0]
    if x["params"] != y["params"]:
        return "chosen params differ"

    def unscored(entry):
        trace = [{**c, "score": None} for c in entry.get("grid_trace") or []]
        return {**entry, "grid_trace": trace}

    if unscored(x) == unscored(y):
        return "same params, only grid_trace scores differ"
    return "same params"


def describe(a: Path, b: Path, diff: list[str]) -> list[str]:
    """One line per checkpoint bundle directory listing every file of it
    that differs, and one per other file: for a report file or the run
    manifest present on both sides, the models whose lines differ, each
    with :func:`_params_note` in the manifest's case."""
    bundles: dict[str, list[str]] = {}
    out = []
    for rel in diff:
        parts = Path(rel).parts
        if parts[0] == "checkpoints" and len(parts) > 2:
            bundles.setdefault("/".join(parts[:2]), []).append("/".join(parts[2:]))
        elif (rel.startswith("report") or rel == "manifest.json") and (
            (a / rel).is_file() and (b / rel).is_file()
        ):
            x, y = _models(a / rel), _models(b / rel)
            models = [m for m in {**x, **y} if x.get(m) != y.get(m)]
            if rel == "manifest.json":
                models = [
                    m if m == "(header)"
                    else f"{m} ({_params_note(x.get(m), y.get(m))})"
                    for m in models
                ]
            out.append(f"  {rel}: lines of {', '.join(models)}")
        else:
            out.append(f"  {rel}")
    return [f"  {d}/: {', '.join(files)}" for d, files in bundles.items()] + out


def report(name: str, errors: dict, a: Path, b: Path) -> bool:
    """Print one run's lines; True when it failed or differs."""
    errors = {side: err for side, err in errors.items() if err}
    if errors:
        print(f"{name}: FAILED {errors}")
        return True
    count, diff = differences(a, b)
    if diff:
        print(f"{name}: DIFFERENT {len(diff)} of {count} files")
        print("\n".join(describe(a, b, diff)))
        return True
    print(f"{name}: identical ({count} files)")
    return False


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        base_src = extract_src(rev, tmp / "base")
        sides = {"base": base_src, "work": ROOT / "src"}
        base, work = src_lines(base_src), src_lines(ROOT / "src")
        print(f"src/ lines: {base} -> {work} ({work - base:+d})")
        work_outs = {}
        for name, config, flags in write_runs(tmp / "inputs"):
            slug = re.sub(r"\W+", "-", name)
            outs = {side: tmp / side / "out" / slug for side in sides}
            errors = {
                side: run_side(src, config, flags, outs[side])
                or reload_error(outs[side])
                for side, src in sides.items()
            }
            failed |= report(name, errors, outs["base"], outs["work"])
            work_outs[name] = config, outs["work"]
        config, jobs1 = work_outs["panel-s seed 0"]
        jobs4 = tmp / "work" / "jobs4"
        error = run_side(ROOT / "src", config, [], jobs4, jobs=4)
        failed |= report("panel-s seed 0, --jobs 4 against --jobs 1",
                         {"work": error}, jobs1, jobs4)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
