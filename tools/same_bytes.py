"""Check that ``hiergru run`` writes the same bytes as at another revision.

    python tools/same_bytes.py [REV]

REV (default ``HEAD``) is a git revision of this repository.  Its ``src/``
is extracted with ``git archive`` into a temporary directory (nothing is
written under ``.git``); the working tree's ``src/`` is the other side.
Both sides run ``hiergru run --jobs 1`` on the same inputs, written once by
``perfbench/workloads.make_inputs``:

* the panel-s, deep-gru and long-eval workloads at panel seeds 0-2;
* a config listing every model tag (two specs of ar, rf and gbt, a bihrnn
  before its hrnn, a second bihrnn with sgd);
* a ``--grid`` config;
* a ragged panel with blank non-root weights: nodes start late, end early,
  or are too short to give a knngru window.

Every output file is compared byte for byte, except the ``created_utc``
line of the run manifest.  One more check runs on the working tree alone:
the panel-s workload at panel seed 0, whose rf, gbt and fc families once
fitted on a thread pool, must write the same bytes with ``--jobs 4`` as
with ``--jobs 1``.  One line is printed per run; the exit status is 1 if
any run differs or fails on either side.
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
    {"tag": "fc", "rho": 6, "hidden": 8, "epochs": 10},
    {"tag": "deepnn", "epochs": 2},
    {"tag": "sgru", "epochs": 10},
    {"tag": "igru", "epochs": 10},
    {"tag": "knngru", "epochs": 10, "k_neighbors": 3},
    {"tag": "bihrnn", "epochs": 10},
    {"tag": "hrnn", "epochs": 10},
    {"tag": "bihrnn", "epochs": 10, "optimizer": "sgd", "lr": 0.01,
     "label": "bihrnn_sgd"},
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

# node -> (periods dropped from the start, periods kept at most)
RAGGED_CUTS = {
    "root.0.1": (30, None),  # starts late
    "root.1.0.1": (0, 80),  # ends early
    "root.0.0.1": (115, None),  # 5 rates left: its train split is <= rho
}


def _with_models(config: Path, models: list) -> Path:
    cfg = json.loads(config.read_text(encoding="utf-8"))
    cfg["models"] = models
    config.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return config


def _make_ragged(config: Path) -> Path:
    series = config.parent / "series.csv"
    with open(series, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    kept, seen = [header], {}
    for node, period, value in rows:
        i = seen[node] = seen.get(node, -1) + 1
        start, keep = RAGGED_CUTS.get(node, (0, None))
        if i >= start and (keep is None or i - start < keep):
            kept.append([node, period, value])
    with open(series, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(kept)
    return _with_models(config, RAGGED)


def write_runs(inputs: Path) -> list[tuple[str, Path, list[str]]]:
    """(name, config path, extra CLI flags) for every run."""
    runs = []
    for name in ("panel-s", "deep-gru", "long-eval"):
        for seed in range(3):
            runs.append((f"{name} seed {seed}",
                         make_inputs(name, seed, inputs / f"{name}-{seed}"), []))
    all_tags = make_inputs("panel-s", 0, inputs / "all-tags")
    runs.append(("all tags", _with_models(all_tags, ALL_TAGS), []))
    grid = make_inputs("panel-s", 1, inputs / "grid")
    runs.append(("grid", _with_models(grid, GRID), ["--grid"]))
    ragged = make_inputs("deep-gru", 0, inputs / "ragged")
    runs.append(("ragged blank-weight", _make_ragged(ragged), []))
    return runs


def extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest / "src"


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


def report(name: str, errors: dict, a: Path, b: Path) -> bool:
    """Print one run's line; True when it failed or differs."""
    errors = {side: err for side, err in errors.items() if err}
    if errors:
        print(f"{name}: FAILED {errors}")
        return True
    count, diff = differences(a, b)
    if diff:
        print(f"{name}: DIFFERENT {len(diff)} of {count} files: "
              f"{', '.join(diff[:5])}{' ...' if len(diff) > 5 else ''}")
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
        work_outs = {}
        for name, config, flags in write_runs(tmp / "inputs"):
            slug = re.sub(r"\W+", "-", name)
            outs = {side: tmp / side / "out" / slug for side in sides}
            errors = {
                side: run_side(src, config, flags, outs[side])
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
