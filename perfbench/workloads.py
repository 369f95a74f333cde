"""Seeded synthetic workloads for the benchmark.

Each workload is a ``hiergru synth`` panel plus a ``hiergru run`` config.
The workload seed drives both the panel and the config seed; the program
under test only ever sees the files written by :func:`make_inputs`.
Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    depth: int
    branching: int
    length: int
    leaf_noise_sd: float
    models: tuple
    horizons: str = "monthly"
    split_fraction: float = 0.75
    blank_weights: bool = False  # leave non-root weights empty so run imputes them
    jobs_compare: tuple = ()  # tags timed at jobs=1 and jobs=2 in the traced run

    def labels(self) -> list[str]:
        return [m.get("label", m["tag"]) for m in self.models]


_AR1 = {"tag": "ar", "rho": 1, "label": "ar_1"}

WORKLOADS = {
    "panel-s": Workload(
        depth=2, branching=3, length=120, leaf_noise_sd=0.75,
        models=(
            _AR1,
            {"tag": "rf", "rho": 12, "n_trees": 20},
            {"tag": "gbt", "rho": 12, "n_trees": 20},
            {"tag": "fc", "rho": 12, "epochs": 40},
            {"tag": "igru", "epochs": 40},
            {"tag": "knngru", "epochs": 40},
            {"tag": "hrnn", "epochs": 40},
            {"tag": "bihrnn", "epochs": 40},
        ),
        jobs_compare=("rf",),
    ),
    "deep-gru": Workload(
        depth=3, branching=2, length=120, leaf_noise_sd=0.5,
        models=(
            _AR1,
            {"tag": "igru", "epochs": 100},
            {"tag": "hrnn", "epochs": 100},
            {"tag": "bihrnn", "epochs": 100},
        ),
        blank_weights=True,
        jobs_compare=("igru", "hrnn"),
    ),
    "long-eval": Workload(
        depth=2, branching=3, length=144, leaf_noise_sd=0.5,
        models=(
            _AR1,
            {"tag": "rw", "rho": 4},
            {"tag": "igru", "epochs": 20},
            {"tag": "knngru", "epochs": 20},
            {"tag": "gbt", "rho": 12, "n_trees": 20},
        ),
        horizons="daily",
        split_fraction=0.5,
    ),
}


def make_inputs(name: str, seed: int, dest: Path) -> Path:
    """Write ``hierarchy.csv``, ``series.csv`` and ``config.json`` for one
    workload and seed under ``dest``; returns the config path."""
    from hiergru.dataset import SynthSpec, save_series_csv, synth_panel
    from hiergru.hierarchy import save_hierarchy

    w = WORKLOADS[name]
    dest.mkdir(parents=True, exist_ok=True)
    h, panel = synth_panel(SynthSpec(
        depth=w.depth, branching=w.branching, length=w.length,
        leaf_noise_sd=w.leaf_noise_sd, seed=seed,
    ))
    hier, series = dest / "hierarchy.csv", dest / "series.csv"
    save_hierarchy(h, hier)
    save_series_csv(panel, series)
    if w.blank_weights:
        with open(hier, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1:] = [[n, p, wt if not p else ""] for n, p, wt in rows[1:]]
        with open(hier, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    config = {
        "hierarchy": str(hier),
        "series": str(series),
        "already_rates": True,  # synth writes rates, not index levels
        "split_fraction": w.split_fraction,
        "horizons": w.horizons,
        "seed": seed,
        "models": list(w.models),
    }
    path = dest / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
