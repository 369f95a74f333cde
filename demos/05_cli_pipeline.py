#!/usr/bin/env python3
"""The reproducible end-to-end pipeline, driven through the CLI.

Generates synthetic data, writes a JSON run configuration, executes
`hiergru run`, and inspects the outputs: report tables, the per-level
breakdown, checkpoints, and the manifest that makes the run replayable.
"""

import json
import tempfile
from pathlib import Path

from hiergru.cli import main

work = Path(tempfile.mkdtemp(prefix="hiergru_demo_"))
data = work / "data"
out = work / "out"

assert main([
    "synth", "--out", str(data),
    "--depth", "2", "--branching", "3", "--length", "100",
    "--leaf-noise-sd", "0.6", "--seed", "4",
]) == 0

config = {
    "hierarchy": str(data / "hierarchy.csv"),
    "series": str(data / "series.csv"),
    "already_rates": True,          # synth emits rates, not index levels
    "horizons": [0, 1, 2, 4],
    "seed": 1,
    "models": [
        {"tag": "ar", "rho": 1, "label": "ar_1"},
        {"tag": "rw", "rho": 4, "label": "rw_4"},
        {"tag": "igru", "epochs": 120},
        {"tag": "hrnn", "epochs": 120},
        {"tag": "bihrnn", "epochs": 120},
    ],
}
cfg_path = work / "config.json"
cfg_path.write_text(json.dumps(config, indent=2))

assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

print("\n--- report.csv (horizon 0 rows) ---")
for line in (out / "report.csv").read_text().splitlines():
    if line.startswith("model") or line.split(",")[1:2] == ["0"]:
        print(line)

print("\n--- per-level rows for hrnn, horizon 0 ---")
for line in (out / "report_by_level.csv").read_text().splitlines():
    if line.startswith("model") or line.startswith("hrnn,0,"):
        print(line)

manifest = json.loads((out / "manifest.json").read_text())
print("\nmanifest seed:", manifest["seed"])
print("series sha256:", manifest["series_sha256"][:16], "...")
print("checkpoint dirs:", sorted(p.name for p in (out / "checkpoints").iterdir()))
print("\neverything under", work)
