"""One set-up sample: import hiergru and load a run's inputs, then exit.

Usage: ``python3 perfbench/setup_probe.py CONFIG`` with ``src`` on
PYTHONPATH.  The caller times the process from spawn to exit, so the
figure includes interpreter start and the numpy import.
"""

import sys

from hiergru.cli import load_config
from hiergru.dataset import load_series_csv
from hiergru.hierarchy import impute_weights, load_hierarchy

cfg = load_config(sys.argv[1])
h = load_hierarchy(cfg["hierarchy"])
panel = load_series_csv(
    cfg["series"], already_rates=cfg["already_rates"],
    train_fraction=cfg["split_fraction"],
)
if set(h.nodes) - set(h.weight):
    impute_weights(panel, h)
