#!/usr/bin/env python3
"""The index tree and the statistics that drive hierarchical shrinkage.

Generates a synthetic three-level hierarchy whose children are noisy
copies of their parents, then inspects parent-child correlations, the
precision schedule tau = exp(alpha + C), normalized child weights, and
regression-based imputation of missing weights.
"""

from dataclasses import replace

import numpy as np

from hiergru import (
    SynthSpec,
    child_weights,
    impute_weights,
    precision_schedule,
    synth_panel,
)

h, panel = synth_panel(
    SynthSpec(depth=2, branching=3, length=160, leaf_noise_sd=0.8, seed=42)
)
print(f"{len(h.nodes)} nodes, depth {h.depth()}, root {h.root!r}")
for level in range(h.depth() + 1):
    nodes = [n for n in h.nodes if h.level[n] == level]
    sds = [np.std(panel.rates[n]) for n in nodes]
    print(f"  level {level}: {len(nodes):2d} nodes, mean rate sd {np.mean(sds):.2f}")

# Parent-child correlation weakens as noise accumulates down the tree.
print("\nparent correlation by level (training window only):")
corr = precision_schedule(panel, h, alpha=0.0).correlation
for level in (1, 2):
    cs = [corr[n] for n in h.nodes if h.level[n] == level]
    print(f"  level {level}: mean C = {np.mean(cs):+.3f}")

# The precision schedule turns correlation into prior strength.
for alpha in (0.5, 1.5):
    sched = precision_schedule(panel, h, alpha=alpha)
    taus = sorted(sched.tau.values())
    print(f"alpha={alpha}: tau ranges {taus[0]:.2f} .. {taus[-1]:.2f}")

# Children's basket weights normalize to shares within the sibling group.
print("\nchild shares under the root:", child_weights(h, h.root))

# Drop two weights and let the no-intercept regression of the parent on
# its children re-estimate them from the training rates.
weights = dict(h.weight)
del weights["root.0"], weights["root.1"]
h_missing = replace(h, weight=weights)
h_filled = impute_weights(panel, h_missing)
print("imputed shares:", {k: round(h_filled.weight[k], 3) for k in ("root.0", "root.1")})
