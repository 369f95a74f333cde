"""Kernel microbenchmarks at fixed shapes.

The shapes match the ROADMAP's quoted per-call costs: ``loss_and_grad`` at
n=86 windows, hidden 8, rho 4 (a 120-period series with a 75% split), one
random-forest tree at rho 12, and a 100-tree forest predicting one window.
Each kernel runs in batches; the reported figure is the median batch's
microseconds per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hiergru.baselines import ForestConfig, fit_forest
from hiergru.dataset import Window
from hiergru.gru import init_params, loss_and_grad, predict_sequence

BATCHES = 7


def _us_per_call(fn, calls: int) -> float:
    per_batch = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_batch.append((time.perf_counter() - t0) / calls)
    return statistics.median(per_batch) * 1e6


def _ar_windows(rng, length: int, rho: int) -> list[Window]:
    x = np.empty(length)
    x[0] = rng.normal()
    for t in range(1, length):
        x[t] = 0.6 * x[t - 1] + rng.normal()
    return [Window(inputs=x[t - rho: t].copy(), target=float(x[t]))
            for t in range(rho, length)]


def run_kernels(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    hidden, rho, n = 8, 4, 86
    params = init_params(hidden, rng)
    anchor = ((init_params(hidden, rng), 0.5),)
    inputs = rng.normal(size=(n, rho))
    targets = rng.normal(size=n)
    window = inputs[0]
    tree_windows = _ar_windows(rng, 90, 12)
    forest = fit_forest(tree_windows, 12, ForestConfig(n_trees=100, seed=seed))
    one_tree = ForestConfig(n_trees=1, seed=seed)
    probe = tree_windows[-1].inputs
    return {
        "kernel.loss_and_grad.us": _us_per_call(
            lambda: loss_and_grad(params, inputs, targets), 100),
        "kernel.loss_and_grad_anchored.us": _us_per_call(
            lambda: loss_and_grad(params, inputs, targets, anchor), 100),
        "kernel.predict_sequence.us": _us_per_call(
            lambda: predict_sequence(params, window), 1000),
        "kernel.forest_tree.us": _us_per_call(
            lambda: fit_forest(tree_windows, 12, one_tree), 20),
        "kernel.ensemble_predict.us": _us_per_call(
            lambda: forest.predict(probe), 200),
    }
