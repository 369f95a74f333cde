#!/usr/bin/env python3
"""Anatomy of the forecasting unit.

One GRU with a linear readout maps a window of past rates to the next
rate.  This script runs the recurrence by hand, verifies the analytic
backpropagation-through-time gradient against central finite differences,
and shows how an anchored quadratic penalty pulls trained parameters
toward a reference parameter vector.
"""

import numpy as np

from hiergru import OptimState, init_params, loss_and_grad, optimize, predict_sequence
from hiergru.gru import flatten, unflatten

rng = np.random.default_rng(1)
params = init_params(hidden=6, rng=rng)
window = rng.normal(size=5)
print("prediction from a random 5-step window:", predict_sequence(params, window))

# Gradient check: the hand-derived BPTT gradient against a two-sided
# finite-difference estimate that only ever evaluates the forward loss.
x = rng.normal(size=(12, 5))
y = rng.normal(size=12)
loss, grad = loss_and_grad(params, x, y)
theta, step = flatten(params), 1e-5
fd = np.empty_like(theta)
for i in range(theta.size):
    e = np.zeros_like(theta)
    e[i] = step
    hi = loss_and_grad(unflatten(theta + e, 6), x, y)[0]
    lo = loss_and_grad(unflatten(theta - e, 6), x, y)[0]
    fd[i] = (hi - lo) / (2 * step)
rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
print(f"loss {loss:.4f}; gradient vs finite differences: rel err {rel:.2e}")

# Anchored training: the quadratic penalty coeff * ||theta - anchor||^2
# trades data fit against staying near the anchor. Sweeping the
# coefficient shows monotone shrinkage toward the anchor.
anchor = init_params(hidden=6, rng=np.random.default_rng(2))
print("\ncoefficient -> distance to anchor after training")
for coeff in (0.0, 0.5, 5.0, 50.0):
    start = init_params(hidden=6, rng=np.random.default_rng(3))
    trained, losses = optimize(
        start, x, y, OptimState(lr=0.01), epochs=300,
        regularizers=((anchor, coeff),),
    )
    dist = np.linalg.norm(flatten(trained) - flatten(anchor))
    print(f"  {coeff:5.1f} -> {dist: .4f}   (final data+penalty loss {losses[-1]:.4f})")
