"""Single GRU unit with linear readout: forward pass, exact BPTT gradients,
parameter flattening, and a first-order optimizer.

The unit maps a window of ``rho`` inputs (scalars, or small vectors for the
neighbor-augmented variant) to one scalar prediction through

    z = sigmoid(x u_z + s w_z + b_z)
    r = sigmoid(x u_r + s w_r + b_r)
    v = tanh(x u_v + (s * r) w_v + b_v)
    s' = z * v + (1 - z) * s

run from a zero state, followed by ``readout_w . s_final + readout_b``.
Gradients are hand-derived and verified against central finite differences
in the test suite.

Training runs on stacks of units: N units of one shape, each with its own
batch of equally many windows and its own anchors, as an (N, size)
parameter matrix.  Every product is a batched ``np.matmul`` over per-unit
views of that matrix and every sum runs within one unit, so each unit gets
the bits it would get trained alone.  :func:`loss_and_grad` and
:func:`optimize` are the one-unit case of :func:`optimize_stack`.

One kernel, :func:`_stack_loss_and_grad`, computes every loss: the
optimizer records each epoch's losses, the final point's included, from
the same call that gives its gradients.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EmptyInputError, ShapeMismatchError

_FIELDS = ("u_z", "u_r", "u_v", "w_z", "w_r", "w_v", "b_z", "b_r", "b_v",
           "readout_w")


def _param_count(hidden: int, input_dim: int) -> int:
    return 3 * (input_dim * hidden + hidden * hidden + hidden) + hidden + 1


@functools.cache
def _shapes(hidden: int, input_dim: int, stacked: bool = False) -> tuple:
    """The shape of every array named in ``_FIELDS``, in its order.
    ``stacked`` shapes the biases (1, h) and the readout weights (h, 1),
    for batched matmul."""
    h, d = hidden, input_dim
    bias, readout = ((1, h), (h, 1)) if stacked else ((h,), (h,))
    return ((d, h),) * 3 + ((h, h),) * 3 + (bias,) * 3 + (readout,)


@functools.cache
def _layout(shapes: tuple) -> tuple:
    """(slice, shape) of each of ``shapes``, laid out in turn in a flat
    parameter vector: the one layout of the GRU's and the MLP's vectors."""
    layout, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        layout.append((slice(at, at + size), shape))
        at += size
    return tuple(layout)


def _views(vec: np.ndarray, shapes: tuple) -> list[np.ndarray]:
    """Arrays of ``shapes`` as views into the last axis of ``vec`` (one
    parameter vector, or a stack of them), laid out by :func:`_layout`;
    elements after them are not viewed."""
    lead = vec.shape[:-1]
    return [vec[..., part].reshape(lead + shape) for part, shape in _layout(shapes)]


def _frozen(vec, size: int) -> np.ndarray:
    """A read-only float64 view of ``vec``, which must have shape (size,)."""
    vec = np.ascontiguousarray(vec, dtype=np.float64).view()
    if vec.shape != (size,):
        raise ShapeMismatchError(
            f"expected flat vector of length {size}, got shape {vec.shape}"
        )
    vec.flags.writeable = False
    return vec


def predict_sequence(p, inputs) -> float:
    """Run a node model (a GRU unit from the zero state, or any model with
    a ``predict_batch``) over one window: the one-row case of its
    ``predict_batch``, which checks the window.  Bound as ``predict`` by
    every node model class."""
    return float(p.predict_batch(np.asarray(inputs, dtype=np.float64)[None])[0])


@dataclass(frozen=True)
class GruParams:
    """The parameters of one GRU unit as one flat float64 vector ``vec``.

    The nine gate tensors ``u_*``, ``w_*``, ``b_*`` and the readout weights
    ``readout_w`` are read-only views into ``vec`` (gate tensors in z/r/v
    order, then the readout), and ``readout_b`` is its last element.  Input
    weights ``u_*`` have shape (input_dim, hidden); with scalar inputs that
    is (1, hidden).  Writing to ``vec`` or to any view raises.
    """

    vec: np.ndarray
    hidden: int
    input_dim: int = 1

    def __post_init__(self):
        vec = _frozen(self.vec, _param_count(self.hidden, self.input_dim))
        object.__setattr__(self, "vec", vec)
        views = _views(vec, _shapes(self.hidden, self.input_dim))
        for name, view in zip(_FIELDS, views):
            object.__setattr__(self, name, view)
        object.__setattr__(self, "readout_b", float(vec[-1]))

    @property
    def size(self) -> int:
        return self.vec.shape[0]

    predict = predict_sequence

    def predict_batch(self, windows) -> np.ndarray:
        return predict_batch(self, windows)


def init_params(
    hidden: int, rng: np.random.Generator, input_dim: int = 1
) -> GruParams:
    """Uniform(-0.1, 0.1) initialization of every entry, drawn in
    :func:`flatten` order."""
    if hidden < 1 or input_dim < 1:
        raise ShapeMismatchError(f"need hidden >= 1 and input_dim >= 1")
    size = _param_count(hidden, input_dim)
    return GruParams(rng.uniform(-0.1, 0.1, size), hidden, input_dim)


def zero_params(hidden: int, input_dim: int = 1) -> GruParams:
    return GruParams(np.zeros(_param_count(hidden, input_dim)), hidden, input_dim)


def flatten(p: GruParams) -> np.ndarray:
    """A writable copy of the parameter vector ``p.vec``: a GRU unit's
    gate tensors in z/r/v order, then readout weights, then readout bias,
    or an MLP's layers (``mlp_flatten`` is this function)."""
    return p.vec.copy()


def unflatten(vec: np.ndarray, hidden: int, input_dim: int = 1) -> GruParams:
    """Inverse of :func:`flatten`; bit-exact round trip.  The parameters
    hold their own copy of ``vec``."""
    return GruParams(np.array(vec, dtype=np.float64), hidden, input_dim)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _step(p, x: np.ndarray, s: np.ndarray):
    """The recurrence, written once: gates z, r, v and the next state from
    state ``s`` with input ``x``, for one row or a batch of rows of one unit
    (``p`` a :class:`GruParams`), or for a stack of units (``p`` a
    :class:`_Stack`)."""
    z = _sigmoid(x @ p.u_z + s @ p.w_z + p.b_z)
    r = _sigmoid(x @ p.u_r + s @ p.w_r + p.b_r)
    v = np.tanh(x @ p.u_v + (s * r) @ p.w_v + p.b_v)
    return z, r, v, z * v + (1.0 - z) * s


def gru_step(p: GruParams, s_prev: np.ndarray, x) -> np.ndarray:
    """One recurrence step from state ``s_prev`` with input ``x``."""
    return _step(p, np.atleast_1d(np.asarray(x, dtype=np.float64)), s_prev)[3]


def _as_windows(p: GruParams, inputs, lead: int) -> np.ndarray:
    """The one check of a GRU unit's windows: ``inputs`` as a contiguous
    float64 array of ``lead`` batch axes, then (rho, input_dim) with
    rho >= 1; scalar windows, without the input axis, gain it."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim == lead + 1:
        x = x[..., None]
    if x.ndim != lead + 2 or x.shape[-1] != p.input_dim:
        raise ShapeMismatchError(
            f"batch inputs of shape {x.shape[lead - 1:]} incompatible with "
            f"input_dim {p.input_dim}"
        )
    if x.shape[-2] == 0:
        raise EmptyInputError("empty input window")
    return x


def _final_state(p, x: np.ndarray) -> np.ndarray:
    """The state after the last step of every window, from the zero state;
    ``x[..., t, :]`` is step t of every window."""
    s = np.zeros(x.shape[:-2] + (p.hidden,))
    for t in range(x.shape[-2]):
        s = _step(p, x[..., t, :], s)[3]
    return s


def predict_batch(p: GruParams, inputs: np.ndarray) -> np.ndarray:
    """Run the unit over a batch of windows, shape (batch, rho) or
    (batch, rho, input_dim), from the zero state; linear readout."""
    return _final_state(p, _as_windows(p, inputs, 1)) @ p.readout_w + p.readout_b


# ----------------------------------------------------------- stacked units

# Per-unit views of an (N, size) parameter matrix, shaped for batched matmul
# against per-unit batches: gate weights (N, d, h) and (N, h, h), biases
# (N, 1, h), readout weights (N, h, 1) and readout bias (N, 1).
_Stack = namedtuple("_Stack", (*_FIELDS, "readout_b", "hidden"))


def _stack(P: np.ndarray, hidden: int, input_dim: int) -> _Stack:
    return _Stack(*_views(P, _shapes(hidden, input_dim, True)), P[:, -1:], hidden)


def _batches(p: GruParams, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit windows as one (N, n, rho, input_dim) array, checked by
    :func:`_as_windows`, and targets as (N, n).  ``inputs`` and ``targets``
    are sequences of per-unit arrays, stacked here, or arrays already
    stacked, used without a copy when they are contiguous float64."""
    x = _as_windows(p, inputs, 2)
    if x.shape[1] == 0:
        raise EmptyInputError("empty training batch")
    y = np.ascontiguousarray(targets, dtype=np.float64)
    if y.shape != x.shape[:2]:
        raise ShapeMismatchError(
            f"targets shape {y.shape[1:]} does not match batch size {x.shape[1]}"
        )
    return x, y


def _penalty_terms(regularizers, size: int) -> list:
    """Each unit's nonzero (anchor, coeff) pairs grouped by position j:
    the rows that have a j-th pair (an index array, or a slice when every
    row has one), their anchors (k, size) and their coeffs (k,).  Adding
    the groups in order adds every unit's terms in its own order, and a
    unit without a j-th pair gets no term at all.  Every anchor must have
    ``size`` parameters."""
    kept = [[(a, c) for a, c in regs if c != 0.0] for regs in regularizers]
    for pairs in kept:
        for anchor, _ in pairs:
            if anchor.vec.shape != (size,):
                raise ShapeMismatchError(
                    f"anchor has {anchor.size} parameters, expected {size}"
                )
    terms = []
    for j in range(max(map(len, kept), default=0)):
        rows = [i for i, pairs in enumerate(kept) if len(pairs) > j]
        terms.append((
            slice(None) if len(rows) == len(kept) else np.array(rows),
            np.stack([kept[i][j][0].vec for i in rows]),
            np.array([kept[i][j][1] for i in rows], dtype=np.float64),
        ))
    return terms


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``a[i] @ a[i]`` for every row i."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _add_penalties(P, terms, loss, grad) -> np.ndarray:
    """Add ``coeff * ||P[i] - anchor||^2`` to ``loss[i]``, and its gradient
    to ``grad[i]``, for every term of every unit."""
    for rows, anchors, coeffs in terms:
        diff = P[rows] - anchors
        loss[rows] += coeffs * _row_dots(diff)
        grad[rows] += (2.0 * coeffs)[:, None] * diff
    return loss


def _readout(w: _Stack, s: np.ndarray) -> np.ndarray:
    return (s @ w.readout_w)[..., 0] + w.readout_b


# Windows per pass over a stack of units: enough units per pass to spread
# numpy's per-call overhead, few enough that the activations a backward
# pass stores stay well under a megabyte.
_PASS_WINDOWS = 512


def _passes(units: int, windows: int) -> list[slice]:
    """The row slices of a stack of ``units`` units with ``windows``
    windows each, one slice per pass."""
    rows = max(1, _PASS_WINDOWS // windows)
    return [slice(lo, lo + rows) for lo in range(0, units, rows)]


def _stack_loss_and_grad(P, hidden, x, y, terms):
    """The one backward pass: for every unit i, the mean-squared error of
    its windows ``x[i]`` against ``y[i]`` plus its anchor penalties, and the
    exact gradient of that loss with respect to ``P[i]`` by
    backpropagation through time.  Returns losses (N,) and gradients
    (N, size).  The units run in passes of about ``_PASS_WINDOWS``
    windows."""
    loss = np.empty(P.shape[0])
    grad = np.zeros_like(P)
    for part in _passes(*x.shape[:2]):
        loss[part] = _bptt(P[part], hidden, x[part], y[part], grad[part])
    return _add_penalties(P, terms, loss, grad), grad


def _bptt(P, hidden, x, y, grad) -> np.ndarray:
    """The data losses of the units of ``P``; their gradients are added
    into ``grad``, which holds zeros."""
    N, n, rho, d = x.shape
    h = hidden
    w = _stack(P, h, d)
    states = np.zeros((rho + 1, N, n, h))
    zs = np.empty((rho, N, n, h))
    rs = np.empty((rho, N, n, h))
    vs = np.empty((rho, N, n, h))
    for t in range(rho):
        zs[t], rs[t], vs[t], states[t + 1] = _step(w, x[:, :, t, :], states[t])

    err = _readout(w, states[rho]) - y
    loss = _row_dots(err) / n

    dpred = (2.0 / n) * err
    gu_z, gu_r, gu_v, gw_z, gw_r, gw_v, gb_z, gb_r, gb_v, g_readout_w = _views(
        grad, _shapes(h, d)
    )
    g_readout_w[:] = (states[rho].swapaxes(1, 2) @ dpred[..., None])[..., 0]
    grad[:, -1] = dpred.sum(axis=1)
    ds = dpred[..., None] * w.readout_w.swapaxes(1, 2)
    # transposed views, taken once per call
    xT = x.transpose(2, 0, 3, 1)
    sT = states.swapaxes(2, 3)
    w_zT, w_rT, w_vT = (m.swapaxes(1, 2) for m in (w.w_z, w.w_r, w.w_v))

    for t in range(rho - 1, -1, -1):
        s_prev, z, r, v = states[t], zs[t], rs[t], vs[t]

        dz = ds * (v - s_prev)
        dv = ds * z
        ds_prev = ds * (1.0 - z)

        da_v = dv * (1.0 - v * v)
        gu_v += xT[t] @ da_v
        gw_v += (s_prev * r).swapaxes(1, 2) @ da_v
        gb_v += da_v.sum(axis=1)
        dsr = da_v @ w_vT
        dr = dsr * s_prev
        ds_prev += dsr * r

        da_r = dr * r * (1.0 - r)
        gu_r += xT[t] @ da_r
        gw_r += sT[t] @ da_r
        gb_r += da_r.sum(axis=1)
        ds_prev += da_r @ w_rT

        da_z = dz * z * (1.0 - z)
        gu_z += xT[t] @ da_z
        gw_z += sT[t] @ da_z
        gb_z += da_z.sum(axis=1)
        ds_prev += da_z @ w_zT

        ds = ds_prev
    return loss


def loss_and_grad(
    p: GruParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    regularizers: tuple = (),
) -> tuple[float, np.ndarray]:
    """Mean-squared prediction error plus anchored quadratic penalties.

        loss = (1/N) sum (target - prediction)^2
             + sum_j coeff_j * || p.vec - anchor_j.vec ||^2

    Returns the loss and its exact gradient with respect to ``p.vec``,
    obtained by backpropagation through time: the one-unit case of the
    stacked kernel.  ``regularizers`` is a sequence of (anchor: GruParams,
    coeff: float) pairs; zero-coefficient entries contribute nothing and
    are skipped outright.
    """
    x, y = _batches(
        p,
        np.asarray(inputs, dtype=np.float64)[None],
        np.asarray(targets, dtype=np.float64)[None],
    )
    terms = _penalty_terms([regularizers], p.size)
    loss, grad = _stack_loss_and_grad(p.vec[None], p.hidden, x, y, terms)
    return float(loss[0]), grad[0]


# ---------------------------------------------------------------- optimizer

# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    """First-order optimizer state: Adam by default, plain SGD by config."""

    lr: float = 0.005
    method: str = "adam"
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def update(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.method == "sgd":
            return x - self.lr * grad
        if self.m is None:
            self.m = np.zeros_like(x)
            self.v = np.zeros_like(x)
        self.step += 1
        self.m = _BETA1 * self.m + (1.0 - _BETA1) * grad
        self.v = _BETA2 * self.v + (1.0 - _BETA2) * grad * grad
        m_hat = self.m / (1.0 - _BETA1 ** self.step)
        v_hat = self.v / (1.0 - _BETA2 ** self.step)
        return x - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


def run_optimizer(loss_grad_fn, x0: np.ndarray, opt: OptimState, epochs: int):
    """Iterate first-order updates on the rows of ``x0``, shape (N, size):
    N independent problems sharing one optimizer.

    ``loss_grad_fn(X)`` gives the (N,) losses and (N, size) gradients at
    ``X``; every loss recorded, the final point's included, comes from it.
    Returns (X, losses, failures): ``losses`` holds the (N,) losses at the
    initial point through the final point, ``epochs + 1`` of them.  A row
    whose loss or gradient turns non-finite freezes where it is, and
    ``failures`` maps it to the :class:`DivergenceError` it would raise
    optimized alone, carrying the parameters it froze at.  The run stops
    early once row 0 has failed.
    """
    X = np.array(x0, dtype=np.float64)
    losses, failures = [], {}
    frozen = np.zeros(X.shape[0], dtype=bool)

    def fail(bad, epoch):
        for i in np.flatnonzero(bad & ~frozen):
            failures[int(i)] = DivergenceError(
                f"loss became non-finite after {epoch} epochs",
                last_params=X[i].copy(),
            )
        frozen[bad] = True

    # A diverging run overflows before its loss turns non-finite; that is
    # detected here and reported as DivergenceError, so numpy's own overflow
    # and invalid-value warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            loss, grad = loss_grad_fn(X)
            losses.append(loss)
            finite = np.isfinite(loss) & np.isfinite(grad).all(axis=1)
            if not finite.all():
                fail(~finite, epoch)
                if frozen[0]:
                    return X, losses, failures
            step = opt.update(X, grad)
            X = np.where(frozen[:, None], X, step) if failures else step
        final_loss = loss_grad_fn(X)[0]
    fail(~np.isfinite(final_loss), epochs)
    losses.append(final_loss)
    return X, losses, failures


def optimize_stack(
    params: list[GruParams],
    inputs: list,
    targets: list,
    opt: OptimState,
    *,
    epochs: int,
    regularizers: list | None = None,
) -> tuple[list[GruParams], list[np.ndarray], dict[int, DivergenceError]]:
    """Train units of one shape at once, full batch: unit i on windows
    ``inputs[i]`` (equally many for every unit) against targets
    ``targets[i]`` and anchors ``regularizers[i]`` (default: none).
    ``inputs`` and ``targets`` may be stacked arrays, which are not copied.

    Every unit ends with the bits :func:`optimize` gives it alone.  Returns
    the trained units, the losses and the failures of
    :func:`run_optimizer`; a failed unit's parameters are meaningless.
    """
    hidden, input_dim = params[0].hidden, params[0].input_dim
    x, y = _batches(params[0], inputs, targets)
    if epochs == 0:
        return list(params), [], {}
    terms = _penalty_terms(regularizers or [()] * len(params), params[0].size)
    P, losses, failures = run_optimizer(
        lambda P: _stack_loss_and_grad(P, hidden, x, y, terms),
        np.stack([p.vec for p in params]), opt, epochs,
    )
    return [GruParams(row, hidden, input_dim) for row in P], losses, failures


def optimize(
    p: GruParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    opt: OptimState,
    *,
    epochs: int,
    regularizers: tuple = (),
) -> tuple[GruParams, list[float]]:
    """Train one unit, full batch, deterministic throughout: the one-unit
    case of :func:`optimize_stack`.  Raises :class:`DivergenceError` when
    the loss turns non-finite."""
    (trained,), losses, failures = optimize_stack(
        [p], [inputs], [targets], opt, epochs=epochs, regularizers=[regularizers]
    )
    if failures:
        raise failures[0]
    return trained, [float(loss[0]) for loss in losses]
