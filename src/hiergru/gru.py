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

Each :func:`optimize_stack` run trains in one pass per epoch, in one
:class:`_Workspace`: float64 arrays sized for its whole stack, which every
epoch overwrites, so a pass allocates none of its states, gates or
backward intermediates.  The caller bounds a run's windows (the recurrent
trainers cut a bucket into runs of whole nodes), and each run keeps its own
Adam moments (:func:`run_optimizer`).  The first step of every window
starts from the zero state, where ``s w_z``, ``s w_r`` and ``(s * r) w_v``
are exact zeros and the reset gate scales nothing; that step, forward and
backward, is computed without them.  The input projections of every step
are written ahead (:func:`_project_steps`), and the bias gradients sum
each unit's windows with ``np.einsum`` (:func:`_window_sums`).

Training, prediction and forecasting run one recurrence, :func:`_step`.
:func:`stack_predictor` runs it over a stack of units, so that a bundle
forecasts its nodes together.  Every caller enters
``np.errstate(over="ignore")`` once, for the sigmoid's ``exp``
(:func:`_sigmoid`).  None of this changes a bit of any loss, gradient or
prediction.
"""

from __future__ import annotations

import functools
import math
import mmap
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    _NONNEG,
    _OPTIMIZER,
    DivergenceError,
    EmptyInputError,
    HiergruError,
    ShapeMismatchError,
    _check_ruled,
    _ruled,
)

_FIELDS = ("u_z", "u_r", "u_v", "w_z", "w_r", "w_v", "b_z", "b_r", "b_v",
           "readout_w")


def _indexable(count: int, what: str) -> int:
    """``count``, the float64 or int64 elements of one array that ``what``
    sizes, if numpy can index their bytes; else :class:`HiergruError`."""
    if 8 * count > np.iinfo(np.intp).max:
        raise HiergruError(f"{what} needs {count} array elements, past numpy's range")
    return count


def _param_count(hidden: int, input_dim: int) -> int:
    count = 3 * (input_dim * hidden + hidden * hidden + hidden) + hidden + 1
    return _indexable(count, f"a GRU of hidden {hidden}")


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
        raise ShapeMismatchError(
            f"need hidden >= 1 and input_dim >= 1, got hidden={hidden}, "
            f"input_dim={input_dim}"
        )
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


def _sigmoid(a: np.ndarray) -> None:
    """``1 / (1 + exp(-a))``, written into ``a``.  ``exp`` overflows to inf
    where ``a`` is below about -709, and the sigmoid is then exactly 0: every
    caller of :func:`_step` enters ``np.errstate(over="ignore")`` once, for
    the whole call, so that this is not warned about."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


def _project(p, x: np.ndarray, z, r, v, product=np.matmul) -> None:
    """The input projections of one step: ``x @ u_z``, ``x @ u_r`` and
    ``x @ u_v`` into ``z``, ``r`` and ``v``; ``r`` None skips the reset
    gate, which the zero-state step does not use."""
    product(x, p.u_z, out=z)
    if r is not None:
        product(x, p.u_r, out=r)
    product(x, p.u_v, out=v)


def _step(p, s, z, r, v, out, tmp) -> None:
    """The recurrence, written once: completes gates ``z``, ``r``, ``v``,
    which hold the step's input projections (:func:`_project`), and writes
    the next state ``out`` from state ``s``, using ``tmp`` as scratch, for
    one row or a batch of rows of one unit (``p`` a :class:`GruParams`), or
    for a stack of units (``p`` a :class:`_Stack`).

    ``s`` None is the zero state.  Its recurrent products ``s @ w_*`` and
    ``(s * r) @ w_v`` are then exact zeros for finite weights, and the
    reset gate scales nothing, so none of them is computed and ``r`` is
    not read; adding an exact zero would change no bit but a zero's
    sign, which reaches no loss, gradient or prediction."""
    if s is not None:
        z += np.matmul(s, p.w_z, out=tmp)
    z += p.b_z
    _sigmoid(z)
    if s is not None:
        r += np.matmul(s, p.w_r, out=tmp)
        r += p.b_r
        _sigmoid(r)
        # ``out`` is written last
        v += np.matmul(np.multiply(s, r, out=tmp), p.w_v, out=out)
    v += p.b_v
    np.tanh(v, out=v)
    np.multiply(z, v, out=out)
    if s is not None:
        np.subtract(1.0, z, out=tmp)
        tmp *= s
        out += tmp


def gru_step(p: GruParams, s_prev, x) -> np.ndarray:
    """One recurrence step from state ``s_prev``, shape (hidden,), with
    input ``x`` of ``input_dim`` values (a scalar when that is 1); other
    shapes raise :class:`ShapeMismatchError`."""
    s = np.asarray(s_prev, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if s.shape != (p.hidden,) or x.shape != (p.input_dim,):
        raise ShapeMismatchError(
            f"state of shape {s.shape} and input of shape {x.shape} do not "
            f"fit hidden {p.hidden} and input_dim {p.input_dim}"
        )
    z, r, v, out, tmp = np.empty((5, p.hidden))
    _project(p, x, z, r, v)
    with np.errstate(over="ignore"):
        _step(p, s, z, r, v, out, tmp)
    return out


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
    ``x[..., t, :]`` is step t of every window.  The caller enters
    ``np.errstate(over="ignore")`` (see :func:`_sigmoid`)."""
    z, r, v, tmp, s, out = np.empty((6,) + x.shape[:-2] + p.b_z.shape[-1:])
    _project(p, x[..., 0, :], z, None, v)
    _step(p, None, z, r, v, s, tmp)
    for t in range(1, x.shape[-2]):
        _project(p, x[..., t, :], z, r, v)
        _step(p, s, z, r, v, out, tmp)
        s, out = out, s
    return s


def predict_batch(p: GruParams, inputs: np.ndarray) -> np.ndarray:
    """Run the unit over a batch of windows, shape (batch, rho) or
    (batch, rho, input_dim), from the zero state; linear readout."""
    x = _as_windows(p, inputs, 1)
    with np.errstate(over="ignore"):
        return _final_state(p, x) @ p.readout_w + p.readout_b


# ----------------------------------------------------------- stacked units

# Per-unit views of an (N, size) parameter matrix, shaped for batched matmul
# against per-unit batches: gate weights (N, d, h) and (N, h, h), biases
# (N, 1, h), readout weights (N, h, 1) and readout bias (N, 1).
_Stack = namedtuple("_Stack", (*_FIELDS, "readout_b"))


def _stack(P: np.ndarray, hidden: int, input_dim: int) -> _Stack:
    return _Stack(*_views(P, _shapes(hidden, input_dim, True)), P[:, -1:])


def stack_predictor(units: list[GruParams]):
    """:func:`predict_batch` for a stack of units of one shape, run as one
    batched recursion: the returned function maps windows (N, batch, rho)
    or (N, batch, rho, input_dim), unit i's batch at [i], to the (N, batch)
    predictions, each unit's row the bits of its own :func:`predict_batch`."""
    p = units[0]
    w = _stack(np.stack([u.vec for u in units]), p.hidden, p.input_dim)

    def predict(windows: np.ndarray) -> np.ndarray:
        x = _as_windows(p, windows, 2)
        with np.errstate(over="ignore"):
            s = _final_state(w, x)
        return np.matmul(s, w.readout_w)[..., 0] + w.readout_b

    return predict


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


# The arrays a pass writes, (N, n, h) unless noted: the state after each
# step, the gates z, v and r of each step (r from step 1 on: the zero-state
# step computes none), four scratch arrays and ``ds``, the backward pass's
# state gradient, which starts in the last state once the readout has read
# it, and small ones for the readout column (N, n, 1) and the gradient
# products (N, h, 1), (N, d, h), (N, h, h) and (N, h).
_Acts = namedtuple(
    "_Acts", "states zs vs rs ds tmp dz dsr ds_prev col hcol dh hh hrow"
)


class _Workspace:
    """The memory of one training run over a stack of ``units`` units with
    ``n`` windows of ``rho`` steps each: the parameters ``P`` and gradients
    ``G`` of every unit, their per-unit views ``w`` and ``g``, and every
    array the run's one pass writes, ``a``.  Every call overwrites it; its
    views are taken once, here."""

    def __init__(self, units: int, n: int, rho: int, input_dim: int, hidden: int):
        d, h = input_dim, hidden
        self.P = np.empty((units, _param_count(h, d)))
        self.G = np.empty_like(self.P)
        self.w = _stack(self.P, h, d)
        self.g = _views(self.G, _shapes(h, d)) + [self.G[:, -1]]
        # Mapped from the OS, not malloc'd, so that freeing the workspace
        # unmaps it: glibc would raise its mmap threshold to the freed
        # block's size, and the later, smaller workspaces of a fit would
        # then stay resident in its heap.  Over a 512-window workspace,
        # deep-gru's peak RSS rose 1.4 MB with a malloc'd one, 0.5 MB
        # with a mapped one.
        shape = (4 * rho + 3, units, n, h)
        a = list(np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape))
        self.a = _Acts(
            a[:rho], a[rho:2 * rho], a[2 * rho:3 * rho], [None, *a[3 * rho:4 * rho - 1]],
            a[rho - 1], *a[4 * rho - 1:],
            *(np.empty((units, *shape))
              for shape in ((n, 1), (h, 1), (d, h), (h, h), (h,))),
        )


def _stack_loss_and_grad(ws: _Workspace, P, x, y, terms):
    """The one backward pass: for every unit i, the mean-squared error of
    its windows ``x[i]`` against ``y[i]`` plus its anchor penalties, and the
    exact gradient of that loss with respect to ``P[i]`` by
    backpropagation through time.  Returns losses (N,) and gradients
    (N, size), the latter held by ``ws`` and overwritten by its next call."""
    np.copyto(ws.P, P)
    ws.G.fill(0.0)
    return _add_penalties(P, terms, _bptt(ws.w, ws.g, ws.a, x, y), ws.G), ws.G


def _window_sums(da: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each unit's sum of ``da`` (N, n, h) over its n windows, written into
    ``out`` (N, h).  At h > 1 np.add.reduce adds the windows one after
    another, and einsum adds them in the same order in about a third of the
    time (8 against 25 us for 15 units of 86 windows at h = 8).  At h = 1
    np.add.reduce sums pairwise, where einsum's sums would differ."""
    if da.shape[-1] == 1:
        return np.add.reduce(da, axis=1, out=out)
    return np.einsum("inj->ij", da, out=out)


def _project_steps(w: _Stack, x, a: _Acts) -> _Stack:
    """Write the input projections of every step ahead into the step's
    gates (:func:`_project`), and return ``w`` with its biases plus 0.0
    broadcast to whole (N, n, h) arrays, so that no bias add broadcasts.
    The forward pass leaves free the arrays this writes: the backward
    scratch arrays, and ``ds``, the last state, until the last step.

    One-wide inputs make each ``x @ u_*`` an outer product, where np.matmul
    runs its own loop, ``0 + x * u``, at about 25 us for 15 units of 86
    windows: ``x * u`` of ``x`` and ``u`` broadcast ahead takes 4 us.  The
    two differ only where the product is -0.0.  The sum that follows adds
    ``s @ w_*``, which is never -0.0, or the bias plus 0.0, which is not
    -0.0 either, and so comes out the same bit for bit."""
    gates = zip(a.zs, a.rs, a.vs)
    if x.shape[-1] == 1:
        u = w._replace(u_z=a.dz, u_r=a.dsr, u_v=a.ds_prev)
        for full, part in zip(u[:3], w[:3]):
            np.copyto(full, part)
        for t, (z, r, v) in enumerate(gates):
            np.copyto(a.ds, x[:, :, t, :])
            _project(u, a.ds, z, r, v, np.multiply)
    else:
        for t, (z, r, v) in enumerate(gates):
            _project(w, x[:, :, t, :], z, r, v)
    biases = (a.dz, a.dsr, a.ds_prev)
    for full, part in zip(biases, (w.b_z, w.b_r, w.b_v)):
        np.add(part, 0.0, out=full)
    return w._replace(b_z=biases[0], b_r=biases[1], b_v=biases[2])


def _bptt(w: _Stack, g: list, a: _Acts, x, y) -> np.ndarray:
    """The data losses of the units whose parameters ``w`` views; their
    gradients are added into the views ``g``, which hold zeros, and every
    activation is written into ``a``.  Step 0 starts from the zero state,
    so its backward step skips what is zero there: the terms of the reset
    gate's and every ``w_*``'s gradients, and the gradient of the zero
    state, which nothing reads."""
    n, rho = x.shape[1:3]
    states, zs, vs, rs = a.states, a.zs, a.vs, a.rs
    tmp, dz, dsr, ds, ds_prev = a.tmp, a.dz, a.dsr, a.ds, a.ds_prev
    fw = _project_steps(w, x, a)
    with np.errstate(over="ignore"):
        for t in range(rho):
            s = states[t - 1] if t else None
            _step(fw, s, zs[t], rs[t], vs[t], states[t], tmp)

    err = np.matmul(states[-1], w.readout_w, out=a.col)[..., 0]
    err += w.readout_b
    err -= y
    loss = _row_dots(err) / n

    dpred = np.multiply(2.0 / n, err, out=err)
    gu_z, gu_r, gu_v, gw_z, gw_r, gw_v, gb_z, gb_r, gb_v, g_readout_w, g_readout_b = g
    g_readout_w[:] = np.matmul(
        states[-1].swapaxes(1, 2), dpred[..., None], out=a.hcol
    )[..., 0]
    g_readout_b[:] = dpred.sum(axis=1)
    np.multiply(dpred[..., None], w.readout_w.swapaxes(1, 2), out=ds)
    # transposed views, taken once per call
    xT = x.transpose(2, 0, 3, 1)
    w_zT, w_rT, w_vT = (m.swapaxes(1, 2) for m in (w.w_z, w.w_r, w.w_v))

    for t in range(rho - 1, -1, -1):
        z, v = zs[t], vs[t]
        if t:
            s_prev, sT, r = states[t - 1], states[t - 1].swapaxes(1, 2), rs[t]
            np.multiply(ds, np.subtract(v, s_prev, out=tmp), out=dz)
            np.multiply(ds, np.subtract(1.0, z, out=tmp), out=ds_prev)
        else:
            np.multiply(ds, v, out=dz)  # v - 0 is v
        da_v = np.multiply(ds, z, out=ds)  # dv = ds * z
        da_v *= np.subtract(1.0, np.multiply(v, v, out=tmp), out=tmp)
        gu_v += np.matmul(xT[t], da_v, out=a.dh)
        gb_v += _window_sums(da_v, a.hrow)
        if t:
            sr = np.multiply(s_prev, r, out=tmp)
            gw_v += np.matmul(sr.swapaxes(1, 2), da_v, out=a.hh)
            np.matmul(da_v, w_vT, out=dsr)
            da_r = np.multiply(dsr, s_prev, out=tmp)  # dr = dsr * s_prev
            dsr *= r
            ds_prev += dsr
            da_r *= r
            da_r *= np.subtract(1.0, r, out=dsr)
            gu_r += np.matmul(xT[t], da_r, out=a.dh)
            gw_r += np.matmul(sT, da_r, out=a.hh)
            gb_r += _window_sums(da_r, a.hrow)
            ds_prev += np.matmul(da_r, w_rT, out=dsr)

        da_z = np.multiply(dz, z, out=dz)
        da_z *= np.subtract(1.0, z, out=tmp)
        gu_z += np.matmul(xT[t], da_z, out=a.dh)
        gb_z += _window_sums(da_z, a.hrow)
        if t:
            gw_z += np.matmul(sT, da_z, out=a.hh)
            ds_prev += np.matmul(da_z, w_zT, out=dsr)
            ds, ds_prev = ds_prev, ds
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
    ws = _Workspace(*x.shape, p.hidden)
    loss, grad = _stack_loss_and_grad(ws, p.vec[None], x, y, terms)
    return float(loss[0]), grad[0]


# ---------------------------------------------------------------- optimizer

# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class OptimState:
    """How a run steps: Adam by default, plain SGD by config, at learning
    rate ``lr``.  It holds nothing of a run, so one value serves any number
    of runs, each as if fresh."""

    lr: float = _ruled(_NONNEG, 0.005)
    method: str = _ruled(_OPTIMIZER, "adam")

    __post_init__ = _check_ruled


def run_optimizer(loss_grad_fn, x0: np.ndarray, opt: OptimState, epochs: int):
    """Iterate first-order updates on the rows of ``x0``, shape (N, size):
    N independent problems, each row stepped by ``opt`` from Adam moments
    of its own, which live as long as the run.

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
    m = v = np.zeros_like(X)
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
            if opt.method == "sgd":
                step = X - opt.lr * grad
            else:
                m = _BETA1 * m + (1.0 - _BETA1) * grad
                v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
                m_hat = m / (1.0 - _BETA1 ** (epoch + 1))
                v_hat = v / (1.0 - _BETA2 ** (epoch + 1))
                step = X - opt.lr * m_hat / (np.sqrt(v_hat) + _EPS)
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
    ws = _Workspace(*x.shape, hidden)
    P, losses, failures = run_optimizer(
        lambda P: _stack_loss_and_grad(ws, P, x, y, terms),
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
