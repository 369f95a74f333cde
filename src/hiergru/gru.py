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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EmptyInputError, ShapeMismatchError

_FIELDS = ("u_z", "u_r", "u_v", "w_z", "w_r", "w_v", "b_z", "b_r", "b_v",
           "readout_w")


def _param_count(hidden: int, input_dim: int) -> int:
    return 3 * (input_dim * hidden + hidden * hidden + hidden) + hidden + 1


def _views(vec: np.ndarray, hidden: int, input_dim: int) -> list[np.ndarray]:
    """The arrays named in ``_FIELDS`` as views into ``vec``, in its order;
    the readout bias is the element after them."""
    h, d = hidden, input_dim
    views, at = [], 0
    for shape in [(d, h)] * 3 + [(h, h)] * 3 + [(h,)] * 4:
        size = math.prod(shape)
        views.append(vec[at: at + size].reshape(shape))
        at += size
    return views


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
        expected = _param_count(self.hidden, self.input_dim)
        vec = np.ascontiguousarray(self.vec, dtype=np.float64).view()
        if vec.shape != (expected,):
            raise ShapeMismatchError(
                f"expected flat vector of length {expected}, got shape {vec.shape}"
            )
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)
        for name, view in zip(_FIELDS, _views(vec, self.hidden, self.input_dim)):
            object.__setattr__(self, name, view)
        object.__setattr__(self, "readout_b", float(vec[-1]))

    @property
    def size(self) -> int:
        return self.vec.shape[0]

    def predict(self, window) -> float:
        return predict_sequence(self, window)

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
    """A writable copy of the parameter vector (gate tensors in z/r/v
    order, then readout weights, then readout bias)."""
    return p.vec.copy()


def unflatten(vec: np.ndarray, hidden: int, input_dim: int = 1) -> GruParams:
    """Inverse of :func:`flatten`; bit-exact round trip.  The parameters
    hold their own copy of ``vec``."""
    return GruParams(np.array(vec, dtype=np.float64), hidden, input_dim)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _step(p: GruParams, x: np.ndarray, s: np.ndarray):
    """The recurrence, written once: gates z, r, v and the next state from
    state ``s`` with input ``x``, for one row or a batch of rows."""
    z = _sigmoid(x @ p.u_z + s @ p.w_z + p.b_z)
    r = _sigmoid(x @ p.u_r + s @ p.w_r + p.b_r)
    v = np.tanh(x @ p.u_v + (s * r) @ p.w_v + p.b_v)
    return z, r, v, z * v + (1.0 - z) * s


def gru_step(p: GruParams, s_prev: np.ndarray, x) -> np.ndarray:
    """One recurrence step from state ``s_prev`` with input ``x``."""
    return _step(p, np.atleast_1d(np.asarray(x, dtype=np.float64)), s_prev)[3]


def predict_sequence(p: GruParams, inputs) -> float:
    """Run the unit over a window from the zero state; linear readout."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] == 0:
        raise EmptyInputError("empty input window")
    if x.shape[1] != p.input_dim:
        raise ShapeMismatchError(
            f"window has {x.shape[1]} input channels, parameters expect {p.input_dim}"
        )
    s = np.zeros(p.hidden)
    for xt in x:
        s = _step(p, xt, s)[3]
    return float(s @ p.readout_w + p.readout_b)


def _as_batch(p: GruParams, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3 or x.shape[2] != p.input_dim:
        raise ShapeMismatchError(
            f"batch inputs of shape {np.shape(inputs)} incompatible with "
            f"input_dim {p.input_dim}"
        )
    return x


def predict_batch(p: GruParams, inputs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`predict_sequence` over a batch of windows."""
    x = _as_batch(p, inputs)
    s = np.zeros((x.shape[0], p.hidden))
    for t in range(x.shape[1]):
        s = _step(p, x[:, t, :], s)[3]
    return s @ p.readout_w + p.readout_b


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
    obtained by backpropagation through time.  ``regularizers`` is a
    sequence of (anchor: GruParams, coeff: float) pairs; zero-coefficient
    entries contribute nothing and are skipped outright.
    """
    x = _as_batch(p, inputs)
    y = np.asarray(targets, dtype=np.float64)
    n, rho, _ = x.shape
    if n == 0:
        raise EmptyInputError("empty training batch")
    if y.shape != (n,):
        raise ShapeMismatchError(
            f"targets shape {y.shape} does not match batch size {n}"
        )

    h = p.hidden
    states = np.zeros((rho + 1, n, h))
    zs = np.empty((rho, n, h))
    rs = np.empty((rho, n, h))
    vs = np.empty((rho, n, h))
    for t in range(rho):
        zs[t], rs[t], vs[t], states[t + 1] = _step(p, x[:, t, :], states[t])

    pred = states[rho] @ p.readout_w + p.readout_b
    err = pred - y
    loss = float(err @ err) / n

    dpred = (2.0 / n) * err
    grad = np.zeros(p.size)
    gu_z, gu_r, gu_v, gw_z, gw_r, gw_v, gb_z, gb_r, gb_v, g_readout_w = _views(
        grad, h, p.input_dim
    )
    g_readout_w[:] = states[rho].T @ dpred
    grad[-1] = float(dpred.sum())
    ds = np.outer(dpred, p.readout_w)

    for t in range(rho - 1, -1, -1):
        xt = x[:, t, :]
        s_prev, z, r, v = states[t], zs[t], rs[t], vs[t]

        dz = ds * (v - s_prev)
        dv = ds * z
        ds_prev = ds * (1.0 - z)

        da_v = dv * (1.0 - v * v)
        gu_v += xt.T @ da_v
        gw_v += (s_prev * r).T @ da_v
        gb_v += da_v.sum(axis=0)
        dsr = da_v @ p.w_v.T
        dr = dsr * s_prev
        ds_prev += dsr * r

        da_r = dr * r * (1.0 - r)
        gu_r += xt.T @ da_r
        gw_r += s_prev.T @ da_r
        gb_r += da_r.sum(axis=0)
        ds_prev += da_r @ p.w_r.T

        da_z = dz * z * (1.0 - z)
        gu_z += xt.T @ da_z
        gw_z += s_prev.T @ da_z
        gb_z += da_z.sum(axis=0)
        ds_prev += da_z @ p.w_z.T

        ds = ds_prev

    for anchor, coeff in regularizers:
        if coeff == 0.0:
            continue
        if anchor.vec.shape != p.vec.shape:
            raise ShapeMismatchError(
                f"anchor has {anchor.size} parameters, expected {p.size}"
            )
        diff = p.vec - anchor.vec
        loss += coeff * float(diff @ diff)
        grad += (2.0 * coeff) * diff
    return loss, grad


# ---------------------------------------------------------------- optimizer

@dataclass
class OptimState:
    """First-order optimizer state: Adam by default, plain SGD by config."""

    lr: float = 0.005
    method: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.step)
        v_hat = self.v / (1.0 - self.beta2 ** self.step)
        return x - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def run_optimizer(loss_grad_fn, x0: np.ndarray, opt: OptimState, epochs: int):
    """Iterate first-order updates; abort on a non-finite loss.

    Returns (final_x, losses) where ``losses`` has ``epochs + 1`` entries:
    the loss at the initial point through the loss at the final point.
    On divergence raises :class:`DivergenceError` carrying the last
    parameter vector that produced a finite loss.
    """
    x = np.array(x0, dtype=np.float64)
    losses = []
    for _ in range(epochs):
        loss, grad = loss_grad_fn(x)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise DivergenceError(
                f"loss became non-finite after {len(losses)} epochs",
                last_params=x,
            )
        losses.append(loss)
        x = opt.update(x, grad)
    final_loss, _ = loss_grad_fn(x)
    if not np.isfinite(final_loss):
        raise DivergenceError(
            f"loss became non-finite after {epochs} epochs", last_params=x
        )
    losses.append(final_loss)
    return x, losses


def optimize(
    p: GruParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    opt: OptimState,
    *,
    epochs: int,
    regularizers: tuple = (),
) -> tuple[GruParams, list[float]]:
    """Train one unit, full batch, deterministic throughout."""
    if epochs == 0:
        return p, []
    hidden, input_dim = p.hidden, p.input_dim

    def fn(vec):
        return loss_and_grad(
            GruParams(vec, hidden, input_dim), inputs, targets, regularizers
        )

    x, losses = run_optimizer(fn, p.vec, opt, epochs)
    return GruParams(x, hidden, input_dim), losses
