"""Recurrent model family, plus the bundle and recursive forecast that
every model family shares.

The recurrent trainers fit one GRU per node (sgru: one shared unit) and
differ only in what anchors each node.  They all run one loop,
:func:`_train_nodes`, which visits groups of nodes (all nodes at once, or
one tree level at a time for hrnn so that parents finish before their
children start) and asks three things of each node:

* its training data: the node's own train windows, or (knngru)
  multichannel windows stacking the node with its k most correlated nodes;
* its initial parameters: a seeded uniform init, or (bihrnn) the node's
  pretrained parameters;
* its anchors, the (parameters, coefficient) pairs of the quadratic
  penalty: none (sgru, igru, knngru); for hrnn a zero anchor at the root
  with coefficient 1/2 and the trained parent elsewhere with tau/2, where
  tau = exp(alpha + C), both scaled by ``prior_scale``; for bihrnn the
  frozen pretrained parent with lambda1 and each pretrained child with
  lambda2 times its basket share.

sgru is the loop over the root alone, fed the pooled windows of every
node; every node then shares the root's unit.

The nodes of a group train independently, so a group is split into
buckets of nodes with equally many windows and the same input width, and
each bucket trains as one stacked optimisation
(:func:`~hiergru.gru.optimize_stack`).  Nothing is padded, and every node
ends with the bits it would get trained alone.  Training runs in the
calling thread.

Every trainer is a pure function of (panel, hierarchy, spec[, pretrained]):
node seeds derive from a stable hash, batches are full and ordered, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import SeriesPanel, make_windows, stack_windows
from .errors import (
    DegenerateVarianceError,
    HiergruError,
    InsufficientHistoryError,
    InsufficientNeighborsWarning,
    InvalidSpecError,
    MissingPretrainedError,
    NodeSkippedWarning,
    NoTrainingDataError,
)
from .gru import GruParams, OptimState, init_params, optimize_stack, zero_params
from .hierarchy import (
    Hierarchy,
    NodeId,
    child_weights,
    precision_schedule,
)
from .metrics import pearson


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _finite(test, wanted: str) -> tuple:
    """A range rule that also rejects infinity (NaN fails every test)."""
    return (lambda v: (_is_int(v) or math.isfinite(v)) and test(v),
            f"finite and {wanted}")


# (test, wording) pairs for the config field checks below
_AT_LEAST_1 = _finite(lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = _finite(lambda v: v >= 0, ">= 0")
_POSITIVE = _finite(lambda v: v > 0, "> 0")
_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")
_INTEGER = (_is_int, "an integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_NONNEG_INT = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
# exp(alpha + C) stays finite for every correlation C in [-1, 1]
_ALPHA = _finite(lambda v: v <= 708, "<= 708")


def _check_fields(cfg, **rules) -> None:
    """Raise :class:`InvalidSpecError` naming the first field of ``cfg``
    that fails its rule.  NaN fails every comparison, so every rule
    rejects it."""
    for name, (ok, wanted) in rules.items():
        value = getattr(cfg, name)
        if not ok(value):
            raise InvalidSpecError(f"{name} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class TrainSpec:
    """All training knobs shared by the recurrent family."""

    rho: int = 4
    hidden: int = 8
    lr: float = 0.005
    epochs: int = 200
    alpha: float = 1.5
    lambda1: float = 1.0
    lambda2: float = 1.0
    k_neighbors: int = 5
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        _check_fields(
            self, rho=_COUNT, hidden=_COUNT, lr=_POSITIVE, epochs=_NONNEG_INT,
            alpha=_ALPHA, lambda1=_AT_LEAST_0, lambda2=_AT_LEAST_0,
            k_neighbors=_COUNT, seed=_INTEGER,
            optimizer=(lambda v: v in ("adam", "sgd"), "'adam' or 'sgd'"),
        )


def node_seed(seed: int, node: NodeId) -> int:
    """Stable per-node RNG seed, identical across runs and platforms."""
    digest = hashlib.sha256(f"{seed}|{node}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ModelBundle:
    """One fitted model family: a node model per covered node (anything
    with ``.predict_batch(windows)``), per-node provenance, and, for the
    recurrent family, the training spec and knngru's neighbor lists."""

    tag: str
    rho: int
    models: dict[NodeId, object]
    provenance: dict[NodeId, dict] = field(default_factory=dict)
    spec: TrainSpec | None = None
    neighbors: dict[NodeId, tuple[NodeId, ...]] | None = None
    label: str | None = None

    @property
    def display_label(self) -> str:
        return self.label or self.tag

    @property
    def params(self) -> dict:
        return self.models

    @property
    def model_map(self) -> dict:
        return self.models

    def covered_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.models))

    def forecast(
        self, panel: SeriesPanel, node: NodeId, origin: int, horizon: int
    ) -> np.ndarray:
        return forecast(self, panel, node, origin, horizon)

    def forecast_origins(
        self, panel: SeriesPanel, node: NodeId, origins, horizon: int
    ) -> np.ndarray:
        return forecast_origins(self, panel, node, origins, horizon)


# ----------------------------------------------------------------- training

# One node of a group, ready to train; ``data`` is ``(inputs, targets,
# notes)``, or None when the node has no training window.
_Pending = namedtuple("_Pending", "node seed params regularizers notes data")


def _train_group(pending: list[_Pending], spec: TrainSpec) -> dict[int, tuple]:
    """Train the pending nodes that have data: one stacked optimisation per
    bucket of nodes with equally many windows and the same input width, so
    nothing is padded.  Returns {index in ``pending``: (params, losses)},
    ``losses`` being the initial and final loss.  Raises the divergence of
    the first node, in order, that diverged: the error a node-by-node loop
    would raise."""
    buckets: dict[tuple, list[int]] = {}
    for i, node in enumerate(pending):
        if node.data is not None:
            key = (len(node.data[1]), node.params.input_dim)
            buckets.setdefault(key, []).append(i)
    trained, failures = {}, {}
    for members in buckets.values():
        picked = [pending[i] for i in members]
        params, losses, failed = optimize_stack(
            [node.params for node in picked],
            [node.data[0] for node in picked],
            [node.data[1] for node in picked],
            OptimState(lr=spec.lr, method=spec.optimizer),
            epochs=spec.epochs,
            regularizers=[node.regularizers for node in picked],
        )
        ends = losses[:1] + losses[-1:]
        for row, i in enumerate(members):
            trained[i] = params[row], [float(loss[row]) for loss in ends]
        failures.update((members[row], err) for row, err in failed.items())
    if failures:
        raise failures[min(failures)]
    return trained


def _train_nodes(tag, h, spec, data, *, init=None, anchors=None, groups=None,
                 **fields) -> ModelBundle:
    """The node-training loop every recurrent trainer runs.

    ``groups`` are trained in order (default: all nodes in breadth-first
    order as one group), each by :func:`_train_group`.  Per node:

    * ``data(n)`` gives ``(inputs, targets, notes)``, or None when the node
      has no training window: it then keeps its initial parameters;
    * ``init(n, seed)`` gives the initial parameters (default: seeded
      uniform init);
    * ``anchors(n, trained)`` gives ``(regularizers, notes)``, where
      ``trained`` holds the parameters of the groups already trained
      (default: no anchors).

    Both ``notes`` dicts go into the node's provenance, the data notes only
    when the node trained.
    """
    if init is None:
        def init(n, seed):
            return init_params(spec.hidden, np.random.default_rng(seed))
    models: dict[NodeId, GruParams] = {}
    provenance: dict[NodeId, dict] = {}
    rank = 0
    for group in groups or [h.bfs_order()]:
        pending = []
        for n in group:
            seed = node_seed(spec.seed, n)
            params = init(n, seed)
            regs, notes = anchors(n, models) if anchors else ((), {})
            stacked = data(n)
            if stacked is None:
                warnings.warn(
                    f"node {n!r} has no training windows; keeping initial parameters",
                    NodeSkippedWarning,
                )
            pending.append(_Pending(n, seed, params, regs, notes, stacked))
        trained = _train_group(pending, spec)
        for i, node in enumerate(pending):
            models[node.node], losses = trained.get(i, (node.params, []))
            notes = node.notes if node.data is None else {**node.data[2], **node.notes}
            provenance[node.node] = {
                "train_order": rank + i,
                "seed": node.seed,
                "skipped": node.data is None,
                "initial_loss": losses[0] if losses else None,
                "final_loss": losses[-1] if losses else None,
                **notes,
            }
        rank += len(pending)
    return ModelBundle(
        tag=tag, rho=spec.rho, models=models, provenance=provenance,
        spec=spec, **fields,
    )


def _own_windows(panel: SeriesPanel, rho: int):
    """Training data: the node's own train windows."""
    def data(n):
        windows = make_windows(panel, n, rho, "train")
        return (*stack_windows(windows), {}) if windows else None
    return data


def train_sgru(panel: SeriesPanel, h: Hierarchy, spec: TrainSpec) -> ModelBundle:
    """One shared unit fit on the pooled train windows of every node."""
    windows = []
    for n in sorted(h.nodes):
        windows.extend(make_windows(panel, n, spec.rho, "train"))
    if not windows:
        raise NoTrainingDataError("no node provides a training window")
    pooled = (*stack_windows(windows), {"pooled_windows": len(windows)})
    unit = _train_nodes("sgru", h, spec, lambda n: pooled, groups=[[h.root]])
    return replace(
        unit,
        models={n: unit.models[h.root] for n in h.nodes},
        provenance={n: unit.provenance[h.root] for n in h.nodes},
    )


def train_igru(
    panel: SeriesPanel,
    h: Hierarchy,
    spec: TrainSpec,
    *,
    jobs: int = 1,  # ignored; only perfbench/traced_run.py still passes it
) -> ModelBundle:
    """Independent per-node units with zero regularization."""
    return _train_nodes("igru", h, spec, _own_windows(panel, spec.rho))


def train_hrnn(
    panel: SeriesPanel,
    h: Hierarchy,
    spec: TrainSpec,
    *,
    prior_scale: float = 1.0,
    jobs: int = 1,  # ignored; only perfbench/traced_run.py still passes it
) -> ModelBundle:
    """Top-down pass with each node anchored to its trained parent.

    The root trains against a zero anchor with coefficient 1/2 (a unit
    Gaussian prior); every other node against its parent's final
    parameters with coefficient tau/2 where tau = exp(alpha + C) and C is
    the training-window parent correlation.  ``prior_scale=0`` removes all
    anchoring and reproduces independent training bit for bit.
    """
    sched = precision_schedule(panel, h, spec.alpha)
    zero_anchor = zero_params(spec.hidden)

    def anchors(n, trained):
        if n == h.root:
            tau = corr = None
            coeff, anchor = 0.5 * prior_scale, zero_anchor
        else:
            tau, corr = sched.tau[n], sched.correlation[n]
            coeff, anchor = 0.5 * tau * prior_scale, trained[h.parent[n]]
        regs = ((anchor, coeff),) if coeff != 0.0 else ()
        return regs, {"tau": tau, "correlation": corr, "anchor_coeff": coeff}

    return _train_nodes(
        "hrnn", h, spec, _own_windows(panel, spec.rho), anchors=anchors,
        groups=h.levels,
    )


def train_bihrnn(
    panel: SeriesPanel,
    h: Hierarchy,
    spec: TrainSpec,
    pretrained: ModelBundle,
) -> ModelBundle:
    """Refit every node against frozen pretrained parent and child anchors.

    Starting from its own pretrained parameters, node n minimizes

        MSE + lambda1 ||theta - theta_parent||^2
            + lambda2 * sum_i w_i ||theta - theta_child_i||^2

    where all anchor parameters come from ``pretrained`` and stay fixed, and
    w_i are the children's normalized basket weights.  The root has no
    parent term, leaves no child term.  With ``epochs=0`` the output equals
    the pretrained bundle bit for bit.
    """
    missing = [n for n in h.nodes if n not in pretrained.models]
    if missing:
        raise MissingPretrainedError(
            f"pretrained bundle lacks node(s): {', '.join(sorted(missing))}"
        )

    def anchors(n, trained):
        regs = []
        if n in h.parent and spec.lambda1 != 0.0:
            regs.append((pretrained.models[h.parent[n]], spec.lambda1))
        kids = h.children.get(n, ())
        if kids and spec.lambda2 != 0.0:
            shares = child_weights(h, n)
            for c in kids:
                coeff = spec.lambda2 * shares[c]
                if coeff != 0.0:
                    regs.append((pretrained.models[c], coeff))
        return tuple(regs), {"anchors": len(regs)}

    return _train_nodes(
        "bihrnn", h, spec, _own_windows(panel, spec.rho),
        init=lambda n, seed: pretrained.models[n], anchors=anchors,
    )


# ------------------------------------------------------- neighbor-augmented

def select_neighbors(
    panel: SeriesPanel, h: Hierarchy, k: int
) -> dict[NodeId, tuple[NodeId, ...]]:
    """Each node's k most correlated other nodes on the training window, in
    breadth-first node order.

    Each pair is scored once, on the calendar rows of one
    :meth:`~hiergru.dataset.SeriesPanel.train_grid` where both nodes have a
    training value (Pearson correlation is symmetric bit for bit).  Ties
    break toward the lexicographically smaller node id; a pair with fewer
    than 3 common values or a constant side is not a candidate.  When fewer
    than k candidates exist, all of them are used and a warning is emitted.
    """
    nodes = sorted(h.nodes)
    grid = panel.train_grid(nodes)
    finite = np.isfinite(grid)
    scored: dict[NodeId, list] = {n: [] for n in nodes}
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            both = finite[:, i] & finite[:, j]
            if np.count_nonzero(both) < 3:
                continue
            try:
                r = pearson(grid[both, i], grid[both, j])
            except DegenerateVarianceError:
                continue
            scored[a].append((-r, nodes[j]))
            scored[nodes[j]].append((-r, a))
    chosen = {}
    for n in h.bfs_order():
        chosen[n] = tuple(node for _, node in sorted(scored[n])[:k])
        if len(chosen[n]) < k:
            warnings.warn(
                f"node {n!r}: only {len(chosen[n])} usable neighbors of {k} "
                "requested",
                InsufficientNeighborsWarning,
            )
    return chosen


def _stacked_windows(panel, n, channels, rho):
    """Multichannel train windows for node n, shape (windows, rho,
    channels), and their targets; rows are time steps, channel 0 is the
    node itself.  Windows touching any missing training value are dropped;
    None when no window is left."""
    split = panel.split_index[n]
    span = panel.periods[n][np.arange(rho, split)[:, None] + np.arange(-rho, 0)]
    inputs = panel.train_grid(channels)[span]
    keep = np.isfinite(inputs).all(axis=(1, 2))
    if not keep.any():
        return None
    return inputs[keep], panel.rates[n][rho:split][keep]


def train_knn_gru(panel: SeriesPanel, h: Hierarchy, spec: TrainSpec) -> ModelBundle:
    """Per-node units whose step input stacks the node with its k most
    Pearson-correlated nodes (correlations measured on training windows)."""
    neighbor_map = select_neighbors(panel, h, spec.k_neighbors)

    def data(n):
        nbs = neighbor_map[n]
        stacked = _stacked_windows(panel, n, (n, *nbs), spec.rho)
        return None if stacked is None else (*stacked, {"neighbors": list(nbs)})

    def init(n, seed):
        return init_params(
            spec.hidden, np.random.default_rng(seed),
            input_dim=1 + len(neighbor_map[n]),
        )

    return _train_nodes(
        "knngru", h, spec, data, init=init, neighbors=neighbor_map
    )


# --------------------------------------------------------------- forecasting

def _channel_values(panel: SeriesPanel, node: NodeId, periods: np.ndarray) -> np.ndarray:
    """Rates of ``node`` at calendar ``periods``.  A period the node does not
    cover takes the node's last earlier observation (carried forward), or
    0.0 before its first observation."""
    after = np.searchsorted(panel.periods[node], periods, side="right")
    return np.where(after > 0, panel.rates[node][np.maximum(after - 1, 0)], 0.0)


def initial_windows(
    bundle, panel: SeriesPanel, node: NodeId, origins: np.ndarray
) -> np.ndarray:
    """The windows of the ``rho`` observations preceding each origin, shape
    (origins, rho); knngru windows stack the node with its neighbors,
    shape (origins, rho, channels)."""
    rho = bundle.rho
    early = origins[origins < rho]
    if early.size:
        raise InsufficientHistoryError(
            f"node {node!r}: origin {early[0]} needs {rho} earlier observations"
        )
    late = origins[origins > panel.length(node)]
    if late.size:
        raise InsufficientHistoryError(
            f"node {node!r}: origin {late[0]} beyond series length "
            f"{panel.length(node)}"
        )
    span = origins[:, None] + np.arange(-rho, 0)
    if bundle.neighbors is None:
        return panel.rates[node][span]
    periods = panel.periods[node][span]
    channels = (node, *bundle.neighbors[node])
    return np.stack([_channel_values(panel, c, periods) for c in channels], axis=-1)


def forecast_origins(
    bundle, panel: SeriesPanel, node: NodeId, origins, horizon: int
) -> np.ndarray:
    """Recursive multi-horizon forecasts from every origin at once; row i
    holds the ``horizon + 1`` values from ``origins[i]``.  Position 0 is the
    one-step-ahead prediction, position j feeds the previous j predictions
    back in; extra channels of multichannel windows keep their last observed
    values."""
    if horizon < 0:
        raise InvalidSpecError(f"horizon must be >= 0, got {horizon}")
    if node not in bundle.models:
        raise HiergruError(f"bundle {bundle.tag!r} has no model for {node!r}")
    model = bundle.models[node]
    origins = np.asarray(origins, dtype=np.int64).reshape(-1)
    windows = initial_windows(bundle, panel, node, origins)
    newest = (slice(None), -1, 0)[: windows.ndim]  # channel 0 of the last row
    preds = np.empty((origins.shape[0], horizon + 1))
    for j in range(horizon + 1):
        preds[:, j] = model.predict_batch(windows)
        if j < horizon:
            windows[:, :-1] = windows[:, 1:]
            windows[newest] = preds[:, j]
    return preds


def forecast(
    bundle, panel: SeriesPanel, node: NodeId, origin: int, horizon: int
) -> np.ndarray:
    """Recursive multi-horizon forecast; returns ``horizon + 1`` values."""
    return forecast_origins(bundle, panel, node, [origin], horizon)[0]
