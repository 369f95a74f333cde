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

Every trainer is a pure function of (panel, hierarchy, spec[, pretrained]):
node seeds derive from a stable hash, batches are full and ordered, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import SeriesPanel, make_windows, stack_windows
from .errors import (
    DegenerateVarianceError,
    HiergruError,
    InsufficientHistoryError,
    InsufficientNeighborsWarning,
    InsufficientOverlapError,
    InvalidSpecError,
    MissingPretrainedError,
    NodeSkippedWarning,
    NoTrainingDataError,
)
from .gru import GruParams, OptimState, init_params, optimize, zero_params
from .hierarchy import (
    Hierarchy,
    NodeId,
    child_weights,
    precision_schedule,
    train_correlation,
)


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
        for name in ("rho", "hidden", "epochs", "k_neighbors", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidSpecError(f"{name} must be an integer, got {v!r}")
        if self.rho < 1 or self.hidden < 1 or self.epochs < 0:
            raise InvalidSpecError(
                f"need rho >= 1, hidden >= 1, epochs >= 0; got "
                f"rho={self.rho}, hidden={self.hidden}, epochs={self.epochs}"
            )
        if self.lr <= 0:
            raise InvalidSpecError(f"learning rate must be positive, got {self.lr}")
        if self.k_neighbors < 1:
            raise InvalidSpecError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InvalidSpecError("lambda coefficients must be nonnegative")
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidSpecError(f"unknown optimizer {self.optimizer!r}")


def node_seed(seed: int, node: NodeId) -> int:
    """Stable per-node RNG seed, identical across runs and platforms."""
    digest = hashlib.sha256(f"{seed}|{node}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ModelBundle:
    """One fitted model family: a node model per covered node (anything
    with ``.predict(window)``), per-node provenance, and, for the recurrent
    family, the training spec and knngru's neighbor lists."""

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

    def predict_next(self, node: NodeId, window: np.ndarray) -> float:
        return self.models[node].predict(window)

    def forecast(
        self, panel: SeriesPanel, node: NodeId, origin: int, horizon: int
    ) -> np.ndarray:
        return forecast(self, panel, node, origin, horizon)

    def forecast_origins(
        self, panel: SeriesPanel, node: NodeId, origins, horizon: int
    ) -> np.ndarray:
        return forecast_origins(self, panel, node, origins, horizon)


# ----------------------------------------------------------------- training

def _pmap(fn, items, jobs):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _train_nodes(tag, h, spec, data, *, init=None, anchors=None, groups=None,
                 jobs=1, **fields) -> ModelBundle:
    """The node-training loop every recurrent trainer runs.

    ``groups`` are trained in order (default: all nodes in breadth-first
    order as one group); the nodes of a group train independently, across
    ``jobs`` threads.  Per node:

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

    def fit(item):
        rank, n = item
        seed = node_seed(spec.seed, n)
        params = init(n, seed)
        regs, notes = anchors(n, models) if anchors else ((), {})
        stacked = data(n)
        losses = []
        if stacked is None:
            warnings.warn(
                f"node {n!r} has no training windows; keeping initial parameters",
                NodeSkippedWarning,
            )
        else:
            inputs, targets, data_notes = stacked
            opt = OptimState(lr=spec.lr, method=spec.optimizer)
            params, losses = optimize(
                params, inputs, targets, opt,
                epochs=spec.epochs, regularizers=regs,
            )
            notes = {**data_notes, **notes}
        return n, params, {
            "train_order": rank,
            "seed": seed,
            "skipped": stacked is None,
            "initial_loss": losses[0] if losses else None,
            "final_loss": losses[-1] if losses else None,
            **notes,
        }

    rank = 0
    for group in groups or [h.bfs_order()]:
        items = list(enumerate(group, start=rank))
        rank += len(items)
        for n, params, prov in _pmap(fit, items, jobs):
            models[n] = params
            provenance[n] = prov
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
    panel: SeriesPanel, h: Hierarchy, spec: TrainSpec, *, jobs: int = 1
) -> ModelBundle:
    """Independent per-node units with zero regularization."""
    return _train_nodes("igru", h, spec, _own_windows(panel, spec.rho), jobs=jobs)


def train_hrnn(
    panel: SeriesPanel,
    h: Hierarchy,
    spec: TrainSpec,
    *,
    prior_scale: float = 1.0,
    jobs: int = 1,
) -> ModelBundle:
    """Top-down pass with each node anchored to its trained parent.

    The root trains against a zero anchor with coefficient 1/2 (a unit
    Gaussian prior); every other node against its parent's final
    parameters with coefficient tau/2 where tau = exp(alpha + C) and C is
    the training-window parent correlation.  ``prior_scale=0`` removes all
    anchoring and reproduces independent training bit for bit.
    """
    sched = precision_schedule(panel, h, spec.alpha, fallback=True)
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

    levels: dict[int, list[NodeId]] = {}
    for n in h.bfs_order():
        levels.setdefault(h.level[n], []).append(n)
    return _train_nodes(
        "hrnn", h, spec, _own_windows(panel, spec.rho), anchors=anchors,
        groups=[levels[lv] for lv in sorted(levels)], jobs=jobs,
    )


def train_bihrnn(
    panel: SeriesPanel,
    h: Hierarchy,
    spec: TrainSpec,
    pretrained: ModelBundle,
    *,
    jobs: int = 1,
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
        init=lambda n, seed: pretrained.models[n], anchors=anchors, jobs=jobs,
    )


# ------------------------------------------------------- neighbor-augmented

def select_neighbors(
    panel: SeriesPanel, h: Hierarchy, n: NodeId, k: int
) -> tuple[NodeId, ...]:
    """The k nodes most correlated with n on the training window.

    Ties break toward the lexicographically smaller node id; nodes without
    a computable correlation are not candidates.  When fewer than k
    candidates exist, all of them are used and a warning is emitted.
    """
    scored = []
    for other in sorted(h.nodes):
        if other == n:
            continue
        try:
            scored.append((-train_correlation(panel, n, other), other))
        except (InsufficientOverlapError, DegenerateVarianceError):
            continue
    scored.sort()
    chosen = tuple(node for _, node in scored[:k])
    if len(chosen) < k:
        warnings.warn(
            f"node {n!r}: only {len(chosen)} usable neighbors of {k} requested",
            InsufficientNeighborsWarning,
        )
    return chosen


def _train_value_grid(panel: SeriesPanel) -> dict[NodeId, np.ndarray]:
    """Per node: calendar-length array of train-segment rates, NaN elsewhere."""
    grid = {}
    size = len(panel.calendar)
    for n in panel.rates:
        g = np.full(size, np.nan)
        split = panel.split_index[n]
        g[panel.periods[n][:split]] = panel.rates[n][:split]
        grid[n] = g
    return grid


def _stacked_windows(panel, n, channels, grid, rho):
    """Multichannel train windows for node n; rows are time steps, column 0
    is the node itself.  Windows touching any missing value are dropped."""
    split = panel.split_index[n]
    periods = panel.periods[n]
    rates = panel.rates[n]
    inputs, targets = [], []
    for t in range(rho, split):
        span = periods[t - rho: t]
        mat = np.column_stack([grid[c][span] for c in channels])
        if np.all(np.isfinite(mat)):
            inputs.append(mat)
            targets.append(rates[t])
    if not inputs:
        return None
    return np.stack(inputs), np.array(targets, dtype=np.float64)


def train_knn_gru(
    panel: SeriesPanel, h: Hierarchy, spec: TrainSpec, *, jobs: int = 1
) -> ModelBundle:
    """Per-node units whose step input stacks the node with its k most
    Pearson-correlated nodes (correlations measured on training windows)."""
    grid = _train_value_grid(panel)
    neighbor_map = {
        n: select_neighbors(panel, h, n, spec.k_neighbors) for n in h.bfs_order()
    }

    def data(n):
        nbs = neighbor_map[n]
        stacked = _stacked_windows(panel, n, (n, *nbs), grid, spec.rho)
        return None if stacked is None else (*stacked, {"neighbors": list(nbs)})

    def init(n, seed):
        return init_params(
            spec.hidden, np.random.default_rng(seed),
            input_dim=1 + len(neighbor_map[n]),
        )

    return _train_nodes(
        "knngru", h, spec, data, init=init, jobs=jobs, neighbors=neighbor_map
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
    values.  A node model without ``predict_batch`` predicts row by row."""
    if horizon < 0:
        raise InvalidSpecError(f"horizon must be >= 0, got {horizon}")
    if node not in bundle.models:
        raise HiergruError(f"bundle {bundle.tag!r} has no model for {node!r}")
    model = bundle.models[node]
    origins = np.asarray(origins, dtype=np.int64).reshape(-1)
    windows = initial_windows(bundle, panel, node, origins)
    predict = getattr(model, "predict_batch", None) or (
        lambda ws: np.array([model.predict(w) for w in ws], dtype=np.float64)
    )
    newest = (slice(None), -1, 0)[: windows.ndim]  # channel 0 of the last row
    preds = np.empty((origins.shape[0], horizon + 1))
    for j in range(horizon + 1):
        preds[:, j] = predict(windows)
        if j < horizon:
            windows[:, :-1] = windows[:, 1:]
            windows[newest] = preds[:, j]
    return preds


def forecast(
    bundle, panel: SeriesPanel, node: NodeId, origin: int, horizon: int
) -> np.ndarray:
    """Recursive multi-horizon forecast; returns ``horizon + 1`` values."""
    return forecast_origins(bundle, panel, node, [origin], horizon)[0]
