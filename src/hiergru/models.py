"""Recurrent model family, plus the bundle and recursive forecast that
every model family shares.

The recurrent trainers fit one GRU per node (sgru: one shared unit) and
differ only in what anchors each node.  They all run one loop,
:func:`_train_nodes`, which visits groups of nodes (all nodes at once, or
one tree level at a time for hrnn so that parents finish before their
children start) and asks three things of each node:

* its training data (:meth:`~hiergru.dataset.SeriesPanel.train_windows`):
  the node's own, or (knngru) stacked with its k most correlated nodes;
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

Every family forecasts through the bundle's own methods,
:meth:`ModelBundle.forecast_origins` and :meth:`ModelBundle.forecast`
(the module-level ``forecast_origins`` and ``forecast`` are those methods),
from the windows that :meth:`~hiergru.dataset.SeriesPanel.forecast_windows`
cuts.

The nodes of a group train independently, so a group is split into
buckets of nodes with equally many windows and the same input width, and
each bucket trains in runs of whole nodes, one stacked optimisation
(:func:`~hiergru.gru.optimize_stack`) each.  Nothing is padded, and every node
ends with the bits it would get trained alone.  Training runs in the
calling thread.

Every trainer is a pure function of (panel, hierarchy, spec[, pretrained]):
node seeds derive from a stable hash, batches are full and ordered, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import SeriesPanel, _seeded_rng
from .errors import (
    HiergruError,
    InsufficientNeighborsWarning,
    InvalidSpecError,
    MissingPretrainedError,
    NodeSkippedWarning,
    NoTrainingDataError,
    _check_ruled,
    _ruled,
)
from .errors import _ALPHA, _COUNT, _INTEGER, _NONNEG, _NONNEG_INT, _OPTIMIZER
from .errors import _POSITIVE, _RHO
from .gru import (
    GruParams,
    OptimState,
    init_params,
    optimize_stack,
    stack_predictor,
    zero_params,
)
from .hierarchy import (
    Hierarchy,
    NodeId,
    child_weights,
    precision_schedule,
    train_correlations,
)


@dataclass(frozen=True)
class TrainSpec:
    """All training knobs shared by the recurrent family."""

    rho: int = _ruled(_RHO, 4)
    hidden: int = _ruled(_COUNT, 8)
    lr: float = _ruled(_POSITIVE, 0.005)
    epochs: int = _ruled(_NONNEG_INT, 200)
    alpha: float = _ruled(_ALPHA, 1.5)
    lambda1: float = _ruled(_NONNEG, 1.0)
    lambda2: float = _ruled(_NONNEG, 1.0)
    k_neighbors: int = _ruled(_COUNT, 5)
    seed: int = _ruled(_INTEGER, 0)
    optimizer: str = _ruled(_OPTIMIZER, "adam")

    __post_init__ = _check_ruled


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
    def model_map(self) -> dict:
        return self.models

    params = model_map  # tests/test_acceptance.py reads this name

    def covered_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.models))

    def forecast_nodes(
        self, panel: SeriesPanel, origins: dict, horizon: int
    ) -> dict[NodeId, np.ndarray]:
        """Recursive multi-horizon forecasts of several nodes, each from
        every one of its ``origins[node]`` at once: {node: array whose row i
        holds the ``horizon + 1`` values from ``origins[node][i]``}.
        Position 0 is the one-step-ahead prediction, position j feeds the
        previous j predictions back in; extra channels of multichannel
        windows keep their last observed values.

        GRU units of one shape whose nodes have equally many origins roll
        forward as one stack (:func:`~hiergru.gru.stack_predictor`); every
        other node model rolls alone.  Each node gets the bits it gets
        forecast alone."""
        if horizon < 0:
            raise InvalidSpecError(f"horizon must be >= 0, got {horizon}")
        groups: dict[tuple, list] = {}
        for node, at in origins.items():
            if node not in self.models:
                raise HiergruError(f"bundle {self.tag!r} has no model for {node!r}")
            at = np.asarray(at, dtype=np.int64).reshape(-1)
            p = self.models[node]
            key = ((at.size, p.hidden, p.input_dim) if isinstance(p, GruParams)
                   else (node,))
            groups.setdefault(key, []).append((node, at))
        preds = {}
        for members in groups.values():
            nodes = [node for node, _ in members]
            if not members[0][1].size:
                # no window to build: a rho longer than the series must cost nothing
                preds.update((node, np.empty((0, horizon + 1))) for node in nodes)
                continue
            windows = np.stack([
                panel.forecast_windows(node, at, self.rho, self._channels(node))
                for node, at in members
            ])
            rolled = _roll(_predictor([self.models[n] for n in nodes]), windows, horizon)
            preds.update(zip(nodes, rolled))
        return preds

    def _channels(self, node: NodeId):
        return None if self.neighbors is None else (node, *self.neighbors[node])

    def forecast_origins(
        self, panel: SeriesPanel, node: NodeId, origins, horizon: int
    ) -> np.ndarray:
        """Recursive multi-horizon forecasts of one node from every origin
        at once: the one-node case of :meth:`forecast_nodes`."""
        return self.forecast_nodes(panel, {node: origins}, horizon)[node]

    def forecast(
        self, panel: SeriesPanel, node: NodeId, origin: int, horizon: int
    ) -> np.ndarray:
        """Recursive multi-horizon forecast; returns ``horizon + 1`` values."""
        return self.forecast_origins(panel, node, [origin], horizon)[0]


forecast_origins = ModelBundle.forecast_origins
forecast = ModelBundle.forecast


def _predictor(models: list):
    """``predict_batch`` over windows (N, batch, ...), model i's at [i]: one
    stacked recursion for GRU units, or the one model's own."""
    if isinstance(models[0], GruParams):
        return stack_predictor(models)
    (model,) = models
    return lambda windows: model.predict_batch(windows[0])[None]


def _roll(predict, windows: np.ndarray, horizon: int) -> np.ndarray:
    """The recursion: ``horizon + 1`` predictions from windows (N, batch,
    rho[, channels]), each fed back into channel 0 of the newest row of the
    windows, which it rolls in place.  Returns (N, batch, horizon + 1)."""
    newest = (slice(None), slice(None), -1, 0)[: windows.ndim]
    preds = np.empty(windows.shape[:2] + (horizon + 1,))
    for j in range(horizon + 1):
        preds[..., j] = predict(windows)
        if j < horizon:
            windows[:, :, :-1] = windows[:, :, 1:]
            windows[newest] = preds[..., j]
    return preds


# ----------------------------------------------------------------- training

# One node of a group, ready to train; ``notes`` go into its provenance.
_Pending = namedtuple("_Pending", "node seed params regularizers notes")

# Windows per optimiser run over a stack of units.  It bounds a run's
# workspace, 19 arrays of (windows, hidden) float64 at rho 4: 1.6 MB for 15
# units of 86 windows and 8 hidden units.  Measured on deep-gru (15 nodes
# of 86 windows; 2 vCPUs, numpy 2.4.6, one BLAS thread, 24 alternating
# rounds), against 512 windows: 1024 took 0.90x the CPU time for 0.2 MB
# more peak RSS, and 2048 or 4096, where every stack trains in one pass,
# 0.82-0.85x for 0.5 MB (1.3%) more.  Training igru alone on a 400-node
# panel, an earlier revision was faster at 4096 than at 512 or 32768 in 3
# of 3 alternating triples.
_RUN_WINDOWS = 4096


def _train_group(
    pending: list[_Pending], windows: dict, spec: TrainSpec
) -> dict[int, tuple]:
    """Train the pending nodes that have data, bucketed by window count and
    input width so that nothing is padded; a bucket trains in runs of as
    many whole nodes as fit in ``_RUN_WINDOWS`` windows (at least one), one
    :func:`~hiergru.gru.optimize_stack` call each.  ``windows`` maps the
    index in ``pending`` of each node with data to its ``(inputs, targets,
    notes)``; each run's entries are popped as they are stacked, so that a
    node's windows are held once, by its run's stack.  Returns {index in
    ``pending``: (params, losses)}, ``losses`` being the initial and final
    loss.  Raises the divergence of the first node, in order, that
    diverged: the error a node-by-node loop would raise, naming the node."""
    buckets: dict[tuple, list[int]] = {}
    for i in sorted(windows):
        key = (len(windows[i][1]), pending[i].params.input_dim)
        buckets.setdefault(key, []).append(i)
    trained, failures = {}, {}
    opt = OptimState(lr=spec.lr, method=spec.optimizer)
    for (n, _), bucket in buckets.items():
        size = max(1, _RUN_WINDOWS // n)
        for members in (bucket[lo:lo + size] for lo in range(0, len(bucket), size)):
            inputs = np.stack([windows[i][0] for i in members])
            targets = np.stack([windows.pop(i)[1] for i in members])
            params, losses, failed = optimize_stack(
                [pending[i].params for i in members], inputs, targets, opt,
                epochs=spec.epochs,
                regularizers=[pending[i].regularizers for i in members],
            )
            ends = losses[:1] + losses[-1:]
            for row, i in enumerate(members):
                trained[i] = params[row], [float(loss[row]) for loss in ends]
            failures.update((members[row], err) for row, err in failed.items())
    if failures:
        first = min(failures)
        raise failures[first].at(f"node {pending[first].node!r}:")
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
            return init_params(spec.hidden, _seeded_rng(seed))
    models: dict[NodeId, GruParams] = {}
    provenance: dict[NodeId, dict] = {}
    rank = 0
    for group in groups or [h.bfs_order()]:
        pending, windows = [], {}
        for i, n in enumerate(group):
            seed = node_seed(spec.seed, n)
            params = init(n, seed)
            regs, notes = anchors(n, models) if anchors else ((), {})
            windows[i] = data(n)
            if windows[i] is None:
                del windows[i]
                warnings.warn(
                    f"node {n!r} has no training windows; keeping initial parameters",
                    NodeSkippedWarning,
                )
            else:
                notes = {**windows[i][2], **notes}
            pending.append(_Pending(n, seed, params, regs, notes))
        trained = _train_group(pending, windows, spec)
        for i, node in enumerate(pending):
            models[node.node], losses = trained.get(i, (node.params, []))
            provenance[node.node] = {
                "train_order": rank + i,
                "seed": node.seed,
                "skipped": i not in trained,
                "initial_loss": losses[0] if losses else None,
                "final_loss": losses[-1] if losses else None,
                **node.notes,
            }
        rank += len(pending)
    return ModelBundle(
        tag=tag, rho=spec.rho, models=models, provenance=provenance,
        spec=spec, **fields,
    )


def _own_windows(panel: SeriesPanel, rho: int):
    """Training data: the node's own train windows."""
    def data(n):
        stacked = panel.train_windows(n, rho)
        return None if stacked is None else (*stacked, {})
    return data


def train_sgru(panel: SeriesPanel, h: Hierarchy, spec: TrainSpec) -> ModelBundle:
    """One shared unit fit on the pooled train windows of every node."""
    stacks = [s for n in sorted(h.nodes) if (s := panel.train_windows(n, spec.rho))]
    if not stacks:
        raise NoTrainingDataError("no node provides a training window")
    inputs, targets = (np.concatenate(part) for part in zip(*stacks))
    pooled = (inputs, targets, {"pooled_windows": len(targets)})
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

    Each pair is scored once, by
    :func:`~hiergru.hierarchy.train_correlations` (Pearson correlation is
    symmetric bit for bit).  Ties break toward the lexicographically
    smaller node id; a pair with fewer than 3 common values or a constant
    side is not a candidate.  When fewer than k candidates exist, all of
    them are used and a warning is emitted.
    """
    nodes = sorted(h.nodes)
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    scored: dict[NodeId, list] = {n: [] for n in nodes}
    for (a, b), r in train_correlations(panel, pairs).items():
        scored[a].append((-r, b))
        scored[b].append((-r, a))
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


def train_knn_gru(panel: SeriesPanel, h: Hierarchy, spec: TrainSpec) -> ModelBundle:
    """Per-node units whose step input stacks the node with its k most
    Pearson-correlated nodes (correlations measured on training windows)."""
    neighbor_map = select_neighbors(panel, h, spec.k_neighbors)

    def data(n):
        nbs = neighbor_map[n]
        stacked = panel.train_windows(n, spec.rho, (n, *nbs))
        return None if stacked is None else (*stacked, {"neighbors": list(nbs)})

    def init(n, seed):
        return init_params(
            spec.hidden, _seeded_rng(seed),
            input_dim=1 + len(neighbor_map[n]),
        )

    return _train_nodes(
        "knngru", h, spec, data, init=init, neighbors=neighbor_map
    )
