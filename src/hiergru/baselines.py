"""Classical comparators behind the same train/forecast interface as the
recurrent family: autoregression, trailing-mean random walk, random forest,
stagewise boosted trees, and fully connected networks."""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SeriesPanel, Window, make_windows, stack_windows
from .errors import (
    NodeSkippedWarning,
    NoTrainingDataError,
    ShapeMismatchError,
    WrongLengthError,
)
from .gru import OptimState, run_optimizer
from .hierarchy import Hierarchy
from .models import (
    _AT_LEAST_0,
    _AT_LEAST_1,
    _FRACTION,
    _POSITIVE,
    ModelBundle,
    _check_fields,
    node_seed,
)


def _predict_one(model, window) -> float:
    """``model.predict(window)`` for every node model here: the one-row case
    of its ``predict_batch``.  Each class binds it in its own body."""
    w = np.asarray(window, dtype=np.float64)
    if w.shape != (model.rho,):
        raise WrongLengthError(f"expected {model.rho} values, got shape {w.shape}")
    return float(model.predict_batch(w[None])[0])


# ------------------------------------------------------------------ AR / RW

@dataclass(frozen=True)
class ArModel:
    """x_hat = a0 + sum_i a_i * x_{t-i}; coeffs[i] multiplies the i-th lag."""

    coeffs: np.ndarray

    @property
    def rho(self) -> int:
        return self.coeffs.shape[0] - 1

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        x = _as_rows(windows, self.rho)
        return self.coeffs[0] + x[:, ::-1] @ self.coeffs[1:]

    predict = _predict_one


def fit_ar(windows: list[Window], rho: int) -> ArModel:
    """Least squares with intercept; slopes are the minimum-norm solution
    when the design is rank deficient, so a constant series yields a pure
    intercept that predicts the constant for any input."""
    if not windows:
        raise NoTrainingDataError("no training windows for AR fit")
    x, y = stack_windows(windows)
    lagged = x[:, ::-1]  # column i-1 holds lag i
    xm = lagged.mean(axis=0)
    ym = y.mean()
    slopes = _minimum_norm_solve(lagged - xm, y - ym, scale=np.abs(lagged).max())
    intercept = ym - xm @ slopes
    return ArModel(coeffs=np.concatenate([[intercept], slopes]))


def _minimum_norm_solve(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """Minimum-norm least squares via SVD.

    Singular values are cut off relative to ``scale`` (the magnitude of the
    data the columns were derived from), so columns that are zero up to
    centering round-off are treated as exactly zero instead of being
    inverted into junk coefficients.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(np.float64).eps * max(a.shape) * max(scale, 1.0)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return vt.T @ (inv * (u.T @ b))


@dataclass(frozen=True)
class RwModel:
    """Trailing mean of the last rho observations."""

    rho: int

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        return _as_rows(windows, self.rho).mean(axis=1)

    predict = _predict_one


def predict_rw(values, rho: int) -> float:
    return RwModel(rho).predict(values)


def _as_rows(windows, rho: int) -> np.ndarray:
    """A batch of scalar windows as a float64 (batch, rho) array."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != rho:
        raise WrongLengthError(f"expected windows of {rho} values, got shape {x.shape}")
    return x


# -------------------------------------------------------------------- trees

@dataclass(frozen=True)
class Tree:
    """Binary regression tree in flat-array form; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> float:
        i = 0
        while self.feature[i] >= 0:
            i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
        return float(self.value[i])

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        rows = np.arange(x.shape[0])
        return self.value[_descend(self, x, rows, np.zeros_like(rows))]


def _descend(tree: Tree, x: np.ndarray, rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Leaf reached by each (row of ``x``, start node) pair: all pairs that
    still sit on a split move down one level per pass, with the same
    ``<=`` test as :meth:`Tree.predict`."""
    at = start.copy()
    active = np.flatnonzero(tree.feature[at] >= 0)
    while active.size:
        node = at[active]
        go_left = x[rows[active], tree.feature[node]] <= tree.threshold[node]
        at[active] = np.where(go_left, tree.left[node], tree.right[node])
        active = active[tree.feature[at[active]] >= 0]
    return at


def _merge(trees) -> tuple[Tree, np.ndarray]:
    """All trees as one flat tree, and the index of each tree's root.  Child
    links are shifted by the tree's offset; a leaf's links are never read."""
    sizes = np.array([t.feature.shape[0] for t in trees])
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)

    def cat(name):
        return np.concatenate([getattr(t, name) for t in trees])

    merged = Tree(
        feature=cat("feature"), threshold=cat("threshold"),
        left=cat("left") + shift, right=cat("right") + shift, value=cat("value"),
    )
    return merged, roots


@dataclass(frozen=True)
class TreeEnsemble:
    """Forest (mode "average") or boosted stages (mode "additive")."""

    trees: tuple[Tree, ...]
    mode: str
    shrinkage: float
    base_value: float
    rho: int

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        """A (batch, trees) array of tree outputs, averaged along its
        contiguous axis or summed tree by tree in tree order."""
        x = _as_rows(windows, self.rho)
        batch = x.shape[0]
        if self.trees:
            merged, roots = _merge(self.trees)
            rows = np.repeat(np.arange(batch), roots.shape[0])
            leaves = _descend(merged, x, rows, np.tile(roots, batch))
            out = merged.value[leaves].reshape(batch, roots.shape[0])
        else:
            out = np.empty((batch, 0))
        if self.mode == "average":
            return out.mean(axis=1)
        total = np.zeros(batch)
        for column in out.T:
            total = total + column
        return self.base_value + self.shrinkage * total

    predict = _predict_one


def _best_split(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Variance-reduction split over all of a node's candidate features at
    once.  Column ``j`` of the ``(m, k)`` arrays ``xs`` and ``ys`` holds the
    node's values of the j-th candidate feature and its targets, both in
    ascending order of that feature.  Returns ``(j, threshold)`` minimizing
    the summed child SSE, first-best over columns in order and then over
    positions within a column, or None when no column has a valid split.
    Score row ``i`` splits between sorted positions ``i`` and ``i + 1``; the
    threshold lies in ``[xs[i, j], xs[i + 1, j])``, so ``x <= threshold``
    sends exactly positions ``0..i`` left."""
    m = ys.shape[0]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    sizes = np.arange(1, m)[:, None]
    valid = (sizes >= min_leaf) & (m - sizes >= min_leaf) & (xs[1:] > xs[:-1])
    sse_l = csq[:-1] - csum[:-1] ** 2 / sizes
    sse_r = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / (m - sizes)
    score = np.where(valid, sse_l + sse_r, np.inf).T
    j, i = np.unravel_index(np.argmin(score), score.shape)
    if not np.isfinite(score[j, i]):
        return None
    lo, hi = xs[i, j], xs[i + 1, j]
    mid = 0.5 * (lo + hi)
    return int(j), mid if mid < hi else lo


def _grow_tree(x, y, *, max_depth, min_leaf, feature_count, rng) -> Tree:
    """Depth-first CART growth from one presort per tree.

    ``order[f]`` lists a node's rows in ascending order of feature ``f``
    (stable, so ties keep ascending row ids); a split partitions every
    feature's list with one boolean gather, and no node sorts again.  A
    node's ``rows`` stay ascending because every partition keeps order, so
    its slice of the presort equals a stable sort of the node's own rows,
    ties included, and the tree is the one a per-node sort would grow.
    """
    nodes: list[list] = []  # [feature, threshold, left, right, value]
    rho = x.shape[1]

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        idx = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(y[rows].mean())])
        if depth >= max_depth or rows.shape[0] < 2 * min_leaf:
            return idx
        if np.all(y[rows] == y[rows][0]):
            return idx
        if feature_count >= rho:
            features = np.arange(rho)
        else:
            features = np.sort(rng.choice(rho, size=feature_count, replace=False))
        sorted_rows = order[features].T
        split = _best_split(x[sorted_rows, features], y[sorted_rows], min_leaf)
        if split is None:
            return idx
        j, thr = split
        f = features[j]
        go_left = x[:, f] <= thr
        mask = go_left[rows]
        keep = go_left[order]
        n_left = int(mask.sum())
        left = order[keep].reshape(rho, n_left)
        right = order[~keep].reshape(rho, rows.shape[0] - n_left)
        nodes[idx][0] = int(f)
        nodes[idx][1] = float(thr)
        nodes[idx][2] = grow(rows[mask], left, depth + 1)
        nodes[idx][3] = grow(rows[~mask], right, depth + 1)
        return idx

    grow(np.arange(x.shape[0]), np.argsort(x, axis=0, kind="stable").T, 0)
    cols = list(zip(*nodes))
    return Tree(
        feature=np.array(cols[0], dtype=np.int64),
        threshold=np.array(cols[1], dtype=np.float64),
        left=np.array(cols[2], dtype=np.int64),
        right=np.array(cols[3], dtype=np.int64),
        value=np.array(cols[4], dtype=np.float64),
    )


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 6
    min_leaf: int = 2
    feature_frac: float = 1.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(
            self, n_trees=_AT_LEAST_1, max_depth=_AT_LEAST_0,
            min_leaf=_AT_LEAST_1, feature_frac=_FRACTION,
        )


def fit_forest(windows: list[Window], rho: int, cfg: ForestConfig) -> TreeEnsemble:
    """Bootstrap-resampled trees with per-split feature subsampling; the
    ensemble prediction is the plain mean of tree outputs."""
    if not windows:
        raise NoTrainingDataError("no training windows for forest fit")
    x, y = stack_windows(windows)
    rng = np.random.default_rng(cfg.seed)
    k = max(1, math.ceil(cfg.feature_frac * rho))
    trees = []
    for _ in range(cfg.n_trees):
        boot = rng.integers(0, x.shape[0], size=x.shape[0])
        trees.append(
            _grow_tree(
                x[boot], y[boot],
                max_depth=cfg.max_depth, min_leaf=cfg.min_leaf,
                feature_count=k, rng=rng,
            )
        )
    return TreeEnsemble(
        trees=tuple(trees), mode="average", shrinkage=1.0, base_value=0.0, rho=rho
    )


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = 100
    max_depth: int = 3
    shrinkage: float = 0.1
    seed: int = 0
    subsample: float = 1.0

    def __post_init__(self):
        _check_fields(
            self, n_trees=_AT_LEAST_0, max_depth=_AT_LEAST_0,
            shrinkage=_POSITIVE, subsample=_FRACTION,
        )


def fit_gbt(windows: list[Window], rho: int, cfg: GbtConfig) -> TreeEnsemble:
    """Stagewise least-squares boosting: the first stage is the global mean,
    then each tree fits the residual of everything before it."""
    if not windows:
        raise NoTrainingDataError("no training windows for boosting fit")
    x, y = stack_windows(windows)
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    base = float(y.mean())
    current = np.full(n, base)
    trees = []
    for _ in range(cfg.n_trees):
        residual = y - current
        if cfg.subsample < 1.0:
            m = max(1, int(cfg.subsample * n))
            rows = np.sort(rng.permutation(n)[:m])
        else:
            rows = np.arange(n)
        tree = _grow_tree(
            x[rows], residual[rows],
            max_depth=cfg.max_depth, min_leaf=1, feature_count=rho, rng=rng,
        )
        trees.append(tree)
        current = current + cfg.shrinkage * tree.predict_batch(x)
    return TreeEnsemble(
        trees=tuple(trees), mode="additive", shrinkage=cfg.shrinkage,
        base_value=base, rho=rho,
    )


# ---------------------------------------------------------------------- MLP

def _mlp_views(vec: np.ndarray, sizes: tuple[int, ...]):
    """Per layer, the weight matrix and bias vector as views into ``vec``,
    stored layer by layer, weights (row-major) before biases."""
    if vec.shape != (_mlp_count(sizes),):
        raise ShapeMismatchError(
            f"flat vector of shape {vec.shape} does not match sizes {sizes}"
        )
    weights, biases = [], []
    at = 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[at: at + a * b].reshape(a, b))
        at += a * b
        biases.append(vec[at: at + b])
        at += b
    return tuple(weights), tuple(biases)


def _mlp_count(sizes: tuple[int, ...]) -> int:
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class MlpModel:
    """Rectifier network with identity output; layer l maps sizes[l] to
    sizes[l+1].  Its parameters are one flat float64 vector ``vec``;
    ``weights`` and ``biases`` are read-only views into it, and writing to
    ``vec`` or to any view raises."""

    vec: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self):
        vec = np.ascontiguousarray(self.vec, dtype=np.float64).view()
        vec.flags.writeable = False
        weights, biases = _mlp_views(vec, self.sizes)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def rho(self) -> int:
        return self.sizes[0]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if l < last:
                a = np.maximum(a, 0.0)
        return a[:, 0]

    predict = _predict_one


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple[int, ...] = (100,)
    lr: float = 0.005
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_fields(
            self, hidden=(lambda v: min(v, default=0) >= 1, "widths >= 1"),
            epochs=_AT_LEAST_0, lr=_POSITIVE,
        )


# Ten rectifier layers of width 100, lr 0.005, 50 epochs.
DEEPNN_CONFIG = MlpConfig(hidden=(100,) * 10, lr=0.005, epochs=50)


def mlp_flatten(model: MlpModel) -> np.ndarray:
    """A writable copy of the parameter vector."""
    return model.vec.copy()


def mlp_unflatten(vec: np.ndarray, sizes: tuple[int, ...]) -> MlpModel:
    """Inverse of :func:`mlp_flatten`; the model holds its own copy."""
    return MlpModel(np.array(vec, dtype=np.float64), tuple(sizes))


def mlp_loss_and_grad(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error and its exact gradient via backpropagation."""
    n = x.shape[0]
    last = len(model.weights) - 1
    activations = [np.asarray(x, dtype=np.float64)]
    pre = []
    a = activations[0]
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if l < last else z
        activations.append(a)
    err = activations[-1][:, 0] - np.asarray(y, dtype=np.float64)
    loss = float(err @ err) / n

    dz = (2.0 / n) * err[:, None]
    grad = np.zeros(model.vec.shape[0])
    g_weights, g_biases = _mlp_views(grad, model.sizes)
    for l in range(last, -1, -1):
        g_weights[l][:] = activations[l].T @ dz
        g_biases[l][:] = dz.sum(axis=0)
        if l > 0:
            da = dz @ model.weights[l].T
            dz = da * (pre[l - 1] > 0.0)
    return loss, grad


def init_mlp(rho: int, hidden: tuple[int, ...], rng: np.random.Generator) -> MlpModel:
    """He-normal hidden layers; the output layer starts at zero so initial
    predictions are exactly zero."""
    sizes = (rho, *hidden, 1)
    vec = np.zeros(_mlp_count(sizes))
    weights, _ = _mlp_views(vec, sizes)
    for a, w in zip(sizes, weights[:-1]):
        w[:] = rng.normal(0.0, math.sqrt(2.0 / a), size=w.shape)
    return MlpModel(vec, sizes)


def fit_mlp(windows: list[Window], rho: int, cfg: MlpConfig) -> MlpModel:
    """Full-batch first-order training on squared loss, seed-deterministic."""
    if not windows:
        raise NoTrainingDataError("no training windows for MLP fit")
    x, y = stack_windows(windows)
    model = init_mlp(rho, cfg.hidden, np.random.default_rng(cfg.seed))
    sizes = model.sizes

    # the one-row case of run_optimizer's (rows, size) parameter matrix
    def loss_and_grad(X):
        loss, grad = mlp_loss_and_grad(MlpModel(X[0], sizes), x, y)
        return np.array([loss]), grad[None]

    def loss(X):
        err = MlpModel(X[0], sizes).predict_batch(x) - y
        return np.array([float(err @ err) / len(y)])

    final, _, failures = run_optimizer(
        loss_and_grad, loss, model.vec[None], OptimState(lr=cfg.lr), cfg.epochs
    )
    if failures:
        raise failures[0]
    return MlpModel(final[0], sizes)


# ------------------------------------------------------------------ bundles

def _pmap(fn, items, jobs):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# The former name of the baseline bundle class, kept because
# perfbench/traced_run.py looks it up; drop it with that script's next change.
BaselineBundle = ModelBundle


def fit_baseline(
    panel: SeriesPanel,
    h: Hierarchy,
    tag: str,
    rho: int,
    cfg=None,
    *,
    label: str | None = None,
    jobs: int = 1,
) -> ModelBundle:
    """Fit one baseline family on every node's training windows.

    Seeded configs are re-derived per node (stable hash of config seed and
    node id) so any single node's fit can be replayed in isolation.
    """
    from .registry import TAGS  # the registry imports this module

    entry = TAGS.get(tag)
    if entry is None or entry.fit_node is None:
        raise ValueError(f"unknown baseline tag {tag!r}")
    cfg = cfg or entry.build({})[1]

    def fit(n):
        if entry.fixed_rule:
            return n, entry.fit_node(None, rho, cfg), {"windows": None}
        windows = make_windows(panel, n, rho, "train")
        if not windows:
            warnings.warn(
                f"node {n!r} has no training windows; {tag} model unavailable",
                NodeSkippedWarning,
            )
            return n, None, {"windows": 0, "skipped": True}
        if cfg is None:
            return n, entry.fit_node(windows, rho, None), {"windows": len(windows)}
        seeded = replace(cfg, seed=node_seed(cfg.seed, n))
        model = entry.fit_node(windows, rho, seeded)
        return n, model, {"windows": len(windows), "seed": seeded.seed}

    results = _pmap(fit, list(h.bfs_order()), jobs)
    return ModelBundle(
        tag=tag,
        rho=rho,
        models={n: m for n, m, _ in results if m is not None},
        provenance={n: prov for n, _, prov in results},
        label=label,
    )
