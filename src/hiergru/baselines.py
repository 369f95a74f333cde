"""Classical comparators behind the same train/forecast interface as the
recurrent family: autoregression, trailing-mean random walk, random forest,
stagewise boosted trees, and fully connected networks."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .dataset import SeriesPanel, Window, _seeded_rng, make_windows, stack_windows
from .errors import (
    HiergruError,
    NodeSkippedWarning,
    WrongLengthError,
    _check_ruled,
    _is_int,
    _ruled,
)
from .errors import _COUNT, _FRACTION, _INTEGER, _NONNEG_INT, _POSITIVE
from .gru import OptimState, _frozen, _indexable, _views, flatten, predict_sequence
from .gru import run_optimizer
from .hierarchy import Hierarchy
from .models import ModelBundle, node_seed


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

    predict = predict_sequence


def fit_ar(windows: list[Window], rho: int) -> ArModel:
    """Least squares with intercept; slopes are the minimum-norm solution
    when the design is rank deficient, so a constant series yields a pure
    intercept that predicts the constant for any input."""
    x, y = stack_windows(windows)
    lagged = _as_rows(x, rho)[:, ::-1]  # column i-1 holds lag i
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
    inverted into junk coefficients, at every scale of the data.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(np.float64).eps * max(a.shape) * scale
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return vt.T @ (inv * (u.T @ b))


@dataclass(frozen=True)
class RwModel:
    """Trailing mean of the last rho observations."""

    rho: int

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        return _as_rows(windows, self.rho).mean(axis=1)

    predict = predict_sequence


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
            merged, roots = self._merged
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

    predict = predict_sequence

    @cached_property
    def _merged(self) -> tuple[Tree, np.ndarray]:
        """:func:`_merge` of the trees, built on the first prediction."""
        return _merge(self.trees)


def _split_scores(xs: np.ndarray, ys: np.ndarray, m: np.ndarray, min_leaf: int):
    """Variance-reduction split scores of many nodes at once, each over all
    of its candidate features.  Column ``j`` of node c's slices of the
    ``(nodes, width, k)`` arrays ``xs`` and ``ys`` holds the node's values
    of its j-th candidate feature and its targets, both in ascending order
    of that feature, at positions ``0..m[c] - 1``; later positions are
    padding, with zero targets, and never score.  Cumsums run down each
    node's own columns, so a node's scores have the bits of a search over
    that node alone, and their last row holds its totals.

    Returns the summed child SSE as ``(nodes, k * (width - 1))``, inf where
    a split is invalid, candidate-major: entry ``j * (width - 1) + i`` of
    node c splits its j-th candidate between sorted positions ``i`` and
    ``i + 1``, so the first minimum is first-best over candidates in order
    and then over positions.  The split needs at least ``min_leaf`` rows
    on each side and distinct values at ``i`` and ``i + 1``."""
    nodes, width, _ = xs.shape
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    sizes = np.arange(1, width)[:, None]
    rest = m[:, None, None] - sizes
    valid = (sizes >= min_leaf) & (rest >= min_leaf) & (xs[:, 1:] > xs[:, :-1])
    # left SSE + right SSE, each operation as in the one-node formula but
    # in place, so that a pass holds few temporaries
    score = csum[:, :-1] ** 2
    score /= sizes
    np.subtract(csq[:, :-1], score, out=score)
    right = csum[:, -1:] - csum[:, :-1]
    right **= 2
    right /= np.maximum(rest, 1)  # padding has no row to its right: / 1, not / 0
    np.subtract(csq[:, -1:] - csq[:, :-1], right, out=right)
    score += right
    score[~valid] = np.inf
    del csum, csq, right
    return score.transpose(0, 2, 1).reshape(nodes, -1)


def _threshold(lo, hi):
    """The threshold of a split between sorted values ``lo < hi``: their
    midpoint, or ``lo`` where the midpoint rounds up to ``hi``, so that
    ``x <= threshold`` sends exactly the rows up to ``lo`` left."""
    mid = 0.5 * (lo + hi)
    return np.where(mid < hi, mid, lo)


# Bootstrap rows per group of trees grown together (forest trees, or the
# nodes boosted together), and cells (nodes x candidate features x padded
# rows) per scoring pass over a level's nodes: enough nodes per numpy call
# to spread its per-call overhead, while the grower's index and scoring
# arrays stay well under a megabyte whatever the number of trees or nodes.
_GROUP_ROWS = 2048
_PASS_CELLS = 2048


def _presort(x, boots) -> np.ndarray:
    """The row ids of each index array of ``boots`` (into ``x``), side by
    side: in ascending order of feature ``f`` in row ``f``, by one stable
    argsort, and in the array's own order in the last row."""
    rho = x.shape[1]
    idx = np.empty((rho + 1, sum(b.shape[0] for b in boots)), dtype=np.int64)
    lo = 0
    for b in boots:
        idx[:rho, lo: lo + b.shape[0]] = b[np.argsort(x[b], axis=0, kind="stable").T]
        idx[rho, lo: lo + b.shape[0]] = b
        lo += b.shape[0]
    return idx


def _grow_forest(
    x, y, boots, *, max_depth, min_leaf, feature_count, rng, presorted=None
) -> list[Tree]:
    """One CART tree on rows ``x[b], y[b]`` for each index array ``b`` of
    ``boots``, all grown together level by level (forests and boosting).

    A level lists every tree's open nodes, tree by tree and left to right.
    The nodes that may split (below ``max_depth``, at least ``2 * min_leaf``
    rows, targets not all equal) draw their candidate features in that
    order: the ``feature_count`` first of one row of
    ``rng.random((nodes, rho)).argsort(axis=1)`` each, ascending; nothing is
    drawn, and ``rng`` may be None, when every feature is a candidate.  A
    node holds its targets' mean and splits at the first best cut of
    :func:`_split_scores`; each tree is numbered in depth-first preorder.

    The open nodes' rows are the columns of ``idx``: each node's run of
    columns lists its row ids (into ``x``) in ascending order of feature
    ``f`` in row ``f``, and in bootstrap order in the last row.  It is
    :func:`_presort` of ``boots``, or a copy of ``presorted`` when a caller
    that grows on the same rows again passes it, and partitions keep order,
    so no node sorts again.  A level is scored in passes of nodes sorted by
    size, each padded to its largest node, and partitioned in place.
    """
    rho = x.shape[1]
    k = min(feature_count, rho)
    sizes = np.array([b.shape[0] for b in boots])
    idx = _presort(x, boots) if presorted is None else presorted.copy()
    tree = np.arange(len(boots))
    rank = tree  # each open node's place in its level's order
    levels, links = [], []  # per level (tree, value, feature, threshold)
    first = 0  # number of the level's first node, counted over all levels
    for depth in itertools.count():
        starts = np.cumsum(sizes) - sizes
        value, same = _node_means(y, idx[rho], starts, sizes)
        feature = np.full(sizes.size, -1, dtype=np.int64)
        threshold = np.zeros(sizes.size)
        levels.append((tree, value, feature, threshold))
        if depth >= max_depth:
            break
        cand = np.flatnonzero(~same & (sizes >= 2 * min_leaf))
        cand = cand[np.argsort(rank[cand])]
        if k < rho:
            feats = np.sort(rng.random((cand.size, rho)).argsort(axis=1)[:, :k], axis=1)
        else:
            feats = np.broadcast_to(np.arange(rho), (cand.size, rho))
        by_size = np.argsort(-sizes[cand], kind="stable")
        at = 0
        while at < cand.size:
            width = sizes[cand[by_size[at]]]
            part = by_size[at: at + max(1, _PASS_CELLS // (k * width))]
            at += part.size
            nodes, f = cand[part], feats[part]
            m = sizes[nodes]
            cols = starts[nodes, None] + np.minimum(np.arange(width), m[:, None] - 1)
            rows = idx[f[:, None, :], cols[:, :, None]]
            xs, ys = x[rows, f[:, None, :]], y[rows]
            ys[np.arange(width) >= m[:, None]] = 0.0
            score = _split_scores(xs, ys, m, min_leaf)
            best = np.argmin(score, axis=1)
            found = np.flatnonzero(np.isfinite(score[np.arange(part.size), best]))
            j, i = np.divmod(best[found], width - 1)
            feature[nodes[found]] = f[found, j]
            threshold[nodes[found]] = _threshold(xs[found, i, j], xs[found, i + 1, j])
        split = np.flatnonzero(feature >= 0)
        if not split.size:
            break
        # children, in place: every left child, then every right child, in
        # split order; the leaves' columns drop out
        node_of = np.repeat(np.arange(sizes.size), sizes)
        on = feature[node_of] >= 0
        feature_of, threshold_of = np.maximum(feature, 0)[node_of], threshold[node_of]
        go_left = (x[idx[rho], feature_of] <= threshold_of) & on
        n_left = np.bincount(node_of[go_left], minlength=sizes.size)[split]
        left, kept = go_left.sum(), on.sum()
        for row in idx:
            go_left = x[row, feature_of] <= threshold_of
            row[:left], row[left: kept] = row[go_left & on], row[~go_left & on]
        idx = idx[:, :kept]
        children = first + sizes.size + np.arange(split.size)
        links.append((first + split, children, children + split.size))
        place = np.empty(split.size, dtype=np.int64)
        place[np.argsort(rank[split])] = np.arange(split.size)
        first += sizes.size
        sizes = np.concatenate([n_left, sizes[split] - n_left])
        tree = np.tile(tree[split], 2)
        rank = np.concatenate([2 * place, 2 * place + 1])
    return _depth_first(levels, links, len(boots))


def _node_means(y, rows, starts, sizes):
    """Each node's target mean and whether its targets are all equal; node
    c's ``sizes[c]`` row ids start at ``rows[starts[c]]``.  Nodes of one
    size share a row-wise sum, which adds each row as the node's own
    one-dimensional mean does."""
    ys = y[rows]
    same = np.minimum.reduceat(ys, starts) == np.maximum.reduceat(ys, starts)
    value = np.empty(sizes.size)
    by_size = np.argsort(sizes, kind="stable")
    lo = 0
    for hi in np.append(np.flatnonzero(np.diff(sizes[by_size])) + 1, sizes.size):
        nodes = by_size[lo:hi]
        m = sizes[nodes[0]]
        value[nodes] = np.add.reduce(ys[starts[nodes, None] + np.arange(m)], axis=1) / m
        lo = hi
    return value, same


def _depth_first(levels, links, count) -> list[Tree]:
    """The ``count`` trees grown level by level, each numbered in
    depth-first preorder: ``levels`` holds every level's (tree, value,
    feature, threshold) and ``links`` the split nodes of each level with
    their left and right children, all numbered over the levels in turn;
    the first level holds the roots in tree order."""
    tree, value, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    left = np.full(tree.size, -1, dtype=np.int64)
    right = np.full(tree.size, -1, dtype=np.int64)
    size = np.ones(tree.size, dtype=np.int64)  # nodes in each subtree
    for parent, lo, hi in reversed(links):
        size[parent] += size[lo] + size[hi]
    pre = np.zeros(tree.size, dtype=np.int64)  # preorder number in its tree
    for parent, lo, hi in links:
        pre[lo] = pre[parent] + 1
        pre[hi] = pre[lo] + size[lo]
        left[parent], right[parent] = pre[lo], pre[hi]
    nodes = size[:count]
    base = np.cumsum(nodes) - nodes
    at = base[tree] + pre
    arrays = (feature, threshold, left, right, value)
    placed = [np.empty_like(a) for a in arrays]
    for out, a in zip(placed, arrays):
        out[at] = a
    return [Tree(*(a[lo: lo + n] for a in placed)) for lo, n in zip(base, nodes)]


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = _ruled(_COUNT, 100)
    max_depth: int = _ruled(_NONNEG_INT, 6)
    min_leaf: int = _ruled(_COUNT, 2)
    feature_frac: float = _ruled(_FRACTION, 1.0 / 3.0)
    seed: int = _ruled(_INTEGER, 0)

    __post_init__ = _check_ruled


def fit_forest(windows: list[Window], rho: int, cfg: ForestConfig) -> TreeEnsemble:
    """Bootstrap-resampled trees with per-split feature subsampling; the
    ensemble prediction is the plain mean of tree outputs.

    Every bootstrap is drawn first, one row of ``rng.integers`` per tree.
    The trees then grow in groups of as many trees as fit in
    ``_GROUP_ROWS`` bootstrap rows (at least one), each group level by
    level by :func:`_grow_forest`, whose feature draws come from the same
    generator."""
    x, y = stack_windows(windows)
    x = _as_rows(x, rho)
    n = x.shape[0]
    rng = _seeded_rng(cfg.seed)
    _indexable(cfg.n_trees * n, f"{cfg.n_trees} bootstraps of {n} rows")
    boots = rng.integers(0, n, size=(cfg.n_trees, n))
    per_group = max(1, _GROUP_ROWS // n)
    trees = []
    for lo in range(0, cfg.n_trees, per_group):
        trees += _grow_forest(
            x, y, boots[lo: lo + per_group],
            max_depth=cfg.max_depth, min_leaf=cfg.min_leaf,
            feature_count=max(1, math.ceil(cfg.feature_frac * rho)), rng=rng,
        )
    return TreeEnsemble(
        trees=tuple(trees), mode="average", shrinkage=1.0, base_value=0.0, rho=rho
    )


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = _ruled(_NONNEG_INT, 100)
    max_depth: int = _ruled(_NONNEG_INT, 3)
    shrinkage: float = _ruled(_FRACTION, 0.1)
    seed: int = _ruled(_INTEGER, 0)
    subsample: float = _ruled(_FRACTION, 1.0)

    __post_init__ = _check_ruled


def fit_gbt(windows: list[Window], rho: int, cfg: GbtConfig) -> TreeEnsemble:
    """Stagewise least-squares boosting: the first stage is the global mean,
    then each tree fits the residual of everything before it.  The one-node
    case of :func:`fit_gbt_nodes`."""
    return fit_gbt_nodes([(windows, cfg)], rho)[0]


def fit_gbt_nodes(
    nodes: Iterable[tuple[list[Window], GbtConfig]], rho: int
) -> list[TreeEnsemble]:
    """:func:`fit_gbt` of each node's ``(windows, cfg)``, the configs equal
    but for their seeds.  Nodes are boosted in groups of at most
    ``_GROUP_ROWS`` training rows (at least one node each); a group runs
    all its stages, each grown by one :func:`_grow_forest` call."""
    models, group, rows = [], [], 0
    for w, cfg in nodes:
        x, y = stack_windows(w)  # raises on an empty list, before any boosting
        if group and rows + len(w) > _GROUP_ROWS:
            models += _boost(group, rho)
            group, rows = [], 0
        group.append((_as_rows(x, rho), y, cfg))
        rows += len(w)
    return models + (_boost(group, rho) if group else [])


def _boost(group, rho: int) -> list[TreeEnsemble]:
    """The boosted ensembles of the nodes' ``(x, y, cfg)``.  The nodes' rows
    are stacked into one ``x``; each stage's rows of a node (all of them,
    or a sorted ``subsample`` draw from the node's own generator) are one
    bootstrap of :func:`_grow_forest`, with every feature a candidate, and
    one descent of the stage's merged trees updates every node's fit.
    Without subsampling every stage grows on the same rows, presorted once."""
    xs, ys, cfgs = zip(*group)
    x, y = np.concatenate(xs), np.concatenate(ys)
    sizes = np.array([t.shape[0] for t in ys])
    starts = np.cumsum(sizes) - sizes
    base = [float(t.mean()) for t in ys]
    cfg = cfgs[0]
    rngs = [_seeded_rng(c.seed) for c in cfgs]
    current = np.repeat(base, sizes)
    boots = [lo + np.arange(n) for lo, n in zip(starts, sizes)]
    presorted = _presort(x, boots) if cfg.subsample == 1.0 else None
    stages = []
    for _ in range(cfg.n_trees):
        residual = y - current
        if presorted is None:
            boots = [
                lo + np.sort(rng.permutation(n)[: max(1, int(cfg.subsample * n))])
                for rng, lo, n in zip(rngs, starts, sizes)
            ]
        trees = _grow_forest(
            x, residual, boots, max_depth=cfg.max_depth, min_leaf=1,
            feature_count=rho, rng=None, presorted=presorted,
        )
        merged, roots = _merge(trees)
        leaves = _descend(merged, x, np.arange(x.shape[0]), np.repeat(roots, sizes))
        current = current + cfg.shrinkage * merged.value[leaves]
        stages.append(trees)
    return [
        TreeEnsemble(tuple(s[i] for s in stages), "additive", cfg.shrinkage, b, rho)
        for i, b in enumerate(base)
    ]


# ---------------------------------------------------------------------- MLP

def _mlp_views(vec: np.ndarray, sizes: tuple[int, ...]):
    """Per layer, the weight matrix and bias vector as views into ``vec``,
    laid out by :func:`~hiergru.gru._layout` layer by layer, weights
    (row-major) before biases."""
    views = _views(vec, tuple(
        shape for a, b in zip(sizes[:-1], sizes[1:]) for shape in ((a, b), (b,))
    ))
    return tuple(views[0::2]), tuple(views[1::2])


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
        vec = _frozen(self.vec, _mlp_count(self.sizes))
        weights, biases = _mlp_views(vec, self.sizes)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def rho(self) -> int:
        return self.sizes[0]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return _mlp_forward(self, x)[-1][:, 0]

    predict = predict_sequence


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple[int, ...] = _ruled((
        lambda v: isinstance(v, tuple) and v and all(_is_int(w) and w >= 1 for w in v),
        "a non-empty tuple of integers >= 1",
    ), (100,))
    lr: float = _ruled(_POSITIVE, 0.005)
    epochs: int = _ruled(_NONNEG_INT, 200)
    seed: int = _ruled(_INTEGER, 0)

    __post_init__ = _check_ruled


# Ten rectifier layers of width 100, lr 0.005, 50 epochs.
DEEPNN_CONFIG = MlpConfig(hidden=(100,) * 10, lr=0.005, epochs=50)


mlp_flatten = flatten


def mlp_unflatten(vec: np.ndarray, sizes: tuple[int, ...]) -> MlpModel:
    """Inverse of :func:`mlp_flatten`; the model holds its own copy."""
    return MlpModel(np.array(vec, dtype=np.float64), tuple(sizes))


def mlp_loss_and_grad(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error and its exact gradient via backpropagation.  A
    batch ``x`` that is not (n, rho), or targets ``y`` that are not (n,),
    raise :class:`WrongLengthError`."""
    last = len(model.weights) - 1
    activations = _mlp_forward(model, x)
    n = activations[0].shape[0]
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise WrongLengthError(f"expected {n} targets, got shape {y.shape}")
    err = activations[-1][:, 0] - y
    loss = float(err @ err) / n

    dz = (2.0 / n) * err[:, None]
    grad = np.zeros(model.vec.shape[0])
    g_weights, g_biases = _mlp_views(grad, model.sizes)
    for l in range(last, -1, -1):
        g_weights[l][:] = activations[l].T @ dz
        g_biases[l][:] = dz.sum(axis=0)
        if l > 0:
            da = dz @ model.weights[l].T
            dz = da * (activations[l] > 0.0)  # > 0 exactly where its input was
    return loss, grad


def _mlp_forward(model: MlpModel, x) -> list[np.ndarray]:
    """The (batch, rho) input ``x`` and each layer's output: rectified, but
    for the last layer's."""
    activations = [_as_rows(x, model.rho)]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w + b
        activations.append(np.maximum(z, 0.0) if l < last else z)
    return activations


def init_mlp(rho: int, hidden: tuple[int, ...], rng: np.random.Generator) -> MlpModel:
    """He-normal hidden layers; the output layer starts at zero so initial
    predictions are exactly zero."""
    sizes = (rho, *hidden, 1)
    vec = np.zeros(_indexable(_mlp_count(sizes), f"a network of layer sizes {sizes}"))
    weights, _ = _mlp_views(vec, sizes)
    for a, w in zip(sizes, weights[:-1]):
        w[:] = rng.normal(0.0, math.sqrt(2.0 / a), size=w.shape)
    return MlpModel(vec, sizes)


def fit_mlp(windows: list[Window], rho: int, cfg: MlpConfig) -> MlpModel:
    """Full-batch first-order training on squared loss, seed-deterministic."""
    x, y = stack_windows(windows)
    model = init_mlp(rho, cfg.hidden, _seeded_rng(cfg.seed))
    sizes = model.sizes

    # the one-row case of run_optimizer's (rows, size) parameter matrix
    def loss_and_grad(X):
        loss, grad = mlp_loss_and_grad(MlpModel(X[0], sizes), x, y)
        return np.array([loss]), grad[None]

    final, _, failures = run_optimizer(
        loss_and_grad, model.vec[None], OptimState(lr=cfg.lr), cfg.epochs
    )
    if failures:
        raise failures[0]
    return MlpModel(final[0], sizes)


# ------------------------------------------------------------------ bundles

BaselineBundle = ModelBundle  # former name; only perfbench/traced_run.py reads it


def fit_baseline(
    panel: SeriesPanel,
    h: Hierarchy,
    tag: str,
    rho: int,
    cfg=None,
    *,
    label: str | None = None,
    jobs: int = 1,  # ignored; only perfbench/traced_run.py still passes it
) -> ModelBundle:
    """Fit one baseline family on every node's training windows, in one
    call of the family's fit that draws each node's windows as it goes.

    Seeded configs are re-derived per node (stable hash of config seed and
    node id) so any single node's fit can be replayed in isolation.
    """
    from .registry import lookup  # the registry imports this module

    entry = lookup(tag)
    if entry.fit_nodes is None:
        raise HiergruError(f"model tag {tag!r} is not a baseline")
    cfg = cfg or entry.build({})[1]
    fitted, provenance = [], {}  # the nodes given to the family fit, in order

    def nodes():
        for n in h.bfs_order():
            w = None if entry.fixed_rule else make_windows(panel, n, rho, "train")
            provenance[n] = {"windows": None if w is None else len(w)}
            if w is not None and not w:
                warnings.warn(
                    f"node {n!r} has no training windows; {tag} model unavailable",
                    NodeSkippedWarning,
                )
                provenance[n]["skipped"] = True
                continue
            node_cfg = cfg
            if w is not None and cfg is not None:
                node_cfg = replace(cfg, seed=node_seed(cfg.seed, n))
                provenance[n]["seed"] = node_cfg.seed
            fitted.append(n)
            yield w, node_cfg

    models = entry.fit_nodes(nodes(), rho)
    return ModelBundle(
        tag=tag,
        rho=rho,
        models=dict(zip(fitted, models)),
        provenance=provenance,
        label=label,
    )
