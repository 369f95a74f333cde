"""Shared test utilities: independent oracles coded from definitions.

Everything here deliberately avoids the package's own computation paths so
that tests compare two independent routes to the same quantity.
"""

import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from hiergru.baselines import Tree
from hiergru.dataset import build_panel
from hiergru.errors import DegenerateVarianceError
from hiergru.metrics import pearson


def fd_grad(loss_fn, x0, step=1e-5):
    """Central finite differences, one coordinate at a time."""
    x = np.array(x0, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        hi = loss_fn(x)
        x[i] = orig - step
        lo = loss_fn(x)
        x[i] = orig
        g[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(analytic, reference):
    """Norm-relative disagreement between two gradient vectors."""
    analytic = np.asarray(analytic)
    reference = np.asarray(reference)
    denom = max(np.linalg.norm(reference), 1e-12)
    return np.linalg.norm(analytic - reference) / denom


def pearson_oracle(x, y):
    """Pearson correlation from the raw sum formulas, explicit loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((x[i] - mx) * (y[i] - my) for i in range(n))
    sxx = sum((x[i] - mx) ** 2 for i in range(n))
    syy = sum((y[i] - my) ** 2 for i in range(n))
    return sxy / math.sqrt(sxx * syy)


def rmse_oracle(a, p):
    n = len(a)
    return math.sqrt(sum((a[i] - p[i]) ** 2 for i in range(n)) / n)


def dcorr_oracle(x, y):
    """Distance correlation straight from the double-centering definition."""
    n = len(x)

    def centered(v):
        d = [[abs(v[i] - v[j]) for j in range(n)] for i in range(n)]
        row = [sum(d[i]) / n for i in range(n)]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [
            [d[i][j] - row[i] - col[j] + grand for j in range(n)]
            for i in range(n)
        ]

    cx = centered(x)
    cy = centered(y)
    vxy = sum(cx[i][j] * cy[i][j] for i in range(n) for j in range(n)) / (n * n)
    vxx = sum(cx[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    vyy = sum(cy[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    return math.sqrt(max(0.0, vxy) / math.sqrt(vxx * vyy))


def gru_forward_oracle(params, inputs):
    """Step-by-step re-evaluation of the recurrence with plain loops."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[0] == 1 and np.asarray(inputs).ndim == 1:
        x = np.asarray(inputs, dtype=float)[:, None]
    h = params.hidden

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    s = np.zeros(h)
    for t in range(x.shape[0]):
        xt = x[t]
        z = sig(xt @ params.u_z + s @ params.w_z + params.b_z)
        r = sig(xt @ params.u_r + s @ params.w_r + params.b_r)
        v = np.tanh(xt @ params.u_v + (s * r) @ params.w_v + params.b_v)
        s = z * v + (1.0 - z) * s
    return float(s @ params.readout_w + params.readout_b)


def gru_states_oracle(p, x):
    """The states (from the zero state on), z, r and v gates of every step
    of a batch of windows ``x`` of shape (n, rho, input_dim), every step
    computed in full with two-dimensional products."""
    n, rho, _ = x.shape
    h = p.hidden

    def sig(v):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-v))

    states = np.zeros((rho + 1, n, h))
    zs, rs, vs = (np.empty((rho, n, h)) for _ in range(3))
    for t in range(rho):
        s = states[t]
        zs[t] = sig(x[:, t, :] @ p.u_z + s @ p.w_z + p.b_z)
        rs[t] = sig(x[:, t, :] @ p.u_r + s @ p.w_r + p.b_r)
        vs[t] = np.tanh(x[:, t, :] @ p.u_v + (s * rs[t]) @ p.w_v + p.b_v)
        states[t + 1] = zs[t] * vs[t] + (1.0 - zs[t]) * s
    return states, zs, rs, vs


def bptt_oracle(p, inputs, targets, regularizers=()):
    """Loss and gradient of one unit by backpropagation through time, one
    unit at a time with two-dimensional products: the per-node kernel the
    stacked kernel must match bit for bit."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    y = np.asarray(targets, dtype=np.float64)
    n, rho, _ = x.shape
    states, zs, rs, vs = gru_states_oracle(p, x)
    err = states[rho] @ p.readout_w + p.readout_b - y
    loss = float(err @ err) / n
    dpred = (2.0 / n) * err
    grads = {name: np.zeros_like(getattr(p, name)) for name in (
        "u_z", "u_r", "u_v", "w_z", "w_r", "w_v", "b_z", "b_r", "b_v")}
    g_readout_w = states[rho].T @ dpred
    ds = np.outer(dpred, p.readout_w)
    for t in range(rho - 1, -1, -1):
        xt, s_prev, z, r, v = x[:, t, :], states[t], zs[t], rs[t], vs[t]
        dz = ds * (v - s_prev)
        ds_prev = ds * (1.0 - z)
        da_v = ds * z * (1.0 - v * v)
        grads["u_v"] += xt.T @ da_v
        grads["w_v"] += (s_prev * r).T @ da_v
        grads["b_v"] += da_v.sum(axis=0)
        dsr = da_v @ p.w_v.T
        ds_prev += dsr * r
        da_r = dsr * s_prev * r * (1.0 - r)
        grads["u_r"] += xt.T @ da_r
        grads["w_r"] += s_prev.T @ da_r
        grads["b_r"] += da_r.sum(axis=0)
        ds_prev += da_r @ p.w_r.T
        da_z = dz * z * (1.0 - z)
        grads["u_z"] += xt.T @ da_z
        grads["w_z"] += s_prev.T @ da_z
        grads["b_z"] += da_z.sum(axis=0)
        ds_prev += da_z @ p.w_z.T
        ds = ds_prev
    grad = np.concatenate([g.ravel() for g in grads.values()]
                          + [g_readout_w, [float(dpred.sum())]])
    for anchor, coeff in regularizers:
        if coeff != 0.0:
            diff = p.vec - anchor.vec
            loss += coeff * float(diff @ diff)
            grad += (2.0 * coeff) * diff
    return loss, grad


def best_split_oracle(x: np.ndarray, y: np.ndarray, features, min_leaf: int):
    """Variance-reduction split: the (feature, threshold) pair minimizing the
    summed child SSE, first-best on ties."""
    n = y.shape[0]
    best = None
    best_score = np.inf
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        sizes = np.arange(1, n)
        valid = (sizes >= min_leaf) & (n - sizes >= min_leaf) & (xs[1:] > xs[:-1])
        if not valid.any():
            continue
        sse_l = csq[:-1] - csum[:-1] ** 2 / sizes
        sse_r = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / (n - sizes)
        score = np.where(valid, sse_l + sse_r, np.inf)
        i = int(np.argmin(score))
        if score[i] < best_score:
            best_score = score[i]
            mid = 0.5 * (xs[i] + xs[i + 1])  # between the scored positions
            best = (f, mid if mid < xs[i + 1] else xs[i])
    return best


def grow_forest_oracle(x, y, boots, *, max_depth, min_leaf, feature_count, rng):
    """Trees on rows ``x[b], y[b]`` for each ``b`` in ``boots``, grown one
    node at a time, breadth-first across the trees: a level lists every
    tree's open nodes, tree by tree and left to right.  The level's nodes
    that may split draw their candidate features in that order, one row of
    ``rng.random((nodes, rho))`` each, whose ``feature_count`` smallest
    entries name the candidates (no draw when every feature is one); every
    node then sorts its own rows once per candidate feature.  Each tree's
    nodes are numbered depth-first at the end."""
    rho = x.shape[1]
    roots = [{} for _ in boots]
    level = [(root, x[b], y[b], np.arange(len(b))) for root, b in zip(roots, boots)]
    depth = 0
    while level:
        may_split = []
        for node, xt, yt, rows in level:
            node["value"] = float(yt[rows].mean())
            if (depth < max_depth and rows.shape[0] >= 2 * min_leaf
                    and not np.all(yt[rows] == yt[rows][0])):
                may_split.append((node, xt, yt, rows))
        if feature_count >= rho:
            subsets = [range(rho)] * len(may_split)
        else:
            draws = rng.random((len(may_split), rho))
            subsets = [np.sort(np.argsort(row)[:feature_count]) for row in draws]
        level = []
        for (node, xt, yt, rows), features in zip(may_split, subsets):
            split = best_split_oracle(xt[rows], yt[rows], features, min_leaf)
            if split is None:
                continue
            node["feature"], node["threshold"] = int(split[0]), float(split[1])
            node["children"] = ({}, {})
            mask = xt[rows, split[0]] <= split[1]
            level.append((node["children"][0], xt, yt, rows[mask]))
            level.append((node["children"][1], xt, yt, rows[~mask]))
        depth += 1
    return [_preorder_tree(root) for root in roots]


def _preorder_tree(root) -> Tree:
    """A tree of nested node dicts as flat arrays, numbered depth-first."""
    nodes: list[list] = []  # [feature, threshold, left, right, value]

    def visit(node) -> int:
        idx = len(nodes)
        nodes.append([-1, 0.0, -1, -1, node["value"]])
        if "children" in node:
            nodes[idx][:2] = node["feature"], node["threshold"]
            nodes[idx][2] = visit(node["children"][0])
            nodes[idx][3] = visit(node["children"][1])
        return idx

    visit(root)
    cols = list(zip(*nodes))
    return Tree(
        feature=np.array(cols[0], dtype=np.int64),
        threshold=np.array(cols[1], dtype=np.float64),
        left=np.array(cols[2], dtype=np.int64),
        right=np.array(cols[3], dtype=np.int64),
        value=np.array(cols[4], dtype=np.float64),
    )


def bfs_oracle(root, parent):
    """Breadth-first walk with a queue from the (child -> parent) map:
    (visit order, {node: depth}), siblings in id order."""
    children = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    order, level = [], {root: 0}
    queue = deque([root])
    while queue:
        n = queue.popleft()
        order.append(n)
        for c in sorted(children.get(n, ())):
            level[c] = level[n] + 1
            queue.append(c)
    return order, level


def parent_loop_oracle(parent):
    """True when following the (child -> parent) map from some node
    repeats a node: a node is its own ancestor."""
    for start in parent:
        path, n = {start}, start
        while n in parent:
            n = parent[n]
            if n in path:
                return True
            path.add(n)
    return False


def aligned_train_rates_oracle(panel, nodes):
    """Training rates over the periods every node's training split covers,
    found by intersecting the period lists."""
    columns = []
    common = None
    for n in nodes:
        periods = panel.periods[n][: panel.split_index[n]]
        common = periods if common is None else np.intersect1d(common, periods)
    if common is None or common.size == 0:
        return np.empty((0, len(nodes)))
    for n in nodes:
        periods = panel.periods[n][: panel.split_index[n]]
        _, idx, _ = np.intersect1d(periods, common, return_indices=True)
        columns.append(panel.rates[n][: panel.split_index[n]][idx])
    return np.column_stack(columns)


def stacked_windows_oracle(panel, n, channels, rho):
    """knngru training windows built one window at a time from per-node
    calendar arrays of training rates; None when no window is complete."""
    grid = {}
    for c in panel.rates:
        g = np.full(len(panel.calendar), np.nan)
        split = panel.split_index[c]
        g[panel.periods[c][:split]] = panel.rates[c][:split]
        grid[c] = g
    split = panel.split_index[n]
    periods = panel.periods[n]
    inputs, targets = [], []
    for t in range(rho, split):
        mat = np.column_stack([grid[c][periods[t - rho: t]] for c in channels])
        if np.all(np.isfinite(mat)):
            inputs.append(mat)
            targets.append(panel.rates[n][t])
    if not inputs:
        return None
    return np.stack(inputs), np.array(targets, dtype=np.float64)


@st.composite
def ragged_panels(draw, max_nodes=6, max_calendar=40):
    """Panels whose nodes start late and end early on a shared calendar,
    some too short for any window (split <= rho)."""
    size = draw(st.integers(4, max_calendar))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = {}
    for i in range(draw(st.integers(2, max_nodes))):
        start = draw(st.integers(0, size - 2)) if draw(st.booleans()) else 0
        length = size - start
        if draw(st.booleans()):
            length = draw(st.integers(2, length))
        series[f"n{i}"] = (start, rng.normal(size=length))
    fraction = draw(st.sampled_from([0.3, 0.5, 0.75, 0.9]))
    return build_panel([f"p{t:03d}" for t in range(size)], series, fraction)


def train_correlation_oracle(panel, a, b):
    """``pearson`` of nodes a and b over the periods both train on, found by
    :func:`aligned_train_rates_oracle`; None below 3 such periods or for a
    constant side."""
    mat = aligned_train_rates_oracle(panel, [a, b])
    if mat.shape[0] < 3:
        return None
    try:
        return pearson(mat[:, 0], mat[:, 1])
    except DegenerateVarianceError:
        return None


def select_neighbors_oracle(panel, n, k):
    """knngru's neighbors of n scored pair by pair from n's side: the k
    highest training correlations, ties to the smaller node id."""
    scored = []
    for other in sorted(panel.nodes):
        r = None if other == n else train_correlation_oracle(panel, n, other)
        if r is not None:
            scored.append((-r, other))
    return tuple(node for _, node in sorted(scored)[:k])
