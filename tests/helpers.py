"""Shared test utilities: independent oracles coded from definitions.

Everything here deliberately avoids the package's own computation paths so
that tests compare two independent routes to the same quantity.
"""

import math

import numpy as np

from hiergru.baselines import Tree


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


def grow_tree_oracle(x, y, *, max_depth, min_leaf, feature_count, rng) -> Tree:
    """The tree grower before presorting: every node sorts its own rows
    once per candidate feature, and features are searched one at a time."""
    nodes: list[list] = []  # [feature, threshold, left, right, value]
    rho = x.shape[1]

    def grow(rows: np.ndarray, depth: int) -> int:
        idx = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(y[rows].mean())])
        if depth >= max_depth or rows.shape[0] < 2 * min_leaf:
            return idx
        if np.all(y[rows] == y[rows][0]):
            return idx
        if feature_count >= rho:
            features = range(rho)
        else:
            features = np.sort(rng.choice(rho, size=feature_count, replace=False))
        split = best_split_oracle(x[rows], y[rows], features, min_leaf)
        if split is None:
            return idx
        f, thr = split
        mask = x[rows, f] <= thr
        nodes[idx][0] = int(f)
        nodes[idx][1] = float(thr)
        nodes[idx][2] = grow(rows[mask], depth + 1)
        nodes[idx][3] = grow(rows[~mask], depth + 1)
        return idx

    grow(np.arange(x.shape[0]), 0)
    cols = list(zip(*nodes))
    return Tree(
        feature=np.array(cols[0], dtype=np.int64),
        threshold=np.array(cols[1], dtype=np.float64),
        left=np.array(cols[2], dtype=np.int64),
        right=np.array(cols[3], dtype=np.int64),
        value=np.array(cols[4], dtype=np.float64),
    )
