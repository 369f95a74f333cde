"""Index tree: structure validation, parent-child statistics, basket weights.

The tree is a single-rooted hierarchy of named series ("All items" at the
root, sectors and items below).  Each node may carry a basket weight in
whatever unit the source publishes (0-100, 0-1, 0-1000); weights are only
ever used after normalization within a sibling group.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    AllZeroWeightsWarning,
    CycleDetectedError,
    DegenerateVarianceError,
    HierarchyError,
    InsufficientOverlapError,
    MissingRootError,
    MissingWeightError,
    MultipleRootsError,
    NegativeWeightError,
    NoChildrenError,
    SingularDesignWarning,
    UnknownParentError,
)
from .metrics import pearson

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import SeriesPanel

NodeId = str


@dataclass(frozen=True)
class Hierarchy:
    """Validated single-rooted index tree.

    Treat all mapping fields as read-only; construction goes through
    :func:`build_hierarchy` which validates structure and computes levels.
    """

    nodes: tuple[NodeId, ...]
    root: NodeId
    parent: dict[NodeId, NodeId]
    weight: dict[NodeId, float]
    level: dict[NodeId, int]
    children: dict[NodeId, tuple[NodeId, ...]]

    def bfs_order(self) -> tuple[NodeId, ...]:
        """Nodes level by level from the root, siblings in id order."""
        order = []
        queue = deque([self.root])
        while queue:
            n = queue.popleft()
            order.append(n)
            queue.extend(self.children.get(n, ()))
        return tuple(order)

    def non_root_nodes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.bfs_order() if n != self.root)

    def depth(self) -> int:
        return max(self.level.values())


@dataclass(frozen=True)
class PrecisionSchedule:
    """Per-node prior precision tau = exp(alpha + correlation with parent)."""

    alpha: float
    tau: dict[NodeId, float]
    correlation: dict[NodeId, float]


def build_hierarchy(rows: Iterable[tuple[str, str | None, float | None]]) -> Hierarchy:
    """Build and validate a Hierarchy from (node_id, parent_id, weight) rows.

    ``parent_id`` of None (or "") marks the root; ``weight`` of None marks a
    missing basket weight left for imputation.
    """
    parent: dict[str, str] = {}
    weight: dict[str, float] = {}
    nodes: list[str] = []
    seen: set[str] = set()
    for node_id, parent_id, w in rows:
        if not node_id:
            raise HierarchyError("empty node id")
        if node_id in seen:
            raise HierarchyError(f"duplicate node id {node_id!r}")
        seen.add(node_id)
        nodes.append(node_id)
        if parent_id:
            parent[node_id] = parent_id
        if w is not None:
            if w < 0:
                raise NegativeWeightError(f"negative weight for node {node_id!r}: {w}")
            weight[node_id] = float(w)

    if not nodes:
        raise MissingRootError("hierarchy is empty")

    unknown = sorted(p for p in parent.values() if p not in seen)
    if unknown:
        raise UnknownParentError(f"unknown parent id(s): {', '.join(unknown)}")

    _check_acyclic(nodes, parent)

    roots = [n for n in nodes if n not in parent]
    if not roots:
        raise MissingRootError("no root node (every node has a parent)")
    if len(roots) > 1:
        raise MultipleRootsError(f"multiple roots: {', '.join(sorted(roots))}")
    root = roots[0]

    children: dict[str, list[str]] = {n: [] for n in nodes}
    for n, p in parent.items():
        children[p].append(n)
    children_t = {n: tuple(sorted(cs)) for n, cs in children.items()}

    level = {root: 0}
    queue = deque([root])
    while queue:
        n = queue.popleft()
        for c in children_t[n]:
            level[c] = level[n] + 1
            queue.append(c)

    return Hierarchy(
        nodes=tuple(sorted(nodes)),
        root=root,
        parent=dict(parent),
        weight=weight,
        level=level,
        children=children_t,
    )


def _check_acyclic(nodes: list[str], parent: dict[str, str]) -> None:
    state: dict[str, int] = {}  # 1 = on current chain, 2 = cleared
    for start in nodes:
        chain = []
        n = start
        while n is not None and state.get(n, 0) != 2:
            if state.get(n) == 1:
                cycle = chain[chain.index(n):]
                raise CycleDetectedError(
                    f"parent loop through node(s): {', '.join(sorted(cycle))}"
                )
            state[n] = 1
            chain.append(n)
            n = parent.get(n)
        for m in chain:
            state[m] = 2


def load_hierarchy(path) -> Hierarchy:
    """Load ``hierarchy.csv`` (header ``node_id,parent_id,weight``).

    An empty ``parent_id`` marks the root; an empty ``weight`` marks a
    missing basket weight to be imputed later.
    """
    rows: list[tuple[str, str | None, float | None]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"node_id", "parent_id", "weight"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise HierarchyError(
                f"{path}: expected header columns node_id,parent_id,weight"
            )
        for rec in reader:
            node = (rec["node_id"] or "").strip()
            par = (rec["parent_id"] or "").strip() or None
            wtxt = (rec["weight"] or "").strip()
            try:
                w = float(wtxt) if wtxt else None
            except ValueError:
                raise HierarchyError(
                    f"{path}, line {reader.line_num}: weight {wtxt!r} is not a number"
                ) from None
            rows.append((node, par, w))
    return build_hierarchy(rows)


def save_hierarchy(h: Hierarchy, path) -> None:
    """Write a Hierarchy back to the ``hierarchy.csv`` format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "parent_id", "weight"])
        for n in h.bfs_order():
            w = h.weight.get(n)
            writer.writerow([n, h.parent.get(n, ""), "" if w is None else repr(w)])


# --------------------------------------------------------------- statistics

def aligned_train_rates(panel: "SeriesPanel", nodes: Iterable[NodeId]) -> np.ndarray:
    """Stack the training-split rates of several nodes over common periods.

    Returns an array of shape (T, k) where T is the number of calendar
    periods covered by the training split of every requested node.  Only
    training-segment observations participate, so anything computed from
    the result is free of test-set leakage.
    """
    node_list = list(nodes)
    columns = []
    common: np.ndarray | None = None
    for n in node_list:
        periods = panel.periods[n][: panel.split_index[n]]
        common = periods if common is None else np.intersect1d(common, periods)
    if common is None or common.size == 0:
        return np.empty((0, len(node_list)))
    for n in node_list:
        periods = panel.periods[n][: panel.split_index[n]]
        _, idx, _ = np.intersect1d(periods, common, return_indices=True)
        columns.append(panel.rates[n][: panel.split_index[n]][idx])
    return np.column_stack(columns)


def train_correlation(panel: "SeriesPanel", a: NodeId, b: NodeId) -> float:
    """Pearson correlation between two nodes' training rates over the
    periods both cover.  Raises :class:`InsufficientOverlapError` below 3
    common periods and :class:`DegenerateVarianceError` for a constant
    series."""
    mat = aligned_train_rates(panel, [a, b])
    if mat.shape[0] < 3:
        raise InsufficientOverlapError(
            f"nodes {a!r} and {b!r}: only {mat.shape[0]} aligned training "
            "observations (need >= 3)"
        )
    return pearson(mat[:, 0], mat[:, 1])


def parent_correlation(panel: "SeriesPanel", h: Hierarchy, n: NodeId) -> float:
    """Pearson correlation between a node's and its parent's training rates."""
    if n not in h.parent:
        raise HierarchyError(f"node {n!r} is the root and has no parent")
    return train_correlation(panel, n, h.parent[n])


def precision_schedule(
    panel: "SeriesPanel",
    h: Hierarchy,
    alpha: float,
    *,
    fallback: bool = True,
) -> PrecisionSchedule:
    """Prior precision tau(n) = exp(alpha + C(n)) for every non-root node.

    With ``fallback`` enabled (the default), nodes whose parent correlation
    is not computable (too little overlap or a constant series) use C = 0,
    which yields the neutral precision exp(alpha).
    """
    tau: dict[NodeId, float] = {}
    corr: dict[NodeId, float] = {}
    for n in h.non_root_nodes():
        try:
            c = parent_correlation(panel, h, n)
        except (InsufficientOverlapError, DegenerateVarianceError):
            if not fallback:
                raise
            c = 0.0
        corr[n] = c
        tau[n] = math.exp(alpha + c)
    return PrecisionSchedule(alpha=alpha, tau=tau, correlation=corr)


# --------------------------------------------------------------- weights

def impute_weights(panel: "SeriesPanel", h: Hierarchy) -> Hierarchy:
    """Fill missing basket weights by regressing parent rates on child rates.

    For each sibling group containing at least one missing weight, the
    parent's training-split rate series is regressed (no intercept) on the
    children's; negative coefficients are clamped at zero and the vector is
    renormalized to sum to one.  Only the missing entries are filled;
    weights already present are kept as-is.  Collinear or empty designs
    fall back to uniform shares and emit :class:`SingularDesignWarning`.
    """
    new_weight = dict(h.weight)
    changed = False
    for parent_node in h.bfs_order():
        kids = h.children.get(parent_node, ())
        if not kids or all(k in new_weight for k in kids):
            continue
        changed = True
        shares = _group_shares(panel, parent_node, kids)
        for k, s in zip(kids, shares):
            if k not in new_weight:
                new_weight[k] = float(s)
    if not changed:
        return h
    return replace(h, weight=new_weight)


def _group_shares(panel, parent_node: NodeId, kids: tuple[NodeId, ...]) -> np.ndarray:
    k = len(kids)
    uniform = np.full(k, 1.0 / k)
    mat = aligned_train_rates(panel, [parent_node, *kids])
    if mat.shape[0] < k:
        warnings.warn(
            f"group under {parent_node!r}: too few aligned observations, "
            "using uniform weights",
            SingularDesignWarning,
        )
        return uniform
    y, x = mat[:, 0], mat[:, 1:]
    coeffs, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < k:
        warnings.warn(
            f"group under {parent_node!r}: collinear child series, "
            "using uniform weights",
            SingularDesignWarning,
        )
        return uniform
    coeffs = np.clip(coeffs, 0.0, None)
    total = coeffs.sum()
    if total <= 0.0:
        warnings.warn(
            f"group under {parent_node!r}: all regression coefficients "
            "non-positive, using uniform weights",
            SingularDesignWarning,
        )
        return uniform
    return coeffs / total


def child_weights(h: Hierarchy, n: NodeId) -> dict[NodeId, float]:
    """Basket weights of n's children normalized to sum to one."""
    kids = h.children.get(n, ())
    if not kids:
        raise NoChildrenError(f"node {n!r} has no children")
    missing = [k for k in kids if k not in h.weight]
    if missing:
        raise MissingWeightError(
            f"children of {n!r} lack weights: {', '.join(missing)}"
        )
    raw = np.array([h.weight[k] for k in kids], dtype=np.float64)
    total = raw.sum()
    if total == 0.0:
        warnings.warn(
            f"children of {n!r} all have zero weight, using uniform shares",
            AllZeroWeightsWarning,
        )
        return {k: 1.0 / len(kids) for k in kids}
    return {k: float(w / total) for k, w in zip(kids, raw)}
