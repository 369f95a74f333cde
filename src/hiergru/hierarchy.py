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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    AllZeroWeightsWarning,
    CycleDetectedError,
    DegenerateVarianceError,
    HierarchyError,
    HiergruError,
    MissingRootError,
    MissingWeightError,
    MultipleRootsError,
    NegativeWeightError,
    NoChildrenError,
    SingularDesignWarning,
    UnknownParentError,
)
from .metrics import centred, correlation

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import SeriesPanel

NodeId = str


@dataclass(frozen=True)
class Hierarchy:
    """Validated single-rooted index tree.

    Treat all mapping fields as read-only; construction goes through
    :func:`build_hierarchy` which validates structure and computes levels.
    ``levels[L]`` holds the nodes at depth L in breadth-first order: the
    children of each node of level L - 1 in turn, siblings in id order.
    """

    nodes: tuple[NodeId, ...]
    root: NodeId
    parent: dict[NodeId, NodeId]
    weight: dict[NodeId, float]
    children: dict[NodeId, tuple[NodeId, ...]]
    levels: tuple[tuple[NodeId, ...], ...]

    @cached_property
    def level(self) -> dict[NodeId, int]:
        """Each node's depth; the root is at 0."""
        return {n: lv for lv, ns in enumerate(self.levels) for n in ns}

    def bfs_order(self) -> tuple[NodeId, ...]:
        """Nodes level by level from the root, siblings in id order."""
        return tuple(n for ns in self.levels for n in ns)

    def non_root_nodes(self) -> tuple[NodeId, ...]:
        return tuple(n for ns in self.levels[1:] for n in ns)

    def depth(self) -> int:
        return len(self.levels) - 1


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
            if not math.isfinite(w):
                raise HierarchyError(f"weight for node {node_id!r} is not finite: {w}")
            if w < 0:
                raise NegativeWeightError(f"negative weight for node {node_id!r}: {w}")
            weight[node_id] = float(w)

    if not nodes:
        raise MissingRootError("hierarchy is empty")

    unknown = sorted(p for p in parent.values() if p not in seen)
    if unknown:
        raise UnknownParentError(f"unknown parent id(s): {', '.join(unknown)}")

    children: dict[str, list[str]] = {n: [] for n in nodes}
    for n, p in parent.items():
        children[p].append(n)
    children_t = {n: tuple(sorted(cs)) for n, cs in children.items()}

    # one level walk down from every parentless node; a node it never
    # reaches sits in a parent loop or below one
    roots = [n for n in nodes if n not in parent]
    levels = [tuple(roots)]
    while below := tuple(c for n in levels[-1] for c in children_t[n]):
        levels.append(below)
    looped = seen.difference(*levels)
    if looped:
        raise CycleDetectedError(
            f"node(s) in or below a parent loop: {', '.join(sorted(looped))}"
        )
    if len(roots) > 1:
        raise MultipleRootsError(f"multiple roots: {', '.join(sorted(roots))}")

    return Hierarchy(
        nodes=tuple(sorted(nodes)),
        root=roots[0],
        parent=dict(parent),
        weight=weight,
        children=children_t,
        levels=tuple(levels),
    )


def load_hierarchy(path) -> Hierarchy:
    """Load ``hierarchy.csv`` (header ``node_id,parent_id,weight``).

    An empty ``parent_id`` marks the root; an empty ``weight`` marks a
    missing basket weight to be imputed later.
    """
    rows: list[tuple[str, str | None, float | None]] = []
    for line, rec in csv_records(path, ("node_id", "parent_id", "weight")):
        node = (rec["node_id"] or "").strip()
        par = (rec["parent_id"] or "").strip() or None
        wtxt = (rec["weight"] or "").strip()
        try:
            w = float(wtxt) if wtxt else None
        except ValueError:
            raise HierarchyError(
                f"{path}, line {line}: weight {wtxt!r} is not a number"
            ) from None
        rows.append((node, par, w))
    return build_hierarchy(rows)


def csv_records(path, columns: tuple[str, ...]):
    """Yield ``(line number, record)`` for each row of the UTF-8 CSV file
    at ``path`` (a leading byte order mark is skipped), whose header must
    hold ``columns``.  A missing column, a byte that is not UTF-8, or a row
    the csv module cannot parse (a field over its size limit, say) raises
    :class:`HiergruError` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if not set(columns).issubset(reader.fieldnames or ()):
                raise HiergruError(
                    f"{path}: expected header columns {','.join(columns)}"
                )
            for rec in reader:
                yield reader.line_num, rec
    except (UnicodeDecodeError, csv.Error) as exc:
        raise HiergruError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def save_hierarchy(h: Hierarchy, path) -> None:
    """Write a Hierarchy back to the ``hierarchy.csv`` format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "parent_id", "weight"])
        for n in h.bfs_order():
            w = h.weight.get(n)
            writer.writerow([n, h.parent.get(n, ""), "" if w is None else repr(w)])


# --------------------------------------------------------------- statistics

def train_correlations(
    panel: "SeriesPanel", pairs: Iterable[tuple[NodeId, NodeId]]
) -> dict[tuple[NodeId, NodeId], float]:
    """The Pearson correlation of each pair's training rates over the
    periods both cover (:meth:`~hiergru.dataset.SeriesPanel.train_overlap`),
    keyed by pair.  Each node's rates over one overlap are
    :func:`~hiergru.metrics.centred` once, however many pairs share them.
    A pair with fewer than 3 common periods or a constant side is left
    out."""
    sides, scores = {}, {}
    for pair in pairs:
        first, columns = panel.train_overlap(pair)
        if columns[0].size < 3:
            continue
        keys = [(n, first, columns[0].size) for n in pair]
        for key, column in zip(keys, columns):
            if key not in sides:
                sides[key] = centred(column)
        try:
            scores[pair] = correlation(sides[keys[0]], sides[keys[1]])
        except DegenerateVarianceError:
            pass
    return scores


def precision_schedule(
    panel: "SeriesPanel", h: Hierarchy, alpha: float
) -> PrecisionSchedule:
    """Prior precision tau(n) = exp(alpha + C(n)) for every non-root node.

    C(n) is the :func:`train_correlations` score of n and its parent, or 0,
    which yields the neutral precision exp(alpha), where there is none (too
    little overlap or a constant series).
    """
    pairs = [(n, h.parent[n]) for n in h.non_root_nodes()]
    scores = train_correlations(panel, pairs)
    corr = {n: scores.get((n, p), 0.0) for n, p in pairs}
    tau = {n: math.exp(alpha + c) for n, c in corr.items()}
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
    """The kids' shares of the parent: the clamped regression coefficients,
    renormalized, or else uniform shares and one :class:`SingularDesignWarning`
    naming why (too few aligned rows, collinear kids, no positive share)."""
    k = len(kids)
    mat = np.column_stack(panel.train_overlap([parent_node, *kids])[1])
    reason = "too few aligned observations"
    if mat.shape[0] >= k:
        coeffs, _, rank, _ = np.linalg.lstsq(mat[:, 1:], mat[:, 0], rcond=None)
        coeffs = np.clip(coeffs, 0.0, None)
        if rank < k:
            reason = "collinear child series"
        elif coeffs.sum() <= 0.0:
            reason = "all regression coefficients non-positive"
        else:
            return coeffs / coeffs.sum()
    warnings.warn(
        f"group under {parent_node!r}: {reason}, using uniform weights",
        SingularDesignWarning,
    )
    return np.full(k, 1.0 / k)


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
