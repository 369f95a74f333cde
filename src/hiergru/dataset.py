"""Series ingestion, log-change transform, chronological split, windowing.

A :class:`SeriesPanel` holds one rate series per node, aligned on a shared
calendar of period labels.  Its methods are the only code that reads a
node's train/test boundary: every training window, test origin and
forecast window, and the training-only overlap and sub-panel, is cut here.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptySeriesError,
    InsufficientHistoryError,
    InvalidSpecError,
    NonPositiveLevelError,
    NoTrainingDataError,
    SeriesGapError,
    WrongLengthError,
    _check_ruled,
    _is_int,
    _number,
    _ruled,
)
from .errors import _COUNT, _INTEGER, _NONNEG
from .hierarchy import Hierarchy, NodeId, build_hierarchy, csv_records

DEFAULT_TRAIN_FRACTION = 0.75


@dataclass(frozen=True)
class Window:
    """Supervised example: the ``rho`` rates preceding the target, in time order.

    ``inputs`` has shape (rho,) for scalar models and (rho, k+1) for
    neighbor-augmented ones.
    """

    inputs: np.ndarray
    target: float


@dataclass(frozen=True)
class SeriesPanel:
    """Per-node rate series on a shared calendar, with train/test boundary.

    ``periods[n]`` holds one unbroken run of calendar positions,
    ``rates[n]`` the matching log-change rates, and ``split_index[n]`` the
    first test position of node ``n``.
    """

    calendar: tuple[str, ...]
    periods: dict[NodeId, np.ndarray]
    rates: dict[NodeId, np.ndarray]
    split_index: dict[NodeId, int]

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.rates))

    def length(self, n: NodeId) -> int:
        return int(self.rates[n].shape[0])

    def test_positions(self, n: NodeId) -> range:
        return range(self.split_index[n], self.length(n))

    def train_overlap(self, nodes) -> tuple[int, list[np.ndarray]]:
        """The periods where every node of ``nodes`` has a training rate:
        the first one's calendar position, and each node's rates over them
        as views.  Each node covers one unbroken run of periods
        (:func:`build_panel`), so these periods are one run too."""
        starts = [int(self.periods[n][0]) for n in nodes]
        first = max(starts)
        ends = [s + self.split_index[n] for s, n in zip(starts, nodes)]
        size = max(0, min(ends) - first)
        return first, [self.rates[n][first - s: first - s + size]
                       for s, n in zip(starts, nodes)]

    def train_windows(self, n: NodeId, rho: int, channels=None):
        """``(inputs, targets)`` for each training target of ``n`` after its
        first ``rho`` rates whose ``rho`` periods before it lie in the
        :meth:`train_overlap` of ``channels`` (default ``n``): inputs
        (windows, rho, channels) hold those rates; None if there are none."""
        split = self.split_index[n]
        if split <= rho:
            return None
        first, columns = self.train_overlap(channels or (n,))
        lag = first - int(self.periods[n][0])  # n's t is the overlap's t - lag
        targets = np.arange(rho + max(lag, 0), min(split, lag + columns[0].size + 1))
        if not targets.size:
            return None
        span = targets[:, None] - lag + np.arange(-rho, 0)
        return np.stack(columns, axis=-1)[span], self.rates[n][targets]

    def test_origins(self, n: NodeId, rho: int) -> np.ndarray:
        """Test positions of ``n`` with at least ``rho`` observations before."""
        return np.arange(max(self.split_index[n], rho), self.length(n))

    def forecast_windows(self, n: NodeId, origins, rho: int, channels=None):
        """The ``rho`` rates of ``n`` before each origin, (origins, rho); with
        ``channels``, (origins, rho, channels), each channel carrying its last
        earlier rate forward (0.0 before its first)."""
        early = origins[origins < rho]
        if early.size:
            raise InsufficientHistoryError(
                f"node {n!r}: origin {early[0]} needs {rho} earlier observations"
            )
        late = origins[origins > self.length(n)]
        if late.size:
            raise InsufficientHistoryError(
                f"node {n!r}: origin {late[0]} beyond series length {self.length(n)}"
            )
        span = origins[:, None] + np.arange(-rho, 0)
        if channels is None:
            return self.rates[n][span]
        periods = self.periods[n][span]
        columns = []
        for c in channels:
            after = np.searchsorted(self.periods[c], periods, side="right")
            columns.append(
                np.where(after > 0, self.rates[c][np.maximum(after - 1, 0)], 0.0)
            )
        return np.stack(columns, axis=-1)

    def train_segment(self, train_fraction: float) -> "SeriesPanel":
        """The sub-panel of training-segment observations only, re-split at
        ``train_fraction`` so that its tail becomes a validation segment."""
        series = {n: (int(self.periods[n][0]), r[: self.split_index[n]])
                  for n, r in self.rates.items()}
        return build_panel(self.calendar, series, train_fraction)


def to_rates(levels) -> np.ndarray:
    """Convert raw index levels to percent log-change rates:
    rate(t) = 100 * ln(x_t / x_{t-1})."""
    x = np.asarray(levels, dtype=np.float64)
    if x.size < 2:
        raise EmptySeriesError(f"need at least 2 levels, got {x.size}")
    bad = np.flatnonzero(~(x > 0.0))
    if bad.size:
        raise NonPositiveLevelError(
            f"non-positive level at position(s) {', '.join(map(str, bad))}"
        )
    return 100.0 * np.log(x[1:] / x[:-1])


def split_point(length: int, train_fraction: float) -> int:
    return math.ceil(train_fraction * length)


def chronological_split(panel: SeriesPanel, train_fraction: float) -> SeriesPanel:
    """Recompute every node's train/test boundary; earliest data trains.

    ``split_index(n) = ceil(train_fraction * length(n))``, no shuffling.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidSpecError(f"train_fraction must be in (0, 1), got {train_fraction}")
    split = {}
    for n, r in panel.rates.items():
        if r.shape[0] < 2:
            raise EmptySeriesError(
                f"node {n!r}: series of length {r.shape[0]} cannot be split"
            )
        split[n] = split_point(r.shape[0], train_fraction)
    return replace(panel, split_index=split)


def build_panel(
    calendar,
    rate_series: dict[NodeId, tuple[int, np.ndarray]],
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
) -> SeriesPanel:
    """Assemble a panel from per-node (first_period, rates) pairs."""
    periods = {}
    rates = {}
    for n, (start, r) in rate_series.items():
        r = np.asarray(r, dtype=np.float64)
        if not np.all(np.isfinite(r)):
            raise InvalidSpecError(f"node {n!r}: non-finite rate values")
        periods[n] = np.arange(start, start + r.shape[0], dtype=np.int64)
        rates[n] = r
    panel = SeriesPanel(
        calendar=tuple(calendar),
        periods=periods,
        rates=rates,
        split_index={n: 0 for n in rates},
    )
    return chronological_split(panel, train_fraction)


def make_windows(
    panel: SeriesPanel, n: NodeId, rho: int, segment: str
) -> list[Window]:
    """Supervised windows for one node and segment ("train" or "test").

    Train windows never use a test-segment target; test windows may reach
    back into the train segment for their inputs.  Returns an empty list
    when the series is too short.
    """
    if rho < 1:
        raise InvalidSpecError(f"rho must be >= 1, got {rho}")
    if segment not in ("train", "test"):
        raise InvalidSpecError(f"segment must be 'train' or 'test', got {segment!r}")
    if segment == "train":
        inputs, targets = panel.train_windows(n, rho) or ((), ())
    else:
        origins = panel.test_origins(n, rho)
        inputs = panel.forecast_windows(n, origins, rho)
        targets = panel.rates[n][origins]
    return [Window(x.reshape(rho), float(t)) for x, t in zip(inputs, targets)]


def stack_windows(windows: list[Window]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a window list into (inputs, targets) arrays for batch training;
    every fit's one check for an empty list (:class:`NoTrainingDataError`)
    and for windows of unequal shapes (:class:`WrongLengthError`)."""
    if not windows:
        raise NoTrainingDataError("no training windows")
    shapes = sorted({np.shape(w.inputs) for w in windows})
    if len(shapes) > 1:
        raise WrongLengthError(f"windows of unequal shapes {shapes}")
    inputs = np.stack([w.inputs for w in windows])
    targets = np.array([w.target for w in windows], dtype=np.float64)
    return inputs, targets


# ----------------------------------------------------------------- loading

def load_series_csv(
    path,
    *,
    already_rates: bool = False,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
) -> SeriesPanel:
    """Load ``series.csv`` (header ``node_id,period,value``) into a panel.

    Values are raw index levels converted to rates internally unless
    ``already_rates`` is set.  Periods sort lexicographically (ISO labels),
    and each node must cover a contiguous run of the shared calendar.
    """
    per_node: dict[str, dict[str, float]] = defaultdict(dict)
    for line, rec in csv_records(path, ("node_id", "period", "value")):
        node = (rec["node_id"] or "").strip()
        period = (rec["period"] or "").strip()
        if period in per_node[node]:
            raise InvalidSpecError(
                f"duplicate observation for node {node!r} period {period}"
            )
        try:
            per_node[node][period] = float(rec["value"])
        except (TypeError, ValueError):
            raise InvalidSpecError(
                f"{path}, line {line}: value {rec['value']!r} is not a number"
            ) from None
    if not per_node:
        raise EmptySeriesError(f"{path}: no observations")

    calendar = sorted({p for obs in per_node.values() for p in obs})
    pos = {p: i for i, p in enumerate(calendar)}

    rate_series: dict[str, tuple[int, np.ndarray]] = {}
    for node, obs in per_node.items():
        labels = sorted(obs)
        positions = [pos[p] for p in labels]
        first, last = positions[0], positions[-1]
        if last - first + 1 != len(positions):
            covered = set(positions)
            gaps = [calendar[i] for i in range(first, last + 1) if i not in covered]
            raise SeriesGapError(
                f"node {node!r}: missing interior period(s) {', '.join(gaps)}"
            )
        values = np.array([obs[p] for p in labels], dtype=np.float64)
        if already_rates:
            rate_series[node] = (first, values)
        else:
            bad = np.flatnonzero(~(values > 0.0))
            if bad.size:
                raise NonPositiveLevelError(
                    f"node {node!r}: non-positive level at period(s) "
                    f"{', '.join(labels[i] for i in bad)}"
                )
            try:
                rate_series[node] = (first + 1, to_rates(values))
            except EmptySeriesError as exc:
                raise EmptySeriesError(f"node {node!r}: {exc}") from None
    return build_panel(calendar, rate_series, train_fraction)


def save_series_csv(panel: SeriesPanel, path) -> None:
    """Write a panel's rates back to the ``series.csv`` format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "period", "value"])
        for n in panel.nodes:
            for pos, rate in zip(panel.periods[n], panel.rates[n]):
                writer.writerow([n, panel.calendar[int(pos)], repr(float(rate))])


# --------------------------------------------------------------- synthesis

@dataclass(frozen=True)
class SynthSpec:
    """Synthetic hierarchical panel: AR(1) root with unit-variance
    innovations, noisy copies below, split at the default train fraction.

    Every node at level L equals its parent's series plus independent
    Gaussian noise with standard deviation ``leaf_noise_sd * L``, so the
    signal-to-noise ratio decays down the tree the way disaggregated index
    components do.
    """

    depth: int = _ruled(_COUNT)
    branching: int = _ruled(_COUNT)
    length: int = _ruled((lambda v: _is_int(v) and v >= 10, "an integer >= 10"))
    leaf_noise_sd: float = _ruled(_NONNEG)
    seed: int = _ruled(_INTEGER)
    ar_coeff: float = _ruled(_number(lambda v: 0 < abs(v) < 1, "with 0 < |v| < 1"), 0.6)

    __post_init__ = _check_ruled


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of an integer seed, the one rule every seeded draw
    follows.  A seed >= 0 gives ``np.random.default_rng(seed)``, numpy's own
    stream; a negative seed, which numpy rejects, gives the stream of
    ``SeedSequence(-seed, spawn_key=(1,))``: the same draws on every run,
    and not the draws of ``-seed``."""
    if seed >= 0:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(-seed, spawn_key=(1,)))


def _month_labels(length: int) -> list[str]:
    return [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(length)]


def synth_panel(spec: SynthSpec) -> tuple[Hierarchy, SeriesPanel]:
    """Generate a deterministic synthetic hierarchy and rate panel."""
    rng = _seeded_rng(spec.seed)
    phi = spec.ar_coeff

    root_id = "root"
    series: dict[str, np.ndarray] = {}
    x = np.empty(spec.length)
    x[0] = rng.normal(0.0, 1.0 / math.sqrt(1.0 - phi * phi))
    innov = rng.normal(0.0, 1.0, size=spec.length - 1)
    for t in range(1, spec.length):
        x[t] = phi * x[t - 1] + innov[t - 1]
    series[root_id] = x

    rows: list[tuple[str, str | None, float | None]] = [(root_id, None, 1.0)]
    frontier = [root_id]
    for level in range(1, spec.depth + 1):
        noise_sd = spec.leaf_noise_sd * level
        next_frontier = []
        for parent in frontier:
            for i in range(spec.branching):
                child = f"{parent}.{i}"
                series[child] = series[parent] + rng.normal(
                    0.0, noise_sd, size=spec.length
                )
                rows.append((child, parent, 1.0))
                next_frontier.append(child)
        frontier = next_frontier

    h = build_hierarchy(rows)
    calendar = _month_labels(spec.length)
    panel = build_panel(calendar, {n: (0, s) for n, s in series.items()})
    return h, panel
