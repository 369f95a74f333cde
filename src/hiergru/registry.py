"""The model tags, one entry each: the config keys a tag accepts, the
builder that turns them into a training config, the function that fits a
bundle, and the codec that stores one node model as a float64 checkpoint
payload.  A tag's schema is its config dataclass: the keys are its field
names (a baseline adds ``rho``), and building it checks every value's kind
and range.  A baseline's fit is one call over all of its nodes: gbt boosts
them together, the other families fit them one by one.

The CLI, :func:`~hiergru.baselines.fit_baseline` and the checkpoint reader
and writer look tags up here and nowhere else.  Fit functions are called
through their module names at call time (hence the forwarding lambdas), so
a wrapper installed on, say, ``fit_forest`` sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .baselines import (
    DEEPNN_CONFIG,
    ArModel,
    ForestConfig,
    GbtConfig,
    MlpConfig,
    MlpModel,
    RwModel,
    Tree,
    TreeEnsemble,
    fit_ar,
    fit_baseline,
    fit_forest,
    fit_gbt_nodes,
    fit_mlp,
    mlp_flatten,
    mlp_unflatten,
)
from .errors import _COUNT, _RHO, HiergruError, _check_fields
from .gru import flatten, unflatten
from .models import (
    TrainSpec,
    train_bihrnn,
    train_hrnn,
    train_igru,
    train_knn_gru,
    train_sgru,
)


@dataclass(frozen=True)
class TagEntry:
    """Everything the package knows about one model tag."""

    keys: frozenset[str]  # accepted config keys: the config's field names
    build: Callable  # params, seed included -> checked training config
    fit: Callable  # (panel, h, config, hrnn cache) -> (bundle, new anchors)
    encode: Callable  # node model -> (payload, hidden, input_dim)
    decode: Callable  # (payload, hidden, input_dim, rho) -> node model
    fit_nodes: Callable | None = None  # baselines: (iter of (windows, cfg), rho) -> models
    fixed_rule: bool = False  # the same rule on every node, fitted on nothing
    saves_anchors: bool = False  # fit may return anchors saved as <label>_anchors


def lookup(tag: str) -> TagEntry:
    entry = TAGS.get(tag)
    if entry is None:
        raise HiergruError(f"unknown model tag {tag!r}")
    return entry


# ----------------------------------------------------------------- codecs

def _encode_gru(model):
    return flatten(model), model.hidden, model.input_dim


def _decode_gru(payload, hidden, input_dim, rho):
    if min(hidden, input_dim) < 1:  # a manifest without a spec gives 0 and 0
        raise HiergruError(f"GRU widths {hidden} and {input_dim}: need >= 1 each")
    return unflatten(payload, hidden, input_dim)


def _encode_trees(model: TreeEnsemble):
    mode = 1.0 if model.mode == "additive" else 0.0
    parts = [[mode, model.shrinkage, model.base_value, len(model.trees)]]
    for t in model.trees:
        parts.append([len(t.value)])
        # one row of five per tree node, as the decoder reshapes it
        parts.append(
            np.column_stack([t.feature, t.threshold, t.left, t.right, t.value]).ravel()
        )
    return np.concatenate(parts), 0, 0


def _decode_trees(payload, hidden, input_dim, rho) -> TreeEnsemble:
    """The ensemble :func:`_encode_trees` wrote, checked only so that
    decoding stays inside the payload and every descent ends (the rest is
    the load rule of :func:`~hiergru.checkpoint.load_bundle`): each count
    fits in what is left, and node
    ``i`` of ``n`` is a leaf (feature and links -1) or a split on a feature
    in ``[0, rho)`` at a finite threshold, with both children in ``(i, n)``."""
    at = 3

    def count(least: int, size: int) -> int:
        """The count at ``at``, of items of at least ``size`` values each."""
        nonlocal at
        c = payload[at] if at < payload.size else np.nan
        at += 1
        if not least <= c <= (payload.size - at) // size:
            raise HiergruError(f"tree payload count {c} at {at - 1} does not fit")
        return int(c)

    trees = []
    for _ in range(count(0, 6)):
        n_nodes = count(1, 5)
        block = payload[at: at + 5 * n_nodes].reshape(n_nodes, 5)
        at += 5 * n_nodes
        feature, threshold, left, right, value = block.T
        ok = (0 <= feature) & (feature < rho) & np.isfinite(threshold)
        for child in (left, right):
            ok &= (np.arange(1, n_nodes + 1) <= child) & (child < n_nodes)
        ok = np.where(feature == -1, (left == -1) & (right == -1), ok)
        if not ok.all():
            raise HiergruError(
                f"tree {len(trees)} node {int(np.argmin(ok))} is neither a leaf "
                "nor a split on a feature below rho with children down its tree"
            )
        trees.append(
            Tree(
                feature=feature.astype(np.int64),
                threshold=threshold.copy(),
                left=left.astype(np.int64),
                right=right.astype(np.int64),
                value=value.copy(),
            )
        )
    return TreeEnsemble(
        trees=tuple(trees), mode="additive" if payload[0] == 1.0 else "average",
        shrinkage=float(payload[1]), base_value=float(payload[2]), rho=rho,
    )


def _encode_mlp(model: MlpModel):
    header = [float(len(model.sizes))] + [float(s) for s in model.sizes]
    return np.concatenate([header, mlp_flatten(model)]), 0, 0


def _decode_mlp(payload, hidden, input_dim, rho) -> MlpModel:
    """The network :func:`_encode_mlp` wrote, checked only for what every
    fitted network has (the rest is the load rule of
    :func:`~hiergru.checkpoint.load_bundle`): at least two layer sizes,
    each at least 1, and one output."""
    n_sizes = int(payload[0])
    sizes = tuple(int(s) for s in payload[1: 1 + n_sizes])
    if len(sizes) < 2 or min(sizes) < 1 or sizes[-1] != 1:
        raise HiergruError(f"layer sizes {sizes}: need 2 or more, each >= 1, last 1")
    return mlp_unflatten(payload[1 + n_sizes:], sizes)


# ------------------------------------------------------------------ fits

def _hrnn_anchors(panel, h, spec, cache):
    """The run's hrnn bundle for ``spec``, trained at most once and shared
    by hrnn and bihrnn entries; also says whether this call trained it."""
    fresh = spec not in cache
    if fresh:
        cache[spec] = train_hrnn(panel, h, spec)
    return cache[spec], fresh


def _fit_bihrnn(panel, h, spec, cache):
    anchors, fresh = _hrnn_anchors(panel, h, spec, cache)
    bundle = train_bihrnn(panel, h, spec, anchors)
    return bundle, anchors if fresh else None


def _keys(config_type) -> frozenset[str]:
    return frozenset(f.name for f in fields(config_type))


def _recurrent(fit, saves_anchors=False) -> TagEntry:
    return TagEntry(
        keys=_keys(TrainSpec), build=lambda params: TrainSpec(**params),
        fit=fit, encode=_encode_gru, decode=_decode_gru, saves_anchors=saves_anchors,
    )


def _per_node(fit):
    """A family fit that fits each node alone with ``fit(windows, rho, cfg)``."""
    return lambda nodes, rho: [fit(w, rho, cfg) for w, cfg in nodes]


def _baseline(tag, keys, make_cfg, fit_nodes, encode, decode, fixed_rule=False):
    """A baseline family: its config holds ``rho`` (default 4) and the
    family config that ``make_cfg`` builds from the remaining keys."""

    def build(params):
        params = dict(params)
        rho = params.pop("rho", 4)
        _check_fields({"rho": rho}, rho=_RHO)
        return rho, make_cfg(params)

    def fit(panel, h, config, cache):
        rho, cfg = config
        return fit_baseline(panel, h, tag, rho, cfg), None

    return TagEntry(
        keys=frozenset({"rho", *keys}), build=build, fit=fit, encode=encode,
        decode=decode, fit_nodes=fit_nodes, fixed_rule=fixed_rule,
    )


def _fc_config(params):
    hidden = params.pop("hidden", 100)
    _check_fields({"hidden": hidden}, hidden=_COUNT)  # quoted as written
    return MlpConfig(hidden=(hidden,), **params)


TAGS: dict[str, TagEntry] = {
    "ar": _baseline(
        "ar", (), lambda p: None, _per_node(lambda w, rho, cfg: fit_ar(w, rho)),
        lambda m: (m.coeffs.copy(), 0, 0),
        lambda payload, *_: ArModel(coeffs=payload.copy()),
    ),
    "rw": _baseline(
        "rw", (), lambda p: None, _per_node(lambda w, rho, cfg: RwModel(rho=rho)),
        lambda m: (np.array([float(m.rho)]), 0, 0),
        lambda payload, *_: RwModel(rho=int(payload[0])),
        fixed_rule=True,
    ),
    "rf": _baseline(
        "rf", _keys(ForestConfig), lambda p: ForestConfig(**p),
        _per_node(lambda *a: fit_forest(*a)), _encode_trees, _decode_trees,
    ),
    "gbt": _baseline(
        "gbt", _keys(GbtConfig), lambda p: GbtConfig(**p),
        lambda *a: fit_gbt_nodes(*a), _encode_trees, _decode_trees,
    ),
    "fc": _baseline(
        "fc", _keys(MlpConfig), _fc_config, _per_node(lambda *a: fit_mlp(*a)),
        _encode_mlp, _decode_mlp,
    ),
    "deepnn": _baseline(
        "deepnn", _keys(MlpConfig) - {"hidden"},
        lambda p: replace(DEEPNN_CONFIG, **p),
        _per_node(lambda *a: fit_mlp(*a)), _encode_mlp, _decode_mlp,
    ),
    "sgru": _recurrent(
        lambda panel, h, spec, cache: (train_sgru(panel, h, spec), None)
    ),
    "igru": _recurrent(
        lambda panel, h, spec, cache: (train_igru(panel, h, spec), None)
    ),
    "knngru": _recurrent(
        lambda panel, h, spec, cache: (train_knn_gru(panel, h, spec), None)
    ),
    "hrnn": _recurrent(
        lambda panel, h, spec, cache: (_hrnn_anchors(panel, h, spec, cache)[0], None)
    ),
    "bihrnn": _recurrent(_fit_bihrnn, saves_anchors=True),
}
