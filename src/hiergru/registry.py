"""The model tags, one entry each: the config keys a tag accepts and their
types, the builder that turns validated keys into a training config, the
function that fits a bundle, and the codec that stores one node model as a
float64 checkpoint payload.

The CLI, :func:`~hiergru.baselines.fit_baseline` and the checkpoint reader
and writer look tags up here and nowhere else.  Fit functions are called
through their module names at call time (hence the forwarding lambdas), so
a wrapper installed on, say, ``fit_forest`` sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    fit_gbt,
    fit_mlp,
    mlp_flatten,
    mlp_unflatten,
)
from .errors import HiergruError, InvalidSpecError
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

    keys: dict[str, type]  # accepted config keys: int, float (any number) or str
    build: Callable  # validated params, seed included -> training config
    fit: Callable  # (panel, h, config, hrnn cache) -> (bundle, new anchors)
    encode: Callable  # node model -> (payload, hidden, input_dim)
    decode: Callable  # (payload, hidden, input_dim, rho) -> node model
    fit_node: Callable | None = None  # baselines: (windows, rho, cfg) -> model
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
    mode = "additive" if payload[0] == 1.0 else "average"
    trees = []
    at = 4
    for _ in range(int(payload[3])):
        n_nodes = int(payload[at])
        at += 1
        block = payload[at: at + 5 * n_nodes].reshape(n_nodes, 5)
        at += 5 * n_nodes
        trees.append(
            Tree(
                feature=block[:, 0].astype(np.int64),
                threshold=block[:, 1].copy(),
                left=block[:, 2].astype(np.int64),
                right=block[:, 3].astype(np.int64),
                value=block[:, 4].copy(),
            )
        )
    return TreeEnsemble(
        trees=tuple(trees), mode=mode, shrinkage=float(payload[1]),
        base_value=float(payload[2]), rho=rho,
    )


def _encode_mlp(model: MlpModel):
    header = [float(len(model.sizes))] + [float(s) for s in model.sizes]
    return np.concatenate([header, mlp_flatten(model)]), 0, 0


def _decode_mlp(payload, hidden, input_dim, rho) -> MlpModel:
    n_sizes = int(payload[0])
    sizes = tuple(int(s) for s in payload[1: 1 + n_sizes])
    return mlp_unflatten(payload[1 + n_sizes:], sizes)


# ------------------------------------------------------------------ fits

def _hrnn_anchors(panel, h, spec, cache):
    """The run's hrnn bundle for ``spec``, trained at most once and shared
    by hrnn and bihrnn entries; also says whether this call trained it."""
    fresh = spec not in cache
    if fresh:
        cache[spec] = train_hrnn(panel, h, spec)
    return cache[spec], fresh


def _fit_hrnn(panel, h, spec, cache):
    return _hrnn_anchors(panel, h, spec, cache)[0], None


def _fit_bihrnn(panel, h, spec, cache):
    anchors, fresh = _hrnn_anchors(panel, h, spec, cache)
    bundle = train_bihrnn(panel, h, spec, anchors)
    return bundle, anchors if fresh else None


_RNN_KEYS = {
    "rho": int, "hidden": int, "lr": float, "epochs": int, "alpha": float,
    "lambda1": float, "lambda2": float, "k_neighbors": int, "seed": int,
    "optimizer": str,
}


def _recurrent(fit, saves_anchors=False) -> TagEntry:
    return TagEntry(
        keys=_RNN_KEYS, build=lambda params: TrainSpec(**params), fit=fit,
        encode=_encode_gru, decode=_decode_gru, saves_anchors=saves_anchors,
    )


def _baseline(tag, keys, make_cfg, fit_node, encode, decode, fixed_rule=False):
    """A baseline family: its config holds ``rho`` (default 4) and the
    family config that ``make_cfg`` builds from the remaining keys."""

    def build(params):
        params = dict(params)
        rho = params.pop("rho", 4)
        if rho < 1:
            raise InvalidSpecError(f"rho must be >= 1, got {rho}")
        return rho, make_cfg(params)

    def fit(panel, h, config, cache):
        rho, cfg = config
        return fit_baseline(panel, h, tag, rho, cfg), None

    return TagEntry(
        keys={"rho": int, **keys}, build=build, fit=fit, encode=encode,
        decode=decode, fit_node=fit_node, fixed_rule=fixed_rule,
    )


def _fc_config(params):
    hidden = params.pop("hidden", 100)
    return MlpConfig(hidden=(int(hidden),), **params)


_TREE_KEYS = {"n_trees": int, "max_depth": int, "seed": int}

TAGS: dict[str, TagEntry] = {
    "ar": _baseline(
        "ar", {}, lambda p: None, lambda w, rho, cfg: fit_ar(w, rho),
        lambda m: (m.coeffs.copy(), 0, 0),
        lambda payload, *_: ArModel(coeffs=payload.copy()),
    ),
    "rw": _baseline(
        "rw", {}, lambda p: None, lambda w, rho, cfg: RwModel(rho=rho),
        lambda m: (np.array([float(m.rho)]), 0, 0),
        lambda payload, *_: RwModel(rho=int(payload[0])),
        fixed_rule=True,
    ),
    "rf": _baseline(
        "rf", {**_TREE_KEYS, "min_leaf": int, "feature_frac": float},
        lambda p: ForestConfig(**p),
        lambda w, rho, cfg: fit_forest(w, rho, cfg), _encode_trees, _decode_trees,
    ),
    "gbt": _baseline(
        "gbt", {**_TREE_KEYS, "shrinkage": float, "subsample": float},
        lambda p: GbtConfig(**p),
        lambda w, rho, cfg: fit_gbt(w, rho, cfg), _encode_trees, _decode_trees,
    ),
    "fc": _baseline(
        "fc", {"hidden": int, "lr": float, "epochs": int, "seed": int},
        _fc_config, lambda w, rho, cfg: fit_mlp(w, rho, cfg),
        _encode_mlp, _decode_mlp,
    ),
    "deepnn": _baseline(
        "deepnn", {"lr": float, "epochs": int, "seed": int},
        lambda p: replace(DEEPNN_CONFIG, **p),
        lambda w, rho, cfg: fit_mlp(w, rho, cfg), _encode_mlp, _decode_mlp,
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
    "hrnn": _recurrent(_fit_hrnn),
    "bihrnn": _recurrent(_fit_bihrnn, saves_anchors=True),
}
