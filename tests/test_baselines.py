from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import panel_from_rates
from helpers import fd_grad, grow_forest_oracle, rel_err
from hiergru import baselines
from hiergru.baselines import (
    ArModel,
    DEEPNN_CONFIG,
    ForestConfig,
    GbtConfig,
    MlpConfig,
    RwModel,
    fit_ar,
    fit_baseline,
    fit_forest,
    fit_gbt,
    fit_gbt_nodes,
    fit_mlp,
    _grow_forest,
    init_mlp,
    mlp_flatten,
    mlp_loss_and_grad,
    mlp_unflatten,
    predict_rw,
)
from hiergru.dataset import Window, make_windows
from hiergru.gru import init_params
from hiergru.errors import (
    HiergruError,
    InvalidSpecError,
    NodeSkippedWarning,
    NoTrainingDataError,
    WrongLengthError,
)
from hiergru.hierarchy import build_hierarchy
from hiergru.models import node_seed
from hiergru.registry import TAGS


def windows_from_series(series, rho):
    series = np.asarray(series, dtype=float)
    return [
        Window(inputs=series[t - rho: t].copy(), target=float(series[t]))
        for t in range(rho, len(series))
    ]


class TestAr:
    def test_recovers_noiseless_ar1(self):
        x = [0.0]
        for _ in range(30):
            x.append(2.0 + 0.5 * x[-1])
        model = fit_ar(windows_from_series(x, rho=1), rho=1)
        assert model.coeffs[0] == pytest.approx(2.0, abs=1e-8)
        assert model.coeffs[1] == pytest.approx(0.5, abs=1e-8)

    def test_recovers_noiseless_ar2(self):
        rng = np.random.default_rng(0)
        x = list(rng.normal(size=2))
        for _ in range(60):
            x.append(1.0 + 0.4 * x[-1] - 0.3 * x[-2])
        model = fit_ar(windows_from_series(x, rho=2), rho=2)
        np.testing.assert_allclose(model.coeffs, [1.0, 0.4, -0.3], atol=1e-8)

    def test_constant_series_predicts_constant_anywhere(self):
        model = fit_ar(windows_from_series([3.7] * 12, rho=3), rho=3)
        assert model.coeffs[0] == pytest.approx(3.7, abs=1e-10)
        np.testing.assert_allclose(model.coeffs[1:], 0.0, atol=1e-10)
        assert model.predict(np.array([9.0, -4.0, 100.0])) == pytest.approx(3.7)

    @pytest.mark.parametrize("exponent", [-50, -400])
    def test_slopes_do_not_depend_on_the_series_scale(self, exponent):
        # scaling by a power of two is exact, so a cutoff relative to the
        # data keeps every bit of the slopes of a tiny series
        rng = np.random.default_rng(0)
        x = [rng.normal() / 0.6]
        for e in rng.normal(size=199):
            x.append(0.8 * x[-1] + e)
        model = fit_ar(windows_from_series(x, rho=2), rho=2)
        small = fit_ar(windows_from_series(np.ldexp(x, exponent), rho=2), rho=2)
        assert model.coeffs[1:] == pytest.approx([0.838, -0.017], abs=1e-3)
        assert small.coeffs[1:].tobytes() == model.coeffs[1:].tobytes()
        assert small.coeffs[0] == np.ldexp(model.coeffs[0], exponent)

    def test_iid_noise_slope_vanishes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4000)
        model = fit_ar(windows_from_series(x, rho=1), rho=1)
        assert abs(model.coeffs[1]) < 3.0 / np.sqrt(len(x) - 1)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=80)
        rho = 3
        ws = windows_from_series(x, rho)
        model = fit_ar(ws, rho)
        inputs = np.stack([w.inputs for w in ws])
        targets = np.array([w.target for w in ws])
        preds = np.array([model.predict(w.inputs) for w in ws])
        resid = targets - preds
        assert abs(resid.sum()) < 1e-8
        for col in inputs.T:
            assert abs(resid @ col) < 1e-8

    def test_no_data(self):
        fits = [
            lambda: fit_ar([], rho=2),
            lambda: fit_forest([], 2, ForestConfig()),
            lambda: fit_gbt([], 2, GbtConfig()),
            lambda: fit_mlp([], 2, MlpConfig()),
        ]
        for fit in fits:
            with pytest.raises(NoTrainingDataError):
                fit()


@pytest.mark.parametrize("fit", [
    lambda ws, rho: fit_ar(ws, rho),
    lambda ws, rho: fit_forest(ws, rho, ForestConfig(n_trees=2)),
    lambda ws, rho: fit_gbt(ws, rho, GbtConfig(n_trees=2)),
    lambda ws, rho: fit_mlp(ws, rho, MlpConfig(hidden=(3,), epochs=1)),
], ids=["ar", "rf", "gbt", "fc"])
@pytest.mark.parametrize("widths", [[3] * 6, [3, 3, 5, 3]], ids=["narrow", "ragged"])
def test_fit_rejects_windows_not_rho_wide(fit, widths):
    """Training windows of width 3 at rho 5, or of unequal widths."""
    ws = [Window(np.arange(float(k)), float(i)) for i, k in enumerate(widths)]
    with pytest.raises(WrongLengthError):
        fit(ws, 5)


class TestRw:
    def test_mean(self):
        assert predict_rw([1.0, 2.0, 3.0], 3) == pytest.approx(2.0)

    def test_constant(self):
        assert predict_rw([4.2] * 5, 5) == pytest.approx(4.2)

    def test_rho_one_identity(self):
        assert predict_rw([7.7], 1) == 7.7

    def test_wrong_length(self):
        with pytest.raises(WrongLengthError):
            predict_rw([1.0, 2.0], 3)

    def test_equals_restricted_ar(self):
        rng = np.random.default_rng(3)
        rho = 4
        forced = ArModel(coeffs=np.concatenate([[0.0], np.full(rho, 1.0 / rho)]))
        rw = RwModel(rho=rho)
        for _ in range(50):
            w = rng.normal(size=rho)
            assert rw.predict(w) == pytest.approx(forced.predict(w), abs=1e-12)


class TestForest:
    def test_depth_zero_predicts_bootstrap_means(self):
        rng = np.random.default_rng(4)
        ws = windows_from_series(rng.normal(size=40), rho=2)
        ens = fit_forest(ws, 2, ForestConfig(n_trees=50, max_depth=0, seed=0))
        targets = np.array([w.target for w in ws])
        pred = ens.predict(np.zeros(2))
        assert pred == pytest.approx(targets.mean(), abs=3 * targets.std() / np.sqrt(50))
        for t in ens.trees:
            assert len(t.value) == 1  # stumps never split at depth 0

    def test_single_window_memorized(self):
        ws = [Window(inputs=np.array([1.0, 2.0]), target=5.0)]
        ens = fit_forest(ws, 2, ForestConfig(n_trees=10, seed=1))
        assert ens.predict(np.array([1.0, 2.0])) == pytest.approx(5.0)

    def test_piecewise_constant_target_learned(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(200, 3))
        y = np.where(x[:, 1] > 0.0, 2.0, -1.0)
        ws = [Window(inputs=row, target=float(t)) for row, t in zip(x, y)]
        ens = fit_forest(
            ws, 3, ForestConfig(n_trees=50, max_depth=2, feature_frac=1.0, seed=2)
        )
        preds = np.array([ens.predict(row) for row in x])
        assert np.mean((preds - y) ** 2) < 0.1 * y.var()

    def test_tree_order_permutation_invariant(self):
        rng = np.random.default_rng(6)
        ws = windows_from_series(rng.normal(size=60), rho=3)
        ens = fit_forest(ws, 3, ForestConfig(n_trees=20, seed=3))
        shuffled = type(ens)(
            trees=tuple(reversed(ens.trees)), mode=ens.mode,
            shrinkage=ens.shrinkage, base_value=ens.base_value, rho=ens.rho,
        )
        w = rng.normal(size=3)
        assert ens.predict(w) == pytest.approx(shuffled.predict(w), abs=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        ws = windows_from_series(rng.normal(size=50), rho=2)
        a = fit_forest(ws, 2, ForestConfig(n_trees=10, seed=9))
        b = fit_forest(ws, 2, ForestConfig(n_trees=10, seed=9))
        probe = rng.normal(size=2)
        assert a.predict(probe) == b.predict(probe)


class TestBatchedTrees:
    @staticmethod
    def probes(trees, rng, rho):
        """Random rows, plus for every split a row sitting exactly on its
        threshold, and one just above it."""
        rows = list(rng.normal(size=(20, rho)))
        for tree in trees:
            for f, thr in zip(tree.feature, tree.threshold):
                if f >= 0:
                    for value in (thr, np.nextafter(thr, np.inf)):
                        row = rng.normal(size=rho)
                        row[f] = value
                        rows.append(row)
        return np.array(rows)

    @pytest.mark.parametrize("fit, cfg", [
        (fit_forest, ForestConfig(n_trees=15, max_depth=4, seed=1)),
        (fit_gbt, GbtConfig(n_trees=15, max_depth=3, shrinkage=0.3)),
        (fit_gbt, GbtConfig(n_trees=0)),
    ])
    def test_batch_equals_rows_bit_for_bit(self, fit, cfg):
        rng = np.random.default_rng(12)
        ws = windows_from_series(rng.normal(size=60), rho=3)
        ens = fit(ws, 3, cfg)
        x = self.probes(ens.trees, rng, 3)
        for tree in ens.trees:
            rows = np.array([tree.predict(r) for r in x])
            assert tree.predict_batch(x).tobytes() == rows.tobytes()
        # the ensemble rule applied row by row to Tree.predict outputs: their
        # mean, or the base value plus the shrunk sum in tree order
        outs = [[t.predict(r) for t in ens.trees] for r in x]
        if ens.mode == "average":
            rows = np.array([np.mean(o) for o in outs])
        else:
            rows = np.array([ens.base_value + ens.shrinkage * sum(o) for o in outs])
        assert ens.predict_batch(x).tobytes() == rows.tobytes()
        assert np.array([ens.predict(r) for r in x]).tobytes() == rows.tobytes()

    def test_wrong_width_rejected(self):
        """Every baseline node model: ``predict_batch`` checks the batch, and
        ``predict`` forwards its window to it as a one-row batch."""
        ws = windows_from_series(np.arange(10.0), 2)
        models = [
            fit_ar(ws, 2),
            RwModel(2),
            fit_forest(ws, 2, ForestConfig(n_trees=2)),
            fit_gbt(ws, 2, GbtConfig(n_trees=2)),
            fit_mlp(ws, 2, MlpConfig(hidden=(3,), epochs=1)),
        ]
        for model in models:
            for bad in (np.zeros((4, 3)), np.zeros(2)):
                with pytest.raises(WrongLengthError):
                    model.predict_batch(bad)
            for bad in (np.zeros(3), np.zeros((1, 2))):
                with pytest.raises(WrongLengthError):
                    model.predict(bad)

    def test_predict_is_the_one_row_batch(self):
        """Every node model kind: ``predict(w)`` has the bits of
        ``predict_batch(w[None])[0]``."""
        rng = np.random.default_rng(8)
        ws = windows_from_series(rng.normal(size=30), 3)
        models = [
            fit_ar(ws, 3),
            RwModel(3),
            fit_forest(ws, 3, ForestConfig(n_trees=4)),
            fit_gbt(ws, 3, GbtConfig(n_trees=4)),
            fit_mlp(ws, 3, MlpConfig(hidden=(4,), epochs=3)),
            init_params(4, rng),
        ]
        for model in models:
            for w in rng.normal(size=(5, 3)):
                one = np.float64(model.predict(w)).tobytes()
                assert one == model.predict_batch(w[None])[:1].tobytes(), model


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_same_tree(got, want):
    for name in TREE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def training_rows(draw, n, rho):
    """One-decimal values so ties occur, optionally a constant column or a
    constant target."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(size=(n, rho)), 1)
    y = np.round(rng.normal(size=n) * draw(st.sampled_from([1.0, 10.0])), 1)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, rho - 1))] = 0.3
    if draw(st.booleans()):
        y[:] = -1.5
    return x, y, rng


def growth_settings(draw, rho):
    return {
        "max_depth": draw(st.integers(0, 6)),
        "min_leaf": draw(st.sampled_from([1, 2])),
        "feature_count": draw(st.integers(1, rho)),
    }


@st.composite
def tree_inputs(draw):
    """Training rows for one tree, optionally bootstrap-duplicated, with
    every growth setting the fits use."""
    n = draw(st.integers(1, 120))
    rho = draw(st.integers(1, 12))
    x, y, rng = training_rows(draw, n, rho)
    if draw(st.booleans()):
        boot = rng.integers(0, n, size=n)
        x, y = x[boot], y[boot]
    return x, y, growth_settings(draw, rho), draw(st.integers(0, 2**32 - 1))


@st.composite
def forest_inputs(draw):
    """Shared rows and one to four bootstrap samples of unequal sizes (with
    duplicates), the growth settings, a seed, and a scoring pass size from
    one node per pass up to every node of a level at once."""
    n = draw(st.integers(1, 80))
    rho = draw(st.integers(1, 10))
    x, y, rng = training_rows(draw, n, rho)
    boots = [rng.integers(0, n, size=draw(st.integers(1, n)))
             for _ in range(draw(st.integers(1, 4)))]
    cells = draw(st.sampled_from([1, 64, baselines._PASS_CELLS]))
    return x, y, boots, growth_settings(draw, rho), draw(st.integers(0, 2**32 - 1)), cells


def grow_tree(x, y, *, max_depth, min_leaf):
    """One tree on every row of ``x`` with every feature a candidate, as
    each boosting stage grows it."""
    (tree,) = _grow_forest(
        x, y, [np.arange(x.shape[0])], max_depth=max_depth, min_leaf=min_leaf,
        feature_count=x.shape[1], rng=None,
    )
    return tree


def grown_trees(x, y, kw, seed):
    """(rows, targets, tree) for one tree on all rows over every feature
    and for a forest on all rows and on one bootstrap sample."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    cases = [(x, y, grow_tree(x, y, max_depth=kw["max_depth"], min_leaf=kw["min_leaf"]))]
    boots = [np.arange(n), rng.integers(0, n, size=n)]
    forest = _grow_forest(x, y, boots, rng=rng, **kw)
    return cases + [(x[b], y[b], tree) for b, tree in zip(boots, forest)]


def assert_splits_as_scored(x, y, tree, min_leaf):
    """Each split sends its node's rows left or right exactly as the best
    cut on its feature does: the least summed child SSE among cuts between
    distinct values leaving >= min_leaf rows on each side."""

    def sse(rows):
        return float(((y[rows] - y[rows].mean()) ** 2).sum()) if rows.size else 0.0

    def visit(i, rows):
        f = tree.feature[i]
        if f < 0:
            return
        go_left = x[rows, f] <= tree.threshold[i]
        left, right = rows[go_left], rows[~go_left]
        assert min(left.size, right.size) >= min_leaf
        cuts = []
        for v in np.unique(x[rows, f])[:-1]:
            mask = x[rows, f] <= v
            if min(mask.sum(), (~mask).sum()) >= min_leaf:
                cuts.append(sse(rows[mask]) + sse(rows[~mask]))
        assert sse(left) + sse(right) == pytest.approx(min(cuts), rel=1e-9, abs=1e-9)
        visit(tree.left[i], left)
        visit(tree.right[i], right)

    visit(0, np.arange(x.shape[0]))


class TestTreeGrowth:
    @settings(max_examples=300, deadline=None)
    @given(tree_inputs())
    def test_presorted_grower_equals_per_node_sort(self, case):
        x, y, kw, _ = case
        got = grow_tree(x, y, max_depth=kw["max_depth"], min_leaf=kw["min_leaf"])
        (want,) = grow_forest_oracle(
            x, y, [np.arange(x.shape[0])], max_depth=kw["max_depth"],
            min_leaf=kw["min_leaf"], feature_count=x.shape[1], rng=None,
        )
        assert_same_tree(got, want)

    @settings(max_examples=600, deadline=None)
    @given(forest_inputs())
    def test_level_wise_forest_equals_per_node_oracle(self, case):
        # every tree byte for byte, whatever the scoring pass size; with
        # every feature a candidate, also the tree grown alone on the
        # bootstrap's rows
        x, y, boots, kw, seed, cells = case
        with mock.patch.object(baselines, "_PASS_CELLS", cells):
            got = _grow_forest(x, y, boots, rng=np.random.default_rng(seed), **kw)
        want = grow_forest_oracle(x, y, boots, rng=np.random.default_rng(seed), **kw)
        assert len(got) == len(want) == len(boots)
        for a, b in zip(got, want):
            assert_same_tree(a, b)
        if kw["feature_count"] == x.shape[1]:
            for b, tree in zip(boots, got):
                assert_same_tree(tree, grow_tree(
                    x[b], y[b], max_depth=kw["max_depth"], min_leaf=kw["min_leaf"]
                ))

    @settings(max_examples=200, deadline=None)
    @given(tree_inputs())
    def test_splits_partition_rows_as_scored(self, case):
        # in trees over every feature and in forests alike
        x, y, kw, seed = case
        for xt, yt, tree in grown_trees(x, y, kw, seed):
            assert_splits_as_scored(xt, yt, tree, kw["min_leaf"])

    @pytest.mark.parametrize("fit, cfg", [
        (fit_forest, ForestConfig(n_trees=30, max_depth=6, min_leaf=1, seed=4)),
        (fit_forest, ForestConfig(n_trees=5, max_depth=3, feature_frac=1.0, seed=5)),
        (fit_gbt, GbtConfig(n_trees=10, max_depth=4, subsample=0.8, seed=6)),
    ])
    def test_trees_are_depth_first_preorder(self, fit, cfg):
        # the layout checkpoints and _descend rely on, whatever the growth
        # order: root 0, each left child right after its parent, each right
        # child right after its left subtree; leaves hold -1, 0.0, -1, -1
        rng = np.random.default_rng(13)
        ens = fit(windows_from_series(np.round(rng.normal(size=90), 1), rho=4), 4, cfg)
        for tree in ens.trees:

            def visit(i) -> int:
                """Node i's subtree checked; returns the number after it."""
                if tree.feature[i] < 0:
                    assert (tree.threshold[i], tree.left[i], tree.right[i]) == (0.0, -1, -1)
                    return i + 1
                assert tree.left[i] == i + 1
                assert tree.right[i] == visit(i + 1)
                return visit(tree.right[i])

            assert visit(0) == tree.feature.shape[0]

    def test_fit_forest_draws_bootstraps_then_grows_groups(self):
        # all bootstraps first, one row per tree; then each group of trees
        # that fits the row budget grows level-wise from the same generator
        rng = np.random.default_rng(14)
        ws = windows_from_series(np.round(rng.normal(size=50), 1), rho=5)
        x = np.stack([w.inputs for w in ws])
        y = np.array([w.target for w in ws])
        cfg = ForestConfig(n_trees=7, max_depth=4, seed=8)
        with mock.patch.object(baselines, "_GROUP_ROWS", 3 * len(ws)):
            got = fit_forest(ws, 5, cfg).trees
        draws = np.random.default_rng(cfg.seed)
        boots = draws.integers(0, len(ws), size=(7, len(ws)))
        want = []
        for group in (boots[:3], boots[3:6], boots[6:]):
            want += grow_forest_oracle(
                x, y, list(group), max_depth=4, min_leaf=cfg.min_leaf,
                feature_count=2, rng=draws,
            )
        assert len(got) == 7
        for a, b in zip(got, want):
            assert_same_tree(a, b)

    def test_all_candidate_features_constant_gives_one_leaf(self):
        x = np.tile([1.0, -2.0, 0.5], (9, 1))
        y = np.arange(9.0)
        tree = grow_tree(x, y, max_depth=4, min_leaf=1)
        (forest_tree,) = _grow_forest(
            x, y, [np.arange(9)], max_depth=4, min_leaf=1, feature_count=2,
            rng=np.random.default_rng(0),
        )
        for t in (tree, forest_tree):
            assert t.feature.tolist() == [-1]
            assert t.value.tolist() == [4.0]


def boost_oracle(windows, rho, cfg):
    """Stagewise boosting of one node, each stage's tree grown node by node
    by ``grow_forest_oracle`` and applied row by row with ``Tree.predict``."""
    x = np.stack([w.inputs for w in windows])
    y = np.array([w.target for w in windows])
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    base = float(y.mean())
    current = np.full(n, base)
    trees = []
    for _ in range(cfg.n_trees):
        residual = y - current
        rows = np.arange(n)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.permutation(n)[: max(1, int(cfg.subsample * n))])
        (tree,) = grow_forest_oracle(
            x[rows], residual[rows], [np.arange(rows.size)], max_depth=cfg.max_depth,
            min_leaf=1, feature_count=rho, rng=None,
        )
        trees.append(tree)
        current = current + cfg.shrinkage * np.array([tree.predict(r) for r in x])
    return base, trees


@st.composite
def boosted_nodes(draw):
    """One to four nodes' windows of unequal counts, one gbt config for all
    (zero trees and depth zero included, subsample below 1 or not) with a
    seed per node, and a group row budget from one row (a group per node)
    up to every node in one group."""
    rho = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        x = np.round(rng.normal(size=(n, rho)), 1)
        y = np.round(rng.normal(size=n) * draw(st.sampled_from([1.0, 10.0])), 1)
        windows.append([Window(inputs=a, target=float(t)) for a, t in zip(x, y)])
    cfg = GbtConfig(
        n_trees=draw(st.integers(0, 6)), max_depth=draw(st.integers(0, 4)),
        shrinkage=draw(st.sampled_from([0.1, 0.3, 1.0])),
        subsample=draw(st.sampled_from([1.0, 0.7, 0.2])),
    )
    cfgs = [replace(cfg, seed=draw(st.integers(0, 2**32 - 1))) for _ in windows]
    return windows, rho, cfgs, draw(st.sampled_from([1, 40, baselines._GROUP_ROWS]))


def assert_same_ensemble(got, want):
    assert np.float64(got.base_value).tobytes() == np.float64(want.base_value).tobytes()
    assert (got.mode, got.shrinkage, got.rho) == (want.mode, want.shrinkage, want.rho)
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        assert_same_tree(a, b)


class TestGbt:
    @settings(max_examples=200, deadline=None)
    @given(boosted_nodes())
    def test_joint_fit_equals_one_node_fits(self, case):
        # every tree and base value byte for byte, whether the nodes share
        # one group or split across several
        windows, rho, cfgs, group_rows = case
        with mock.patch.object(baselines, "_GROUP_ROWS", group_rows):
            got = fit_gbt_nodes(list(zip(windows, cfgs)), rho)
        assert len(got) == len(windows)
        for ens, w, cfg in zip(got, windows, cfgs):
            assert_same_ensemble(ens, fit_gbt(w, rho, cfg))
            base, trees = boost_oracle(w, rho, cfg)
            assert np.float64(ens.base_value).tobytes() == np.float64(base).tobytes()
            assert len(ens.trees) == len(trees) == cfg.n_trees
            for a, b in zip(ens.trees, trees):
                assert_same_tree(a, b)

    def test_nodes_boosted_in_groups_within_row_budget(self):
        # consecutive nodes share a group while their rows fit the budget;
        # each group grows all its stages, one grower call per stage
        rng = np.random.default_rng(16)
        counts = [5, 7, 4, 9]
        windows = [windows_from_series(rng.normal(size=m + 2), rho=2) for m in counts]
        with mock.patch.object(baselines, "_GROUP_ROWS", 12), mock.patch.object(
            baselines, "_grow_forest", wraps=baselines._grow_forest
        ) as grower:
            fit_gbt_nodes([(w, GbtConfig(n_trees=2, seed=i))
                           for i, w in enumerate(windows)], 2)
        calls = [[b.size for b in c.args[2]] for c in grower.call_args_list]
        assert calls == [[5, 7], [5, 7], [4], [4], [9], [9]]

    def test_joint_fit_rejects_nodes_without_windows(self):
        # before anything is boosted, even the group that the first node
        # fills to the row budget
        ws = windows_from_series(np.arange(12.0), rho=2)
        with mock.patch.object(baselines, "_GROUP_ROWS", 1), \
                mock.patch.object(baselines, "_boost", side_effect=AssertionError):
            with pytest.raises(NoTrainingDataError):
                fit_gbt_nodes([(ws, GbtConfig()), ([], GbtConfig(seed=1))], 2)

    def test_fit_baseline_skips_nodes_and_fits_the_rest_jointly(self):
        # nodes B and E have no training windows: each warns, in bfs order,
        # and the others' models are their one-node fits under node seeds
        h = build_hierarchy([
            ("A", None, 1.0), ("B", "A", 0.5), ("C", "A", 0.5),
            ("D", "C", 0.5), ("E", "C", 0.5),
        ])
        rng = np.random.default_rng(15)
        lengths = {"A": 60, "B": 3, "C": 41, "D": 25, "E": 2}
        panel = panel_from_rates(
            {n: np.round(rng.normal(size=m), 1) for n, m in lengths.items()}
        )
        cfg = GbtConfig(n_trees=6, max_depth=3, subsample=0.7, seed=3)
        with pytest.warns(NodeSkippedWarning) as record:
            bundle = fit_baseline(panel, h, "gbt", rho=3, cfg=cfg)
        assert [str(w.message) for w in record] == [
            f"node {n!r} has no training windows; gbt model unavailable"
            for n in ("B", "E")
        ]
        want_prov = []
        for n in h.bfs_order():
            ws = make_windows(panel, n, 3, "train")
            if not ws:
                want_prov.append((n, [("windows", 0), ("skipped", True)]))
                continue
            seeded = replace(cfg, seed=node_seed(cfg.seed, n))
            want_prov.append((n, [("windows", len(ws)), ("seed", seeded.seed)]))
            assert_same_ensemble(bundle.models[n], fit_gbt(ws, 3, seeded))
        assert [(n, list(p.items())) for n, p in bundle.provenance.items()] == want_prov
        assert list(bundle.models) == ["A", "C", "D"]

    def test_zero_trees_predicts_mean(self):
        rng = np.random.default_rng(8)
        ws = windows_from_series(rng.normal(size=30), rho=2)
        ens = fit_gbt(ws, 2, GbtConfig(n_trees=0))
        targets = np.array([w.target for w in ws])
        assert ens.predict(np.zeros(2)) == pytest.approx(targets.mean())

    def test_residuals_vanish_geometrically(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        ws = [Window(inputs=row, target=float(t)) for row, t in zip(x, y)]
        ens = fit_gbt(ws, 2, GbtConfig(n_trees=20, max_depth=4, shrinkage=1.0))
        preds = np.array([ens.predict(row) for row in x])
        assert np.mean((preds - y) ** 2) < 1e-6

    def test_stage_never_increases_train_mse(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 3))
        y = x[:, 0] * 2 + rng.normal(size=40) * 0.1
        ws = [Window(inputs=row, target=float(t)) for row, t in zip(x, y)]
        ens = fit_gbt(ws, 3, GbtConfig(n_trees=25, max_depth=2, shrinkage=0.3))
        current = np.full(40, ens.base_value)
        mses = [np.mean((y - current) ** 2)]
        for tree in ens.trees:
            current = current + ens.shrinkage * tree.predict_batch(x)
            mses.append(np.mean((y - current) ** 2))
        assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))

    def test_stage_order_matters_in_fitting(self):
        # the second stage fits residuals of the first, so the two trees of
        # a 2-stage model cannot be interchangeable fits of the raw target
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 2))
        y = x[:, 0] + 0.5 * rng.normal(size=30)
        ws = [Window(inputs=row, target=float(t)) for row, t in zip(x, y)]
        ens = fit_gbt(ws, 2, GbtConfig(n_trees=2, max_depth=2, shrinkage=1.0))
        t1, t2 = ens.trees
        p1 = t1.predict_batch(x)
        p2 = t2.predict_batch(x)
        assert not np.allclose(p1, p2)


class TestMlp:
    def test_zero_final_layer_predicts_zero(self):
        model = init_mlp(3, (8, 8), np.random.default_rng(0))
        assert model.predict(np.array([1.0, -2.0, 0.5])) == 0.0

    def test_arrays_are_read_only_views_of_vec(self):
        model = init_mlp(3, (5, 4), np.random.default_rng(9))
        arrays = (model.vec, *model.weights, *model.biases)
        for a in arrays:
            assert np.shares_memory(a, model.vec)
            with pytest.raises(ValueError):
                a[0] = 1.0
        copy = mlp_flatten(model)
        copy[0] = 1.0
        assert not np.shares_memory(copy, model.vec) and model.vec[0] != 1.0

    def test_loss_and_grad_rejects_malformed_batch(self):
        model = init_mlp(3, (4,), np.random.default_rng(0))
        x, y = np.zeros((5, 3)), np.zeros(5)
        for bad_x, bad_y in (([[1.0, 2.0]], y[:1]), (x, y[:4]), (x, np.zeros((5, 1)))):
            with pytest.raises(WrongLengthError):
                mlp_loss_and_grad(model, bad_x, bad_y)

    def test_flatten_roundtrip(self):
        model = init_mlp(4, (5,), np.random.default_rng(1))
        back = mlp_unflatten(mlp_flatten(model), model.sizes)
        assert mlp_flatten(back).tobytes() == mlp_flatten(model).tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            hidden = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3))))
            rho = int(rng.integers(1, 5))
            model = init_mlp(rho, hidden, rng)
            # move off the zero final layer so the full network is exercised
            vec = mlp_flatten(model) + rng.normal(0, 0.3, size=mlp_flatten(model).size)
            model = mlp_unflatten(vec, model.sizes)
            x = rng.normal(size=(6, rho))
            y = rng.normal(size=6)
            _, grad = mlp_loss_and_grad(model, x, y)
            fd = fd_grad(
                lambda v: mlp_loss_and_grad(mlp_unflatten(v, model.sizes), x, y)[0],
                mlp_flatten(model),
            )
            assert rel_err(grad, fd) < 1e-6

    def test_linear_target_learned(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.5
        ws = [Window(inputs=row, target=float(t)) for row, t in zip(x, y)]
        model = fit_mlp(ws, 2, MlpConfig(hidden=(32,), lr=0.01, epochs=800, seed=4))
        preds = model.predict_batch(x)
        assert np.mean((preds - y) ** 2) < 1e-3

    def test_deepnn_preset(self):
        assert DEEPNN_CONFIG.hidden == (100,) * 10
        assert DEEPNN_CONFIG.lr == 0.005
        assert DEEPNN_CONFIG.epochs == 50

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        ws = windows_from_series(rng.normal(size=40), rho=3)
        a = fit_mlp(ws, 3, MlpConfig(hidden=(10,), epochs=30, seed=6))
        b = fit_mlp(ws, 3, MlpConfig(hidden=(10,), epochs=30, seed=6))
        assert mlp_flatten(a).tobytes() == mlp_flatten(b).tobytes()


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda v: ForestConfig(max_depth=v), "max_depth"),
        (lambda v: GbtConfig(n_trees=v), "n_trees"),
        (lambda v: GbtConfig(shrinkage=v), "shrinkage"),
        (lambda v: MlpConfig(epochs=v), "epochs"),
        (lambda v: MlpConfig(lr=v), "lr"),
    ],
)
def test_infinite_config_value_rejected(make, key):
    with pytest.raises(InvalidSpecError, match=key):
        make(float("inf"))


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63, 2**64 - 1])
def test_non_negative_seed_keeps_numpy_stream(seed):
    got = baselines._seeded_rng(seed).bit_generator.state
    assert got == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("tag, fit, cfg", [
    ("rf", fit_forest, ForestConfig(n_trees=4, max_depth=3)),
    ("gbt", fit_gbt, GbtConfig(n_trees=4, max_depth=2)),
    ("gbt", fit_gbt, GbtConfig(n_trees=4, max_depth=2, subsample=0.5)),
    ("fc", fit_mlp, MlpConfig(hidden=(4,), epochs=5)),
])
def test_negative_seed_fits_repeatably(tag, fit, cfg):
    """Every integer seed fits, the same bytes each time; a negative seed
    draws another stream than its absolute value (gbt at subsample 1 draws
    nothing, so its seed never matters)."""
    ws = windows_from_series(np.random.default_rng(3).normal(size=40), 3)
    encode = TAGS[tag].encode
    payload = {}
    for seed in (-1, -3, 0, 1, 3):
        runs = [encode(fit(ws, 3, replace(cfg, seed=seed)))[0] for _ in range(2)]
        assert runs[0].tobytes() == runs[1].tobytes()
        payload[seed] = runs[0].tobytes()
    draws = tag != "gbt" or cfg.subsample < 1.0
    assert (payload[-1] != payload[1]) == draws
    assert (payload[-3] != payload[3]) == draws
    assert (payload[-1] != payload[-3]) == draws


class TestBaselineBundle:
    def test_forecast_contract_matches_recurrent_family(self, small_synth):
        h, panel = small_synth
        bundle = fit_baseline(panel, h, "ar", rho=2)
        node = h.root
        origin = panel.split_index[node]
        traj = bundle.forecast(panel, node, origin, horizon=3)
        assert traj.shape == (4,)
        # position 0 is the one-step prediction from the last observed window
        window = panel.rates[node][origin - 2: origin]
        assert traj[0] == pytest.approx(bundle.models[node].predict(window))

    def test_tag_not_a_baseline_rejected(self, small_synth):
        h, panel = small_synth
        for tag in ("igru", "bogus"):
            with pytest.raises(HiergruError, match=repr(tag)):
                fit_baseline(panel, h, tag, 4)

    def test_rw_bundle_forecast_hand_unrolled(self):
        panel = panel_from_rates({"A": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}, 0.75)
        h = build_hierarchy([("A", None, 1.0)])
        bundle = fit_baseline(panel, h, "rw", rho=2)
        traj = bundle.forecast(panel, "A", origin=5, horizon=2)
        # window [4, 5] -> 4.5; [5, 4.5] -> 4.75; [4.5, 4.75] -> 4.625
        np.testing.assert_allclose(traj, [4.5, 4.75, 4.625])
