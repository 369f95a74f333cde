import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import panel_from_rates
from helpers import fd_grad, grow_tree_oracle, rel_err
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
    fit_mlp,
    _grow_tree,
    init_mlp,
    mlp_flatten,
    mlp_loss_and_grad,
    mlp_unflatten,
    predict_rw,
)
from hiergru.dataset import Window, make_windows
from hiergru.errors import NoTrainingDataError, WrongLengthError
from hiergru.hierarchy import build_hierarchy


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
        with pytest.raises(NoTrainingDataError):
            fit_ar([], rho=2)


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
        rows = np.array([ens.predict(r) for r in x])
        assert ens.predict_batch(x).tobytes() == rows.tobytes()

    def test_wrong_width_rejected(self):
        ens = fit_forest(windows_from_series(np.arange(10.0), 2), 2,
                         ForestConfig(n_trees=2))
        with pytest.raises(WrongLengthError):
            ens.predict_batch(np.zeros((4, 3)))


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


@st.composite
def tree_inputs(draw):
    """Training rows for one tree: one-decimal values so ties occur, and
    optionally a constant column, bootstrap-duplicated rows or a constant
    target, with every growth setting the fits use."""
    n = draw(st.integers(1, 120))
    rho = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(size=(n, rho)), 1)
    y = np.round(rng.normal(size=n) * draw(st.sampled_from([1.0, 10.0])), 1)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, rho - 1))] = 0.3
    if draw(st.booleans()):
        boot = rng.integers(0, n, size=n)
        x, y = x[boot], y[boot]
    if draw(st.booleans()):
        y[:] = -1.5
    growth = {
        "max_depth": draw(st.integers(0, 6)),
        "min_leaf": draw(st.sampled_from([1, 2])),
        "feature_count": draw(st.integers(1, rho)),
    }
    return x, y, growth, draw(st.integers(0, 2**32 - 1))


class TestTreeGrowth:
    @settings(max_examples=300, deadline=None)
    @given(tree_inputs())
    def test_presorted_grower_equals_per_node_sort(self, case):
        x, y, kw, seed = case
        got = _grow_tree(x, y, rng=np.random.default_rng(seed), **kw)
        want = grow_tree_oracle(x, y, rng=np.random.default_rng(seed), **kw)
        for name in TREE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @settings(max_examples=200, deadline=None)
    @given(tree_inputs())
    def test_splits_partition_rows_as_scored(self, case):
        # Each split must send its node's rows left or right exactly as the
        # best cut on its feature does (the least summed child SSE among cuts
        # between distinct values leaving >= min_leaf rows on each side).
        x, y, kw, seed = case
        tree = _grow_tree(x, y, rng=np.random.default_rng(seed), **kw)
        min_leaf = kw["min_leaf"]

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

    def test_all_candidate_features_constant_gives_one_leaf(self):
        x = np.tile([1.0, -2.0, 0.5], (9, 1))
        y = np.arange(9.0)
        tree = _grow_tree(
            x, y, max_depth=4, min_leaf=1, feature_count=3,
            rng=np.random.default_rng(0),
        )
        assert tree.feature.tolist() == [-1]
        assert tree.value.tolist() == [4.0]


class TestGbt:
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

    def test_rw_bundle_forecast_hand_unrolled(self):
        panel = panel_from_rates({"A": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}, 0.75)
        h = build_hierarchy([("A", None, 1.0)])
        bundle = fit_baseline(panel, h, "rw", rho=2)
        traj = bundle.forecast(panel, "A", origin=5, horizon=2)
        # window [4, 5] -> 4.5; [5, 4.5] -> 4.75; [4.5, 4.75] -> 4.625
        np.testing.assert_allclose(traj, [4.5, 4.75, 4.625])
