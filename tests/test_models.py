import numpy as np
import pytest

from conftest import panel_from_rates
from hiergru.dataset import SynthSpec, make_windows, synth_panel
from hiergru.errors import (
    InsufficientHistoryError,
    InsufficientNeighborsWarning,
    MissingPretrainedError,
    NodeSkippedWarning,
)
from hiergru.gru import flatten, predict_sequence, zero_params
from hiergru.hierarchy import build_hierarchy
from hiergru.models import (
    ModelBundle,
    TrainSpec,
    forecast,
    node_seed,
    recursive_forecast,
    roll_window,
    select_neighbors,
    train_bihrnn,
    train_hrnn,
    train_igru,
    train_knn_gru,
    train_sgru,
)

FAST = dict(rho=3, hidden=4, epochs=30, lr=0.005, seed=5)


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
    if set(a.params) != set(b.params):
        return False
    return all(
        flatten(a.params[n]).tobytes() == flatten(b.params[n]).tobytes()
        for n in a.params
    )


@pytest.fixture
def two_level_panel():
    rng = np.random.default_rng(21)
    root = rng.normal(size=60)
    kid1 = root + 0.5 * rng.normal(size=60)
    kid2 = root + 0.5 * rng.normal(size=60)
    panel = panel_from_rates({"top": root, "a": kid1, "b": kid2})
    h = build_hierarchy([("top", None, 1.0), ("a", "top", 0.5), ("b", "top", 0.5)])
    return h, panel


class TestNodeSeed:
    def test_stable_and_distinct(self):
        assert node_seed(3, "Food") == node_seed(3, "Food")
        assert node_seed(3, "Food") != node_seed(3, "Energy")
        assert node_seed(3, "Food") != node_seed(4, "Food")


class TestSgru:
    def test_single_node_equals_igru(self):
        rng = np.random.default_rng(1)
        panel = panel_from_rates({"only": rng.normal(size=40)})
        h = build_hierarchy([("only", None, 1.0)])
        spec = TrainSpec(**FAST)
        assert bundles_equal(train_sgru(panel, h, spec), train_igru(panel, h, spec))

    def test_all_nodes_share_parameters(self, two_level_panel):
        h, panel = two_level_panel
        bundle = train_sgru(panel, h, TrainSpec(**FAST))
        flats = {flatten(bundle.params[n]).tobytes() for n in h.nodes}
        assert len(flats) == 1

    def test_duplicated_node_same_predictions(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=40)
        p1 = panel_from_rates({"x": series})
        h1 = build_hierarchy([("x", None, 1.0)])
        p2 = panel_from_rates({"x": series, "y": series.copy()})
        h2 = build_hierarchy([("x", None, 1.0), ("y", "x", 1.0)])
        spec = TrainSpec(**FAST)
        b1 = train_sgru(p1, h1, spec)
        b2 = train_sgru(p2, h2, spec)
        probe = rng.normal(size=spec.rho)
        assert b1.predict_next("x", probe) == pytest.approx(
            b2.predict_next("x", probe), abs=1e-10
        )


class TestIgru:
    def test_equals_hrnn_with_prior_scale_zero(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        igru = train_igru(panel, h, spec)
        hrnn0 = train_hrnn(panel, h, spec, prior_scale=0.0)
        assert bundles_equal(igru, hrnn0)

    def test_node_independence(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        h = build_hierarchy([("a", None, 1.0), ("b", "a", 1.0)])
        spec = TrainSpec(**FAST)
        r1 = train_igru(panel_from_rates({"a": a, "b": b}), h, spec)
        r2 = train_igru(panel_from_rates({"a": a, "b": b + 5.0}), h, spec)
        assert flatten(r1.params["a"]).tobytes() == flatten(r2.params["a"]).tobytes()
        assert flatten(r1.params["b"]).tobytes() != flatten(r2.params["b"]).tobytes()

    def test_determinism(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        assert bundles_equal(train_igru(panel, h, spec), train_igru(panel, h, spec))

    def test_jobs_do_not_change_results(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        assert bundles_equal(
            train_igru(panel, h, spec), train_igru(panel, h, spec, jobs=3)
        )

    def test_pure_noise_leaf_rmse_near_noise_sd(self):
        # Monte-Carlo oracle: on a leaf that is essentially white noise the
        # one-step test RMSE approaches the total noise scale
        h, panel = synth_panel(
            SynthSpec(depth=1, branching=1, length=500, leaf_noise_sd=10.0, seed=4)
        )
        leaf = "root.0"
        spec = TrainSpec(rho=4, hidden=4, epochs=100, lr=0.005, seed=6)
        bundle = train_igru(panel, h, spec)
        errs = []
        for t in panel.test_positions(leaf):
            pred = bundle.forecast(panel, leaf, t, 0)[0]
            errs.append((panel.rates[leaf][t] - pred) ** 2)
        rmse = np.sqrt(np.mean(errs))
        total_sd = np.sqrt(10.0 ** 2 + np.var(panel.rates["root"]))
        assert rmse == pytest.approx(total_sd, rel=0.25)

    def test_skipped_node_keeps_init(self):
        rng = np.random.default_rng(5)
        panel = panel_from_rates({"a": rng.normal(size=40), "b": rng.normal(size=3)})
        h = build_hierarchy([("a", None, 1.0), ("b", "a", 1.0)])
        spec = TrainSpec(rho=8, hidden=4, epochs=10, lr=0.005, seed=7)
        with pytest.warns(NodeSkippedWarning):
            bundle = train_igru(panel, h, spec)
        assert bundle.provenance["b"]["skipped"] is True
        from hiergru.gru import init_params

        expected = init_params(4, np.random.default_rng(node_seed(7, "b")))
        assert flatten(bundle.params["b"]).tobytes() == flatten(expected).tobytes()


class TestKnnGru:
    def test_neighbor_excludes_self_and_breaks_ties_lexicographically(self):
        base = np.sin(np.arange(40) / 3.0)
        panel = panel_from_rates({"a": base, "b": base.copy(), "c": base.copy()})
        h = build_hierarchy([("a", None, 1.0), ("b", "a", 1.0), ("c", "a", 1.0)])
        nbs = select_neighbors(panel, h, "a", k=1)
        assert nbs == ("b",)  # b and c tie at correlation 1; b sorts first
        assert "a" not in select_neighbors(panel, h, "a", k=2)

    def test_k_clamped_with_warning(self, two_level_panel):
        h, panel = two_level_panel
        with pytest.warns(InsufficientNeighborsWarning):
            nbs = select_neighbors(panel, h, "top", k=10)
        assert len(nbs) == 2

    def test_training_uses_multichannel_windows(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(rho=3, hidden=4, epochs=20, lr=0.005, seed=8, k_neighbors=2)
        bundle = train_knn_gru(panel, h, spec)
        assert bundle.params["a"].input_dim == 3
        assert bundle.neighbors["a"] == ("b", "top") or bundle.neighbors["a"] == (
            "top",
            "b",
        )

    def test_forecast_persists_neighbor_channels(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(rho=3, hidden=4, epochs=10, lr=0.005, seed=9, k_neighbors=2)
        bundle = train_knn_gru(panel, h, spec)
        origin = panel.split_index["a"]
        traj = bundle.forecast(panel, "a", origin, horizon=2)
        assert traj.shape == (3,)
        assert np.all(np.isfinite(traj))


class TestHrnn:
    def test_root_only_single_node(self):
        rng = np.random.default_rng(10)
        panel = panel_from_rates({"solo": rng.normal(size=40)})
        h = build_hierarchy([("solo", None, 1.0)])
        bundle = train_hrnn(panel, h, TrainSpec(**FAST))
        assert set(bundle.params) == {"solo"}
        assert bundle.provenance["solo"]["tau"] is None
        assert bundle.provenance["solo"]["anchor_coeff"] == 0.5

    def test_shrinkage_sweep(self, two_level_panel):
        h, panel = two_level_panel
        dists = {}
        for alpha in (-5.0, 10.0):
            spec = TrainSpec(rho=3, hidden=4, epochs=200, lr=0.005, seed=11, alpha=alpha)
            b = train_hrnn(panel, h, spec)
            dists[alpha] = np.mean(
                [
                    np.linalg.norm(flatten(b.params[n]) - flatten(b.params["top"]))
                    for n in ("a", "b")
                ]
            )
        assert dists[10.0] < 1e-2 * dists[-5.0]

    def test_provenance_records_tau_and_order(self, two_level_panel):
        h, panel = two_level_panel
        bundle = train_hrnn(panel, h, TrainSpec(**FAST))
        for n in ("a", "b"):
            prov = bundle.provenance[n]
            assert prov["tau"] == pytest.approx(
                np.exp(1.5 + prov["correlation"]), rel=1e-12
            )
            assert prov["anchor_coeff"] == pytest.approx(prov["tau"] / 2.0)
            # parents finalize before their children train
            assert bundle.provenance["top"]["train_order"] < prov["train_order"]

    def test_determinism_regardless_of_jobs(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        assert bundles_equal(
            train_hrnn(panel, h, spec), train_hrnn(panel, h, spec, jobs=4)
        )


class TestBihrnn:
    def test_epochs_zero_returns_pretrained_bitwise(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        pre = train_hrnn(panel, h, spec)
        frozen = train_bihrnn(
            panel, h, TrainSpec(**{**FAST, "epochs": 0, "lambda1": 0.0, "lambda2": 0.0}), pre
        )
        assert bundles_equal(frozen, pre)

    def test_large_lambda1_pins_leaf_to_parent_anchor(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(rho=3, hidden=4, epochs=300, lr=0.005, seed=12)
        pre = train_hrnn(panel, h, spec)
        strong = TrainSpec(
            rho=3, hidden=4, epochs=300, lr=0.005, seed=12,
            lambda1=1e4, lambda2=0.0,
        )
        bundle = train_bihrnn(panel, h, strong, pre)
        dist = np.linalg.norm(flatten(bundle.params["a"]) - flatten(pre.params["top"]))
        assert dist < 1e-3

    def test_zero_distance_anchors_inert_while_at_anchor(self):
        # when a node's parent and child anchors all equal its own pretrained
        # parameters the penalties contribute exactly nothing at that point,
        # so the first update (the whole run at epochs=1) is bitwise equal to
        # the lambda = 0 run; once the trajectory leaves the anchor the
        # penalty becomes active, as it must
        rng = np.random.default_rng(13)
        series = rng.normal(size=50)
        panel = panel_from_rates({"p": series, "c": series.copy()})
        h = build_hierarchy([("p", None, 1.0), ("c", "p", 1.0)])
        spec = TrainSpec(rho=3, hidden=4, epochs=40, lr=0.005, seed=14)
        pre = train_igru(panel, h, spec)
        shared = pre.params["p"]
        pre_equal = ModelBundle(
            tag="igru", rho=spec.rho,
            models={"p": shared, "c": shared},
            provenance=pre.provenance, spec=spec,
        )
        from hiergru.dataset import stack_windows
        from hiergru.gru import loss_and_grad

        x, y = stack_windows(make_windows(panel, "p", 3, "train"))
        l0, g0 = loss_and_grad(shared, x, y)
        l1, g1 = loss_and_grad(
            shared, x, y, regularizers=((shared, 3.0), (shared, 1.5))
        )
        assert l1 == l0
        np.testing.assert_allclose(g1, g0, atol=0)

        one_step = lambda lam: train_bihrnn(
            panel, h,
            TrainSpec(rho=3, hidden=4, epochs=1, lr=0.005, seed=14,
                      lambda1=lam, lambda2=lam),
            pre_equal,
        )
        assert bundles_equal(one_step(3.0), one_step(0.0))

    def test_anchor_locality(self):
        # perturbing a node outside {n, parent, children} leaves n untouched
        rng = np.random.default_rng(15)
        series = {
            "top": rng.normal(size=50),
            "a": rng.normal(size=50),
            "b": rng.normal(size=50),
            "a.x": rng.normal(size=50),
        }
        rows = [("top", None, 1.0), ("a", "top", 1.0), ("b", "top", 1.0),
                ("a.x", "a", 1.0)]
        h = build_hierarchy(rows)
        spec = TrainSpec(**FAST)

        def run(mutate):
            s = {k: v.copy() for k, v in series.items()}
            if mutate:
                s["b"] = s["b"] + 9.0
            panel = panel_from_rates(s)
            pre_params = {
                n: train_igru(panel_from_rates({n: s[n]}),
                              build_hierarchy([(n, None, 1.0)]), spec).params[n]
                for n in s
            }
            pre = ModelBundle(tag="igru", rho=spec.rho, models=pre_params, spec=spec)
            return train_bihrnn(panel, h, spec, pre)

        clean = run(False)
        perturbed = run(True)
        # b's own data changed its fit, but a.x is outside b's neighborhood
        assert (
            flatten(clean.params["a.x"]).tobytes()
            == flatten(perturbed.params["a.x"]).tobytes()
        )
        assert (
            flatten(clean.params["b"]).tobytes()
            != flatten(perturbed.params["b"]).tobytes()
        )

    def test_missing_pretrained(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        pre = train_igru(panel, h, spec)
        broken = ModelBundle(
            tag="igru", rho=spec.rho,
            models={k: v for k, v in pre.params.items() if k != "a"},
            spec=spec,
        )
        with pytest.raises(MissingPretrainedError, match="a"):
            train_bihrnn(panel, h, spec, broken)


class TestForecast:
    def test_horizon_zero_equals_predict_sequence(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        bundle = train_igru(panel, h, spec)
        origin = panel.split_index["a"]
        window = panel.rates["a"][origin - spec.rho: origin]
        got = bundle.forecast(panel, "a", origin, 0)
        assert got.shape == (1,)
        assert got[0] == predict_sequence(bundle.params["a"], window)

    def test_zero_params_forecast_zero(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        bundle = ModelBundle(
            tag="igru", rho=spec.rho,
            models={n: zero_params(spec.hidden) for n in h.nodes},
            spec=spec,
        )
        traj = bundle.forecast(panel, "a", panel.split_index["a"], 5)
        np.testing.assert_array_equal(traj, np.zeros(6))

    def test_hand_unrolled_recursion(self):
        # a model that returns the mean of its window, unrolled by hand
        class MeanModel:
            def predict(self, w):
                return float(np.mean(w))

        window = np.array([1.0, 2.0, 3.0])
        preds = recursive_forecast(MeanModel().predict, window.copy(), 3)
        w = window.copy()
        expected = []
        for _ in range(4):
            p = w.mean()
            expected.append(p)
            w = np.append(w[1:], p)
        np.testing.assert_allclose(preds, expected, atol=1e-15)

    def test_roll_window_multichannel(self):
        w = np.array([[1.0, 10.0], [2.0, 20.0]])
        rolled = roll_window(w, 99.0)
        np.testing.assert_array_equal(rolled, [[2.0, 20.0], [99.0, 20.0]])

    def test_insufficient_history(self, two_level_panel):
        h, panel = two_level_panel
        bundle = train_igru(panel, h, TrainSpec(**FAST))
        with pytest.raises(InsufficientHistoryError):
            bundle.forecast(panel, "a", 1, 0)
