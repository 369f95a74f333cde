import re
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import panel_from_rates
from helpers import ragged_panels, select_neighbors_oracle, stacked_windows_oracle
from hiergru.baselines import ForestConfig, GbtConfig, MlpConfig
from hiergru.cli import fit_entry
from hiergru.dataset import (
    SeriesPanel,
    SynthSpec,
    build_panel,
    make_windows,
    stack_windows,
    synth_panel,
)
from hiergru.errors import (
    DivergenceError,
    InsufficientHistoryError,
    InsufficientNeighborsWarning,
    InvalidSpecError,
    MissingPretrainedError,
    NodeSkippedWarning,
)
from hiergru import models
from hiergru.gru import (
    OptimState,
    flatten,
    init_params,
    optimize,
    optimize_stack,
    predict_sequence,
    zero_params,
)
from hiergru.hierarchy import build_hierarchy, child_weights, precision_schedule
from hiergru.models import (
    ModelBundle,
    TrainSpec,
    forecast,
    forecast_origins,
    node_seed,
    select_neighbors,
    train_bihrnn,
    train_hrnn,
    train_igru,
    train_knn_gru,
    train_sgru,
)
from hiergru.registry import TAGS

FAST = dict(rho=3, hidden=4, epochs=30, lr=0.005, seed=5)


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
    if set(a.models) != set(b.models):
        return False
    return all(
        flatten(a.models[n]).tobytes() == flatten(b.models[n]).tobytes()
        for n in a.models
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
        flats = {flatten(bundle.models[n]).tobytes() for n in h.nodes}
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
        assert b1.models["x"].predict(probe) == pytest.approx(
            b2.models["x"].predict(probe), abs=1e-10
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
        assert flatten(r1.models["a"]).tobytes() == flatten(r2.models["a"]).tobytes()
        assert flatten(r1.models["b"]).tobytes() != flatten(r2.models["b"]).tobytes()

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
        assert flatten(bundle.models["b"]).tobytes() == flatten(expected).tobytes()


class TestKnnGru:
    def test_neighbor_excludes_self_and_breaks_ties_lexicographically(self):
        base = np.sin(np.arange(40) / 3.0)
        panel = panel_from_rates({"a": base, "b": base.copy(), "c": base.copy()})
        h = build_hierarchy([("a", None, 1.0), ("b", "a", 1.0), ("c", "a", 1.0)])
        nbs = select_neighbors(panel, h, k=1)["a"]
        assert nbs == ("b",)  # b and c tie at correlation 1; b sorts first
        assert "a" not in select_neighbors(panel, h, k=2)["a"]

    def test_k_clamped_with_warning(self, two_level_panel):
        h, panel = two_level_panel
        with pytest.warns(InsufficientNeighborsWarning):
            nbs = select_neighbors(panel, h, k=10)["top"]
        assert len(nbs) == 2

    def test_training_uses_multichannel_windows(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(rho=3, hidden=4, epochs=20, lr=0.005, seed=8, k_neighbors=2)
        bundle = train_knn_gru(panel, h, spec)
        assert bundle.models["a"].input_dim == 3
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

    @settings(max_examples=200, deadline=None)
    @given(ragged_panels(), st.integers(1, 5), st.data())
    def test_windows_match_window_by_window_build(self, panel, rho, data):
        for n in panel.nodes:
            others = [c for c in panel.nodes if c != n]
            k = data.draw(st.integers(1, 4))
            channels = (n, *data.draw(st.permutations(others))[:k])
            got = panel.train_windows(n, rho, channels)
            want = stacked_windows_oracle(panel, n, channels, rho)
            if want is None:
                assert got is None
                continue
            for g, w in zip(got, want, strict=True):
                assert (g.shape, g.dtype) == (w.shape, w.dtype)
                assert g.tobytes() == w.tobytes()

    def test_no_window_built_when_split_at_most_rho(self, monkeypatch):
        panel = panel_from_rates({"a": np.arange(1.0, 9.0), "b": np.ones(8)})
        split = panel.split_index["a"]

        def refuse(self, nodes):
            raise AssertionError("train_overlap read with no window to fill")

        monkeypatch.setattr(SeriesPanel, "train_overlap", refuse)
        assert panel.train_windows("a", split, ("a", "b")) is None
        assert panel.train_windows("a", split + 1, ("a", "b")) is None

    @settings(max_examples=100, deadline=None)
    @given(ragged_panels(), st.integers(1, 5))
    def test_neighbors_match_scoring_every_ordered_pair(self, panel, k):
        nodes = sorted(panel.nodes)
        h = build_hierarchy(
            [(nodes[0], None, 1.0)] + [(n, nodes[0], 1.0) for n in nodes[1:]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InsufficientNeighborsWarning)
            got = select_neighbors(panel, h, k)
        assert tuple(got) == h.bfs_order()
        assert got == {n: select_neighbors_oracle(panel, n, k) for n in nodes}


class TestHrnn:
    def test_root_only_single_node(self):
        rng = np.random.default_rng(10)
        panel = panel_from_rates({"solo": rng.normal(size=40)})
        h = build_hierarchy([("solo", None, 1.0)])
        bundle = train_hrnn(panel, h, TrainSpec(**FAST))
        assert set(bundle.models) == {"solo"}
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
                    np.linalg.norm(flatten(b.models[n]) - flatten(b.models["top"]))
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
        dist = np.linalg.norm(flatten(bundle.models["a"]) - flatten(pre.models["top"]))
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
        shared = pre.models["p"]
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
                              build_hierarchy([(n, None, 1.0)]), spec).models[n]
                for n in s
            }
            pre = ModelBundle(tag="igru", rho=spec.rho, models=pre_params, spec=spec)
            return train_bihrnn(panel, h, spec, pre)

        clean = run(False)
        perturbed = run(True)
        # b's own data changed its fit, but a.x is outside b's neighborhood
        assert (
            flatten(clean.models["a.x"]).tobytes()
            == flatten(perturbed.models["a.x"]).tobytes()
        )
        assert (
            flatten(clean.models["b"]).tobytes()
            != flatten(perturbed.models["b"]).tobytes()
        )

    def test_missing_pretrained(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        pre = train_igru(panel, h, spec)
        broken = ModelBundle(
            tag="igru", rho=spec.rho,
            models={k: v for k, v in pre.models.items() if k != "a"},
            spec=spec,
        )
        with pytest.raises(MissingPretrainedError, match="a"):
            train_bihrnn(panel, h, spec, broken)


def own_data(panel, n, rho):
    return stack_windows(make_windows(panel, n, rho, "train"))


def seeded_init(spec, n, input_dim=1):
    rng = np.random.default_rng(node_seed(spec.seed, n))
    return init_params(spec.hidden, rng, input_dim=input_dim)


def alone(spec, params, data, regs=()):
    """One node trained on its own through :func:`optimize`."""
    opt = OptimState(lr=spec.lr, method=spec.optimizer)
    return optimize(params, *data, opt, epochs=spec.epochs, regularizers=regs)


def assert_trained_alone(bundle, n, spec, params, data, regs=()):
    trained, losses = alone(spec, params, data, regs)
    assert flatten(bundle.models[n]).tobytes() == flatten(trained).tobytes()
    prov = bundle.provenance[n]
    assert (prov["initial_loss"], prov["final_loss"]) == (losses[0], losses[-1])


class TestStackedGroups:
    """A node trained inside a stacked group gets the bits it gets trained
    on its own."""

    SPEC = TrainSpec(rho=3, hidden=4, epochs=15, lr=0.01, seed=3)

    def test_igru_group(self, small_synth):
        h, panel = small_synth
        bundle = train_igru(panel, h, self.SPEC)
        for n in h.nodes:
            data = own_data(panel, n, self.SPEC.rho)
            assert_trained_alone(bundle, n, self.SPEC, seeded_init(self.SPEC, n), data)

    def test_hrnn_levels(self, small_synth):
        h, panel = small_synth
        spec = self.SPEC
        assert max(len(level) for level in h.levels) > 1
        bundle = train_hrnn(panel, h, spec)
        tau = precision_schedule(panel, h, spec.alpha).tau
        for n in h.nodes:
            if n == h.root:
                regs = ((zero_params(spec.hidden), 0.5),)
            else:
                regs = ((bundle.models[h.parent[n]], 0.5 * tau[n]),)
            data = own_data(panel, n, spec.rho)
            assert_trained_alone(bundle, n, spec, seeded_init(spec, n), data, regs)

    def test_bihrnn_parent_and_child_anchors(self, small_synth):
        h, panel = small_synth
        spec = replace(self.SPEC, lambda1=0.7, lambda2=1.3)
        pre = train_hrnn(panel, h, spec)
        bundle = train_bihrnn(panel, h, spec, pre)
        both = 0
        for n in h.nodes:
            regs = []
            if n in h.parent:
                regs.append((pre.models[h.parent[n]], spec.lambda1))
            kids = h.children.get(n, ())
            if kids:
                shares = child_weights(h, n)
                regs += [(pre.models[c], spec.lambda2 * shares[c]) for c in kids]
            both += n in h.parent and bool(kids)
            data = own_data(panel, n, spec.rho)
            assert_trained_alone(bundle, n, spec, pre.models[n], data, tuple(regs))
        assert both > 1

    def test_knngru_ragged_panel_in_several_buckets(self):
        h, panel = ragged_five()
        spec = replace(self.SPEC, k_neighbors=2)
        bundle = train_knn_gru(panel, h, spec)
        buckets = Counter()
        for n in h.nodes:
            channels = (n, *bundle.neighbors[n])
            data = stacked_windows_oracle(panel, n, channels, spec.rho)
            init = seeded_init(spec, n, input_dim=len(channels))
            assert_trained_alone(bundle, n, spec, init, data)
            buckets[len(data[1]), len(channels)] += 1
        assert len(buckets) > 1 and max(buckets.values()) > 1

    @pytest.mark.parametrize("scale_b", [1e50, 1e40])
    def test_first_diverging_node_in_training_order_raises(self, scale_b):
        assert_first_diverging_node_raises(scale_b)


class TestRuns:
    """A bucket cut into several optimiser runs gives every node the bits
    and the provenance of a one-run fit."""

    SPEC = replace(TestStackedGroups.SPEC, k_neighbors=2)
    FITS = {
        "igru": train_igru,
        "knngru": train_knn_gru,
        "hrnn": train_hrnn,
        "bihrnn": lambda panel, h, spec: train_bihrnn(
            panel, h, spec, train_hrnn(panel, h, spec)
        ),
    }

    # small_synth's nodes have 87 windows each: runs of 2 nodes at 200 and
    # of 1 at 100; at 1 every node trains alone
    @pytest.mark.parametrize("tag, run_windows", [
        ("igru", 200), ("knngru", 1), ("hrnn", 200), ("bihrnn", 100),
    ])
    def test_runs_give_the_bits_of_one_run(self, small_synth, monkeypatch, tag,
                                           run_windows):
        h, panel = ragged_five() if tag == "knngru" else small_synth
        calls = []

        def recording(params, *args, **kwargs):
            calls.append(len(params))
            return optimize_stack(params, *args, **kwargs)

        monkeypatch.setattr(models, "optimize_stack", recording)
        one = self.FITS[tag](panel, h, self.SPEC)
        one_run_calls = len(calls)
        monkeypatch.setattr(models, "_RUN_WINDOWS", run_windows)
        runs = self.FITS[tag](panel, h, self.SPEC)
        assert len(calls) - one_run_calls > one_run_calls
        assert runs.models.keys() == one.models.keys()
        for n, p in one.models.items():
            assert flatten(runs.models[n]).tobytes() == flatten(p).tobytes(), n
        assert runs.provenance == one.provenance
        assert runs.neighbors == one.neighbors

    @pytest.mark.parametrize("scale_b", [1e50, 1e40])
    def test_first_diverging_node_across_runs(self, monkeypatch, scale_b):
        # every node trains in a run of its own
        monkeypatch.setattr(models, "_RUN_WINDOWS", 1)
        assert_first_diverging_node_raises(scale_b)


def ragged_five():
    """Five nodes under one root, of which "c" starts late and "e" ends
    early, so that knngru's nodes fall in several buckets."""
    rng = np.random.default_rng(17)
    base = rng.normal(size=60)
    series = {n: (0, base + 0.5 * rng.normal(size=60)) for n in "rabce"}
    series["c"] = (12, series["c"][1][12:])  # starts late
    series["e"] = (0, series["e"][1][:40])  # ends early
    panel = build_panel([f"p{t:03d}" for t in range(60)], series, 0.75)
    h = build_hierarchy([("r", None, 1.0)] + [(n, "r", 0.25) for n in "abce"])
    return h, panel


def assert_first_diverging_node_raises(scale_b):
    # "a" trains first and never diverges; "b" diverges late (at the
    # final loss with scale 1e40); "c", trained after "b", diverges
    # earlier in epochs.  A node-by-node loop raises for "b".
    rng = np.random.default_rng(23)
    panel = panel_from_rates({
        "a": rng.normal(size=40),
        "b": scale_b * rng.normal(size=40),
        "c": 1e100 * rng.normal(size=40),
    })
    h = build_hierarchy([("a", None, 1.0), ("b", "a", 0.5), ("c", "a", 0.5)])
    spec = TrainSpec(rho=3, hidden=4, epochs=60, lr=10.0, seed=2, optimizer="sgd")
    errors = {}
    for n in "abc":
        try:
            alone(spec, seeded_init(spec, n), own_data(panel, n, spec.rho))
        except DivergenceError as exc:
            errors[n] = exc
    assert "a" not in errors

    def epochs(n):
        return int(re.search(r"after (\d+) epochs", str(errors[n])).group(1))

    assert epochs("c") < epochs("b")
    with pytest.raises(DivergenceError) as exc:
        train_igru(panel, h, spec)
    assert str(exc.value) == str(errors["b"])
    assert exc.value.last_params.tobytes() == errors["b"].last_params.tobytes()


class Recorder:
    """Node model that records the windows it is asked about and predicts 99."""

    def __init__(self):
        self.seen = []

    def predict_batch(self, windows):
        self.seen.append(windows.copy())
        return np.full(windows.shape[0], 99.0)


class TestForecast:
    def test_horizon_zero_equals_predict_sequence(self, two_level_panel):
        h, panel = two_level_panel
        spec = TrainSpec(**FAST)
        bundle = train_igru(panel, h, spec)
        origin = panel.split_index["a"]
        window = panel.rates["a"][origin - spec.rho: origin]
        got = bundle.forecast(panel, "a", origin, 0)
        assert got.shape == (1,)
        assert got[0] == predict_sequence(bundle.models["a"], window)

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
        # a model returning the mean of its window, unrolled by hand; the
        # batch holds the origin twice
        class MeanModel:
            def predict_batch(self, windows):
                return np.mean(windows, axis=1)

        window = np.array([1.0, 2.0, 3.0])
        panel = panel_from_rates({"a": [1.0, 2.0, 3.0, 7.0]})
        bundle = ModelBundle(tag="mean", rho=3, models={"a": MeanModel()})
        preds = forecast_origins(bundle, panel, "a", [3, 3], 3)
        w = window.copy()
        expected = []
        for _ in range(4):
            p = w.mean()
            expected.append(p)
            w = np.append(w[1:], p)
        assert preds.shape == (2, 4)
        np.testing.assert_allclose(preds, [expected, expected], atol=1e-15)

    def test_no_origins_predict_nothing(self):
        # a rho longer than the series leaves no origin: the model is not
        # stepped over an empty batch once per horizon step
        class Refuses:
            def predict_batch(self, windows):
                raise AssertionError("predict_batch called with no origin")

        panel = panel_from_rates({"a": [1.0, 2.0, 3.0]})
        bundle = ModelBundle(tag="igru", rho=5, models={"a": Refuses()})
        for horizon in (0, 3):
            preds = forecast_origins(bundle, panel, "a", [], horizon)
            assert preds.shape == (0, horizon + 1) and preds.dtype == np.float64

    def test_roll_window_multichannel(self):
        # the rolled window drops its oldest row and appends the prediction
        # in channel 0; the neighbor channel keeps its last observed value
        panel = panel_from_rates({"a": [1.0, 2.0, 3.0], "b": [10.0, 20.0, 30.0]})
        recorder = Recorder()
        bundle = ModelBundle(
            tag="knngru", rho=2, models={"a": recorder}, neighbors={"a": ("b",)}
        )
        forecast_origins(bundle, panel, "a", [2], 1)
        first, rolled = recorder.seen
        np.testing.assert_array_equal(first, [[[1.0, 10.0], [2.0, 20.0]]])
        np.testing.assert_array_equal(rolled, [[[2.0, 20.0], [99.0, 20.0]]])

    def test_neighbor_cells_carry_forward_or_zero(self):
        # b ends at period 1 and carries forward; c starts at period 4 and
        # reads 0.0 before that
        series = {"a": (0, np.arange(1.0, 7.0)), "b": (0, np.array([10.0, 20.0])),
                  "c": (4, np.array([300.0, 400.0]))}
        panel = build_panel([f"p{i}" for i in range(6)], series, 0.5)
        recorder = Recorder()
        bundle = ModelBundle(
            tag="knngru", rho=3, models={"a": recorder}, neighbors={"a": ("b", "c")}
        )
        forecast_origins(bundle, panel, "a", [4, 6], 0)
        np.testing.assert_array_equal(recorder.seen[0], [
            [[2.0, 20.0, 0.0], [3.0, 20.0, 0.0], [4.0, 20.0, 0.0]],
            [[4.0, 20.0, 0.0], [5.0, 20.0, 300.0], [6.0, 20.0, 400.0]],
        ])

    def test_insufficient_history(self, two_level_panel):
        h, panel = two_level_panel
        bundle = train_igru(panel, h, TrainSpec(**FAST))
        with pytest.raises(InsufficientHistoryError):
            bundle.forecast(panel, "a", 1, 0)


def per_window_forecast(bundle, panel, node, origin, horizon):
    """Oracle: one window at a time through the node model's ``predict``,
    neighbor channels filled cell by cell (last earlier observation, 0.0
    before the first), rolled by hand."""
    rho = bundle.rho
    model = bundle.models[node]
    span = panel.periods[node][origin - rho: origin]
    channels = (node, *(bundle.neighbors or {}).get(node, ()))
    rows = []
    for period in span:
        row = []
        for c in channels:
            earlier = np.flatnonzero(panel.periods[c] <= period)
            row.append(panel.rates[c][earlier[-1]] if earlier.size else 0.0)
        rows.append(row)
    window = np.array(rows) if bundle.neighbors else np.array(rows)[:, 0]
    preds = []
    for _ in range(horizon + 1):
        preds.append(model.predict(window))
        window = np.concatenate([window[1:], window[-1:]])
        if window.ndim == 1:
            window[-1] = preds[-1]
        else:
            window[-1, 0] = preds[-1]
    return np.array(preds)


def rolled_forecast(bundle, panel, node, origins, horizon):
    """Oracle: every origin's window rolled forward together through the
    node model's own ``predict_batch``."""
    channels = None if bundle.neighbors is None else (node, *bundle.neighbors[node])
    windows = panel.forecast_windows(node, origins, bundle.rho, channels)
    preds = np.empty((origins.size, horizon + 1))
    for j in range(horizon + 1):
        preds[:, j] = bundle.models[node].predict_batch(windows)
        windows = np.concatenate([windows[:, 1:], windows[:, -1:]], axis=1)
        windows[(slice(None), -1, 0)[: windows.ndim]] = preds[:, j]
    return preds


# families whose batched arithmetic is the per-window arithmetic exactly;
# the others multiply matrices, where BLAS may sum a many-row product in a
# different order than a one-row product
BIT_EXACT_IN_BATCH = {"ar", "rw", "rf", "gbt"}


class TestForecastOrigins:
    @pytest.fixture(scope="class")
    def fitted(self):
        # root.1.1 ends early, so every knngru node (all others are its
        # neighbors) carries its last observation forward at test origins
        h, full = synth_panel(
            SynthSpec(depth=2, branching=2, length=50, leaf_noise_sd=0.5, seed=4)
        )
        series = {n: (0, full.rates[n]) for n in full.rates}
        series["root.1.1"] = (0, full.rates["root.1.1"][:42])
        panel = build_panel(full.calendar, series, 0.75)
        small = {"rho": 3, "hidden": 3, "epochs": 3, "n_trees": 4,
                 "max_depth": 3, "k_neighbors": 6}
        bundles = {}
        for tag, entry in TAGS.items():
            params = {k: v for k, v in small.items() if k in entry.keys}
            model = {"tag": tag, "label": tag, "params": params, "grid": {}}
            bundles[tag] = fit_entry(model, panel, h, 6, {})[0]
        return panel, bundles

    @pytest.mark.parametrize("tag", sorted(TAGS))
    def test_matches_per_origin_forecast(self, fitted, tag):
        panel, bundles = fitted
        bundle = bundles[tag]
        if tag == "knngru":
            assert all("root.1.1" in nbs for n, nbs in bundle.neighbors.items()
                       if n != "root.1.1")
        for node in bundle.covered_nodes():
            origins = panel.test_origins(node, bundle.rho)
            batch = bundle.forecast_origins(panel, node, origins, 3)
            assert batch.shape == (origins.size, 4)
            assert bundle.forecast_origins(panel, node, [], 3).shape == (0, 4)
            for row, origin in zip(batch, origins):
                one = bundle.forecast(panel, node, int(origin), 3)
                oracle = per_window_forecast(bundle, panel, node, origin, 3)
                assert one.tobytes() == oracle.tobytes(), (node, origin)
                if tag in BIT_EXACT_IN_BATCH:
                    assert row.tobytes() == one.tobytes(), (node, origin)
                else:
                    np.testing.assert_allclose(row, one, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("tag", sorted(TAGS))
    def test_stacked_forecast_matches_one_node_forecasts(self, fitted, tag):
        # root.1.1 has fewer test origins than the other nodes, so a GRU
        # bundle's nodes roll forward as two stacks; every node keeps the
        # bits of its one-node forecast and of rolling its own windows
        # through predict_batch
        panel, bundles = fitted
        bundle = bundles[tag]
        origins = {n: panel.test_origins(n, bundle.rho) for n in bundle.covered_nodes()}
        assert len({at.size for at in origins.values()}) == 2
        stacked = bundle.forecast_nodes(panel, origins, 3)
        assert stacked.keys() == origins.keys()
        for node, at in origins.items():
            alone = bundle.forecast_origins(panel, node, at, 3)
            assert stacked[node].tobytes() == alone.tobytes(), node
            assert alone.tobytes() == rolled_forecast(bundle, panel, node, at, 3).tobytes()

    def test_errors_name_the_bad_origin(self, fitted):
        panel, bundles = fitted
        node = "root.0"
        with pytest.raises(InsufficientHistoryError, match="origin 2 needs 3"):
            bundles["igru"].forecast_origins(panel, node, [5, 2, 1], 0)
        with pytest.raises(InsufficientHistoryError, match="beyond series length"):
            bundles["ar"].forecast_origins(panel, node, [5, 99], 0)


class TestConfigRules:
    @pytest.mark.parametrize(
        "config", [TrainSpec, ForestConfig, GbtConfig, MlpConfig, SynthSpec]
    )
    def test_every_field_carries_a_rule(self, config):
        assert all("rule" in f.metadata for f in fields(config))

    def test_optimizer_method_carries_a_rule(self):
        method = {f.name: f for f in fields(OptimState)}["method"]
        assert "rule" in method.metadata

    @pytest.mark.parametrize("key, value", [
        ("depth", True), ("depth", 2.0), ("length", 12.5), ("seed", 1.5),
    ])
    def test_synth_spec_rejects_wrong_kinds(self, key, value):
        spec = dict(depth=2, branching=2, length=40, leaf_noise_sd=0.5, seed=1)
        with pytest.raises(InvalidSpecError, match=rf"^{key} must be"):
            SynthSpec(**{**spec, key: value})
