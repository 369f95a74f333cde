import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import panel_from_rates
from hiergru.baselines import ForestConfig, fit_baseline
from hiergru.cli import run_grid_search
from hiergru.dataset import SeriesPanel
from hiergru.errors import HiergruError
from hiergru.hierarchy import build_hierarchy
from hiergru.evaluation import (
    DAILY_HORIZONS,
    MONTHLY_HORIZONS,
    Cell,
    EvalReport,
    _pairs,
    evaluate,
    forecast_table,
    render_level_report,
    render_raw,
    render_report,
    write_report_files,
)
from hiergru.metrics import rmse
from hiergru.models import ModelBundle, TrainSpec, train_igru, train_knn_gru


class PerfectOracle:
    """Test-only bundle that reads the future; exercises report plumbing."""

    tag = "oracle"
    label = None
    display_label = "oracle"
    rho = 1

    def __init__(self, panel: SeriesPanel):
        self.panel = panel
        self.model_map = {n: object() for n in panel.rates}

    def covered_nodes(self):
        return tuple(sorted(self.model_map))

    def forecast(self, panel, node, origin, horizon):
        rates = panel.rates[node]
        out = np.zeros(horizon + 1)
        for j in range(horizon + 1):
            if origin + j < rates.shape[0]:
                out[j] = rates[origin + j]
        return out


class TestEvaluate:
    def test_ar1_relative_cells_exactly_one(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0, 1, 2))
        for key, row in report.rows.items():
            assert row["avg_rel_rmse"].value == 1.0
            assert row["headline_rel_rmse"].value == 1.0
        for (label, node, j), m in report.node_metrics.items():
            assert m["rel_rmse"].value == 1.0

    def test_perfect_oracle(self, small_synth):
        h, panel = small_synth
        report = evaluate([PerfectOracle(panel)], panel, h, horizons=(0, 1))
        for row in report.rows.values():
            assert row["avg_rel_rmse"].value == 0.0
            assert row["avg_pearson"].value == pytest.approx(1.0)
            assert row["headline_rel_rmse"].value == 0.0
            assert row["headline_pearson"].value == pytest.approx(1.0)

    def test_origin_count(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=2)
        report = evaluate([ar1], panel, h, horizons=(0,))
        node = h.root
        expected = panel.length(node) - panel.split_index[node]
        assert report.node_metrics[("ar", node, 0)]["n"].value == expected

    def test_horizon_alignment_skips_overruns(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0, 5))
        node = h.root
        n0 = report.node_metrics[("ar", node, 0)]["n"].value
        n5 = report.node_metrics[("ar", node, 5)]["n"].value
        assert n5 == n0 - 5

    def test_horizon_past_the_data_rolls_no_further(self, small_synth):
        # 10**15 steps would ask the per-origin fallback for petabytes
        h, panel = small_synth
        asked = []

        class Recording(PerfectOracle):
            def forecast(self, panel, node, origin, horizon):
                asked.append(horizon)
                return super().forecast(panel, node, origin, horizon)

        far = evaluate([Recording(panel)], panel, h, horizons=(0, 10**15))
        near = evaluate([PerfectOracle(panel)], panel, h, horizons=(0,))
        reach = max(panel.length(n) - panel.split_index[n] - 1 for n in h.nodes)
        assert set(asked) == {reach}
        for (label, node, j), m in far.node_metrics.items():
            if j == 0:
                assert m == near.node_metrics[(label, node, 0)]
            else:
                assert m["rmse"] == Cell(None, "no-predictions")

    def test_rmse_matches_direct_computation(self, small_synth):
        h, panel = small_synth
        spec = TrainSpec(rho=3, hidden=4, epochs=20, lr=0.005, seed=1)
        bundle = train_igru(panel, h, spec)
        report = evaluate([bundle], panel, h, horizons=(0,))
        node = "root.0"
        preds, actuals = [], []
        for t in panel.test_positions(node):
            preds.append(bundle.forecast(panel, node, t, 0)[0])
            actuals.append(panel.rates[node][t])
        assert report.node_metrics[("igru", node, 0)]["rmse"].value == pytest.approx(
            rmse(actuals, preds), rel=1e-12
        )

    def test_duplicate_labels_rejected(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        with pytest.raises(HiergruError, match="duplicate"):
            evaluate([ar1, ar1], panel, h, horizons=(0,))

    def test_horizon_presets(self):
        assert MONTHLY_HORIZONS == (0, 1, 2, 3, 4, 8)
        assert DAILY_HORIZONS == (0, 1, 2, 3, 7, 14)


def ragged_panel():
    """Four nodes from period 0 that end at three different periods, so
    they have 12, 10 and 9 test origins."""
    rng = np.random.default_rng(11)
    lengths = {"r": 48, "a": 48, "b": 40, "c": 36}
    panel = panel_from_rates({n: rng.normal(size=k) for n, k in lengths.items()})
    h = build_hierarchy([("r", None, 1.0), ("a", "r", 0.4), ("b", "r", 0.3),
                         ("c", "r", 0.3)])
    return h, panel


class PerOrigin:
    """A bundle seen through its per-origin ``forecast`` alone, as a bundle
    without ``forecast_nodes`` (a :class:`PerfectOracle`) is."""

    def __init__(self, bundle):
        self.rho, self.model_map = bundle.rho, bundle.model_map
        self.forecast = bundle.forecast


# (fit, whether the batched forecasts are the per-origin ones bit for bit:
# a GRU multiplies matrices, where BLAS may sum a many-row product in a
# different order than a one-row product)
RAGGED_FITS = {
    "ar": (lambda panel, h: fit_baseline(panel, h, "ar", rho=2), True),
    "rf": (lambda panel, h: fit_baseline(
        panel, h, "rf", rho=3, cfg=ForestConfig(n_trees=3, seed=1)), True),
    "igru": (lambda panel, h: train_igru(
        panel, h, TrainSpec(rho=3, hidden=3, epochs=5, seed=1)), False),
    "knngru": (lambda panel, h: train_knn_gru(
        panel, h, TrainSpec(rho=3, hidden=3, epochs=5, k_neighbors=2, seed=1)), False),
}


class TestForecastTable:
    @pytest.mark.parametrize("tag", sorted(RAGGED_FITS))
    def test_ragged_panel(self, tag):
        h, panel = ragged_panel()
        fit, exact = RAGGED_FITS[tag]
        bundle = fit(panel, h)
        nodes = h.bfs_order()
        horizons = (0, 2, 11, 30)
        # a node the bundle has no model for gets no row
        table = forecast_table(bundle, panel, [*nodes, "elsewhere"], horizons)
        fallback = forecast_table(PerOrigin(bundle), panel, nodes, horizons)
        assert list(table) == list(fallback) == list(nodes)
        top = 11  # the farthest horizon the first origin of r or a reaches
        for node, (forecasts, actuals) in table.items():
            assert forecasts.shape == fallback[node][0].shape
            assert actuals.tobytes() == fallback[node][1].tobytes()
            if exact:
                assert forecasts.tobytes() == fallback[node][0].tobytes()
            else:
                np.testing.assert_allclose(forecasts, fallback[node][0], rtol=1e-10)
            at = panel.test_origins(node, bundle.rho)
            reached = at[:, None] + np.arange(top + 1)
            rates = panel.rates[node]
            assert actuals.shape == (at.size, top + 1)
            assert (np.isnan(actuals) == (reached >= rates.shape[0])).all()
            inside = ~np.isnan(actuals)
            assert (actuals[inside] == rates[reached[inside]]).all()
            # a horizon past the table gives no pairs
            for j in (top + 1, 30):
                assert all(a.size == 0 for a in _pairs((forecasts, actuals), j))
            preds, got = _pairs((forecasts, actuals), 2)
            assert got.tobytes() == rates[at[at + 2 < rates.shape[0]] + 2].tobytes()
            assert preds.tobytes() == forecasts[at + 2 < rates.shape[0], 2].tobytes()

    def test_no_origin_rolls_no_step(self, small_synth):
        h, panel = small_synth
        bundle = fit_baseline(panel, h, "rw", rho=200)
        table = forecast_table(bundle, panel, bundle.covered_nodes(), (0, 3))
        for forecasts, actuals in table.values():
            assert forecasts.shape == actuals.shape == (0, 1)


class TestForecastOnce:
    """Every evaluation and every grid candidate forecasts each bundle in
    one call: one :func:`forecast_table` per bundle."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = ModelBundle.forecast_nodes

        def counted(self, panel, origins, horizon):
            calls.append(self)
            return original(self, panel, origins, horizon)

        monkeypatch.setattr(ModelBundle, "forecast_nodes", counted)
        return calls

    def test_each_bundle_and_the_reference_once(self, small_synth, calls):
        h, panel = small_synth
        bundles = [
            fit_baseline(panel, h, "ar", rho=3),
            fit_baseline(panel, h, "rw", rho=2),
            train_igru(panel, h, TrainSpec(rho=3, hidden=3, epochs=2, seed=1)),
        ]
        evaluate(bundles, panel, h, horizons=MONTHLY_HORIZONS)
        assert len(calls) == len(bundles) + 1
        assert all(got is bundle for got, bundle in zip(calls[1:], bundles))
        assert calls[0].tag == "ar" and calls[0].rho == 1  # the reference

    def test_oracle_forecasts_each_origin_once(self, small_synth, calls):
        h, panel = small_synth
        asked = []

        class Recording(PerfectOracle):
            def forecast(self, panel, node, origin, horizon):
                asked.append((node, origin))
                return super().forecast(panel, node, origin, horizon)

        evaluate([Recording(panel)], panel, h, horizons=(0, 1, 4))
        assert len(calls) == 1  # the reference
        want = [(n, int(t)) for n in h.bfs_order() for t in panel.test_origins(n, 1)]
        assert asked == want

    @pytest.mark.parametrize("entry", [
        {"tag": "ar", "label": "ar", "params": {}, "grid": {"rho": [1, 2, 4]}},
        {"tag": "igru", "label": "igru", "params": {"epochs": 2, "rho": 2},
         "grid": {"hidden": [2, 3]}},
    ])
    def test_each_grid_candidate_once(self, small_synth, calls, entry):
        h, panel = small_synth
        winner = run_grid_search(entry, panel, h, seed=0)
        [(key, values)] = entry["grid"].items()
        assert len(calls) == len(values)
        assert [getattr(b.spec or b, key) for b in calls] == values
        assert winner["grid"] == {}


class TestPerLevel:
    def test_level_partition(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0,))
        assert sorted(report.level_counts) == [0, 1, 2]
        assert sum(report.level_counts.values()) == len(h.nodes)

    def test_singleton_level_equals_node_metrics(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0,))
        root_cells = report.level_rows[("ar", 0, 0)]
        node_cells = report.node_metrics[("ar", h.root, 0)]
        assert root_cells["rel_rmse"].value == node_cells["rel_rmse"].value
        assert root_cells["pearson"].value == node_cells["pearson"].value


class TestRendering:
    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(st.text(), min_size=1, max_size=3, unique=True),
        nodes=st.lists(st.text(), min_size=1, max_size=3, unique=True),
    )
    def test_raw_csv_parses_back_for_any_text(self, labels, nodes):
        metrics = {
            "n": Cell(2.0), "rmse": Cell(0.5), "rel_rmse": Cell(1.25),
            "pearson": Cell(None, "degenerate-variance"), "dist_corr": Cell(0.0),
        }
        report = EvalReport(
            labels=tuple(labels), horizons=(0,), rows={}, level_rows={},
            level_counts={}, node_metrics={
                (label, node, 0): metrics for label in labels for node in nodes
            },
        )
        rows = list(csv.reader(io.StringIO(render_raw(report), newline="")))
        header = ["model", "node", "horizon", "n", "rmse", "rel_rmse", "pearson",
                  "dist_corr"]
        cells = ["0", "2", "0.5", "1.25", "n/a(degenerate-variance)", "0.0"]
        assert rows == [header] + [
            [label, node, *cells] for label in labels for node in sorted(nodes)
        ]

    def test_deterministic_and_three_decimals(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0, 1))
        text1 = render_report(report, "csv")
        text2 = render_report(report, "csv")
        assert text1 == text2
        assert "1.000" in text1

    def test_markdown_same_numbers_as_csv(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0,))
        csv_text = render_report(report, "csv")
        md_text = render_report(report, "markdown")
        csv_cells = csv_text.splitlines()[1].split(",")[2:]
        md_cells = [c.strip() for c in md_text.splitlines()[2].split("|")[3:-1]]
        assert csv_cells == md_cells

    def test_headline_label_in_level_table(self, small_synth):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0,))
        text = render_level_report(report, "csv")
        assert ",headline," in text

    def test_degenerate_cells_render_na(self, small_synth):
        h, panel = small_synth

        class ConstantModel:
            def predict_batch(self, windows):
                return np.full(len(windows), 0.5)

        from hiergru.models import ModelBundle

        bundle = ModelBundle(
            tag="const", rho=1, models={n: ConstantModel() for n in h.nodes}
        )
        report = evaluate([bundle], panel, h, horizons=(0,))
        cells = report.node_metrics[("const", h.root, 0)]
        assert cells["pearson"].value is None
        assert cells["pearson"].code == "degenerate-variance"
        assert "n/a(degenerate-variance)" in render_raw(report)

    def test_constant_node_reads_zero_baseline(self):
        # AR(1) forecasts a constant series exactly, so its reference RMSE
        # there is 0 and no relative RMSE exists
        rng = np.random.default_rng(3)
        panel = panel_from_rates({
            "r": rng.normal(size=40), "a": rng.normal(size=40), "k": np.full(40, 0.5),
        })
        h = build_hierarchy([("r", None, 1.0), ("a", "r", 0.5), ("k", "r", 0.5)])
        horizons = (0, 1, 3)
        report = evaluate([fit_baseline(panel, h, "ar", rho=1)], panel, h, horizons)
        for j in horizons:
            assert report.node_metrics[("ar", "k", j)]["rmse"].value == 0.0
            assert report.node_metrics[("ar", "k", j)]["rel_rmse"] == Cell(
                None, "zero-baseline"
            )
            assert report.node_metrics[("ar", "a", j)]["rel_rmse"].value == 1.0
        assert "n/a(zero-baseline)" in render_raw(report)

    def test_write_report_files(self, small_synth, tmp_path):
        h, panel = small_synth
        ar1 = fit_baseline(panel, h, "ar", rho=1)
        report = evaluate([ar1], panel, h, horizons=(0,))
        write_report_files(report, tmp_path)
        for name in (
            "report.csv", "report.md", "report_by_level.csv",
            "report_raw.csv", "report.dat",
        ):
            assert (tmp_path / name).exists()
        assert "# model" in (tmp_path / "report.dat").read_text()

    def test_empty_model_list_header_only(self, small_synth):
        h, panel = small_synth
        report = evaluate([], panel, h, horizons=(0,))
        text = render_report(report, "csv")
        assert text.splitlines() == [
            "model,horizon,avg_rel_rmse,avg_pearson,avg_dist_corr,"
            "headline_rel_rmse,headline_pearson,headline_dist_corr"
        ]
