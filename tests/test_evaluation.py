import numpy as np
import pytest

from hiergru.baselines import fit_baseline
from hiergru.dataset import SeriesPanel
from hiergru.errors import HiergruError
from hiergru.evaluation import (
    DAILY_HORIZONS,
    MONTHLY_HORIZONS,
    evaluate,
    per_level_table,
    render_level_report,
    render_raw,
    render_report,
    write_report_files,
)
from hiergru.metrics import rmse
from hiergru.models import TrainSpec, train_igru


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
            def predict(self, w):
                return 0.5

        from hiergru.models import ModelBundle

        bundle = ModelBundle(
            tag="const", rho=1, models={n: ConstantModel() for n in h.nodes}
        )
        report = evaluate([bundle], panel, h, horizons=(0,))
        cells = report.node_metrics[("const", h.root, 0)]
        assert cells["pearson"].value is None
        assert cells["pearson"].code == "degenerate-variance"
        assert "n/a(degenerate-variance)" in render_raw(report)

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
