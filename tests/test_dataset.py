import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiergru
from conftest import panel_from_rates
from helpers import ragged_panels
from hiergru.dataset import (
    SynthSpec,
    chronological_split,
    load_series_csv,
    make_windows,
    save_series_csv,
    split_point,
    stack_windows,
    synth_panel,
    to_rates,
)
from hiergru.errors import (
    EmptySeriesError,
    InvalidSpecError,
    NonPositiveLevelError,
    SeriesGapError,
)


class TestToRates:
    def test_no_change(self):
        assert to_rates([100.0, 100.0]) == pytest.approx([0.0])

    def test_ten_percent_up(self):
        # 100 * ln(1.1), evaluated directly
        assert to_rates([100.0, 110.0])[0] == pytest.approx(
            100.0 * math.log(1.1), abs=1e-12
        )
        assert to_rates([100.0, 110.0])[0] == pytest.approx(9.53102, abs=1e-5)

    def test_ten_percent_down(self):
        assert to_rates([100.0, 90.0])[0] == pytest.approx(
            100.0 * math.log(0.9), abs=1e-12
        )
        assert to_rates([100.0, 90.0])[0] == pytest.approx(-10.53605, abs=1e-5)

    def test_non_positive_level_names_position(self):
        with pytest.raises(NonPositiveLevelError, match="2"):
            to_rates([100.0, 101.0, 0.0, 103.0])

    def test_too_short(self):
        with pytest.raises(EmptySeriesError):
            to_rates([100.0])

    def test_roundtrip_through_exponentiation(self):
        rng = np.random.default_rng(11)
        levels = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=200)))
        rates = to_rates(levels)
        rebuilt = levels[0] * np.exp(np.cumsum(rates) / 100.0)
        np.testing.assert_allclose(rebuilt, levels[1:], rtol=1e-9)


class TestChronologicalSplit:
    def test_75_of_100(self):
        assert split_point(100, 0.75) == 75

    def test_ceiling_rule(self):
        assert split_point(4, 0.75) == 3

    def test_length_one_rejected(self):
        panel = panel_from_rates({"A": np.arange(20.0)})
        panel.rates["B"] = np.array([1.0])
        panel.periods["B"] = np.array([0])
        with pytest.raises(EmptySeriesError, match="B"):
            chronological_split(panel, 0.75)

    def test_bad_fraction(self):
        panel = panel_from_rates({"A": np.arange(20.0)})
        with pytest.raises(InvalidSpecError):
            chronological_split(panel, 1.0)

    def test_split_bounds(self):
        panel = panel_from_rates({"A": np.arange(10.0)}, train_fraction=0.5)
        s = panel.split_index["A"]
        assert 0 < s <= 10


class TestMakeWindows:
    def test_train_enumeration(self):
        panel = panel_from_rates({"A": np.array([1.0, 2.0, 3.0, 4.0])}, 0.99)
        assert panel.split_index["A"] == 4
        ws = make_windows(panel, "A", rho=2, segment="train")
        assert [(list(w.inputs), w.target) for w in ws] == [
            ([1.0, 2.0], 3.0),
            ([2.0, 3.0], 4.0),
        ]

    def test_too_short_gives_empty(self):
        panel = panel_from_rates({"A": np.array([1.0, 2.0])}, 0.99)
        assert make_windows(panel, "A", rho=4, segment="train") == []

    def test_test_windows_reach_into_train(self):
        panel = panel_from_rates({"A": np.arange(1.0, 7.0)}, 0.6)
        assert panel.split_index["A"] == 4
        ws = make_windows(panel, "A", rho=2, segment="test")
        assert [(list(w.inputs), w.target) for w in ws] == [
            ([3.0, 4.0], 5.0),
            ([4.0, 5.0], 6.0),
        ]

    def test_no_train_target_in_test_segment(self):
        rng = np.random.default_rng(0)
        panel = panel_from_rates({"A": rng.normal(size=53)})
        split = panel.split_index["A"]
        for rho in (1, 3, 7):
            ws = make_windows(panel, "A", rho, "train")
            assert len(ws) == max(0, split - rho)
            # target of window i sits at position rho + i, always < split
            assert all(rho + i < split for i in range(len(ws)))

    def test_window_counts(self):
        rng = np.random.default_rng(1)
        panel = panel_from_rates({"A": rng.normal(size=40)})
        split = panel.split_index["A"]
        n = panel.length("A")
        for rho in (1, 2, 5):
            assert len(make_windows(panel, "A", rho, "train")) == max(0, split - rho)
            assert len(make_windows(panel, "A", rho, "test")) == n - max(rho, split)

    def test_invalid_rho(self):
        panel = panel_from_rates({"A": np.arange(10.0)})
        with pytest.raises(InvalidSpecError):
            make_windows(panel, "A", 0, "train")

    def test_stack_windows(self):
        panel = panel_from_rates({"A": np.arange(10.0)})
        x, y = stack_windows(make_windows(panel, "A", 3, "train"))
        assert x.shape == (panel.split_index["A"] - 3, 3)
        assert y.shape == (x.shape[0],)


class TestForecastWindows:
    @pytest.mark.parametrize("rho", [1, 3, 500])
    def test_no_origins_gives_empty_float_windows(self, rho):
        panel = panel_from_rates({"a": np.arange(8.0), "b": np.ones(6)})
        origins = np.array([], dtype=np.int64)
        plain = panel.forecast_windows("a", origins, rho)
        stacked = panel.forecast_windows("a", origins, rho, ("a", "b"))
        assert (plain.dtype, plain.shape) == (np.float64, (0, rho))
        assert (stacked.dtype, stacked.shape) == (np.float64, (0, rho, 2))


class TestTrainTestBoundary:
    @settings(max_examples=150, deadline=None)
    @given(ragged_panels(), st.integers(1, 5), st.floats(0.5, 1e3), st.data())
    def test_test_rates_reach_no_training_cut(self, panel, rho, shift, data):
        """Moving every test-segment rate leaves every training cut, byte
        for byte: a cut reading one target past a split sees the move."""
        rates = {}
        for n, r in panel.rates.items():
            rates[n] = r.copy()
            rates[n][panel.test_positions(n).start:] += shift
        moved = replace(panel, rates=rates)
        nodes = list(panel.nodes)
        for ns in [[n] for n in nodes] + [nodes]:
            got, want = moved.train_overlap(ns), panel.train_overlap(ns)
            assert got[0] == want[0]
            for g, w in zip(got[1], want[1], strict=True):
                assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())
        for n in nodes:
            others = [c for c in nodes if c != n]
            k = data.draw(st.integers(1, len(others)))
            channels = (n, *data.draw(st.permutations(others))[:k])
            for chans in (None, channels):
                got = moved.train_windows(n, rho, chans)
                want = panel.train_windows(n, rho, chans)
                assert (got is None) == (want is None)
                for g, w in zip(got or (), want or (), strict=True):
                    assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())
        fraction = data.draw(st.sampled_from([0.5, 0.75]))
        try:
            want = panel.train_segment(fraction)
        except EmptySeriesError:
            with pytest.raises(EmptySeriesError):
                moved.train_segment(fraction)
            return
        got = moved.train_segment(fraction)
        assert got.calendar == want.calendar
        assert got.split_index == want.split_index
        for n in nodes:
            assert got.rates[n].tobytes() == want.rates[n].tobytes()
            assert got.periods[n].tobytes() == want.periods[n].tobytes()

    def test_only_dataset_reads_the_split(self):
        """No module but dataset.py reads a node's train/test boundary or
        its calendar positions; the SeriesPanel methods cut for them."""
        package = Path(hiergru.__file__).parent
        readers = []
        for path in sorted(package.rglob("*.py")):
            if path.name == "dataset.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in (
                    "split_index", "periods"
                ):
                    readers.append(f"{path.name}:{node.lineno} .{node.attr}")
        assert readers == []


class TestSynthPanel:
    def test_node_count(self):
        h, panel = synth_panel(
            SynthSpec(depth=2, branching=3, length=40, leaf_noise_sd=0.5, seed=1)
        )
        assert len(h.nodes) == 1 + 3 + 9
        assert h.depth() == 2
        assert set(panel.rates) == set(h.nodes)

    def test_zero_noise_copies_root(self):
        h, panel = synth_panel(
            SynthSpec(depth=2, branching=2, length=30, leaf_noise_sd=0.0, seed=2)
        )
        for n in h.nodes:
            np.testing.assert_array_equal(panel.rates[n], panel.rates[h.root])

    def test_seed_determinism(self):
        spec = SynthSpec(depth=2, branching=3, length=50, leaf_noise_sd=0.7, seed=9)
        h1, p1 = synth_panel(spec)
        h2, p2 = synth_panel(spec)
        assert h1 == h2
        for n in p1.rates:
            assert p1.rates[n].tobytes() == p2.rates[n].tobytes()

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec(depth=0, branching=3, length=40, leaf_noise_sd=0.5, seed=1)
        with pytest.raises(InvalidSpecError):
            SynthSpec(depth=1, branching=3, length=5, leaf_noise_sd=0.5, seed=1)

    def test_child_noise_grows_with_level(self):
        h, panel = synth_panel(
            SynthSpec(depth=2, branching=3, length=400, leaf_noise_sd=1.0, seed=3)
        )
        root = panel.rates[h.root]
        lvl1 = [n for n in h.nodes if h.level[n] == 1]
        lvl2 = [n for n in h.nodes if h.level[n] == 2]
        sd1 = np.mean([np.std(panel.rates[n] - root) for n in lvl1])
        sd2_vs_parent = np.mean(
            [np.std(panel.rates[n] - panel.rates[h.parent[n]]) for n in lvl2]
        )
        assert sd1 == pytest.approx(1.0, rel=0.2)
        assert sd2_vs_parent == pytest.approx(2.0, rel=0.2)


class TestSeriesCsv:
    def test_level_ingestion(self, tmp_path):
        path = tmp_path / "series.csv"
        rows = ["node_id,period,value"]
        for i, v in enumerate([100.0, 110.0, 99.0, 101.5]):
            rows.append(f"A,2020-{i + 1:02d},{v}")
        path.write_text("\n".join(rows) + "\n")
        panel = load_series_csv(path)
        assert panel.length("A") == 3  # one fewer than the levels
        assert panel.rates["A"][0] == pytest.approx(100 * math.log(1.1))

    def test_rates_roundtrip(self, tmp_path, small_synth):
        _, panel = small_synth
        path = tmp_path / "rates.csv"
        save_series_csv(panel, path)
        back = load_series_csv(path, already_rates=True)
        for n in panel.rates:
            np.testing.assert_array_equal(back.rates[n], panel.rates[n])
            assert back.split_index[n] == panel.split_index[n]

    def test_interior_gap_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "node_id,period,value\n"
            "A,2020-01,100\nA,2020-02,101\nA,2020-03,102\n"
            "B,2020-01,50\nB,2020-03,52\n"
        )
        with pytest.raises(SeriesGapError, match="B"):
            load_series_csv(path)

    def test_one_level_names_node(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "node_id,period,value\nA,2020-01,100\nA,2020-02,101\nB,2020-02,50\n"
        )
        with pytest.raises(EmptySeriesError, match="node 'B'"):
            load_series_csv(path)

    def test_non_positive_level_names_node_and_period(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "node_id,period,value\nA,2020-01,100\nA,2020-02,-3\nA,2020-03,102\n"
        )
        with pytest.raises(NonPositiveLevelError, match="2020-02"):
            load_series_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rate_names_node(self, tmp_path, value):
        path = tmp_path / "series.csv"
        path.write_text(
            "node_id,period,value\n"
            f"A,2020-01,0.5\nA,2020-02,0.1\nB,2020-01,0.2\nB,2020-02,{value}\n"
        )
        with pytest.raises(InvalidSpecError, match="'B'.*non-finite"):
            load_series_csv(path, already_rates=True)

    def test_staggered_starts_allowed(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "node_id,period,value\n"
            "A,2020-01,100\nA,2020-02,101\nA,2020-03,102\nA,2020-04,103\n"
            "B,2020-03,50\nB,2020-04,51\nB,2020-05,52\n"
        )
        panel = load_series_csv(path)
        assert panel.period_label("B", 0) == "2020-04"
