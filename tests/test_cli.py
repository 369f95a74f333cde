import json
import threading
from pathlib import Path

import numpy as np
import pytest

from hiergru.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main


def write_config(path: Path, data_dir: Path, models, **overrides):
    cfg = {
        "hierarchy": str(data_dir / "hierarchy.csv"),
        "series": str(data_dir / "series.csv"),
        "already_rates": True,
        "horizons": [0, 1],
        "seed": 5,
        "models": models,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def assert_one_line_config_error(data_dir, tmp_path, capsys, entry, key):
    """``run`` with the one model ``entry`` exits 2 before writing anything,
    with one stderr line naming the model label and ``key``."""
    cfg = write_config(
        tmp_path / "cfg.json", data_dir, [{**entry, "label": "bad_model"}]
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'bad_model'" in err and key in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.fixture
def synth_dir(tmp_path):
    data = tmp_path / "data"
    code = main(
        [
            "synth", "--out", str(data), "--depth", "2", "--branching", "2",
            "--length", "60", "--leaf-noise-sd", "0.5", "--seed", "2",
        ]
    )
    assert code == EXIT_OK
    return data


class TestSynth:
    def test_node_count_thirteen(self, tmp_path):
        out = tmp_path / "d"
        assert main(
            ["synth", "--out", str(out), "--depth", "2", "--branching", "3",
             "--length", "40", "--seed", "1"]
        ) == EXIT_OK
        rows = (out / "hierarchy.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 13  # header + nodes

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["synth", "--out", str(out), "--length", "40", "--seed", "9"])
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "hierarchy.csv").read_bytes() == (b / "hierarchy.csv").read_bytes()

    def test_zero_noise_identical_columns(self, tmp_path):
        out = tmp_path / "z"
        main(["synth", "--out", str(out), "--length", "40",
              "--leaf-noise-sd", "0", "--seed", "3"])
        import csv

        by_node = {}
        with open(out / "series.csv") as fh:
            for rec in csv.DictReader(fh):
                by_node.setdefault(rec["node_id"], []).append(rec["value"])
        assert len({tuple(v) for v in by_node.values()}) == 1


    @pytest.mark.parametrize("sd", ["-1", "inf", "nan"])
    def test_invalid_leaf_noise_sd_exit_2(self, tmp_path, capsys, sd):
        out = tmp_path / "d"
        assert main(
            ["synth", "--out", str(out), "--leaf-noise-sd", sd]
        ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "leaf_noise_sd" in err
        assert not out.exists()


class TestPrepare:
    def test_levels_to_rates_row_count(self, tmp_path):
        src = tmp_path / "levels.csv"
        rows = ["node_id,period,value"]
        for i, v in enumerate([100, 101, 103, 102, 104]):
            rows.append(f"A,2020-{i + 1:02d},{v}")
        src.write_text("\n".join(rows) + "\n")
        dst = tmp_path / "rates.csv"
        assert main(["prepare", str(src), str(dst)]) == EXIT_OK
        assert len(dst.read_text().strip().splitlines()) == 1 + 4

    def test_already_rates_passthrough_byte_identical(self, synth_dir, tmp_path):
        src = synth_dir / "series.csv"
        dst = tmp_path / "copy.csv"
        assert main(["prepare", str(src), str(dst), "--already-rates"]) == EXIT_OK
        assert dst.read_bytes() == src.read_bytes()

    def test_non_positive_level_exit_3(self, tmp_path, capsys):
        src = tmp_path / "levels.csv"
        src.write_text(
            "node_id,period,value\nFood,2020-01,100\nFood,2020-02,-1\n"
        )
        assert main(["prepare", str(src), str(tmp_path / "o.csv")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Food" in err and "2020-02" in err


class TestRun:
    def test_ar_only_all_ones(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, [{"tag": "ar", "rho": 1}]
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "report.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert cells[2] == "1.000"
            assert cells[5] == "1.000"

    def test_determinism_byte_identical(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            ["ar", {"tag": "igru", "hidden": 4, "epochs": 20}],
        )
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "report_raw.csv").read_bytes() == (b / "report_raw.csv").read_bytes()
        ck_a = sorted(p.relative_to(a) for p in (a / "checkpoints").rglob("*.ckpt"))
        ck_b = sorted(p.relative_to(b) for p in (b / "checkpoints").rglob("*.ckpt"))
        assert ck_a == ck_b and ck_a
        for rel in ck_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_no_thread_started_regardless_of_jobs(
        self, synth_dir, tmp_path, monkeypatch
    ):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [
                {"tag": "rf", "n_trees": 3},
                {"tag": "gbt", "n_trees": 3},
                {"tag": "fc", "hidden": 4, "epochs": 3},
                {"tag": "igru", "hidden": 4, "epochs": 3},
            ],
        )
        one, four = tmp_path / "jobs1", tmp_path / "jobs4"
        assert main(
            ["run", "--config", str(cfg), "--out", str(one), "--jobs", "1"]
        ) == EXIT_OK

        def refuse(thread):
            raise AssertionError(f"thread {thread.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(
            ["run", "--config", str(cfg), "--out", str(four), "--jobs", "4"]
        ) == EXIT_OK
        files = sorted(p.relative_to(one) for p in one.rglob("*.ckpt"))
        assert files == sorted(p.relative_to(four) for p in four.rglob("*.ckpt"))
        assert files
        for rel in [Path("report_raw.csv"), *files]:
            assert (one / rel).read_bytes() == (four / rel).read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("out", 5),
            ("out", ""),
            ("out", ["o"]),
            ("seed", True),
            ("seed", 1.5),
            ("seed", "3"),
            ("horizons", [0, True]),
            ("horizons", [0, 1.0]),
            ("horizons", [-1]),
            ("already_rates", "yes"),
            ("split_fraction", 1.0),
        ],
    )
    def test_bad_top_level_value_exit_2(self, tmp_path, capsys, key, value):
        # the data paths do not exist: a check made after loading data
        # would exit 3 instead
        cfg = write_config(
            tmp_path / "cfg.json", tmp_path / "no_data", ["ar"], **{key: value}
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unknown_tag_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["prophet"])
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG
        assert "prophet" in capsys.readouterr().err

    def test_wrong_value_type_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, [{"tag": "ar", "rho": 4.5}]
        )
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG
        assert "rho" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "ar", "rho": 1, "bogus_knob": 3}],
        )
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG
        assert "bogus_knob" in capsys.readouterr().err

    def test_label_escaping_checkpoints_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "ar", "label": "../../escaped"}],
        )
        out = tmp_path / "a" / "b" / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "../../escaped" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "a" / "escaped").exists()
        assert not out.exists()

    def test_label_colliding_with_anchors_bundle_exit_2(
        self, synth_dir, tmp_path, capsys
    ):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [
                {"tag": "bihrnn", "label": "b", "hidden": 4, "epochs": 2},
                {"tag": "rw", "label": "b_anchors"},
            ],
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'b'" in err and "'b_anchors'" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"tag": "ar", "rho": 0}, "rho"),
            ({"tag": "rf", "n_trees": 0}, "n_trees"),
            ({"tag": "rf", "n_trees": 2, "min_leaf": 0}, "min_leaf"),
            ({"tag": "rf", "n_trees": 2, "max_depth": -1}, "max_depth"),
            ({"tag": "rf", "n_trees": 2, "feature_frac": 0}, "feature_frac"),
            ({"tag": "rf", "n_trees": 2, "feature_frac": 1.5}, "feature_frac"),
            ({"tag": "gbt", "n_trees": 2, "max_depth": -1}, "max_depth"),
            ({"tag": "gbt", "n_trees": 2, "subsample": 0.0}, "subsample"),
            ({"tag": "gbt", "n_trees": 2, "subsample": 1.5}, "subsample"),
            ({"tag": "gbt", "n_trees": 2, "shrinkage": 0.0}, "shrinkage"),
            ({"tag": "fc", "epochs": 2, "hidden": 0}, "hidden"),
            ({"tag": "fc", "epochs": -1}, "epochs"),
            ({"tag": "fc", "epochs": 2, "lr": 0.0}, "lr"),
            ({"tag": "deepnn", "epochs": 1, "lr": -0.1}, "lr"),
            ({"tag": "gbt", "n_trees": 2, "shrinkage": float("inf")}, "shrinkage"),
            ({"tag": "fc", "epochs": 2, "lr": float("inf")}, "lr"),
        ],
    )
    def test_out_of_range_baseline_value_exit_2(
        self, synth_dir, tmp_path, capsys, entry, key
    ):
        assert_one_line_config_error(synth_dir, tmp_path, capsys, entry, key)

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"tag": "igru", "hidden": 0}, "hidden"),
            ({"tag": "igru", "lr": float("nan")}, "lr"),
            ({"tag": "igru", "epochs": -1}, "epochs"),
            ({"tag": "igru", "optimizer": "rmsprop"}, "optimizer"),
            ({"tag": "bihrnn", "epochs": 2, "lambda1": -1}, "lambda1"),
            ({"tag": "bihrnn", "epochs": 2, "lambda2": float("nan")}, "lambda2"),
            ({"tag": "hrnn", "epochs": 2, "alpha": 1000.0}, "alpha"),
            ({"tag": "knngru", "k_neighbors": 0}, "k_neighbors"),
            ({"tag": "igru", "epochs": 2, "lr": float("inf")}, "lr"),
            ({"tag": "bihrnn", "epochs": 2, "lambda1": float("inf")}, "lambda1"),
        ],
    )
    def test_out_of_range_recurrent_value_exit_2(
        self, synth_dir, tmp_path, capsys, entry, key
    ):
        assert_one_line_config_error(synth_dir, tmp_path, capsys, entry, key)

    def test_missing_out_dir_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["ar"])
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "output directory" in capsys.readouterr().err

    def test_missing_series_file_exit_3(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, ["ar"],
            series=str(synth_dir / "nope.csv"),
        )
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_DATA

    @pytest.mark.parametrize("bad, shown", [("{n},{p},1.2x", "'1.2x'"), ("{n}", "None")])
    def test_non_numeric_value_exit_3(self, synth_dir, tmp_path, capsys, bad, shown):
        series = tmp_path / "series.csv"
        lines = (synth_dir / "series.csv").read_text().splitlines()
        node, period, _ = lines[5].split(",")
        lines[5] = bad.format(n=node, p=period)
        series.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["ar"], series=str(series))
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "series.csv, line 6" in err and f"value {shown} is not a number" in err

    def test_non_numeric_weight_exit_3(self, synth_dir, tmp_path, capsys):
        hier = tmp_path / "hierarchy.csv"
        lines = (synth_dir / "hierarchy.csv").read_text().splitlines()
        node, parent, _ = lines[2].split(",")
        lines[2] = f"{node},{parent},heavy"
        hier.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["ar"], hierarchy=str(hier))
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "hierarchy.csv, line 3" in err and "'heavy'" in err

    def test_divergence_exit_4(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "igru", "lr": 1e18, "optimizer": "sgd", "epochs": 30,
              "hidden": 4}],
        )
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_DIVERGED
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("training diverged:")

    def test_grid_search_selects_and_records(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "ar", "grid": {"rho": [1, 2, 4]}}],
        )
        out = tmp_path / "out"
        assert main(
            ["run", "--config", str(cfg), "--out", str(out), "--grid"]
        ) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["models"][0]
        assert entry["params"]["rho"] in (1, 2, 4)
        assert len(entry["grid_trace"]) == 3
        scores = [c["score"] for c in entry["grid_trace"]]
        chosen = entry["params"]["rho"]
        best = min(range(3), key=lambda i: scores[i])
        assert entry["grid_trace"][best]["params"]["rho"] == chosen

    def test_manifest_records_hashes_and_seeds(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "igru", "hidden": 4, "epochs": 5}],
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["config_sha256"]) == 64
        assert manifest["models"][0]["node_seeds"]["root"] > 0

    def test_bihrnn_auto_pretrains_anchors(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "bihrnn", "hidden": 4, "epochs": 10}],
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "checkpoints" / "bihrnn_anchors" / "manifest.json").exists()

    def test_bihrnn_reuses_listed_hrnn_with_same_spec(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [
                {"tag": "hrnn", "hidden": 4, "epochs": 10},
                {"tag": "bihrnn", "hidden": 4, "epochs": 10},
            ],
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        dirs = sorted(p.name for p in (out / "checkpoints").iterdir())
        assert dirs == ["bihrnn", "hrnn"]  # anchors reused, not re-pretrained

    def test_cli_seed_overrides_config(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [{"tag": "igru", "hidden": 4, "epochs": 10}],
        )
        out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
        main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "7"])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
        main(["run", "--config", str(cfg), "--out", str(out3), "--seed", "8"])
        raw = lambda p: (p / "report_raw.csv").read_bytes()
        assert raw(out1) == raw(out2)
        assert raw(out1) != raw(out3)
