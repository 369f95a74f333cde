import json
import shutil
import tempfile
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiergru import cli
from hiergru.baselines import ForestConfig, GbtConfig, MlpConfig
from hiergru.checkpoint import load_bundle
from hiergru.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main
from hiergru.errors import InvalidSpecError, NodeSkippedWarning
from hiergru.models import TrainSpec
from hiergru.registry import TAGS


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
    with one stderr line naming the model label and ``key``; returns it."""
    cfg = write_config(
        tmp_path / "cfg.json", data_dir, [{**entry, "label": "bad_model"}]
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'bad_model'" in err and key in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    return err


# Each tag's config dataclass (None: the tag has no config beyond rho);
# a tag not listed here takes a TrainSpec.
CONFIG_TYPES = {"ar": None, "rw": None, "rf": ForestConfig, "gbt": GbtConfig,
                "fc": MlpConfig, "deepnn": MlpConfig}
INTEGER_KEYS = {"rho", "hidden", "epochs", "k_neighbors", "seed", "n_trees",
                "max_depth", "min_leaf"}
# wrong for every accepted key: no key takes a bool, a string other than
# 'adam' or 'sgd', a list, an object, null, NaN or an infinity
HOSTILE = [True, False, "1", "x", [1], {"a": 1}, None, float("nan"),
           float("inf"), float("-inf")]


@st.composite
def hostile_params(draw):
    """(tag, key, value): an accepted key of a registered tag and a value of
    the wrong kind for it; integer keys also get floats."""
    tag = draw(st.sampled_from(sorted(TAGS)))
    key = draw(st.sampled_from(sorted(TAGS[tag].keys)))
    values = st.sampled_from(HOSTILE)
    if key in INTEGER_KEYS:
        values |= st.floats()
    return tag, key, draw(values)


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


    def test_negative_seed(self, tmp_path):
        for name, seed in (("a", "-1"), ("b", "-1"), ("c", "1")):
            assert main(
                ["synth", "--out", str(tmp_path / name), "--length", "40",
                 "--seed", seed]
            ) == EXIT_OK
        for f in ("series.csv", "hierarchy.csv"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        series = {n: (tmp_path / n / "series.csv").read_bytes() for n in "ac"}
        assert series["a"] != series["c"]

    @pytest.mark.parametrize("sd", ["-1", "inf", "nan"])
    def test_invalid_leaf_noise_sd_exit_2(self, tmp_path, capsys, sd):
        out = tmp_path / "d"
        assert main(
            ["synth", "--out", str(out), "--leaf-noise-sd", sd]
        ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "leaf_noise_sd" in err
        assert not out.exists()


def corrupt(path: Path, how: str) -> None:
    """Put a byte that is not UTF-8 in the middle of ``path`` ("byte"),
    make the last field of its second line longer than the csv module's
    field limit ("field"), or replace it with JSON nested deeper than the
    parser's recursion limit ("nesting")."""
    data = path.read_bytes()
    if how == "nesting":
        path.write_bytes(b"[" * 100_000)
    elif how == "byte":
        at = len(data) // 2
        path.write_bytes(data[:at] + b"\xff" + data[at:])
    else:
        end = data.index(b"\n", data.index(b"\n") + 1)
        path.write_bytes(data[:end] + b"9" * 200_000 + data[end:])


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


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

    def test_byte_order_mark_accepted(self, tmp_path):
        levels = "node_id,period,value\nA,2020-01,100\nA,2020-02,101\nA,2020-03,103\n"
        outs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            src = tmp_path / f"{name}.csv"
            src.write_bytes(bom + levels.encode("utf-8"))
            outs.append(tmp_path / f"{name}_rates.csv")
            assert main(["prepare", str(src), str(outs[-1])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("how", ["byte", "field"])
    def test_unreadable_series_exit_3(self, synth_dir, tmp_path, capsys, how):
        src = tmp_path / "series.csv"
        shutil.copyfile(synth_dir / "series.csv", src)
        corrupt(src, how)
        dst = tmp_path / "o.csv"
        assert main(["prepare", str(src), str(dst)]) == EXIT_DATA
        assert "series.csv" in assert_one_line_error(capsys)
        assert not dst.exists()

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

    def test_byte_order_mark_gives_the_same_outputs(self, synth_dir, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM
        bom_dir = tmp_path / "bom"
        bom_dir.mkdir()
        for name in ("hierarchy.csv", "series.csv"):
            (bom_dir / name).write_bytes(b"\xef\xbb\xbf" + (synth_dir / name).read_bytes())
        models = ["ar", {"tag": "igru", "hidden": 2, "epochs": 2}]
        outs = []
        for data_dir in (synth_dir, bom_dir):
            cfg = write_config(tmp_path / f"{data_dir.name}.json", data_dir, models)
            out = tmp_path / f"out_{data_dir.name}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        plain, bom = outs
        files = sorted(p.relative_to(plain) for p in plain.rglob("*.ckpt"))
        assert files and files == sorted(p.relative_to(bom) for p in bom.rglob("*.ckpt"))
        for rel in [Path("report_raw.csv"), *files]:
            assert (plain / rel).read_bytes() == (bom / rel).read_bytes(), rel

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
            ({"tag": "fc", "epochs": 2, "hidden": [3]}, "hidden"),
            ({"tag": "fc", "epochs": 2, "hidden": "3"}, "hidden"),
            ({"tag": "fc", "epochs": 2, "hidden": True}, "hidden"),
            ({"tag": "fc", "epochs": 2, "hidden": 2.5}, "hidden"),
            ({"tag": "fc", "epochs": -1}, "epochs"),
            ({"tag": "fc", "epochs": 2, "lr": 0.0}, "lr"),
            ({"tag": "deepnn", "epochs": 1, "lr": -0.1}, "lr"),
            ({"tag": "gbt", "n_trees": 2, "shrinkage": float("inf")}, "shrinkage"),
            ({"tag": "fc", "epochs": 2, "lr": float("inf")}, "lr"),
            ({"tag": "gbt", "n_trees": 2, "shrinkage": 5}, "shrinkage"),
            ({"tag": "gbt", "n_trees": 2, "shrinkage": 1e308}, "shrinkage"),
            ({"tag": "rw", "rho": 2**32}, "rho"),  # a .ckpt header's u32
        ],
    )
    def test_out_of_range_baseline_value_exit_2(
        self, synth_dir, tmp_path, capsys, entry, key
    ):
        err = assert_one_line_config_error(synth_dir, tmp_path, capsys, entry, key)
        assert f"got {entry[key]!r}" in err  # the value as written

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
            ({"tag": "igru", "rho": 2**32, "epochs": 1}, "rho"),
        ],
    )
    def test_out_of_range_recurrent_value_exit_2(
        self, synth_dir, tmp_path, capsys, entry, key
    ):
        assert_one_line_config_error(synth_dir, tmp_path, capsys, entry, key)

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(hostile_params(), st.booleans())
    def test_hostile_value_exit_2(self, tmp_path, capsys, case, in_grid):
        tag, key, value = case
        placed = {"grid": {key: [value]}} if in_grid else {key: value}
        # the data paths do not exist: the entry is checked before loading
        assert_one_line_config_error(
            tmp_path / "no_data", tmp_path, capsys, {"tag": tag, **placed}, key
        )

    @settings(max_examples=300, deadline=None)
    @given(hostile_params())
    def test_hostile_value_rejected_by_config(self, case):
        tag, key, value = case
        match = rf"^{key} must be"
        with pytest.raises(InvalidSpecError, match=match):
            TAGS[tag].build({key: value})
        config = CONFIG_TYPES.get(tag, TrainSpec)
        if config is not None and key in {f.name for f in fields(config)}:
            if config is MlpConfig and key == "hidden":
                value = (value,)
            with pytest.raises(InvalidSpecError, match=match):
                config(**{key: value})

    def test_missing_out_dir_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["ar"])
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "output directory" in capsys.readouterr().err

    def test_config_directory_exit_2(self, tmp_path, capsys):
        """A config path that is a directory, or that does not exist."""
        out = tmp_path / "o"
        for config in (tmp_path, tmp_path / "missing.json"):
            assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
            err = assert_one_line_error(capsys)
            assert err.startswith("config error:") and str(config) in err
            assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub", "dir")])
    def test_out_not_a_directory_exit_2_before_training(
        self, synth_dir, tmp_path, capsys, monkeypatch, below
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(cli, "fit_entry", refuse)
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["ar"])
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = blocker.joinpath(*below)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = assert_one_line_error(capsys)
        assert err.startswith("config error:") and str(blocker) in err
        assert blocker.read_text() == "a file\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rate_exit_3(self, synth_dir, tmp_path, capsys, value):
        series = tmp_path / "series.csv"
        lines = (synth_dir / "series.csv").read_text().splitlines()
        node, period, _ = lines[5].split(",")
        lines[5] = f"{node},{period},{value}"
        series.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", synth_dir, ["ar"], series=str(series))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        err = assert_one_line_error(capsys)
        assert repr(node) in err and "non-finite" in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "target, how, code",
        [
            ("cfg.json", "byte", EXIT_CONFIG),
            ("cfg.json", "nesting", EXIT_CONFIG),
            ("hierarchy.csv", "byte", EXIT_DATA),
            ("series.csv", "byte", EXIT_DATA),
            ("hierarchy.csv", "field", EXIT_DATA),
            ("series.csv", "field", EXIT_DATA),
        ],
    )
    def test_unreadable_text_one_line(
        self, synth_dir, tmp_path, capsys, target, how, code
    ):
        for name in ("hierarchy.csv", "series.csv"):
            shutil.copyfile(synth_dir / name, tmp_path / name)
        cfg = write_config(tmp_path / "cfg.json", tmp_path, ["ar"])
        corrupt(tmp_path / target, how)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        assert target in assert_one_line_error(capsys)
        assert not out.exists()

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

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exit_3(self, synth_dir, tmp_path, capsys, weight):
        hier = tmp_path / "hierarchy.csv"
        lines = (synth_dir / "hierarchy.csv").read_text().splitlines()
        node, parent, _ = lines[2].split(",")
        lines[2] = f"{node},{parent},{weight}"
        hier.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, ["bihrnn"], hierarchy=str(hier)
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert repr(node) in err and "not finite" in err
        assert not out.exists()

    # each model's first array request is over 128 TiB, which no machine
    # grants, or more bytes than numpy can index, so the test touches no
    # memory
    @pytest.mark.parametrize("entry", [
        {"tag": "rf", "n_trees": 10**13},
        {"tag": "fc", "hidden": 10**13},
        {"tag": "igru", "hidden": 10**7},
        {"tag": "igru", "hidden": 2 * 10**9},
        {"tag": "rf", "n_trees": 10**19},
        {"tag": "fc", "hidden": 10**19},
        {"tag": "igru", "hidden": 10**9},
        {"tag": "hrnn", "hidden": 2 * 10**9},
    ])
    def test_model_too_large_for_memory_exit_3(self, synth_dir, tmp_path, capsys, entry):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, [entry])
        assert main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_DATA
        assert assert_one_line_error(capsys).startswith("data error:")

    def test_largest_rho_runs(self, synth_dir, tmp_path):
        rho = 2**32 - 1
        cfg = write_config(tmp_path / "cfg.json", synth_dir, [
            "ar", {"tag": "rw", "rho": rho}, {"tag": "igru", "rho": rho, "epochs": 1},
        ])
        out = tmp_path / "o"
        with pytest.warns(NodeSkippedWarning):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for label in ("rw", "igru"):
            assert load_bundle(out / "checkpoints" / label).rho == rho

    # rolling 10**15 steps would ask for petabytes, and 10**19 values are
    # more than one numpy dimension holds
    @pytest.mark.parametrize("far", [10**15, 10**19])
    def test_horizon_past_the_data_costs_nothing(self, synth_dir, tmp_path, capsys, far):
        models = ["ar", {"tag": "rf", "n_trees": 3}, {"tag": "igru", "epochs": 2}]
        rows = {}
        for horizons in ([0], [0, far]):
            cfg = write_config(tmp_path / "cfg.json", synth_dir, models,
                               horizons=horizons)
            out = tmp_path / f"o{len(horizons)}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            raw = (out / "report_raw.csv").read_text().splitlines()[1:]
            rows[len(horizons)] = [r.split(",") for r in raw]
        assert capsys.readouterr().err == ""
        near = [r for r in rows[2] if r[2] == "0"]
        assert near == rows[1]
        past = [r for r in rows[2] if r[2] == str(far)]
        assert len(past) == len(near)
        assert all(r[4:] == ["n/a(no-predictions)"] * 4 for r in past)

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

    def test_grid_scores_overflowing_candidates_null_in_strict_json(self, tmp_path):
        # one huge root rate overflows every candidate's validation RMSE:
        # both scores are null, no warning is raised, and every manifest is
        # strict JSON
        data = tmp_path / "data"
        assert main(
            ["synth", "--out", str(data), "--depth", "1", "--branching", "2",
             "--length", "48", "--seed", "4"]
        ) == EXIT_OK
        series = data / "series.csv"
        rows = series.read_text().splitlines()
        at = next(i for i, r in enumerate(rows) if r.startswith("root,2001-06,"))
        rows[at] = "root,2001-06,-0.9110926589655e253"
        series.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path / "cfg.json", data, [{"tag": "ar", "grid": {"rho": [1, 2]}}]
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["run", "--config", str(cfg), "--out", str(out), "--grid"]
            ) == EXIT_OK

        def strict(name):
            raise AssertionError(f"{name} in a manifest")

        manifests = sorted(out.rglob("manifest.json"))
        assert len(manifests) == 2  # the run's and the ar bundle's
        for path in manifests:
            json.loads(path.read_text(), parse_constant=strict)
        entry = json.loads((out / "manifest.json").read_text())["models"][0]
        assert [c["score"] for c in entry["grid_trace"]] == [None, None]

    def test_tiny_rates_run_without_warnings(self, tmp_path):
        # every rate times 1e-160: the variance sums behind the precision
        # schedule's and knngru's correlations underflow unless the metrics
        # lift their inputs first
        data = tmp_path / "data"
        assert main(
            ["synth", "--out", str(data), "--depth", "1", "--branching", "2",
             "--length", "48", "--seed", "4"]
        ) == EXIT_OK
        series = data / "series.csv"
        header, *rows = series.read_text().splitlines()
        rows = [r.rsplit(",", 1) for r in rows]
        series.write_text("\n".join(
            [header] + [f"{key},{float(v) * 1e-160!r}" for key, v in rows]
        ) + "\n")
        models = [{"tag": "hrnn", "epochs": 2}, {"tag": "knngru", "k_neighbors": 2}]
        cfg = write_config(tmp_path / "cfg.json", data, models)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
            ) == EXIT_OK

    @pytest.mark.parametrize("scores, winner", [
        ([None, 2.0, None, 1.0, 1.0], 3),
        ([None, None], 0),
        ([3.0, None], 0),
        ([None, 0.5], 1),
    ])
    def test_grid_ranks_unscored_candidates_last(self, monkeypatch, scores, winner):
        # the first of the lowest scores wins; None never beats a score
        class Panel:
            def train_segment(self, fraction):
                return self

        monkeypatch.setattr(cli, "fit_entry", lambda e, *a: (e["params"]["rho"], []))
        monkeypatch.setattr(cli, "_validation_score", lambda rho, p: scores[rho - 1])
        rhos = list(range(1, len(scores) + 1))
        entry = {"tag": "ar", "label": "ar", "params": {}, "grid": {"rho": rhos}}
        won = cli.run_grid_search(entry, Panel(), None, 0)
        assert won["params"] == {"rho": winner + 1}
        assert [c["score"] for c in won["grid_trace"]] == scores

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

    def test_manifest_node_seeds_are_the_recorded_seeds(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir,
            [
                {"tag": "sgru", "hidden": 4, "epochs": 3},
                {"tag": "rf", "n_trees": 2},
                {"tag": "igru", "hidden": 4, "epochs": 3},
                "ar",
            ],
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        seeds = {m["label"]: m["node_seeds"] for m in manifest["models"]}
        for label, node_seeds in seeds.items():
            bundle = out / "checkpoints" / label / "manifest.json"
            nodes = json.loads(bundle.read_text())["nodes"]
            recorded = {
                n: e["provenance"]["seed"] for n, e in nodes.items()
                if "seed" in e["provenance"]
            }
            assert node_seeds == (recorded or None), label
        assert seeds["ar"] is None
        assert len(seeds["rf"]) == len(seeds["sgru"]) == 7
        assert len(set(seeds["sgru"].values())) == 1  # the root's unit

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


# inserted bytes: mostly the ones CSV and numbers are made of
_INSERTED = st.sampled_from(b',\n\r" .-+e019') | st.integers(0, 255)


@st.composite
def byte_edits(draw, size: int):
    """One to four edits of a file of ``size`` bytes, each flipping one
    bit of a byte, inserting a byte or deleting one: (kind, position,
    bit or byte)."""
    edit = st.one_of(
        st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(0, 7)),
        st.tuples(st.just("insert"), st.integers(0, size - 1), _INSERTED),
        st.tuples(st.just("delete"), st.integers(0, size - 1), st.just(0)),
    )
    return draw(st.lists(edit, min_size=1, max_size=4))


def apply_edits(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, at, value in edits:
        at = min(at, len(buf) - 1)
        if kind == "flip":
            buf[at] ^= 1 << value
        elif kind == "insert":
            buf.insert(at, value)
        elif len(buf) > 1:
            del buf[at]
    return bytes(buf)


@pytest.fixture(scope="module")
def tiny_synth(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny")
    assert main(
        ["synth", "--out", str(data), "--depth", "1", "--branching", "2",
         "--length", "24", "--seed", "4"]
    ) == EXIT_OK
    return {f: (data / f).read_bytes() for f in ("hierarchy.csv", "series.csv")}


@pytest.mark.parametrize("line, code", [(18, "non-finite-forecast"), (19, "overflow")])
def test_huge_finite_rate_ends_in_coded_cells(tiny_synth, tmp_path, line, code):
    # one huge root rate: as the last training value (line 18) the AR(1)
    # forecasts overflow to inf; in the test segment (line 19) they stay
    # finite and the metrics' sums overflow.  Either way the root's cells
    # are n/a(<code>), no warning is raised, and the other nodes' rows keep
    # their bytes.
    outs = {}
    for edited in (False, True):
        data = tmp_path / f"data-{edited}"
        data.mkdir()
        rows = tiny_synth["series.csv"].decode().splitlines()
        assert rows[line].startswith("root,")
        if edited:
            rows[line] = rows[line].rsplit(",", 1)[0] + ",-0.9110926589655e253"
        (data / "series.csv").write_text("\n".join(rows) + "\n")
        (data / "hierarchy.csv").write_bytes(tiny_synth["hierarchy.csv"])
        cfg = write_config(data / "cfg.json", data, [{"tag": "ar", "rho": 1}])
        assert main(["run", "--config", str(cfg), "--out", str(data / "o")]) == EXIT_OK
        outs[edited] = (data / "o" / "report_raw.csv").read_text().splitlines()
    clean, edited = outs[False], outs[True]
    root = [r for r in edited if r.startswith("ar,root,")]
    assert len(root) == 2
    for row in root:
        assert row.split(",")[4:] == [f"n/a({code})"] * 4
    assert [r for r in edited if r not in root] == [
        r for r in clean if not r.startswith("ar,root,")
    ]
    assert "inf" not in "".join(edited) and "nan" not in "".join(edited)


class TestFuzzedInputs:
    @settings(
        max_examples=1000, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(["hierarchy.csv", "series.csv"]), st.data())
    def test_run_exits_with_a_code_and_one_line(
        self, tiny_synth, capsys, target, data
    ):
        edits = data.draw(byte_edits(len(tiny_synth[target])))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, content in tiny_synth.items():
                if name == target:
                    content = apply_edits(content, edits)
                (tmp / name).write_bytes(content)
            cfg = write_config(tmp / "cfg.json", tmp, [{"tag": "ar", "rho": 1}])
            code = main(["run", "--config", str(cfg), "--out", str(tmp / "o")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED)
        if code != EXIT_OK:
            assert_one_line_error(capsys)
        capsys.readouterr()
