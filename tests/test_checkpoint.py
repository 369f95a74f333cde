import numpy as np
import pytest

from hiergru.baselines import (
    ForestConfig,
    GbtConfig,
    MlpConfig,
    fit_baseline,
    mlp_flatten,
)
from hiergru.checkpoint import (
    load_bundle,
    read_checkpoint,
    save_bundle,
    write_checkpoint,
)
from hiergru.cli import fit_entry
from hiergru.errors import HiergruError
from hiergru.gru import flatten, init_params
from hiergru.models import TrainSpec, train_hrnn, train_knn_gru
from hiergru.registry import TAGS, lookup


class TestRawCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = rng.normal(size=257)
        path = tmp_path / "x.ckpt"
        write_checkpoint(
            path, tag="hrnn", node="All items", payload=payload,
            hidden=8, rho=4, input_dim=1,
        )
        back = read_checkpoint(path)
        assert back["tag"] == "hrnn"
        assert back["node"] == "All items"
        assert (back["hidden"], back["rho"], back["input_dim"]) == (8, 4, 1)
        assert back["payload"].tobytes() == payload.tobytes()

    def test_unicode_node_ids(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, tag="ar", node="Fruits & légumes", payload=np.ones(3))
        assert read_checkpoint(path)["node"] == "Fruits & légumes"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(HiergruError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, tag="gbt", node="root.1", payload=np.arange(3.0), rho=2)
        whole = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(whole)):
            cut.write_bytes(whole[:size])
            with pytest.raises(HiergruError, match="cut.ckpt"):
                read_checkpoint(cut)
        cut.write_bytes(whole + b"\x00")
        with pytest.raises(HiergruError, match="trailing"):
            read_checkpoint(cut)


class TestModelCodecs:
    def test_gru_params(self):
        p = init_params(5, np.random.default_rng(1), input_dim=3)
        payload, hidden, input_dim = lookup("igru").encode(p)
        back = lookup("igru").decode(payload, hidden, input_dim, 4)
        assert flatten(back).tobytes() == flatten(p).tobytes()

    @pytest.mark.parametrize("tag,cfg", [
        ("rf", ForestConfig(n_trees=5, max_depth=3)),
        ("gbt", GbtConfig(n_trees=5, max_depth=2)),
        ("fc", MlpConfig(hidden=(7,), epochs=5)),
        ("ar", None),
        ("rw", None),
    ])
    def test_baseline_payloads(self, tag, cfg, small_synth):
        h, panel = small_synth
        bundle = fit_baseline(panel, h, tag, rho=3, cfg=cfg)
        node = h.root
        model = bundle.models[node]
        payload, hidden, input_dim = lookup(tag).encode(model)
        back = lookup(tag).decode(payload, hidden, input_dim, 3)
        probe = np.random.default_rng(2).normal(size=3)
        assert back.predict(probe) == model.predict(probe)


class TestBundleDirectories:
    def test_recurrent_roundtrip(self, small_synth, tmp_path):
        h, panel = small_synth
        spec = TrainSpec(rho=3, hidden=4, epochs=15, lr=0.005, seed=3)
        bundle = train_hrnn(panel, h, spec)
        save_bundle(bundle, tmp_path / "hrnn")
        back = load_bundle(tmp_path / "hrnn")
        assert back.tag == "hrnn"
        assert back.spec == spec
        for n in h.nodes:
            assert flatten(back.params[n]).tobytes() == flatten(bundle.params[n]).tobytes()

    def test_knngru_keeps_neighbors(self, small_synth, tmp_path):
        h, panel = small_synth
        spec = TrainSpec(rho=3, hidden=4, epochs=5, lr=0.005, seed=4, k_neighbors=2)
        bundle = train_knn_gru(panel, h, spec)
        save_bundle(bundle, tmp_path / "knn")
        back = load_bundle(tmp_path / "knn")
        assert back.neighbors == bundle.neighbors
        origin = panel.split_index["root.0"]
        np.testing.assert_array_equal(
            back.forecast(panel, "root.0", origin, 2),
            bundle.forecast(panel, "root.0", origin, 2),
        )

    def test_baseline_roundtrip_forecasts_match(self, small_synth, tmp_path):
        # every registered tag: fit small, save, reload, and compare the
        # reloaded forecasts with the in-memory bundle's bit for bit
        h, panel = small_synth
        small = {"rho": 3, "hidden": 3, "epochs": 2, "n_trees": 3, "max_depth": 2}
        for tag, entry in TAGS.items():
            params = {k: v for k, v in small.items() if k in entry.keys}
            model = {"tag": tag, "label": tag, "params": params, "grid": {}}
            bundle, _ = fit_entry(model, panel, h, 6, {})
            save_bundle(bundle, tmp_path / tag)
            back = load_bundle(tmp_path / tag)
            assert (back.tag, back.rho, back.spec, back.neighbors) == (
                tag, bundle.rho, bundle.spec, bundle.neighbors
            )
            assert back.covered_nodes() == bundle.covered_nodes() == tuple(
                sorted(h.nodes)
            )
            for n in h.nodes:
                origin = panel.split_index[n]
                assert (
                    back.forecast(panel, n, origin, 3).tobytes()
                    == bundle.forecast(panel, n, origin, 3).tobytes()
                ), f"{tag} {n}"

    def test_save_twice_byte_identical(self, small_synth, tmp_path):
        h, panel = small_synth
        spec = TrainSpec(rho=3, hidden=4, epochs=10, lr=0.005, seed=5)
        bundle = train_hrnn(panel, h, spec)
        save_bundle(bundle, tmp_path / "a")
        save_bundle(bundle, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
