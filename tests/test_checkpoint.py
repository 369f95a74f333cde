import hashlib
import json
import shutil
import tempfile

import numpy as np
import pytest
from conftest import panel_from_rates
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from hiergru.dataset import SynthSpec, synth_panel
from hiergru.errors import HiergruError, InsufficientNeighborsWarning
from hiergru.gru import flatten, init_params
from hiergru.hierarchy import build_hierarchy
from hiergru.models import TrainSpec, train_hrnn, train_igru, train_knn_gru
from hiergru.registry import TAGS, lookup


U32 = st.integers(0, 2**32 - 1)
# float64 bit patterns: any uint64, with -0.0, both infinities, a quiet and
# a signalling NaN carrying payload bits, and the largest subnormal mixed in
FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([
        0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
        0x7FF8000000000123, 0xFFF4000000000abc, 0x000FFFFFFFFFFFFF,
    ]),
)


class TestRawCheckpoint:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=st.lists(FLOAT_BITS, max_size=40), tag=st.text(), node=st.text(),
           hidden=U32, rho=U32, input_dim=U32)
    def test_any_fields_and_payload_bits_roundtrip(
        self, tmp_path, bits, tag, node, hidden, rho, input_dim
    ):
        payload = np.array(bits, dtype=np.uint64).view(np.float64)
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, tag=tag, node=node, payload=payload,
                         hidden=hidden, rho=rho, input_dim=input_dim)
        back = read_checkpoint(path)
        assert back.pop("payload").tobytes() == payload.tobytes()
        assert back == {"tag": tag, "node": node, "hidden": hidden, "rho": rho,
                        "input_dim": input_dim}

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

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), length=st.integers(30, 48),
           rho=st.integers(1, 4), hidden=st.integers(1, 3),
           epochs=st.integers(1, 2), n_trees=st.integers(2, 4),
           max_depth=st.integers(0, 3))
    def test_every_tag_roundtrips_bit_exactly(
        self, seed, length, rho, hidden, epochs, n_trees, max_depth
    ):
        # every registered tag: fit small, save, reload; each node model
        # encodes to the payload it was saved from, and the reloaded
        # forecasts match the in-memory bundle's bit for bit
        h, panel = synth_panel(SynthSpec(
            depth=1, branching=2, length=length, leaf_noise_sd=0.5, seed=seed))
        small = {"rho": rho, "hidden": hidden, "epochs": epochs,
                 "n_trees": n_trees, "max_depth": max_depth, "k_neighbors": 2}
        with tempfile.TemporaryDirectory() as tmp:
            for tag, entry in TAGS.items():
                params = {k: v for k, v in small.items() if k in entry.keys}
                model = {"tag": tag, "label": tag, "params": params, "grid": {}}
                bundle, _ = fit_entry(model, panel, h, seed, {})
                save_bundle(bundle, f"{tmp}/{tag}")
                back = load_bundle(f"{tmp}/{tag}")
                assert (back.tag, back.rho, back.spec, back.neighbors) == (
                    tag, bundle.rho, bundle.spec, bundle.neighbors
                )
                assert back.covered_nodes() == bundle.covered_nodes() == tuple(
                    sorted(h.nodes)
                )
                for n in h.nodes:
                    payload, *shape = entry.encode(bundle.models[n])
                    again, *shape_again = entry.encode(back.models[n])
                    assert (again.tobytes(), shape_again) == (
                        payload.tobytes(), shape
                    ), f"{tag} {n}"
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



class TestChecksums:
    @pytest.fixture(scope="class")
    def bundle_dir(self, tmp_path_factory):
        spec = SynthSpec(depth=1, branching=2, length=40, leaf_noise_sd=0.5, seed=3)
        h, panel = synth_panel(spec)
        out = tmp_path_factory.mktemp("igru")
        save_bundle(train_igru(panel, h, TrainSpec(rho=2, hidden=2, epochs=2)), out)
        return out

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_byte_flip_and_truncation_rejected(self, bundle_dir, data):
        path = data.draw(st.sampled_from(sorted(bundle_dir.glob("*.ckpt"))))
        whole = path.read_bytes()
        at = data.draw(st.integers(0, len(whole) - 1))
        if data.draw(st.booleans()):
            mask = data.draw(st.integers(1, 255))
            bad = whole[:at] + bytes([whole[at] ^ mask]) + whole[at + 1:]
        else:
            bad = whole[:at]
        try:
            path.write_bytes(bad)
            with pytest.raises(HiergruError, match="manifest.json"):
                load_bundle(bundle_dir)
        finally:
            path.write_bytes(whole)


_DROP, _ABSOLUTE, _EVERY_NODE = object(), object(), object()
_OUTSIDE = "outside.ckpt"  # a regular file next to the bundle directory
_NODE_FILES = "(node files)"

# manifest text, or {key: value} edits of the manifest ("file" and
# "sha256": of its first node entry); _DROP deletes the key, _ABSOLUTE is
# the outside file's absolute path, _EVERY_NODE maps every node id to [];
# _NODE_FILES is (payload edit, header edits) made first to every node file
# of the rho-2 ar bundle, each rehashed
MALFORMED = {
    "not-json": "{not json",
    "not-object": "[]",
    "deep-nesting": "[" * 100_000,
    "no-nodes": {"nodes": _DROP},
    "no-rho": {"rho": _DROP},
    "string-rho": {"rho": "3"},
    "rho-mismatch": {"rho": 3},  # the node files hold rho 2
    "no-tag": {"tag": _DROP},
    "nodes-list": {"nodes": ["root"]},
    "entry-string": {"nodes": {"root": "node_00000.ckpt"}},
    "no-file": {"file": _DROP},
    "file-number": {"file": 7},
    "file-empty": {"file": ""},
    "file-dot": {"file": "."},
    "file-dotdot": {"file": ".."},
    "file-missing": {"file": "missing.ckpt"},
    "file-parent": {"file": f"../{_OUTSIDE}"},
    "file-absolute": {"file": _ABSOLUTE},
    "no-sha256": {"sha256": _DROP},
    "sha256-short": {"sha256": "ab"},
    "sha256-upper": {"sha256": "AB" * 32},
    "sha256-number": {"sha256": 7},
    "sha256-mismatch": {"sha256": "0" * 64},
    "spec-unknown-key": {"spec": {"bogus": 1}},
    "spec-out-of-range": {"spec": {"rho": 0}},
    "spec-list": {"spec": [4]},
    "spec-null": {"spec": None},
    "neighbors-number": {"neighbors": {"root": 5}},
    "neighbors-list": {"neighbors": [1, 2]},
    "neighbors-number-ids": {"neighbors": {"root": [1]}},
    "neighbors-string": {"neighbors": "root.0"},
    "neighbors-unknown-node": {"neighbors": {"root": ["ghost"]}},
    "neighbors-unknown-key": {"neighbors": {"ghost": ["root"]}},
    # an ar model of rho 0 is an intercept alone, so the files agree
    "rho-0": {"rho": 0, _NODE_FILES: (lambda p: p[:1], {"rho": 0})},
    "neighbors-without-spec": {"neighbors": _EVERY_NODE},
}


class TestMalformedManifest:
    @pytest.fixture
    def bundle_dir(self, small_synth, tmp_path):
        h, panel = small_synth
        save_bundle(fit_baseline(panel, h, "ar", rho=2), tmp_path / "ar")
        shutil.copyfile(tmp_path / "ar" / "node_00000.ckpt", tmp_path / _OUTSIDE)
        return tmp_path / "ar"

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_naming_the_manifest(self, bundle_dir, case):
        path = bundle_dir / "manifest.json"
        edit = MALFORMED[case]
        if not isinstance(edit, str):
            if _NODE_FILES in edit:
                payload_edit, header = edit[_NODE_FILES]
                for name in sorted(p.name for p in bundle_dir.glob("*.ckpt")):
                    rehashed(bundle_dir, name, payload_edit, **header)
            manifest = json.loads(path.read_text(encoding="utf-8"))
            for key, value in edit.items():
                if key == _NODE_FILES:
                    continue
                at = manifest
                if key in ("file", "sha256"):
                    at = next(iter(manifest["nodes"].values()))
                if value is _DROP:
                    del at[key]
                elif value is _ABSOLUTE:
                    at[key] = str(bundle_dir.parent / _OUTSIDE)
                elif value is _EVERY_NODE:
                    at[key] = {n: [] for n in manifest["nodes"]}
                else:
                    at[key] = value
            edit = json.dumps(manifest)
        path.write_text(edit, encoding="utf-8")
        with pytest.raises(HiergruError, match="manifest.json"):
            load_bundle(bundle_dir)

    def test_symlinked_file_rejected(self, bundle_dir):
        (bundle_dir / "node_00000.ckpt").unlink()
        (bundle_dir / "node_00000.ckpt").symlink_to(bundle_dir.parent / _OUTSIDE)
        with pytest.raises(HiergruError, match="manifest.json"):
            load_bundle(bundle_dir)

    def test_knngru_neighbors_missing_a_node_rejected(self, tmp_path):
        # one node, so no neighbours and one input channel: an empty map
        # gives the same width, but forecasting looks the node up in it
        h = build_hierarchy([("root", None, 1.0)])
        panel = panel_from_rates({"root": np.sin(np.arange(40.0))})
        spec = TrainSpec(rho=2, hidden=2, epochs=1, k_neighbors=1)
        with pytest.warns(InsufficientNeighborsWarning):
            bundle = train_knn_gru(panel, h, spec)
        assert bundle.neighbors == {"root": ()}
        save_bundle(bundle, tmp_path / "knn")
        path = tmp_path / "knn" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**manifest, "neighbors": {}}), encoding="utf-8")
        with pytest.raises(HiergruError, match="manifest.json"):
            load_bundle(tmp_path / "knn")

    def test_gru_bundle_without_spec_rejected(self, small_synth, tmp_path):
        # without a spec the widths are 0 and 0: a zero-width unit would
        # load and fail only when it forecasts
        h, panel = small_synth
        bundle_dir = tmp_path / "igru"
        save_bundle(train_igru(panel, h, TrainSpec(rho=2, hidden=2, epochs=1)),
                    bundle_dir)
        path = bundle_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["spec"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        for name in sorted(p.name for p in bundle_dir.glob("*.ckpt")):
            rehashed(bundle_dir, name, lambda p: p[-1:], hidden=0, input_dim=0)
        with pytest.raises(HiergruError, match="manifest.json"):
            load_bundle(bundle_dir)

    def test_spec_rho_other_than_the_bundle_rho_rejected(self, small_synth, tmp_path):
        h, panel = small_synth
        save_bundle(train_igru(panel, h, TrainSpec(rho=4, hidden=2, epochs=1)),
                    tmp_path / "igru")
        path = tmp_path / "igru" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["spec"]["rho"] = 3
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(HiergruError, match="manifest.json"):
            load_bundle(tmp_path / "igru")


def rehashed(bundle_dir, name: str, edit, **header) -> None:
    """Replace the payload of the bundle's node file ``name`` by ``edit`` of
    it, and its header fields by ``header``, and record the rewritten
    file's sha256 in the manifest, so that only decoding can tell the
    edit."""
    path = bundle_dir / name
    ck = read_checkpoint(path)
    write_checkpoint(path, payload=edit(ck.pop("payload")), **{**ck, **header})
    record_sha256(bundle_dir, name)


def record_sha256(bundle_dir, name: str) -> None:
    """Record the sha256 of the bundle's node file ``name`` in its manifest."""
    path = bundle_dir / name
    manifest_path = bundle_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["nodes"].values():
        if entry["file"] == name:
            entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def set_at(payload, at: int, value: float):
    payload[at] = value
    return payload


def assert_trees_descend(model, rho: int) -> None:
    """Every node of every tree is a leaf or a split on a feature below
    ``rho`` at a finite threshold whose children come later in its tree,
    so that every descent ends."""
    for tree in model.trees:
        n = tree.feature.shape[0]
        assert n >= 1
        for i in range(n):
            if tree.feature[i] != -1:
                assert 0 <= tree.feature[i] < rho
                assert np.isfinite(tree.threshold[i])
                assert i < tree.left[i] < n and i < tree.right[i] < n


class TestTreePayloads:
    RHO = 4

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        spec = SynthSpec(depth=1, branching=2, length=40, leaf_noise_sd=0.5, seed=3)
        h, panel = synth_panel(spec)
        out = tmp_path_factory.mktemp("trees")
        for tag, cfg in (("rf", ForestConfig(n_trees=3)),
                         ("gbt", GbtConfig(n_trees=3))):
            save_bundle(fit_baseline(panel, h, tag, rho=self.RHO, cfg=cfg), out / tag)
        return out

    @staticmethod
    def assert_named_failure(bundle_dir, name: str) -> None:
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        node = next(n for n, e in manifest["nodes"].items() if e["file"] == name)
        with pytest.raises(HiergruError) as err:
            load_bundle(bundle_dir)
        for part in ("manifest.json", repr(node), repr(name)):
            assert part in str(err.value)

    def edit_root(self, payload, **cells):
        # the first tree's root row: feature, threshold, left, right, value
        assert payload[5] >= 0, "the first tree's root is a split"
        for column, value in cells.items():
            payload[5 + ("feature", "threshold", "left", "right").index(column)] = value
        return payload

    @pytest.mark.parametrize("case", [
        "root-self-loop", "feature-99", "tree-count-1e9", "tree-count-nan",
    ])
    def test_inconsistent_payload_raises_naming_manifest_node_and_file(
        self, bundles, tmp_path, case
    ):
        bundle_dir = shutil.copytree(bundles / "rf", tmp_path / "rf")
        edits = {
            "root-self-loop": lambda p: self.edit_root(p, left=0, right=0),
            "feature-99": lambda p: self.edit_root(p, feature=99),
            "tree-count-1e9": lambda p: set_at(p, 3, 1e9),
            "tree-count-nan": lambda p: set_at(p, 3, np.nan),
        }
        assert read_checkpoint(bundle_dir / "node_00000.ckpt")["payload"][3] == 3
        rehashed(bundle_dir, "node_00000.ckpt", edits[case])
        self.assert_named_failure(bundle_dir, "node_00000.ckpt")

    @pytest.mark.parametrize("tag", ["fc", "igru"])
    def test_payload_one_value_short_raises_naming_manifest_node_and_file(
        self, tmp_path, tag
    ):
        spec = SynthSpec(depth=1, branching=2, length=40, leaf_noise_sd=0.5, seed=3)
        h, panel = synth_panel(spec)
        params = {"rho": 3, "hidden": 2, "epochs": 1}
        entry = {"tag": tag, "label": tag, "params": params, "grid": {}}
        save_bundle(fit_entry(entry, panel, h, 0, {})[0], tmp_path / tag)
        rehashed(tmp_path / tag, "node_00000.ckpt", lambda p: p[:-1])
        self.assert_named_failure(tmp_path / tag, "node_00000.ckpt")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_edited_float_raises_or_decodes_descending_trees(
        self, bundles, tmp_path, data
    ):
        # never predicts: a tree that loops would not return
        tag = data.draw(st.sampled_from(["rf", "gbt"]))
        bundle_dir = tmp_path / "bundle"
        shutil.rmtree(bundle_dir, ignore_errors=True)
        shutil.copytree(bundles / tag, bundle_dir)
        name = data.draw(st.sampled_from(
            sorted(p.name for p in bundle_dir.glob("*.ckpt"))
        ))
        size = read_checkpoint(bundle_dir / name)["payload"].shape[0]
        at = data.draw(st.integers(0, size - 1))
        value = data.draw(st.one_of(
            st.integers(-2, 2 * size).map(float),
            FLOAT_BITS.map(lambda b: np.array(b, dtype=np.uint64).view(np.float64)),
            st.sampled_from([np.nan, np.inf, 0.5, 1e9, -0.0]),
        ))
        rehashed(bundle_dir, name, lambda p: set_at(p, at, value))
        try:
            bundle = load_bundle(bundle_dir)
        except HiergruError:
            self.assert_named_failure(bundle_dir, name)
        else:
            for model in bundle.models.values():
                assert_trees_descend(model, self.RHO)


# (tag, payload edit, header edits) of a saved rho-4 bundle's first node
# file; the load rule rejects each, since its model does not encode back to
# the edited file or is not one the package writes
LOAD_RULE_CASES = {
    "ar-emptied": ("ar", lambda p: p[:0], {}),
    "ar-cut-by-one": ("ar", lambda p: p[:-1], {}),
    "rw-2.5": ("rw", lambda p: np.array([2.5]), {}),
    "rw-rho-plus-1": ("rw", lambda p: p + 1.0, {}),
    "rf-header-hidden-5": ("rf", lambda p: p, {"hidden": 5}),
    "rf-trailing-value": ("rf", lambda p: np.append(p, 0.0), {}),
    "rf-tree-count-2.5": ("rf", lambda p: set_at(p, 3, 2.5), {}),
    "fc-first-size-rho-plus-1": ("fc", lambda p: set_at(p, 1, p[1] + 1.0), {}),
    # encodes back, but three outputs: fitted networks have one
    "fc-sizes-4-3": ("fc", lambda p: np.r_[2.0, 4.0, 3.0, np.zeros(4 * 3 + 3)], {}),
    # a GRU unit of another width than the manifest's spec.hidden (2)
    "igru-header-hidden-1": (
        "igru", lambda p: flatten(init_params(1, np.random.default_rng(0))),
        {"hidden": 1},
    ),
    "igru-header-hidden-0": ("igru", lambda p: np.array([0.5]), {"hidden": 0}),
}


class TestLoadRule:
    RHO = 4

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        spec = SynthSpec(depth=1, branching=2, length=40, leaf_noise_sd=0.5, seed=3)
        h, panel = synth_panel(spec)
        out = tmp_path_factory.mktemp("load_rule")
        params = {"rho": self.RHO, "n_trees": 3, "hidden": 2, "epochs": 1}
        for tag in ("ar", "rw", "rf", "fc", "igru"):
            keys = {k: v for k, v in params.items() if k in TAGS[tag].keys}
            entry = {"tag": tag, "label": tag, "params": keys, "grid": {}}
            save_bundle(fit_entry(entry, panel, h, 0, {})[0], out / tag)
        return out

    @pytest.mark.parametrize("case", sorted(LOAD_RULE_CASES))
    def test_file_not_encoded_back_raises_naming_manifest_node_and_file(
        self, bundles, tmp_path, case
    ):
        tag, edit, header = LOAD_RULE_CASES[case]
        bundle_dir = shutil.copytree(bundles / tag, tmp_path / tag)
        ck = read_checkpoint(bundle_dir / "node_00000.ckpt")
        assert ck["rho"] == self.RHO
        assert ck["hidden"] == (2 if tag == "igru" else 0)
        assert tag != "rw" or ck["payload"].tolist() == [self.RHO]
        assert tag != "rf" or ck["payload"][3] == 3
        assert tag != "fc" or ck["payload"][1] == self.RHO
        rehashed(bundle_dir, "node_00000.ckpt", edit, **header)
        TestTreePayloads.assert_named_failure(bundle_dir, "node_00000.ckpt")


# header field -> its edit in a saved bundle's first node file (node
# "root"): another tag, another node's id, and one more than save_bundle
# writes; None sets a reserved flag (the bytes at offset 10)
HEADER_EDITS = {
    "tag": lambda ck: "rw" if ck["tag"] == "ar" else "ar",
    "node": lambda ck: "root.0",
    "flags": None,
    "hidden": lambda ck: ck["hidden"] + 1,
    "rho": lambda ck: ck["rho"] + 1,
    "input_dim": lambda ck: ck["input_dim"] + 1,
}


class TestHeaderFields:
    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        spec = SynthSpec(depth=1, branching=2, length=40, leaf_noise_sd=0.5, seed=3)
        h, panel = synth_panel(spec)
        out = tmp_path_factory.mktemp("headers")
        small = {"rho": 3, "hidden": 2, "epochs": 1, "n_trees": 2, "max_depth": 2,
                 "k_neighbors": 2}
        for tag, entry in TAGS.items():
            params = {k: v for k, v in small.items() if k in entry.keys}
            model = {"tag": tag, "label": tag, "params": params, "grid": {}}
            save_bundle(fit_entry(model, panel, h, 0, {})[0], out / tag)
        return out

    @pytest.mark.parametrize("field", sorted(HEADER_EDITS))
    @pytest.mark.parametrize("tag", sorted(TAGS))
    def test_edited_field_raises_naming_manifest_node_and_file(
        self, bundles, tmp_path, tag, field
    ):
        bundle_dir = shutil.copytree(bundles / tag, tmp_path / tag)
        name = "node_00000.ckpt"
        edit = HEADER_EDITS[field]
        if edit is None:
            path = bundle_dir / name
            data = bytearray(path.read_bytes())
            assert data[10:12] == b"\0\0"
            data[10] = 1
            path.write_bytes(bytes(data))
            record_sha256(bundle_dir, name)
        else:
            ck = read_checkpoint(bundle_dir / name)
            assert ck["node"] == "root"
            rehashed(bundle_dir, name, lambda p: p, **{field: edit(ck)})
        TestTreePayloads.assert_named_failure(bundle_dir, name)
