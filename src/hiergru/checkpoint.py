"""Binary per-node checkpoints and bundle directories.

Byte layout of a ``.ckpt`` file (all integers little-endian):

    offset  size  field
    0       8     magic  b"HGRUCKPT"
    8       2     format version, u16 (currently 1)
    10      2     reserved flags, u16 (0)
    12      4     hidden size, u32 (0 for non-recurrent payloads)
    16      4     lookback rho, u32
    20      4     input dim, u32 (0 for non-recurrent payloads)
    24      4     tag length, u32, followed by the UTF-8 tag bytes
    ..      4     node id length, u32, followed by the UTF-8 node bytes
    ..      8     payload length n, u64
    ..      8*n   float64 payload, little-endian

Payloads round-trip bit-exactly.  A bundle directory holds one checkpoint
per node (``node_00000.ckpt`` in sorted node order) plus ``manifest.json``
with the model tag, training spec, and per-node provenance.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import HiergruError
from .models import ModelBundle, TrainSpec
from .registry import lookup

MAGIC = b"HGRUCKPT"
FORMAT_VERSION = 1


def write_checkpoint(
    path, *, tag: str, node: str, payload: np.ndarray,
    hidden: int = 0, rho: int = 0, input_dim: int = 0,
) -> None:
    payload = np.ascontiguousarray(payload, dtype="<f8")
    tag_b = tag.encode("utf-8")
    node_b = node.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HH", FORMAT_VERSION, 0))
        fh.write(struct.pack("<III", hidden, rho, input_dim))
        fh.write(struct.pack("<I", len(tag_b)))
        fh.write(tag_b)
        fh.write(struct.pack("<I", len(node_b)))
        fh.write(node_b)
        fh.write(struct.pack("<Q", payload.shape[0]))
        fh.write(payload.tobytes())


def read_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise HiergruError(f"{path}: not a checkpoint file")
        version, _ = struct.unpack("<HH", fh.read(4))
        if version != FORMAT_VERSION:
            raise HiergruError(f"{path}: unsupported format version {version}")
        hidden, rho, input_dim = struct.unpack("<III", fh.read(12))
        (tag_len,) = struct.unpack("<I", fh.read(4))
        tag = fh.read(tag_len).decode("utf-8")
        (node_len,) = struct.unpack("<I", fh.read(4))
        node = fh.read(node_len).decode("utf-8")
        (n,) = struct.unpack("<Q", fh.read(8))
        payload = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
    return {
        "tag": tag, "node": node, "hidden": hidden, "rho": rho,
        "input_dim": input_dim, "payload": payload,
    }


# -------------------------------------------------- model payload encoding

def encode_model(tag: str, model) -> tuple[np.ndarray, int, int]:
    """Returns (payload, hidden, input_dim) for any supported node model."""
    return lookup(tag).encode(model)


def decode_model(tag: str, payload: np.ndarray, *, hidden: int, input_dim: int,
                 rho: int):
    return lookup(tag).decode(payload, hidden, input_dim, rho)


# ------------------------------------------------------------------ bundles

def _json_dump(obj, path: Path) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def save_bundle(bundle, dirpath) -> None:
    """One checkpoint per node plus manifest.json, deterministic layout."""
    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    nodes = bundle.covered_nodes()
    manifest = {
        "format": FORMAT_VERSION,
        "tag": bundle.tag,
        "label": bundle.display_label,
        "rho": bundle.rho,
        "nodes": {},
    }
    if bundle.spec is not None:
        manifest["spec"] = asdict(bundle.spec)
    if bundle.neighbors is not None:
        manifest["neighbors"] = {n: list(nbs) for n, nbs in bundle.neighbors.items()}
    for i, node in enumerate(nodes):
        fname = f"node_{i:05d}.ckpt"
        model = bundle.models[node]
        payload, hidden, input_dim = encode_model(bundle.tag, model)
        write_checkpoint(
            out / fname, tag=bundle.tag, node=node, payload=payload,
            hidden=hidden, rho=bundle.rho, input_dim=input_dim,
        )
        manifest["nodes"][node] = {
            "file": fname,
            "provenance": bundle.provenance.get(node, {}),
        }
    _json_dump(manifest, out / "manifest.json")


def load_bundle(dirpath) -> ModelBundle:
    """Rebuild a bundle from a bundle directory."""
    root = Path(dirpath)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    tag = manifest["tag"]
    models = {}
    provenance = {}
    for node, entry in manifest["nodes"].items():
        ck = read_checkpoint(root / entry["file"])
        if ck["node"] != node or ck["tag"] != tag:
            raise HiergruError(
                f"{entry['file']}: header ({ck['tag']}, {ck['node']}) does not "
                f"match manifest ({tag}, {node})"
            )
        models[node] = decode_model(
            tag, ck["payload"], hidden=ck["hidden"],
            input_dim=ck["input_dim"], rho=ck["rho"],
        )
        provenance[node] = entry.get("provenance", {})
    label = manifest.get("label")
    neighbors = manifest.get("neighbors")
    return ModelBundle(
        tag=tag,
        rho=manifest["rho"],
        models=models,
        provenance=provenance,
        spec=TrainSpec(**manifest["spec"]) if "spec" in manifest else None,
        neighbors=(
            None if neighbors is None
            else {n: tuple(v) for n, v in neighbors.items()}
        ),
        label=None if label == tag else label,
    )
