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
with the model tag, training spec, and each node's file name, provenance
and ``sha256``: the hex SHA-256 of the file's bytes.  :func:`load_bundle`
rejects a file whose bytes do not have that hash, and a manifest entry
without one, so bundles written before the hash was recorded no longer
load.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import _RHO, HiergruError
from .models import ModelBundle, TrainSpec
from .registry import lookup

MAGIC = b"HGRUCKPT"
FORMAT_VERSION = 1


def _checkpoint_bytes(tag, node, payload, hidden=0, rho=0, input_dim=0) -> bytes:
    """The bytes of one ``.ckpt`` file."""
    payload = np.ascontiguousarray(payload, dtype="<f8")
    tag_b = tag.encode("utf-8")
    node_b = node.encode("utf-8")
    return b"".join((
        MAGIC,
        struct.pack("<HHIIII", FORMAT_VERSION, 0, hidden, rho, input_dim, len(tag_b)),
        tag_b,
        struct.pack("<I", len(node_b)),
        node_b,
        struct.pack("<Q", payload.shape[0]),
        payload.tobytes(),
    ))


def write_checkpoint(path, **fields) -> bytes:
    """Write one ``.ckpt`` file of ``fields`` in one call and return its bytes."""
    data = _checkpoint_bytes(**fields)
    Path(path).write_bytes(data)
    return data


def _node_bytes(tag: str, node: str, model, rho: int) -> bytes:
    """The node file :func:`save_bundle` writes for ``model``."""
    payload, hidden, input_dim = lookup(tag).encode(model)
    return _checkpoint_bytes(tag, node, payload, hidden, rho, input_dim)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_checkpoint(path) -> dict:
    """Parse one ``.ckpt`` file.  Every declared length is checked against
    the bytes present and trailing bytes are rejected, so a truncated or
    padded file raises :class:`HiergruError` naming it instead of yielding
    a shorter or longer payload."""
    return _parse_checkpoint(Path(path).read_bytes(), path)


def _parse_checkpoint(data: bytes, path) -> dict:
    """:func:`read_checkpoint` of the bytes ``data`` read from ``path``."""
    at = 0

    def take(size: int, what: str) -> bytes:
        nonlocal at
        if size > len(data) - at:
            raise HiergruError(
                f"{path}: truncated {what}: needs {size} bytes at offset {at}, "
                f"file has {len(data)}"
            )
        at += size
        return data[at - size: at]

    def text(what: str) -> str:
        (size,) = struct.unpack("<I", take(4, f"{what} length"))
        try:
            return take(size, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HiergruError(f"{path}: {what} is not UTF-8: {exc}") from exc

    if take(8, "magic") != MAGIC:
        raise HiergruError(f"{path}: not a checkpoint file")
    version, _ = struct.unpack("<HH", take(4, "version"))
    if version != FORMAT_VERSION:
        raise HiergruError(f"{path}: unsupported format version {version}")
    hidden, rho, input_dim = struct.unpack("<III", take(12, "shape fields"))
    tag = text("tag")
    node = text("node id")
    (n,) = struct.unpack("<Q", take(8, "payload length"))
    payload = np.frombuffer(take(8 * n, "payload"), dtype="<f8").copy()
    if at != len(data):
        raise HiergruError(f"{path}: {len(data) - at} trailing bytes after the payload")
    return {
        "tag": tag, "node": node, "hidden": hidden, "rho": rho,
        "input_dim": input_dim, "payload": payload,
    }


# ------------------------------------------------------------------ bundles

def _json_dump(obj, path: Path) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
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
        data = _node_bytes(bundle.tag, node, bundle.models[node], bundle.rho)
        (out / fname).write_bytes(data)
        manifest["nodes"][node] = {
            "file": fname,
            "provenance": bundle.provenance.get(node, {}),
            "sha256": _sha256(data),
        }
    _json_dump(manifest, out / "manifest.json")


def _read_manifest(path: Path) -> dict:
    """A bundle's manifest, checked for the fields :func:`load_bundle` needs."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise HiergruError(f"{path}: not a JSON manifest: {exc}") from exc
    if not (
        isinstance(manifest, dict) and isinstance(manifest.get("tag"), str)
        and _RHO[0](manifest.get("rho")) and isinstance(manifest.get("nodes"), dict)
        and all(
            isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
            and re.fullmatch("[0-9a-f]{64}", entry["sha256"])
            for entry in manifest["nodes"].values()
        )
    ):
        raise HiergruError(
            f"{path}: a manifest needs a string 'tag', a 'rho' that is {_RHO[1]} "
            "and a 'nodes' object of objects, each with a 64-hex-digit 'sha256'"
        )
    nodes, neighbors = manifest["nodes"], manifest.get("neighbors")
    if neighbors is not None and not (
        "spec" in manifest and isinstance(neighbors, dict)
        and neighbors.keys() == nodes.keys() and all(
            isinstance(nbs, list) and all(isinstance(c, str) and c in nodes for c in nbs)
            for nbs in neighbors.values()
        )
    ):
        raise HiergruError(
            f"{path}: 'neighbors' must be an object mapping each of the bundle's "
            "node ids to a list of its node ids, in a manifest with a 'spec'"
        )
    return manifest


def _checkpoint_path(root: Path, manifest: Path, node: str, name) -> Path:
    """The checkpoint a manifest entry names: only a bare file name of a
    regular file in the bundle directory, so no entry reads outside it."""
    if not (isinstance(name, str) and name != ".." and Path(name).name == name):
        raise HiergruError(
            f"{manifest}: node {node!r} file {name!r} is not a bare file name"
        )
    path = root / name
    if path.is_symlink() or not path.is_file():
        raise HiergruError(
            f"{manifest}: node {node!r} file {name!r} is not a regular file "
            "in the bundle directory"
        )
    return path


def load_bundle(dirpath) -> ModelBundle:
    """Rebuild a bundle from a bundle directory.  A node file loads only if
    :func:`save_bundle` would write it back byte for byte: its payload
    decodes, at the widths the manifest gives (with a ``spec``, its
    ``hidden`` and one plus the node's neighbour count; else 0 and 0), to
    a model whose own rho, where it has one, is the manifest's, and whose
    bytes under the manifest's tag, node id and rho are the file's.  Any
    other node file, one that is not a regular file in the directory or
    lacks the manifest's ``sha256``, and a malformed manifest raise
    :class:`HiergruError` naming the manifest (and the node and file)."""
    root = Path(dirpath)
    manifest_path = root / "manifest.json"
    manifest = _read_manifest(manifest_path)
    tag, rho, neighbors = manifest["tag"], manifest["rho"], manifest.get("neighbors")
    try:
        spec = TrainSpec(**manifest["spec"]) if "spec" in manifest else None
        if spec is not None and spec.rho != rho:
            raise HiergruError(f"rho {spec.rho} is not the manifest's rho {rho}")
    except (TypeError, HiergruError) as exc:
        raise HiergruError(f"{manifest_path}: invalid 'spec': {exc}") from exc
    models = {}
    provenance = {}
    for node, entry in manifest["nodes"].items():
        path = _checkpoint_path(root, manifest_path, node, entry.get("file"))
        data = path.read_bytes()
        if _sha256(data) != entry["sha256"]:
            raise HiergruError(
                f"{manifest_path}: node {node!r} file {entry['file']!r} does not "
                "match its sha256"
            )
        widths = (0, 0) if spec is None else (
            spec.hidden, 1 + len(neighbors[node]) if neighbors else 1
        )
        try:
            payload = _parse_checkpoint(data, path)["payload"]
            model = lookup(tag).decode(payload, *widths, rho)
            back = _node_bytes(tag, node, model, rho)
            if (back, getattr(model, "rho", rho)) != (data, rho):
                raise HiergruError("save_bundle would not write its model back to it")
        except (HiergruError, ArithmeticError, IndexError, ValueError) as exc:
            raise HiergruError(
                f"{manifest_path}: node {node!r} file {entry['file']!r} is not a "
                f"{tag} node file: {exc}"
            ) from exc
        models[node] = model
        provenance[node] = entry.get("provenance", {})
    label = manifest.get("label")
    return ModelBundle(
        tag=tag,
        rho=rho,
        models=models,
        provenance=provenance,
        spec=spec,
        neighbors=(
            None if neighbors is None
            else {n: tuple(v) for n, v in neighbors.items()}
        ),
        label=None if label == tag else label,
    )
