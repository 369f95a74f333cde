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

from .errors import HiergruError, _is_int
from .models import ModelBundle, TrainSpec
from .registry import lookup

MAGIC = b"HGRUCKPT"
FORMAT_VERSION = 1


def write_checkpoint(
    path, *, tag: str, node: str, payload: np.ndarray,
    hidden: int = 0, rho: int = 0, input_dim: int = 0,
) -> bytes:
    """Write one ``.ckpt`` file in one call and return its bytes."""
    payload = np.ascontiguousarray(payload, dtype="<f8")
    tag_b = tag.encode("utf-8")
    node_b = node.encode("utf-8")
    data = b"".join((
        MAGIC,
        struct.pack("<HHIIII", FORMAT_VERSION, 0, hidden, rho, input_dim, len(tag_b)),
        tag_b,
        struct.pack("<I", len(node_b)),
        node_b,
        struct.pack("<Q", payload.shape[0]),
        payload.tobytes(),
    ))
    Path(path).write_bytes(data)
    return data


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
        model = bundle.models[node]
        payload, hidden, input_dim = lookup(bundle.tag).encode(model)
        data = write_checkpoint(
            out / fname, tag=bundle.tag, node=node, payload=payload,
            hidden=hidden, rho=bundle.rho, input_dim=input_dim,
        )
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
        and _is_int(manifest.get("rho")) and isinstance(manifest.get("nodes"), dict)
        and all(
            isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
            and re.fullmatch("[0-9a-f]{64}", entry["sha256"])
            for entry in manifest["nodes"].values()
        )
    ):
        raise HiergruError(
            f"{path}: a manifest needs a string 'tag', an integer 'rho' and a "
            "'nodes' object of objects, each with a 64-hex-digit 'sha256'"
        )
    nodes, neighbors = manifest["nodes"], manifest.get("neighbors")
    if neighbors is not None and not (
        isinstance(neighbors, dict) and all(
            n in nodes and isinstance(nbs, list)
            and all(isinstance(c, str) and c in nodes for c in nbs)
            for n, nbs in neighbors.items()
        )
    ):
        raise HiergruError(
            f"{path}: 'neighbors' must be an object mapping the bundle's node "
            "ids to lists of its node ids"
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
    """Rebuild a bundle from a bundle directory.  A malformed manifest (its
    ``spec`` and ``neighbors`` included), a node file that is not a regular
    file inside the directory, one whose bytes do not have the manifest's
    ``sha256``, one whose rho is not the manifest's, one whose hidden is not
    the ``spec``'s (when the manifest has one), or one whose payload
    does not decode as a model of the tag that encodes back to the file
    (:meth:`~hiergru.registry.TagEntry.load`), raises :class:`HiergruError`
    naming the manifest, the node and the file."""
    root = Path(dirpath)
    manifest_path = root / "manifest.json"
    manifest = _read_manifest(manifest_path)
    tag = manifest["tag"]
    try:
        spec = TrainSpec(**manifest["spec"]) if "spec" in manifest else None
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
        ck = _parse_checkpoint(data, path)
        if ck["node"] != node or ck["tag"] != tag:
            raise HiergruError(
                f"{entry['file']}: header ({ck['tag']}, {ck['node']}) does not "
                f"match manifest ({tag}, {node})"
            )
        if ck["rho"] != manifest["rho"]:
            raise HiergruError(
                f"{manifest_path}: node {node!r} file {entry['file']!r} has rho "
                f"{ck['rho']}, but the manifest has rho {manifest['rho']}"
            )
        if spec is not None and ck["hidden"] != spec.hidden:
            raise HiergruError(
                f"{manifest_path}: node {node!r} file {entry['file']!r} has "
                f"hidden {ck['hidden']}, but the manifest's spec has hidden "
                f"{spec.hidden}"
            )
        try:
            models[node] = lookup(tag).load(
                ck["payload"], ck["hidden"], ck["input_dim"], ck["rho"]
            )
        except (HiergruError, ArithmeticError, IndexError, ValueError) as exc:
            raise HiergruError(
                f"{manifest_path}: node {node!r} file {entry['file']!r} does not "
                f"decode as a {tag} model: {exc}"
            ) from exc
        provenance[node] = entry.get("provenance", {})
    label = manifest.get("label")
    neighbors = manifest.get("neighbors")
    return ModelBundle(
        tag=tag,
        rho=manifest["rho"],
        models=models,
        provenance=provenance,
        spec=spec,
        neighbors=(
            None if neighbors is None
            else {n: tuple(v) for n, v in neighbors.items()}
        ),
        label=None if label == tag else label,
    )
