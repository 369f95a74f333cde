"""In-memory span recorder fed by wrappers around hiergru's public functions.

A wrapped function is rebound under every name that refers to it in every
loaded ``hiergru`` module, because ``from .x import f`` copies the binding:
wrapping only ``hiergru.gru.predict_sequence`` would miss the calls that
``hiergru.models`` makes through its own imported name.  Nothing under
``src/`` knows about the tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import NamedTuple

import numpy as np


class SpanStats(NamedTuple):
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    top_s: float = 0.0  # time in spans that have no parent span


class Tracer:
    """Records (name, start, end, parent) for every call through a wrapper.

    Single-threaded by design: the traced run uses ``--jobs 1`` and one span
    stack.  Spans live in flat arrays until :meth:`save` writes them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _wrap(self, fn, name: str, suffix=None):
        clock = time.perf_counter_ns
        fixed = self._intern(name) if suffix is None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = fixed if suffix is None else self._intern(
                f"{name}:{suffix(args, kwargs)}"
            )
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def wrap_function(self, module, attr: str, name: str, suffix=None) -> None:
        """Wrap ``module.attr`` and rebind it wherever hiergru imported it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(original, name, suffix)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hiergru" or mod_name.startswith("hiergru.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, suffix=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(name)
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, suffix))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def summary(self) -> dict[str, SpanStats]:
        """Per span name.  Self time is a span's duration minus the time its
        direct child spans cover."""
        n = len(self.start)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (
            np.frombuffer(self.end, dtype=np.int64)
            - np.frombuffer(self.start, dtype=np.int64)
        ) / 1e9
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        top = np.bincount(ids[~nested], weights=dur[~nested], minlength=k)
        return {
            name: SpanStats(int(calls[i]), float(total[i]), float(own[i]), float(top[i]))
            for i, name in enumerate(self.names)
        }

    def total_under(self, name: str, parent_name: str) -> float:
        """Seconds spent in ``name`` spans whose direct parent is a
        ``parent_name`` span."""
        if name not in self._name_ids or parent_name not in self._name_ids:
            return 0.0
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        hit = (ids == self._name_ids[name]) & (parent >= 0)
        hit[hit] = ids[parent[hit]] == self._name_ids[parent_name]
        starts = np.frombuffer(self.start, dtype=np.int64)[hit]
        ends = np.frombuffer(self.end, dtype=np.int64)[hit]
        return float((ends - starts).sum()) / 1e9

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
