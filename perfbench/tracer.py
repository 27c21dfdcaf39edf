"""Wrap-and-restore span recorder for the traced run.

The recorder replaces public entry points of each layer with a wrapper
that records a span (name, start, end, parent, thread) and restores the
originals afterwards; nothing under ``src/`` changes.  Spans are kept in
memory and written out at the end.  A layer's self time is its spans'
durations minus the time their direct child spans cover; the op spans
the benchmark opens around each operation are the roots, and their self
time is reported as ``unattributed``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["SpanRecorder", "LAYER_ENTRY_POINTS", "ROOT"]

#: Name of the span the benchmark opens around every operation.
ROOT = "op"

#: (module, attribute path, layer).  The attribute path is looked up on
#: the imported module; a dotted path names a class attribute.  Each is
#: an entry point the program resolves at call time (a method, or a
#: module global looked up by name), so replacing it is seen by callers.
LAYER_ENTRY_POINTS: List[Tuple[str, str, str]] = [
    ("repro.translator.translator", "Translator.translate_file",
     "translator"),
    ("repro.runtime.context", "ConnectionContext.execute_entry", "runtime"),
    ("repro.runtime.context", "ConnectionContext.execute_batch_entry",
     "runtime"),
    ("repro.procedures.invocation", "call_routine", "procedures"),
    ("repro.dbapi.cursor", "Cursor.execute", "dbapi"),
    ("repro.dbapi.cursor", "Cursor.executemany", "dbapi"),
    ("repro.dbapi.statement", "Statement._run", "dbapi"),
    ("repro.dbapi.statement", "PreparedStatement._run_prepared", "dbapi"),
    ("repro.dbapi.remote", "RemoteSession.execute", "remote"),
    ("repro.dbapi.remote", "RemoteSession.execute_batch", "remote"),
    ("repro.dbapi.remote", "RemoteSession._fetch_page", "remote"),
    ("repro.server.protocol", "encode_frame", "codec"),
    ("repro.server.protocol", "decode_payload", "codec"),
    ("repro.engine.database", "Session.execute", "session"),
    ("repro.engine.database", "Session.execute_statement", "session"),
    ("repro.engine.database", "Session.execute_batch", "session"),
    ("repro.engine.database", "PreparedStatementPlan.execute", "session"),
    ("repro.engine.parser", "Parser.parse_statement", "parser"),
    ("repro.engine.database", "plan_query", "planner"),
    ("repro.engine.executor", "QueryPlan.run", "executor"),
    ("repro.engine.database", "Session.finish_rowset", "executor"),
    ("repro.engine.dml", "execute_insert", "dml"),
    ("repro.engine.dml", "execute_update", "dml"),
    ("repro.engine.dml", "execute_delete", "dml"),
    ("repro.engine.dml", "execute_insert_batch", "dml"),
    ("repro.engine.dml", "_matching_versions", "dml"),
    ("repro.engine.dml", "_check_unique", "dml"),
    ("repro.engine.wal", "WriteAheadLog.append", "wal"),
    ("repro.engine.wal", "WriteAheadLog.sync_to", "wal"),
    ("repro.engine.durability", "DurabilityManager.checkpoint",
     "durability"),
    ("repro.engine.lsm.store", "LsmStore.flush", "lsm"),
    ("repro.engine.lsm.store", "LsmStore.compact", "lsm"),
    ("repro.engine.lsm.store", "write_sstable", "lsm"),
]

#: Layers whose self time is reported per op, in report order.
OP_LAYERS = [
    "session", "runtime", "procedures", "dbapi", "remote", "codec",
    "parser", "planner", "executor", "dml", "wal", "durability", "lsm",
]


class SpanRecorder:
    """Records spans from wrapped entry points while :attr:`active`.

    A span is ``[name, layer, start, end, parent_index, thread_id]``;
    ``parent_index`` is the index of the enclosing span on the same
    thread (-1 for a root).  ``probes`` maps a span name to a function
    called with ``(args, result)`` after the call returns, for counts
    the benchmark derives at a boundary (heap sizes, bytes written).
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.active = False
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, bool, Any]] = []
        self.probes: Dict[str, Callable[[tuple, Any], None]] = {}

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def install(
        self,
        entries: List[Tuple[str, str, str]] = LAYER_ENTRY_POINTS,
    ) -> None:
        import importlib

        for module_name, path, layer in entries:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                getattr(owner, parts[-1])
            except AttributeError:
                # The entry point moved or was removed: report it rather
                # than fail, so the run still measures the other layers.
                self.missing.append(f"{module_name}.{path}")
                continue
            self.wrap(owner, parts[-1], path, layer)

    def wrap(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` (a method or module function) with a
        wrapper recording a span called ``name`` in ``layer``."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return original(*args, **kwargs)
            index = recorder._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            probe = recorder.probes.get(name)
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__doc__ = original.__doc__
        self._restore.append((owner, attr, own, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest first."""
        self.active = False
        while self._restore:
            owner, attr, own, original = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> int:
        stack = self._stack()
        span = [name, layer, perf_counter(), 0.0,
                stack[-1] if stack else -1, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack().pop()

    def op(self) -> "_OpSpan":
        """Context manager for the root span around one operation."""
        return _OpSpan(self)

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(self.spans[index][0] == name for index in self._stack())

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def summary(self, first: int = 0) -> Dict[str, Any]:
        """Per-name and per-layer totals over spans ``first`` onwards.

        ``names[name]`` = ``{"count", "total", "self", "max", "top",
        "top_total"}``, where ``top`` counts the spans with no ancestor
        of the same name and ``top_total`` sums their durations;
        ``op_layers[layer]`` is the self time of that layer's spans
        that ran under an op span (the op spans' own self time is
        ``unattributed``); ``ops`` and ``op_total`` describe the op
        spans.  Spans still open (a background thread outliving the
        phase) are left out.
        """
        spans = self.spans[:]
        count = len(spans)
        child_time = [0.0] * count
        under_op = [False] * count
        nested = [False] * count
        for index in range(first, count):
            span = spans[index]
            parent = span[4]
            if parent < first or span[3] == 0.0:
                continue
            child_time[parent] += span[3] - span[2]
            under_op[index] = under_op[parent] or spans[parent][0] == ROOT
            nested[index] = _has_ancestor(spans, parent, span[0])
        names: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0,
                     "top": 0, "top_total": 0.0}
        )
        op_layers: Dict[str, float] = defaultdict(float)
        ops = 0
        op_total = 0.0
        for index in range(first, count):
            span = spans[index]
            if span[3] == 0.0:
                continue
            duration = span[3] - span[2]
            own = duration - child_time[index]
            entry = names[span[0]]
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += own
            entry["max"] = max(entry["max"], duration)
            if not nested[index]:
                entry["top"] += 1
                entry["top_total"] += duration
            if span[0] == ROOT:
                ops += 1
                op_total += duration
                op_layers["unattributed"] += own
            elif under_op[index]:
                op_layers[span[1]] += own
        return {
            "names": dict(names),
            "op_layers": dict(op_layers),
            "ops": ops,
            "op_total": op_total,
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the
        first span, in seconds)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, layer, start, end, parent, thread) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "layer": layer,
                    "start": start - base, "end": end - base,
                    "parent": parent, "thread": thread,
                }) + "\n")


def _has_ancestor(spans: List[List[Any]], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][4]
    return False


class _OpSpan:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def __enter__(self) -> "_OpSpan":
        self._index = self._recorder._open(ROOT, ROOT)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._recorder._close(self._index)
