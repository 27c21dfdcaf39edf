"""Closed-loop load loop, statistics and process measurements.

A workload supplies one *stream* per client: a function returning the
next generated op and a function running it against the program.  The
loop times each op from just before the call into the program to its
return, keeps every sample, and stops at the first deck boundary after
its time (or op budget) is spent, so the stated mix runs exactly.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
import traceback
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from gen import logical_bytes

__all__ = [
    "Mismatch",
    "Phase",
    "closed_loop",
    "deck_size",
    "reference_rate",
    "scaled_loop",
    "percentile",
    "tail",
    "wchar",
    "peak_rss_mb",
    "tree_bytes",
    "timed",
]


class Mismatch(Exception):
    """The program returned something the model says it must not."""


class Phase:
    """What one measured phase did, kept as per-kind latency arrays and
    running totals so its memory does not grow with the program's
    speed."""

    def __init__(self) -> None:
        #: Wall time, scaled to the nominal host (see scaled_loop).
        self.elapsed = 0.0
        #: Wall time as measured.
        self.wall = 0.0
        #: Host speed samples taken around the phase (scaled_loop).
        self.rates: List[float] = []
        self.attempted = 0
        self.rows = 0
        self.logical_bytes = 0
        #: kind -> latencies (seconds) of its completed ops.
        self.ok_latencies: Dict[str, "array[float]"] = {}
        #: kind -> failed ops.
        self.failed_by_kind: Dict[str, int] = {}
        self.failures: List[str] = []
        self.mismatches: List[str] = []
        self._lock = threading.Lock()

    def add(self, kind: str, seconds: float, ok: bool, rows: int,
            written: int) -> None:
        self.attempted += 1
        if ok:
            self.ok_latencies.setdefault(kind, array("d")).append(seconds)
            self.rows += rows
            self.logical_bytes += written
        else:
            self.failed_by_kind[kind] = self.failed_by_kind.get(kind, 0) + 1

    def merge(self, other: "Phase", scale: float = 1.0) -> None:
        """Add ``other`` to this phase, its times multiplied by
        ``scale``."""
        with self._lock:
            self.elapsed += other.elapsed * scale
            self.wall += other.wall
            self.attempted += other.attempted
            self.rows += other.rows
            self.logical_bytes += other.logical_bytes
            for kind, values in other.ok_latencies.items():
                self.ok_latencies.setdefault(kind, array("d")).extend(
                    value * scale for value in values)
            for kind, count in other.failed_by_kind.items():
                self.failed_by_kind[kind] = \
                    self.failed_by_kind.get(kind, 0) + count
            self.failures.extend(other.failures)
            self.mismatches.extend(other.mismatches)

    @property
    def failed(self) -> int:
        return sum(self.failed_by_kind.values())

    def latencies(self, kinds: Optional[Sequence[str]] = None) -> List[float]:
        """Latencies in seconds; a failed op counts as the whole phase,
        so it misses every latency limit."""
        out: List[float] = []
        for kind, values in self.ok_latencies.items():
            if kinds is None or kind in kinds:
                out.extend(values)
        for kind, count in self.failed_by_kind.items():
            if kinds is None or kind in kinds:
                out.extend([max(self.elapsed, 1.0)] * count)
        return out

    def ops_per_s(self) -> float:
        """Completed ops over the phase's wall time."""
        return (self.attempted - self.failed) / self.elapsed

    def rows_per_s(self) -> float:
        """Rows returned or written by completed ops over the phase's
        wall time."""
        return self.rows / self.elapsed


#: A stream: (next_op, run_op).  ``run_op(op)`` calls the program and
#: returns ``(elapsed_seconds, rows_out, rows_in)``; it raises
#: :class:`Mismatch` on a wrong answer and anything else on failure.
Stream = Tuple[Callable[[], Any], Callable[[Any], Tuple[float, int, int]]]


def closed_loop(
    streams: Sequence[Stream],
    *,
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
) -> Phase:
    """Run every stream on its own thread (inline when there is one)
    until ``seconds`` have passed or ``max_ops`` ops (split evenly over
    the streams) have run, finishing the current deck either way."""
    phase = Phase()
    per_stream = None if max_ops is None else max(1, max_ops // len(streams))
    start = perf_counter()
    deadline = None if seconds is None else start + seconds

    def client(stream: Stream) -> None:
        next_op, run_op = stream
        done = 0
        local = Phase()
        while True:
            op = next_op()
            try:
                elapsed, rows_out, rows_in = run_op(op)
                ok = True
            except Mismatch as exc:
                elapsed, rows_out, rows_in, ok = 0.0, 0, 0, True
                with phase._lock:
                    phase.mismatches.append(f"{op.kind}{op.params!r:.200}: "
                                            f"{exc}")
            except Exception as exc:  # noqa: BLE001 - counted, not retried
                elapsed, rows_out, rows_in, ok = 0.0, 0, 0, False
                with phase._lock:
                    if len(phase.failures) < 20:
                        phase.failures.append(
                            f"{op.kind}: {type(exc).__name__}: {exc}\n"
                            + traceback.format_exc(limit=3)
                        )
            local.add(op.kind, elapsed, ok, rows_out + rows_in,
                      sum(logical_bytes(row) for row in op.writes))
            done += 1
            if not op.deck_end:
                continue
            if per_stream is not None and done >= per_stream:
                break
            if deadline is not None and perf_counter() >= deadline:
                break
        phase.merge(local)

    if len(streams) == 1:
        client(streams[0])
    else:
        threads = [threading.Thread(target=client, args=(stream,),
                                    name=f"perfbench-client-{index}")
                   for index, stream in enumerate(streams)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.elapsed = phase.wall = perf_counter() - start
    return phase


def _reference_round() -> int:
    rows = [(key, key * 7919 % 1000, str(key)) for key in range(500)]
    index = {row[0]: row for row in rows}
    rows.sort(key=lambda row: row[1])
    return sum(index[key][1] for key in range(0, 500, 3))


def reference_rate(seconds: float) -> float:
    """How fast the host runs Python right now: rounds per second of a
    fixed loop that builds tuples, a dict and a sort, the kind of work
    the engine does."""
    rounds = 0
    start = perf_counter()
    while True:
        _reference_round()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return rounds / elapsed


def scaled_loop(
    streams: Sequence[Stream],
    host: Dict[str, float],
    *,
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
) -> Phase:
    """:func:`closed_loop`, with every time scaled to the nominal host.

    A shared virtual machine runs the same code at speeds that drift by
    half over minutes, so raw times of two runs measure the host as
    much as the program.  The phase is cut into parts of about
    ``host["segment_s"]`` seconds (one part for an op budget); the
    host's :func:`reference_rate` is sampled for ``host["sample_s"]``
    before and after each part, between ops, and each part's latencies
    and wall time are multiplied by the mean of its two samples over
    ``host["nominal_rate"]``.  ``Phase.wall`` keeps the raw wall time.
    A part ends at the first deck boundary after its share of
    ``seconds``, and the next part is shortened by the overshoot, so
    the load runs for ``seconds`` plus at most one deck.
    """
    sample = host["sample_s"]
    parts = 1 if seconds is None else max(1, round(seconds
                                                   / host["segment_s"]))
    phase = Phase()
    phase.rates.append(reference_rate(sample))
    for index in range(1, parts + 1):
        part = closed_loop(
            streams,
            seconds=None if seconds is None
            else max(0.0, seconds * index / parts - phase.wall),
            max_ops=max_ops,
        )
        phase.rates.append(reference_rate(sample))
        phase.merge(part, (phase.rates[-2] + phase.rates[-1]) / 2
                    / host["nominal_rate"])
    return phase


def deck_size(spec: Dict[str, Any]) -> int:
    """Ops in one deck of a workload's mix (per client)."""
    return sum(spec["mix"].values())


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (exclusive method, interpolated)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="exclusive")[pct - 1]


def tail(values: Sequence[float], pct: int) -> Tuple[float, int]:
    """``(value, samples beyond it)`` at the fixed tail percentile."""
    value = percentile(values, pct)
    return value, sum(1 for v in values if v > value)


def wchar() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    with open("/proc/self/io", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB (this process, or ``pid``)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result
