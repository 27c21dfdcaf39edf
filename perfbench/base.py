"""What every workload shares: op timing, durable open and recovery."""

from __future__ import annotations

import decimal
import os
import shutil
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Mismatch, Stream, tree_bytes

__all__ = ["Workload", "DurableWorkload", "normalise_rows"]


def normalise_rows(rows: Any) -> List[Tuple[Any, ...]]:
    """Rows as tuples of plain values (a Decimal becomes an int when it
    is whole, else a float) so two engines' answers compare equal."""
    return [
        tuple(
            (int(value) if value == int(value) else float(value))
            if isinstance(value, decimal.Decimal) else value
            for value in row
        )
        for row in rows
    ]


class Workload:
    """One workload: inputs, set-up, client streams and final checks.

    Subclasses fill in :meth:`prepare` (make the inputs from the seed;
    not timed), :meth:`setup` (build the system until it is ready to
    take load; timed as ``setup_s``), :meth:`teardown` (discard a
    set-up), :meth:`streams` and :meth:`finish`.
    """

    name = ""

    def __init__(self, seed: int, spec: Dict[str, Any], workdir: str) -> None:
        self.seed = seed
        self.spec = spec
        self.workdir = workdir
        #: SpanRecorder of a traced run (None when untraced).
        self.recorder: Any = None
        self._setups = 0

    # -- lifecycle ------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def streams(self) -> List[Stream]:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        """Check the final state against the model (raise
        :class:`Mismatch`) and return extra end-to-end measurements."""
        raise NotImplementedError

    def close(self) -> None:
        """Release everything; called once, also after an error."""
        self.teardown()

    # -- measurement hooks ------------------------------------------------
    def rss_mb(self) -> float:
        from harness import peak_rss_mb
        return peak_rss_mb()

    def remote_counters(self) -> Dict[str, Any]:
        """Counters of a server process (empty when in-process)."""
        return {}

    def remote_statement_time(self) -> Tuple[float, int]:
        """(total ms, calls) of workload statements on a server."""
        return 0.0, 0

    def live_logical_bytes(self) -> int:
        return 0

    def data_bytes(self) -> int:
        return 0

    # -- helpers ---------------------------------------------------------
    def next_dir(self, stem: str) -> str:
        self._setups += 1
        path = os.path.join(self.workdir, f"{stem}{self._setups}")
        os.makedirs(path)
        return path

    def call(self, fn: Callable[..., Any], *args: Any) -> Tuple[float, Any]:
        """Run one program call; return (seconds, result).  In a traced
        run the call is the op span every layer span hangs under."""
        recorder = self.recorder
        if recorder is not None and recorder.active:
            with recorder.op():
                start = perf_counter()
                result = fn(*args)
                return perf_counter() - start, result
        start = perf_counter()
        result = fn(*args)
        return perf_counter() - start, result


def expect_equal(what: str, got: Any, want: Any) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r:.200}, want {want!r:.200}")


class DurableWorkload(Workload):
    """A workload on a durable ``open_database`` directory."""

    database: Any = None
    data_dir: Optional[str] = None

    def open(self) -> Any:
        from repro.engine.durability import open_database

        self.data_dir = self.next_dir("db")
        durability = self.spec["durability"]
        self.database = open_database(
            self.data_dir,
            storage=self.spec["storage"],
            sync=durability["sync"],
            group_window=durability["group_window"],
            group_size=durability["group_size"],
            checkpoint_interval=durability["checkpoint_interval"],
        )
        return self.database

    def teardown(self) -> None:
        database, self.database = self.database, None
        if database is not None:
            database.durability.close(checkpoint=False)
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def data_bytes(self) -> int:
        return tree_bytes(self.data_dir)

    def stop_writes(self) -> None:
        """Close the log without a checkpoint: every acknowledged write
        is in the WAL tail, nothing is in flight, and background
        compaction has finished, so the directory can be copied."""
        self.database.durability.close(checkpoint=False)

    def recover(
        self,
        table_rows: Callable[[Any], List[Tuple[Any, ...]]],
        want: List[Tuple[Any, ...]],
    ) -> Dict[str, float]:
        """Open a copy of the stopped directory (replaying its WAL tail);
        return the open time and the transactions replayed, after
        checking the copy holds every acknowledged write."""
        from repro.engine.durability import open_database
        from repro.observability import metrics

        copy = os.path.join(self.workdir, "recovered")
        shutil.copytree(self.data_dir, copy)
        before = metrics.snapshot()["counters"].get("wal.recovered_txns", 0)
        start = perf_counter()
        database = open_database(copy)
        seconds = perf_counter() - start
        try:
            replayed = metrics.snapshot()["counters"].get(
                "wal.recovered_txns", 0) - before
            expect_equal("recovered rows", table_rows(database), want)
        finally:
            database.durability.close(checkpoint=False)
            shutil.rmtree(copy, ignore_errors=True)
        return {"recovery_s": seconds,
                "recovery.replayed_txns": float(replayed)}
