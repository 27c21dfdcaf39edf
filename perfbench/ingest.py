"""``ingest_lsm``: durable appends and retention deletes on the LSM format.

Set-up loads the live window and checkpoints it, so the measured phase
starts with an empty WAL and one run per table; every later flush holds
only what the phase wrote.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from base import DurableWorkload, expect_equal
from gen import IngestGenerator, logical_bytes
from harness import Stream

INSERT = "INSERT INTO events VALUES (?, ?, ?, ?)"
LOAD_BATCH = 1000


class IngestLsm(DurableWorkload):
    name = "ingest_lsm"

    def prepare(self) -> None:
        self.gen = IngestGenerator(self.seed, self.spec)
        self.connection: Any = None

    def setup(self) -> None:
        from repro import DriverManager

        database = self.open()
        self.connection = DriverManager.get_connection(
            "pydbc:standard:events", database=database)
        cursor = self.connection.cursor()
        cursor.execute(
            "CREATE TABLE events (id INT, device INT, ts INT, "
            "payload VARCHAR(64))"
        )
        rows = self.gen.initial
        for start in range(0, len(rows), LOAD_BATCH):
            cursor.executemany(INSERT, rows[start:start + LOAD_BATCH])
        cursor.close()
        database.checkpoint()

    def teardown(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        super().teardown()

    def streams(self) -> List[Stream]:
        cursor = self.connection.cursor()
        call = self.call

        def run(op: Any) -> Tuple[float, int, int]:
            kind = op.kind
            if kind == "insert":
                seconds, _ = call(cursor.execute, INSERT, op.params)
            elif kind == "batch":
                seconds, _ = call(cursor.executemany, INSERT, op.params)
            else:
                seconds, _ = call(
                    cursor.execute,
                    "DELETE FROM events WHERE id < ?", op.params)
            expect_equal(f"{kind} count", cursor.rowcount, op.expect)
            return seconds, 0, len(op.writes)

        return [(self.gen.next_op, run)]

    @staticmethod
    def table_rows(database: Any) -> List[Tuple[Any, ...]]:
        session = database.create_session(autocommit=True)
        try:
            result = session.execute(
                "SELECT id, device, ts, payload FROM events ORDER BY id")
            return [tuple(row) for row in result.rows]
        finally:
            session.close()

    def live_logical_bytes(self) -> int:
        return sum(logical_bytes(row) for row in self.gen.model.values())

    def finish(self) -> Dict[str, float]:
        want = self.gen.rows()
        expect_equal("final rows", self.table_rows(self.database), want)
        store = self.database.lsm_store
        runs = float(store.run_count())
        self.stop_writes()
        out = self.recover(self.table_rows, want)
        out["lsm.runs_at_end"] = runs
        return out
