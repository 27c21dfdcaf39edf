"""``analytics_adhoc``: report queries through dbapi, checked by sqlite3.

The data is read-only, so a statement with given parameters has one
right answer.  The benchmark keeps a digest of the first answer to each
distinct statement, requires every repeat to match it, and after the
run compares each digest with that of stdlib ``sqlite3`` loaded with
the same generated rows and asked the same statements.  All values are
integers or text, so the comparison is exact.
"""

from __future__ import annotations

import hashlib
import sqlite3
from typing import Any, Dict, List, Tuple

from base import Workload, expect_equal, normalise_rows
from gen import AnalyticsGenerator
from harness import Mismatch, Stream

SCHEMA = [
    "CREATE TABLE depts (id INT, name VARCHAR(20), region VARCHAR(20))",
    "CREATE TABLE jobs (id INT, title VARCHAR(20), grade INT)",
    "CREATE TABLE emps (id INT, name VARCHAR(20), dept_id INT, "
    "job_id INT, salary INT, hire_year INT)",
]

LOAD_BATCH = 1000


def digest(rows: Any, ordered: bool) -> str:
    """SHA-256 of the normalised answer (sorted unless its order is
    part of the answer)."""
    rows = normalise_rows(rows)
    if not ordered:
        rows.sort()
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


class AnalyticsAdhoc(Workload):
    name = "analytics_adhoc"

    def prepare(self) -> None:
        self.gen = AnalyticsGenerator(self.seed, self.spec)
        self.connection: Any = None
        #: (sql, params) -> (ordered, digest of the answer) of every
        #: distinct query run.
        self.digests: Dict[Tuple[str, Tuple[Any, ...]],
                           Tuple[bool, str]] = {}

    def tables(self) -> List[Tuple[str, List[Tuple[Any, ...]]]]:
        gen = self.gen
        return [("depts", gen.depts), ("jobs", gen.jobs), ("emps", gen.emps)]

    def setup(self) -> None:
        from repro import Database, DriverManager

        self._setups += 1
        database = Database(name=f"payroll{self._setups}")
        self.connection = DriverManager.get_connection(
            "pydbc:standard:payroll", database=database)
        cursor = self.connection.cursor()
        for ddl in SCHEMA:
            cursor.execute(ddl)
        for table, rows in self.tables():
            marks = ", ".join("?" * len(rows[0]))
            for start in range(0, len(rows), LOAD_BATCH):
                cursor.executemany(f"INSERT INTO {table} VALUES ({marks})",
                                   rows[start:start + LOAD_BATCH])
        cursor.execute("ANALYZE")
        cursor.close()

    def teardown(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def streams(self) -> List[Stream]:
        cursor = self.connection.cursor()
        digests = self.digests
        call = self.call

        def query(sql: str, params: Tuple[Any, ...]) -> List[Any]:
            return cursor.execute(sql, params).fetchall()

        def run(op: Any) -> Tuple[float, int, int]:
            sql, params = op.params
            seconds, rows = call(query, sql, params)
            got = digest(rows, op.expect)
            want = digests.setdefault((sql, params), (op.expect, got))[1]
            if got != want:
                raise Mismatch(f"{sql}: answer differs from its first run")
            return seconds, len(rows), 0

        return [(self.gen.next_op, run)]

    def finish(self) -> Dict[str, float]:
        oracle = sqlite3.connect(":memory:")
        try:
            for ddl in SCHEMA:
                oracle.execute(ddl)
            for table, rows in self.tables():
                marks = ", ".join("?" * len(rows[0]))
                oracle.executemany(
                    f"INSERT INTO {table} VALUES ({marks})", rows)
            for (sql, params), (ordered, got) in self.digests.items():
                want = digest(oracle.execute(sql, params).fetchall(),
                              ordered)
                expect_equal(f"digest of {sql} {params}", got, want)
        finally:
            oracle.close()
        return {}
