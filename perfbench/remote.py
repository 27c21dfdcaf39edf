"""``remote_point``: point traffic over ``repro://`` from two clients.

Set-up starts ``python -m repro.server`` as a process of its own (an
in-memory server), so client encode, the socket, the server's queue
and executor, and paging all sit between every call and its answer.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from base import Workload, expect_equal, normalise_rows
from gen import RemoteGenerator, remote_initial
from harness import Stream, peak_rss_mb

LOAD_BATCH = 1000
POINT = "SELECT id, name, qty FROM items WHERE id = ?"
RANGE = "SELECT id, name, qty FROM items WHERE id >= ? AND id < ?"
INSERT = "INSERT INTO items VALUES (?, ?, ?)"


class RemotePoint(Workload):
    name = "remote_point"

    def prepare(self) -> None:
        self.initial = remote_initial(self.seed, self.spec)
        self.gens = [RemoteGenerator(self.seed, self.spec, stream,
                                     self.initial)
                     for stream in range(self.spec["clients"])]
        self.server: Optional[subprocess.Popen] = None
        self.connections: List[Any] = []
        self.server_rss_mb = 0.0

    def setup(self) -> None:
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--host", "127.0.0.1",
             "--port", "0", "--threads", str(self.spec["server_threads"])],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
            text=True,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        url = f"repro://127.0.0.1:{port}/items"
        self.connections = [repro.connect(url)
                            for _ in range(self.spec["clients"])]
        cursor = self.connections[0].cursor()
        cursor.execute("CREATE TABLE items (id INT, name VARCHAR(20), "
                       "qty INT)")
        cursor.execute("CREATE INDEX items_id ON items (id)")
        rows = self.initial
        for start in range(0, len(rows), LOAD_BATCH):
            cursor.executemany(INSERT, rows[start:start + LOAD_BATCH])
        cursor.execute("ANALYZE items")
        cursor.close()

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        server, self.server = self.server, None
        if server is None:
            return
        try:
            self.server_rss_mb = max(self.server_rss_mb,
                                     peak_rss_mb(server.pid))
        except OSError:
            pass
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def streams(self) -> List[Stream]:
        return [self._stream(gen, connection)
                for gen, connection in zip(self.gens, self.connections)]

    def _stream(self, gen: RemoteGenerator, connection: Any) -> Stream:
        cursor = connection.cursor()
        call = self.call

        def query(sql: str, params: Tuple[Any, ...]) -> List[Any]:
            return cursor.execute(sql, params).fetchall()

        def run(op: Any) -> Tuple[float, int, int]:
            kind = op.kind
            if kind == "insert":
                seconds, _ = call(cursor.execute, INSERT, op.params)
                expect_equal("insert count", cursor.rowcount, 1)
                return seconds, 0, 1
            sql = POINT if kind == "point_select" else RANGE
            seconds, rows = call(query, sql, op.params)
            got = normalise_rows(rows)
            if kind == "range_select":
                got.sort()
            expect_equal(f"{kind} {op.params}", got, op.expect)
            return seconds, len(rows), 0

        return gen.next_op, run

    def rss_mb(self) -> float:
        server = self.server_rss_mb
        if self.server is not None:
            server = max(server, peak_rss_mb(self.server.pid))
        return peak_rss_mb() + server

    def _select(self, sql: str) -> List[Tuple[Any, ...]]:
        cursor = self.connections[0].cursor()
        try:
            return [tuple(row) for row in cursor.execute(sql).fetchall()]
        finally:
            cursor.close()

    def remote_counters(self) -> Dict[str, Any]:
        counters: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for name, kind, value, total in self._select(
                "SELECT metric, kind, value, total FROM repro_stats.metrics"):
            if kind == "counter":
                counters[name] = value or 0.0
            else:
                histograms[name] = {"sum": total or 0.0}
        return {"counters": counters, "histograms": histograms}

    def remote_statement_time(self) -> Tuple[float, int]:
        total_ms = 0.0
        calls = 0
        for statement, count, total in self._select(
                "SELECT statement, calls, total_ms "
                "FROM repro_stats.statements"):
            if "repro_stats" in statement.lower():
                continue
            total_ms += total or 0.0
            calls += count or 0
        return total_ms, calls

    def finish(self) -> Dict[str, float]:
        want = sorted(
            [tuple(row) for row in self.initial]
            + [row for gen in self.gens for row in gen.inserted.values()]
        )
        got = sorted(normalise_rows(
            self._select("SELECT id, name, qty FROM items")))
        expect_equal("final rows", got, want)
        return {}
