"""Baseline sanity check: single-statement costs next to their references.

Times a few single statements in one process and prints each next to
the figure previously published for it (the ROADMAP.md re-anchor table
and earlier estimates, all Python 3.11, in-process, 3-column table),
flagging any that disagree by more than 2x.  Run from the root of a
checkout::

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Callable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (what, published low (s), published high (s), source)
REFERENCES = [
    ("PK point SELECT, 2k rows", 4e-3, 6e-3, "ROADMAP ~6 ms; est. 4-6 ms"),
    ("PK point SELECT, 10k rows", 20e-3, 30e-3,
     "ROADMAP ~30 ms; est. 20-30 ms"),
    ("indexed point SELECT, 10k rows", 40e-6, 50e-6,
     "ROADMAP ~50 us; est. 40-50 us"),
    ("keyed UPDATE, 10k rows, with index", 24e-3, 24e-3, "ROADMAP ~24 ms"),
    ("single-row INSERT, no key, prepared", 70e-6, 70e-6, "ROADMAP ~70 us"),
    ("durable single-row INSERT (sync)", 0.4e-3, 0.4e-3, "est. ~0.4 ms"),
    ("remote indexed point SELECT round trip", 570e-6, 570e-6,
     "est. ~570 us"),
]


def _median(fn: Callable[[int], object], repeats: int) -> float:
    times = []
    for index in range(repeats):
        start = perf_counter()
        fn(index)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _keyed_table(session, rows: int, primary_key: bool) -> None:
    key = "INT PRIMARY KEY" if primary_key else "INT"
    session.execute(f"CREATE TABLE t (id {key}, name VARCHAR(20), n INT)")
    session.execute_batch("INSERT INTO t VALUES (?, ?, ?)",
                          [[i, f"name{i}", i % 100] for i in range(rows)])


def measure() -> List[float]:
    import repro
    from repro.engine.durability import open_database

    out = []
    for rows in (2000, 10000):
        session = repro.Database().create_session(autocommit=True)
        _keyed_table(session, rows, primary_key=True)
        out.append(_median(lambda i: session.execute(
            "SELECT name, n FROM t WHERE id = ?", [(i * 7919) % rows]), 15))

    session = repro.Database().create_session(autocommit=True)
    _keyed_table(session, 10000, primary_key=False)
    session.execute("CREATE INDEX t_id ON t (id)")
    out.append(_median(lambda i: session.execute(
        "SELECT name, n FROM t WHERE id = ?", [(i * 7919) % 10000]), 500))
    out.append(_median(lambda i: session.execute(
        "UPDATE t SET n = n + 1 WHERE id = ?", [(i * 7919) % 10000]), 15))

    session = repro.Database().create_session(autocommit=True)
    session.execute("CREATE TABLE u (id INT, name VARCHAR(20), n INT)")
    insert = session.prepare("INSERT INTO u VALUES (?, ?, ?)")
    out.append(_median(lambda i: insert.execute([i, "x", i]), 2000))

    directory = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_run"))
    try:
        database = open_database(os.path.join(directory, "db"))
        session = database.create_session(autocommit=True)
        session.execute("CREATE TABLE u (id INT, name VARCHAR(20), n INT)")
        out.append(_median(lambda i: session.execute(
            "INSERT INTO u VALUES (?, ?, ?)", [i, "x", i]), 1000))
        database.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0"],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, text=True)
    try:
        port = int(server.stdout.readline().rsplit(":", 1)[1])
        connection = repro.connect(f"repro://127.0.0.1:{port}/base")
        remote = connection.session
        remote.execute("CREATE TABLE t (id INT, name VARCHAR(20), n INT)")
        remote.execute("CREATE INDEX t_id ON t (id)")
        remote.execute_batch("INSERT INTO t VALUES (?, ?, ?)",
                             [[i, f"name{i}", i % 100] for i in range(10000)])
        out.append(_median(lambda i: remote.execute(
            "SELECT name, n FROM t WHERE id = ?", [(i * 7919) % 10000]),
            500))
        connection.close()
    finally:
        server.terminate()
        server.wait(timeout=15)
        server.stdout.close()
    return out


def _fmt(seconds: float) -> str:
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} us"


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    flagged = 0
    rows: List[Tuple[str, str, str, str, str]] = []
    for (what, low, high, source), got in zip(REFERENCES, measure()):
        ratio = got / high if got > high else (
            got / low if got < low else 1.0)
        off = ratio > 2.0 or ratio < 0.5
        flagged += off
        rows.append((what, _fmt(got), source, f"{ratio:.2f}x",
                     "MORE THAN 2x OFF" if off else "ok"))
    for row in rows:
        print(f"{row[0]:40s} {row[1]:>10s}   {row[2]:32s} {row[3]:>7s}  "
              f"{row[4]}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
