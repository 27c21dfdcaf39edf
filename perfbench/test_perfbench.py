"""Tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracer import ROOT as OP, SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)
with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def generator(workload, seed, stream=0):
    spec = SPEC["workloads"][workload]
    if workload == "oltp_keyed":
        return gen.OltpGenerator(seed, spec)
    if workload == "analytics_adhoc":
        return gen.AnalyticsGenerator(seed, spec)
    if workload == "ingest_lsm":
        return gen.IngestGenerator(seed, spec)
    return gen.RemoteGenerator(seed, spec, stream)


def ops(workload, seed, count=300, stream=0):
    return [op.key() for op in gen.take(generator(workload, seed, stream),
                                        count)]


# ---------------------------------------------------------------------------
# seeded replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_same_seed_same_ops(workload):
    assert ops(workload, 7) == ops(workload, 7)


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_other_seed_other_ops(workload):
    assert ops(workload, 7) != ops(workload, 8)


def test_remote_clients_differ_and_insert_disjoint_keys():
    first = generator("remote_point", 3, 0)
    second = generator("remote_point", 3, 1)
    list(gen.take(first, 400))
    list(gen.take(second, 400))
    assert first.inserted and second.inserted
    assert not set(first.inserted) & set(second.inserted)
    assert ops("remote_point", 3, stream=0) != ops("remote_point", 3,
                                                   stream=1)


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_decks_run_the_stated_mix_exactly(workload):
    mix = SPEC["workloads"][workload]["mix"]
    size = sum(mix.values())
    counts = {}
    decks = 0
    for op in gen.take(generator(workload, 5), 40 * size):
        counts[op.kind] = counts.get(op.kind, 0) + 1
        decks += op.deck_end
    counts.pop("retention_delete", None)
    assert decks == sum(counts.values()) // size
    assert counts == {kind: n * decks for kind, n in mix.items()}


def test_oltp_expectations_follow_the_writes():
    """Replaying the ops on a copy of the initial rows gives every
    SELECT INTO expectation and the final model."""
    g = generator("oltp_keyed", 11)
    replica = {row[0]: [row[1], row[2]] for row in g.initial}
    for op in gen.take(g, 2000):
        if op.kind == "select_into":
            assert tuple(replica[op.params[0]]) == op.expect
        elif op.kind == "update":
            replica[op.params[0]][1] += op.params[1]
        elif op.kind == "call_transfer":
            src, dst, amount = op.params
            replica[src][1] -= amount
            replica[dst][1] += amount
        elif op.kind == "insert":
            replica[op.params[0]] = [op.params[1], op.params[2]]
        else:
            del replica[op.params[0]]
    assert replica == g.model
    assert len(replica) == len(g.initial)  # INSERT and DELETE balance


def test_ingest_retention_keeps_the_live_window():
    g = generator("ingest_lsm", 2)
    live = SPEC["workloads"]["ingest_lsm"]["live_rows"]
    for op in gen.take(g, 3 * SPEC["workloads"]["ingest_lsm"]
                       ["retention_every"]):
        if op.kind == "retention_delete":
            assert len(g.model) == live
            assert min(g.model) == op.params[0]


def test_inline_literals_replaces_every_marker():
    assert gen.inline_literals("a = ? AND b > ?", (1, 2)) \
        == "a = 1 AND b > 2"
    with pytest.raises(ValueError):
        gen.inline_literals("a = ?", (1, 2))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_benchmark_json_contract():
    assert list(BENCH) == ["command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.NAME_RE.fullmatch(name), name
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_spec_matches_benchmark_json():
    assert sorted(set(SPEC["workloads"]) - set(SPEC["not_in_benchmark_json"])
                  ) == sorted(w["name"] for w in BENCH["workloads"])
    assert sorted(run.WORKLOADS) == sorted(SPEC["workloads"])
    assert list(SPEC["per_layer"]) == [m["name"] for m in BENCH["per_layer"]]
    assert SPEC["claim"] is None
    targets = {m["name"] for m in BENCH["end_to_end"]} \
        | set(run.WORKLOAD_SPECIFIC)
    for name, entry in SPEC["per_layer"].items():
        assert entry["kind"] in ("count", "timing"), name
        assert ("exact" in entry) == (entry["kind"] == "count"), name
        for metric, workload in entry["moves"]:
            assert metric in targets, (name, metric)
            assert workload in SPEC["workloads"], (name, workload)
    for name in run.WORKLOAD_SPECIFIC:
        assert name in SPEC["per_layer"]


# ---------------------------------------------------------------------------
# harness and tracer
# ---------------------------------------------------------------------------


def _stream(results):
    kinds = iter(range(10 ** 6))

    def next_op():
        n = next(kinds)
        return gen.Op("k", (n,), deck_end=True)

    def run_op(op):
        outcome = results[op.params[0] % len(results)]
        if outcome == "mismatch":
            raise harness.Mismatch("wrong")
        if outcome == "fail":
            raise RuntimeError("boom")
        return 0.001, 1, 0

    return next_op, run_op


def test_closed_loop_counts_failures_and_mismatches():
    phase = harness.closed_loop([_stream(["ok", "mismatch", "fail"])],
                                max_ops=9)
    assert phase.attempted == 9
    assert phase.failed == 3
    assert len(phase.mismatches) == 3
    # A failed op misses every latency limit.
    assert max(phase.latencies()) >= phase.elapsed


def test_scaled_loop_scales_times_by_host_speed(monkeypatch):
    rates = iter([2000.0, 6000.0, 4000.0, 4000.0])
    monkeypatch.setattr(harness, "reference_rate", lambda _s: next(rates))
    host = {"nominal_rate": 2000.0, "segment_s": 0.05, "sample_s": 0.0}
    phase = harness.scaled_loop([_stream(["ok"])], host, seconds=0.15)
    assert phase.rates == [2000.0, 6000.0, 4000.0, 4000.0]
    # Parts ran at 2x, 2.5x and 2x the nominal host's speed.
    assert 2.0 * phase.wall < phase.elapsed < 2.5 * phase.wall
    assert min(phase.latencies()) >= 0.002
    assert phase.attempted > 0 and phase.failed == 0


def test_recorder_self_times_add_up_and_restore():
    class Inner:
        def work(self):
            return sum(range(2000))

    class Outer:
        def work(self, inner):
            return inner.work() + sum(range(2000))

    original = Outer.__dict__["work"]
    recorder = SpanRecorder()
    recorder.wrap(Inner, "work", "Inner.work", "inner")
    recorder.wrap(Outer, "work", "Outer.work", "outer")
    recorder.active = True
    for _ in range(5):
        with recorder.op():
            Outer().work(Inner())
    recorder.restore()
    assert Outer.__dict__["work"] is original
    summary = recorder.summary()
    assert summary["ops"] == 5
    layers = summary["op_layers"]
    assert set(layers) == {"inner", "outer", "unattributed"}
    assert sum(layers.values()) == pytest.approx(summary["op_total"])
    assert summary["names"]["Inner.work"]["count"] == 5
    assert summary["names"][OP]["count"] == 5


def test_recorder_reports_missing_entry_points():
    recorder = SpanRecorder()
    recorder.install([("repro.engine.dml", "no_such_function", "dml")])
    recorder.restore()
    assert recorder.missing == ["repro.engine.dml.no_such_function"]


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def _run(tmp_cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(tmp_cwd, "perfbench", "run.py"),
         *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=600,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "--workload", "oltp_keyed", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.mark.parametrize("workload",
                         ["oltp_keyed", "analytics_adhoc", "ingest_lsm"])
def test_traced_counts_repeat_exactly(workload):
    """Single-client traced runs of one seed give identical counts for
    every per-layer metric spec.json marks exact."""
    results = []
    for _ in range(2):
        out = _run(ROOT, "--workload", workload, "--seed", "4",
                   "--seconds", "1", "--trace", "1")
        assert out.returncode == 0, out.stderr[-2000:]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"]
        results.append(result["metrics"])
    exact = [name for name, entry in SPEC["per_layer"].items()
             if entry.get("exact")]
    first, second = results
    assert {n: first[n]["value"] for n in exact} == \
        {n: second[n]["value"] for n in exact}
