"""Layer-attributed benchmark of PySQLJ.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload oltp_keyed --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` sets the system up ``setup_repeats`` times (reporting the
median as ``setup_s``), runs the closed loop for ``--seconds`` seconds
and prints every end-to-end metric.  ``--trace 1`` wraps each layer's
entry points, runs the workload's fixed traced op budget, restores the
entry points, runs ``--seconds / 2`` seconds untraced for comparison,
and prints every per-layer metric.  Both check every answer against the
workload's model (or sqlite3) and exit 1 on a mismatch.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import sys
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_DIR = ".perfbench_run"

#: End-to-end numbers only some workloads produce.  Every metric listed
#: under ``end_to_end`` in BENCHMARK.json must come from every workload,
#: so these are reported with the per-layer metrics (0 where a workload
#: has no such work).
WORKLOAD_SPECIFIC = ["read_p50_ms", "write_p50_ms", "write_tail_ms",
                     "recovery_s", "write_amp", "space_amp"]

WORKLOADS = {
    "oltp_keyed": ("oltp", "OltpKeyed"),
    "analytics_adhoc": ("analytics", "AnalyticsAdhoc"),
    "ingest_lsm": ("ingest", "IngestLsm"),
    "remote_point": ("remote", "RemotePoint"),
}


def load_config() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(BENCHMARK.json, perfbench/spec.json), names validated."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    bad = [name for name in names if not NAME_RE.fullmatch(name)]
    if bad:
        raise ValueError(f"invalid metric or workload names: {bad}")
    return bench, spec


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(values: List[float], pct: Optional[int] = None) -> float:
    from harness import percentile

    if not values:
        return 0.0
    if pct is None:
        return statistics.median(values) * 1e3
    return percentile(values, pct) * 1e3


def end_to_end(wl: Any, phase: Any, setup_times: List[float],
               finish: Dict[str, float], io_bytes: int,
               rss_mb: float) -> Dict[str, Any]:
    """Every end-to-end number of a phase, with notes for the table."""
    from harness import tail

    spec = wl.spec
    pct = spec["tail_percentile"]
    latencies = phase.latencies()
    tail_value, beyond = tail(latencies, pct)
    writes = phase.latencies(spec["write_kinds"])
    logical = phase.logical_bytes
    live = wl.live_logical_bytes()
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s(),
        "latency_p50_ms": _ms(latencies),
        "latency_tail_ms": tail_value * 1e3,
        "rows_per_s": phase.rows_per_s(),
        "success_ratio": _ratio(phase.attempted - phase.failed,
                                phase.attempted),
        "peak_rss_mb": rss_mb,
        "read_p50_ms": _ms(phase.latencies(spec["read_kinds"])),
        "write_p50_ms": _ms(writes),
        "write_tail_ms": _ms(writes, pct),
        "recovery_s": finish.get("recovery_s", 0.0),
        "write_amp": _ratio(io_bytes, logical) if spec["durability"] else 0.0,
        "space_amp": _ratio(wl.data_bytes(), live),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup_times),
        "ops_per_s": f"{phase.attempted - phase.failed} ops in "
        f"{phase.wall:.2f} s of wall time, host speed x"
        f"{phase.wall and phase.elapsed / phase.wall:.3f}",
        "latency_tail_ms": f"p{pct}, n={len(latencies)}, {beyond} beyond"
        + ("" if beyond >= 10 else " (FEWER THAN 10 BEYOND)"),
        "write_tail_ms": f"p{pct}, n={len(writes)}",
        "write_amp": f"{io_bytes} B written / {logical} logical B",
        "space_amp": f"{wl.data_bytes()} B on disk / {live} live B",
    }
    return {"values": values, "notes": notes}


def per_layer(wl: Any, recorder: Any, traced: Any, untraced: Any,
              counters: Dict[str, Any], server: Dict[str, Any],
              probes: Dict[str, float], setup_summary: Dict[str, Any],
              mark: int) -> Dict[str, float]:
    """Every per-layer number of a traced run."""
    from tracer import OP_LAYERS

    summary = recorder.summary(mark)
    names = summary["names"]
    zero = {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0, "top": 0,
            "top_total": 0.0}

    def span(name: str) -> Dict[str, float]:
        return names.get(name, zero)

    def count(*spans: str) -> int:
        return sum(span(name)["count"] for name in spans)

    def self_time(*spans: str) -> float:
        return sum(span(name)["self"] for name in spans)

    # The engine runs in the server process for remote_point: its
    # counters (read over the wire) replace the client's.
    c = dict(counters["counters"])
    c.update(server.get("counters", {}))
    h = dict(counters["histograms"])
    h.update(server.get("histograms", {}))
    ops = max(1, summary["ops"])

    def counter(name: str) -> float:
        return float(c.get(name) or 0)

    def hist(name: str, field: str) -> float:
        return float(h.get(name, {}).get(field) or 0.0)

    entry = ("ConnectionContext.execute_entry",
             "ConnectionContext.execute_batch_entry")
    dbapi = ("Cursor.execute", "Cursor.executemany", "Statement._run",
             "PreparedStatement._run_prepared")
    dml_statements = ("execute_insert", "execute_update", "execute_delete",
                      "execute_insert_batch")
    dml_all = dml_statements + ("_matching_versions", "_check_unique")
    remote_exec = span("RemoteSession.execute")
    round_trip = _ratio(remote_exec["total"], remote_exec["count"]) * 1e6
    server_us = _ratio(server.get("statement_ms", 0.0),
                       server.get("statement_calls", 0)) * 1e3
    hits = counter("plan_cache.hits")
    stmt_hits = counter("profile.statement_cache.hits")
    run_top = span("QueryPlan.run")["top"]
    commits = counter("wal.commits")
    spec = wl.spec
    writes = untraced.latencies(spec["write_kinds"])
    metrics = {
        "translator.translate_s":
            setup_summary["names"].get("Translator.translate_file",
                                       zero)["total"],
        "runtime.clauses": counter("sqlj.clauses"),
        "runtime.self_us_per_clause":
            _ratio(self_time(*entry), count(*entry)) * 1e6,
        "profiles.stmt_cache_hit_ratio": _ratio(
            stmt_hits,
            stmt_hits + counter("profile.statement_cache.misses")),
        "procedures.calls": counter("procedures.calls"),
        "procedures.self_us_per_call": _ratio(
            self_time("call_routine"), count("call_routine")) * 1e6,
        "dbapi.calls": float(count(*dbapi)),
        "dbapi.self_us_per_call":
            _ratio(self_time(*dbapi), count(*dbapi)) * 1e6,
        "remote.round_trip_us": round_trip,
        "remote.server_us": server_us,
        "remote.wire_us": round_trip - server_us if round_trip else 0.0,
        "remote.encode_us": _ratio(span("encode_frame")["total"],
                                   remote_exec["count"]) * 1e6,
        "remote.decode_us": _ratio(span("decode_payload")["total"],
                                   remote_exec["count"]) * 1e6,
        "remote.fetches_per_query": _ratio(counter("remote.fetches"),
                                           counter("remote.executions")),
        "parser.calls": float(count("Parser.parse_statement")),
        "parser.us_per_call": _ratio(
            span("Parser.parse_statement")["top_total"],
            span("Parser.parse_statement")["top"]) * 1e6,
        "planner.calls": float(count("plan_query")),
        "planner.us_per_call": _ratio(span("plan_query")["top_total"],
                                      span("plan_query")["top"]) * 1e6,
        "plancache.hit_ratio": _ratio(
            hits, hits + counter("plan_cache.misses")),
        "plancache.evictions": counter("plan_cache.evictions"),
        "executor.self_ms_per_query": _ratio(
            self_time("QueryPlan.run", "Session.finish_rowset"),
            run_top) * 1e3,
        "executor.rows_scanned_per_row_returned": _ratio(
            counter("rows.scanned"), counter("rows.returned")),
        "dml.self_us_per_stmt": _ratio(
            self_time(*dml_all), count(*dml_statements)) * 1e6,
        "dml.rows_scanned_per_row_mutated": _ratio(
            probes["dml_scanned"], counter("rows.mutated")),
        "index.lookups_per_op": counter("index.lookups") / ops,
        "locks.wait_us_per_op": (
            hist("waits.lock.shared", "sum")
            + hist("waits.lock.exclusive", "sum")) * 1e6 / ops,
        "mvcc.conflict_waits": counter("mvcc.conflict_waits"),
        "mvcc.aborts": counter("mvcc.aborts"),
        "wal.records_per_commit": _ratio(counter("wal.records"), commits),
        "wal.bytes_per_commit": _ratio(counter("wal.bytes_appended"),
                                       commits),
        "wal.commits_per_fsync": _ratio(commits, counter("wal.fsyncs")),
        "wal.sync_wait_us_per_commit": _ratio(
            span("WriteAheadLog.sync_to")["total"], commits) * 1e6,
        "checkpoint.count": counter("wal.checkpoints"),
        "checkpoint.ms_max": span("DurabilityManager.checkpoint")["max"]
        * 1e3,
        "checkpoint.ms_total": span("DurabilityManager.checkpoint")["total"]
        * 1e3,
        "recovery.replayed_txns": probes.get("recovery.replayed_txns", 0.0),
        "lsm.flushes": counter("lsm.flushes"),
        "lsm.flush_ms_max": span("LsmStore.flush")["max"] * 1e3,
        "lsm.compactions": counter("lsm.compactions"),
        "lsm.compact_ms_total": span("LsmStore.compact")["total"] * 1e3,
        "lsm.bytes_rewritten": probes["lsm_rewritten"],
        "lsm.runs_at_end": probes.get("lsm.runs_at_end", 0.0),
        "lsm.stall_ms_max": hist("lsm.stall_ms", "max"),
        "trace.overhead_ratio": _ratio(traced.ops_per_s(),
                                       untraced.ops_per_s()),
        "trace.op_us": _ratio(summary["op_total"], summary["ops"]) * 1e6,
        "trace.unattributed_share": _ratio(
            summary["op_layers"].get("unattributed", 0.0),
            summary["op_total"]),
    }
    for layer in OP_LAYERS + ["unattributed"]:
        metrics[f"self.{layer}_us_per_op"] = \
            summary["op_layers"].get(layer, 0.0) * 1e6 / ops
    metrics.update({
        "read_p50_ms": _ms(untraced.latencies(spec["read_kinds"])),
        "write_p50_ms": _ms(writes),
        "write_tail_ms": _ms(writes, spec["tail_percentile"]),
        "recovery_s": probes.get("recovery_s", 0.0),
        "write_amp": probes.get("write_amp", 0.0),
        "space_amp": probes.get("space_amp", 0.0),
    })
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _install_probes(recorder: Any) -> Dict[str, float]:
    """Counts taken at layer boundaries while spans are recorded."""
    from repro.engine import dml

    totals = {"dml_scanned": 0.0, "lsm_rewritten": 0.0}

    def matching(args: tuple, _result: Any) -> None:
        totals["dml_scanned"] += len(args[0].versions)

    def unique(args: tuple, _result: Any) -> None:
        table = args[0]
        totals["dml_scanned"] += len(table.versions) * len(
            dml._unique_columns(table))

    def sstable(args: tuple, _result: Any) -> None:
        if recorder.inside("LsmStore.compact"):
            totals["lsm_rewritten"] += os.path.getsize(args[0])

    recorder.probes.update({
        "_matching_versions": matching,
        "_check_unique": unique,
        "write_sstable": sstable,
    })
    return totals


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: Dict[str, Any]) -> Dict[str, Any]:
    import importlib

    from harness import (Mismatch, closed_loop, deck_size, reference_rate,
                         scaled_loop, timed, wchar)

    module_name, class_name = WORKLOADS[workload]
    wspec = spec["workloads"][workload]
    workdir = os.path.join(ROOT, RUN_DIR,
                           f"work-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cls = getattr(importlib.import_module(module_name), class_name)
    wl = cls(seed, wspec, workdir)
    recorder = None
    mismatches: List[str] = []
    try:
        wl.prepare()
        if trace:
            from tracer import SpanRecorder

            recorder = SpanRecorder()
            recorder.install()
            probes = _install_probes(recorder)
            wl.recorder = recorder
        # Each set-up is scaled like the load, by the host's speed
        # sampled just before and just after it.
        host = spec["host"]
        rates = [reference_rate(host["sample_s"])]
        setup_times = []
        repeats = spec["setup_repeats"]
        for attempt in range(repeats):
            if attempt:
                wl.teardown()
                gc.collect()
                rates.append(reference_rate(host["sample_s"]))
            if recorder is not None and attempt == repeats - 1:
                recorder.active = True
            took = timed(wl.setup)[0]
            if recorder is not None:
                recorder.active = False
            rates.append(reference_rate(host["sample_s"]))
            setup_times.append(took * (rates[-2] + rates[-1]) / 2
                               / host["nominal_rate"])
        # Warm-up: fill the program's caches and let the setup's
        # garbage go before anything is timed.
        streams = wl.streams()
        warmup = closed_loop(streams, max_ops=spec["warmup_decks"]
                             * len(streams) * deck_size(wspec))
        gc.collect()
        if recorder is None:
            io_before = wchar()
            phase = scaled_loop(streams, host, seconds=seconds)
            io_bytes = wchar() - io_before
            rss_mb = wl.rss_mb()
            phases = [warmup, phase]
        else:
            from repro.observability import metrics as program_metrics

            setup_summary = recorder.summary()
            mark = len(recorder.spans)
            server_before = wl.remote_counters()
            stmt_before = wl.remote_statement_time()
            program_metrics.reset()
            recorder.active = True
            traced = scaled_loop(streams, host, max_ops=wspec["traced_ops"])
            recorder.active = False
            counters = program_metrics.snapshot()
            server = _server_delta(server_before, wl.remote_counters())
            stmt_after = wl.remote_statement_time()
            server["statement_ms"] = stmt_after[0] - stmt_before[0]
            server["statement_calls"] = stmt_after[1] - stmt_before[1]
            recorder.restore()
            io_before = wchar()
            phase = scaled_loop(streams, host, seconds=seconds / 2)
            io_bytes = wchar() - io_before
            rss_mb = wl.rss_mb()
            phases = [warmup, traced, phase]
        for ran in phases:
            mismatches.extend(ran.mismatches)
        try:
            finish = wl.finish()
        except Mismatch as exc:
            mismatches.append(f"final check: {exc}")
            finish = {}
        e2e = end_to_end(wl, phase, setup_times, finish, io_bytes, rss_mb)
        result: Dict[str, Any] = {
            "e2e": e2e,
            "phases": phases,
            "mismatches": mismatches,
        }
        if recorder is not None:
            probes.update(finish)
            probes["write_amp"] = e2e["values"]["write_amp"]
            probes["space_amp"] = e2e["values"]["space_amp"]
            result["layers"] = per_layer(
                wl, recorder, traced, phase, counters, server, probes,
                setup_summary, mark)
            result["missing"] = recorder.missing
            trace_path = os.path.join(ROOT, RUN_DIR, "traces",
                                      f"{workload}-seed{seed}.spans.jsonl")
            recorder.write(trace_path)
            result["trace_path"] = trace_path
        return result
    finally:
        if recorder is not None:
            recorder.restore()
        try:
            wl.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def _server_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict:
    if not after:
        return {}
    counters = {
        name: value - before.get("counters", {}).get(name, 0.0)
        for name, value in after["counters"].items()
    }
    histograms = {
        name: {"sum": value["sum"] - before.get("histograms", {})
               .get(name, {}).get("sum", 0.0)}
        for name, value in after["histograms"].items()
    }
    return {"counters": counters, "histograms": histograms}


def report(workload: str, seed: int, seconds: float, trace: bool,
           bench: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable table; return the JSON result."""
    e2e = result["e2e"]
    phases = result["phases"]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    mismatches = result["mismatches"]
    print(f"# perfbench {workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    values = result["layers"] if trace else e2e["values"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    if not trace:
        print("## end-to-end")
        for name in [m["name"] for m in bench["end_to_end"]]:
            note = e2e["notes"].get(name, "")
            print(f"{name:34s} {values[name]:14.6g} {units[name]:6s} {note}")
        print("## workload-specific (reported per layer in traced runs)")
        for name in WORKLOAD_SPECIFIC:
            note = e2e["notes"].get(name, "")
            print(f"{name:34s} {e2e['values'][name]:14.6g} "
                  f"{units[name]:6s} {note}")
    else:
        print("## per-layer (traced run)")
        for name in [m["name"] for m in listed]:
            print(f"{name:40s} {values[name]:14.6g} {units[name]}")
        selfs = sum(v for k, v in values.items() if k.startswith("self."))
        print(f"# self times sum to {selfs:.1f} us/op; traced op "
              f"{values['trace.op_us']:.1f} us/op")
        if result["missing"]:
            print(f"# entry points not found: {result['missing']}")
        print(f"# spans written to {os.path.relpath(result['trace_path'])}")
    for phase in phases:
        for failure in phase.failures[:3]:
            print(f"# FAILED OP: {failure}", file=sys.stderr)
    for mismatch in mismatches[:5]:
        print(f"# MISMATCH: {mismatch}", file=sys.stderr)
    correct = not mismatches
    print(f"# correct={correct} attempted={attempted} failed={failed}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    bench, spec = load_config()
    # One core for the benchmark and every process it starts: on a
    # shared virtual machine each extra core is one more source of
    # scheduling noise, and wake-ups between client and server threads
    # stay on one run queue.  The last core, because the first one
    # usually takes most of the kernel's timer and housekeeping work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), spec)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 3
    line = report(args.workload, args.seed, args.seconds, bool(args.trace),
                  bench, result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
