#!/usr/bin/env python3
"""Validate the repo's machine-readable outputs.

Every file is one of ten kinds, sniffed from its content or forced with
--kind: bench, trace, metrics, faults, journal, cache, service, fleet,
warmstart and scenarios. A trace is Chrome trace-event JSON or the JSONL
segments GLIMPSE_TRACE writes to a .jsonl path; metrics (GLIMPSE_METRICS)
and journal (<checkpoint>.journal.jsonl) are JSONL; the other kinds are the
BENCH_*.json files of bench/micro_*.cpp. SCHEMAS below gives every shape:
keys, types and bounds. One small rules function per kind adds the
invariants that span fields (sums, orderings, reduction ratios, gapless
journal steps, trace segments and span ids), and KINDS ties each kind to
its rules and summary line. GATES maps each --check-* flag to the kind it
applies to and the acceptance floors it adds:

With --check-speedup, bench files are additionally gated against per-path
parallel speedup floors (the perf regression gate for the thread-pool /
SIMD layer). Thresholds assume >= 4 worker threads; when the machine
cannot express that parallelism (hardware_concurrency < threads_parallel,
or fewer than 4 parallel threads), the gate skips with a warning instead
of failing, so laptops and 1-core CI shells don't produce false alarms.

With --check-fleet-scaling, fleet files are gated against the aggregate
jobs/sec scaling floor at the largest shard count (scaling_4v1 >= 3.0).
Like the speedup gate it skips, with a warning, on machines with fewer
cores than the largest shard count — the bit-identity requirement is
still enforced unconditionally by the plain fleet validation.

With --check-warmstart, warmstart files are gated per arm: warm-start
must reach the cold run's converged quality (quality_held) with at least
50 % fewer measurer invocations (reduction >= 2.0), and the warm run's
decisions must be bit-identical across thread counts. This gate never
skips — the measurer is simulated, so the numbers do not depend on host
hardware.

With --check-scenarios, scenario files are gated: per template kind the
tuned optimum must differ on at least 3 Blueprints (hardware moves the
optimum), the tensor-core template option must win on at least one
tensor-core Blueprint and must never be selected on silicon without
tensor cores, and every cell's decisions must be bit-identical across
thread counts. This gate never skips — the measurer is simulated, so
the numbers do not depend on host hardware.

Usage:
  tools/check_bench_json.py FILE [FILE ...]
  tools/check_bench_json.py --check-speedup BENCH_parallel.json
  tools/check_bench_json.py --check-fleet-scaling BENCH_fleet.json
  tools/check_bench_json.py --check-warmstart BENCH_warmstart.json
  tools/check_bench_json.py --check-scenarios BENCH_scenarios.json
  tools/check_bench_json.py --selftest

Standard library only; exit status 0 iff every file validates.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

NUMBER = (int, float)
NUMBER_OR_NULL = (int, float, type(None))


class ValidationError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


# ---- schemas ----------------------------------------------------------------
#
# A schema maps keys to specs; a key ending in "?" is optional, and keys a
# schema does not name are allowed. A spec is one of:
#   * a type or a tuple of types: only the bare bool type takes a bool (it
#     never passes for a number), and type(None) in a tuple makes the key
#     nullable;
#   * (types, lo) or (types, lo, hi): the same, within [lo, hi];
#   * a set of strings: the value is one of them;
#   * a nested schema {...};
#   * [item spec, min_len]: a list of at least min_len items.
# JSONL kinds (journal, metrics, trace segments) are checked line by line.

SCHEMAS = {
    "bench": {
        "threads_serial": (int, 1), "threads_parallel": (int, 1),
        "paths": [{"name": str, "serial_ms": (NUMBER, 0),
                   "parallel_ms": (NUMBER, 0)}, 1]},
    "faults": {
        "max_trials": int, "batch_size": int,
        "fault_paths": [{
            "name": str, "p_transient": (NUMBER, 0, 1), "trials": int,
            "faulted": int, "recovered": int, "injected_failures": int,
            "best_gflops": (NUMBER, 0), "gpu_seconds": (NUMBER, 0),
            "wall_ms": (NUMBER, 0), "checkpointed": bool,
            "resume_bit_identical": bool}, 1]},
    "cache": {
        "max_trials": int, "batch_size": int, "repeats": (int, 1),
        "sweeps": [{
            "name": str, "tuner": str, "repeats": int, "trials_total": int,
            "measurements_no_cache": (int, 0), "measurements_cache": (int, 0),
            "reduction": (NUMBER, 0), "cache_hits": int,
            "wall_ms": (NUMBER, 0), "traces_identical": bool}, 1]},
    "service": {
        "slots": (int, 1), "max_trials": int, "batch_size": int,
        "scenarios": [{
            "name": str, "clients": (int, 1), "submitted": int,
            "accepted": int, "rejected": int, "completed": int,
            "cancelled": int, "trials_total": int, "cache_hits": (int, 0),
            "wall_ms": (NUMBER, 0), "results_identical": bool}, 1],
        # overhead_us_per_req may dip below zero on a noisy host.
        "tracing_overhead?": {
            "requests": (int, 1), "off_us_per_req": (NUMBER, 0),
            "on_us_per_req": (NUMBER, 0), "overhead_us_per_req": NUMBER,
            "traced_spans": (int, 0)}},
    "fleet": {
        "hardware_concurrency": (int, 0), "jobs": (int, 1), "max_trials": int,
        "scaling_4v1": (NUMBER, 0), "decisions_identical": bool,
        "points": [{
            "daemons": int, "wall_ms": (NUMBER, 0), "jobs_per_s": (NUMBER, 0),
            "completed": int, "cache_hits": int,
            "per_shard": [{"shard": str, "completed": int,
                           "cache_hits": int}, 0]}, 1]},
    "warmstart": {
        "donor_trials": (int, 1), "max_trials": (int, 1), "batch_size": int,
        "top_k": (int, 1),
        "arms": [{
            "name": str, "warm_seeds": int, "donor_entries": int,
            "donor_devices": int, "cold_best_gflops": (NUMBER, 0),
            "warm_best_gflops": (NUMBER, 0), "parity_gflops": NUMBER,
            "cold_invocations": int, "warm_invocations": int,
            "reduction": NUMBER, "wall_ms": (NUMBER, 0),
            "quality_held": bool, "decisions_identical": bool}, 1]},
    "scenarios": {
        "max_trials": (int, 1), "batch_size": (int, 1),
        "scenario_sweeps": [{
            "kind": str, "task": str, "distinct_best_configs": int,
            "cells": [{
                "gpu": str, "tensor_cores": (int, 0), "best_config": str,
                "best_gflops": (NUMBER, 0), "valid_frac": (NUMBER, 0, 1),
                "wall_ms": (NUMBER, 0), "tc_selected": bool,
                "decisions_identical": bool}, 1]}, 1],
        "acceptance": dict.fromkeys(
            ("optima_move", "tc_selected_somewhere", "tc_never_on_plain",
             "decisions_identical", "pass"), bool)},
    # Chrome trace-event JSON; "X" (complete) events also match trace_span.
    "trace": {"traceEvents": [{"name": str, "ph": str, "ts": (NUMBER, 0)}, 1]},
    "trace_span": {"dur": (NUMBER, 0)},
    # JSONL trace segments: a trace_meta header, then one event per line.
    "trace_meta": {"ph": {"M"}, "args": {"process": str, "base_unix_ns": int}},
    "trace_line": {"name": str, "ph": {"X", "M"}, "ts": (NUMBER, 0)},
    "journal": {
        "step": int, "config": [(int, 0), 0], "valid": bool,
        "error": {"none", "transient", "timeout", "corrupt"},
        "attempts": (int, 1), "gflops": NUMBER_OR_NULL,
        "latency_s": NUMBER_OR_NULL, "cost_s": (NUMBER, 0),
        "elapsed_s": NUMBER},
    "metrics": {"name": str, "type": {"counter", "gauge", "histogram"}},
    # Each metric line also matches the schema named by its "type".
    "counter": {"value": NUMBER}, "gauge": {"value": NUMBER},
    "histogram": {
        "count": int, "sum": NUMBER, "min": NUMBER, "max": NUMBER,
        "p50": NUMBER, "p90": NUMBER, "p99": NUMBER,
        "buckets": [{"le": NUMBER_OR_NULL, "count": int}, 0]},
}


def check_schema(value: object, spec: object, where: str) -> None:
    """Raise ValidationError unless value matches spec (see SCHEMAS)."""
    if isinstance(spec, dict):
        _require(isinstance(value, dict), f"{where}: expected an object")
        for key, sub in spec.items():
            name = key.rstrip("?")
            if name in value:
                check_schema(value[name], sub, f"{where}: {name}")
            else:
                _require(key.endswith("?"), f"{where}: missing key '{name}'")
    elif isinstance(spec, list):
        item, min_len = spec
        _require(isinstance(value, list) and len(value) >= min_len,
                 f"{where}: expected a list of at least {min_len} item(s)")
        for i, v in enumerate(value):
            check_schema(v, item, f"{where}[{i}]")
    elif isinstance(spec, set):
        _require(isinstance(value, str) and value in spec,
                 f"{where}: {value!r} is not one of {sorted(spec)}")
    else:  # a leaf: types, or (types, lo[, hi])
        bounded = isinstance(spec, tuple) and not isinstance(spec[1], type)
        types, lo, hi = (*spec, None)[:3] if bounded else (spec, None, None)
        _require(isinstance(value, types)
                 and (types is bool or not isinstance(value, bool)),
                 f"{where}: wrong type ({type(value).__name__})")
        _require(value is None or ((lo is None or value >= lo)
                                   and (hi is None or value <= hi)),
                 f"{where}: {value} outside [{lo}, {hi}]")


# ---- cross-field rules ------------------------------------------------------


def _each(doc: dict, key: str, name: str):
    """(where, item) for every item of the list doc[key]."""
    for i, item in enumerate(doc[key]):
        yield f"{name}: {key}[{i}]", item


def _ratio_matches(where: str, reduction: float, num: int, den: int,
                   counts: str) -> None:
    """reduction must equal num / den to within 5 %."""
    ratio = num / den
    _require(abs(reduction - ratio) <= 0.05 * max(1.0, ratio),
             f"{where}: reduction {reduction} inconsistent with {counts} "
             f"counts (expected ~{ratio:.2f})")


def _faults_rules(doc: dict, name: str) -> None:
    for where, p in _each(doc, "fault_paths", name):
        _require(p["faulted"] <= p["trials"],
                 f"{where}: more faulted trials than trials")
        _require(p["recovered"] <= p["trials"],
                 f"{where}: more recovered trials than trials")
        _require(p["injected_failures"] >= p["faulted"],
                 f"{where}: fewer injected failures than faulted trials")


def _cache_rules(doc: dict, name: str) -> None:
    for where, s in _each(doc, "sweeps", name):
        _require(s["measurements_cache"] <= s["measurements_no_cache"],
                 f"{where}: the cache arm measured more than the baseline")
        if s["measurements_cache"] > 0:
            _ratio_matches(where, s["reduction"], s["measurements_no_cache"],
                           s["measurements_cache"], "measurement")


def _service_rules(doc: dict, name: str) -> None:
    for where, s in _each(doc, "scenarios", name):
        _require(s["accepted"] + s["rejected"] == s["submitted"],
                 f"{where}: accepted + rejected != submitted "
                 f"(admission must account for every request)")
        _require(s["completed"] + s["cancelled"] <= s["accepted"],
                 f"{where}: more settled jobs than accepted")


def _fleet_rules(doc: dict, name: str) -> None:
    _require(doc["decisions_identical"],
             f"{name}: decisions_identical is false — sharding changed "
             f"tuning results (this is a correctness bug, never skipped)")
    prev_daemons = 0
    for where, p in _each(doc, "points", name):
        _require(p["daemons"] > prev_daemons,
                 f"{where}: daemons must be strictly increasing")
        prev_daemons = p["daemons"]
        _require(p["completed"] == doc["jobs"],
                 f"{where}: completed {p['completed']} != jobs "
                 f"{doc['jobs']} (every point must settle every job)")
        _require(len(p["per_shard"]) == p["daemons"],
                 f"{where}: per_shard has {len(p['per_shard'])} entries "
                 f"for {p['daemons']} daemon(s)")
        for key in ("completed", "cache_hits"):
            total = sum(s[key] for s in p["per_shard"])
            _require(total == p[key], f"{where}: per-shard {key} sums to "
                                      f"{total}, point says {p[key]}")


def _warmstart_rules(doc: dict, name: str) -> None:
    for where, a in _each(doc, "arms", name):
        _require(a["warm_seeds"] <= doc["top_k"],
                 f"{where}: more warm seeds than top_k")
        _require(a["donor_devices"] <= a["donor_entries"],
                 f"{where}: more donor devices than donor entries")
        _require(a["parity_gflops"] <= a["cold_best_gflops"],
                 f"{where}: parity bar above the cold run's best")
        for key in ("cold_invocations", "warm_invocations"):
            _require(a[key] <= doc["max_trials"],
                     f"{where}: {key} above the trial budget")
        if a["warm_invocations"] > 0:
            _ratio_matches(where, a["reduction"], a["cold_invocations"],
                           a["warm_invocations"], "invocation")
        else:
            _require(a["reduction"] == 0,
                     f"{where}: nonzero reduction but the warm run never "
                     f"reached parity")


def _scenarios_rules(doc: dict, name: str) -> None:
    for where, s in _each(doc, "scenario_sweeps", name):
        _require(0 <= s["distinct_best_configs"] <= len(s["cells"]),
                 f"{where}: distinct_best_configs {s['distinct_best_configs']}"
                 f" outside [0, {len(s['cells'])}]")


def _check_span_ids(args: object, where: str) -> None:
    """Distributed-trace id formats, when the event carries them."""
    ids = args if isinstance(args, dict) else {}
    for key, width in (("trace_id", 32), ("span_id", 16),
                       ("parent_span_id", 16)):
        if key in ids:
            v = ids[key]
            _require(isinstance(v, str) and len(v) == width
                     and all(c in "0123456789abcdef" for c in v),
                     f"{where}: '{key}' must be {width} lowercase hex chars")
    _require(ids.get("trace_id") != "0" * 32, f"{where}: all-zero trace_id")


def _check_event(e: dict, where: str) -> None:
    """Rules for one trace event that already matched its schema."""
    _require(e["ts"] < 1e15, f"{where}: implausible ts (wrapped clock?)")
    if e["ph"] == "X":
        check_schema(e, SCHEMAS["trace_span"], where)
        _check_span_ids(e.get("args"), where)


def _trace_rules(doc: dict, name: str) -> None:
    for where, e in _each(doc, "traceEvents", name):
        _check_event(e, where)


def _trace_lines_rules(lines: list, name: str) -> int:
    """JSONL trace segments (GLIMPSE_TRACE=<path>.jsonl, appendable)."""
    spans = 0
    in_segment = False
    for where, e in lines:
        if isinstance(e, dict) and e.get("name") == "trace_meta":
            check_schema(e, SCHEMAS["trace_meta"], where)
            in_segment = True
            continue
        _require(in_segment,
                 f"{where}: event before any trace_meta segment header")
        check_schema(e, SCHEMAS["trace_line"], where)
        _check_event(e, where)
        if e["ph"] == "X":
            spans += 1
    return spans


def _journal_rules(lines: list, name: str) -> int:
    for step, (where, t) in enumerate(lines):
        check_schema(t, SCHEMAS["journal"], where)
        _require(t["step"] == step,
                 f"{where}: step {t['step']}, expected {step} "
                 f"(journal must be gapless and duplicate-free)")
        _require(not t["valid"] or t["error"] == "none",
                 f"{where}: valid trial carries error '{t['error']}'")
    return len(lines)


def _metrics_rules(lines: list, name: str) -> int:
    for where, m in lines:
        check_schema(m, SCHEMAS["metrics"], where)
        check_schema(m, SCHEMAS[m["type"]], where)
        if m["type"] == "histogram":
            total = sum(b["count"] for b in m["buckets"])
            _require(total == m["count"], f"{where}: bucket counts sum to "
                                          f"{total}, but count={m['count']}")
    return len(lines)


# ---- gates ------------------------------------------------------------------


# Parallel speedup floors enforced by --check-speedup, keyed by path name.
# Calibrated for a 4-thread run of bench/micro_parallel on a >= 4-core
# machine: the SIMD'd row-parallel matmul must beat 3x, and the end-to-end
# figure-grid fan-out (which also contains serial per-cell work) must beat
# 1.5x. Raise these only with bench numbers in hand.
SPEEDUP_THRESHOLDS = {
    "linalg_matmul": 3.0,
    "fig6_grid": 1.5,
}
GATE_MIN_THREADS = 4


def check_speedup(doc: dict, name: str) -> str:
    """Gate a bench doc against per-path speedup floors."""
    check_schema(doc, {"hardware_concurrency?": ((int, type(None)), 0)}, name)
    tp = doc["threads_parallel"]
    hc = doc.get("hardware_concurrency")
    if tp < GATE_MIN_THREADS:
        return (f"speedup gate SKIPPED: only {tp} parallel thread(s), "
                f"thresholds assume >= {GATE_MIN_THREADS}")
    if hc is not None and 0 < hc < tp:
        return (f"speedup gate SKIPPED: hardware_concurrency {hc} < "
                f"threads_parallel {tp}; machine cannot express the "
                f"parallelism being gated")
    by_name = {p["name"]: p for p in doc["paths"]}
    parts = []
    for pname, floor in sorted(SPEEDUP_THRESHOLDS.items()):
        _require(pname in by_name,
                 f"{name}: gated path '{pname}' missing from paths")
        p = by_name[pname]
        speedup = p["serial_ms"] / max(1e-9, p["parallel_ms"])
        _require(speedup >= floor,
                 f"{name}: path '{pname}' speedup {speedup:.2f}x is below "
                 f"the {floor:.2f}x floor at {tp} threads (perf regression)")
        parts.append(f"{pname} {speedup:.2f}x >= {floor:.2f}x")
    return "speedup gate passed: " + ", ".join(parts)


# Aggregate jobs/sec scaling floor at the largest shard count, enforced by
# --check-fleet-scaling on hosts with at least that many cores. Cache-warm
# serving is almost pure orchestration, so 4 shards should deliver close
# to 4x one shard; 3.0 leaves room for protocol and scheduler overhead.
FLEET_SCALING_FLOOR = 3.0


def check_fleet_scaling(doc: dict, name: str) -> str:
    """Gate a fleet doc against the 4-vs-1 scaling floor."""
    hc = doc["hardware_concurrency"]
    max_daemons = max(p["daemons"] for p in doc["points"])
    if 0 < hc < max_daemons:
        return (f"fleet scaling gate SKIPPED: hardware_concurrency {hc} < "
                f"{max_daemons} daemon(s); machine cannot express the "
                f"parallelism being gated")
    scaling, floor = doc["scaling_4v1"], FLEET_SCALING_FLOOR
    _require(scaling >= floor,
             f"{name}: scaling_4v1 {scaling:.2f}x is below the "
             f"{floor:.2f}x floor at {max_daemons} daemons on {hc} cores "
             f"(fleet scaling regression)")
    return (f"fleet scaling gate passed: {scaling:.2f}x >= {floor:.2f}x "
            f"at {max_daemons} daemons")


# Per-arm invocation-reduction floor enforced by --check-warmstart: seeding
# from donor tiers must at least halve the trials needed to reach the cold
# search's converged quality ("50 % fewer measurer invocations to the same
# best-cost"). Never skipped: the measurer is simulated, so the curve is a
# property of the algorithm, not of the host.
WARMSTART_REDUCTION_FLOOR = 2.0


def check_warmstart_gate(doc: dict, name: str) -> str:
    """Every arm must hold quality, stay deterministic across thread
    counts, and beat the reduction floor."""
    floor = WARMSTART_REDUCTION_FLOOR
    parts = []
    for i, a in enumerate(doc["arms"]):
        where = f"{name}: arms[{i}] ('{a['name']}')"
        _require(a["decisions_identical"],
                 f"{where}: warm-start decisions differ across thread "
                 f"counts (this is a correctness bug, never skipped)")
        _require(a["quality_held"],
                 f"{where}: warm run's final best {a['warm_best_gflops']} "
                 f"fell short of the {a['parity_gflops']} parity bar")
        _require(a["warm_invocations"] > 0,
                 f"{where}: warm run never reached parity")
        _require(a["reduction"] >= floor,
                 f"{where}: reduction {a['reduction']:.2f}x is below the "
                 f"{floor:.2f}x floor (warm-start regression)")
        parts.append(f"{a['name']} {a['reduction']:.2f}x >= {floor:.2f}x")
    return "warmstart gate passed: " + ", ".join(parts)


# Per-kind distinct-optima floor enforced by --check-scenarios: across the
# swept Blueprints, at least this many must disagree on the best config, or
# the hardware embedding has nothing to learn from the new template kinds.
SCENARIO_DISTINCT_FLOOR = 3


def check_scenarios_gate(doc: dict, name: str) -> str:
    """Optima must move across Blueprints, the tensor-core path must win
    somewhere on TC silicon and never off it, and every cell must be
    thread-count deterministic. Never skipped: the measurer is simulated."""
    floor = SCENARIO_DISTINCT_FLOOR
    parts = []
    for i, s in enumerate(doc["scenario_sweeps"]):
        where = f"{name}: scenario_sweeps[{i}] ('{s['kind']}')"
        _require(s["distinct_best_configs"] >= floor,
                 f"{where}: only {s['distinct_best_configs']} distinct "
                 f"optima across {len(s['cells'])} Blueprints (floor {floor};"
                 f" hardware is not moving the optimum)")
        for j, c in enumerate(s["cells"]):
            cwhere = f"{where}: cells[{j}] ('{c['gpu']}')"
            _require(c["decisions_identical"],
                     f"{cwhere}: tuning decisions differ across thread "
                     f"counts (this is a correctness bug, never skipped)")
            _require(not c["tc_selected"] or c["tensor_cores"] > 0,
                     f"{cwhere}: tensor-core config selected on silicon "
                     f"without tensor cores (resource gate is broken)")
        parts.append(f"{s['kind']} {s['distinct_best_configs']}/"
                     f"{len(s['cells'])} optima")
    _require(any(c["tc_selected"]
                 for s in doc["scenario_sweeps"] for c in s["cells"]),
             f"{name}: tensor-core path never selected on any tensor-core "
             f"Blueprint (the fast path is not paying off)")
    _require(doc["acceptance"]["pass"],
             f"{name}: acceptance.pass is false (bench-side gate failed)")
    return "scenarios gate passed: " + ", ".join(parts) + ", tc path selected"


# --check-<gate> -> (the kind it applies to, the gate). A gate runs on a
# document of that kind that already validated; it returns a summary line
# and raises ValidationError on a regression.
GATES = {
    "speedup": ("bench", check_speedup),
    "fleet-scaling": ("fleet", check_fleet_scaling),
    "warmstart": ("warmstart", check_warmstart_gate),
    "scenarios": ("scenarios", check_scenarios_gate),
}


# ---- dispatch ---------------------------------------------------------------


# kind -> (counted list, summary, rules). A JSON kind's rules run on the
# document once SCHEMAS[kind] accepts it, and the summary counts the items
# of its counted list. A JSONL kind (counted list None) hands its rules the
# parsed lines, and the rules return the count, which must not be zero.
KINDS = {
    "bench": ("paths", "bench json, {} path(s)", lambda doc, name: None),
    "trace": ("traceEvents", "chrome trace, {} event(s)", _trace_rules),
    "metrics": (None, "metrics jsonl, {} metric(s)", _metrics_rules),
    "faults": ("fault_paths", "faults json, {} fault path(s)", _faults_rules),
    "journal": (None, "session journal, {} trial(s)", _journal_rules),
    "cache": ("sweeps", "cache json, {} sweep(s)", _cache_rules),
    "service": ("scenarios", "service json, {} scenario(s)", _service_rules),
    "fleet": ("points", "fleet json, {} point(s)", _fleet_rules),
    "warmstart": ("arms", "warmstart json, {} arm(s)", _warmstart_rules),
    "scenarios": ("scenario_sweeps", "scenarios json, {} sweep(s)",
                  _scenarios_rules),
}
# A trace file that is not one Chrome trace document holds JSONL segments.
TRACE_JSONL = (None, "trace jsonl, {} span(s)", _trace_lines_rules)

# (top-level keys, kind); the first match wins. LINE_SNIFF looks at the
# first line of a file, DOC_SNIFF at the whole document. A file that parses
# as neither is JSONL metrics; an unmatched document is a bench file.
LINE_SNIFF = [(("step", "config"), "journal"), (("ph",), "trace"),
              (("name", "type"), "metrics")]
DOC_SNIFF = [(("traceEvents",), "trace"), (("fault_paths",), "faults"),
             (("sweeps",), "cache"), (("scenario_sweeps",), "scenarios"),
             (("scenarios",), "service"), (("scaling_4v1",), "fleet"),
             (("arms",), "warmstart")]


def _sniff(doc: object, table: list) -> str | None:
    hits = (kind for keys, kind in table
            if isinstance(doc, dict) and all(k in doc for k in keys))
    return next(hits, None)


def _loads(text: str) -> object:
    """The JSON value of text, or None when text is not JSON (a JSON null
    is no valid file of any kind either)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def sniff_kind(text: str) -> str:
    lines = text.lstrip().splitlines()
    doc = _loads(text)
    # A whole file that is not JSON is multi-line JSONL: metrics, whose
    # per-line checks say what is wrong.
    return (_sniff(_loads(lines[0]) if lines else None, LINE_SNIFF)
            or _sniff(doc, DOC_SNIFF)
            or ("metrics" if doc is None else "bench"))


def _json_lines(text: str, name: str) -> list:
    """(where, object) for every non-blank line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        where, line = f"{name}:{lineno}", line.strip()
        if line:
            try:
                out.append((where, json.loads(line)))
            except json.JSONDecodeError as e:
                raise ValidationError(f"{where}: bad JSON ({e})") from e
    return out


def check_file(path: Path, kind: str | None = None,
               gate: str | None = None) -> str:
    text, name = path.read_text(), str(path)
    kind = kind or sniff_kind(text)
    if gate:
        gate_kind, run_gate = GATES[gate]
        _require(kind == gate_kind,
                 f"{name}: --check-{gate} only applies to {gate_kind} json "
                 f"(sniffed '{kind}')")
    _require(kind in KINDS, f"{name}: unknown kind '{kind}'")
    counted, summary, rules = KINDS[kind]
    if kind == "trace" and _sniff(_loads(text), DOC_SNIFF) != "trace":
        counted, summary, rules = TRACE_JSONL
    if counted is None:
        n = rules(_json_lines(text, name), name)
        _require(n > 0, f"{name}: nothing to check ({summary.format(0)})")
        return summary.format(n)
    doc = json.loads(text)
    check_schema(doc, SCHEMAS[kind], name)
    rules(doc, name)
    return run_gate(doc, name) if gate else summary.format(len(doc[counted]))


# ---- selftest ---------------------------------------------------------------

VALID_BENCH = {
    "threads_serial": 1,
    "threads_parallel": 8,
    "paths": [
        {"name": "gemm", "serial_ms": 10.0, "parallel_ms": 2.5,
         "speedup": 4.0},
    ],
}

# A bench doc that satisfies the speedup gate on capable hardware.
GATED_BENCH = {
    "threads_serial": 1,
    "threads_parallel": 4,
    "hardware_concurrency": 8,
    "simd_compiled": True,
    "simd_enabled": True,
    "paths": [
        {"name": "linalg_matmul", "serial_ms": 40.0, "parallel_ms": 11.0,
         "speedup": 3.64},
        {"name": "fig6_grid", "serial_ms": 900.0, "parallel_ms": 400.0,
         "speedup": 2.25},
        {"name": "pool_dispatch", "serial_ms": 0.1, "parallel_ms": 3.0,
         "speedup": 0.03},
    ],
}

VALID_TRACE = {
    "displayTimeUnit": "ms",
    "traceEvents": [
        {"name": "session.run", "cat": "glimpse", "ph": "X", "pid": 0,
         "tid": 0, "ts": 0.0, "dur": 125.5, "args": {"depth": 0}},
        {"name": "sa.chain", "cat": "glimpse", "ph": "X", "pid": 0,
         "tid": 1, "ts": 10.0, "dur": 50.0, "args": {"depth": 1}},
    ],
}

VALID_TRACE_JSONL = "\n".join([
    json.dumps({"name": "trace_meta", "ph": "M", "pid": 17, "ts": 0,
                "args": {"process": "glimpse_client",
                         "base_unix_ns": 1754600000000000000}}),
    json.dumps({"name": "client.request", "cat": "glimpse", "ph": "X",
                "pid": 17, "tid": 0, "ts": 12.5, "dur": 800.0,
                "args": {"depth": 0,
                         "trace_id": "118d627ac8387f2ece243bda5e27a40b",
                         "span_id": "a4871a5c829f593c", "note": "submit"}}),
    json.dumps({"name": "trace_meta", "ph": "M", "pid": 19, "ts": 0,
                "args": {"process": "glimpsed",
                         "base_unix_ns": 1754600000000100000}}),
    json.dumps({"name": "server.request", "cat": "glimpse", "ph": "X",
                "pid": 19, "tid": 1, "ts": 40.0, "dur": 35.0,
                "args": {"depth": 0,
                         "trace_id": "118d627ac8387f2ece243bda5e27a40b",
                         "span_id": "670c7d0bd5ef0a71",
                         "parent_span_id": "a4871a5c829f593c"}}),
])

VALID_FAULTS = {
    "max_trials": 96,
    "batch_size": 8,
    "fault_paths": [
        {"name": "transient_p0.20", "p_transient": 0.2, "trials": 96,
         "faulted": 3, "recovered": 14, "injected_failures": 23,
         "best_gflops": 397.8, "gpu_seconds": 217.1, "wall_ms": 0.5,
         "checkpointed": False, "resume_bit_identical": True},
    ],
}

VALID_JOURNAL = "\n".join([
    json.dumps({"step": 0, "config": [1, 0, 3], "valid": True,
                "error": "none", "attempts": 1, "gflops": 120.5,
                "latency_s": 0.001, "cost_s": 0.1, "elapsed_s": 0.1}),
    json.dumps({"step": 1, "config": [2, 2, 0], "valid": False,
                "error": "transient", "attempts": 3, "gflops": 0.0,
                "latency_s": 0.0, "cost_s": 0.3, "elapsed_s": 2.4}),
])

VALID_CACHE = {
    "max_trials": 64,
    "batch_size": 8,
    "repeats": 6,
    "sweeps": [
        {"name": "repeat_random", "tuner": "Random", "repeats": 6,
         "trials_total": 384, "measurements_no_cache": 384,
         "measurements_cache": 64, "reduction": 6.0, "cache_hits": 320,
         "traces_identical": True, "wall_ms": 1.5},
    ],
}

VALID_SERVICE = {
    "slots": 4,
    "max_trials": 48,
    "batch_size": 8,
    "scenarios": [
        {"name": "fleet_shared_cache", "clients": 4, "submitted": 18,
         "accepted": 18, "rejected": 0, "completed": 18, "cancelled": 0,
         "trials_total": 768, "cache_hits": 192, "results_identical": True,
         "wall_ms": 2.7},
        {"name": "saturation_burst", "clients": 1, "submitted": 9,
         "accepted": 5, "rejected": 4, "completed": 4, "cancelled": 1,
         "trials_total": 0, "cache_hits": 0, "results_identical": True,
         "wall_ms": 6.2},
    ],
}

VALID_FLEET = {
    "hardware_concurrency": 8,
    "jobs": 48,
    "max_trials": 16,
    "points": [
        {"daemons": 1, "wall_ms": 40.0, "jobs_per_s": 1200.0,
         "completed": 48, "cache_hits": 768,
         "per_shard": [{"shard": "s0", "completed": 48, "cache_hits": 768}]},
        {"daemons": 4, "wall_ms": 12.0, "jobs_per_s": 4000.0,
         "completed": 48, "cache_hits": 768,
         "per_shard": [
             {"shard": "s0", "completed": 8, "cache_hits": 128},
             {"shard": "s1", "completed": 8, "cache_hits": 128},
             {"shard": "s2", "completed": 24, "cache_hits": 384},
             {"shard": "s3", "completed": 8, "cache_hits": 128}]},
    ],
    "scaling_4v1": 3.33,
    "decisions_identical": True,
}

VALID_WARMSTART = {
    "donor_trials": 256,
    "max_trials": 128,
    "batch_size": 8,
    "top_k": 16,
    "arms": [
        {"name": "autotvm", "warm_seeds": 16, "donor_entries": 953,
         "donor_devices": 5, "cold_best_gflops": 2338.5,
         "warm_best_gflops": 2856.6, "parity_gflops": 2221.58,
         "cold_invocations": 113, "warm_invocations": 11,
         "reduction": 10.27, "quality_held": True,
         "decisions_identical": True, "wall_ms": 1178.5},
        {"name": "chameleon", "warm_seeds": 16, "donor_entries": 953,
         "donor_devices": 5, "cold_best_gflops": 2883.4,
         "warm_best_gflops": 2856.6, "parity_gflops": 2739.23,
         "cold_invocations": 92, "warm_invocations": 11,
         "reduction": 8.36, "quality_held": True,
         "decisions_identical": True, "wall_ms": 1258.0},
    ],
}

def _scenario_cell(gpu, tensor_cores, best_gflops, best_config, tc_selected):
    return {"gpu": gpu, "tensor_cores": tensor_cores,
            "best_gflops": best_gflops, "best_config": best_config,
            "tc_selected": tc_selected, "valid_frac": 0.62,
            "decisions_identical": True, "wall_ms": 5000.0}


VALID_SCENARIOS = {
    "max_trials": 224,
    "batch_size": 8,
    "scenario_sweeps": [
        {"kind": "attention", "task": "scenario.attention",
         "distinct_best_configs": 5,
         "cells": [
             _scenario_cell("Jetson Nano", 0, 197.3, "cfgA", False),
             _scenario_cell("Titan Xp", 0, 4777.7, "cfgB", False),
             _scenario_cell("RTX 2080 Ti", 544, 10271.5, "cfgC", True),
             _scenario_cell("A100 PCIe", 432, 12249.4, "cfgD", True),
             _scenario_cell("H100 PCIe", 456, 12918.9, "cfgE", True)]},
        {"kind": "depthwise_conv2d", "task": "scenario.depthwise",
         "distinct_best_configs": 4,
         "cells": [
             _scenario_cell("Jetson Nano", 0, 14.1, "cfgF", False),
             _scenario_cell("Titan Xp", 0, 301.2, "cfgG", False),
             _scenario_cell("RTX 2080 Ti", 544, 414.9, "cfgG", False),
             _scenario_cell("A100 PCIe", 432, 598.8, "cfgH", False),
             _scenario_cell("H100 PCIe", 456, 731.0, "cfgI", False)]},
    ],
    "acceptance": {"optima_move": True, "tc_selected_somewhere": True,
                   "tc_never_on_plain": True, "decisions_identical": True,
                   "pass": True},
}


VALID_METRICS = "\n".join([
    json.dumps({"name": "session.trials", "type": "counter", "value": 64}),
    json.dumps({"name": "surrogate.train_size", "type": "gauge",
                "value": 48.0}),
    json.dumps({"name": "measure.cost_s", "type": "histogram", "count": 3,
                "sum": 1.5, "min": 0.1, "max": 1.0, "p50": 0.4, "p90": 0.9,
                "p99": 1.0,
                "buckets": [{"le": 0.5, "count": 2},
                            {"le": None, "count": 1}]}),
])


def selftest() -> int:
    cases = [
        # (description, kind, content, should_pass)
        ("valid bench", None, json.dumps(VALID_BENCH), True),
        ("valid trace", None, json.dumps(VALID_TRACE), True),
        ("valid metrics", None, VALID_METRICS, True),
        ("bench missing paths", "bench",
         json.dumps({"threads_serial": 1, "threads_parallel": 8}), False),
        ("bench path missing serial_ms", "bench",
         json.dumps({"threads_serial": 1, "threads_parallel": 8,
                     "paths": [{"name": "x", "parallel_ms": 1.0}]}), False),
        ("trace event missing dur", "trace",
         json.dumps({"traceEvents": [{"name": "a", "ph": "X", "ts": 0.0}]}),
         False),
        ("trace with string ts", "trace",
         json.dumps({"traceEvents": [{"name": "a", "ph": "X", "ts": "0",
                                      "dur": 1.0}]}), False),
        ("valid trace jsonl", None, VALID_TRACE_JSONL, True),
        ("trace jsonl sniffs without forced kind", None,
         VALID_TRACE_JSONL, True),
        ("trace jsonl event before meta", "trace",
         "\n".join(VALID_TRACE_JSONL.splitlines()[1:]), False),
        ("trace jsonl short trace_id", "trace",
         VALID_TRACE_JSONL.replace("118d627ac8387f2ece243bda5e27a40b",
                                   "118d"), False),
        ("trace jsonl uppercase span_id", "trace",
         VALID_TRACE_JSONL.replace("a4871a5c829f593c",
                                   "A4871A5C829F593C"), False),
        ("trace jsonl wrapped timestamp", "trace",
         VALID_TRACE_JSONL.replace('"ts": 40.0',
                                   '"ts": 18446744073709552.0'), False),
        ("trace jsonl meta missing base", "trace",
         VALID_TRACE_JSONL.replace('"base_unix_ns"', '"nope"'), False),
        ("metrics line missing type", "metrics",
         json.dumps({"name": "x", "value": 1}), False),
        ("metrics bucket sum mismatch", "metrics",
         json.dumps({"name": "h", "type": "histogram", "count": 5,
                     "sum": 1.0, "min": 0.1, "max": 1.0, "p50": 0.5,
                     "p90": 0.9, "p99": 1.0,
                     "buckets": [{"le": None, "count": 1}]}), False),
        ("not json at all", "bench", "not json {", False),
        ("valid faults", None, json.dumps(VALID_FAULTS), True),
        ("valid journal", None, VALID_JOURNAL, True),
        ("faults more faulted than trials", "faults",
         json.dumps({"max_trials": 8, "batch_size": 8, "fault_paths": [
             dict(VALID_FAULTS["fault_paths"][0], faulted=97)]}), False),
        ("faults missing resume flag", "faults",
         json.dumps({"max_trials": 8, "batch_size": 8, "fault_paths": [
             {k: v for k, v in VALID_FAULTS["fault_paths"][0].items()
              if k != "resume_bit_identical"}]}), False),
        ("journal with a step gap", "journal",
         VALID_JOURNAL.replace('"step": 1', '"step": 5'), False),
        ("journal valid trial with error", "journal",
         VALID_JOURNAL.replace('"error": "none"', '"error": "timeout"'),
         False),
        ("journal unknown error kind", "journal",
         VALID_JOURNAL.replace('"transient"', '"gremlins"'), False),
        ("valid cache", None, json.dumps(VALID_CACHE), True),
        ("cache reduction inconsistent", "cache",
         json.dumps(dict(VALID_CACHE, sweeps=[
             dict(VALID_CACHE["sweeps"][0], reduction=2.0)])), False),
        ("cache arm measured more than baseline", "cache",
         json.dumps(dict(VALID_CACHE, sweeps=[
             dict(VALID_CACHE["sweeps"][0], measurements_cache=500)])),
         False),
        ("cache missing traces_identical", "cache",
         json.dumps(dict(VALID_CACHE, sweeps=[
             {k: v for k, v in VALID_CACHE["sweeps"][0].items()
              if k != "traces_identical"}])), False),
        ("valid service", None, json.dumps(VALID_SERVICE), True),
        ("service admission does not account", "service",
         json.dumps(dict(VALID_SERVICE, scenarios=[
             dict(VALID_SERVICE["scenarios"][1], rejected=3)])), False),
        ("service settled more than accepted", "service",
         json.dumps(dict(VALID_SERVICE, scenarios=[
             dict(VALID_SERVICE["scenarios"][0], completed=99)])), False),
        ("service missing results_identical", "service",
         json.dumps(dict(VALID_SERVICE, scenarios=[
             {k: v for k, v in VALID_SERVICE["scenarios"][0].items()
              if k != "results_identical"}])), False),
        ("service tracing overhead accepted", "service",
         json.dumps(dict(VALID_SERVICE, tracing_overhead={
             "requests": 2000, "off_us_per_req": 11.5, "on_us_per_req": 12.75,
             "overhead_us_per_req": 1.25, "traced_spans": 8000})), True),
        ("service tracing overhead negative latency", "service",
         json.dumps(dict(VALID_SERVICE, tracing_overhead={
             "requests": 2000, "off_us_per_req": -1.0, "on_us_per_req": 12.75,
             "overhead_us_per_req": 13.75, "traced_spans": 8000})), False),
        ("speedup gate passes on capable hardware", "speedup",
         json.dumps(GATED_BENCH), True),
        ("speedup gate catches a matmul regression", "speedup",
         json.dumps(dict(GATED_BENCH, paths=[
             dict(GATED_BENCH["paths"][0], parallel_ms=20.0),
             GATED_BENCH["paths"][1], GATED_BENCH["paths"][2]])), False),
        ("speedup gate requires the gated paths", "speedup",
         json.dumps(dict(GATED_BENCH, paths=[GATED_BENCH["paths"][0]])),
         False),
        ("speedup gate skips on too-narrow hardware", "speedup",
         json.dumps(dict(GATED_BENCH, hardware_concurrency=1, paths=[
             dict(GATED_BENCH["paths"][0], parallel_ms=50.0),
             GATED_BENCH["paths"][1], GATED_BENCH["paths"][2]])), True),
        ("speedup gate skips below 4 parallel threads", "speedup",
         json.dumps(dict(GATED_BENCH, threads_parallel=2, paths=[
             dict(GATED_BENCH["paths"][0], parallel_ms=50.0),
             GATED_BENCH["paths"][1], GATED_BENCH["paths"][2]])), True),
        ("speedup gate rejects non-bench input", "speedup",
         json.dumps(VALID_TRACE), False),
        ("valid fleet sniffs without forced kind", None,
         json.dumps(VALID_FLEET), True),
        ("fleet point missing a job", "fleet",
         json.dumps(dict(VALID_FLEET, points=[
             VALID_FLEET["points"][0],
             dict(VALID_FLEET["points"][1], completed=47)])), False),
        ("fleet decisions not identical", "fleet",
         json.dumps(dict(VALID_FLEET, decisions_identical=False)), False),
        ("fleet per-shard counts do not sum", "fleet",
         json.dumps(dict(VALID_FLEET, points=[
             VALID_FLEET["points"][0],
             dict(VALID_FLEET["points"][1], cache_hits=1)])), False),
        ("fleet daemons not increasing", "fleet",
         json.dumps(dict(VALID_FLEET, points=[
             VALID_FLEET["points"][1],
             VALID_FLEET["points"][0]])), False),
        ("fleet scaling gate passes on capable hardware", "fleet-scaling",
         json.dumps(VALID_FLEET), True),
        ("fleet scaling gate catches a regression", "fleet-scaling",
         json.dumps(dict(VALID_FLEET, scaling_4v1=1.2)), False),
        ("fleet scaling gate skips on too-narrow hardware", "fleet-scaling",
         json.dumps(dict(VALID_FLEET, hardware_concurrency=1,
                         scaling_4v1=0.4)), True),
        ("fleet scaling gate rejects non-fleet input", "fleet-scaling",
         json.dumps(VALID_SERVICE), False),
        ("valid warmstart sniffs without forced kind", None,
         json.dumps(VALID_WARMSTART), True),
        ("warmstart reduction inconsistent", "warmstart",
         json.dumps(dict(VALID_WARMSTART, arms=[
             dict(VALID_WARMSTART["arms"][0], reduction=3.0)])), False),
        ("warmstart parity above cold best", "warmstart",
         json.dumps(dict(VALID_WARMSTART, arms=[
             dict(VALID_WARMSTART["arms"][0], parity_gflops=9000.0)])),
         False),
        ("warmstart missing decisions_identical", "warmstart",
         json.dumps(dict(VALID_WARMSTART, arms=[
             {k: v for k, v in VALID_WARMSTART["arms"][0].items()
              if k != "decisions_identical"}])), False),
        ("warmstart never-reached-parity must report zero", "warmstart",
         json.dumps(dict(VALID_WARMSTART, arms=[
             dict(VALID_WARMSTART["arms"][0], warm_invocations=0)])), False),
        ("warmstart gate passes", "warmstart-gate",
         json.dumps(VALID_WARMSTART), True),
        ("warmstart gate catches a weak reduction", "warmstart-gate",
         json.dumps(dict(VALID_WARMSTART, arms=[
             VALID_WARMSTART["arms"][0],
             dict(VALID_WARMSTART["arms"][1], cold_invocations=13,
                  reduction=1.18)])), False),
        ("warmstart gate catches a quality miss", "warmstart-gate",
         json.dumps(dict(VALID_WARMSTART, arms=[
             dict(VALID_WARMSTART["arms"][0], quality_held=False)])), False),
        ("warmstart gate catches nondeterminism", "warmstart-gate",
         json.dumps(dict(VALID_WARMSTART, arms=[
             dict(VALID_WARMSTART["arms"][0],
                  decisions_identical=False)])), False),
        ("warmstart gate rejects non-warmstart input", "warmstart-gate",
         json.dumps(VALID_FLEET), False),
        ("valid scenarios sniffs without forced kind", None,
         json.dumps(VALID_SCENARIOS), True),
        ("scenarios cell missing tc_selected", "scenarios",
         json.dumps(dict(VALID_SCENARIOS, scenario_sweeps=[
             dict(VALID_SCENARIOS["scenario_sweeps"][0], cells=[
                 {k: v for k, v in _scenario_cell("Titan Xp", 0, 1.0, "c",
                                                  False).items()
                  if k != "tc_selected"}])])), False),
        ("scenarios valid_frac out of range", "scenarios",
         json.dumps(VALID_SCENARIOS).replace('"valid_frac": 0.62',
                                             '"valid_frac": 1.62', 1), False),
        ("scenarios distinct count above cell count", "scenarios",
         json.dumps(VALID_SCENARIOS).replace('"distinct_best_configs": 5',
                                             '"distinct_best_configs": 9'),
         False),
        ("scenarios gate passes", "scenarios-gate",
         json.dumps(VALID_SCENARIOS), True),
        ("scenarios gate catches tc selected on plain silicon",
         "scenarios-gate",
         json.dumps(VALID_SCENARIOS).replace(
             '"best_config": "cfgA", "tc_selected": false',
             '"best_config": "cfgA", "tc_selected": true'), False),
        ("scenarios gate catches too few distinct optima", "scenarios-gate",
         json.dumps(VALID_SCENARIOS).replace('"distinct_best_configs": 4',
                                             '"distinct_best_configs": 2'),
         False),
        ("scenarios gate catches nondeterminism", "scenarios-gate",
         json.dumps(VALID_SCENARIOS).replace('"decisions_identical": true',
                                             '"decisions_identical": false',
                                             1), False),
        ("scenarios gate catches a never-winning tc path", "scenarios-gate",
         json.dumps(VALID_SCENARIOS).replace('"tc_selected": true',
                                             '"tc_selected": false'), False),
        ("scenarios gate rejects non-scenarios input", "scenarios-gate",
         json.dumps(VALID_SERVICE), False),
        ("metrics bucket le is a boolean", "metrics",
         VALID_METRICS.replace('"le": 0.5', '"le": true'), False),
    ]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="check_bench_json_") as tmp:
        for i, (desc, kind, content, should_pass) in enumerate(cases):
            path = Path(tmp) / f"case_{i}.json"
            path.write_text(content)
            # A case tag that names no kind names a gate ("speedup",
            # "fleet-scaling", "warmstart-gate", "scenarios-gate").
            gate = (kind.removesuffix("-gate")
                    if kind and kind not in KINDS else None)
            try:
                check_file(path, None if gate else kind, gate)
                passed = True
            except (ValidationError, json.JSONDecodeError):
                passed = False
            status = "ok" if passed == should_pass else "FAIL"
            if passed != should_pass:
                failures += 1
            expect = "accept" if should_pass else "reject"
            print(f"[{status}] selftest: {desc} (expected {expect})")
    if failures:
        print(f"selftest: {failures} case(s) misbehaved", file=sys.stderr)
        return 1
    print(f"selftest: all {len(cases)} cases behaved")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to validate")
    parser.add_argument("--kind", choices=list(KINDS),
                        help="force the file kind instead of sniffing")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in validator test cases")
    parser.add_argument("--check-speedup", dest="gate",
                        action="store_const", const="speedup",
                        help="gate bench files against per-path parallel "
                             "speedup floors (perf regression gate)")
    parser.add_argument("--check-fleet-scaling", dest="gate",
                        action="store_const", const="fleet-scaling",
                        help="gate fleet files against the aggregate "
                             "jobs/sec scaling floor (skips on hosts with "
                             "fewer cores than the largest shard count)")
    parser.add_argument("--check-warmstart", dest="gate",
                        action="store_const", const="warmstart",
                        help="gate warmstart files: every arm must hold "
                             "cold-run quality with >= 50%% fewer measurer "
                             "invocations and thread-count-identical "
                             "decisions (never skipped)")
    parser.add_argument("--check-scenarios", dest="gate",
                        action="store_const", const="scenarios",
                        help="gate scenarios files: per kind the optimum "
                             "must move across >= 3 Blueprints, tensor "
                             "cores must win on TC silicon and never off "
                             "it, decisions thread-count-identical (never "
                             "skipped)")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.files:
        parser.error("no files given (or use --selftest)")

    status = 0
    for path in args.files:
        try:
            print(f"[ok] {path}: {check_file(path, args.kind, args.gate)}")
        except FileNotFoundError:
            print(f"[FAIL] {path}: no such file", file=sys.stderr)
            status = 1
        except (ValidationError, json.JSONDecodeError) as e:
            print(f"[FAIL] {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
