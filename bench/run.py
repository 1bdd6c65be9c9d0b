"""abcast benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]
    python3 bench/run.py compare A.jsonl B.jsonl

A run repeats the workload's body until `--seconds` have passed and prints
its metrics, one per line, then as the last line one JSON object with the
keys correct, attempted, failed and metrics.  `--trace 0` gives the
end-to-end metrics with no instrumentation; `--trace 1` gives the per-layer
metrics from a separate run with spans around each module's entry points.
Each run also appends its full record (environment, trace fingerprint,
every metric) to bench/results/runs.jsonl, which `compare` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 5

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "seeds_per_s": "1/s", "seed_ms_p50": "ms",
    "seed_ms_p95": "ms", "events_per_s": "1/s", "check_s": "s",
    "states_per_s": "1/s", "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not in the JSON: the commit
# latencies do not exist on explore_small, and failed_frac is 0 when all is
# well (the JSON carries it as failed / attempted).
PRINTED_ONLY = {"commit_ticks_p50": "ticks", "commit_ticks_p95": "ticks",
                "failed_frac": "ratio"}
CHECK_NAMES = ("safety", "liveness", "wba_contract", "rb_contract",
               "round_advance", "subprotocol_delay", "spread",
               "engine_invariants")
PER_LAYER = {
    "simnet.self_s": "s", "simnet.events": "count", "simnet.deliveries": "count",
    "simnet.gossip_relays": "count", "simnet.gossip_useful_ratio": "ratio",
    "simnet.timer_fires": "count", "simnet.timer_stale": "count",
    "engine.handler_s": "s", "engine.handler_calls": "count",
    "engine.rounds": "count", "engine.late_over_early": "ratio",
    "subproto.view_calls": "count",
    "bracha.step_s": "s", "bracha.steps": "count",
    "gossip.step_s": "s", "gossip.steps": "count",
    "gossip.sign_calls": "count", "gossip.sign_s": "s",
    "trace.append_s": "s", "trace.appends": "count", "trace.encode_s": "s",
    "trace.decode_s": "s", "trace.bytes_per_event": "B/event",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "explore.rb_s": "s", "explore.wba_s": "s", "explore.states": "count",
    "scenario.parse_s": "s", "scenario.config_s": "s",
    "proto.msgs_per_commit": "msgs", "proto.round_ticks_p50": "ticks",
    "proto.skipped_rounds": "count", "proto.commit_ticks_p50": "ticks",
    "proto.commit_ticks_p95": "ticks", "proto.missing_values": "count",
    "bench.traced_wall_s": "s", "bench.self_sum_s": "s",
    "bench.trace_overhead_s": "s",
}
# span name -> per-layer self-time metric, and the call-count metric if any
SPAN_METRICS = {
    "simnet.run": ("simnet.self_s", None),
    "engine.handler": ("engine.handler_s", "engine.handler_calls"),
    "bracha.step": ("bracha.step_s", "bracha.steps"),
    "gossip.step": ("gossip.step_s", "gossip.steps"),
    "gossip.sign": ("gossip.sign_s", "gossip.sign_calls"),
    "trace.append": ("trace.append_s", "trace.appends"),
    "trace.encode": ("trace.encode_s", None),
    "trace.decode": ("trace.decode_s", None),
    "explore.rb": ("explore.rb_s", None),
    "explore.wba": ("explore.wba_s", None),
    "scenario.parse": ("scenario.parse_s", None),
    "scenario.config": ("scenario.config_s", None),
    **{f"checks.{name}": (f"checks.{name}_s", None) for name in CHECK_NAMES},
}


def percentile(values, q: float) -> float:
    """Nearest rank: the smallest value with at least q% of the values at
    or below it."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[max(0, math.ceil(len(xs) * q / 100) - 1)]


def read_commit(root: Path) -> str:
    """HEAD's commit id read from .git without running git; "unknown" in a
    checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "system": platform.system(), "machine": platform.machine(),
            "platform": platform.platform(), "commit": read_commit(ROOT)}


def machine_class(env: dict) -> tuple:
    """Results are only compared within one class."""
    return env["nproc"], env["python"], env["system"], env["machine"]


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Time import, parsing and config building in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(ROOT)!r}, {str(SRC)!r}]\n"
        "from bench.workloads import WORKLOADS\n"
        f"WORKLOADS[{workload!r}].setup({seed}, {tiny})\n"
        "print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Body:
    """The outcome of one repetition of a workload's body."""

    ops: list = field(default_factory=list)      # (name, total_s, error)
    counts: list = field(default_factory=list)   # TraceCounts per trace
    wall: float = 0.0        # sum of the operations' timed parts
    sim: float = 0.0
    check: float = 0.0
    events: int = 0          # trace events, or explored states
    deliveries: int = 0
    states: int = 0
    encoded_bytes: int = 0
    encoded_events: int = 0
    shape: list = field(default_factory=list)    # per op: (name, events)
    peak_rss_mb: float = 0.0     # process peak when the body ended


def run_body(wl, state, tracer, speed, fingerprint=None) -> Body:
    """Run one body; count, check and (when `fingerprint` is a hash) hash
    each operation's trace with the tracer paused, and sample the machine's
    speed between operations."""
    from bench.counts import count_trace

    body = Body()
    for op in wl.body(state):
        with tracer.off():
            body.wall += op.total_s
            body.sim += op.sim_s
            body.check += op.check_s
            body.states += op.states
            error = op.error
            events = op.states
            if op.trace is not None:
                events = len(op.trace.events)
                counts = count_trace(op.trace, op.cfg, op.correct_nodes)
                body.counts.append(counts)
                body.deliveries += counts.deliveries
                if wl.missing_fails and counts.missing and error is None:
                    error = f"{counts.missing} obliged values missing at correct nodes"
                text = op.text
                if fingerprint is not None and text is None:
                    text = op.trace.to_jsonl()
                if text is not None:
                    body.encoded_bytes += len(text.encode())
                    body.encoded_events += events
                    if fingerprint is not None:
                        fingerprint.update(text.encode())
            elif fingerprint is not None:
                fingerprint.update(json.dumps([op.name, op.states]).encode())
            body.events += events
            body.shape.append((op.name, events))
            body.ops.append((op.name, op.total_s, error))
            speed.sample()
    # Later bodies can peak higher only through allocator fragmentation, so
    # the end-to-end figure is the peak at the end of the first body.
    body.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return body


def repeat(wl, state, tracer, speed, seconds: float, tiny: bool,
           started: float, first: Body | None, fingerprint=None) -> list[Body]:
    """Bodies until `seconds` have passed since `started`; one more only if it
    should end within 1.2 * seconds.  Tiny mode runs exactly one."""
    bodies = []
    while True:
        b = run_body(wl, state, tracer, speed,
                     fingerprint if first is None else None)
        if first is None:
            first = b
        elif b.shape != first.shape:
            b.ops = [(name, t, err or "differs from the first repetition")
                     for name, t, err in b.ops]
        bodies.append(b)
        elapsed = perf_counter() - started
        if tiny or elapsed >= seconds or elapsed + b.wall > 1.2 * seconds:
            return bodies


def end_to_end(wl, bodies: list[Body], setup_s: float) -> dict:
    explore = wl.name == "explore_small"
    # Bodies repeat the same operations: percentiles are taken over each
    # operation's median time, so they do not depend on how many bodies ran.
    by_op: dict[str, list[float]] = {}
    for b in bodies:
        for name, t, _ in b.ops:
            by_op.setdefault(name, []).append(t * 1000)
    op_ms = [statistics.median(times) for times in by_op.values()]
    commit = [t for b in bodies for c in b.counts for t in c.commit_ticks]
    attempted = sum(len(b.ops) for b in bodies)
    failed = sum(1 for b in bodies for *_, err in b.ops if err)

    def rate(num, den):
        return statistics.median(num(b) / den(b) if den(b) else 0.0 for b in bodies)

    # explorer: an explored state stands for a simulated event and delivery
    work = (lambda b: b.wall) if explore else (lambda b: b.sim)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(b.wall for b in bodies),
        "seeds_per_s": rate(lambda b: len(b.ops), lambda b: b.wall),
        "seed_ms_p50": percentile(op_ms, 50),
        "seed_ms_p95": percentile(op_ms, 95),
        "events_per_s": rate(lambda b: b.events, work),
        "check_s": statistics.median(b.check for b in bodies),
        "states_per_s": rate(lambda b: b.states if explore else b.deliveries, work),
        "peak_rss_mb": bodies[0].peak_rss_mb,
        "commit_ticks_p50": percentile(commit, 50) if commit else None,
        "commit_ticks_p95": percentile(commit, 95) if commit else None,
        "failed_frac": failed / attempted if attempted else 1.0,
    }


def per_layer(tracer, bodies: list[Body], traced_wall: float,
              overhead: float) -> dict:
    n = len(bodies)
    out = dict.fromkeys(PER_LAYER, 0.0)
    for span, (time_key, calls_key) in SPAN_METRICS.items():
        out[time_key] = tracer.self_s.get(span, 0.0) / n
        if calls_key:
            out[calls_key] = tracer.calls.get(span, 0) / n
    out["subproto.view_calls"] = tracer.counts.get("subproto.view_calls", 0) / n
    counts = [c for b in bodies for c in b.counts]

    def total(attr):
        return sum(getattr(c, attr) for c in counts)

    for key, attr in (("simnet.events", "events"), ("simnet.deliveries", "deliveries"),
                      ("simnet.gossip_relays", "gossip_relays"),
                      ("simnet.timer_fires", "timer_fires"),
                      ("simnet.timer_stale", "timer_stale"),
                      ("engine.rounds", "rounds"),
                      ("proto.skipped_rounds", "skipped_rounds"),
                      ("proto.missing_values", "missing")):
        out[key] = total(attr) / n
    relays = total("gossip_relays")
    out["simnet.gossip_useful_ratio"] = total("gossip_first") / relays if relays else 0.0
    values = total("delivered_values")
    out["proto.msgs_per_commit"] = (sum(c.messages for c in counts) / values
                                    if values else 0.0)
    out["proto.round_ticks_p50"] = percentile(
        [t for c in counts for t in c.round_ticks], 50)
    commit = [t for c in counts for t in c.commit_ticks]
    out["proto.commit_ticks_p50"] = percentile(commit, 50)
    out["proto.commit_ticks_p95"] = percentile(commit, 95)
    out["engine.late_over_early"] = (statistics.median(tracer.late_over_early)
                                     if tracer.late_over_early else 0.0)
    out["explore.states"] = sum(b.states for b in bodies) / n
    out["bench.traced_wall_s"] = traced_wall / n
    out["bench.self_sum_s"] = sum(tracer.self_s.values()) / n
    out["bench.trace_overhead_s"] = overhead
    return out


def scale(raw: dict, units: dict, factor: float) -> dict:
    """Times times `factor`, rates over it; counts and ratios as measured."""
    out = {}
    for name, value in raw.items():
        unit = units[name]
        if value is not None and unit in ("s", "ms"):
            value *= factor
        elif value is not None and unit == "1/s":
            value /= factor
        out[name] = value
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """One benchmark run; returns its full record."""
    from bench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    # One CPU for the run and its helper processes: the VM's two CPUs slow
    # down independently, so the reference must run where the workload runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _measure(wl, seed, seconds, trace, tiny)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(wl, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from bench.spans import Tracer
    from bench.speed import SpeedProbe

    workload = wl.name
    with SpeedProbe() as speed:
        speed.sample(force=True)
        setup_s = statistics.median(setup_probe(workload, seed, tiny)
                                    for _ in range(1 if tiny else SETUP_PROBES))
        fingerprint = hashlib.sha256()
        if trace:
            bodies, raw = _traced(wl, seed, seconds, tiny, speed, fingerprint)
        else:
            bodies = repeat(wl, wl.setup(seed, tiny), Tracer(), speed, seconds,
                            tiny, perf_counter(), None, fingerprint)
            raw = end_to_end(wl, bodies, setup_s)
        speed.sample(force=True)
    notes = []
    if trace and raw["bench.self_sum_s"] > raw["bench.traced_wall_s"]:
        notes.append("per-layer self times exceed the traced wall time")
    errors = [(name, err) for b in bodies for name, _, err in b.ops if err]
    units = PER_LAYER if trace else END_TO_END
    metrics = scale(raw, {**units, **PRINTED_ONLY}, speed.factor)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny, "env": environment(),
        "fingerprint": fingerprint.hexdigest(),
        "body_walls": [b.wall for b in bodies],
        "correct": not errors and not notes,
        "attempted": sum(len(b.ops) for b in bodies), "failed": len(errors),
        "errors": errors[:10] + notes,
        "speed_factor": speed.factor,
        "all_metrics": metrics,
        "raw_metrics": raw,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _traced(wl, seed: int, seconds: float, tiny: bool, speed, fingerprint):
    """The traced run: one untraced body, which warms up and is the
    reference for the tracing overhead, then traced set-up and bodies.
    Returns every body, the untraced one first, and the per-layer metrics."""
    from bench.spans import Tracer

    started = perf_counter()
    reference = run_body(wl, wl.setup(seed, tiny), Tracer(), speed, fingerprint)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        state = wl.setup(seed, tiny)
        bodies = repeat(wl, state, tracer, speed, seconds, tiny, started, reference)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    overhead = statistics.median(b.wall for b in bodies) - reference.wall
    raw = per_layer(tracer, bodies, traced_wall, overhead)
    encoded = sum(b.encoded_events for b in [reference] + bodies)
    raw["trace.bytes_per_event"] = (
        sum(b.encoded_bytes for b in [reference] + bodies) / encoded
        if encoded else 0.0)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write(RESULTS / f"spans-{wl.name}.jsonl")
    return [reference] + bodies, raw


def print_record(rec: dict) -> None:
    env = rec["env"]
    print(f"env nproc={env['nproc']} python={env['python']} "
          f"platform={env['platform']} commit={env['commit']}")
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"bodies={len(rec['body_walls'])} attempted={rec['attempted']} "
          f"failed={rec['failed']}")
    print(f"fingerprint {rec['workload']} seed={rec['seed']} "
          f"sha256={rec['fingerprint']}")
    for err in rec["errors"]:
        print(f"FAILED {err}")
    units = dict(PER_LAYER) if rec["trace"] else {**END_TO_END, **PRINTED_ONLY}
    for name, unit in units.items():
        value = rec["all_metrics"][name]
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:28s} {shown}")
    if rec["trace"]:
        m = rec["all_metrics"]
        print(f"  self-time sum {m['bench.self_sum_s']:.4f} s of traced wall "
              f"{m['bench.traced_wall_s']:.4f} s per body; tracing overhead "
              f"{m['bench.trace_overhead_s']:.4f} s per body")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from bench.compare import main as compare_main
        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one minimal body per run, for tests")
    parser.add_argument("--out", default=str(RESULTS / "runs.jsonl"),
                        help="append the run's record to this JSONL file")
    args = parser.parse_args(argv)

    if not (SRC / "abcast" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"abcast sources not found under {ROOT}: run from a checkout "
              "holding src/abcast and scenarios/", file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.tiny)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write(json.dumps({k: v for k, v in rec.items() if k != "metrics"}) + "\n")
    print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(SRC)]
    sys.exit(main())
