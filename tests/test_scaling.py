"""Work per trace event must not grow with the run, nor with the checks,
nor with the number of nodes, nor creep up on the message path, and a
finished run must not stay behind for the cyclic collector.

Timings would make this flaky, so it counts work instead.  The engine's
view calls (the InstanceTable methods the engine reads) per trace event: an
engine that rescans every earlier round on each event makes that ratio
grow with the horizon or with n.  The Python frames the package runs per
trace event of a fuzz run.  The gossip copies fan-outs address per message
delivered: a gossip flood that fans every message out again at each node
that receives it makes that ratio grow with n.  The queue entries per
delivery: an entry per copy of a forced fan-out makes it about one.  The
walks the checkers make over the event list: one index build per trace,
not one walk per view.  The bytes a saved trace takes per event; the bytes
a decoded trace keeps, about those of the recorded one; and the memory its
encode and its decode free again: a small part of the text, not a list of
its lines.  And the objects the cyclic collector finds once a run's trace
is dropped: none, so reference counting frees every run as soon as it ends.
"""

import gc
import os
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import abcast
from abcast import simnet
from abcast.checks import CheckContext, run_checks
from abcast.core import ConfigError, LeaderSchedule, Params
from abcast.engine import Engine
from abcast.scenario import load_scenario
from abcast.simnet import (CrashSpec, RunConfig, ScriptedSpec, Simulation,
                           _NodeRuntime, run)
from abcast.subproto import InstanceTable
from abcast.trace import Trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

VIEW_METHODS = ("rb_output", "wba_output", "accepts_input", "rb_rounds_with_output")


def _view_calls_per_event(monkeypatch, horizon: int, n: int = 4,
                          backend: str = "bracha") -> float:
    calls = [0]
    for name in VIEW_METHODS:
        method = getattr(InstanceTable, name)

        def counted(*args, _method=method, **kwargs):
            calls[0] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(InstanceTable, name, counted)
    cfg = RunConfig(
        params=Params(n=n, f=(n - 1) // 3, delta=2, gst=0, sub_delay=6),
        schedule=LeaderSchedule(n), backend=backend, seed=3, horizon=horizon,
        delay_law="uniform",
        injections=tuple((t, i % n, f"v{i}")
                         for i, t in enumerate(range(0, horizon, 10))))
    trace = run(cfg)
    monkeypatch.undo()
    assert any(True for _ in trace.iter_kind("ab_output")), "nothing delivered"
    return calls[0] / len(trace.events)


def test_view_calls_per_event_flat_in_horizon(monkeypatch):
    """A quarter of the horizon against all of it: at most 1.5x per event."""
    short = _view_calls_per_event(monkeypatch, 500)
    long = _view_calls_per_event(monkeypatch, 2000)
    assert short > 0
    assert long <= 1.5 * short, (short, long)


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_view_calls_per_event_flat_in_n(monkeypatch, backend):
    """Four nodes against sixteen, honest, horizon 300: at most 1.5x per
    event."""
    small = _view_calls_per_event(monkeypatch, 300, 4, backend)
    large = _view_calls_per_event(monkeypatch, 300, 16, backend)
    assert small > 0
    assert large <= 1.5 * small, (small, large)


PACKAGE = os.path.dirname(abcast.__file__) + os.sep

# Frames per event, 4-5% above what the message path runs: 9.49 on bracha
# and 10.86 on gossip.  Enum reads, keys formatted per event and calls
# that do nothing per delivery give 11.32 and 14.40, and fail; so does a
# queue entry and a handler call per copy of a forced gossip fan-out, 11.82.
FRAME_BOUNDS = {"bracha": 9.9, "gossip": 11.4}


@pytest.mark.parametrize("backend", sorted(FRAME_BOUNDS))
def test_frames_per_event_on_the_message_path(backend):
    """The calls into the package per trace event of byzantine_n4, seeds
    0..4, counted as `call` events under `sys.setprofile`.  A bound is a
    budget, not a measurement to track: a later change may raise one only
    with a stated reason."""
    sc = load_scenario(str(SCENARIOS / "byzantine_n4.json"))
    frames = events = 0

    def profile(frame, event, arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            frames += 1
    for seed in range(5):
        cfg = replace(sc.config_for(seed), backend=backend)
        sys.setprofile(profile)
        try:
            trace = run(cfg)
        finally:
            sys.setprofile(None)
        events += len(trace.events)
    assert frames / events <= FRAME_BOUNDS[backend], frames / events


class _CountedQueue(simnet._RunQueue):
    """A run queue that counts the entries its ticks hand to the run loop."""
    ran = 0

    def pop(self, tick):
        entries = super().pop(tick)
        self.ran += len(entries)
        return entries


def _queue_counts(monkeypatch, n: int, backend: str = "gossip",
                  delay_law: str = "uniform", adversaries=()) -> tuple:
    """An honest-injection stream of horizon 300 on `n` nodes: the copies
    its fan-outs address, queued or not (a copy the slot test drops still
    costs a fan-out its look); the entries put on its run queue, where one
    entry may carry a whole fan-out; and its `deliver` events."""
    copies = 0
    fan_out = Simulation._fan_out

    def addressed(sim, sender, msg, deliver, state, now, recipients=None):
        nonlocal copies
        copies += len(sim._others[sender] if recipients is None else recipients)
        fan_out(sim, sender, msg, deliver, state, now, recipients)
    monkeypatch.setattr(Simulation, "_fan_out", addressed)
    sim = Simulation(RunConfig(
        params=Params(n=n, f=(n - 1) // 3, delta=2, gst=0, sub_delay=6),
        schedule=LeaderSchedule(n), backend=backend, seed=3, horizon=300,
        delay_law=delay_law, adversaries=adversaries,
        injections=tuple((t, i % n, f"v{i}")
                         for i, t in enumerate(range(0, 300, 10)))))
    queue = sim.run_queue = _CountedQueue()
    trace = sim.run()
    monkeypatch.undo()
    entries = queue.ran + sum(map(len, queue.values()))     # ran + left over
    sim.close()
    assert len(trace.ab_outputs()[0]) >= 20, "too little delivered"
    return copies, entries, sum(1 for _ in trace.iter_kind("deliver"))


@pytest.mark.parametrize("n", [4, 16])
def test_gossip_delay_copies_per_delivery_flat_in_n(monkeypatch, n):
    """After GST a gossip message is fanned out to every node once, not
    once more at each node it reaches: about one copy per delivery."""
    copies, _, delivered = _queue_counts(monkeypatch, n)
    assert copies / delivered <= 1.5


def test_gossip_queue_pushes_per_delivery(monkeypatch):
    """A forced fan-out is one queue entry, not one per recipient: 0.18
    entries per delivery at n = 10 with a crashed validator, against 1.07
    with an entry per copy."""
    _, entries, delivered = _queue_counts(monkeypatch, 10, adversaries=(CrashSpec(9, 0),))
    assert entries / delivered <= 0.25, entries / delivered


def test_forced_direct_fan_out_is_one_queue_entry(monkeypatch):
    """Bracha's direct sends take the same path: under the fixed law every
    hop is forced, and a send to all is one queue entry, 0.14 entries per
    delivery at n = 10 against 1.03 with an entry per copy."""
    _, entries, delivered = _queue_counts(monkeypatch, 10, "bracha", "fixed")
    assert entries / delivered <= 0.25, entries / delivered


# The n=4 bracha stream and the n=10 gossip stream with validator 9 crashed.
BYTES_CASES = {"bracha_n4": (4, "bracha", ()),
               "gossip_n10_crash": (10, "gossip", (CrashSpec(9, 0),))}


@pytest.mark.parametrize("n, backend, adversaries", BYTES_CASES.values(),
                         ids=list(BYTES_CASES))
def test_trace_bytes_per_event(n, backend, adversaries):
    """The saved trace's size per event, horizon 600: about 80 bytes, where
    v1 text, with each `deliver` repeating its message, takes 112 (bracha)
    and 118 (gossip)."""
    trace = run(RunConfig(
        params=Params(n=n, f=(n - 1) // 3, delta=2, gst=0, sub_delay=6),
        schedule=LeaderSchedule(n), backend=backend, seed=3, horizon=600,
        delay_law="uniform", adversaries=adversaries,
        injections=tuple((t, i % n, f"v{i}") for i, t in enumerate(range(0, 600, 10)))))
    assert len(trace.ab_outputs()[0]) >= 40, "too little delivered"
    per_event = len(trace.to_jsonl().encode()) / len(trace.events)
    assert per_event <= 85, per_event


def _gossip_stream_n10() -> Trace:
    """The n=10 gossip stream with validator 9 crashed, horizon 200: 409 KB
    of text, 5,172 events."""
    return run(RunConfig(
        params=Params(n=10, f=3, delta=2, gst=0, sub_delay=6),
        schedule=LeaderSchedule(10), backend="gossip", seed=3, horizon=200,
        delay_law="uniform", adversaries=(CrashSpec(9, 0),),
        injections=tuple((t, i % 10, f"v{i}") for i, t in enumerate(range(0, 200, 10)))))


def _kept_bytes(events) -> int:
    """The bytes of each event and of its time, seq, kind, node and data,
    walked into dicts, lists and tuples, each object counted once."""
    seen, total = set(), 0
    stack = [x for ev in events for x in (ev, ev.time, ev.seq, ev.kind, ev.node, ev.data)]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if type(obj) is dict:
                stack += obj.keys()
                stack += obj.values()
            elif type(obj) in (list, tuple):
                stack += obj
    return total


def test_decoded_trace_keeps_about_what_the_recorded_one_does():
    """The decoded gossip stream keeps 1.10 times the recorded trace's
    bytes.  Each line's own `kind` str, `time` int and `msg` int, and a
    deliver's dict with the table of its whole six-key line, make 1.52."""
    recorded = _gossip_stream_n10()
    decoded = Trace.from_jsonl(recorded.to_jsonl())
    ratio = _kept_bytes(decoded.events) / _kept_bytes(recorded.events)
    assert ratio <= 1.2, ratio
    events = decoded.events
    kinds = {}
    assert all(kinds.setdefault(ev.kind, ev.kind) is ev.kind for ev in events)
    assert len(kinds) >= 10
    delivers = list(decoded.iter_kind("deliver"))
    assert len(delivers) > 3000
    assert all(ev.data["msg"] is events[ev.data["msg"]].seq for ev in delivers)
    assert all(b.time is a.time for a, b in zip(events, events[1:]) if b.time == a.time)
    assert all(type(ev.data) is dict and len(ev.data) == 2 and sys.getsizeof(ev.data)
               == sys.getsizeof({"msg": 0, "gossip": 1}) for ev in delivers)


# What decoding a trace allocates and frees again, over the text's length:
# 0.19 on the n=10 gossip stream at horizon 200 (409 KB of text, 5,172
# events, which keep 1,818 KB: each kind one str, a run of equal times one
# int, and a deliver's msg its send's seq).  A list of the text's lines
# reads 1.76 and fails; each line decoded alone also keeps its own copy of
# every key.
DECODE_TRANSIENT_BOUND = 0.5


def test_decode_frees_about_what_it_keeps():
    """`Trace.from_jsonl`'s peak less what it keeps, under tracemalloc."""
    text = _gossip_stream_n10().to_jsonl()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        trace = Trace.from_jsonl(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.events) > 4000
    assert peak - kept < DECODE_TRANSIENT_BOUND * len(text), (peak - kept) / len(text)


def test_encode_frees_about_what_it_keeps():
    """`to_jsonl`'s peak less the text, under tracemalloc, over the text's
    length: 0.32 on the n=10 gossip stream, where a list of every line
    reads 1.71."""
    trace = _gossip_stream_n10()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = trace.to_jsonl()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < DECODE_TRANSIENT_BOUND * len(text), (peak - kept) / len(text)


class _CountingList(list):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


STREAM_CHECKS = ("safety", "liveness", "wba_contract", "rb_contract",
                 "round_advance", "spread", "engine_invariants")


def test_stream_checks_walk_the_events_once():
    params = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
    injections = tuple((t, i % 4, f"v{i}") for i, t in enumerate(range(0, 400, 10)))
    trace = run(RunConfig(params=params, schedule=LeaderSchedule(4), seed=3,
                          horizon=400, delay_law="uniform", injections=injections))
    trace.events = _CountingList(trace.events)
    ctx = CheckContext(params=params, horizon=400, correct_nodes=(0, 1, 2, 3),
                       injections=injections)
    reports = run_checks(trace, ctx, STREAM_CHECKS)
    assert [r.status for r in reports] == ["pass"] * len(STREAM_CHECKS)
    assert trace.events.walks == 1


def _stream_cfg(**fields) -> RunConfig:
    params = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
    injections = tuple((t, i % 4, f"v{i}") for i, t in enumerate(range(0, 200, 10)))
    return replace(RunConfig(params=params, schedule=LeaderSchedule(4), seed=3,
                             horizon=200, delay_law="uniform",
                             injections=injections), **fields)


class _Refused(Exception):
    pass


def _run_that_raises() -> None:
    """An engine handler fails part way through the run."""
    handler = Engine.on_subproto_output

    def failing(engine):
        if engine.current >= 3:
            raise _Refused
        return handler(engine)
    Engine.on_subproto_output = failing
    try:
        run(_stream_cfg())
    except _Refused:
        return
    finally:
        Engine.on_subproto_output = handler
    raise AssertionError("the engine never reached round 3")


def _run_that_raises_with_work_queued() -> None:
    """A node fails on a message while more of its own work is queued."""
    recv = _NodeRuntime._recv

    def failing(rt, now, msg):
        if rt.work:
            raise _Refused
        recv(rt, now, msg)
    _NodeRuntime._recv = failing
    try:
        run(_stream_cfg())
    except _Refused:
        return
    finally:
        _NodeRuntime._recv = recv
    raise AssertionError("no message arrived with work queued")


def _round_trip_and_check() -> None:
    cfg = _stream_cfg()
    text = run(cfg).to_jsonl()
    ctx = CheckContext(params=cfg.params, horizon=cfg.horizon,
                       correct_nodes=(0, 1, 2, 3), injections=cfg.injections)
    reports = run_checks(Trace.from_jsonl(text), ctx, STREAM_CHECKS)
    assert [r.status for r in reports] == ["pass"] * len(STREAM_CHECKS)


_SCRIPT = tuple({"time": t, "op": "gossip", "to": to, "instance": inst,
                 "mkind": mkind, "payload": payload, "forge_signer": 1}
                for t, to, inst, mkind, payload in (
                    (5, [1], "wba/2", "vote", 1),
                    (9, [0, 2], "rb/7", "initial", {"value": "x", "parent": None}),
                    (30, "all", "wba/3", "vote", 0)))


def _dropped_runs() -> dict:
    """Each case runs once and keeps nothing."""
    cases = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        try:
            sc = load_scenario(str(path))
        except ConfigError:
            continue                 # a scenario that exists to be refused
        for backend in ("bracha", "gossip"):
            cfg = replace(sc.config_for(), backend=backend,
                          digest_mode=backend == "gossip" and sc.config.digest_mode)
            cases[f"{path.stem}/{backend}"] = lambda cfg=cfg: run(cfg)
    raw = tuple((3 * r + i, i, f"wba/{r}", 1) for r in range(5) for i in range(4))
    raw += tuple((3 * r, r % 4, f"rb/{r}", f"r{r}") for r in range(5))
    for backend in ("bracha", "gossip"):
        for name, cfg in (
                ("raw", _stream_cfg(mode="raw", injections=(), raw_inputs=raw)),
                ("forge_signer", _stream_cfg(adversaries=(ScriptedSpec(3, _SCRIPT),))),
                ("crash", _stream_cfg(adversaries=(CrashSpec(2, 40),)))):
            cfg = replace(cfg, backend=backend)
            cases[f"{name}/{backend}"] = lambda cfg=cfg: run(cfg)
    byzantine = load_scenario(str(SCENARIOS / "byzantine_n4.json"))
    cases["raises"] = _run_that_raises
    cases["raises_with_work_queued"] = _run_that_raises_with_work_queued
    cases["execute"] = lambda: byzantine.execute(7)
    cases["round_trip_checks"] = _round_trip_and_check
    return cases


DROPPED_RUNS = _dropped_runs()


@pytest.mark.parametrize("case", DROPPED_RUNS.values(), ids=list(DROPPED_RUNS))
def test_a_finished_run_leaves_no_cyclic_garbage(case):
    """With the collector off, a run whose results are dropped leaves
    nothing that only the collector could free."""
    gc.collect()
    gc.disable()
    try:
        case()
        assert gc.collect() == 0
    finally:
        gc.enable()
