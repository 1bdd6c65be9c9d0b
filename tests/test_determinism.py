"""Trace determinism gate: pinned sha256 digests of whole traces.

A run is a pure function of its config and seed, and `replay` and `check`
rely on that.  This test pins, for every loadable bundled scenario on both
backends, plus long injection streams, raw mode, and the adversary paths
no bundled scenario takes, the sha256 digest of each trace's
`trace.to_jsonl()` text, format v2, in trace_hashes_v2.json.  A change that
alters event order, delay draws, engine decisions or the encoding shows up
as a differing seed.

Regenerate the pinned file only for a change that is meant to alter
traces, and say why in the change description.  With no names the script
prints every entry; with names it recomputes only those cases, copies
every other entry from the pinned file as it stands, and prints to stderr
the seeds at which each named case changed.  The shell empties a file it
redirects into before the script reads it, so write elsewhere first:

    PYTHONPATH=src python tests/test_determinism.py [NAME...] > new.json
    mv new.json tests/trace_hashes_v2.json
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from abcast.core import ConfigError, LeaderSchedule, Params
from abcast.scenario import scenario_from_dict
from abcast.simnet import (CrashSpec, FlipVoterSpec, RunConfig, ScriptedSpec,
                           SilentLeaderSpec, run)
from abcast.trace import Trace, TraceEvent

ROOT = Path(__file__).resolve().parent.parent
# the digests of each case's to_jsonl() text
PINNED = Path(__file__).with_name("trace_hashes_v2.json")
SCENARIO_SEEDS = range(20)
STREAM_SEEDS = range(3)


def bundled_scenarios() -> dict:
    """Each loadable scenario on its own backend, and on the other backend
    with the backend-specific options dropped, by "<stem>/<backend>"."""
    found = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        own = doc.get("backend", "bracha")
        own_kind = own if isinstance(own, str) else own.get("kind", "bracha")
        for backend in ("bracha", "gossip"):
            variant = dict(doc)
            if own_kind != backend:
                variant["backend"] = {"kind": backend}
            try:
                found[f"{path.stem}/{backend}"] = scenario_from_dict(variant)
            except ConfigError:
                continue
    return found


def _scenario_cases() -> dict:
    return {name: (sc.config_for, SCENARIO_SEEDS) for name, sc in bundled_scenarios().items()}


def _stream(n: int, backend: str, horizon: int, delta: int = 2, gst: int = 0,
            **fields):
    """One value every 10 ticks, round-robin over the validators; `fields`
    override other RunConfig fields."""
    base = RunConfig(
        params=Params(n=n, f=(n - 1) // 3, delta=delta, gst=gst, sub_delay=6),
        schedule=LeaderSchedule(n), backend=backend, horizon=horizon,
        delay_law="uniform",
        injections=tuple((t, i % n, f"v{i}")
                         for i, t in enumerate(range(0, horizon, 10))))
    base = replace(base, **fields)
    return lambda seed: replace(base, seed=seed)


def _raw(backend: str):
    """Bare instances, no engine: RB and WBA inputs over ten rounds, and a
    validator that crashes at t=12, with inputs still to come."""
    raw = []
    for r in range(10):
        raw.append((3 * r, r % 4, f"rb/{r}", f"r{r}"))
        raw += [(3 * r + i, i, f"wba/{r}", (r + i) % 2) for i in range(4)]
    return _stream(4, backend, 120, mode="raw", injections=(),
                   raw_inputs=tuple(raw), adversaries=(CrashSpec(2, 12),))


# A scripted adversary: an RB initial and votes sent to subsets of the
# nodes and to all.  On gossip each is also sent as a copy whose signature
# names another signer; on bracha that copy is a plain second send.
_FORGE_SCRIPT = tuple(
    {"time": t, "op": "gossip", "to": to, "instance": inst, "mkind": mkind,
     "payload": payload, **extra}
    for t, to, inst, mkind, payload in (
        (5, [1], "wba/2", "vote", 1),
        (9, [0, 2], "rb/7", "initial", {"value": "x", "parent": None}),
        (30, "all", "wba/3", "vote", 0),
        (44, [2], "wba/6", "vote", 0))
    for extra in ({}, {"forge_signer": 1}))


def _stream_cases() -> dict:
    return {
        "stream_n4/bracha": _stream(4, "bracha", 1200),
        # observers, a mid-run crash and a spam window that holds messages
        "stream_n4_observers/bracha": _stream(
            4, "bracha", 400, extra_nodes=2, adversaries=(CrashSpec(2, 150),),
            spam_window=3),
        "stream_n4_crash/gossip": _stream(
            4, "gossip", 600, adversaries=(CrashSpec(1, 0),)),
        "stream_n10_crash/gossip": _stream(
            10, "gossip", 200, adversaries=(CrashSpec(9, 0),)),
        # fan-outs that reach a driver and a node crashed mid-run, and
        # leave out the nodes that already hold the message
        "stream_n7_flip_crash/gossip": _stream(
            7, "gossip", 300,
            adversaries=(FlipVoterSpec(5, {1: 1, 2: 1}), CrashSpec(6, 120))),
        # the same on bracha, where delta 1 forces every hop from GST on, so
        # one direct fan-out entry reaches the driver and the crashed node
        "stream_n7_flip_crash/bracha": _stream(
            7, "bracha", 300, delta=1, gst=60,
            adversaries=(FlipVoterSpec(5, {1: 1, 2: 1}), CrashSpec(6, 120))),
        "raw_n4/bracha": _raw("bracha"),
        "raw_n4/gossip": _raw("gossip"),
        "stream_n4_silent/bracha": _stream(
            4, "bracha", 400, adversaries=(SilentLeaderSpec(3),)),
        "stream_n4_silent/gossip": _stream(
            4, "gossip", 400, adversaries=(SilentLeaderSpec(3),)),
        "stream_n4_flip/bracha": _stream(
            4, "bracha", 400, adversaries=(FlipVoterSpec(3, {1: 1, 2: 1}),)),
        "stream_n4_flip/gossip": _stream(
            4, "gossip", 400, adversaries=(FlipVoterSpec(3, {1: 1, 2: 1}),)),
        "stream_n4_forge/bracha": _stream(
            4, "bracha", 400, adversaries=(ScriptedSpec(3, _FORGE_SCRIPT),)),
        "stream_n4_forge/gossip": _stream(
            4, "gossip", 400, adversaries=(ScriptedSpec(3, _FORGE_SCRIPT),)),
        # Where a hop's arrival is known before any draw, and where it is
        # not: every hop (a pre-GST bound of 1), only post-GST hops (a relay
        # latency of 1, or delta 1 on bracha), and no hop (relay latency 2).
        "stream_n4_pre1/bracha": _stream(
            4, "bracha", 400, gst=60, pre_gst_max_delay=1),
        "stream_n4_pre1/gossip": _stream(
            4, "gossip", 400, gst=60, pre_gst_max_delay=1),
        "stream_n4_gst60/gossip": _stream(4, "gossip", 400, gst=60),
        "stream_n4_relay2/gossip": _stream(
            4, "gossip", 400, gossip_relay_latency=2),
        "stream_n4_delta1/bracha": _stream(4, "bracha", 400, delta=1, gst=60),
    }


def all_cases() -> dict:
    cases = _scenario_cases()
    cases.update({name: (make, STREAM_SEEDS)
                  for name, make in _stream_cases().items()})
    return cases


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digests(make, seeds) -> list[str]:
    """Per seed, the digest of the trace's text."""
    return [_sha(run(make(s)).to_jsonl()) for s in seeds]


def changed_seeds(seeds, got, pinned) -> list:
    return [s for s, a, b in zip(seeds, got, pinned) if a != b]


CASES = all_cases()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(json.loads(PINNED.read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_is_byte_identical(name):
    make, seeds = CASES[name]
    got = trace_digests(make, seeds)
    pinned = json.loads(PINNED.read_text())[name]
    diff = changed_seeds(seeds, got, pinned)
    assert not diff, f"{name}: traces changed for seeds {diff}"
    assert len(got) == len(pinned)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoded_trace_equals_recorded(name):
    """At the case's first seed, `from_jsonl` gives back the recorded
    events and `to_jsonl` gives back the text.  Each decoded event holds a
    data dict of its own, so changing one deliver's data changes no other
    event."""
    make, seeds = CASES[name]
    recorded = run(make(seeds[0]))
    text = recorded.to_jsonl()
    decoded = Trace.from_jsonl(text)
    assert ([(ev.time, ev.seq, ev.kind, ev.node, ev.data) for ev in decoded.events]
            == [(ev.time, ev.seq, ev.kind, ev.node, ev.data) for ev in recorded.events])
    assert decoded.to_jsonl() == text
    deliver = next(decoded.iter_kind("deliver"), None)
    if deliver is not None:
        before = [copy.deepcopy(ev.data) for ev in decoded.events]
        deliver.data["msg"] = -1
        deliver.data["extra"] = 1
        assert all(ev.data == data for ev, data in zip(decoded.events, before)
                   if ev is not deliver)


def test_simulated_events_never_take_the_slow_path(monkeypatch):
    """Each case's trace at its first seed is written by its line writers
    alone, with no event sent to the generic `TraceEvent.to_json`: a new
    event field of a type they do not take would move its kind there."""
    slow = Counter()
    to_json = TraceEvent.to_json
    monkeypatch.setattr(TraceEvent, "to_json",
                        lambda ev: slow.update([ev.kind]) or to_json(ev))
    events = 0
    for make, seeds in CASES.values():
        trace = run(make(seeds[0]))
        trace.to_jsonl()
        events += len(trace.events)
    assert events > 50_000 and not slow, slow


def regenerate(names) -> dict:
    """Every case's digests when `names` is empty; else the named cases'
    digests, with every other entry copied from the pinned file, and on
    stderr each named case's seeds whose digest changed."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"no such case: {', '.join(unknown)}")
    pinned = json.loads(PINNED.read_text()) if names else {}
    out = {name: digests for name, digests in pinned.items()
           if name in CASES and name not in names}
    out.update({name: trace_digests(*CASES[name]) for name in names or CASES})
    for name in names:
        seeds = CASES[name][1]
        change = ("new case" if name not in pinned else
                  f"changed at seeds {changed_seeds(seeds, out[name], pinned[name])}")
        print(f"{name}: {change}", file=sys.stderr)
    return out


if __name__ == "__main__":
    print(json.dumps(regenerate(sys.argv[1:]), indent=1, sort_keys=True))
