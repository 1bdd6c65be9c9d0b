"""Trace determinism gate: pinned sha256 digests of whole traces.

A run is a pure function of its config and seed, and `replay` and `check`
rely on that.  This test pins the sha256 of `trace.to_jsonl()` for every
loadable bundled scenario on both backends, plus long injection streams
that exercise the engine options the scenario format cannot express, raw
mode, and the adversary paths no bundled scenario takes.  A
change that alters event order, delay draws or engine decisions shows up
as a differing seed.

Regenerate the pinned file only for a change that is meant to alter traces,
and say why in the change description:

    PYTHONPATH=src python tests/test_determinism.py > tests/trace_hashes.json
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from abcast.core import ConfigError, LeaderSchedule, Params
from abcast.engine import EngineOptions, no_duplicate_ancestor
from abcast.scenario import scenario_from_dict
from abcast.simnet import (CrashSpec, FlipVoterSpec, RunConfig, ScriptedSpec,
                           SilentLeaderSpec, run)

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("trace_hashes.json")
SCENARIO_SEEDS = range(20)
STREAM_SEEDS = range(3)


def _scenario_cases() -> dict:
    """Each loadable scenario on its own backend, and on the other backend
    with the backend-specific options dropped."""
    cases = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        own = doc.get("backend", "bracha")
        own_kind = own if isinstance(own, str) else own.get("kind", "bracha")
        for backend in ("bracha", "gossip"):
            variant = dict(doc)
            if own_kind != backend:
                variant["backend"] = {"kind": backend}
            try:
                sc = scenario_from_dict(variant)
            except ConfigError:
                continue
            cases[f"{path.stem}/{backend}"] = (sc.config_for, SCENARIO_SEEDS)
    return cases


def _stream(n: int, backend: str, horizon: int, **fields):
    """One value every 10 ticks, round-robin over the validators; `fields`
    override other RunConfig fields."""
    base = RunConfig(
        params=Params(n=n, f=(n - 1) // 3, delta=2, gst=0, sub_delay=6),
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


# A scripted gossip adversary: an RB initial and votes gossiped to subsets
# of the nodes, each also as a copy whose signature names another signer.
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
        "stream_n4_lifo/bracha": _stream(
            4, "bracha", 600, options=EngineOptions(queue_discipline="lifo")),
        "stream_n4_gates/bracha": _stream(
            4, "bracha", 600,
            options=EngineOptions(start_time=30, min_parent_delay=4)),
        "stream_n4_validity/bracha": _stream(
            4, "bracha", 600, options=EngineOptions(validity=no_duplicate_ancestor)),
        # observers, a mid-run crash and a spam window that holds messages
        "stream_n4_observers/bracha": _stream(
            4, "bracha", 400, extra_nodes=2, adversaries=(CrashSpec(2, 150),),
            options=EngineOptions(spam_window=3)),
        "stream_n4_crash/gossip": _stream(
            4, "gossip", 600, adversaries=(CrashSpec(1, 0),)),
        "stream_n10_crash/gossip": _stream(
            10, "gossip", 200, adversaries=(CrashSpec(9, 0),)),
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
        "stream_n4_forge/gossip": _stream(
            4, "gossip", 400, adversaries=(ScriptedSpec(3, _FORGE_SCRIPT),)),
    }


def all_cases() -> dict:
    cases = _scenario_cases()
    cases.update({name: (make, STREAM_SEEDS)
                  for name, make in _stream_cases().items()})
    return cases


def trace_digests(make, seeds) -> list[str]:
    return [hashlib.sha256(run(make(s)).to_jsonl().encode()).hexdigest()
            for s in seeds]


CASES = all_cases()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(json.loads(PINNED.read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_is_byte_identical(name):
    make, seeds = CASES[name]
    pinned = json.loads(PINNED.read_text())[name]
    got = trace_digests(make, seeds)
    diff = [s for s, a, b in zip(seeds, got, pinned) if a != b]
    assert not diff, f"{name}: traces changed for seeds {diff}"
    assert len(got) == len(pinned)


if __name__ == "__main__":
    print(json.dumps({name: trace_digests(make, seeds)
                      for name, (make, seeds) in sorted(CASES.items())},
                     indent=1, sort_keys=True))
