"""Release gate: one test per stated acceptance criterion.

`pytest -v tests/test_acceptance.py` prints one PASSED/FAILED line per
criterion.  Each test also prints a short summary (visible with -rA or on
failure).  The heavy seed sweeps are computed once and shared between the
criteria that consume them.
"""

import functools
import itertools
import json
import time
from pathlib import Path

from abcast.checks import (
    CheckContext,
    check_engine_invariants,
    check_liveness,
    check_rb_contract,
    check_round_advance,
    check_safety,
    check_spread,
    check_subprotocol_delay,
    check_wba_contract,
)
from abcast.core import LeaderSchedule, Params, quorum_min_size
from abcast.explore import explore_rb, explore_wba
from abcast.scenario import load_scenario, scenario_from_dict
from abcast.simnet import RunConfig, run
from abcast.trace import Trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@functools.lru_cache(maxsize=None)
def byzantine_sweep(backend):
    """500 seeded runs of the composite-adversary scenario on one backend.

    The scenario draws gst per seed from [0, 100] = [0, 50*delta] and pits
    an equivocating proposer plus an equivocating flip voter (same node)
    against three correct nodes.  Returns pass counts per check name.
    """
    doc = json.loads((SCENARIOS / "byzantine_n4.json").read_text())
    doc["backend"] = {"kind": backend}
    sc = scenario_from_dict(doc)
    passes = {}
    for seed in range(500):
        _, reports, _ = sc.execute(seed)
        for rep in reports:
            passes.setdefault(rep.name, 0)
            if rep.status == "pass":
                passes[rep.name] += 1
    return passes


@functools.lru_cache(maxsize=None)
def crashed_sweep():
    """100 seeded runs with one crashed proposer and three pre-gst inputs."""
    sc = load_scenario(str(SCENARIOS / "crashed_proposer_n4.json"))
    passes = {}
    for seed in range(100):
        _, reports, _ = sc.execute(seed)
        for rep in reports:
            passes.setdefault(rep.name, 0)
            if rep.status == "pass":
                passes[rep.name] += 1
    return passes


def test_criterion_1_quorum_overlap_exhaustive():
    t0 = time.monotonic()
    pairs = 0
    for n in range(1, 8):
        for f in range(n):
            if n <= 3 * f:
                continue
            q = quorum_min_size(n, f)
            quorums = [set(c)
                       for size in range(q, n + 1)
                       for c in itertools.combinations(range(n), size)]
            for a in quorums:
                for b in quorums:
                    pairs += 1
                    assert len(a & b) > f, (n, f, sorted(a), sorted(b))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: {pairs} quorum pairs across n<=7 all share "
          f"more than f nodes ({elapsed:.3f}s)")


def test_criterion_2_safety_under_composite_adversary():
    for backend in ("bracha", "gossip"):
        passes = byzantine_sweep(backend)
        assert passes["safety"] == 500, (backend, passes)
    print("criterion 2 PASS: safety 500/500 seeds on both backends against "
          "equivocating proposer + flip voter, gst drawn from [0, 50*delta]")


def test_criterion_3_round_advance_after_gst():
    for gst, pre, seed in ((10, 5, 0), (37, 3, 1)):
        params = Params(n=4, f=1, delta=2, gst=gst, sub_delay=6)
        cfg = RunConfig(params=params, schedule=LeaderSchedule(4),
                        horizon=gst + 380, pre_gst_max_delay=pre,
                        delay_law="fixed", seed=seed,
                        injections=tuple((0, node, f"v{node}")
                                         for node in range(4)))
        trace = run(cfg)
        for r in range(1, 21):
            deadline = gst + 3 * r * params.sub_delay
            for node in range(4):
                assert trace.current_round_at(node, deadline) >= r, \
                    (gst, node, r, deadline)
        ctx = CheckContext(params=params, horizon=cfg.horizon,
                           correct_nodes=(0, 1, 2, 3))
        # the horizon gst + 380 admits every r <= 21 (3 * 21 * 6 = 378)
        rep = check_round_advance(trace, ctx)
        assert rep.status == "pass", rep.line()
        assert rep.measured["rounds_checked"] == 21
    print("criterion 3 PASS: every node is at round >= r by gst + 3*r*Delta "
          "for all r <= 20, exact ticks, two all-correct runs")


def test_criterion_4_subprotocol_delay_exact():
    gst = 4
    params = Params(n=4, f=1, delta=2, gst=gst, sub_delay=6)
    raw = tuple([(gst, 0, "rb/0", "payload")]
                + [(gst, node, "wba/0", 1) for node in range(4)])
    want = {"bracha": {"rb/0": 3 * params.delta, "wba/0": 2 * params.delta},
            "gossip": {"rb/0": 2, "wba/0": 1}}
    for backend, offsets in want.items():
        cfg = RunConfig(params=params, schedule=LeaderSchedule(4),
                        backend=backend, horizon=gst + 40, delay_law="fixed",
                        mode="raw", raw_inputs=raw)
        trace = run(cfg)
        subs = trace.sub_outputs()
        for node in range(4):
            for inst, off in offsets.items():
                assert subs[(node, inst)].time == gst + off, \
                    (backend, node, inst, subs[(node, inst)].time)
        ctx = CheckContext(params=params, horizon=cfg.horizon,
                           correct_nodes=(0, 1, 2, 3), backend=backend)
        rep = check_subprotocol_delay(trace, ctx)
        assert rep.status == "pass", rep.line()
        assert rep.measured == offsets
    print("criterion 4 PASS: post-gst fixed-law outputs land exactly "
          "3*delta/2*delta after input on bracha and 2g/g on gossip")


def test_criterion_5_crashed_proposer_liveness():
    passes = crashed_sweep()
    assert passes["liveness"] == 100, passes
    assert passes["safety"] == 100, passes
    print("criterion 5 PASS: every value injected at a correct node before "
          "gst reached all correct outputs within the sized horizon, "
          "100/100 seeds, one crashed proposer")


def test_criterion_6_wba_validity_and_exhaustive_search():
    for backend in ("bracha", "gossip"):
        assert byzantine_sweep(backend)["wba_contract"] == 500, backend
    assert crashed_sweep()["wba_contract"] == 100

    params = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
    states = {(1, 1, 1): 7_856_128, (0, 1, 1): 3_231_232}
    for inputs, count in states.items():
        res = explore_wba(inputs, params)
        assert res.ok, (inputs, res.violation)
        assert res.states == count, (inputs, res.states)
    rb = explore_rb(params)
    assert rb.ok, rb.violation
    assert rb.states == 159_264, rb.states
    print("criterion 6 PASS: each wba output backed by >= quorum-f correct "
          "inputs across all 1100 sweep runs; exhaustive 12-message search "
          "over input classes (1,1,1) and (0,1,1) (the rest follow by "
          "bit-flip and validator relabeling) found no agreement or "
          "validity violation")


def test_criterion_7_skippable_round_accepted_later():
    sc = load_scenario(str(SCENARIOS / "skippable_accepted.json"))
    trace, reports, _ = sc.execute()
    assert all(r.ok for r in reports), [r.line() for r in reports]
    subs = trace.sub_outputs()
    for node in (0, 1, 2):
        assert subs[(node, "wba/3")].data["value"] == 0
        assert subs[(node, "rb/3")].data["value"]["value"] == "orphan"
    outs = trace.ab_outputs()
    assert set(outs) == {0, 1, 2}
    for node, events in outs.items():
        got = [(e.data["position"], e.data["value"], e.data["round"])
               for e in events]
        assert got == [(0, "orphan", 3), (1, "anchor", 8)], (node, got)

    # Without the later proposal nothing adopts the orphan round and it is
    # never finalized, even though its broadcast completed and wba said 0.
    doc = json.loads((SCENARIOS / "skippable_accepted.json").read_text())
    doc["injections"] = []
    ctrl, ctrl_reports, _ = scenario_from_dict(doc).execute()
    assert all(r.ok for r in ctrl_reports), [r.line() for r in ctrl_reports]
    csubs = ctrl.sub_outputs()
    for node in (0, 1, 2):
        assert csubs[(node, "wba/3")].data["value"] == 0
        assert (node, "rb/3") in csubs
    assert not ctrl.ab_outputs()
    print("criterion 7 PASS: round with completed broadcast but wba 0 is "
          "delivered only once a later proposal adopts it as parent; with "
          "no adopter nothing is finalized and safety holds")


def digest_doc(seed, digest):
    return {
        "version": 1,
        "params": {"n": 4, "f": 1, "delta": 2, "gst": 0, "Delta": 6},
        "backend": {"kind": "gossip", "digest_mode": digest},
        "injections": [{"time": 0, "node": node, "value": f"s{seed}-{node}"}
                       for node in range(3)],
        "sim": {"seed": seed, "horizon": 200, "pre_gst_max_delay": 5,
                "delay_law": "uniform", "gossip_relay_latency": 3},
        "checks": ["safety"],
    }


def test_criterion_8_digest_mode_equivalence():
    for seed in range(100):
        per_mode = []
        for digest in (False, True):
            trace, reports, _ = scenario_from_dict(
                digest_doc(seed, digest)).execute()
            assert all(r.ok for r in reports), (seed, digest)
            per_mode.append({node: [e.data["value"] for e in events]
                             for node, events in trace.ab_outputs().items()})
        assert per_mode[0] == per_mode[1], (seed, per_mode)
        assert per_mode[0] and all(per_mode[0].values()), seed
    print("criterion 8 PASS: 100 seeds, digest relay on/off deliver "
          "identical values in identical order at every node")


def test_criterion_9_checkers_catch_crafted_violations():
    params = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
    base = dict(params=params, horizon=1000, correct_nodes=(0, 1, 2))

    def trace_of(rows):
        t = Trace()
        for at, kind, node, data in rows:
            t.append(at, kind, node, {**data})
        return t

    cases = {
        "safety": (check_safety, trace_of([
            (10, "ab_output", 0, dict(value="a", round=0, position=0)),
            (10, "ab_output", 1, dict(value="z", round=0, position=0)),
        ]), base),
        # node 2 never delivers the pre-gst injection; horizon is exactly
        # the obligation deadline so the miss is conclusive
        "liveness": (check_liveness, trace_of([
            (10, "ab_output", 0, dict(value="v", round=0, position=0)),
            (10, "ab_output", 1, dict(value="v", round=0, position=0)),
        ]), dict(base, horizon=156, injections=((0, 0, "v"),))),
        "wba_contract": (check_wba_contract, trace_of([
            (5, "sub_input", 0, dict(instance="wba/0", value=1)),
            (5, "sub_input", 1, dict(instance="wba/0", value=1)),
            (5, "sub_input", 2, dict(instance="wba/0", value=0)),
            (10, "sub_output", 0, dict(instance="wba/0", value=1)),
            (10, "sub_output", 1, dict(instance="wba/0", value=0)),
        ]), base),
        "rb_contract": (check_rb_contract, trace_of([
            (10, "sub_output", 0, dict(instance="rb/0", value="x")),
            (10, "sub_output", 1, dict(instance="rb/0", value="y")),
        ]), base),
        "round_advance": (check_round_advance, trace_of([
            (10, "advance", 0, dict(round=1)),
            (10, "advance", 1, dict(round=1)),
        ]), dict(base, horizon=40)),
        # output one tick earlier than the exact fixed-law landing time
        "subprotocol_delay": (check_subprotocol_delay, trace_of([
            (10, "sub_input", 0, dict(instance="rb/0", value="x")),
            (15, "sub_output", 0, dict(instance="rb/0", value="x")),
            (16, "sub_output", 1, dict(instance="rb/0", value="x")),
            (16, "sub_output", 2, dict(instance="rb/0", value="x")),
        ]), base),
        "spread": (check_spread, trace_of([
            (5, "sub_output", 0, dict(instance="rb/0", value="x")),
            (6, "sub_output", 1, dict(instance="rb/0", value="x")),
        ]), base),
        "engine_invariants": (check_engine_invariants, trace_of([
            (5, "sub_output", 0, dict(instance="rb/0", value="x")),
            (6, "sub_output", 0, dict(instance="rb/0", value="y")),
        ]), base),
    }

    for name, (fn, trace, ctx_kw) in cases.items():
        rep = fn(trace, CheckContext(**ctx_kw))
        assert rep.status == "fail", (name, rep.line())
    print(f"criterion 9 PASS: all {len(cases)} checkers flag their crafted "
          "violating traces")
