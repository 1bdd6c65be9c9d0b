import copy
import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcast.checks import CheckContext, run_checks
from abcast.core import ConfigError, LeaderSchedule, Params
from abcast.gossip import make_signed
from abcast.simnet import (
    _HAS,
    MAX_NODES,
    CrashSpec,
    EquivocatingProposerSpec,
    FlipVoterSpec,
    PartitionValue,
    RunConfig,
    ScriptedSpec,
    SilentLeaderSpec,
    Simulation,
)
from abcast.subproto import InstanceKey, InstanceTable, Kind
from abcast.trace import Trace


def make_cfg(**kw):
    params = kw.pop("params", None) or Params(
        n=4, f=1, delta=2, gst=kw.pop("gst", 0), sub_delay=6)
    base = dict(params=params, schedule=LeaderSchedule(params.n),
                horizon=150, injections=((0, 0, "v0"), (0, 1, "v1")))
    base.update(kw)
    return RunConfig(**base)


def run(cfg):
    return Simulation(cfg).run()


def sends_by(trace, node):
    return [ev for ev in trace.events
            if ev.kind in ("send", "gossip") and ev.node == node]


def test_same_seed_same_trace():
    cfg = make_cfg(delay_law="uniform", seed=42)
    assert run(cfg).to_jsonl() == run(cfg).to_jsonl()


def test_seed_changes_uniform_schedule():
    a = run(make_cfg(delay_law="uniform", seed=1))
    b = run(make_cfg(delay_law="uniform", seed=2))
    assert a.to_jsonl() != b.to_jsonl()


def test_fixed_delivery_law():
    params = Params(n=4, f=1, delta=2, gst=10, sub_delay=6)
    sim = Simulation(make_cfg(params=params, pre_gst_max_delay=5))
    assert sim._forced_time(0, 2) == 5
    assert sim._forced_time(9, 2) == 12
    assert sim._forced_time(50, 2) == 52
    tight = Simulation(make_cfg(params=params, pre_gst_max_delay=1))
    assert tight._forced_time(0, 2) == 1


def test_uniform_delivery_law_bounds_and_replay():
    params = Params(n=4, f=1, delta=2, gst=10, sub_delay=6)
    cfg = make_cfg(params=params, delay_law="uniform", seed=9)
    a = Simulation(cfg)
    b = Simulation(cfg)
    pre = a._delivery_times(0, 2, 100)
    # one batch of copies draws what as many single copies draw
    assert pre == [b._delivery_times(0, 2, 1)[0] for _ in range(100)]
    assert all(1 <= d <= 5 for d in pre)
    post = a._delivery_times(20, 2, 100)
    assert all(21 <= d <= 22 for d in post)
    assert [b._delivery_times(20, 2, 1)[0] for _ in range(100)] == post


def _assert_draws_match_randint(seed, gst, plan):
    """Each (pre, post, now, copies) step must give the arrival times that
    `randint(1, pre)` and `randint(1, post)` per copy give, and leave the
    RNG where they leave it.  A forced step, one whose arrival is now + 1
    whatever is drawn (a pre-GST bound of 1, or a post-GST bound of 1 from
    GST on), must give that from `_forced_time` and draw nothing; any other
    step's `_forced_time` is None.  A simulation fixes its pre-GST bound
    when it is built, so each step runs on a new one that takes over the
    RNG state the step before left."""
    ref = random.Random(seed)
    state = ref.getstate()
    for pre, post, now, copies in plan:
        sim = Simulation(make_cfg(delay_law="uniform", seed=seed, gst=gst,
                                  pre_gst_max_delay=pre))
        sim.rng.setstate(state)
        if pre == 1 or (post == 1 and now >= gst):
            assert sim._forced_time(now, post) == now + 1
        else:
            assert sim._forced_time(now, post) is None
            want = [min(now + ref.randint(1, pre),
                        max(now, gst) + ref.randint(1, post))
                    for _ in range(copies)]
            assert sim._delivery_times(now, post, copies) == want
        state = sim.rng.getstate()
        assert state == ref.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("gst", [0, 10**6])
def test_delay_draws_are_the_randint_stream_for_every_bound(seed, gst):
    # With gst far off every time is now + the pre-GST draw itself.
    plan = [(b, 71 - b, b % 13, 3) for b in range(1, 71)]
    plan += [(71 - b, b, 50 + b, 2) for b in range(1, 71)]
    _assert_draws_match_randint(seed, gst, plan)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**64), gst=st.sampled_from((0, 9, 10**6)),
       plan=st.lists(st.tuples(st.integers(1, 70), st.integers(1, 70),
                               st.integers(0, 20), st.integers(0, 10)),
                     min_size=1, max_size=25))
def test_interleaved_delay_draws_are_the_randint_stream(seed, gst, plan):
    _assert_draws_match_randint(seed, gst, plan)


@pytest.mark.parametrize("fields", [
    dict(backend="gossip"),                       # relay latency 1 from GST = 0
    dict(backend="bracha", pre_gst_max_delay=1, gst=20),
    dict(backend="bracha", params=Params(n=4, f=1, delta=1, gst=0, sub_delay=6)),
], ids=["gossip", "bracha_pre1", "bracha_delta1"])
def test_a_run_of_forced_hops_draws_nothing(fields):
    cfg = make_cfg(delay_law="uniform", seed=11, **fields)
    sim = Simulation(cfg)
    trace = sim.run()
    assert len(trace.ab_outputs()[0]) == 2
    assert sim.rng.getstate() == random.Random(11).getstate()


class _CopyCounting(Simulation):
    """Counts the copies each gossip message's fan-outs address, queued or
    not: a copy the slot test drops still costs a fan-out its look."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.copies = {}

    def _fan_out(self, sender, msg, enc, state, now, recipients=None):
        addressed = self._others[sender] if recipients is None else recipients
        self.copies[msg] = self.copies.get(msg, 0) + len(addressed)
        super()._fan_out(sender, msg, enc, state, now, recipients)


def test_a_covered_message_is_fanned_out_once():
    """After GST with relay latency 1, each message's first send to every
    node covers it: n - 1 copies in all, however many nodes relay it."""
    sim = _CopyCounting(make_cfg(backend="gossip", delay_law="uniform", seed=5))
    trace = sim.run()
    assert len(trace.ab_outputs()[0]) == 2
    assert sim.copies and set(sim.copies.values()) == {3}
    assert all(state[-1] is True for state in sim.gossip_state.values())
    delivered = sum(1 for ev in trace.iter_kind("deliver"))
    assert delivered == 3 * len(sim.gossip_state)


def test_a_targeted_or_pre_gst_send_leaves_a_message_uncovered():
    sim = Simulation(make_cfg(backend="gossip", delay_law="uniform", gst=20,
                              mode="raw", injections=()))
    msg = make_signed(sim.scheme, 3, InstanceKey(Kind.WBA, 0), "vote", 1)
    sim.send(3, msg, 25, (0, 1))                  # a driver's chosen targets
    state = sim.gossip_state[msg]
    assert state == [26, 26, None, _HAS, False]
    sim.send(3, msg, 26)                          # to every node: covered
    assert state == [26, 26, 27, _HAS, True]
    queued = sum(map(len, sim.run_queue.values()))
    sim.send(0, msg, 30)
    assert sum(map(len, sim.run_queue.values())) == queued and state[0] == _HAS
    early = make_signed(sim.scheme, 3, InstanceKey(Kind.WBA, 1), "vote", 1)
    sim.send(3, early, 5)                         # before GST: random hops
    assert sim.gossip_state[early][-1] is False


def test_all_injections_delivered_in_same_order():
    trace = run(make_cfg())
    per_node = trace.ab_outputs()
    assert set(per_node) == {0, 1, 2, 3}
    sequences = {n: [(ev.data["value"], ev.data["position"]) for ev in evs]
                 for n, evs in per_node.items()}
    assert sequences[0] == sequences[1] == sequences[2] == sequences[3]
    assert {v for v, _ in sequences[0]} == {"v0", "v1"}


def test_a_stream_into_one_node_is_delivered_in_order_within_the_liveness_slack():
    """The proposal buffer is first in first out, so a value waits only for
    the values injected before it: node 0's stream comes out everywhere in
    injection order, each value within check_liveness's slack (156 ticks at
    n=4, sub_delay=6) of its injection."""
    injected = {f"s{t}": t for t in range(0, 1000, 50)}
    trace = run(make_cfg(horizon=1200,
                         injections=tuple((t, 0, v) for v, t in injected.items())))
    outs = trace.ab_outputs()
    assert set(outs) == {0, 1, 2, 3}
    for evs in outs.values():
        assert [ev.data["value"] for ev in evs] == list(injected)
        assert all(ev.time - injected[ev.data["value"]] <= 156 for ev in evs)


def test_timer_generations_fire_monotonically():
    trace = run(make_cfg())
    fired = {}
    for ev in trace.iter_kind("timer_fire"):
        fired.setdefault(ev.node, []).append(ev.data["generation"])
    for gens in fired.values():
        assert gens == sorted(gens)
        assert len(gens) == len(set(gens))
    # Superseded timers surface as stale, not as duplicate fires.
    assert any(True for _ in trace.iter_kind("timer_stale"))


def test_crashed_node_goes_quiet():
    cfg = make_cfg(adversaries=(CrashSpec(3, at=40),), horizon=200)
    trace = run(cfg)
    before = [ev for ev in sends_by(trace, 3) if ev.time < 40]
    after = [ev for ev in sends_by(trace, 3) if ev.time >= 40]
    assert before
    assert after == []
    assert any(ev.node == 3 for ev in trace.iter_kind("crash"))
    # The three survivors still make progress together.
    outs = trace.ab_outputs()
    assert [e.data["value"] for e in outs[0]] == [e.data["value"] for e in outs[1]]
    assert len(outs[0]) == 2


ACTIONS = ("send", "gossip", "sub_input", "sub_output", "timer_set",
           "timer_fire", "timer_stale", "advance")


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_a_crashed_node_records_its_receipts_and_does_nothing(backend):
    """Both backends trace the copies the network hands a crashed node, and
    the node acts on none of them.  The stream of tests/test_scaling.py's
    `_stream_cfg`, seed 1, with node 3 crashing at t=40."""
    cfg = make_cfg(backend=backend, seed=1, horizon=200, delay_law="uniform",
                   adversaries=(CrashSpec(3, 40),),
                   injections=tuple((t, i % 4, f"v{i}")
                                    for i, t in enumerate(range(0, 200, 10))))
    after = [ev.kind for ev in run(cfg).events if ev.node == 3 and ev.time >= 40]
    assert after.count("deliver") > 0
    assert not [kind for kind in after if kind in ACTIONS]


@pytest.mark.parametrize("fields", [dict(adversaries=(CrashSpec(1, 0),)), dict(mode="raw")],
                         ids=["crashed at t=0", "raw mode"])
def test_an_injection_at_the_start_is_recorded_like_a_later_one(fields):
    cfg = make_cfg(injections=((-3, 1, "before"), (0, 1, "at"), (5, 1, "later")),
                   **fields)
    injected = [(ev.time, ev.node, ev.data["value"]) for ev in run(cfg).iter_kind("inject")]
    assert injected == [(0, 1, "before"), (0, 1, "at"), (5, 1, "later")]


def test_silent_leader_round_gets_skipped():
    cfg = make_cfg(adversaries=(SilentLeaderSpec(3),), horizon=200)
    trace = run(cfg)
    assert sends_by(trace, 3) == []
    subs = trace.sub_outputs()
    skipped = [subs.get((n, "wba/3")) for n in (0, 1, 2)]
    assert all(ev is not None and ev.data["value"] == 0 for ev in skipped)


def test_equivocating_proposer_cannot_split_outputs():
    spec = EquivocatingProposerSpec(3, (
        PartitionValue((0, 1), "left", "bot"),
        PartitionValue((2,), "right", "bot"),
    ))
    trace = run(make_cfg(adversaries=(spec,), horizon=260))
    by_round = {}
    for (node, inst), ev in trace.sub_outputs().items():
        if node in (0, 1, 2) and inst.startswith("rb/"):
            by_round.setdefault(inst, set()).add(ev.data["value"]["value"])
    for inst, values in by_round.items():
        assert len(values) == 1


def test_flip_voter_cannot_split_wba_outputs():
    cfg = make_cfg(adversaries=(FlipVoterSpec(3, {}, equivocate=True),),
                   horizon=260)
    trace = run(cfg)
    by_round = {}
    for (node, inst), ev in trace.sub_outputs().items():
        if node in (0, 1, 2) and inst.startswith("wba/"):
            by_round.setdefault(inst, set()).add(ev.data["value"])
    assert by_round
    for values in by_round.values():
        assert len(values) == 1


def test_gossip_floods_from_a_single_target():
    script = ({"time": 30, "op": "gossip", "to": [0], "instance": "wba/0",
               "mkind": "vote", "payload": 1},)
    cfg = make_cfg(backend="gossip", mode="raw", injections=(),
                   adversaries=(ScriptedSpec(3, script),), horizon=80)
    trace = run(cfg)
    got = {}
    for ev in trace.iter_kind("deliver"):
        sent = trace.events[ev.data["msg"]]
        if ev.data.get("gossip") == 1 and sent.data["instance"] == "wba/0":
            got[ev.node] = got.get(ev.node, 0) + 1
    # Relayed beyond the single addressee, yet delivered once per node.
    assert got[0] == 1 and got[1] == 1 and got[2] == 1
    assert got.get(3) is None


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_a_driver_that_names_itself_gets_no_copy_back(backend):
    spec = EquivocatingProposerSpec(3, (PartitionValue((3, 0), "x"),))
    trace = run(make_cfg(backend=backend, adversaries=(spec,),
                         injections=((0, 0, "v0"),), horizon=100))
    own = [ev for ev in trace.iter_kind("deliver")
           if ev.node == 3 and trace.events[ev.data["msg"]].node == 3]
    assert own == []
    assert any(ev.node == 0 and trace.events[ev.data["msg"]].node == 3
               for ev in trace.iter_kind("deliver"))


def test_each_target_of_a_send_gets_the_copy_its_own_send_event_names():
    script = ({"time": 5, "op": "send", "to": [2, 0], "instance": "wba/0",
               "mkind": "vote", "payload": 1},)
    trace = run(make_cfg(adversaries=(ScriptedSpec(3, script),), horizon=40))
    sends = [ev for ev in trace.iter_kind("send") if ev.node == 3]
    assert [ev.data["to"] for ev in sends] == [[2], [0]]
    named = {ev.node: ev.data for ev in trace.iter_kind("deliver")
             if ev.data["msg"] in (sends[0].seq, sends[1].seq)}
    assert named == {2: {"msg": sends[0].seq}, 0: {"msg": sends[1].seq}}
    assert Trace.from_jsonl(trace.to_jsonl()).to_jsonl() == trace.to_jsonl()


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_no_node_makes_an_input_its_table_refuses(monkeypatch, backend):
    """The engine asks the table whether an input can still be made before
    it makes one, so an observer, which may make no WBA input, makes none:
    the table refuses no input at any node."""
    refused = []
    submit = InstanceTable.submit_input

    def counted(table, inp):
        acts = submit(table, inp)
        if acts is None:
            refused.append((table.self_id, inp.key))
        return acts
    monkeypatch.setattr(InstanceTable, "submit_input", counted)
    injections = tuple((t, i % 4, f"v{i}") for i, t in enumerate(range(0, 1000, 10)))
    trace = run(make_cfg(backend=backend, extra_nodes=2, horizon=1000,
                         delay_law="uniform", injections=injections))
    assert refused == []
    outs = trace.ab_outputs()
    for observer in (4, 5):
        assert len(outs[observer]) > 50
        assert [e.data["value"] for e in outs[observer]] == [
            e.data["value"] for e in outs[0]][:len(outs[observer])]


def test_spam_window_quarantines_far_rounds():
    script = ({"time": 5, "op": "send", "to": "all", "instance": "rb/51",
               "mkind": "initial",
               "payload": {"value": "spam", "parent": None}},)
    held = make_cfg(adversaries=(ScriptedSpec(3, script),), horizon=100,
                    spam_window=10)
    trace = run(held)
    echoes = [ev for ev in trace.iter_kind("send")
              if ev.data["instance"] == "rb/51" and ev.node != 3]
    assert echoes == []
    open_window = make_cfg(adversaries=(ScriptedSpec(3, script),), horizon=100,
                           spam_window=100)
    trace = run(open_window)
    echoes = [ev for ev in trace.iter_kind("send")
              if ev.data["instance"] == "rb/51" and ev.node != 3]
    assert echoes


def test_observer_mirrors_validator_outputs_without_sending():
    cfg = make_cfg(extra_nodes=1, horizon=200)
    trace = run(cfg)
    assert sends_by(trace, 4) == []
    outs = trace.ab_outputs()
    assert [e.data["value"] for e in outs[4]] == [e.data["value"] for e in outs[0]]
    assert len(outs[4]) == 2


SCRIPT_VOTE = ({"time": 1, "op": "send", "to": "all", "instance": "wba/0",
                "mkind": "vote", "payload": 1},)


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
@pytest.mark.parametrize("spec", [FlipVoterSpec(4), ScriptedSpec(4, SCRIPT_VOTE)],
                         ids=["flip_voter", "scripted"])
def test_a_driver_on_an_observer_sends_and_counts_for_nothing(backend, spec):
    # Gossip signs a driver's messages with its own key, so the signature
    # scheme holds a key for every node, observers too.
    cfg = make_cfg(backend=backend, extra_nodes=1, horizon=200, adversaries=(spec,))
    trace = run(cfg)
    assert sends_by(trace, 4)
    ctx = CheckContext(params=cfg.params, horizon=cfg.horizon,
                       correct_nodes=(0, 1, 2, 3), injections=cfg.injections)
    reports = run_checks(trace, ctx, ["safety", "liveness", "wba_contract"])
    assert [r.status for r in reports] == ["pass", "pass", "pass"]


def test_raw_bracha_completes_at_exact_bounds():
    raw = (
        (10, 0, "rb/0", "val"),
        (10, 0, "wba/0", 1), (10, 1, "wba/0", 1),
        (10, 2, "wba/0", 1), (10, 3, "wba/0", 1),
    )
    cfg = make_cfg(mode="raw", raw_inputs=raw, injections=(), horizon=60)
    trace = run(cfg)
    subs = trace.sub_outputs()
    for n in range(4):
        assert subs[(n, "rb/0")].time == 10 + 3 * 2
        assert subs[(n, "wba/0")].time == 10 + 2 * 2


def test_raw_gossip_completes_at_exact_bounds():
    raw = (
        (10, 0, "rb/0", "val"),
        (10, 0, "wba/0", 1), (10, 1, "wba/0", 1),
        (10, 2, "wba/0", 1), (10, 3, "wba/0", 1),
    )
    cfg = make_cfg(backend="gossip", mode="raw", raw_inputs=raw,
                   injections=(), horizon=60)
    trace = run(cfg)
    subs = trace.sub_outputs()
    for n in range(4):
        assert subs[(n, "rb/0")].time == 10 + 2
        assert subs[(n, "wba/0")].time == 10 + 1


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_the_table_admits_each_input_once(backend):
    """A node's instance table is the one gate for its inputs: an RB input
    only from the round's proposer, a WBA input only from a validator, and
    one input per instance.  The machines behind it do not check again."""
    raw = (
        (0, 1, "rb/0", "x"),                         # node 1 does not lead round 0
        (0, 0, "rb/0", "a"), (2, 0, "rb/0", "b"),    # a repeat
        (0, 4, "wba/0", 1),                          # node 4 is the observer
        (0, 0, "wba/0", 1), (3, 0, "wba/0", 0),      # a repeat
        (0, 1, "wba/0", 1), (0, 2, "wba/0", 1),
    )
    cfg = make_cfg(backend=backend, mode="raw", raw_inputs=raw, injections=(),
                   extra_nodes=1, horizon=60)
    trace = run(cfg)
    admitted = [(ev.node, ev.data["instance"], ev.data["value"])
                for ev in trace.iter_kind("sub_input")]
    assert admitted == [(0, "rb/0", "a"), (0, "wba/0", 1), (1, "wba/0", 1),
                        (2, "wba/0", 1)]
    kinds = [ev.data["mkind"] for ev in sends_by(trace, 0)]
    assert kinds.count("initial") == 1 and kinds.count("vote") == 1
    assert "initial" not in [ev.data["mkind"] for ev in sends_by(trace, 1)]
    assert sends_by(trace, 4) == []


MSG_FIELDS = ("instance", "mkind", "payload", "from")


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_send_and_deliver_events_share_fields_not_dicts(backend):
    """A message's trace fields are encoded once, in its send event, which
    each of its `deliver` events names by seq; every event about it still
    gets a data dict of its own."""
    trace = run(make_cfg(backend=backend, delay_law="uniform", seed=4))
    sends = [ev for ev in trace.events if ev.kind in ("send", "gossip")
             and ev.data["instance"] == "rb/0" and ev.data["mkind"] == "initial"]
    assert len(sends) == 1 and sends[0].node == 0
    fields = {f: sends[0].data[f] for f in MSG_FIELDS}
    assert fields["payload"]["value"] == "v0"
    delivers = [ev for ev in trace.iter_kind("deliver")
                if trace.events[ev.data["msg"]].data["instance"] == "rb/0"
                and trace.events[ev.data["msg"]].data["mkind"] == "initial"]
    assert sorted(ev.node for ev in delivers) == [1, 2, 3]
    named = {"msg": sends[0].seq, **({"gossip": 1} if backend == "gossip" else {})}
    for ev in delivers:
        assert ev.data == named
        assert {f: trace.events[ev.data["msg"]].data[f] for f in MSG_FIELDS} == fields
    dicts = [sends[0].data] + [ev.data for ev in delivers]
    assert len({id(d) for d in dicts}) == len(dicts)
    # so changing one event's data changes no other event
    before = [copy.deepcopy(ev.data) for ev in trace.events]
    delivers[0].data["msg"] = -1
    delivers[0].data["extra"] = 1
    assert all(ev.data == data for ev, data in zip(trace.events, before)
               if ev is not delivers[0])


# Each value rule of a run lives in RunConfig, so a config built in code is
# refused where it is built, not when it runs.
@dataclass
class _NodeOnly:
    """Names a node, as every spec does, yet is neither a crash nor a driver."""
    node: int


BAD_RUN_CONFIGS = {
    "unknown backend": dict(backend="gossip_quorum"),
    "unknown delay law": dict(delay_law="normal"),
    "unknown mode": dict(mode="batch"),
    "zero pre-GST delay": dict(pre_gst_max_delay=0),
    # getrandbits(0) is always 0, so the uniform law's draw loop never ends
    "zero relay latency": dict(backend="gossip", delay_law="uniform",
                               gossip_relay_latency=0),
    "two faulty validators": dict(adversaries=(CrashSpec(2), SilentLeaderSpec(3))),
    "a faulty observer and a faulty validator": dict(
        extra_nodes=1, adversaries=(CrashSpec(4), SilentLeaderSpec(3))),
    "adversary beyond the nodes": dict(adversaries=(CrashSpec(4),)),
    "negative adversary node": dict(adversaries=(SilentLeaderSpec(-1),)),
    "script target beyond the nodes": dict(adversaries=(ScriptedSpec(3, (
        {"time": 1, "op": "send", "to": [7], "instance": "wba/0",
         "mkind": "vote", "payload": 1},)),)),
    "partition node beyond the nodes": dict(adversaries=(
        EquivocatingProposerSpec(3, (PartitionValue((0, 7), "x"),)),)),
    # a driven node has no correct stack for the crash to stop
    "a node that crashes and runs a driver": dict(
        adversaries=(CrashSpec(3, 0), SilentLeaderSpec(3))),
    "injection beyond the nodes": dict(injections=((0, 4, "v"),)),
    "injection at the horizon": dict(injections=((150, 0, "v"),)),
    "raw input beyond the nodes": dict(mode="raw", injections=(),
                                       raw_inputs=((0, 5, "wba/0", 1),)),
    "more nodes than the cap": dict(extra_nodes=MAX_NODES - 3),
    "negative extra nodes": dict(extra_nodes=-1),
    "a schedule over another n": dict(schedule=LeaderSchedule(7)),
    "digest mode on bracha": dict(digest_mode=True),
    "raw input before the start": dict(mode="raw", injections=(),
                                       raw_inputs=((-5, 0, "wba/0", 1),)),
    "script entry before the start": dict(adversaries=(ScriptedSpec(3, (
        {"time": -3, "op": "send", "instance": "wba/0", "mkind": "vote",
         "payload": 1},)),)),
    "crash before the start": dict(adversaries=(CrashSpec(3, -1),)),
    "unknown raw instance kind": dict(mode="raw", injections=(),
                                      raw_inputs=((0, 0, "zz/1", 1),)),
    "negative raw instance round": dict(mode="raw", injections=(),
                                        raw_inputs=((0, 0, "rb/-1", 1),)),
    "unknown script instance kind": dict(adversaries=(ScriptedSpec(3, (
        {"time": 1, "op": "send", "instance": "zz/0", "mkind": "vote",
         "payload": 1},)),)),
    # a negative window holds every message, so the run wedges
    "negative spam window": dict(spam_window=-1),
    # script entries built in code keep the rules a scenario file's do
    "script target that is no node list": dict(adversaries=(ScriptedSpec(3, (
        {"time": 1, "op": "send", "to": "some", "instance": "wba/0",
         "mkind": "vote", "payload": 1},)),)),
    "script entry without an mkind": dict(adversaries=(ScriptedSpec(3, (
        {"time": 1, "op": "send", "instance": "wba/0", "payload": 1},)),)),
    "rb script payload without a value": dict(adversaries=(ScriptedSpec(3, (
        {"time": 1, "op": "send", "instance": "rb/1", "mkind": "initial",
         "payload": {"parent": None}},)),)),
    # an engine-mode node takes its inputs from its engine alone
    "raw input in engine mode": dict(raw_inputs=((0, 1, "rb/1", "x"),)),
    # an adversary is a crash or a driver
    "an object as an adversary": dict(adversaries=(object(),)),
    "a name as an adversary": dict(adversaries=("crash",)),
    "a number as an adversary": dict(adversaries=(3,)),
    "a spec that is no driver": dict(adversaries=(_NodeOnly(3),)),
    # a spec built in code keeps the field rules of a scenario file's entry
    "a partition that is no PartitionValue": dict(
        adversaries=(EquivocatingProposerSpec(3, ("x",)),)),
    "no partitions": dict(adversaries=(EquivocatingProposerSpec(3, ()),)),
    "a partition with no nodes": dict(
        adversaries=(EquivocatingProposerSpec(3, (PartitionValue((), "x"),)),)),
    "a fractional partition parent": dict(
        adversaries=(EquivocatingProposerSpec(3, (PartitionValue((0,), "x", 2.5),)),)),
    "no bits map": dict(adversaries=(FlipVoterSpec(3, None),)),
    "a bit that is neither 0 nor 1": dict(adversaries=(FlipVoterSpec(3, {1: 7}),)),
    "an integer for equivocate": dict(adversaries=(FlipVoterSpec(3, {}, 1),)),
    "a string adversary node": dict(adversaries=(SilentLeaderSpec("3"),)),
    "a string crash time": dict(adversaries=(CrashSpec(3, "40"),)),
    "no script list": dict(adversaries=(ScriptedSpec(3, None),)),
}


@pytest.mark.parametrize("fields", BAD_RUN_CONFIGS.values(), ids=list(BAD_RUN_CONFIGS))
def test_bad_run_config_is_refused_at_construction(fields):
    with pytest.raises(ConfigError):
        make_cfg(**fields)


def test_observer_injection_and_last_tick_before_horizon_are_accepted():
    cfg = make_cfg(extra_nodes=1, adversaries=(CrashSpec(4),),
                   injections=((149, 4, "v"),))
    assert cfg.extra_nodes == 1
    with pytest.raises(ConfigError):
        replace(cfg, horizon=149)


# A Byzantine proposer whose RB output the engine cannot chain from: a bare
# value, or a proposal whose parent is not a round.  Scenario files refuse
# both, but a driver built in code can send them.
UNCHAINABLE = {"bare value": "x",
               "string parent": {"value": "orphan", "parent": "x"}}


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
@pytest.mark.parametrize("payload", UNCHAINABLE.values(), ids=list(UNCHAINABLE))
def test_unchainable_rb_output_is_never_accepted(backend, payload):
    script = ({"time": 5, "op": "send", "to": "all", "instance": "rb/3",
               "mkind": "initial", "payload": payload},)
    cfg = make_cfg(backend=backend, gst=10, horizon=200,
                   adversaries=(ScriptedSpec(3, script),))
    trace = run(cfg)
    outputs = [ev for ev in trace.iter_kind("sub_output")
               if ev.data["instance"] == "rb/3" and ev.node != 3]
    assert sorted(ev.node for ev in outputs) == [0, 1, 2]
    # the round timer keeps firing up to the horizon
    assert max(ev.time for ev in trace.events) > cfg.horizon - 2 * cfg.params.sub_delay
    ctx = CheckContext(params=cfg.params, horizon=cfg.horizon,
                       correct_nodes=(0, 1, 2), injections=cfg.injections)
    reports = run_checks(trace, ctx, ["safety", "liveness"])
    assert [r.status for r in reports] == ["pass", "pass"]
    for node in (0, 1, 2):
        assert [ev.data["value"] for ev in trace.ab_outputs()[node]] == ["v0", "v1"]


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_unhashable_rb_payload_is_dropped(backend):
    # Tallies key on payloads, so a proposal holding a list cannot be
    # counted; correct nodes drop it as they drop a non-validator sender.
    payload = {"value": [1], "parent": None}
    script = tuple({"time": 5, "op": "send", "to": "all", "instance": "rb/3",
                    "mkind": mkind, "payload": payload}
                   for mkind in ("initial", "echo", "ready"))
    cfg = make_cfg(backend=backend, horizon=200,
                   adversaries=(ScriptedSpec(3, script),))
    trace = run(cfg)
    assert not [ev for ev in trace.iter_kind("sub_output")
                if ev.data["instance"] == "rb/3"]
    ctx = CheckContext(params=cfg.params, horizon=cfg.horizon,
                       correct_nodes=(0, 1, 2), injections=cfg.injections)
    reports = run_checks(trace, ctx, ["safety", "liveness"])
    assert [r.status for r in reports] == ["pass", "pass"]
    for node in (0, 1, 2):
        assert [ev.data["value"] for ev in trace.ab_outputs()[node]] == ["v0", "v1"]


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_each_script_entry_runs_once_with_two_scripted_drivers(backend):
    # Two scripts on one node stack: each entry is sent by its own driver
    # only, so two entries give two sends, not one per driver each.
    scripts = [({"time": t, "op": "send", "to": "all", "instance": "wba/0",
                 "mkind": "vote", "payload": 1},) for t in (1, 2)]
    cfg = make_cfg(backend=backend, mode="raw", injections=(), horizon=40,
                   adversaries=tuple(ScriptedSpec(3, s) for s in scripts))
    assert [ev.time for ev in sends_by(run(cfg), 3)] == [1, 2]


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_two_flip_voters_on_one_node_keep_separate_memory(backend):
    # Each stacked driver has its own rounds done: both vote once in every
    # WBA round node 3 hears, and neither's vote stands in for the other's.
    cfg = make_cfg(backend=backend, horizon=200, adversaries=(
        FlipVoterSpec(3, {1: 1}), FlipVoterSpec(3, {1: 0})))
    trace = run(cfg)
    heard = {trace.events[ev.data["msg"]].data["instance"]
             for ev in trace.iter_kind("deliver") if ev.node == 3}
    sent = {}
    for ev in sends_by(trace, 3):
        sent.setdefault(ev.data["instance"], []).append(
            (ev.data["mkind"], ev.data["payload"]))
    assert "wba/1" in sent and set(sent) == {i for i in heard if i.startswith("wba/")}
    kinds = ("vote", "ready") if backend == "bracha" else ("vote",)
    for inst, msgs in sent.items():
        r = int(inst.removeprefix("wba/"))
        bits = (1, 0) if r == 1 else (r % 2, r % 2)
        assert msgs == [(kind, bit) for bit in bits for kind in kinds]


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_a_config_with_every_driver_kind_replays_and_keeps_its_specs(backend):
    # Every seed of a config shares its spec objects, so no run may leave
    # its state on them.
    script = ({"time": 7, "op": "send", "to": [0, 2], "instance": "wba/2",
               "mkind": "vote", "payload": 0},)
    cfg = make_cfg(backend=backend, delay_law="uniform", seed=5, horizon=200,
                   adversaries=(
                       SilentLeaderSpec(3),
                       EquivocatingProposerSpec(3, (PartitionValue((0, 1), "left"),
                                                    PartitionValue((2,), "right", "prev"))),
                       FlipVoterSpec(3, {2: 1}, equivocate=True),
                       ScriptedSpec(3, script)))
    before = copy.deepcopy(cfg.adversaries)
    first = run(cfg).to_jsonl()
    other = run(replace(cfg, seed=6)).to_jsonl()
    assert run(cfg).to_jsonl() == first != other
    assert cfg.adversaries == before
