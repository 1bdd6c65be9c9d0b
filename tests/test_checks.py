import inspect

import pytest

from abcast.checks import (
    CHECKS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckContext,
    CheckReport,
    check_engine_invariants,
    check_liveness,
    check_rb_contract,
    check_round_advance,
    check_safety,
    check_spread,
    check_subprotocol_delay,
    check_wba_contract,
    run_checks,
)
from abcast.core import Params
from abcast.simnet import run
from abcast.trace import Trace
from test_determinism import bundled_scenarios

PARAMS = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)


def ctx(horizon=1000, correct=(0, 1, 2), injections=(), **kw):
    return CheckContext(params=PARAMS, horizon=horizon,
                        correct_nodes=tuple(correct),
                        injections=tuple(injections), **kw)


def deliver(trace, node, value, pos, rnd=0, t=10):
    trace.append(t, "ab_output", node, {"value": value, "round": rnd, "position": pos})


def test_report_line_and_ok():
    rep = CheckReport("safety", PASS, "fine")
    assert rep.ok and "PASS" in rep.line() and "safety" in rep.line()
    assert not CheckReport("safety", FAIL).ok
    assert CheckReport("safety", INCONCLUSIVE).ok


def test_safety_pass_and_fail():
    good = Trace()
    for n in (0, 1, 2):
        deliver(good, n, "a", 0)
        deliver(good, n, "b", 1)
    assert check_safety(good, ctx()).status == PASS

    bad = Trace()
    deliver(bad, 0, "a", 0)
    deliver(bad, 1, "z", 0)
    rep = check_safety(bad, ctx())
    assert rep.status == FAIL
    assert "position 0" in rep.detail
    assert rep.violation["event_index"] == 1


def test_safety_ignores_faulty_nodes():
    t = Trace()
    deliver(t, 0, "a", 0)
    deliver(t, 3, "z", 0)
    assert check_safety(t, ctx()).status == PASS


def test_liveness_pass_fail_and_gate():
    # due 6*n*Delta + 2*Delta = 6*4*6 + 2*6 = 156 after the injection
    inj = ((0, 0, "v"),)
    good = Trace()
    for n in (0, 1, 2):
        deliver(good, n, "v", 0)
    assert check_liveness(good, ctx(horizon=156, injections=inj)).status == PASS

    bad = Trace()
    deliver(bad, 0, "v", 0)
    deliver(bad, 1, "v", 0)
    rep = check_liveness(bad, ctx(horizon=156, injections=inj))
    assert rep.status == FAIL
    assert "never delivered at node 2" in rep.detail

    short = check_liveness(bad, ctx(horizon=155, injections=inj))
    assert short.status == INCONCLUSIVE


def test_liveness_violation_points_at_missed_deadline():
    inj = ((0, 0, "v"),)                 # obliged by t=156
    t = Trace()
    deliver(t, 0, "v", 0)
    deliver(t, 1, "v", 0)
    t.append(150, "timer_fire", 2, {"generation": 1})
    t.append(200, "timer_fire", 2, {"generation": 2})
    rep = check_liveness(t, ctx(horizon=1000, injections=inj))
    assert rep.status == FAIL
    assert rep.measured == {"node": 2, "deadline": 156}
    assert rep.violation["event_index"] == 2
    assert t.events[2].time == 150


def test_liveness_skips_faulty_targets():
    inj = ((0, 3, "v"),)
    rep = check_liveness(Trace(), ctx(horizon=1000, injections=inj))
    assert rep.status == PASS
    assert rep.measured["obliged"] == 0


def wba_trace(inputs, outputs):
    t = Trace()
    for node, bit, at in inputs:
        t.append(at, "sub_input", node, {"instance": "wba/0", "value": bit})
    for node, bit, at in outputs:
        t.append(at, "sub_output", node, {"instance": "wba/0", "value": bit})
    return t


def test_wba_contract_pass():
    t = wba_trace([(0, 1, 5), (1, 1, 5), (2, 1, 6)],
                  [(0, 1, 10), (1, 1, 10), (2, 1, 11)])
    rep = check_wba_contract(t, ctx())
    assert rep.status == PASS
    assert rep.measured["instances"] == 1


def test_wba_contract_agreement_violation():
    t = wba_trace([(0, 1, 5), (1, 1, 5), (2, 0, 5)],
                  [(0, 1, 10), (1, 0, 10)])
    rep = check_wba_contract(t, ctx())
    assert rep.status == FAIL
    assert "both bits" in rep.detail


def test_wba_contract_validity_violation():
    # Output bit 1 backed by a single correct input; q - f = 2 required.
    t = wba_trace([(0, 1, 5), (1, 0, 5), (2, 0, 5)],
                  [(0, 1, 10), (1, 1, 10), (2, 1, 10)])
    rep = check_wba_contract(t, ctx())
    assert rep.status == FAIL
    assert "backed by 1" in rep.detail


def test_wba_contract_weak_termination_violation():
    t = wba_trace([(0, 1, 5), (1, 1, 5), (2, 1, 5)], [])
    rep = check_wba_contract(t, ctx(horizon=1000))
    assert rep.status == FAIL
    assert "never output" in rep.detail
    # With the horizon inside the grace window the obligation is waived.
    assert check_wba_contract(t, ctx(horizon=10)).status == PASS


@pytest.mark.parametrize("bit", [0, 1])
def test_wba_weak_termination_counts_each_input_equal_to_the_bit(bit):
    # a decoded trace may carry a bool or a float that equals the bit
    t = wba_trace([(0, bool(bit), 5), (1, float(bit), 6), (2, bit, 7)], [])
    rep = check_wba_contract(t, ctx(horizon=1000))
    assert rep.detail == f"round 0: 3 correct inputs of {bit} by t=7 but node 0 never output it"
    mixed = wba_trace([(0, bit, 5), (1, float(bit), 6), (2, 1 - bit, 7)], [])
    assert check_wba_contract(mixed, ctx(horizon=1000)).status == PASS


def test_wba_termination_violation_points_at_missed_deadline():
    t = wba_trace([(0, 1, 5), (1, 1, 5), (2, 1, 5)], [])   # due by 5 + 12
    t.append(16, "timer_fire", 0, {"generation": 1})
    t.append(30, "timer_fire", 0, {"generation": 2})
    rep = check_wba_contract(t, ctx(horizon=1000))
    assert rep.status == FAIL
    assert rep.measured == {"node": 0, "deadline": 17}
    assert rep.violation["event_index"] == 3
    assert t.events[3].time == 16


def rb_trace(inputs, outputs):
    t = Trace()
    for node, value, at in inputs:
        t.append(at, "sub_input", node, {"instance": "rb/0", "value": value})
    for node, value, at in outputs:
        t.append(at, "sub_output", node, {"instance": "rb/0", "value": value})
    return t


def test_rb_contract_pass():
    t = rb_trace([(0, "x", 5)], [(0, "x", 11), (1, "x", 11), (2, "x", 10)])
    assert check_rb_contract(t, ctx()).status == PASS


def test_rb_contract_agreement_violation():
    t = rb_trace([], [(0, "x", 10), (1, "y", 10)])
    rep = check_rb_contract(t, ctx())
    assert rep.status == FAIL
    assert "different values" in rep.detail


def test_rb_contract_agreement_ignores_key_order():
    # a v2 file may hold one RB output with its keys in another order
    lines = rb_trace([], [(n, {"parent": None, "ts": None, "value": "x"}, 10)
                          for n in (0, 1, 2)]).to_jsonl().splitlines()
    lines[2] = lines[2].replace('{"parent":null,"ts":null,"value":"x"}',
                                '{"value":"x","parent":null,"ts":null}')
    t = Trace.from_jsonl("\n".join(lines) + "\n")
    assert list(t.events[1].data["value"]) == ["value", "parent", "ts"]
    rep = check_rb_contract(t, ctx())
    assert rep.status == PASS, rep.line()
    # values still differ when they differ
    lines[3] = lines[3].replace('"value":"x"', '"value":"y"')
    assert check_rb_contract(Trace.from_jsonl("\n".join(lines) + "\n"),
                             ctx()).status == FAIL


def test_rb_contract_termination_violation():
    t = rb_trace([(0, "x", 5)], [(0, "x", 11), (1, "x", 11)])
    rep = check_rb_contract(t, ctx())
    assert rep.status == FAIL
    assert "never output" in rep.detail


def test_rb_termination_violation_points_at_missed_deadline():
    t = rb_trace([(0, "x", 5)], [(0, "x", 11), (1, "x", 11)])   # due by 5 + 6
    t.append(20, "timer_fire", 2, {"generation": 1})
    rep = check_rb_contract(t, ctx())
    assert rep.status == FAIL
    assert rep.measured == {"node": 2, "deadline": 11}
    assert rep.violation["event_index"] == 2
    assert t.events[2].time == 11


def test_rb_contract_delay_violation():
    # Post-GST fixed-law bound is 3*delta = 6 after the input at t=5.
    t = rb_trace([(0, "x", 5)], [(0, "x", 11), (1, "x", 12), (2, "x", 11)])
    rep = check_rb_contract(t, ctx())
    assert rep.status == FAIL
    assert "later than" in rep.detail
    loose = rb_trace([(0, "x", 5)], [(0, "x", 11), (1, "x", 12), (2, "x", 11)])
    assert check_rb_contract(loose, ctx(delay_law="uniform")).status == PASS


def advance_trace(rows):
    t = Trace()
    for node, rnd, at in rows:
        t.append(at, "advance", node, {"round": rnd})
    return t


def test_round_advance_pass():
    rows = [(n, r, 18 * r - 4) for n in (0, 1, 2) for r in (1, 2)]
    rep = check_round_advance(advance_trace(rows), ctx(horizon=40))
    assert rep.status == PASS
    assert rep.measured["rounds_checked"] == 2


def test_round_advance_violation():
    rows = [(0, 1, 10), (1, 1, 10)]
    rep = check_round_advance(advance_trace(rows), ctx(horizon=40))
    assert rep.status == FAIL
    assert "node 2" in rep.detail


def test_round_advance_violation_points_at_missed_deadline():
    t = advance_trace([(0, 1, 10), (1, 1, 10)])
    t.append(17, "timer_fire", 2, {"generation": 1})
    t.append(18, "timer_set", 2, {"generation": 2, "fire_at": 30})
    t.append(25, "advance", 2, {"round": 1})
    rep = check_round_advance(t, ctx(horizon=40))
    assert rep.status == FAIL
    assert rep.measured == {"node": 2, "round": 1, "deadline": 18}
    # The last event at or before the deadline, not one past the trace end.
    assert rep.violation["event_index"] == 3
    assert t.events[3].time == 18


def test_round_advance_inconclusive_cases():
    assert check_round_advance(Trace(), ctx(horizon=10)).status == INCONCLUSIVE
    fast = Params(n=4, f=1, delta=2, gst=0, sub_delay=5)
    c = CheckContext(params=fast, horizon=1000, correct_nodes=(0, 1, 2))
    assert check_round_advance(Trace(), c).status == INCONCLUSIVE


def test_subprotocol_delay_exactness():
    t = rb_trace([(0, "x", 10)], [(0, "x", 16), (1, "x", 16), (2, "x", 16)])
    rep = check_subprotocol_delay(t, ctx())
    assert rep.status == PASS
    assert rep.measured == {"rb/0": 6}

    early = rb_trace([(0, "x", 10)], [(0, "x", 15), (1, "x", 16), (2, "x", 16)])
    rep = check_subprotocol_delay(early, ctx())
    assert rep.status == FAIL
    assert "expected 16" in rep.detail


def test_subprotocol_delay_gossip_offsets():
    t = wba_trace([(0, 1, 10), (1, 1, 10), (2, 1, 10)],
                  [(0, 1, 11), (1, 1, 11), (2, 1, 11)])
    rep = check_subprotocol_delay(t, ctx(backend="gossip"))
    assert rep.status == PASS
    assert rep.measured == {"wba/0": 1}


def test_subprotocol_delay_inconclusive_cases():
    assert check_subprotocol_delay(Trace(), ctx()).status == INCONCLUSIVE
    t = wba_trace([(0, 1, 10)], [])
    assert check_subprotocol_delay(t, ctx(delay_law="uniform")).status == INCONCLUSIVE
    gst_params = Params(n=4, f=1, delta=2, gst=50, sub_delay=6)
    c = CheckContext(params=gst_params, horizon=1000, correct_nodes=(0, 1, 2))
    assert check_subprotocol_delay(t, c).status == INCONCLUSIVE


def test_subprotocol_delay_skips_split_wba():
    t = wba_trace([(0, 1, 10), (1, 0, 10)], [(0, 0, 13)])
    rep = check_subprotocol_delay(t, ctx())
    assert rep.status == PASS
    assert rep.measured == {}


def test_spread_pass_fail_and_gate():
    t = rb_trace([], [(0, "x", 5), (1, "x", 6), (2, "x", 7)])
    assert check_spread(t, ctx()).status == PASS
    partial = rb_trace([], [(0, "x", 5), (1, "x", 6)])
    rep = check_spread(partial, ctx())
    assert rep.status == FAIL
    assert "never reached node 2" in rep.detail
    assert check_spread(partial, ctx(horizon=10)).status == PASS


def test_spread_violation_points_at_missed_deadline():
    t = rb_trace([], [(0, "x", 10)])     # due everywhere by 10 + 6
    t.append(12, "timer_fire", 1, {"generation": 1})
    t.append(30, "timer_fire", 1, {"generation": 2})
    rep = check_spread(t, ctx())
    assert rep.status == FAIL
    assert rep.measured == {"node": 1, "deadline": 16}
    assert rep.violation["event_index"] == 1
    assert t.events[1].time == 12


def test_engine_invariants_pass():
    t = Trace()
    t.append(5, "sub_output", 0, {"instance": "rb/0", "value": "x"})
    t.append(6, "sub_output", 0, {"instance": "rb/0", "value": "x"})
    t.append(7, "advance", 0, {"round": 1})
    t.append(9, "advance", 0, {"round": 2})
    deliver(t, 0, "a", 0, rnd=0)
    deliver(t, 0, "b", 1, rnd=2)
    assert check_engine_invariants(t, ctx()).status == PASS


def test_engine_invariants_conflicting_output():
    t = Trace()
    t.append(5, "sub_output", 0, {"instance": "rb/0", "value": "x"})
    t.append(6, "sub_output", 0, {"instance": "rb/0", "value": "y"})
    rep = check_engine_invariants(t, ctx())
    assert rep.status == FAIL
    assert "twice" in rep.detail


def test_engine_invariants_backwards_round():
    t = Trace()
    t.append(5, "advance", 0, {"round": 2})
    t.append(6, "advance", 0, {"round": 2})
    assert check_engine_invariants(t, ctx()).status == FAIL


def test_engine_invariants_position_gap():
    t = Trace()
    deliver(t, 0, "a", 0)
    deliver(t, 0, "b", 2)
    rep = check_engine_invariants(t, ctx())
    assert rep.status == FAIL
    assert "position" in rep.detail


def test_engine_invariants_round_regression():
    t = Trace()
    deliver(t, 0, "a", 0, rnd=5)
    deliver(t, 0, "b", 1, rnd=3)
    rep = check_engine_invariants(t, ctx())
    assert rep.status == FAIL
    assert "out of order" in rep.detail


def test_run_checks_dispatch():
    t = Trace()
    for n in (0, 1, 2):
        deliver(t, n, "a", 0)
    reports = run_checks(t, ctx(), ["safety", "liveness"])
    assert [r.name for r in reports] == ["safety", "liveness"]
    assert all(r.ok for r in reports)
    with pytest.raises(KeyError):
        run_checks(t, ctx(), ["no_such_check"])


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_check_takes_only_the_trace_and_its_context(name):
    assert list(inspect.signature(CHECKS[name]).parameters) == ["trace", "ctx"]


BUNDLED = bundled_scenarios()


@pytest.mark.parametrize("name", list(BUNDLED))
def test_checks_that_share_views_report_alike_in_any_order(name):
    """The checkers share the views built by the first that reads them, so
    none may change one: every check reports the same run alike in `CHECKS`
    order, in reversed order and on the decoded trace."""
    sc = BUNDLED[name]
    names = list(CHECKS)
    for seed in range(5):
        cfg = sc.config_for(seed)
        ctx = sc.context_for(cfg)
        trace = run(cfg)
        forward = [r.to_json() for r in run_checks(trace, ctx, names)]
        backward = [r.to_json() for r in run_checks(run(cfg), ctx, names[::-1])]
        decoded = [r.to_json() for r in run_checks(Trace.from_jsonl(trace.to_jsonl()),
                                                   ctx, names)]
        assert backward[::-1] == forward, seed
        assert decoded == forward, seed
