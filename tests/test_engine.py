
from abcast.core import LeaderSchedule, Params
from abcast.engine import (
    Engine,
    Input,
    Proposal,
    RestartTimer,
)
from abcast.subproto import InstanceKey, Kind

PARAMS = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
SCHED = LeaderSchedule(4)


class ViewStub:
    def __init__(self, rb=None, wba=None, inputs_made=()):
        self.rb = dict(rb or {})
        self.wba = dict(wba or {})
        self.inputs_made = set(inputs_made)

    def rb_output(self, r):
        return self.rb.get(r)

    def wba_output(self, r):
        return self.wba.get(r)

    def accepts_input(self, key):
        return key not in self.inputs_made

    def rb_rounds_with_output(self):
        return sorted(self.rb)


def make_engine(view=None, self_id=0, inputs=()):
    eng = Engine(PARAMS, SCHED, self_id, view or ViewStub())
    for value in inputs:
        eng.on_input(value)
    return eng


def inputs_of(actions, kind):
    return [a for a in actions if isinstance(a, Input) and a.key.kind is kind]


def ab_output(value, r, position):
    return ("ab_output", {"value": value, "round": r, "position": position})


def rb_key(r):
    return InstanceKey(Kind.RB, r)


def wba_key(r):
    return InstanceKey(Kind.WBA, r)


def test_start_fresh_non_leader_only_arms_timer():
    eng = make_engine(self_id=1, inputs=("a",))
    actions, notes = eng.start()
    assert actions == [RestartTimer(12)]
    assert notes == []


def test_start_leader_with_buffered_value_proposes_genesis():
    eng = make_engine(self_id=0, inputs=("a",))
    actions, notes = eng.start()
    assert actions == [RestartTimer(12), Input(rb_key(0), Proposal("a", None))]
    assert ("propose", {"round": 0,
                        "payload": {"value": "a", "parent": None, "ts": None}}) in notes


def test_start_leader_with_empty_buffer_waits():
    eng = make_engine(self_id=0)
    actions, _ = eng.start()
    assert actions == [RestartTimer(12)]
    # The slot is not burned: the round can still be proposed later.
    eng.on_input("a")
    actions, _ = eng.on_subproto_output()
    assert actions == [Input(rb_key(0), Proposal("a", None))]


def test_on_input_appends_to_the_buffer():
    eng = make_engine(inputs=("a",))
    eng.on_input("b")
    assert eng.inputs == ["a", "b"]


def test_on_timeout_votes_to_skip_current():
    eng = make_engine(self_id=1)
    eng.current = 3
    actions, _ = eng.on_timeout()
    assert actions == [Input(wba_key(3), 0)]


def test_on_timeout_after_own_input_is_silent():
    eng = make_engine(ViewStub(inputs_made=[wba_key(3)]), self_id=1)
    eng.current = 3
    actions, _ = eng.on_timeout()
    assert actions == []


def test_fertile_genesis_needs_all_below_skippable():
    eng = make_engine(ViewStub(wba={0: 0}))
    assert eng.fertile(1, None)
    assert make_engine(ViewStub()).fertile(0, None)
    assert not make_engine(ViewStub()).fertile(1, None)


def test_fertile_numeric_parent():
    view = ViewStub(rb={0: Proposal("a", None)}, wba={0: 1})
    eng = make_engine(view)
    assert eng.fertile(1, 0)
    assert not eng.fertile(1, None)
    assert not eng.fertile(3, 0)
    view.wba[1] = 0
    view.wba[2] = 0
    assert eng.fertile(3, 0)


def test_accepted_requires_fertile_parent():
    eng = make_engine(ViewStub(rb={0: Proposal("a", None)}))
    assert eng.accepted(0) == Proposal("a", None)
    orphan = make_engine(ViewStub(rb={1: Proposal("b", 0)}))
    assert orphan.accepted(1) is None
    assert orphan.accepted(0) is None


def test_rb_output_advances_round_and_votes_commit():
    view = ViewStub(rb={0: Proposal("a", None)})
    eng = make_engine(view, self_id=1, inputs=("x",))
    actions, notes = eng.on_subproto_output()
    assert actions == [
        RestartTimer(12),
        Input(rb_key(1), Proposal("x", 0)),
        Input(wba_key(0), 1),
    ]
    assert ("advance", {"round": 1}) in notes
    assert eng.current == 1


def test_skip_output_advances_round():
    eng = make_engine(ViewStub(wba={0: 0}), self_id=2)
    actions, notes = eng.on_subproto_output()
    assert actions == [RestartTimer(12)]
    assert notes == [("advance", {"round": 1})]
    assert eng.current == 1


def test_no_commit_vote_without_accepted_parent_chain():
    eng = make_engine(ViewStub(rb={1: Proposal("b", 0)}), self_id=3)
    actions, _ = eng.on_subproto_output()
    assert not inputs_of(actions, Kind.WBA)


def test_commit_vote_not_repeated_after_own_input():
    view = ViewStub(rb={0: Proposal("a", None)}, inputs_made=[wba_key(0)])
    eng = make_engine(view, self_id=3)
    actions, _ = eng.on_subproto_output()
    assert actions == [RestartTimer(12)]


def test_committed_chain_finalizes_lowest_first():
    view = ViewStub(rb={0: Proposal("a", None), 2: Proposal("b", 0)},
                    wba={1: 0, 2: 1},
                    inputs_made=[wba_key(0), wba_key(2)])
    eng = make_engine(view, self_id=3)
    actions, notes = eng.on_subproto_output()
    timers = [a for a in actions if isinstance(a, RestartTimer)]
    assert len(timers) == 3
    assert [n for n in notes if n[0] == "ab_output"] == [
        ab_output("a", 0, 0), ab_output("b", 2, 1)]
    assert ("finalize", {"round": 2}) in notes
    assert eng.current == 3
    assert eng.undecided_round == 3
    assert eng.output_log == ["a", "b"]


def test_finalize_chain_respects_undecided_floor():
    view = ViewStub(rb={0: Proposal("a", None), 2: Proposal("b", 0)}, wba={1: 0})
    whole = make_engine(view)
    assert whole.accepted(2) is not None
    assert whole._finalize(2) == [ab_output("a", 0, 0), ab_output("b", 2, 1),
                                  ("finalize", {"round": 2})]
    assert whole.undecided_round == 3
    upper = make_engine(view)
    upper.undecided_round = 1
    assert upper.accepted(2) is not None
    assert upper._finalize(2) == [ab_output("b", 2, 0), ("finalize", {"round": 2})]
    assert upper.output_log == ["b"]
    single = make_engine(view)
    assert single.accepted(0) is not None
    assert single._finalize(0) == [ab_output("a", 0, 0), ("finalize", {"round": 0})]


def test_finalize_consumes_buffered_copies():
    view = ViewStub(rb={0: Proposal("a", None)})
    eng = make_engine(view, inputs=("a", "b"))
    assert eng.accepted(0) is not None
    assert eng._finalize(0)[:1] == [ab_output("a", 0, 0)]
    assert eng.inputs == ["b"]


def test_deep_undecided_chain_finalizes_in_round_order():
    # Only the top of 2,000 chained rounds commits; the walk down its
    # ancestors must not recurse once per round.
    depth = 2000
    view = ViewStub(rb={r: Proposal(r, r - 1 if r else None) for r in range(depth)},
                    wba={depth - 1: 1})
    eng = make_engine(view, self_id=1)
    _, notes = eng.on_subproto_output()
    delivered = [n for n in notes if n[0] == "ab_output"]
    assert delivered == [ab_output(r, r, r) for r in range(depth)]
    assert eng.output_log == list(range(depth))
    assert eng.undecided_round == depth


def test_leader_accepts_a_long_new_chain_without_recursing():
    # 600 chained rounds arrive in one handler call and none commits.  The
    # leader of round 600 looks for the highest fertile parent first, which
    # needs round 599 accepted, then 598, and so on down.
    depth = 600
    view = ViewStub(rb={r: Proposal(r, r - 1 if r else None) for r in range(depth)})
    eng = make_engine(view, self_id=0, inputs=("a",))
    actions, _ = eng.on_subproto_output()
    assert eng.current == depth
    assert Input(rb_key(depth), Proposal("a", depth - 1)) in actions
    assert inputs_of(actions, Kind.WBA) == [Input(wba_key(r), 1) for r in range(depth)]


def test_repeated_value_on_chain_delivered_once():
    # Round 0 undecided, round 1 re-proposes the same value and commits.
    view = ViewStub(rb={0: Proposal("a", None), 1: Proposal("a", 0)},
                    wba={1: 1},
                    inputs_made=[wba_key(0), wba_key(1)])
    eng = make_engine(view, self_id=3)
    _, notes = eng.on_subproto_output()
    assert [n for n in notes if n[0] == "ab_output"] == [ab_output("a", 0, 0)]
    assert eng.output_log == ["a"]
    assert eng.undecided_round == 2


def test_delivered_value_not_requeued():
    view = ViewStub(rb={0: Proposal("a", None)}, wba={0: 1},
                    inputs_made=[wba_key(0)])
    eng = make_engine(view, self_id=3)
    eng.on_subproto_output()
    assert eng.output_log == ["a"]
    eng.on_input("a")
    assert eng.inputs == []
    eng.on_input("b")
    assert eng.inputs == ["b"]


def test_leader_reproposes_value_stuck_on_undecided_ancestor():
    view = ViewStub(rb={0: Proposal("a", None)})
    eng = make_engine(view, self_id=1, inputs=("a",))
    actions, _ = eng.on_subproto_output()
    assert Input(rb_key(1), Proposal("a", 0)) in actions


def test_highest_fertile_parent_preferred():
    view = ViewStub(rb={0: Proposal("a", None), 2: Proposal("b", 0)},
                    wba={1: 0, 3: 0})
    eng = make_engine(view, self_id=0, inputs=("x",))
    eng.current = 4
    actions, _ = eng.on_subproto_output()
    assert Input(rb_key(4), Proposal("x", 2)) in actions


def test_leader_without_fertile_parent_waits():
    # Round 0's RB output is not a Proposal: the node moves past it, but it
    # is neither accepted nor skippable, so round 1 has no fertile parent.
    view = ViewStub(rb={0: "junk"})
    eng = make_engine(view, self_id=1, inputs=("a",))
    actions, _ = eng.on_subproto_output()
    assert eng.current == 1
    assert not inputs_of(actions, Kind.RB)
    view.wba[0] = 0
    actions, _ = eng.on_subproto_output()
    assert Input(rb_key(1), Proposal("a", None)) in actions


def test_rb_output_arriving_below_known_rounds_is_voted():
    view = ViewStub(rb={0: Proposal("a", None), 2: Proposal("c", 1)},
                    inputs_made=[wba_key(0)])
    eng = make_engine(view, self_id=3)
    actions, _ = eng.on_subproto_output()
    assert not inputs_of(actions, Kind.WBA)
    view.rb[1] = Proposal("b", 0)
    actions, _ = eng.on_subproto_output()
    assert inputs_of(actions, Kind.WBA) == [Input(wba_key(1), 1), Input(wba_key(2), 1)]
    assert eng.current == 3
