import itertools
import random

import pytest

from abcast.bracha import (
    ECHO,
    INITIAL,
    READY,
    VOTE,
    BrachaMsg,
    BrachaRb,
    BrachaWba,
    machine_factory,
)
from abcast.core import LeaderSchedule, Params
from abcast.gossip import SignatureScheme, make_signed
from abcast.subproto import Input, InstanceKey, Kind, Output

PARAMS = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
RB_KEY = InstanceKey(Kind.RB, 0)
WBA_KEY = InstanceKey(Kind.WBA, 0)


def rb_at(self_id, proposer=0):
    return BrachaRb(RB_KEY, PARAMS, proposer, self_id)


def recv(machine, kind, payload, sender, key=None):
    return machine.step(BrachaMsg(key or machine.key, kind, payload, sender))


def test_proposer_input_sends_initial():
    m = rb_at(0)
    out = m.step(Input(RB_KEY, "a"))
    assert out == [BrachaMsg(RB_KEY, INITIAL, "a", 0)]


def test_initial_from_proposer_triggers_echo():
    m = rb_at(1)
    out = recv(m, INITIAL, "a", 0)
    assert out == [BrachaMsg(RB_KEY, ECHO, "a", 1)]
    # A second initial changes nothing, even with a different value.
    assert recv(m, INITIAL, "b", 0) == []


def test_initial_from_non_proposer_ignored():
    m = rb_at(1)
    assert recv(m, INITIAL, "a", 2) == []
    assert not m.sent_echo


def test_quorum_of_echoes_brings_ready():
    # Node 3 heard no initial.  Echoes from 0, 1, 2 reach the quorum of 3,
    # which triggers both its echo and its ready in one step.
    m = rb_at(3)
    assert recv(m, ECHO, "a", 0) == []
    assert recv(m, ECHO, "a", 1) == []
    out = recv(m, ECHO, "a", 2)
    assert out == [
        BrachaMsg(RB_KEY, ECHO, "a", 3),
        BrachaMsg(RB_KEY, READY, "a", 3),
    ]


def test_ready_amplification_at_f_plus_one():
    m = rb_at(3)
    assert recv(m, READY, "a", 0) == []
    out = recv(m, READY, "a", 1)
    assert out == [
        BrachaMsg(RB_KEY, ECHO, "a", 3),
        BrachaMsg(RB_KEY, READY, "a", 3),
    ]


def test_output_at_two_f_plus_one_readies():
    m = rb_at(3)
    recv(m, READY, "a", 0)
    recv(m, READY, "a", 1)
    out = recv(m, READY, "a", 2)
    assert out == [Output("a")]
    assert recv(m, READY, "a", 3) == []


def test_duplicate_and_foreign_senders_dropped():
    m = rb_at(3)
    recv(m, ECHO, "a", 0)
    assert recv(m, ECHO, "a", 0) == []
    # Sender 4 is not a validator, so its echo never counts.
    assert recv(m, ECHO, "a", 4) == []
    assert recv(m, ECHO, "a", 1) == []
    assert len(m.echoes["a"]) == 2


def test_equivocating_sender_counted_once_per_value():
    m = rb_at(3)
    recv(m, ECHO, "a", 0)
    recv(m, ECHO, "b", 0)
    assert m.echoes["a"] == {0}
    assert m.echoes["b"] == {0}
    # Neither value has a quorum, so nothing was sent.
    assert not m.sent_echo


def test_echo_sent_once_per_instance():
    m = rb_at(1)
    recv(m, INITIAL, "a", 0)
    assert m.sent_echo
    # Readies for another value amplify a ready but cannot re-echo.
    recv(m, READY, "b", 2)
    out = recv(m, READY, "b", 3)
    assert out == [BrachaMsg(RB_KEY, READY, "b", 1)]


def test_observer_delivers_but_never_sends():
    m = rb_at(4)
    assert recv(m, INITIAL, "a", 0) == []
    recv(m, READY, "a", 0)
    recv(m, READY, "a", 1)
    out = recv(m, READY, "a", 2)
    assert out == [Output("a")]
    assert not m.sent_echo and not m.sent_ready


def test_wba_input_sends_vote():
    m = BrachaWba(WBA_KEY, PARAMS, 2)
    out = m.step(Input(WBA_KEY, 1))
    assert out == [BrachaMsg(WBA_KEY, VOTE, 1, 2)]
    assert m.step(Input(WBA_KEY, 0)) == []
    assert BrachaWba(WBA_KEY, PARAMS, 2).step(Input(WBA_KEY, "x")) == []
    assert BrachaWba(WBA_KEY, PARAMS, 4).step(Input(WBA_KEY, 1)) == []


def test_wba_quorum_votes_then_output():
    m = BrachaWba(WBA_KEY, PARAMS, 3)
    recv(m, VOTE, 0, 0)
    recv(m, VOTE, 0, 1)
    out = recv(m, VOTE, 0, 2)
    assert out == [
        BrachaMsg(WBA_KEY, VOTE, 0, 3),
        BrachaMsg(WBA_KEY, READY, 0, 3),
    ]
    recv(m, READY, 0, 0)
    recv(m, READY, 0, 1)
    out = recv(m, READY, 0, 2)
    assert out == [Output(0)]


def test_wba_ready_amplification():
    m = BrachaWba(WBA_KEY, PARAMS, 3)
    recv(m, READY, 1, 0)
    out = recv(m, READY, 1, 1)
    assert out == [
        BrachaMsg(WBA_KEY, VOTE, 1, 3),
        BrachaMsg(WBA_KEY, READY, 1, 3),
    ]


def test_wba_split_votes_no_progress():
    m = BrachaWba(WBA_KEY, PARAMS, 3)
    recv(m, VOTE, 0, 0)
    recv(m, VOTE, 1, 1)
    recv(m, VOTE, 0, 2)
    # Own vote for 1 on input, but neither bit collects a vote quorum
    # among {0:{0,2}, 1:{1,3}} so no ready ever goes out.
    m.step(Input(WBA_KEY, 1))
    assert m.sent_echo and not m.sent_ready


def test_rb_delivery_order_invariance():
    # Whatever order the same message multiset arrives in, node 3 ends up
    # delivering "a" and sending exactly one echo and one ready.
    msgs = [BrachaMsg(RB_KEY, INITIAL, "a", 0)]
    for s in (0, 1, 2):
        msgs.append(BrachaMsg(RB_KEY, ECHO, "a", s))
        msgs.append(BrachaMsg(RB_KEY, READY, "a", s))
    rng = random.Random(7)
    for _ in range(30):
        order = msgs[:]
        rng.shuffle(order)
        m = rb_at(3)
        sent = []
        for msg in order:
            sent.extend(m.step(msg))
        assert sent.count(Output("a")) == 1
        kinds = [a.kind for a in sent if isinstance(a, BrachaMsg)]
        assert sorted(kinds) == [ECHO, READY]


NOT_STEPPABLE = {
    "None": None, "int": 7, "str": "echo", "object": object(),
    "action": Output(1),
    "gossip message": make_signed(SignatureScheme(0, 4), 0, RB_KEY, INITIAL, "a"),
    "rb message of another round": BrachaMsg(InstanceKey(Kind.RB, 1), INITIAL, "a", 0),
    "wba message of another round": BrachaMsg(InstanceKey(Kind.WBA, 1), VOTE, 1, 0),
}


@pytest.mark.parametrize("event", NOT_STEPPABLE.values(), ids=list(NOT_STEPPABLE))
def test_step_ignores_what_it_cannot_handle(event):
    # Neither an Input nor a bracha message of the machine's instance.
    assert rb_at(1).step(event) == []
    assert BrachaWba(WBA_KEY, PARAMS, 1).step(event) == []


def test_step_ignores_the_other_instance_of_its_round():
    # Each message would count were its instance the machine's own.
    rb, wba = rb_at(1), BrachaWba(WBA_KEY, PARAMS, 1)
    assert rb.step(BrachaMsg(WBA_KEY, INITIAL, "a", 0)) == [] and not rb.has_initial
    assert wba.step(BrachaMsg(RB_KEY, VOTE, 1, 0)) == [] and wba.echoes == {}
    rb.step(BrachaMsg(RB_KEY, INITIAL, "a", 0))
    wba.step(BrachaMsg(WBA_KEY, VOTE, 1, 0))
    assert rb.has_initial and wba.echoes == {1: {0}}


def test_factory_wires_proposer_from_schedule():
    make = machine_factory(PARAMS, LeaderSchedule(4), self_id=2)
    rb = make(InstanceKey(Kind.RB, 5))
    assert isinstance(rb, BrachaRb)
    assert rb.proposer == 1
    wba = make(InstanceKey(Kind.WBA, 5))
    assert isinstance(wba, BrachaWba)
