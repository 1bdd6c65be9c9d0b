from dataclasses import replace

import pytest

from abcast.bracha import BrachaMsg
from abcast.core import LeaderSchedule, Params
from abcast.engine import Proposal
from abcast.gossip import (
    ECHO,
    INITIAL,
    VOTE,
    GossipRb,
    GossipWba,
    SignatureScheme,
    SignedMsg,
    canonical,
    digest,
    machine_factory,
    make_signed,
    signed_payload,
)
from abcast.scenario import scenario_from_dict
from abcast.simnet import AdversaryApi, Driver, Simulation, run
from abcast.subproto import Input, InstanceKey, Kind, Output, parse_key

PARAMS = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
RB_KEY = InstanceKey(Kind.RB, 0)
WBA_KEY = InstanceKey(Kind.WBA, 0)
SCHEME = SignatureScheme(seed=0, n=5)


def rb_at(self_id, proposer=0, digest_mode=False):
    return GossipRb(RB_KEY, PARAMS, proposer, self_id, SCHEME, digest_mode)


def wba_at(self_id):
    return GossipWba(WBA_KEY, PARAMS, self_id, SCHEME)


def echo(signer, value, digest_mode=False):
    payload = digest(value) if digest_mode else value
    return make_signed(SCHEME, signer, RB_KEY, ECHO, payload)


def test_sign_verify_round_trip():
    payload = signed_payload(RB_KEY, ECHO, "a")
    sig = SCHEME.sign(2, payload)
    assert SCHEME.verify(2, payload, sig)
    assert not SCHEME.verify(1, payload, sig)
    assert not SCHEME.verify(2, payload + b"x", sig)
    assert not SCHEME.verify(9, payload, sig)


def test_verify_keeps_its_verdicts_apart(monkeypatch):
    """A genuine message is hashed once however often it is verified, and
    not again by the scheme that signed it; a verdict kept for it answers
    neither a forged signer nor a tampered payload; a machine still counts
    each failing receipt."""
    scheme = SignatureScheme(seed=3, n=4)
    signer = SignatureScheme(seed=3, n=4)          # the same keys, its own verdicts
    signed = []
    sign = SignatureScheme.sign
    monkeypatch.setattr(SignatureScheme, "sign",
                        lambda self, *args: signed.append(args) or sign(self, *args))
    payload = signed_payload(WBA_KEY, VOTE, 1)
    sig = sign(signer, 2, payload)
    tampered = signed_payload(WBA_KEY, VOTE, 0)
    for _ in range(3):
        assert scheme.verify(2, payload, sig) and signer.verify(2, payload, sig)
        assert not scheme.verify(1, payload, sig)
        assert not scheme.verify(2, tampered, sig)
        assert not scheme.verify(7, payload, sig)
    assert signed == [(2, payload), (1, payload), (2, tampered)]
    m = GossipWba(WBA_KEY, PARAMS, 0, scheme)
    good = make_signed(scheme, 2, WBA_KEY, VOTE, 1)
    for _ in range(2):
        assert m.step(SignedMsg(WBA_KEY, VOTE, 1, 1, good.sig)) == []
        assert m.step(SignedMsg(WBA_KEY, VOTE, 0, 2, good.sig)) == []
    assert m.invalid_sigs == 4
    m.step(good)
    assert m.vote_signers == {1: {2}}


def test_signature_binds_instance_and_kind():
    vote_sig = SCHEME.sign(1, signed_payload(WBA_KEY, VOTE, 1))
    other_round = InstanceKey(Kind.WBA, 3)
    assert not SCHEME.verify(1, signed_payload(other_round, VOTE, 1), vote_sig)
    assert not SCHEME.verify(1, signed_payload(WBA_KEY, ECHO, 1), vote_sig)


def test_digest_is_stable():
    assert digest({"b": 1, "a": 2}) == digest({"a": 2, "b": 1})
    assert digest("a") != digest("b")


def test_initial_triggers_signed_echo():
    m = rb_at(1)
    out = m.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "a"))
    assert out == [make_signed(SCHEME, 1, RB_KEY, ECHO, "a")]
    proposer = rb_at(0)
    out = proposer.step(Input(RB_KEY, "a"))
    assert out == [make_signed(SCHEME, 0, RB_KEY, INITIAL, "a")]


def test_forged_signature_rejected_and_counted():
    m = rb_at(1)
    good = make_signed(SCHEME, 2, RB_KEY, ECHO, "a")
    forged = SignedMsg(RB_KEY, ECHO, "a", 3, good.sig)
    assert m.step(forged) == []
    assert m.invalid_sigs == 1
    assert m.echo_signers == {}


def test_quorum_of_echo_signers_outputs():
    m = rb_at(3)
    m.step(echo(0, "a"))
    m.step(echo(1, "a"))
    out = m.step(echo(2, "a"))
    assert out == [Output("a")]
    assert m.step(echo(3, "a")) == []


def test_echo_equivocation_kept_as_evidence_not_tallied():
    m = rb_at(3)
    m.step(echo(0, "a"))
    m.step(echo(0, "b"))
    assert m.echo_signers["a"] == {0}
    assert "b" not in m.echo_signers
    assert m.equivocations == {0: ["b"]}
    m.step(echo(1, "a"))
    assert m.step(echo(0, "a")) == []
    assert len(m.echo_signers["a"]) == 2


def test_observer_echo_not_counted():
    m = rb_at(3)
    m.step(echo(0, "a"))
    m.step(echo(4, "a"))
    assert m.echo_signers["a"] == {0}


def test_digest_mode_waits_for_initial():
    m = rb_at(3, digest_mode=True)
    m.step(echo(0, "a", digest_mode=True))
    m.step(echo(1, "a", digest_mode=True))
    # Quorum of digest echoes alone cannot reconstruct the value.
    assert m.step(echo(2, "a", digest_mode=True)) == []
    assert not m.delivered
    out = m.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "a"))
    assert Output("a") in out
    assert m.delivered


def test_digest_mode_initial_first():
    m = rb_at(3, digest_mode=True)
    m.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "a"))
    m.step(echo(0, "a", digest_mode=True))
    m.step(echo(1, "a", digest_mode=True))
    out = m.step(echo(2, "a", digest_mode=True))
    assert out == [Output("a")]


def test_digest_mode_mismatched_initial_never_outputs():
    m = rb_at(3, digest_mode=True)
    m.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "z"))
    m.step(echo(0, "a", digest_mode=True))
    m.step(echo(1, "a", digest_mode=True))
    assert m.step(echo(2, "a", digest_mode=True)) == []
    assert not m.delivered


def test_initial_equivocation_evidence():
    m = rb_at(3)
    m.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "a"))
    m.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "b"))
    assert m.equivocations == {0: ["b"]}
    assert m.initial_value == "a"


def test_wba_vote_once_and_quorum_output():
    m = wba_at(3)
    out = m.step(Input(WBA_KEY, 1))
    assert out == [make_signed(SCHEME, 3, WBA_KEY, VOTE, 1)]
    m.step(make_signed(SCHEME, 0, WBA_KEY, VOTE, 1))
    m.step(make_signed(SCHEME, 1, WBA_KEY, VOTE, 1))
    out = m.step(make_signed(SCHEME, 2, WBA_KEY, VOTE, 1))
    assert out == [Output(1)]


def test_wba_split_votes_never_output():
    m = wba_at(3)
    m.step(make_signed(SCHEME, 0, WBA_KEY, VOTE, 0))
    m.step(make_signed(SCHEME, 1, WBA_KEY, VOTE, 0))
    m.step(make_signed(SCHEME, 2, WBA_KEY, VOTE, 1))
    m.step(make_signed(SCHEME, 3, WBA_KEY, VOTE, 1))
    assert not m.delivered
    assert m.vote_signers == {0: {0, 1}, 1: {2, 3}}


def test_wba_vote_equivocation_first_counts():
    m = wba_at(3)
    m.step(make_signed(SCHEME, 0, WBA_KEY, VOTE, 0))
    m.step(make_signed(SCHEME, 0, WBA_KEY, VOTE, 1))
    assert m.vote_signers == {0: {0}}
    assert m.equivocations == {0: [1]}


def test_wba_forged_vote_rejected():
    m = wba_at(3)
    good = make_signed(SCHEME, 0, WBA_KEY, VOTE, 1)
    m.step(SignedMsg(WBA_KEY, VOTE, 1, 1, good.sig))
    assert m.invalid_sigs == 1
    assert m.vote_signers == {}


NOT_STEPPABLE = {
    "None": None, "int": 7, "str": "vote", "object": object(),
    "action": Output(1),
    "bracha message": BrachaMsg(WBA_KEY, VOTE, 1, 0),
    "rb message of another round": make_signed(SCHEME, 0, InstanceKey(Kind.RB, 1),
                                               INITIAL, "a"),
    "wba message of another round": make_signed(SCHEME, 0, InstanceKey(Kind.WBA, 1),
                                                VOTE, 1),
}


@pytest.mark.parametrize("event", NOT_STEPPABLE.values(), ids=list(NOT_STEPPABLE))
def test_step_ignores_what_it_cannot_handle(event):
    # Neither an Input nor a signed message of the machine's instance.
    for m in (rb_at(1), wba_at(1)):
        assert m.step(event) == []
        assert m.invalid_sigs == 0 and m.equivocations == {}


def test_step_ignores_the_other_instance_of_its_round():
    # Each message would count were its instance the machine's own.
    rb, wba = rb_at(1), wba_at(1)
    assert rb.step(make_signed(SCHEME, 0, WBA_KEY, INITIAL, "a")) == []
    assert wba.step(make_signed(SCHEME, 0, RB_KEY, VOTE, 1)) == []
    assert not rb.has_initial and wba.vote_signers == {}
    rb.step(make_signed(SCHEME, 0, RB_KEY, INITIAL, "a"))
    wba.step(make_signed(SCHEME, 0, WBA_KEY, VOTE, 1))
    assert rb.has_initial and wba.vote_signers == {1: {0}}


def test_factory_builds_both_kinds():
    make = machine_factory(PARAMS, LeaderSchedule(4), 2, SCHEME, digest_mode=True)
    rb = make(InstanceKey(Kind.RB, 6))
    assert isinstance(rb, GossipRb)
    assert rb.proposer == 2 and rb.digest_mode
    assert isinstance(make(InstanceKey(Kind.WBA, 6)), GossipWba)


def test_equal_signed_messages_hash_equal_and_forgeries_stay_distinct():
    a = make_signed(SCHEME, 1, RB_KEY, INITIAL, Proposal("v", 0, 3))
    b = make_signed(SCHEME, 1, RB_KEY, INITIAL, Proposal("v", 0, 3))
    assert a is not b and a == b and hash(a) == hash(b)
    forged = SignedMsg(a.instance, a.kind, a.payload, 2, a.sig)
    assert hash(forged) == hash(a) and forged != a
    assert len({a, b, forged}) == 2


def _deliveries(trace):
    """Each `deliver` event with the fields of the send event it names."""
    return [(ev, trace.events[ev.data["msg"]].data) for ev in trace.iter_kind("deliver")]


def test_forged_copy_is_gossiped_as_its_own_message():
    """Node 3 gossips its vote to node 1 and, once every node has it, a copy
    with the same sig naming signer 2.  Sharing a hash must not make the
    forgery a duplicate: every correct node gets both through node 1's
    relay, and rejects the forgery's signature."""
    vote = {"op": "gossip", "to": [1], "instance": "wba/5", "mkind": "vote",
            "payload": 1}
    doc = {
        "version": 1,
        "params": {"n": 4, "f": 1, "delta": 2, "gst": 0, "Delta": 6},
        "backend": "gossip",
        "adversaries": [{"kind": "scripted", "node": 3, "script": [
            {**vote, "time": 1}, {**vote, "time": 20, "forge_signer": 2}]}],
        "sim": {"horizon": 40, "delay_law": "uniform"},
    }
    sim = Simulation(scenario_from_dict(doc).config_for())
    trace = sim.run()
    delivered = {(ev.node, msg["from"]) for ev, msg in _deliveries(trace)
                 if msg["instance"] == "wba/5"}
    assert delivered == {(node, signer) for node in (0, 1, 2) for signer in (3, 2)}
    for node in (0, 1, 2):
        machine = sim.runtimes[node].table.slot(InstanceKey(Kind.WBA, 5)).machine
        assert machine.invalid_sigs == 1
        assert machine.vote_signers == {1: {3}}


def test_signed_bytes_are_the_signed_payload():
    prop = Proposal("v", 0, 3)
    msg = make_signed(SCHEME, 1, RB_KEY, INITIAL, prop)
    assert msg.signed_bytes == signed_payload(RB_KEY, INITIAL, prop)
    assert SCHEME.verify(1, msg.signed_bytes, msg.sig)
    # a message built by hand encodes its own fields
    rebuilt = SignedMsg(msg.instance, msg.kind, msg.payload, msg.signer, msg.sig)
    assert rebuilt.signed_bytes == msg.signed_bytes
    other = replace(msg, payload=Proposal("w", 0, 3))
    assert other.signed_bytes == signed_payload(RB_KEY, INITIAL, Proposal("w", 0, 3))
    assert not SCHEME.verify(1, other.signed_bytes, other.sig)


class _TamperDriver(Driver):
    """Gossips its own signed vote, and from t=20 a copy of it with one
    field changed but the signature kept."""

    def __init__(self, change):
        self.change = change
        self.tampered = None

    def on_start(self, api: AdversaryApi, done: set) -> None:
        vote = api.message(InstanceKey(Kind.WBA, 5), VOTE, 1)
        api.send(vote)
        self.tampered = replace(vote, **self.change)

    def on_deliver(self, api: AdversaryApi, done: set, msg) -> None:
        if api.now >= 20 and self.tampered is not None:
            api.send(self.tampered)
            self.tampered = None


@pytest.mark.parametrize("change, fields", [({"payload": 0}, (0, 3)),
                                            ({"signer": 2}, (1, 2))])
def test_tampered_copy_fails_verify_at_every_correct_node(change, fields):
    doc = {
        "version": 1,
        "params": {"n": 4, "f": 1, "delta": 2, "gst": 0, "Delta": 6},
        "backend": "gossip",
        "adversaries": [{"kind": "silent_leader", "node": 3}],
        "injections": [{"time": 0, "node": 0, "value": "a"}],
        "sim": {"horizon": 60, "delay_law": "uniform"},
    }
    sim = Simulation(scenario_from_dict(doc).config_for())
    sim.faulty[3].stack = [(_TamperDriver(change), set())]
    trace = sim.run()
    got = [(ev.node, (msg["payload"], msg["from"])) for ev, msg in _deliveries(trace)
           if msg["instance"] == "wba/5" and ev.node != 3]
    assert sorted(got) == sorted((node, msg) for node in (0, 1, 2)
                                 for msg in ((1, 3), fields))
    for node in (0, 1, 2):
        machine = sim.runtimes[node].table.slot(InstanceKey(Kind.WBA, 5)).machine
        assert machine.invalid_sigs == 1
        assert machine.vote_signers == {1: {3}}


@pytest.mark.parametrize("key", [RB_KEY, InstanceKey(Kind.WBA, 7)], ids=str)
@pytest.mark.parametrize("kind, payload", [(INITIAL, Proposal("v", None, 3)),
                                           (ECHO, "v"), (VOTE, 1)])
def test_signed_bytes_spell_the_kind_by_its_value(key, kind, payload):
    """The kind is signed as its value, which is also how a trace spells
    it, so a reader can check a recorded signature from the trace alone."""
    assert (signed_payload(key, kind, payload)
            == canonical([key.kind.value, key.round, kind, payload]))


def test_gossip_events_carry_their_signature():
    """A forged copy names another signer under the genuine copy's
    signature.  A v2 `gossip` event records the signature, so the two differ
    in the trace, and a reader can verify each from the trace alone: only
    the forged copy fails.  The v1 text carries no signature."""
    from test_determinism import CASES
    make, seeds = CASES["stream_n4_forge/gossip"]
    cfg = make(seeds[0])
    trace = run(cfg)
    scheme = SignatureScheme(cfg.seed, cfg.params.n)

    def verifies(data):
        key = parse_key(data["instance"])
        signed = canonical([key.kind.value, key.round, data["mkind"], data["payload"]])
        return scheme.verify(data["from"], signed, data["sig"])

    gossips = list(trace.iter_kind("gossip"))
    assert gossips and all(type(ev.data["sig"]) is str for ev in gossips)
    driven = [ev.data for ev in gossips if ev.node == 3]
    assert len(driven) == 8                  # four script entries, each also forged
    for genuine, forged in zip(driven[::2], driven[1::2]):
        assert (genuine["from"], forged["from"]) == (3, 1)
        assert forged["sig"] == genuine["sig"]
        assert verifies(genuine) and not verifies(forged)
    assert all(verifies(ev.data) for ev in gossips if ev.node != 3)
    assert '"sig":' in trace.to_jsonl()
