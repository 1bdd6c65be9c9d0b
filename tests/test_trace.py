import dataclasses
import hashlib
import json
import random
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcast import trace as trace_module
from abcast.checks import run_checks
from abcast.scenario import scenario_from_dict
from abcast.simnet import ScriptedSpec
from abcast.subproto import Kind
from abcast.trace import Trace, TraceEvent
from test_determinism import _FORGE_SCRIPT, _stream


def sample_trace():
    t = Trace(seed=7, meta={"backend": "bracha", "n": 4})
    t.append(0, "start", 0)
    t.append(0, "inject", 1, {"value": "v"})
    t.append(3, "advance", 0, {"round": 1})
    t.append(5, "advance", 0, {"round": 2})
    t.append(5, "sub_output", 2, {"instance": "rb/0", "value": "v"})
    t.append(9, "ab_output", 0, {"value": "v", "round": 0, "position": 0})
    return t


def test_round_trip_preserves_everything():
    t = sample_trace()
    text = t.to_jsonl()
    back = Trace.from_jsonl(text)
    assert back.seed == 7
    assert back.meta == {"backend": "bracha", "n": 4}
    assert back.to_jsonl() == text
    assert [ev.kind for ev in back.events] == [ev.kind for ev in t.events]
    assert back.events[1].data == {"value": "v"}


def test_sequence_numbers_are_dense_and_ordered():
    t = sample_trace()
    assert [ev.seq for ev in t.events] == list(range(6))
    back = Trace.from_jsonl(t.to_jsonl())
    back.append(11, "finalize", 0, {"round": 0})
    assert back.events[-1].seq == 6


def test_an_event_without_data_gets_a_fresh_dict():
    t = Trace()
    first, second = t.append(0, "start", 0), t.append(0, "start", 1)
    first.data["x"] = 1
    assert second.data == {} and t.append(1, "start", 2).data == {}


def test_views():
    t = sample_trace()
    assert list(t.ab_outputs()) == [0]
    assert t.sub_outputs()[(2, "rb/0")].time == 5
    assert [ev.data["round"] for ev in t.advances()[0]] == [1, 2]
    assert t.current_round_at(0, 2) == 0
    assert t.current_round_at(0, 3) == 1
    assert t.current_round_at(0, 99) == 2
    assert t.current_round_at(1, 99) == 0


def test_event_json_is_stable():
    ev = TraceEvent(3, 12, "advance", 1, {"round": 4})
    assert ev.to_json() == '{"kind":"advance","node":1,"round":4,"seq":12,"time":3}'


def test_an_event_has_exactly_the_fields_append_and_from_jsonl_store():
    """`Trace.append` and `from_jsonl` store these five fields one by one
    instead of calling `TraceEvent`: a field added here must be stored
    there too."""
    fields = ("time", "seq", "kind", "node", "data")
    assert tuple(f.name for f in dataclasses.fields(TraceEvent)) == fields
    assert TraceEvent.__slots__ == fields
    t = Trace()
    ev = t.append(3, "advance", 1, {"round": 4})
    assert ev == TraceEvent(3, 0, "advance", 1, {"round": 4})
    assert Trace.from_jsonl(t.to_jsonl()).events == [ev]


@pytest.mark.parametrize("key", ["time", "seq", "kind", "node"])
def test_a_data_key_may_not_name_a_field_of_its_event(key):
    t = Trace(seed=3)
    t.append(0, "start", 0)
    t.append(4, "y", 1, {key: 99})
    message = f"event 1 data: key '{key}' would overwrite"
    with pytest.raises(ValueError, match=message):
        t.to_jsonl()
    with pytest.raises(ValueError, match=message):
        t.events[1].to_json()


@pytest.mark.parametrize("meta", [{"seed": 9, "version": 1}, {"seed": 9},
                                  {"version": 1}, {"kind": "trace"}])
def test_a_meta_key_may_not_name_a_field_of_the_header(meta):
    with pytest.raises(ValueError, match="trace meta: key '") as refused:
        Trace(seed=3, meta=meta).to_jsonl()
    assert str(refused.value).split("'")[1] in meta


def test_rejects_malformed_input():
    with pytest.raises(ValueError):
        Trace.from_jsonl("")
    with pytest.raises(ValueError):
        Trace.from_jsonl('{"time":0,"seq":0,"kind":"start"}\n')
    bad_version = '{"kind":"trace_header","version":99,"seed":0}\n'
    with pytest.raises(ValueError):
        Trace.from_jsonl(bad_version)


@pytest.mark.parametrize("version", ["true", "1.0", '"1"', "null"])
def test_rejects_a_header_version_that_only_equals_1(version):
    header = '{"kind":"trace_header","version":%s,"seed":0}\n' % version
    with pytest.raises(ValueError, match="unsupported trace version"):
        Trace.from_jsonl(header)


HEADER = '{"kind":"trace_header","seed":0,"version":1}'
START = '{"kind":"start","node":0,"seq":0,"time":0}'
# `from_jsonl` reads its lines in chunks of `_CHUNK` characters: the default,
# one line per chunk, and a few lines per chunk.
CHUNKS = {"default": trace_module._CHUNK, "1": 1, "64": 64}
DEEP = sys.getrecursionlimit() + 10


def _decoded(text: str):
    """`from_jsonl`'s events, or the message of its ValueError."""
    try:
        back = Trace.from_jsonl(text)
    except ValueError as exc:
        return str(exc)
    return [(ev.time, ev.seq, ev.kind, ev.node, ev.data) for ev in back.events]


def _per_line(text: str):
    """`_decoded` with the whole text read line by line, as `splitlines`
    splits it, and no scanner pass over a chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_records",
                   lambda text: trace_module._line_values(text.splitlines(), 1))
        return _decoded(text)


@pytest.mark.parametrize("line", [
    "{}", "1", "[]", '"start"', "null",
    START + "," + START, START + " " + START, "[" + START + "]",
    START + " ,\t" + START,
    # one object split over two lines: each line alone is not JSON
    '{"a":[{}\n{}]},{"b":1}',
    # the same ending in one object, with a carriage return before the
    # next object, and with an element after it that is no object
    '{"a":[{}\n{}]}', '{"a":[{}\n{}]}\r,{"b":1}', '{"a":[{}\n{}]},1',
    pytest.param('{"a":' * DEEP + "{}" + "}" * DEEP, id="nested_too_deep"),
    '{"seq":0,"kind":"start"}', '{"time":0,"kind":"start"}', '{"time":0,"seq":0}',
    '{"time":"0","seq":0,"kind":"start"}', '{"time":0,"seq":0.0,"kind":"start"}',
    '{"time":true,"seq":0,"kind":"start"}', '{"time":0,"seq":0,"kind":7}',
])
def test_rejects_a_line_that_is_not_one_event_object(monkeypatch, line):
    """With the message the line-by-line reader gives, at each chunk size."""
    text = "\n".join([HEADER, START, line]) + "\n"
    for chunk in CHUNKS.values():
        monkeypatch.setattr(trace_module, "_CHUNK", chunk)
        with pytest.raises(ValueError) as err:
            Trace.from_jsonl(text)
        assert str(err.value) == _per_line(text)


def test_a_line_nested_too_deep_names_its_line():
    with pytest.raises(ValueError, match="trace line 3 is nested too deep"):
        Trace.from_jsonl("\n".join([HEADER, START, '{"a":' * DEEP + "{}" + "}" * DEEP]))


def _start(seq: int, **fields) -> str:
    return json.dumps({"kind": "start", "node": 0, "seq": seq, "time": 0, **fields},
                      sort_keys=True, separators=(",", ":"), ensure_ascii=False)


CLEAN = [HEADER] + [_start(seq) for seq in range(6)]
# The clean text with other whitespace and line ends, which `from_jsonl` reads
# as it reads the clean one.
ODD_TEXTS = {
    "blank_lines": "\n".join([HEADER, "", _start(0), "  \t", _start(1), "", "",
                              *CLEAN[3:], "", " "]) + "\n",
    "crlf": "\r\n".join(CLEAN) + "\r\n",
    "surrounding_whitespace": "\n".join(f" {ln}\t " for ln in CLEAN),
    "no_final_newline": "\n".join(CLEAN),
}


@pytest.mark.parametrize("text", ODD_TEXTS.values(), ids=list(ODD_TEXTS))
@pytest.mark.parametrize("chunk", CHUNKS.values(), ids=list(CHUNKS))
def test_odd_but_valid_lines_decode_as_the_clean_text(monkeypatch, chunk, text):
    """At one line per chunk, every blank line begins or ends a chunk.  A
    line is numbered as `splitlines` numbers it, blank lines included."""
    expect = _decoded("\n".join(CLEAN) + "\n")
    monkeypatch.setattr(trace_module, "_CHUNK", chunk)
    assert _decoded(text) == _per_line(text) == expect
    bad = text + "\n" + '{"time":0}'
    with pytest.raises(ValueError, match=f"trace line {len(bad.splitlines())} needs"):
        Trace.from_jsonl(bad)


@pytest.mark.parametrize("chunk", CHUNKS.values(), ids=list(CHUNKS))
def test_non_ascii_text_decodes_line_by_line(monkeypatch, chunk):
    """A raw é is a character of its string; a raw U+2028 ends the line, as
    `splitlines` has it, and leaves an unterminated string behind."""
    monkeypatch.setattr(trace_module, "_CHUNK", chunk)
    accented = "\n".join(CLEAN[:3] + [_start(6, name="caf\u00e9")] + CLEAN[3:])
    events = _decoded(accented)
    assert events == _per_line(accented)
    assert events[2][4] == {"name": "caf\u00e9"}
    split = "\n".join(CLEAN[:3] + [_start(6, name="a\u2028b")] + CLEAN[3:])
    with pytest.raises(ValueError, match="Unterminated string") as err:
        Trace.from_jsonl(split)
    assert str(err.value) == _per_line(split)


def test_rejects_a_header_that_is_not_an_object():
    with pytest.raises(ValueError):
        Trace.from_jsonl("1\n" + START + "\n")


def test_event_lines_may_carry_surrounding_whitespace():
    back = Trace.from_jsonl(HEADER + "\n  " + START + " \n\n")
    assert back.to_jsonl() == HEADER + "\n" + START + "\n"


def message_trace():
    """A send to all, a send to node 2 alone, a gossip from node 1, and a
    delivery of each."""
    t = Trace(seed=1)
    vote = {"instance": "wba/0", "mkind": "vote", "payload": {"bit": 1}}
    t.append(0, "send", 0, {**vote, "from": 0, "to": "all"})
    t.append(0, "send", 0, {**vote, "from": 0, "to": [2]})
    t.append(0, "gossip", 1, {**vote, "from": 1, "sig": "00ff"})
    t.append(1, "deliver", 1, {"msg": 0})
    t.append(1, "deliver", 2, {"msg": 1})
    t.append(2, "deliver", 3, {"msg": 2, "gossip": 1})
    return t


# `message_trace()` as format v1 text, as the v1 writer spelled it out: each
# deliver carries its message's fields but `to`, and no event carries `sig`.
MESSAGE_V1 = """\
{"kind":"trace_header","seed":1,"version":1}
{"from":0,"instance":"wba/0","kind":"send","mkind":"vote","node":0,"payload":{"bit":1},"seq":0,"time":0,"to":"all"}
{"from":0,"instance":"wba/0","kind":"send","mkind":"vote","node":0,"payload":{"bit":1},"seq":1,"time":0,"to":[2]}
{"from":1,"instance":"wba/0","kind":"gossip","mkind":"vote","node":1,"payload":{"bit":1},"seq":2,"time":0}
{"from":0,"instance":"wba/0","kind":"deliver","mkind":"vote","node":1,"payload":{"bit":1},"seq":3,"time":1}
{"from":0,"instance":"wba/0","kind":"deliver","mkind":"vote","node":2,"payload":{"bit":1},"seq":4,"time":1}
{"from":1,"gossip":1,"instance":"wba/0","kind":"deliver","mkind":"vote","node":3,"payload":{"bit":1},"seq":5,"time":2}
"""


def test_v2_round_trips_and_a_v1_text_reads_each_message_spelled_out(monkeypatch):
    text = message_trace().to_jsonl()
    assert json.loads(text.splitlines()[0])["version"] == 2
    for chunk in CHUNKS.values():
        monkeypatch.setattr(trace_module, "_CHUNK", chunk)
        back = Trace.from_jsonl(text)
        assert back.version == 2 and back.to_jsonl() == text
        # a v1 file loads as v1 and writes back as it was
        old = Trace.from_jsonl(MESSAGE_V1)
        assert old.version == 1 and old.to_jsonl() == MESSAGE_V1
    vote = {"instance": "wba/0", "mkind": "vote", "payload": {"bit": 1}}
    assert old.events[2].data == {**vote, "from": 1}
    assert [ev.data for ev in old.iter_kind("deliver")] == [
        {**vote, "from": 0}, {**vote, "from": 0}, {**vote, "from": 1, "gossip": 1}]


@pytest.mark.parametrize("lines", [1, 2, 5])
def test_text_does_not_depend_on_the_lines_joined_at_a_time(monkeypatch, lines):
    t, old, empty = message_trace(), Trace.from_jsonl(MESSAGE_V1), Trace(seed=1)
    texts = [t.to_jsonl(), old.to_jsonl(), empty.to_jsonl()]
    monkeypatch.setattr(trace_module, "_LINES", lines)
    assert [t.to_jsonl(), old.to_jsonl(), empty.to_jsonl()] == texts


V1_FIXTURES = Path(__file__).with_name("fixtures") / "v1"
# What the seven stream checks report on either v1 fixture, as on the v2
# trace of the same run.
V1_FIXTURE_REPORT = [
    "PASS         safety",
    "INCONCLUSIVE liveness  (horizon 40 too short to oblige any of the 3 injections "
    "(need gst+156))",
    "PASS         wba_contract",
    "PASS         rb_contract",
    "PASS         round_advance  (rounds 1..2 on schedule)",
    "PASS         spread",
    "PASS         engine_invariants",
]


def v1_fixture_scenario(backend: str) -> dict:
    """The scenario of the run that `backend`'s v1 fixture holds:
    test_determinism's ``_stream(4, backend, 40, adversaries=(ScriptedSpec(3,
    _FORGE_SCRIPT),))`` at seed 0, with the seven stream checks."""
    return {"version": 1, "params": {"n": 4, "f": 1, "delta": 2, "gst": 0, "Delta": 6},
            "backend": backend,
            "adversaries": [{"kind": "scripted", "node": 3, "script": list(_FORGE_SCRIPT)}],
            "injections": [{"time": 10 * i, "node": i, "value": f"v{i}"} for i in range(4)],
            "sim": {"seed": 0, "horizon": 40, "delay_law": "uniform"},
            "checks": ["safety", "liveness", "wba_contract", "rb_contract",
                       "round_advance", "spread", "engine_invariants"]}


# Each fixture was written once by the v1 writer, which no longer exists:
# bracha's covers per-target `to` lists and sends to all; gossip's covers
# forged-signer copies, which v1 records without `sig`.
@pytest.mark.parametrize("backend, digest", [
    ("bracha", "8014383146c72129c56b3a3d4fb61ec63675d51ee50263b23c0e68df3c4fd42e"),
    ("gossip", "ca3f174d0517fa716b45881c5e0cb0bcc6cc38568d1566bb85c49470b2de39ea"),
], ids=["bracha", "gossip"])
def test_a_v1_fixture_loads_as_v1_writes_back_and_checks_as_recorded(
        monkeypatch, backend, digest):
    text = (V1_FIXTURES / f"forge_n4_{backend}.jsonl").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    for chunk in CHUNKS.values():
        for lines in (1, 2, 512):
            monkeypatch.setattr(trace_module, "_CHUNK", chunk)
            monkeypatch.setattr(trace_module, "_LINES", lines)
            trace = Trace.from_jsonl(text)
            assert trace.version == 1 and trace.to_jsonl() == text
    scenario = scenario_from_dict(v1_fixture_scenario(backend))
    cfg = scenario.config_for(0)
    assert cfg == _stream(4, backend, 40, adversaries=(ScriptedSpec(3, _FORGE_SCRIPT),))(0)
    reports = run_checks(trace, scenario.context_for(cfg), scenario.checks)
    assert [r.line() for r in reports] == V1_FIXTURE_REPORT


@pytest.mark.parametrize("fields", [{"gossip": 1, "extra": [0]}, {"gossip": 2},
                                    {"gossip": "y"}, {"note": None}])
def test_a_v2_deliver_keeps_odd_fields(fields):
    """A deliver whose fields are not the recorder's keeps them as they are."""
    t = message_trace()
    t.events[5].data = {"msg": 2, **fields}
    text = t.to_jsonl()
    back = Trace.from_jsonl(text)
    assert back.events[5].data == {"msg": 2, **fields}
    assert back.to_jsonl() == text


@pytest.mark.parametrize("data", [{}, {"msg": True}, {"msg": "0"}, {"msg": 0.0}])
def test_a_v2_deliver_needs_an_int_msg(data):
    t = message_trace()
    t.events[3].data = data
    with pytest.raises(ValueError, match="deliver needs an int node and an int msg"):
        Trace.from_jsonl(t.to_jsonl())


def test_current_round_at_matches_a_rescan():
    rng = random.Random(7)
    t = Trace()
    for _ in range(200):
        t.append(rng.randint(0, 50), "advance", rng.randint(0, 2),
                 {"round": rng.randint(1, 30)})
    for node in range(4):
        for when in range(-1, 52):
            expect = max((ev.data["round"] for ev in t.events
                          if ev.kind == "advance" and ev.node == node
                          and ev.time <= when), default=0)
            assert t.current_round_at(node, when) == expect
    # The index follows a trace that grows after it was built.
    t.append(60, "advance", 0, {"round": 99})
    assert t.current_round_at(0, 60) == 99


def test_views_see_events_appended_after_an_earlier_call():
    t = sample_trace()
    views = (t.ab_outputs, t.sub_outputs, t.advances)
    before = [view() for view in views]
    assert list(t.iter_kind("sub_input")) == []
    t.append(12, "ab_output", 1, {"value": "v", "round": 0, "position": 0})
    t.append(12, "sub_output", 1, {"instance": "rb/0", "value": "v"})
    t.append(12, "sub_input", 1, {"instance": "wba/0", "value": 1})
    t.append(12, "advance", 1, {"round": 1})
    after = [view() for view in views]
    assert 1 not in before[0] and after[0][1][0].time == 12
    assert (1, "rb/0") not in before[1] and after[1][(1, "rb/0")].time == 12
    assert [ev.data["value"] for ev in t.iter_kind("sub_input")] == [1]
    assert 1 not in before[2] and after[2][1][0].data["round"] == 1
    assert [ev.seq for ev in t.iter_kind("sub_input")] == [8]
    assert t.current_round_at(1, 12) == 1


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


# Strings that look like the JSON around them, plus any text at all.
_TRICKY = st.one_of(st.text(), st.sampled_from(
    ["},{", '"', "\\", '\\"', "\n", "{\"a\":[{}", "\u2028", "\x85", "\u00e9", "%s", "%"]))
# Values the line writers do not take: they go through the encoder.
_ODD = st.one_of(st.sampled_from([_Level.LOW, _Level.HIGH, Kind.RB]),
                 _TRICKY.map(_Text))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _TRICKY | _ODD,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TRICKY, inner, max_size=4),
    max_leaves=12)
_KEYS = _TRICKY.filter(lambda k: k not in ("time", "seq", "kind", "node"))
# Kinds that `from_jsonl` reads with no check of their fields: an event of a
# checked kind with drawn fields may fail to decode, as the malformed-trace
# tests in test_cli.py and the deliver tests here expect.
_KINDS = _TRICKY.filter(lambda k: k not in (*trace_module._FIELDS, "deliver"))
# An event's own fields, and the keys under which it holds a shared value.
_EVENT = st.tuples(
    st.integers(0, 10**6), _KINDS, st.none() | st.integers(0, 20),
    st.dictionaries(_KEYS, _JSON, max_size=4),
    st.dictionaries(_KEYS, st.integers(0, 2), max_size=2))
# Dicts and lists that several events hold, as the simulation's events share
# a message's payload.
_SHARED = st.lists(st.lists(_JSON, max_size=3) | st.dictionaries(_TRICKY, _JSON, max_size=3),
                   min_size=3, max_size=3)


def _dumped(trace: Trace) -> list[str]:
    """Each event's record as ``json.dumps`` writes it, keys sorted."""
    lines = []
    for ev in trace.events:
        rec = {"time": ev.time, "seq": ev.seq, "kind": ev.kind}
        if ev.node is not None:
            rec["node"] = ev.node
        rec.update(ev.data)
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return lines


def _fields(trace: Trace) -> list[tuple]:
    return [(ev.time, ev.seq, ev.kind, ev.node, ev.data) for ev in trace.events]


# Names that are JSON or %-format syntax, or not ASCII.
_ODD_NAMES = ("%", "{", "}", '"', "\\", "\u00e9", '%s{"}\\\u00e9')
# A value of each type in turn: the line writers take int, None, str, dict
# and list, and send the rest to `TraceEvent.to_json`.
_WRITTEN = (7, None, "s%{}", {"k": [1, None]}, ["x", {"y": 2}])
_SENT_ON = (True, 2.5, _Text("t"), _Level.HIGH)


def test_line_writers_take_what_they_can_and_send_the_rest_on(monkeypatch):
    """Each kind, with and without a node, carries one key set whose
    values change type from event to event."""
    t, kinds = Trace(seed=3), ("k", *_ODD_NAMES)
    for kind in kinds:
        for node in (None, 2):
            for value in _WRITTEN + _SENT_ON + _WRITTEN:
                t.append(len(t.events), kind, node,
                         {"a": value, **{name: value for name in _ODD_NAMES}})
    sent = []
    to_json = TraceEvent.to_json
    monkeypatch.setattr(TraceEvent, "to_json", lambda ev: sent.append(ev) or to_json(ev))
    text = t.to_jsonl()
    monkeypatch.undo()
    assert text.splitlines()[1:] == _dumped(t)
    assert [type(ev.data["a"]) for ev in sent] == [type(v) for v in _SENT_ON] * 2 * len(kinds)
    back = Trace.from_jsonl(text)
    assert _fields(back) == _fields(t) and back.to_jsonl() == text


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "fallback"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(events=st.lists(_EVENT, max_size=8), shared=_SHARED)
def test_lines_are_json_dumps_and_round_trip(c_encoder, events, shared):
    with pytest.MonkeyPatch.context() as mp:
        if not c_encoder:
            # no C accelerator: the encoder falls back to JSONEncoder.encode
            mp.setattr(json.encoder, "c_make_encoder", None)
            mp.setattr(trace_module, "_encode", trace_module.compact_encoder())
        t = Trace(seed=3, meta={"backend": "bracha"})
        for time, kind, node, data, refs in events:
            t.append(time, kind, node, {**data, **{k: shared[i] for k, i in refs.items()}})
        text = t.to_jsonl()
    assert text.splitlines()[1:] == _dumped(t)
    for chunk in CHUNKS.values():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace_module, "_CHUNK", chunk)
            back = Trace.from_jsonl(text)
        assert _fields(back) == _fields(t)
        assert back.to_jsonl() == text
