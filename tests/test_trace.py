import random

import pytest

from abcast.trace import Trace, TraceEvent


def sample_trace():
    t = Trace(seed=7, meta={"backend": "bracha", "n": 4})
    t.append(0, "start", 0)
    t.append(0, "inject", 1, value="v")
    t.append(3, "advance", 0, round=1)
    t.append(5, "advance", 0, round=2)
    t.append(5, "sub_output", 2, instance="rb/0", value="v")
    t.append(9, "ab_output", 0, value="v", round=0, position=0)
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
    back.append(11, "finalize", 0, round=0)
    assert back.events[-1].seq == 6


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


def test_rejects_malformed_input():
    with pytest.raises(ValueError):
        Trace.from_jsonl("")
    with pytest.raises(ValueError):
        Trace.from_jsonl('{"time":0,"seq":0,"kind":"start"}\n')
    bad_version = '{"kind":"trace_header","version":99,"seed":0}\n'
    with pytest.raises(ValueError):
        Trace.from_jsonl(bad_version)


HEADER = '{"kind":"trace_header","seed":0,"version":1}'
START = '{"kind":"start","node":0,"seq":0,"time":0}'


@pytest.mark.parametrize("line", [
    "{}", "1", "[]", '"start"', "null",
    START + "," + START, START + " " + START, "[" + START + "]",
    '{"seq":0,"kind":"start"}', '{"time":0,"kind":"start"}', '{"time":0,"seq":0}',
    '{"time":"0","seq":0,"kind":"start"}', '{"time":0,"seq":0.0,"kind":"start"}',
    '{"time":true,"seq":0,"kind":"start"}', '{"time":0,"seq":0,"kind":7}',
])
def test_rejects_a_line_that_is_not_one_event_object(line):
    with pytest.raises(ValueError):
        Trace.from_jsonl("\n".join([HEADER, START, line]) + "\n")


def test_rejects_a_header_that_is_not_an_object():
    with pytest.raises(ValueError):
        Trace.from_jsonl("1\n" + START + "\n")


def test_event_lines_may_carry_surrounding_whitespace():
    back = Trace.from_jsonl(HEADER + "\n  " + START + " \n\n")
    assert back.to_jsonl() == HEADER + "\n" + START + "\n"


def test_current_round_at_matches_a_rescan():
    rng = random.Random(7)
    t = Trace()
    for _ in range(200):
        t.append(rng.randint(0, 50), "advance", rng.randint(0, 2),
                 round=rng.randint(1, 30))
    for node in range(4):
        for when in range(-1, 52):
            expect = max((ev.data["round"] for ev in t.iter_kind("advance")
                          if ev.node == node and ev.time <= when), default=0)
            assert t.current_round_at(node, when) == expect
    # The index follows a trace that grows after it was built.
    t.append(60, "advance", 0, round=99)
    assert t.current_round_at(0, 60) == 99
