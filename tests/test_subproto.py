import pytest

from abcast.core import InternalInvariantError, LeaderSchedule, Params
from abcast.subproto import (
    InstanceKey,
    InstanceTable,
    Kind,
    LocalInput,
    parse_key,
)

PARAMS = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
SCHED = LeaderSchedule(4)


class RecorderMachine:
    def __init__(self):
        self.events = []

    def step(self, event):
        self.events.append(event)
        return [("stepped", event)]


def make_table(self_id=0):
    machines = {}

    def factory(key):
        machines[key] = RecorderMachine()
        return machines[key]

    return InstanceTable(PARAMS, SCHED, self_id, factory), machines


def test_key_string_round_trip():
    key = InstanceKey(Kind.RB, 3)
    assert str(key) == "rb/3"
    assert parse_key("rb/3") == key
    assert parse_key("wba/0") == InstanceKey(Kind.WBA, 0)
    # the text is cached per key; equality and hashing stay by field
    key = InstanceKey(Kind.WBA, 12)
    twin = parse_key(str(key))
    assert twin is not key and twin == key and hash(twin) == hash(key)
    assert str(key) == str(key) == key.text == "wba/12"
    others = (InstanceKey(Kind.RB, 12), InstanceKey(Kind.WBA, 13))
    assert all(other != key for other in others)
    assert len({key, twin, *others}) == 3
    assert {str(k) for k in others} == {"rb/12", "wba/13"}


def test_rb_and_wba_slots_of_a_round_stay_distinct():
    table, machines = make_table(self_id=1)
    rb, wba = InstanceKey(Kind.RB, 1), InstanceKey(Kind.WBA, 1)
    assert table.slot(rb) is not table.slot(wba)
    assert table.slot(rb) is table.slot(InstanceKey(Kind.RB, 1))
    assert set(machines) == {rb, wba}
    table.submit_input(wba, 1)
    assert table.input_made(wba) and not table.input_made(rb)
    assert table.record_output(wba, 1)
    assert table.wba_output(1) == 1 and table.rb_output(1) is None
    assert table.rb_rounds_with_output() == []
    assert table.record_output(rb, ("v", 0))
    assert table.rb_output(1) == ("v", 0) and table.wba_output(1) == 1
    assert table.rb_output(0) is None and table.wba_output(2) is None


def test_submit_input_once():
    table, machines = make_table(self_id=0)
    key = InstanceKey(Kind.RB, 0)
    out = table.submit_input(key, "a")
    assert out == [("stepped", LocalInput("a"))]
    assert table.input_made(key)
    assert table.submit_input(key, "b") == []
    assert machines[key].events == [LocalInput("a")]


def test_rb_input_requires_proposer():
    table, machines = make_table(self_id=0)
    key = InstanceKey(Kind.RB, 1)
    assert table.submit_input(key, "a") == []
    assert machines[key].events == []
    assert not table.input_made(key)


def test_wba_input_requires_validator():
    table, machines = make_table(self_id=4)
    key = InstanceKey(Kind.WBA, 0)
    assert table.submit_input(key, 1) == []
    assert machines[key].events == []


def test_record_output_write_once():
    table, _ = make_table()
    key = InstanceKey(Kind.WBA, 2)
    assert table.record_output(key, 1) is True
    assert table.record_output(key, 1) is False
    with pytest.raises(InternalInvariantError):
        table.record_output(key, 0)
    assert table.wba_output(2) == 1


def test_output_views():
    table, _ = make_table()
    assert table.rb_output(0) is None
    assert table.wba_output(0) is None
    table.record_output(InstanceKey(Kind.RB, 4), ("v", None))
    table.record_output(InstanceKey(Kind.RB, 1), ("w", 0))
    assert table.rb_output(4) == ("v", None)
    assert table.rb_rounds_with_output() == [1, 4]
    # A slot that exists but has not produced output is not listed.
    table.slot(InstanceKey(Kind.RB, 7))
    assert table.rb_rounds_with_output() == [1, 4]
    assert table.rb_output(7) is None
