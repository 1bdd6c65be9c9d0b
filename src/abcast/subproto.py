"""Subprotocol instance plumbing shared by both broadcast backends.

A node runs one reliable-broadcast (RB) and one binary-agreement (WBA)
instance per round, created lazily.  The InstanceTable is the one gate for
a node's inputs and enforces the write-once rules: at most one local input
per instance, RB inputs only from the designated proposer, WBA inputs only
from validators, and a single immutable output per instance.  A machine
steps on the one `Input` its table admitted, or on a received message, and
returns the messages it sends and its `Output`.

`Kind` stays the public enum; the per-message code reads the aliases `RB`
and `WBA`, and `InstanceKey.text` a prefix table, since on CPython 3.11 a
`Kind.RB` read takes `EnumType.__getattr__` (about 100 ns; a global, 10).
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Protocol

from .core import InternalInvariantError, Params, LeaderSchedule, is_validator


class Kind(str, Enum):
    RB = "rb"
    WBA = "wba"


RB, WBA = Kind.RB, Kind.WBA
_PREFIX = {RB: "rb/", WBA: "wba/"}


class InstanceKey(NamedTuple):
    """An instance's kind and round.  A tuple, so the instance check every
    machine step makes is a tuple compare."""

    kind: Kind
    round: int

    @property
    def text(self) -> str:
        """The ``rb/3`` form; it is in every trace event about a message."""
        return _PREFIX[self.kind] + str(self.round)

    def __str__(self) -> str:
        return self.text


# The one spelling of an instance, in a trace as in a scenario: the kind, a
# slash and the round in ASCII decimal, with no sign, padding, underscore or
# leading zero.
INSTANCE_TEXT = re.compile(r"(?:rb|wba)/(?:0|[1-9][0-9]*)")


def parse_key(text: str) -> InstanceKey:
    """The instance `text` spells; ValueError unless it is spelled as
    `InstanceKey.text` writes it."""
    if INSTANCE_TEXT.fullmatch(text) is None:
        raise ValueError(f"bad instance {text!r}")
    kind, _, rnd = text.partition("/")
    return InstanceKey(Kind(kind), int(rnd))


# The kinds of message the backends send; a WBA's vote is its echo.
INITIAL = "initial"
ECHO = "echo"
READY = "ready"
VOTE = "vote"


class Input(NamedTuple):
    """This node's input to one subprotocol instance."""

    key: InstanceKey
    value: object


@dataclass(slots=True)
class Output:
    value: object


class Machine(Protocol):
    def step(self, event: object) -> list:
        """Step on the one Input the table admitted, or on a received
        message; return the messages to send to every node, the sender
        included, and at most one Output.  Anything else, or a message of
        another instance, gives []."""


@dataclass
class _Slot:
    machine: Machine
    input_made: bool = False
    has_output: bool = False
    output: object = None


class InstanceTable:
    """Per-node registry of live subprotocol instances.

    RB and WBA slots live in two dicts keyed by the round number, so a
    lookup hashes an int rather than an InstanceKey."""

    def __init__(self, params: Params, schedule: LeaderSchedule, self_id: int,
                 factory: Callable[[InstanceKey], Machine]):
        self.params = params
        self.schedule = schedule
        self.self_id = self_id
        self._validator = is_validator(self_id, params)
        self._factory = factory
        self._rb: dict[int, _Slot] = {}
        self._wba: dict[int, _Slot] = {}
        self._rb_rounds: list[int] = []          # ascending, RB output recorded

    def slot(self, key: InstanceKey) -> _Slot:
        slots = self._rb if key.kind is RB else self._wba
        s = slots.get(key.round)
        if s is None:
            s = slots[key.round] = _Slot(self._factory(key))
        return s

    def input_made(self, key: InstanceKey) -> bool:
        s = (self._rb if key.kind is RB else self._wba).get(key.round)
        return s.input_made if s else False

    def accepts_input(self, key: InstanceKey) -> bool:
        """Whether `submit_input` would admit a local input to `key` now:
        none has been made, and this node is the round's proposer for RB,
        a validator for WBA."""
        s = (self._rb if key.kind is RB else self._wba).get(key.round)
        if s is not None and s.input_made:
            return False
        if key.kind is RB:
            return self.schedule.leader_of(key.round) == self.self_id
        return self._validator

    def submit_input(self, inp: Input) -> list | None:
        """Feed a local input to its instance, once; the machine's actions,
        or None when the input is refused.

        Repeat inputs, RB inputs from anyone but the round's proposer, and
        WBA inputs from non-validators are refused (`accepts_input`): the
        machine does not step and the input is not recorded.
        """
        key = inp.key
        s = self.slot(key)
        if not self.accepts_input(key):
            return None
        s.input_made = True
        return s.machine.step(inp)

    def record_output(self, key: InstanceKey, value: object) -> bool:
        """Store an instance's output; True only the first time.

        A conflicting second output would mean a backend broke its own
        write-once rule, so it raises instead of being smoothed over.
        """
        s = self.slot(key)
        if s.has_output:
            if s.output != value:
                raise InternalInvariantError(
                    f"{key} produced conflicting outputs {s.output!r} and {value!r}")
            return False
        s.has_output = True
        s.output = value
        if key.kind is RB:
            insort(self._rb_rounds, key.round)
        return True

    def rb_output(self, rnd: int):
        s = self._rb.get(rnd)
        return s.output if s and s.has_output else None

    def wba_output(self, rnd: int):
        s = self._wba.get(rnd)
        return s.output if s and s.has_output else None

    def rb_rounds_with_output(self) -> list[int]:
        """Rounds whose RB instance has output, ascending.  The list is the
        table's own, kept up to date as outputs are recorded: read it, do not
        modify it."""
        return self._rb_rounds
