"""Subprotocol instance plumbing shared by both broadcast backends.

A node runs one reliable-broadcast (RB) and one binary-agreement (WBA)
instance per round, created lazily.  The InstanceTable enforces the
write-once rules: at most one local input per instance, RB inputs only from
the designated proposer, WBA inputs only from validators, and a single
immutable output per instance.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Protocol

from .core import InternalInvariantError, Params, LeaderSchedule, is_validator


class Kind(str, Enum):
    RB = "rb"
    WBA = "wba"


@dataclass(frozen=True)
class InstanceKey:
    kind: Kind
    round: int

    @cached_property
    def text(self) -> str:
        """The ``rb/3`` form, built once per key; it is in every trace
        event about a message."""
        return f"{self.kind.value}/{self.round}"

    def __str__(self) -> str:
        return self.text


def parse_key(text: str) -> InstanceKey:
    kind, _, rnd = text.partition("/")
    return InstanceKey(Kind(kind), int(rnd))


# Events fed to a backend state machine.

@dataclass(frozen=True)
class LocalInput:
    value: object


@dataclass(frozen=True)
class Recv:
    msg: object


# Actions a backend may emit.

@dataclass(frozen=True)
class SendAll:
    """Direct-send `msg` to every node, the sender included."""

    msg: object


@dataclass(frozen=True)
class GossipSend:
    """Flood `msg` through the gossip layer."""

    msg: object


@dataclass(frozen=True)
class Output:
    value: object


class Machine(Protocol):
    def step(self, event: object) -> list: ...


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
        self._factory = factory
        self._rb: dict[int, _Slot] = {}
        self._wba: dict[int, _Slot] = {}
        self._rb_rounds: list[int] = []          # ascending, RB output recorded

    def slot(self, key: InstanceKey) -> _Slot:
        slots = self._rb if key.kind is Kind.RB else self._wba
        s = slots.get(key.round)
        if s is None:
            s = slots[key.round] = _Slot(self._factory(key))
        return s

    def input_made(self, key: InstanceKey) -> bool:
        s = (self._rb if key.kind is Kind.RB else self._wba).get(key.round)
        return s.input_made if s else False

    def submit_input(self, key: InstanceKey, value: object) -> list:
        """Feed a local input to an instance, once.

        Repeat inputs, RB inputs from anyone but the round's proposer, and
        WBA inputs from non-validators are ignored without side effects.
        """
        s = self.slot(key)
        if s.input_made:
            return []
        if key.kind is Kind.RB and self.schedule.leader_of(key.round) != self.self_id:
            return []
        if key.kind is Kind.WBA and not is_validator(self.self_id, self.params):
            return []
        s.input_made = True
        return s.machine.step(LocalInput(value))

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
        if key.kind is Kind.RB:
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
