"""Direct-send broadcast backend: Bracha's echo/ready amplifier.

RB and WBA are two front ends over one tally machine, which counts
distinct validator senders per value.  Thresholds, for quorum size
Q = quorum_min_size(n, f):

  echo(v)   the seed value v, Q echoes, or f+1 readies
  ready(v)  Q echoes or f+1 readies
  output v  2f+1 readies

RB's seed is the first initial from the proposer; WBA's is the node's own
0/1 input, and WBA names its echo a vote.  A correct node sends at most one
echo (one vote) and one ready per instance, so the send flags are
instance-global rather than per-value.  A Byzantine sender that backs two
values is counted once in each value's tally; repeats for the same value
are dropped, and so is a payload that cannot be a tally key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Params, LeaderSchedule, hashable, is_validator
from .subproto import RB, ECHO, INITIAL, READY, VOTE, Input, InstanceKey, Output


@dataclass(slots=True)
class BrachaMsg:
    instance: InstanceKey
    kind: str
    payload: object
    sender: int


class _EchoReady:
    """The echo/ready tally of one instance at one node.  `echo_kind` is the
    echo message's kind, and so the trace's mkind."""

    echo_kind = ECHO

    def __init__(self, key: InstanceKey, params: Params, self_id: int):
        self.key = key
        self.params = params
        self.self_id = self_id
        self.voter = is_validator(self_id, params)
        self.sent_echo = False
        self.sent_ready = False
        self.delivered = False
        self.echoes: dict[object, set[int]] = {}
        self.readies: dict[object, set[int]] = {}
        self._tallies = {self.echo_kind: self.echoes, READY: self.readies}

    def _count(self, msg: BrachaMsg) -> list:
        """Tally an echo or ready of this instance, once per sender and value."""
        tally = self._tallies.get(msg.kind)
        if tally is None or not 0 <= msg.sender < self.params.n:   # not a validator
            return []
        try:
            seen = tally.setdefault(msg.payload, set())
        except TypeError:                # unhashable: see core.hashable
            return []
        if msg.sender in seen:
            return []
        seen.add(msg.sender)
        return self._fire(msg.payload)

    def _fire(self, v: object, seed: bool = False) -> list:
        q = self.params.quorum
        f = self.params.f
        readies = len(self.readies.get(v, ()))
        amplify = len(self.echoes.get(v, ())) >= q or readies >= f + 1
        out = []
        if not self.sent_echo and self.voter and (seed or amplify):
            self.sent_echo = True
            out.append(BrachaMsg(self.key, self.echo_kind, v, self.self_id))
        if not self.sent_ready and self.voter and amplify:
            self.sent_ready = True
            out.append(BrachaMsg(self.key, READY, v, self.self_id))
        if not self.delivered and readies >= 2 * f + 1:
            self.delivered = True
            out.append(Output(v))
        return out


class BrachaRb(_EchoReady):
    """One reliable-broadcast instance at one node."""

    def __init__(self, key: InstanceKey, params: Params, proposer: int, self_id: int):
        super().__init__(key, params, self_id)
        self.proposer = proposer
        self.has_initial = False

    def step(self, event: object) -> list:
        if isinstance(event, Input):
            return [BrachaMsg(self.key, INITIAL, event.value, self.self_id)]
        if not isinstance(event, BrachaMsg) or event.instance != self.key:
            return []
        if event.kind != INITIAL:
            return self._count(event)
        if (event.sender != self.proposer or self.has_initial
                or not hashable(event.payload)):
            return []
        self.has_initial = True
        return self._fire(event.payload, seed=True)


class BrachaWba(_EchoReady):
    """One binary-agreement instance at one node; vote plays echo's role."""

    echo_kind = VOTE

    def step(self, event: object) -> list:
        if isinstance(event, Input):
            if event.value not in (0, 1):
                return []
            return self._fire(event.value, seed=True)     # sends nothing from an observer
        if (not isinstance(event, BrachaMsg) or event.instance != self.key
                or event.payload not in (0, 1)):
            return []
        return self._count(event)


def machine_factory(params: Params, schedule: LeaderSchedule,
                    self_id: int) -> Callable[[InstanceKey], object]:
    def make(key: InstanceKey):
        if key.kind is RB:
            return BrachaRb(key, params, schedule.leader_of(key.round), self_id)
        return BrachaWba(key, params, self_id)
    return make
