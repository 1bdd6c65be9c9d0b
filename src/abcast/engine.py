"""Round engine: turns per-round broadcast + binary agreement into a totally
ordered output sequence.

Each round r has one RB instance (the round's leader proposes a value plus a
parent round) and one WBA instance (commit the round, 1, or skip it, 0).  A
node finalizes round r's proposal, and transitively its ancestors, once r is
accepted in its view and WBA[r] = 1.  The single timer per node runs for
twice the assumed subprotocol delay; on expiry the node votes to skip the
round it is currently waiting on.

Definitions used throughout, all evaluated against this node's current view:

  skippable(r)      WBA[r] output 0
  fertile(r, s)     s may serve as round r's parent: for s = None every
                    round below r is skippable; for a numeric s, s < r,
                    every round strictly between is skippable, and s has an
                    accepted value
  accepted(r)       RB[r]'s output (v, s) such that fertile(r, s) holds

A value may appear twice on one chain: a leader whose only buffered value
already rides an undecided ancestor re-proposes it to drag that ancestor to
commitment.  Finalization outputs each value once, so delivered sequences
stay duplicate free.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import Params, LeaderSchedule
from .subproto import RB, WBA, Input, InstanceKey


@dataclass(frozen=True)
class Proposal:
    """An RB payload: a value and the round it chains from (None = genesis).

    Correct nodes leave `ts` None.  The field stays because every RB payload
    in the pinned traces carries `"ts": null`, and a scripted Byzantine
    payload may still set it.
    """

    value: object
    parent: int | None
    ts: int | None = None


def _chainable(prop: object) -> bool:
    """A Byzantine proposer can make RB output anything; only a Proposal
    whose parent and ts are ints or None can be accepted."""
    return (isinstance(prop, Proposal) and isinstance(prop.parent, (int, type(None)))
            and isinstance(prop.ts, (int, type(None))))


def encode(v):
    """A subprotocol value as trace fields: a Proposal becomes a dict."""
    if isinstance(v, Proposal):
        return {"value": encode(v.value), "parent": v.parent, "ts": v.ts}
    return v


# The one action handed back to the hosting node besides a subprotocol Input.

@dataclass(slots=True)
class RestartTimer:
    delay: int


class Engine:
    """Per-node round engine.

    `view` is anything exposing rb_output(r), wba_output(r),
    accepts_input(key) and rb_rounds_with_output() (ascending, read but never
    modified here), normally the node's InstanceTable.  Handlers return
    (actions, notes); each note is a trace event as (kind, fields), the
    fields a fresh dict such as {"round": r} for "advance", and a delivery
    exists only as its "ab_output" note.

    Incremental state.  RB and WBA outputs are write-once and a round's
    ancestor chain is fixed by those RB outputs, so every definition above
    is monotone in the view: once skippable(r), fertile(r, s) or accepted(r)
    holds it keeps holding, with the same proposal.  The engine therefore
    keeps

      _accepted     every non-None accepted(r), kept for good; only None
                    results are recomputed, and only once per handler call
                    because the view does not change during one;
      _pending      rounds with an RB output whose WBA instance still
                    accepts this node's vote, the only candidates for step
                    3 of the fixpoint (an observer's leave at once).

    New RB outputs are picked up from rb_rounds_with_output() at the start
    of each handler call, scanning from the highest round down, where new
    outputs nearly always land.  Finalization only looks at rounds from
    undecided_round up.  As long as rounds keep being finalized, this keeps
    the cost of a handler call independent of how many rounds came before.
    """

    def __init__(self, params: Params, schedule: LeaderSchedule, self_id: int, view):
        self.params = params
        self.schedule = schedule
        self.self_id = self_id
        self.view = view
        self.current = 0
        self.undecided_round = 0
        self.inputs: list = []
        self.output_log: list = []
        self._output_set: set = set()
        self._last_proposed = -1
        self._accepted: dict[int, Proposal] = {}
        self._rb_seen: set[int] = set()
        self._pending: set[int] = set()

    @property
    def timer_delay(self) -> int:
        return 2 * self.params.sub_delay

    # -- handlers ----------------------------------------------------------

    def start(self):
        actions, notes = self._conditions()
        return [RestartTimer(self.timer_delay)] + actions, notes

    def on_input(self, value: object) -> None:
        """Append a value to the buffer, first in first out; the conditions
        run on the next timer/output."""
        if value not in self._output_set:
            self.inputs.append(value)

    def on_timeout(self):
        actions = []
        key = InstanceKey(WBA, self.current)
        if self.view.accepts_input(key):
            actions.append(Input(key, 0))
        more, notes = self._conditions()
        return actions + more, notes

    def on_subproto_output(self):
        return self._conditions()

    # -- derived predicates -------------------------------------------------

    def _skippable(self, r: int) -> bool:
        return self.view.wba_output(r) == 0

    def _parent_candidates(self, r: int):
        """The rounds that may parent round r, highest first, genesis (None)
        last.  A parent s needs every round strictly between s and r
        skippable, so the walk down from r - 1 ends at the first round that
        is not."""
        for s in range(r - 1, -1, -1):
            yield s
            if not self._skippable(s):
                return
        yield None

    def _fertile_parents(self, r: int, rejected: set | None):
        """Round r's fertile parents: its candidates that are genesis or
        accepted, highest first."""
        for s in self._parent_candidates(r):
            if s is None or self.accepted(s, rejected) is not None:
                yield s

    def fertile(self, r: int, parent: int | None, rejected: set | None = None) -> bool:
        return parent in self._fertile_parents(r, rejected)

    def accepted(self, r: int, rejected: set | None = None) -> Proposal | None:
        """RB[r]'s output if it is fertile in this view, else None.

        Beyond r's own proposal, acceptance rests on its parent's alone.  So
        this follows parent links down to a round already accepted, or to
        genesis, then accepts every round it passed: acceptance never
        recurses, however long the chain of rounds not yet looked at.
        `rejected` collects rounds found unaccepted in the current view; a
        handler call shares one set across its fixpoint.
        """
        prop = self._accepted.get(r)
        if prop is not None:
            return prop
        if rejected is None:
            rejected = set()
        chain = {}                   # round -> proposal, for rounds passed
        s = r
        while s is not None and s not in self._accepted:
            prop = None if s in rejected else self.view.rb_output(s)
            if not _chainable(prop) or prop.parent not in self._parent_candidates(s):
                rejected.add(s)
                rejected.update(chain)
                return None
            chain[s] = prop
            s = prop.parent
        self._accepted.update(chain)
        return self._accepted[r]

    # -- finalization --------------------------------------------------------

    def _finalize(self, r: int) -> list[tuple[str, dict]]:
        """Deliver round r's value and its undecided ancestors, lowest first,
        taking each out of the input buffer; a value already delivered is
        skipped.  Returns the notes: one ab_output per delivery, then
        finalize.

        r must be accepted, so its chain is in `_accepted`: `accepted` keeps
        every round it passes and stops only at genesis or a round kept
        before."""
        chain, s = [], r
        while s is not None and s >= self.undecided_round:
            prop = self._accepted[s]
            chain.append((s, prop))
            s = prop.parent
        notes = []
        for rr, prop in reversed(chain):
            value = prop.value
            if value in self.inputs:
                self.inputs.remove(value)
            if value in self._output_set:
                continue
            notes.append(("ab_output", {"value": encode(value), "round": rr,
                                        "position": len(self.output_log)}))
            self.output_log.append(value)
            self._output_set.add(value)
        notes.append(("finalize", {"round": r}))
        self.undecided_round = r + 1
        return notes

    # -- the condition fixpoint ----------------------------------------------

    def _discover(self) -> list[int]:
        """Take in RB outputs that arrived since the last handler call."""
        rounds = self.view.rb_rounds_with_output()
        missing = len(rounds) - len(self._rb_seen)
        i = len(rounds) - 1
        while missing > 0:
            r = rounds[i]
            if r not in self._rb_seen:
                self._rb_seen.add(r)
                self._pending.add(r)
                missing -= 1
            i -= 1
        return rounds

    def _pick_proposal(self, r: int, rejected: set) -> Proposal | None:
        """Head of the buffer under the highest fertile parent, if any."""
        if self.inputs:
            for parent in self._fertile_parents(r, rejected):
                return Proposal(self.inputs[0], parent)
        return None

    def _conditions(self):
        actions: list = []
        notes: list = []
        rejected: set[int] = set()
        rounds = self._discover()
        progress = True
        while progress:
            progress = False

            # 1. move past rounds that have an RB output or were skipped
            while (self.view.rb_output(self.current) is not None
                   or self._skippable(self.current)):
                self.current += 1
                actions.append(RestartTimer(self.timer_delay))
                notes.append(("advance", {"round": self.current}))
                progress = True

            # 2. propose when leading the current round
            r = self.current
            if r > self._last_proposed and self.schedule.leader_of(r) == self.self_id:
                prop = self._pick_proposal(r, rejected)
                if prop is not None:
                    self._last_proposed = r
                    actions.append(Input(InstanceKey(RB, r), prop))
                    notes.append(("propose", {"round": r, "payload": encode(prop)}))

            # 3. vote to commit every accepted round not yet voted on
            for s in sorted(self._pending):
                key = InstanceKey(WBA, s)
                if not self.view.accepts_input(key):
                    self._pending.discard(s)
                elif self.accepted(s, rejected) is not None:
                    self._pending.discard(s)
                    actions.append(Input(key, 1))

            # 4. finalize the lowest committed, accepted, undecided round
            for i in range(bisect_left(rounds, self.undecided_round), len(rounds)):
                s = rounds[i]
                if self.view.wba_output(s) == 1 and self.accepted(s, rejected) is not None:
                    notes += self._finalize(s)
                    progress = True
                    break

        return actions, notes
