"""Run traces: an append-only event log with a JSON-lines disk format.

The first line of a trace file is a header record carrying the format
version and the run's seed; every following line is one event with at least
``time``, ``seq`` and ``kind``.  Event payloads are already JSON-shaped when
recorded, so serialization is a straight dump.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

TRACE_VERSION = 1

# Built once: json.dumps with these arguments builds an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


@dataclass(slots=True)
class TraceEvent:
    time: int
    seq: int
    kind: str
    node: int | None
    data: dict

    def to_json(self) -> str:
        rec = {"time": self.time, "seq": self.seq, "kind": self.kind}
        if self.node is not None:
            rec["node"] = self.node
        rec.update(self.data)
        return _ENCODER.encode(rec)


class Trace:
    def __init__(self, seed: int = 0, meta: dict | None = None):
        self.seed = seed
        self.meta = meta or {}
        self.events: list[TraceEvent] = []
        self._seq = 0
        self._advance_index: dict[int, tuple[list[int], list[int]]] = {}
        self._advance_indexed = -1           # len(events) when last indexed

    def append(self, time: int, kind: str, node: int | None = None, **data) -> TraceEvent:
        ev = TraceEvent(time, self._seq, kind, node, data)
        self._seq += 1
        self.events.append(ev)
        return ev

    def iter_kind(self, kind: str):
        return (ev for ev in self.events if ev.kind == kind)

    # -- derived views used by the checkers ---------------------------------

    def ab_outputs(self) -> dict[int, list[TraceEvent]]:
        """Per-node totally ordered delivery events, in trace order."""
        out: dict[int, list[TraceEvent]] = {}
        for ev in self.iter_kind("ab_output"):
            out.setdefault(ev.node, []).append(ev)
        return out

    def sub_outputs(self) -> dict[tuple[int, str], TraceEvent]:
        """(node, instance) -> output event; write-once by construction."""
        return {(ev.node, ev.data["instance"]): ev for ev in self.iter_kind("sub_output")}

    def sub_inputs(self) -> dict[tuple[int, str], TraceEvent]:
        return {(ev.node, ev.data["instance"]): ev for ev in self.iter_kind("sub_input")}

    def advances(self) -> dict[int, list[TraceEvent]]:
        adv: dict[int, list[TraceEvent]] = {}
        for ev in self.iter_kind("advance"):
            adv.setdefault(ev.node, []).append(ev)
        return adv

    def _advances_by_node(self) -> dict[int, tuple[list[int], list[int]]]:
        """Per node: its advance times, ascending, and the highest round it
        had reached at each.  Built once and rebuilt only if the trace grew."""
        if self._advance_indexed != len(self.events):
            index = {}
            for node, evs in self.advances().items():
                pairs = sorted((ev.time, ev.data["round"]) for ev in evs)
                best, highs = 0, []
                for _, rnd in pairs:
                    best = max(best, rnd)
                    highs.append(best)
                index[node] = ([t for t, _ in pairs], highs)
            self._advance_index = index
            self._advance_indexed = len(self.events)
        return self._advance_index

    def current_round_at(self, node: int, when: int) -> int:
        """The node's round counter after all events at `when` are in."""
        times, highs = self._advances_by_node().get(node, ((), ()))
        i = bisect_right(times, when)
        return highs[i - 1] if i else 0

    def last_event_at(self, when: int) -> TraceEvent | None:
        """The last event, in trace order, at or before time `when`."""
        for ev in reversed(self.events):
            if ev.time <= when:
                return ev
        return None

    # -- (de)serialization ---------------------------------------------------

    def to_jsonl(self) -> str:
        header = _ENCODER.encode({"kind": "trace_header", "version": TRACE_VERSION,
                                  "seed": self.seed, **self.meta})
        return "\n".join([header] + [ev.to_json() for ev in self.events]) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a trace file.  Each line must hold exactly one JSON object,
        and each event line an int ``time``, an int ``seq`` and a str
        ``kind``; anything else raises ValueError."""
        numbered = ((i, ln) for i, ln in enumerate(text.splitlines(), 1)
                    if ln and not ln.isspace())
        first = next(numbered, None)
        if first is None:
            raise ValueError("empty trace")
        decode = _DECODER.decode
        header = decode(first[1])
        if type(header) is not dict or header.get("kind") != "trace_header":
            raise ValueError("trace file lacks a header line")
        if header.get("version") != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {header.get('version')}")
        meta = {k: v for k, v in header.items()
                if k not in ("kind", "version", "seed")}
        trace = cls(seed=header.get("seed", 0), meta=meta)
        events = trace.events
        for i, ln in numbered:
            rec = decode(ln)
            if type(rec) is not dict:
                raise ValueError(f"trace line {i} is not a JSON object")
            time, seq = rec.pop("time", None), rec.pop("seq", None)
            kind = rec.pop("kind", None)
            if type(time) is not int or type(seq) is not int or type(kind) is not str:
                raise ValueError(f"trace line {i} needs an int time, an int seq "
                                 f"and a str kind")
            events.append(TraceEvent(time, seq, kind, rec.pop("node", None), rec))
        trace._seq = max((ev.seq for ev in events), default=-1) + 1
        return trace
