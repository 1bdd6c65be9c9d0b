"""Run traces: an append-only event log with a JSON-lines disk format.

The first line of a trace file is a header record carrying the format
version and the run's seed; every following line is one event with at least
``time``, ``seq`` and ``kind``.  Each line holds exactly one JSON object and
is byte-for-byte what ``json.dumps(rec, sort_keys=True, separators=(",",
":"))`` gives for its record.  Event payloads are already JSON-shaped when
recorded, so serialization is a straight dump.  `to_jsonl` writes each line
with a writer built, per call, for the line's shape (kind, whether there is
a node, the data's keys in order); a value of a type the writer does not
take sends its line through the encoder built once, at import.  No data key
may name an event's own field, nor a header's meta key the header's.

In format v2 a ``deliver`` event names the ``send`` or ``gossip`` event of
its message by seq (``msg``) instead of repeating the message's fields, and
a ``gossip`` event carries its signature.  `Trace.from_jsonl` reads v1 and
v2.  A simulation records v2, so v1 text is written only as the text of a
trace read from v1.

The derived views the checkers read (events by kind, per-node rounds) come
from one index, built on the first view call and rebuilt only when the
trace has grown since; recording an event never touches it.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, islice
from math import isfinite
from operator import attrgetter

from .subproto import INSTANCE_TEXT

TRACE_VERSION = 2
_READABLE = (1, 2)
_SENDS = ("send", "gossip")

_DECODER = json.JSONDecoder()
# `from_jsonl` decodes the event lines this many characters at a time, each
# chunk running on to the next newline.
_CHUNK = 1 << 15
# `to_jsonl` joins this many lines at a time onto its text.
_LINES = 512
# Two JSON objects side by side: the line that `_records` cannot read in a chunk.
_JOINED = re.compile(r"\}[ \t]*,[ \t]*\{")

_INT = (lambda x: type(x) is int, "an int")
_ANY = (lambda x: True, "a")
# the checkers hash these values and compare them for equality
_SCALAR = (lambda x: x is None or type(x) in (bool, int, str)
           or (type(x) is float and isfinite(x)), "a JSON scalar")
_KEY = (lambda x: type(x) is str and INSTANCE_TEXT.fullmatch(x) is not None,
        "an rb/<round> or wba/<round>")
_SUB = (("node", _INT), ("instance", _KEY), ("value", _ANY))
_WBA_SUB = _SUB[:2] + (("value", _SCALAR),)     # RB values are encoded proposals
# The event fields the checkers read, by kind: (field, (test, article)).
_FIELDS = {
    "ab_output": (("node", _INT), ("position", _INT), ("round", _INT), ("value", _SCALAR)),
    "sub_output": _SUB,
    "sub_input": _SUB,
    "advance": (("node", _INT), ("round", _INT)),
}


def compact_encoder(default=None):
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"),
    default=default)`` as a one-argument function.  ``JSONEncoder.encode``
    builds a C encoder on every call; this builds it once, or, without the
    C accelerator, falls back to that same ``encode``."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=default)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    # circular-reference markers off: records are trees built by the program
    c_encode = make(None, encoder.default, json.encoder.encode_basestring_ascii,
                    None, ":", ",", True, False, True)
    return lambda obj: "".join(c_encode(obj, 0))


_encode = compact_encoder()

_ESCAPE = json.encoder.encode_basestring_ascii
_new = object.__new__
# An event's own fields, which its data may not name, and the header's.
_RESERVED = ("time", "seq", "kind", "node")
_HEADER = ("kind", "version", "seed")
# How a line writer makes its data value `{v}` JSON text, by exact type.
_VALUE = """\
    ty = type({v})
    if ty is int:
        pass
    elif ty is str:
        {v} = esc({v})
    elif ty is dict or ty is list:
        {v} = enc({v})
    elif {v} is None:
        {v} = "null"
    else:
        return slow(ev)"""


def _refuse(reserved: tuple, keys, where: str) -> None:
    """ValueError if `keys` holds one of the `reserved` names."""
    for key in reserved:
        if key in keys:
            raise ValueError(f"{where}: key {key!r} would overwrite the field "
                             f"of that name")


def _writer(kind, has_node: bool, keys: tuple, seq: int):
    """The line writer of one event shape: `kind`, whether the event has a
    node and its data's `keys` in order, `seq` being the first event of the
    shape.  It takes an event of that shape and returns its line as
    `TraceEvent.to_json` writes it, from an f-string that fixes the sorted
    key literals and the kind.  It checks the exact type of each value: an
    int is written as is, a str by `_ESCAPE`, a dict or list by `_encode`
    and None as null.  An event with any other value goes to
    `TraceEvent.to_json`, and so does every event of a shape whose kind or
    keys are not all str.  ValueError for a data key that names one of the
    event's own fields."""
    _refuse(_RESERVED, keys, f"event {seq} data")
    slow = TraceEvent.to_json
    if type(kind) is not str or any(type(k) is not str for k in keys):
        return slow
    values = [f"v{i}" for i in range(len(keys))]
    fields = [("kind", None), ("seq", "s"), ("time", "t"), *zip(keys, values)]
    ints = ["t", "s"]
    body = ["def write(ev):", "    t = ev.time", "    s = ev.seq"]
    if has_node:
        fields.append(("node", "n"))
        ints.append("n")
        body.append("    n = ev.node")
    fields.sort()
    if keys:
        body.append("    d = ev.data")
    body += [f"    {v} = d[{k!r}]" for k, v in zip(keys, values)]
    body += [f"    if {' or '.join(f'type({v}) is not int' for v in ints)}:",
             "        return slow(ev)"]
    body += [_VALUE.format(v=v) for v in values]
    # the line as adjacent f-string literals: `repr` quotes each text between
    # values, and doubled braces stay literal braces
    line = []
    for i, (name, var) in enumerate(fields):
        text = ",{"[i == 0] + _ESCAPE(name) + ":" + (_ESCAPE(kind) if var is None else "")
        line.append("f" + repr(text.replace("{", "{{").replace("}", "}}")))
        if var is not None:
            line.append(f"f'{{{var}}}'")
    body.append(f"    return {' '.join(line)} '}}'")
    # the writer's globals do not hold the writer, so that no cycle keeps it
    made = {}
    exec("\n".join(body), {"esc": _ESCAPE, "enc": _encode, "slow": slow}, made)
    return made["write"]


def _jsonl_text(header: str, events) -> str:
    """A trace text: `header`, then each event's line as `TraceEvent.to_json`
    writes it, each line ended by a newline.  Each line comes from the
    writer of its event's shape, built when the shape first appears.  The
    lines are joined onto the text `_LINES` at a time, so that no list of
    every line is made; CPython grows a str in place when it holds the only
    reference."""
    writers, text, lines = {}, header + "\n", []
    append = lines.append
    events = iter(events)
    while True:
        for ev in islice(events, _LINES):
            data = ev.data
            shape = (ev.kind, ev.node is None, *data)
            write = writers.get(shape)
            if write is None:
                write = writers[shape] = _writer(ev.kind, ev.node is not None,
                                                 tuple(data), ev.seq)
            append(write(ev))
        if not lines:
            return text
        append("")
        text += "\n".join(lines)
        lines.clear()


def _line_values(lines: list[str], first: int):
    """(number, JSON value) of each of `lines` that is not blank, numbered
    from `first`; ValueError at the first that does not hold exactly one
    JSON value, nesting past the stack included."""
    for i, line in enumerate(lines, first):
        if line and not line.isspace():
            try:
                value = _DECODER.decode(line)
            except RecursionError:
                raise ValueError(f"trace line {i} is nested too deep") from None
            yield i, value


def _records(text: str):
    """(line number, JSON value) of each line of `text` that is not blank,
    numbered as ``text.splitlines()`` numbers them, in order; ValueError at
    the first line that does not hold exactly one JSON value.  One iterator
    over the pairs of `_chunks`, with no Python frame per line."""
    return chain.from_iterable(_chunks(text))


def _chunks(text: str):
    """An iterator of `_records`' pairs per chunk of `text`, made when the
    pairs before it are used up.

    The text is read in chunks of about `_CHUNK` characters that end at a
    newline, and a chunk is one scanner pass: its lines, each newline
    replaced by a comma, inside one array.  That pass is accepted only when
    the chunk is ASCII with no "\\r", no line of it matches `_JOINED`, the
    array has one element per line and every element is a dict.  Then each
    line holds exactly that one dict.  A top-level comma of the array sits
    between two of its dicts, so between a ``}`` and a ``{`` with only
    spaces and tabs around it; had the line held it, the line would match
    `_JOINED`, so every top-level comma is a replaced newline.  And with
    as many elements as lines, no replaced newline is inside an element, so
    no element spans two lines.  (``{"a":[{}`` over ``{}]},{"b":1}`` reads
    as two dicts on two lines, but its second line matches `_JOINED`.)
    Nor does such a chunk hold a line break of `splitlines` but "\\n": the
    scanner refuses the ASCII control characters among them.  Any other
    chunk, one the scanner refuses or nests too deep included, is read line
    by line, by `_line_values`."""
    size, start, number = len(text), 0, 1
    while start < size:
        end = text.find("\n", min(start + _CHUNK, size - 1))
        if end < 0:
            end = size
        chunk = text[start:end]
        start = end + 1
        if chunk.isascii() and "\r" not in chunk and _JOINED.search(chunk) is None:
            count = chunk.count("\n") + 1
            try:
                recs = _DECODER.decode("[" + chunk.replace("\n", ",") + "]")
            except (ValueError, RecursionError):
                recs = ()
            if len(recs) == count and set(map(type, recs)) == {dict}:
                yield enumerate(recs, number)
                del recs            # frees what the events of the chunk do not keep
                number += count
                continue
        # the newline after the chunk, so that its last line counts if blank
        lines = (chunk + "\n").splitlines()
        yield _line_values(lines, number)
        number += len(lines)


@dataclass(slots=True)
class TraceEvent:
    time: int
    seq: int
    kind: str
    node: int | None
    data: dict

    def to_json(self) -> str:
        _refuse(_RESERVED, self.data, f"event {self.seq} data")
        rec = {"time": self.time, "seq": self.seq, "kind": self.kind}
        if self.node is not None:
            rec["node"] = self.node
        rec.update(self.data)
        return _encode(rec)


class _Index:
    """The events of one trace by kind, plus per node its advance times,
    ascending, and the highest round it had reached at each."""

    __slots__ = ("by_kind", "rounds")

    def __init__(self, events: list[TraceEvent]):
        by_kind = defaultdict(list)
        for ev in events:
            by_kind[ev.kind].append(ev)
        self.by_kind = by_kind
        pairs: dict[int, list[tuple[int, int]]] = {}
        for ev in by_kind.get("advance", ()):
            pairs.setdefault(ev.node, []).append((ev.time, ev.data["round"]))
        self.rounds: dict[int, tuple[list[int], list[int]]] = {}
        for node, seen in pairs.items():
            seen.sort()
            best, highs = 0, []
            for _, rnd in seen:
                best = max(best, rnd)
                highs.append(best)
            self.rounds[node] = ([t for t, _ in seen], highs)


class Trace:
    """The events of one run.  `version` is the format its events follow:
    a simulation records v2, and a trace read from a file keeps the file's
    version, which `to_jsonl` writes back."""

    def __init__(self, seed: int = 0, meta: dict | None = None,
                 version: int = TRACE_VERSION):
        self.seed = seed
        self.meta = meta or {}
        self.version = version
        self.events: list[TraceEvent] = []
        self._seq = 0
        self._index: _Index | None = None
        self._indexed = -1                   # len(events) when last indexed

    def append(self, time: int, kind: str, node: int | None = None,
               data: dict | None = None) -> TraceEvent:
        """Record one event.  `data` becomes the event's own payload dict, not
        a copy: pass each event a dict of its own."""
        # `TraceEvent`'s fields stored one by one, with no `__init__` frame;
        # tests/test_trace.py pins those fields
        ev = _new(TraceEvent)
        ev.time = time
        ev.seq = self._seq
        ev.kind = kind
        ev.node = node
        ev.data = {} if data is None else data
        self._seq += 1
        self.events.append(ev)
        return ev

    # -- derived views used by the checkers ---------------------------------

    def _views(self) -> _Index:
        if self._indexed != len(self.events):
            self._index = _Index(self.events)
            self._indexed = len(self.events)
        return self._index

    def iter_kind(self, kind: str):
        return iter(self._views().by_kind.get(kind, ()))

    def ab_outputs(self) -> dict[int, list[TraceEvent]]:
        """Per-node totally ordered delivery events, in trace order."""
        out: dict[int, list[TraceEvent]] = {}
        for ev in self.iter_kind("ab_output"):
            out.setdefault(ev.node, []).append(ev)
        return out

    def sub_outputs(self) -> dict[tuple[int, str], TraceEvent]:
        """(node, instance) -> output event; write-once by construction."""
        return {(ev.node, ev.data["instance"]): ev for ev in self.iter_kind("sub_output")}

    def advances(self) -> dict[int, list[TraceEvent]]:
        adv: dict[int, list[TraceEvent]] = {}
        for ev in self.iter_kind("advance"):
            adv.setdefault(ev.node, []).append(ev)
        return adv

    def current_round_at(self, node: int, when: int) -> int:
        """The node's round counter after all events at `when` are in."""
        times, highs = self._views().rounds.get(node, ((), ()))
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
        """The trace as text: a header line of `version`, `seed` and `meta`,
        then one line per event.  ValueError for a `meta` key that names
        one of the header's own fields, or a data key that names one of
        its event's."""
        _refuse(_HEADER, self.meta, "trace meta")
        return _jsonl_text(_encode({"kind": "trace_header", "version": self.version,
                                    "seed": self.seed, **self.meta}), self.events)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a trace file of format v1 or v2.  Each line must hold
        exactly one JSON object, and each event line an int ``time``, an int
        ``seq`` and a str ``kind``.  An event of a kind the checkers read
        must carry the fields they read (`_FIELDS`).  In v2 a `deliver`
        must name by its int ``msg`` an earlier `send` or `gossip` event
        that could reach its node: one whose ``to`` list holds the node,
        or, with no list, one sent by another node.  Anything else raises
        ValueError.

        The events share what recorded events share: one str per kind, one
        int per run of equal times, and a `deliver`'s ``msg`` is the seq
        object of the event it names."""
        records = _records(text)
        first = next(records, None)
        if first is None:
            raise ValueError("empty trace")
        header = first[1]
        if type(header) is not dict or header.get("kind") != "trace_header":
            raise ValueError("trace file lacks a header line")
        version = header.get("version")
        if type(version) is not int or version not in _READABLE:
            raise ValueError(f"unsupported trace version {version!r}")
        seed = header.get("seed", 0)
        if type(seed) is not int:
            raise ValueError(f"trace header seed must be an integer, got {seed!r}")
        meta = {k: v for k, v in header.items() if k not in _HEADER}
        trace = cls(seed=seed, meta=meta, version=version)
        events = trace.events
        # seq -> (its seq object, its `to` list or None, its node) per send
        # or gossip event
        sent = None if version == 1 else {}
        # kind -> (the one str kept for it, its `_FIELDS` entry, whether a
        # deliver may name it)
        kinds = {}
        last = None      # the time object of the event before
        append = events.append
        for i, rec in records:
            if type(rec) is not dict:
                raise ValueError(f"trace line {i} is not a JSON object")
            try:
                time, seq, kind = rec["time"], rec["seq"], rec["kind"]
            except KeyError:
                time = None
            if type(time) is not int or type(seq) is not int or type(kind) is not str:
                raise ValueError(f"trace line {i} needs an int time, an int seq "
                                 f"and a str kind")
            if time != last:
                last = time
            if kind == "deliver" and sent is not None:
                try:
                    node, msg = rec["node"], rec["msg"]
                except KeyError:
                    node = None
                if type(node) is not int or type(msg) is not int:
                    raise ValueError(f"trace line {i}: deliver needs an int node "
                                     f"and an int msg")
                send = sent.get(msg)
                if send is None:
                    raise ValueError(f"trace line {i}: deliver names no earlier send "
                                     f"or gossip event with seq {msg}")
                msg, to, sender = send
                if node not in to if to is not None else node == sender:
                    raise ValueError(f"trace line {i}: deliver at node {node} names "
                                     f"event {msg}, which does not send to it")
                # The recorder's dict: the scanner's keeps a table sized for
                # the six keys of the line.
                if len(rec) == 6 and "gossip" in rec:
                    rec = {"msg": msg, "gossip": rec["gossip"]}
                else:
                    del rec["time"], rec["seq"], rec["kind"], rec["node"]
                    rec["msg"] = msg
                kind, sends = "deliver", False
            else:
                del rec["time"], rec["seq"], rec["kind"]
                known = kinds.get(kind)
                if known is None:
                    known = kinds[kind] = (kind, _FIELDS.get(kind, ()),
                                           sent is not None and kind in _SENDS)
                kind, fields, sends = known
                if fields is _SUB and str(rec.get("instance")).startswith("wba/"):
                    fields = _WBA_SUB
                for name, (test, what) in fields:
                    if name not in rec or not test(rec[name]):
                        raise ValueError(f"trace line {i}: {kind} needs {what} {name}")
                node = rec.pop("node", None)
            ev = _new(TraceEvent)     # as in `append`
            ev.time = last
            ev.seq = seq
            ev.kind = kind
            ev.node = node
            ev.data = rec
            append(ev)
            if sends:
                to = rec.get("to")
                sent[seq] = (seq, to if type(to) is list else None, node)
        trace._seq = max(map(attrgetter("seq"), events), default=-1) + 1
        return trace
