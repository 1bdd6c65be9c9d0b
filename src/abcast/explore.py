"""Exhaustive interleaving search over small broadcast instances.

This is a brute-force oracle, deliberately independent of the stateful
machines in bracha.py.  As there, reliable broadcast and binary agreement
are one echo/ready amplifier: each correct validator is one packed integer
holding four 4-bit sender tallies, an output latch and a seed latch, and it
echoes its seed value unprompted.  Binary agreement seeds a validator with
its input in the initial state; reliable broadcast, with the first initial
the Byzantine proposer delivers.  The Byzantine validator is modelled as a
fixed pool of messages it may inject, each deliverable at any point and at
most once per recipient (tallies deduplicate senders; a seed, once set,
stays), so the search over delivery orders covers every adversary
behaviour within that budget.  A message is in flight exactly when its
sender has sent it and it is absent from the recipient's tally, so the
packed tuple of validator states is the whole configuration.

The search splits each state into slot 0's word and a key, the packed
words of slots 1..k-1.  A move delivers one message to one validator r
and changes only r's word.  Whether r can take the message, and r's word
after it, depend only on r's own word, on the sender bits the other
correct validators have set in their own words (`word & sent[i]`: what
they have sent), and on the fixed Byzantine pool.  So slot 0's moves read
the key and nothing else outside slot 0, and a move to slot j >= 1 reads
slot 0 only through the 4 bits slot 0 has sent.  The reachable set is
therefore held exactly as a map from key to a bitset over slot 0's words:
close a key's bits under slot-0 moves in that key's context, split them
into the at most 16 classes of what they sent, and OR each class into the
key of every slot-j successor that class enables.  A state is reachable
exactly when its word's bit is set under its key, so
`ExploreResult.states`, the sum of the bitsets' sizes, is the count a
walk over single states gives.

Many keys share a (context, bitset) pair (the benchmark's searches meet
144 pairs over about 29,000 keys), so each pair's closure is split once
and memoised.  The memo stays exact: a word's index is fixed when the word
is first met, and a tag or class mask only gains the indices of words met
later, which no closure computed earlier holds.

The tallies are order-independent sets; all order dependence funnels
through the latches (a validator echoes one value, readies one, outputs
and is seeded once), which the packed state records, so visiting every
reachable state is equivalent to trying every delivery interleaving.

Layout per validator, low to high bits: tallies of value-0 echoes
(binary agreement's votes), value-1 echoes, value-0 readies and value-1
readies, then the 2-bit output latch at bit 16 and the 2-bit seed latch at
bit 18 (0 none, 1+value otherwise).  Three validators pack into one int.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Params

_W = 4              # tally width: senders 0..2 correct, 3 Byzantine
_OUT = 16           # output latch
_SEED = 18          # seed latch
_BITS = 20          # one validator's word
_MASK = (1 << _BITS) - 1
# Byzantine budget kinds, keyed by the protocol's name for an echo (WBA, RB)
_BUDGET_KINDS = {"vote": ("vote", "ready"), "echo": ("echo", "ready", "initial")}


@dataclass(frozen=True)
class Thresholds:
    """Tally sizes that fire each rule; tests may distort them."""

    quorum: int
    amplify: int      # readies that make a node join in
    output: int       # readies that let a node output

    @staticmethod
    def for_params(params: Params) -> "Thresholds":
        return Thresholds(params.quorum, params.f + 1, 2 * params.f + 1)


@dataclass
class ExploreResult:
    states: int                 # reachable states
    violation: dict | None

    @property
    def ok(self) -> bool:
        return self.violation is None


# The default cap on reachable states: a bound on time, not on memory, which
# grows with the keys.  At the 15-55M states per second the default-budget
# searches reach on one core of a 2-core x86-64 machine (Python 3.11), 200M
# states take about 4-13 s.  It covers the violating instances of 26M-108M
# states at distorted thresholds.
MAX_STATES = 200_000_000


class BudgetExceeded(RuntimeError):
    """The reachable state count passed the configured cap."""


def default_wba_budget(correct: int = 3) -> list[tuple]:
    """vote/ready, both bits, to every correct validator: 4*correct messages."""
    return [(kind, bit, rcpt)
            for kind in ("vote", "ready")
            for bit in (0, 1)
            for rcpt in range(correct)]


def default_rb_budget(correct: int = 3) -> list[tuple]:
    """Equivocating initials plus ready amplification for both values."""
    return [(kind, v, rcpt)
            for kind in ("initial", "ready")
            for v in (0, 1)
            for rcpt in range(correct)]


# -- the packed echo/ready machine --------------------------------------------
# fields: echoes0 | echoes1<<4 | readies0<<8 | readies1<<12 | out<<16 | seed<<18

def _tally_bit(kind: str, v: int, sender: int) -> int:
    return 1 << ((8 if kind == "ready" else 0) + _W * v + sender)


def _fire(st: int, me: int, v: int, th: Thresholds) -> int:
    """Apply every rule the tallies for value `v` now enable."""
    both_echoes = (st | (st >> _W)) & 0xF
    both_readies = ((st >> 8) | (st >> 12)) & 0xF
    seeded = st >> _SEED == 1 + v
    while True:
        echoes = (st >> (_W * v)) & 0xF
        readies = (st >> (8 + _W * v)) & 0xF
        trigger = (echoes.bit_count() >= th.quorum
                   or readies.bit_count() >= th.amplify)
        if not both_echoes >> me & 1 and (seeded or trigger):
            st |= 1 << (_W * v + me)
            both_echoes |= 1 << me
            continue
        if not both_readies >> me & 1 and trigger:
            st |= 1 << (8 + _W * v + me)
            both_readies |= 1 << me
            continue
        if not st >> _OUT & 0x3 and readies.bit_count() >= th.output:
            st |= (1 + v) << _OUT
            continue
        return st


def _initial(inputs, th: Thresholds) -> int:
    state = 0
    for me, v in enumerate(inputs):
        if v is not None:
            state |= _fire((1 + v) << _SEED, me, v, th) << (_BITS * me)
    return state


def _moves(state: int, correct: int, budget, echo_kind: str):
    """All deliverable messages, as (kind, value, sender, recipient)."""
    words = [(state >> (_BITS * i)) & _MASK for i in range(correct)]
    byz = correct
    moves = []
    for kind, v, rcpt in budget:
        held = (words[rcpt] >> _SEED if kind == "initial"
                else words[rcpt] & _tally_bit(kind, v, byz))
        if not held:
            moves.append((kind, v, byz, rcpt))
    for s in range(correct):
        sv = words[s]
        for kind, base in ((echo_kind, 0), ("ready", 8)):
            for v in (0, 1):
                if not sv >> (base + _W * v + s) & 1:
                    continue
                for rcpt in range(correct):
                    if rcpt != s and not words[rcpt] >> (base + _W * v + s) & 1:
                        moves.append((kind, v, s, rcpt))
    return moves


def _apply(state: int, move, th: Thresholds) -> int:
    kind, v, sender, rcpt = move
    base = _BITS * rcpt
    st = (state >> base) & _MASK
    if kind == "initial":
        if st >> _SEED:
            return state                  # only the first initial counts
        st = _fire(st | (1 + v) << _SEED, rcpt, v, th)
    else:
        bit = _tally_bit(kind, v, sender)
        if st & bit:
            return state
        st = _fire(st | bit, rcpt, v, th)
    return (state & ~(_MASK << base)) | (st << base)


def _violation(state: int, inputs, need: int):
    """Agreement, then validity: an output backed by fewer than `need`
    correct inputs (reliable broadcast passes all-None inputs and need 0)."""
    tags = [(state >> (_BITS * i + _OUT)) & 0x3 for i in range(len(inputs))]
    outs = [tag - 1 for tag in tags if tag]
    if len(set(outs)) > 1:
        return {"kind": "agreement", "outputs": outs}
    for bit in set(outs):
        backing = sum(1 for x in inputs if x == bit)
        if backing < need:
            return {"kind": "validity", "bit": bit,
                    "correct_inputs": backing, "needed": need}
    return None


# -- set-based reachability fixpoint -----------------------------------------

def _search(initial: int, byz_offer, successors, inputs, need: int,
            max_states: int):
    """Every reachable state, as slot 0's words per key of the other slots.

    `byz_offer[r]` holds the tally positions the Byzantine budget may
    deliver to validator r, and `successors(r, word, avail)` lists r's new
    words, one per deliverable message in `avail` (plus any initial r may
    still take).  Returns (states, bad_state): the reachable count and the
    first state met that `_violation` calls an agreement violation, else
    the first it calls a validity violation, else None.

    A key packs slots 1..k-1 as the state does above slot 0, and its value
    is a bitset over `words0`, slot 0's words in the order first met.  A
    move to slot j >= 1 strictly adds bits to the key, so the keys are
    processed once each in order of their bit count: by then every key
    that leads to one has sent it all its slot-0 bits.

    Each key's closure comes split from the memo on (context, bitset),
    exact for the reason the module docstring gives.  Classes are walked
    in `by_sent` order and slots 1..k-1 inside each, so successor keys,
    and the first violating state met, come in a fixed order.
    """
    ids = range(len(inputs))
    sent = [sum(1 << (_W * fld + s) for fld in range(4)) for s in ids]
    index: dict[int, int] = {}
    words0: list[int] = []
    by_tag = [0, 0, 0]                  # slot-0 words by output latch
    by_sent: dict[int, int] = {}        # ... and by the tally bits they sent
    closed: dict[tuple, int] = {}       # (context, word) -> its closure
    closed_sets: dict[tuple, tuple] = {}  # (context, bitset) -> close_all
    steps: dict[tuple, tuple] = {}      # (slot, word, avail) -> key changes

    def bit(word: int) -> int:
        i = index.get(word)
        if i is None:
            i = index[word] = len(words0)
            words0.append(word)
            by_tag[word >> _OUT & 0x3] |= 1 << i
            by_sent[word & sent[0]] = by_sent.get(word & sent[0], 0) | 1 << i
        return 1 << i

    def close(ctx: int, word: int) -> int:
        """`word` and every slot-0 word reachable from it in context `ctx`."""
        got = closed.get((ctx, word))
        if got is None:
            got = bit(word)
            for nw in successors(0, word, ctx & ~word & 0xFFFF):
                got |= close(ctx, nw)
            closed[ctx, word] = got
        return got

    def close_all(ctx: int, bits: int) -> tuple:
        """Memoise the closure of `bits` in context `ctx` as its size, its
        words per set of output tags, and its nonzero parts per class."""
        reach, rest = 0, bits
        while rest:
            low = rest & -rest
            rest ^= low
            if not reach & low:
                reach |= close(ctx, words0[low.bit_length() - 1])
        got = closed_sets[ctx, bits] = (
            reach.bit_count(),
            [sum(reach & by_tag[t] for t in range(3) if s >> t & 1) for s in range(8)],
            [(cls, reach & mask) for cls, mask in by_sent.items() if reach & mask])
        return got

    verdicts: dict[int, dict] = {}      # key latches -> kind -> bitset of slot-0 tags
    for tags in itertools.product(range(3), repeat=len(ids)):
        bad = _violation(sum(t << (_BITS * i + _OUT) for i, t in enumerate(tags)),
                         inputs, need)
        if bad is not None:
            outs = sum(t << (_BITS * (i - 1) + _OUT) for i, t in enumerate(tags) if i)
            kinds = verdicts.setdefault(outs, {})
            kinds[bad["kind"]] = kinds.get(bad["kind"], 0) | 1 << tags[0]
    out_mask = sum(0x3 << (_BITS * (i - 1) + _OUT) for i in ids[1:])
    shifts = [(j, _BITS * (j - 1), sent[j]) for j in ids[1:]]

    levels: list[dict[int, int]] = [{} for _ in range(_BITS * len(ids))]
    levels[(initial >> _BITS).bit_count()][initial >> _BITS] = bit(initial & _MASK)
    states = 0
    found: dict[str, int] = {}
    for count, level in enumerate(levels):
        for key, bits in level.items():
            offers = 0
            for j, shift, mask in shifts:
                offers |= key >> shift & mask
            ctx = byz_offer[0] | offers
            size, hits, parts = closed_sets.get((ctx, bits)) or close_all(ctx, bits)
            states += size
            if states > max_states:
                raise BudgetExceeded(f"over {max_states} states")
            for kind, tagset in verdicts.get(key & out_mask, {}).items():
                hit = hits[tagset]
                if hit and kind not in found:
                    found[kind] = key << _BITS | words0[(hit & -hit).bit_length() - 1]
            slots = []
            for j, shift, mask in shifts:
                word = key >> shift & _MASK
                free = ~word & 0xFFFF
                slots.append((j, word, free, (offers | byz_offer[j]) & free))
            for cls, part in parts:
                for j, word, free, base in slots:
                    avail = base | cls & free
                    changes = steps.get((j, word, avail))
                    if changes is None:
                        changes = steps[j, word, avail] = tuple(
                            ((word ^ nw) << _BITS * (j - 1),
                             nw.bit_count() - word.bit_count())
                            for nw in successors(j, word, avail))
                    for change, rise in changes:
                        into = levels[count + rise]
                        nxt = key ^ change
                        into[nxt] = into.get(nxt, 0) | part
        level.clear()
    return states, found.get("agreement", found.get("validity"))


def _witness(initial: int, target: int, moves_of, apply_move):
    """Shortest delivery sequence from the initial state to the target.

    A packed state only ever gains bits (tallies and latches are set, never
    cleared), so every state on a path to `target` is a sub-state of it.
    Any other state is skipped: it could only discover states that are not
    sub-states either, so the parent links, and the path, are those of the
    unpruned breadth-first walk."""
    parent: dict[int, tuple] = {initial: None}
    frontier = [initial]
    outside = ~target
    while frontier:
        nxt_frontier = []
        for state in frontier:
            for move in moves_of(state):
                nxt = apply_move(state, move)
                if nxt & outside or nxt in parent:
                    continue
                parent[nxt] = (state, move)
                if nxt == target:
                    path = []
                    cur = nxt
                    while parent[cur] is not None:
                        cur, mv = parent[cur]
                        path.append(mv)
                    return tuple(reversed(path))
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return ()       # unreachable if target came from the same transition system


def _explore(inputs, budget, echo_kind: str, need: int, th: Thresholds,
             max_states: int) -> ExploreResult:
    """Search one instance: `inputs` seeds the correct validators (None for
    no seed), `budget` is the Byzantine pool of (kind, value, recipient)
    messages, and an output needs `need` correct inputs behind it."""
    correct = len(inputs)
    if correct >= _W:
        raise ValueError(f"{correct} correct validators and a Byzantine one "
                         f"do not fit {_W}-bit tallies")
    kinds = _BUDGET_KINDS[echo_kind]
    byz_offer = [0] * correct           # tally positions the budget may fill
    init_offer = [0] * correct          # values the budget may seed r with
    for entry in budget:
        kind, v, rcpt = entry
        if (kind not in kinds or v not in (0, 1) or rcpt not in range(correct)
                or isinstance(v, bool) or isinstance(rcpt, bool)):
            raise ValueError(f"budget entry {entry!r} is not (kind, 0 or 1, "
                             f"recipient below {correct}) with kind in {kinds}")
        if kind == "initial":
            init_offer[rcpt] |= 1 << v
        else:
            byz_offer[rcpt] |= _tally_bit(kind, v, correct)

    def successors(r: int, sr: int, avail: int) -> list[int]:
        out = []
        while avail:
            low = avail & -avail
            avail ^= low
            out.append(_fire(sr | low, r, (low.bit_length() - 1) >> 2 & 1, th))
        if not sr >> _SEED:             # the initials r may still take
            out += [_fire(sr | (1 + v) << _SEED, r, v, th)
                    for v in (0, 1) if init_offer[r] >> v & 1]
        return out

    initial = _initial(inputs, th)
    states, bad_state = _search(initial, byz_offer, successors, inputs, need,
                                max_states)
    if bad_state is None:
        return ExploreResult(states, None)
    detail = _violation(bad_state, inputs, need)
    detail["path"] = _witness(initial, bad_state,
                              lambda s: _moves(s, correct, budget, echo_kind),
                              lambda s, m: _apply(s, m, th))
    return ExploreResult(states, detail)


def explore_wba(inputs, params: Params, byz_budget=None,
                thresholds: Thresholds | None = None,
                max_states: int = MAX_STATES) -> ExploreResult:
    """Search every delivery order of correct and Byzantine messages.

    `inputs` lists the correct validators' input bits (None for no input);
    the remaining validator id is Byzantine and may inject the `byz_budget`
    pool of (kind, bit, recipient) messages, kind "vote" or "ready", in any
    order and any subset.  Flags Agreement (two correct outputs differ) and
    Validity (an output bit backed by fewer than quorum-f correct inputs)
    violations, with a replayable delivery path as the witness.  Raises
    BudgetExceeded once the reachable states counted pass `max_states`, a
    bound on the search's time (see `MAX_STATES`).
    """
    inputs = tuple(inputs)
    if not inputs or any(isinstance(v, bool) or v not in (0, 1, None) for v in inputs):
        raise ValueError(f"inputs {inputs!r} are not one or more of 0, 1 and None")
    if byz_budget is None:
        byz_budget = default_wba_budget(len(inputs))
    return _explore(inputs, byz_budget, "vote", params.quorum - params.f,
                    thresholds or Thresholds.for_params(params), max_states)


def explore_rb(params: Params, correct: int = 3, byz_budget=None,
               thresholds: Thresholds | None = None,
               max_states: int = MAX_STATES) -> ExploreResult:
    """Byzantine proposer equivocates over two values; checks Agreement.

    Budget kinds are "initial", "echo" and "ready".  `max_states` bounds
    the search's time as in `explore_wba`."""
    if not isinstance(correct, int) or isinstance(correct, bool) or correct < 1:
        raise ValueError(f"correct={correct!r} is not a positive validator count")
    if byz_budget is None:
        byz_budget = default_rb_budget(correct)
    return _explore((None,) * correct, byz_budget, "echo", 0,
                    thresholds or Thresholds.for_params(params), max_states)
