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

Correct validators with equal inputs are interchangeable when the
Byzantine budget treats their ids alike (its message set is unchanged
when recipients are relabeled).  Those relabelings form a group G, and
relabeling a reachable state (moving validator i's word to slot pi(i),
with the correct sender bits of every tally moved along) gives another
reachable state.  The memo set therefore holds one representative per
orbit, the least of its |G| images, and the search adds up the orbit sizes
|G|/|Stab| (the number of distinct images) as it stores representatives,
so `ExploreResult.states` is the count of the unreduced search.  When G is
the identity alone, the search visits states in the same order as an
unreduced one; a violation found under a larger G is searched for again
under the identity, so the reported count and witness do not depend on G.

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
from operator import getitem, xor

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
    states: int                 # reachable states, every orbit counted in full
    violation: dict | None
    representatives: int        # states the search stored: one per orbit

    @property
    def ok(self) -> bool:
        return self.violation is None


class BudgetExceeded(RuntimeError):
    """The reachable state count passed the configured cap."""


_WITNESS_LIMIT = 2_000_000      # walk the space again only when it is small


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


# -- symmetry-reduced search core ---------------------------------------------

def symmetry_group(inputs, budget) -> tuple[tuple[int, ...], ...]:
    """Relabelings of the correct validators that the instance cannot observe.

    `perm` (validator i becomes perm[i]) is kept when every validator keeps
    its input and the Byzantine budget maps onto itself with its recipients
    relabeled.  The identity comes first.
    """
    ids = range(len(inputs))
    pool = set(budget)
    return tuple(perm for perm in itertools.permutations(ids)
                 if all(inputs[perm[i]] == inputs[i] for i in ids)
                 and {(kind, bit, perm[r]) for kind, bit, r in pool} == pool)


def _relabel_word(word: int, perm) -> int:
    """Move the correct sender bits of every tally nibble along `perm`; the
    Byzantine sender bit and the latches stay."""
    out = word
    for fld in range(4):
        for i in range(len(perm)):
            out &= ~(1 << (_W * fld + i))
        for i, j in enumerate(perm):
            out |= (word >> (_W * fld + i) & 1) << (_W * fld + j)
    return out


class _Images(dict):
    """One slot's words, each mapped to its images under every group element
    (the relabeled word shifted into the slot it moves to)."""

    def __init__(self, group, slot: int):
        super().__init__()
        self.shifts = [(perm, _BITS * perm[slot]) for perm in group]

    def __missing__(self, word: int) -> tuple[int, ...]:
        ims = self[word] = tuple(_relabel_word(word, perm) << shift
                                 for perm, shift in self.shifts)
        return ims


def _search(initial: int, byz_offer, successors, inputs, need: int, group,
            max_states: int):
    """Depth-first search over one representative per orbit of `group`.

    `byz_offer[r]` holds the tally positions the Byzantine budget may
    deliver to validator r, and `successors(r, word, avail)` lists r's new
    words, one per deliverable message in `avail` (plus any initial r may
    still take).  A state is bad when `_violation` finds one in it, given
    `inputs` and `need`.  Returns (states, representatives, bad_state):
    the visited count with every orbit expanded, the count stored, and the
    first visited state that is bad (None if there is none).  A bad state
    found under a non-trivial group is searched for again under the
    identity alone, so the count and the state reported are those of the
    unreduced search.

    The stack holds each state's images as discovered, identity first, so
    none is rebuilt at a pop.  A successor is first looked up under the
    element that maps its parent to the parent's least image and skipped on
    a hit, with no min over the group: `seen` holds least images only, so
    any image found there means the successor's orbit is stored.
    """
    ids = range(len(byz_offer))
    bases = [_BITS * i for i in ids]
    self_mask = [sum(1 << (_W * fld + s) for fld in range(4)) for s in ids]
    out_mask = sum(3 << (b + _OUT) for b in bases)
    latches = (sum(t << (b + _OUT) for t, b in zip(tags, bases))
               for tags in itertools.product(range(3), repeat=len(bases)))
    ok_outs = {s for s in latches if _violation(s, inputs, need) is None}
    # A state's images are the sums of its slots' images (the slots land on
    # disjoint bits).  Per recipient and (word, deliverable set), `changes`
    # holds what each delivery XORs into every image.
    images = [_Images(group, i) for i in ids]
    step_memo: list[dict] = [dict() for _ in ids]

    words = [initial >> b & _MASK for b in bases]
    imgs = tuple(map(sum, zip(*map(getitem, images, words))))
    states = len(set(imgs))
    seen = {min(imgs)}
    stack = [imgs]
    while stack:
        imgs = stack.pop()
        state = imgs[0]
        if state & out_mask not in ok_outs:
            if len(group) > 1:
                return _search(initial, byz_offer, successors, inputs, need,
                               group[:1], max_states)
            return states, len(seen), state
        j = imgs.index(min(imgs))
        rep = imgs[j]
        words = [state >> b & _MASK for b in bases]
        offers = 0
        for i in ids:
            offers |= words[i] & self_mask[i]
        for r in ids:
            sr = words[r]
            key = sr << 16 | (offers | byz_offer[r]) & ~sr & 0xFFFF
            changes = step_memo[r].get(key)
            if changes is None:
                old = images[r][sr]
                changes = tuple(tuple(map(xor, old, images[r][nv]))
                                for nv in successors(r, sr, key & 0xFFFF))
                step_memo[r][key] = changes
            for change in changes:
                if rep ^ change[j] in seen:
                    continue
                nxt = tuple(map(xor, imgs, change))
                least = min(nxt)
                if least not in seen:
                    states += len(set(nxt))
                    if states > max_states:
                        raise BudgetExceeded(f"over {max_states} states")
                    seen.add(least)
                    stack.append(nxt)
    return states, len(seen), None


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
        if kind not in kinds or v not in (0, 1) or rcpt not in range(correct):
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
    states, reps, bad_state = _search(initial, byz_offer, successors, inputs, need,
                                      symmetry_group(inputs, budget), max_states)
    if bad_state is None:
        return ExploreResult(states, None, reps)
    detail = _violation(bad_state, inputs, need)
    if states <= _WITNESS_LIMIT:
        detail["path"] = _witness(initial, bad_state,
                                  lambda s: _moves(s, correct, budget, echo_kind),
                                  lambda s, m: _apply(s, m, th))
    return ExploreResult(states, detail, reps)


def explore_wba(inputs, params: Params, byz_budget=None,
                thresholds: Thresholds | None = None,
                max_states: int = 20_000_000) -> ExploreResult:
    """Search every delivery order of correct and Byzantine messages.

    `inputs` lists the correct validators' input bits (None for no input);
    the remaining validator id is Byzantine and may inject the `byz_budget`
    pool of (kind, bit, recipient) messages, kind "vote" or "ready", in any
    order and any subset.  Flags Agreement (two correct outputs differ) and
    Validity (an output bit backed by fewer than quorum-f correct inputs)
    violations, with a replayable delivery path as the witness when the
    searched space is small enough to walk again.
    """
    if byz_budget is None:
        byz_budget = default_wba_budget(len(inputs))
    return _explore(inputs, byz_budget, "vote", params.quorum - params.f,
                    thresholds or Thresholds.for_params(params), max_states)


def explore_rb(params: Params, correct: int = 3, byz_budget=None,
               thresholds: Thresholds | None = None,
               max_states: int = 20_000_000) -> ExploreResult:
    """Byzantine proposer equivocates over two values; checks Agreement.

    Budget kinds are "initial", "echo" and "ready"."""
    if byz_budget is None:
        byz_budget = default_rb_budget(correct)
    return _explore((None,) * correct, byz_budget, "echo", 0,
                    thresholds or Thresholds.for_params(params), max_states)
