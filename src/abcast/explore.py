"""Exhaustive interleaving search over small broadcast instances.

This is a brute-force oracle, deliberately independent of the stateful
machines in bracha.py.  Each correct validator is a packed integer: four
4-bit sender tallies plus a latched output field.  The Byzantine validator
is modelled as a fixed pool of messages it may inject, each deliverable at
any point and at most once per recipient (tallies deduplicate senders), so
the search over delivery orders covers every adversary behaviour within
that budget.  A message is in flight exactly when its sender has sent it
and it is absent from the recipient's tally, so the packed tuple of
validator states is the whole configuration.

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
through the latches (a validator backs one bit, outputs once), which the
packed state records, so visiting every reachable state is equivalent to
trying every delivery interleaving.

Layout per validator, low to high bits: tally of bit-0 votes (echoes),
tally of bit-1 votes, tally of bit-0 readies, tally of bit-1 readies,
2-bit output latch (0 none, 1+bit otherwise); reliable-broadcast states
add a 2-bit first-initial latch.  Three validators pack into one int.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem, xor

from .core import Params

_W = 4              # tally width: senders 0..2 correct, 3 Byzantine


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


# -- packed binary-agreement machines ----------------------------------------
# fields: votes0 | votes1<<4 | readies0<<8 | readies1<<12 | out<<16

_OUT_SHIFT = 16
_V_BITS = 18


def _wba_fire(st: int, me: int, bit: int, inp, th: Thresholds) -> int:
    both_votes = (st | (st >> _W)) & 0xF
    both_readies = ((st >> 8) | (st >> 12)) & 0xF
    while True:
        votes = (st >> (_W * bit)) & 0xF
        readies = (st >> (8 + _W * bit)) & 0xF
        trigger = votes.bit_count() >= th.quorum or readies.bit_count() >= th.amplify
        if not both_votes >> me & 1 and (inp == bit or trigger):
            st |= 1 << (_W * bit + me)
            both_votes |= 1 << me
            continue
        if not both_readies >> me & 1 and trigger:
            st |= 1 << (8 + _W * bit + me)
            both_readies |= 1 << me
            continue
        if not st >> _OUT_SHIFT and readies.bit_count() >= th.output:
            st |= (1 + bit) << _OUT_SHIFT
            continue
        return st


def _wba_deliver(st: int, me: int, kind: str, bit: int, sender: int, inp,
                 th: Thresholds) -> int:
    shift = (_W * bit) if kind == "vote" else (8 + _W * bit)
    if st >> (shift + sender) & 1:
        return st
    return _wba_fire(st | 1 << (shift + sender), me, bit, inp, th)


def _wba_moves(state: int, inputs, budget, byz: int):
    """All deliverable messages, as (kind, bit, sender, recipient)."""
    correct = len(inputs)
    vals = [(state >> (_V_BITS * i)) & ((1 << _V_BITS) - 1) for i in range(correct)]
    moves = []
    for kind, bit, rcpt in budget:
        shift = (_W * bit) if kind == "vote" else (8 + _W * bit)
        if not vals[rcpt] >> (shift + byz) & 1:
            moves.append((kind, bit, byz, rcpt))
    for s in range(correct):
        sv = vals[s]
        for kind, base in (("vote", 0), ("ready", 8)):
            for bit in (0, 1):
                if not sv >> (base + _W * bit + s) & 1:
                    continue
                for rcpt in range(correct):
                    if rcpt != s and not vals[rcpt] >> (base + _W * bit + s) & 1:
                        moves.append((kind, bit, s, rcpt))
    return moves


def _wba_apply(state: int, move, inputs, th: Thresholds) -> int:
    kind, bit, sender, rcpt = move
    mask = (1 << _V_BITS) - 1
    st = (state >> (_V_BITS * rcpt)) & mask
    st = _wba_deliver(st, rcpt, kind, bit, sender, inputs[rcpt], th)
    return (state & ~(mask << (_V_BITS * rcpt))) | (st << (_V_BITS * rcpt))


def _wba_outputs(state: int, correct: int):
    outs = []
    for i in range(correct):
        tag = (state >> (_V_BITS * i + _OUT_SHIFT)) & 0x3
        outs.append(None if tag == 0 else tag - 1)
    return outs


def _wba_initial(inputs, th: Thresholds) -> int:
    state = 0
    for me, bit in enumerate(inputs):
        st = 0 if bit is None else _wba_fire(0, me, bit, bit, th)
        state |= st << (_V_BITS * me)
    return state


def _wba_violation(state: int, inputs, need: int):
    outs = [b for b in _wba_outputs(state, len(inputs)) if b is not None]
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

    def __init__(self, group, slot: int, width: int):
        super().__init__()
        self.shifts = [(perm, width * perm[slot]) for perm in group]

    def __missing__(self, word: int) -> tuple[int, ...]:
        ims = self[word] = tuple(_relabel_word(word, perm) << shift
                                 for perm, shift in self.shifts)
        return ims


def _search(initial: int, width: int, byz_offer, successors, good, group,
            max_states: int):
    """Depth-first search over one representative per orbit of `group`.

    Each correct validator is a `width`-bit word; `byz_offer[r]` holds the
    tally positions the Byzantine budget may deliver to r, and
    `successors(r, word, avail)` lists r's new words, one per deliverable
    message in `avail`.  `good(tags)` judges a tuple of output latches.
    Returns (states, representatives, bad_state): the visited count with
    every orbit expanded, the count stored, and the first visited state
    that is not good (None if there is none).  A bad state found under a
    non-trivial group is searched for again under the identity alone, so
    the count and the state reported are those of the unreduced search.
    """
    ids = range(len(byz_offer))
    bases = [width * i for i in ids]
    word_mask = (1 << width) - 1
    self_mask = [sum(1 << (_W * fld + s) for fld in range(4)) for s in ids]
    out_mask = sum(3 << (b + _OUT_SHIFT) for b in bases)
    ok_outs = {sum(t << (b + _OUT_SHIFT) for t, b in zip(tags, bases))
               for tags in itertools.product(range(3), repeat=len(bases))
               if good(tags)}
    # A state's images are the sums of its slots' images (the slots land on
    # disjoint bits).  Per recipient and (word, deliverable set), `changes`
    # holds what each delivery XORs into every image.  The identity alone
    # runs as a pair of identities: the min and the orbit size (the count
    # of distinct images) come out the same, and pairs take an inline min.
    elements = group * 2 if len(group) == 1 else group
    pair = len(elements) == 2
    images = [_Images(elements, i, width) for i in ids]
    step_memo: list[dict] = [dict() for _ in ids]

    words = [initial >> b & word_mask for b in bases]
    imgs = tuple(map(sum, zip(*map(getitem, images, words))))
    states = len(set(imgs))
    rep = min(imgs)
    seen = {rep}
    stack = [rep]
    while stack:
        state = stack.pop()
        if state & out_mask not in ok_outs:
            if len(group) > 1:
                return _search(initial, width, byz_offer, successors, good,
                               group[:1], max_states)
            return states, len(seen), state
        words = [state >> b & word_mask for b in bases]
        imgs = tuple(map(sum, zip(*map(getitem, images, words))))
        im0, im1 = imgs[:2]
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
                if pair:
                    a, b = change
                    a ^= im0
                    b ^= im1
                    nxt = a if a < b else b
                else:
                    nxt = min(map(xor, imgs, change))
                if nxt not in seen:
                    states += len(set(map(xor, imgs, change)))
                    if states > max_states:
                        raise BudgetExceeded(f"over {max_states} states")
                    seen.add(nxt)
                    stack.append(nxt)
    return states, len(seen), None


def explore_wba(inputs, params: Params, byz_budget=None,
                thresholds: Thresholds | None = None,
                max_states: int = 20_000_000) -> ExploreResult:
    """Search every delivery order of correct and Byzantine messages.

    `inputs` lists the correct validators' input bits (None for no input);
    the remaining validator id is Byzantine and may inject the `byz_budget`
    pool of (kind, bit, recipient) messages in any order and any subset.
    Flags Agreement (two correct outputs differ) and Validity (an output
    bit backed by fewer than quorum-f correct inputs) violations, with a
    replayable delivery path as the witness when the searched space is
    small enough to walk again.
    """
    th = thresholds or Thresholds.for_params(params)
    correct = len(inputs)
    byz = correct
    if byz_budget is None:
        byz_budget = default_wba_budget(correct)
    need = params.quorum - params.f
    initial = _wba_initial(inputs, th)
    byz_offer = [0] * correct
    for kind, bit, rcpt in byz_budget:
        byz_offer[rcpt] |= 1 << (_W * bit + (0 if kind == "vote" else 8) + byz)
    valid_bit = [True, sum(1 for x in inputs if x == 0) >= need,
                 sum(1 for x in inputs if x == 1) >= need]

    def successors(r: int, sr: int, avail: int) -> list[int]:
        inp = inputs[r]
        out = []
        while avail:
            low = avail & -avail
            avail ^= low
            out.append(_wba_fire(sr | low, r, (low.bit_length() - 1) >> 2 & 1,
                                 inp, th))
        return out

    def good(tags) -> bool:
        nonzero = set(tags) - {0}
        return len(nonzero) <= 1 and all(valid_bit[t] for t in nonzero)

    states, reps, bad_state = _search(initial, _V_BITS, byz_offer, successors,
                                      good, symmetry_group(inputs, byz_budget),
                                      max_states)
    if bad_state is None:
        return ExploreResult(states, None, reps)
    detail = _wba_violation(bad_state, inputs, need)
    if states <= _WITNESS_LIMIT:
        detail["path"] = _witness(initial, bad_state,
                                  lambda s: _wba_moves(s, inputs, byz_budget, byz),
                                  lambda s, m: _wba_apply(s, m, inputs, th))
    return ExploreResult(states, detail, reps)


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


# -- packed reliable-broadcast machines ---------------------------------------
# fields: echoes_a | echoes_b<<4 | readies_a<<8 | readies_b<<12 |
#         out<<16 | first_initial<<18     (value domain: 0 and 1)

_R_INIT_SHIFT = 18
_R_BITS = 20


def default_rb_budget(correct: int = 3) -> list[tuple]:
    """Equivocating initials plus ready amplification for both values."""
    return [(kind, v, rcpt)
            for kind in ("initial", "ready")
            for v in (0, 1)
            for rcpt in range(correct)]


def _rb_fire(st: int, me: int, v: int, th: Thresholds) -> int:
    both_echoes = (st | (st >> _W)) & 0xF
    both_readies = ((st >> 8) | (st >> 12)) & 0xF
    while True:
        echoes = (st >> (_W * v)) & 0xF
        readies = (st >> (8 + _W * v)) & 0xF
        seen_initial = (st >> _R_INIT_SHIFT) == 1 + v
        trigger = (echoes.bit_count() >= th.quorum
                   or readies.bit_count() >= th.amplify)
        if not both_echoes >> me & 1 and (seen_initial or trigger):
            st |= 1 << (_W * v + me)
            both_echoes |= 1 << me
            continue
        if not both_readies >> me & 1 and trigger:
            st |= 1 << (8 + _W * v + me)
            both_readies |= 1 << me
            continue
        if not (st >> 16) & 0x3 and readies.bit_count() >= th.output:
            st |= (1 + v) << 16
            continue
        return st


def _rb_deliver(st: int, me: int, kind: str, v: int, sender: int,
                th: Thresholds) -> int:
    if kind == "initial":
        if st >> _R_INIT_SHIFT:
            return st                     # only the first initial counts
        return _rb_fire(st | (1 + v) << _R_INIT_SHIFT, me, v, th)
    shift = (_W * v) if kind == "echo" else (8 + _W * v)
    if st >> (shift + sender) & 1:
        return st
    return _rb_fire(st | 1 << (shift + sender), me, v, th)


def _rb_moves(state: int, correct: int, budget, byz: int):
    mask = (1 << _R_BITS) - 1
    vals = [(state >> (_R_BITS * i)) & mask for i in range(correct)]
    moves = []
    for kind, v, rcpt in budget:
        st = vals[rcpt]
        if kind == "initial":
            if not st >> _R_INIT_SHIFT:
                moves.append((kind, v, byz, rcpt))
        else:
            shift = (_W * v) if kind == "echo" else (8 + _W * v)
            if not st >> (shift + byz) & 1:
                moves.append((kind, v, byz, rcpt))
    for s in range(correct):
        sv = vals[s]
        for kind, base in (("echo", 0), ("ready", 8)):
            for v in (0, 1):
                if not sv >> (base + _W * v + s) & 1:
                    continue
                for rcpt in range(correct):
                    if rcpt != s and not vals[rcpt] >> (base + _W * v + s) & 1:
                        moves.append((kind, v, s, rcpt))
    return moves


def _rb_apply(state: int, move, th: Thresholds) -> int:
    kind, v, sender, rcpt = move
    mask = (1 << _R_BITS) - 1
    st = (state >> (_R_BITS * rcpt)) & mask
    st = _rb_deliver(st, rcpt, kind, v, sender, th)
    return (state & ~(mask << (_R_BITS * rcpt))) | (st << (_R_BITS * rcpt))


def _rb_violation(state: int, correct: int):
    outs = []
    for i in range(correct):
        tag = (state >> (_R_BITS * i + 16)) & 0x3
        if tag:
            outs.append(tag - 1)
    if len(set(outs)) > 1:
        return {"kind": "agreement", "outputs": outs}
    return None


def explore_rb(params: Params, correct: int = 3, byz_budget=None,
               thresholds: Thresholds | None = None,
               max_states: int = 20_000_000) -> ExploreResult:
    """Byzantine proposer equivocates over two values; checks Agreement."""
    th = thresholds or Thresholds.for_params(params)
    byz = correct
    if byz_budget is None:
        byz_budget = default_rb_budget(correct)
    byz_offer = [0] * correct           # tally positions, as in explore_wba
    init_offer = [0] * correct          # value bits the budget lets byz propose
    for kind, v, rcpt in byz_budget:
        if kind == "initial":
            init_offer[rcpt] |= 1 << v
        else:
            byz_offer[rcpt] |= 1 << (_W * v + (0 if kind == "echo" else 8) + byz)

    def successors(r: int, sr: int, avail: int) -> list[int]:
        out = []
        while avail:
            low = avail & -avail
            avail ^= low
            out.append(_rb_fire(sr | low, r, (low.bit_length() - 1) >> 2 & 1, th))
        if not sr >> _R_INIT_SHIFT:
            inits = init_offer[r]
            while inits:
                low = inits & -inits
                inits ^= low
                v = low.bit_length() - 1
                out.append(_rb_fire(sr | (1 + v) << _R_INIT_SHIFT, r, v, th))
        return out

    def good(tags) -> bool:
        return len(set(tags) - {0}) <= 1

    states, reps, bad_state = _search(0, _R_BITS, byz_offer, successors, good,
                                      symmetry_group((None,) * correct, byz_budget),
                                      max_states)
    if bad_state is None:
        return ExploreResult(states, None, reps)
    detail = _rb_violation(bad_state, correct)
    if states <= _WITNESS_LIMIT:
        detail["path"] = _witness(0, bad_state,
                                  lambda s: _rb_moves(s, correct, byz_budget, byz),
                                  lambda s, m: _rb_apply(s, m, th))
    return ExploreResult(states, detail, reps)
