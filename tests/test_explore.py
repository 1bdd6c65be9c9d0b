import functools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcast.bracha import BrachaMsg, BrachaRb, BrachaWba
from abcast.core import Params
from abcast.explore import (
    _BITS,
    _MASK,
    _OUT,
    _SEED,
    _W,
    BudgetExceeded,
    Thresholds,
    _apply,
    _initial,
    _moves,
    _relabel_word,
    _violation,
    default_rb_budget,
    default_wba_budget,
    explore_rb,
    explore_wba,
    symmetry_group,
)
from abcast.subproto import Input, InstanceKey, Kind, Output

PARAMS = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
TH = Thresholds.for_params(PARAMS)


def test_thresholds_for_params():
    assert TH == Thresholds(quorum=3, amplify=2, output=3)


def test_default_budgets():
    assert len(default_wba_budget(3)) == 12
    assert ("vote", 0, 2) in default_wba_budget(3)
    assert len(default_rb_budget(3)) == 12
    assert ("initial", 1, 0) in default_rb_budget(3)


def slow_wba_states(inputs, budget, th):
    """Every reachable state, via the generic move/apply pair and no symmetry."""
    init = _initial(inputs, th)
    seen = {init}
    stack = [init]
    while stack:
        st = stack.pop()
        for mv in _moves(st, len(inputs), budget, "vote"):
            nxt = _apply(st, mv, th)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def slow_wba_reach(inputs, budget, th):
    """Reachable-state count via the generic move/apply pair."""
    return len(slow_wba_states(inputs, budget, th))


def slow_rb_states(correct, budget, th):
    seen = {0}
    stack = [0]
    while stack:
        st = stack.pop()
        for mv in _moves(st, correct, budget, "echo"):
            nxt = _apply(st, mv, th)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def slow_rb_reach(correct, budget, th):
    return len(slow_rb_states(correct, budget, th))


def orbit_count(states, inputs, budget):
    """Orbits among `states`: distinct least images under the instance's
    symmetry group, each image built by relabeling every slot's word."""
    group = symmetry_group(inputs, budget)

    @functools.cache
    def slot_images(i, word):
        return [_relabel_word(word, perm) << (_BITS * perm[i]) for perm in group]

    def least(state):
        return min(map(sum, zip(*(slot_images(i, state >> (_BITS * i) & _MASK)
                                  for i in range(len(inputs))))))
    return len(set(map(least, states)))


def test_wba_explorer_matches_reference_walk():
    cases = [
        ((1, 1, 1), [("vote", 0, 0), ("ready", 1, 1)], 2380),
        ((1, 1, 0), [("vote", 0, 0), ("vote", 0, 1),
                     ("ready", 0, 2), ("vote", 1, 0)], 1792),
        ((None, 1, 0), [("vote", 1, 0), ("vote", 0, 2), ("ready", 1, 0)], 128),
    ]
    for inputs, budget, expected in cases:
        res = explore_wba(inputs, PARAMS, byz_budget=budget)
        assert res.ok
        assert res.states == expected
        assert slow_wba_reach(inputs, budget, TH) == expected


def test_rb_explorer_matches_reference_walk():
    budget = [("initial", 0, 0), ("initial", 1, 1), ("ready", 0, 2)]
    res = explore_rb(PARAMS, byz_budget=budget)
    assert res.ok
    assert res.states == slow_rb_reach(3, budget, TH)


def test_wba_small_budget_has_no_violation():
    res = explore_wba((1, 1, 1), PARAMS,
                      byz_budget=[("vote", 0, 0), ("vote", 0, 1),
                                  ("ready", 0, 0), ("ready", 0, 2),
                                  ("vote", 1, 2), ("ready", 1, 1)])
    assert res.ok


def test_distorted_output_threshold_breaks_agreement():
    # A node that outputs on a single ready lets one Byzantine message
    # commit each bit at a different node.
    bad = Thresholds(quorum=3, amplify=2, output=1)
    res = explore_wba((1, 1, 1), PARAMS,
                      byz_budget=[("ready", 0, 0), ("ready", 1, 1)],
                      thresholds=bad)
    assert not res.ok
    assert res.states == 115
    assert res.violation["kind"] == "agreement"
    path = res.violation["path"]
    assert len(path) == 8
    assert path == (("ready", 0, 3, 0), ("ready", 1, 3, 1), ("vote", 1, 0, 1),
                    ("vote", 1, 0, 2), ("vote", 1, 1, 2), ("vote", 1, 2, 1),
                    ("ready", 1, 1, 2), ("ready", 1, 2, 1))
    state = _initial((1, 1, 1), bad)
    for move in path:
        state = _apply(state, move, bad)
    replayed = _violation(state, (1, 1, 1), PARAMS.quorum - PARAMS.f)
    assert replayed is not None and replayed["kind"] == "agreement"


def test_distorted_quorum_breaks_validity():
    # Quorum 2 lets the adversary launder a bit backed by one correct input.
    weak = Thresholds(quorum=2, amplify=2, output=3)
    budget = [(k, 0, r) for k in ("vote", "ready") for r in range(3)]
    res = explore_wba((0, 1, 1), PARAMS, byz_budget=budget, thresholds=weak)
    assert not res.ok
    assert res.states == 2173
    v = res.violation
    assert v["kind"] == "validity"
    assert v["bit"] == 0
    assert v["correct_inputs"] == 1
    assert len(v["path"]) == 13
    assert v["path"] == (
        ("vote", 0, 3, 1), ("vote", 0, 3, 2), ("ready", 0, 3, 0),
        ("ready", 0, 3, 1), ("ready", 0, 3, 2), ("vote", 0, 0, 1),
        ("vote", 1, 1, 2), ("vote", 0, 0, 2), ("ready", 0, 1, 0),
        ("ready", 0, 1, 2), ("vote", 1, 2, 1), ("ready", 1, 2, 0),
        ("ready", 1, 2, 1))


def _unpruned_witness(initial, target, moves_of, apply_move):
    """The breadth-first walk to `target` that visits every reachable state."""
    parent = {initial: None}
    frontier = [initial]
    while frontier:
        nxt_frontier = []
        for state in frontier:
            for move in moves_of(state):
                nxt = apply_move(state, move)
                if nxt in parent:
                    continue
                parent[nxt] = (state, move)
                if nxt == target:
                    path = []
                    while parent[nxt] is not None:
                        nxt, move = parent[nxt]
                        path.append(move)
                    return tuple(reversed(path))
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return ()


def test_pruned_witness_equals_the_unpruned_walk():
    # The witness search skips states that are not sub-states of the
    # target; on the 13-step case the path must be the full walk's.
    weak = Thresholds(quorum=2, amplify=2, output=3)
    inputs = (0, 1, 1)
    budget = [(k, 0, r) for k in ("vote", "ready") for r in range(3)]
    path = explore_wba(inputs, PARAMS, byz_budget=budget,
                       thresholds=weak).violation["path"]
    initial = state = _initial(inputs, weak)
    for move in path:
        state = _apply(state, move, weak)
    assert path == _unpruned_witness(
        initial, state, lambda s: _moves(s, len(inputs), budget, "vote"),
        lambda s, m: _apply(s, m, weak))


def test_distorted_rb_output_threshold_breaks_agreement():
    res = explore_rb(PARAMS, thresholds=Thresholds(quorum=3, amplify=2, output=1),
                     byz_budget=[("ready", 0, 0), ("ready", 1, 1)])
    assert not res.ok
    assert res.states == 4
    assert res.violation["kind"] == "agreement"
    assert len(res.violation["path"]) == 2
    assert res.violation["path"] == (("ready", 0, 3, 0), ("ready", 1, 3, 1))


def test_rb_default_budget_exhaustive_and_safe():
    res = explore_rb(PARAMS)
    assert res.ok
    assert res.states == 159264
    # All three correct validators are interchangeable under this budget.
    assert res.representatives < res.states
    assert res.representatives == 27236


def test_state_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        explore_wba((1, 1, 1), PARAMS, max_states=100)


ALL = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
IDENTITY = ((0, 1, 2),)


def test_symmetry_group_derivation():
    assert symmetry_group((1, 1, 1), default_wba_budget(3)) == ALL
    assert symmetry_group((0, 1, 1), default_wba_budget(3)) == ((0, 1, 2), (0, 2, 1))
    assert symmetry_group((1, None, 1), default_wba_budget(3)) == ((0, 1, 2), (2, 1, 0))
    # Unequal inputs or a budget that singles out a recipient leave the identity.
    assert symmetry_group((0, 1, None), default_wba_budget(3)) == IDENTITY
    assert symmetry_group((1, 1, 1), [("vote", 0, 0), ("vote", 1, 1)]) == IDENTITY
    assert symmetry_group((None,) * 3, default_rb_budget(3)) == ALL
    assert symmetry_group((None,) * 3, [("initial", 0, 0), ("initial", 1, 1),
                                        ("initial", 1, 2)]) == ((0, 1, 2), (0, 2, 1))


def to_all(*msgs):
    return [(kind, v, r) for kind, v in msgs for r in range(3)]


@pytest.mark.parametrize("inputs,budget,group", [
    ((1, 1, 1), to_all(("vote", 0)), 6),
    ((1, 1, 1), to_all(("ready", 1)), 6),
    ((0, 1, 1), to_all(("ready", 1)), 2),
    ((0, 1, 1), to_all(("vote", 0), ("ready", 1)), 2),
])
def test_reduced_wba_search_matches_reference_walk(inputs, budget, group):
    res = explore_wba(inputs, PARAMS, byz_budget=budget)
    assert len(symmetry_group(inputs, budget)) == group
    assert res.ok
    seen = slow_wba_states(inputs, budget, TH)
    assert res.states == len(seen)
    assert res.representatives == orbit_count(seen, inputs, budget) < res.states


@pytest.mark.parametrize("budget,group", [
    (to_all(("initial", 0), ("initial", 1)), 6),
    (to_all(("ready", 0), ("initial", 1)), 6),
    ([("initial", 0, 0), ("initial", 1, 1), ("initial", 1, 2)], 2),
])
def test_reduced_rb_search_matches_reference_walk(budget, group):
    res = explore_rb(PARAMS, byz_budget=budget)
    assert len(symmetry_group((None,) * 3, budget)) == group
    assert res.ok
    seen = slow_rb_states(3, budget, TH)
    assert res.states == len(seen)
    assert res.representatives == orbit_count(seen, (None,) * 3, budget) < res.states


def test_state_budget_counts_every_orbit_member():
    budget = to_all(("vote", 0))
    full = explore_wba((1, 1, 1), PARAMS, byz_budget=budget)
    assert full.representatives < full.states - 1
    assert explore_wba((1, 1, 1), PARAMS, byz_budget=budget,
                       max_states=full.states).states == full.states
    with pytest.raises(BudgetExceeded):
        explore_wba((1, 1, 1), PARAMS, byz_budget=budget,
                    max_states=full.states - 1)


def test_identity_group_stores_every_state():
    budget = [("vote", 0, 0), ("ready", 1, 1)]
    res = explore_wba((1, 1, 1), PARAMS, byz_budget=budget)
    assert res.states == res.representatives == 2380


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(inputs=st.tuples(*[st.sampled_from((0, 1, None))] * 3),
       budget=st.lists(st.sampled_from(default_wba_budget(3)), max_size=4,
                       unique=True))
def test_reduced_wba_search_agrees_with_reference_walk(inputs, budget):
    res = explore_wba(inputs, PARAMS, byz_budget=budget)
    seen = slow_wba_states(inputs, budget, TH)
    need = PARAMS.quorum - PARAMS.f
    ok = all(_violation(s, inputs, need) is None for s in seen)
    assert res.ok == ok
    if ok:
        assert res.states == len(seen)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(budget=st.lists(st.sampled_from(default_rb_budget(3)), max_size=4,
                       unique=True))
def test_reduced_rb_search_agrees_with_reference_walk(budget):
    res = explore_rb(PARAMS, byz_budget=budget)
    seen = slow_rb_states(3, budget, TH)
    ok = all(_violation(s, (None,) * 3, 0) is None for s in seen)
    assert res.ok == ok
    if ok:
        assert res.states == len(seen)


# The explorer budgets of the benchmark's --tiny run, with their pinned counts.
@pytest.mark.parametrize("inputs,budget,states,representatives", [
    (None, [("initial", 0, 0), ("initial", 1, 1), ("ready", 0, 2)], 50, 50),
    ((1, 1, 1), [("vote", 0, 0), ("ready", 1, 1)], 2380, 2380),
    ((0, 1, 1), [("vote", 0, 0), ("ready", 1, 1)], 256, 256),
])
def test_tiny_bench_searches_are_pinned(inputs, budget, states, representatives):
    if inputs is None:
        res = explore_rb(PARAMS, byz_budget=budget)
        seen = slow_rb_states(3, budget, TH)
        inputs = (None,) * 3
    else:
        res = explore_wba(inputs, PARAMS, byz_budget=budget)
        seen = slow_wba_states(inputs, budget, TH)
    assert res.ok
    assert (res.states, res.representatives) == (states, representatives)
    assert representatives == orbit_count(seen, inputs, budget)


def test_violation_under_full_group_reports_the_unreduced_search():
    # Counts and path lengths as the unreduced search reports them: a
    # violation is searched for again under the identity alone.
    bad = Thresholds(quorum=3, amplify=2, output=1)
    budget = to_all(("ready", 0), ("ready", 1))
    wba = explore_wba((1, 1, 1), PARAMS, byz_budget=budget, thresholds=bad)
    assert (wba.states, wba.representatives) == (269, 269)
    assert wba.violation["kind"] == "agreement"
    assert len(wba.violation["path"]) == 11
    assert wba.violation["path"] == (
        ("ready", 0, 3, 0), ("ready", 1, 3, 1), ("ready", 0, 3, 1),
        ("ready", 1, 3, 2), ("ready", 0, 3, 2), ("vote", 1, 0, 1),
        ("vote", 1, 0, 2), ("vote", 1, 1, 2), ("vote", 1, 2, 1),
        ("ready", 1, 1, 2), ("ready", 1, 2, 1))
    rb = explore_rb(PARAMS, byz_budget=budget, thresholds=bad)
    assert (rb.states, rb.representatives) == (22, 22)
    assert len(rb.violation["path"]) == 5
    assert rb.violation["path"] == (
        ("ready", 0, 3, 0), ("ready", 1, 3, 1), ("ready", 0, 3, 1),
        ("ready", 1, 3, 2), ("ready", 0, 3, 2))


@pytest.mark.parametrize("search,entry", [
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("echo", 0, 0)),
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("initial", 0, 0)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("vote", 0, 0)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("Ready", 1, 2)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("ready", 2, 0)),
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("ready", 0, 3)),
])
def test_budget_entry_the_protocol_cannot_send_is_refused(search, entry):
    # A kind the protocol does not know used to be searched as a ready.
    with pytest.raises(ValueError, match="budget entry"):
        search([("ready", 1, 1), entry])


def test_more_correct_validators_than_a_tally_holds_are_refused():
    # A fifth sender's bit would land in the next tally.
    params = Params(n=5, f=1, delta=2, gst=0, sub_delay=6)
    with pytest.raises(ValueError, match="do not fit"):
        explore_rb(params, correct=4, byz_budget=[("initial", 0, 0)])
    with pytest.raises(ValueError, match="do not fit"):
        explore_wba((1, 1, 1, 1), params, byz_budget=[("vote", 0, 0)])


# -- the packed model against the machines that run ----------------------------
# The explorer's verdict is about its own packed model; these walks replay
# its moves through bracha.py's machines, so a threshold or latch rule that
# drifts on either side fails here.

class _Replica:
    """bracha.py's machines for the explorer's correct validators.  Each
    validator's own sends loop back to it at once, in order, as the
    simulator's node runtime loops them; sends to the others are left to
    the explorer's moves."""

    def __init__(self, inputs, echo_kind: str):
        correct = len(inputs)
        if echo_kind == "vote":
            self.key = InstanceKey(Kind.WBA, 0)
            self.machines = [BrachaWba(self.key, PARAMS, i) for i in range(correct)]
        else:                    # the Byzantine validator proposes
            self.key = InstanceKey(Kind.RB, 0)
            self.machines = [BrachaRb(self.key, PARAMS, correct, i)
                             for i in range(correct)]
        self.outputs = [None] * correct
        for i, v in enumerate(inputs):
            if v is not None:
                self.step(i, Input(self.key, v))

    def step(self, node: int, event) -> None:
        work = deque([event])
        while work:
            for act in self.machines[node].step(work.popleft()):
                if isinstance(act, Output):
                    self.outputs[node] = act.value
                else:
                    work.append(act)

    def deliver(self, move) -> None:
        kind, v, sender, rcpt = move
        self.step(rcpt, BrachaMsg(self.key, kind, v, sender))

    def word(self, node: int) -> int:
        """Validator `node`'s echo and ready tallies and output latch,
        packed as the explorer packs them."""
        m = self.machines[node]
        word = 0 if self.outputs[node] is None else (1 + self.outputs[node]) << _OUT
        for base, tally in ((0, m.echoes), (8, m.readies)):
            for v, senders in tally.items():
                for sender in senders:
                    word |= 1 << (base + _W * v + sender)
        return word


def _assert_conforms(state: int, replica: _Replica) -> None:
    for i in range(len(replica.machines)):
        packed = state >> (_BITS * i) & _MASK
        assert replica.word(i) == packed & ((1 << _SEED) - 1), i
        if isinstance(replica.machines[i], BrachaRb):
            assert replica.machines[i].has_initial == bool(packed >> _SEED), i


CONFORMANCE = {
    **{"wba_" + "".join(map(str, inputs)): (inputs, default_wba_budget(3), "vote")
       for inputs in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))},
    "wba_x01": ((None, 0, 1), default_wba_budget(3), "vote"),
    "rb": ((None,) * 3, default_rb_budget(3), "echo"),
}


@pytest.mark.parametrize("case", CONFORMANCE.values(), ids=list(CONFORMANCE))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(choices=st.lists(st.integers(0, 63), max_size=30))
def test_bracha_machines_walk_the_explorer_model(case, choices):
    """A walk picks explorer moves by `choices` (the first move once they
    run out) until nothing is in flight; after every move the machines'
    echo, ready and output state equals the packed state."""
    inputs, budget, echo_kind = case
    state = _initial(inputs, TH)
    replica = _Replica(inputs, echo_kind)
    _assert_conforms(state, replica)
    for step in range(100):
        moves = _moves(state, len(inputs), budget, echo_kind)
        if not moves:
            return
        move = moves[choices[step] % len(moves) if step < len(choices) else 0]
        state = _apply(state, move, TH)
        replica.deliver(move)
        _assert_conforms(state, replica)
    raise AssertionError("a walk did not reach quiescence in 100 moves")
