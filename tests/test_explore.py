import itertools
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
    _violation,
    default_rb_budget,
    default_wba_budget,
    explore_rb,
    explore_wba,
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
    """Every reachable state, via the generic move/apply pair."""
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


def replay(inputs, path, th):
    """The state a delivery path leads to from the instance's initial one."""
    state = _initial(inputs, th)
    for move in path:
        state = _apply(state, move, th)
    return state


def assert_agrees_with_walk(res, seen, inputs, need, th):
    """`res` counts the walker's states, and reports agreement when a seen
    state violates it, else validity when one violates that, with a path
    that replays to a state of the reported kind."""
    kinds = {bad["kind"] for bad in (_violation(s, inputs, need) for s in seen) if bad}
    assert res.states == len(seen)
    assert res.ok == (not kinds)
    if kinds:
        kind = "agreement" if "agreement" in kinds else "validity"
        assert res.violation["kind"] == kind
        assert _violation(replay(inputs, res.violation["path"], th),
                          inputs, need)["kind"] == kind


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
    assert res.states == 3411
    assert res.violation["kind"] == "agreement"
    path = res.violation["path"]
    assert len(path) == 3
    assert path == (("ready", 0, 3, 0), ("ready", 1, 3, 1), ("vote", 1, 1, 0))
    replayed = _violation(replay((1, 1, 1), path, bad), (1, 1, 1),
                          PARAMS.quorum - PARAMS.f)
    assert replayed is not None and replayed["kind"] == "agreement"


def test_distorted_quorum_breaks_validity():
    # Quorum 2 lets the adversary launder a bit backed by one correct input.
    weak = Thresholds(quorum=2, amplify=2, output=3)
    budget = [(k, 0, r) for k in ("vote", "ready") for r in range(3)]
    res = explore_wba((0, 1, 1), PARAMS, byz_budget=budget, thresholds=weak)
    assert not res.ok
    assert res.states == 259496
    v = res.violation
    assert v["kind"] == "validity"
    assert v["bit"] == 0
    assert v["correct_inputs"] == 1
    assert len(v["path"]) == 7
    assert v["path"] == (
        ("vote", 0, 3, 0), ("vote", 0, 3, 1), ("ready", 0, 3, 0),
        ("vote", 0, 0, 1), ("vote", 1, 1, 0), ("ready", 0, 1, 0),
        ("vote", 1, 2, 0))
    replayed = _violation(replay((0, 1, 1), v["path"], weak), (0, 1, 1),
                          PARAMS.quorum - PARAMS.f)
    assert replayed is not None and replayed["kind"] == "validity"


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
    # target; on the validity case the path must be the full walk's.
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


def test_state_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        explore_wba((1, 1, 1), PARAMS, max_states=100)


def to_all(*msgs):
    return [(kind, v, r) for kind, v in msgs for r in range(3)]


@pytest.mark.parametrize("inputs,budget", [
    ((1, 1, 1), to_all(("vote", 0))),
    ((1, 1, 1), to_all(("ready", 1))),
    ((0, 1, 1), to_all(("ready", 1))),
    ((0, 1, 1), to_all(("vote", 0), ("ready", 1))),
])
def test_wba_budget_to_every_recipient_matches_reference_walk(inputs, budget):
    res = explore_wba(inputs, PARAMS, byz_budget=budget)
    assert res.ok
    assert res.states == len(slow_wba_states(inputs, budget, TH))


@pytest.mark.parametrize("budget", [
    to_all(("initial", 0), ("initial", 1)),
    to_all(("ready", 0), ("initial", 1)),
    [("initial", 0, 0), ("initial", 1, 1), ("initial", 1, 2)],
])
def test_rb_budget_to_every_recipient_matches_reference_walk(budget):
    res = explore_rb(PARAMS, byz_budget=budget)
    assert res.ok
    assert res.states == len(slow_rb_states(3, budget, TH))


def test_state_budget_boundary_is_exact():
    # The cap admits exactly the reachable count and refuses one less.
    budget = to_all(("vote", 0))
    full = explore_wba((1, 1, 1), PARAMS, byz_budget=budget)
    assert explore_wba((1, 1, 1), PARAMS, byz_budget=budget,
                       max_states=full.states).states == full.states
    with pytest.raises(BudgetExceeded):
        explore_wba((1, 1, 1), PARAMS, byz_budget=budget,
                    max_states=full.states - 1)


# Thresholds as drawn for the reference-walk properties: the distorted ones
# make violating instances, whose counts must match as well.
distorted_thresholds = st.builds(Thresholds, quorum=st.integers(1, 3),
                                 amplify=st.integers(1, 2),
                                 output=st.integers(1, 3))


@st.composite
def wba_instances(draw):
    correct = draw(st.integers(1, 3))
    inputs = draw(st.tuples(*[st.sampled_from((0, 1, None))] * correct))
    budget = draw(st.lists(st.sampled_from(default_wba_budget(correct)),
                           max_size=4, unique=True))
    return inputs, budget, draw(distorted_thresholds)


@st.composite
def rb_instances(draw):
    correct = draw(st.integers(1, 3))
    budget = draw(st.lists(st.sampled_from(default_rb_budget(correct)),
                           max_size=4, unique=True))
    return correct, budget, draw(distorted_thresholds)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(instance=wba_instances())
def test_wba_search_agrees_with_reference_walk(instance):
    inputs, budget, th = instance
    res = explore_wba(inputs, PARAMS, byz_budget=budget, thresholds=th)
    assert_agrees_with_walk(res, slow_wba_states(inputs, budget, th), inputs,
                            PARAMS.quorum - PARAMS.f, th)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(instance=rb_instances())
def test_rb_search_agrees_with_reference_walk(instance):
    correct, budget, th = instance
    res = explore_rb(PARAMS, correct=correct, byz_budget=budget, thresholds=th)
    assert_agrees_with_walk(res, slow_rb_states(correct, budget, th),
                            (None,) * correct, 0, th)


# The explorer budgets of the benchmark's --tiny run, with their pinned counts.
@pytest.mark.parametrize("inputs,budget,states", [
    (None, [("initial", 0, 0), ("initial", 1, 1), ("ready", 0, 2)], 50),
    ((1, 1, 1), [("vote", 0, 0), ("ready", 1, 1)], 2380),
    ((0, 1, 1), [("vote", 0, 0), ("ready", 1, 1)], 256),
])
def test_tiny_bench_searches_are_pinned(inputs, budget, states):
    if inputs is None:
        res = explore_rb(PARAMS, byz_budget=budget)
        seen = slow_rb_states(3, budget, TH)
    else:
        res = explore_wba(inputs, PARAMS, byz_budget=budget)
        seen = slow_wba_states(inputs, budget, TH)
    assert res.ok
    assert res.states == states == len(seen)


def test_violation_search_counts_the_whole_space():
    # A violation does not stop the search: the count is every reachable
    # state's, and the path leads to the first violating state met.
    bad = Thresholds(quorum=3, amplify=2, output=1)
    budget = to_all(("ready", 0), ("ready", 1))
    wba = explore_wba((1, 1, 1), PARAMS, byz_budget=budget, thresholds=bad)
    assert wba.states == 195399
    assert wba.violation["kind"] == "agreement"
    assert len(wba.violation["path"]) == 3
    assert wba.violation["path"] == (
        ("ready", 0, 3, 1), ("vote", 1, 1, 0), ("vote", 1, 2, 0))
    assert _violation(replay((1, 1, 1), wba.violation["path"], bad), (1, 1, 1),
                      PARAMS.quorum - PARAMS.f)["kind"] == "agreement"
    rb = explore_rb(PARAMS, byz_budget=budget, thresholds=bad)
    assert rb.states == 125
    assert rb.violation["kind"] == "agreement"
    assert len(rb.violation["path"]) == 2
    assert rb.violation["path"] == (("ready", 0, 3, 1), ("ready", 1, 3, 0))
    assert _violation(replay((None,) * 3, rb.violation["path"], bad),
                      (None,) * 3, 0)["kind"] == "agreement"


def test_violation_in_a_large_space_has_a_witness():
    # The first violating state met is near the initial one, so its pruned
    # witness walk is short however many states the search counts.
    bad = Thresholds(quorum=3, amplify=2, output=1)
    res = explore_wba((0, 1, 1), PARAMS, thresholds=bad)
    assert res.states == 10378080
    assert res.violation["kind"] == "agreement"
    assert len(res.violation["path"]) == 5
    assert _violation(replay((0, 1, 1), res.violation["path"], bad), (0, 1, 1),
                      PARAMS.quorum - PARAMS.f)["kind"] == "agreement"


def test_default_budget_covers_a_violating_space_of_26m_states():
    # A cap of 20M states refused this instance, which the search covers in
    # about a second.
    bad = Thresholds(quorum=3, amplify=2, output=1)
    res = explore_wba((1, 1, 1), PARAMS, thresholds=bad)
    assert res.states == 25979392
    assert res.violation["kind"] == "agreement"
    assert len(res.violation["path"]) == 4
    assert _violation(replay((1, 1, 1), res.violation["path"], bad), (1, 1, 1),
                      PARAMS.quorum - PARAMS.f)["kind"] == "agreement"


# Every violation below is agreement with outputs [1, 0]; the path pins which
# violating state the search meets first, which its loop order fixes.
_TABLE_WBA_BUDGET = to_all(("vote", 0), ("vote", 1)) + [("ready", 0, 1), ("ready", 1, 0)]
_TABLE_RB_BUDGET = [("initial", 0, 0), ("initial", 1, 1), ("initial", 0, 2),
                    ("ready", 0, 2), ("ready", 1, 0)]


@pytest.mark.parametrize("th,inputs,states,path", [
    ((3, 2, 1), (1, 1, 1), 558_592,
     (("vote", 0, 3, 0), ("ready", 0, 3, 1), ("vote", 1, 1, 0),
      ("vote", 1, 2, 0))),
    ((3, 2, 1), (0, 1, 1), 188_640,
     (("vote", 0, 3, 0), ("vote", 1, 3, 0), ("ready", 0, 3, 1),
      ("vote", 1, 1, 0), ("vote", 1, 2, 0))),
    ((3, 2, 1), (0, 0, 1), 165_984,
     (("vote", 1, 3, 0), ("ready", 0, 3, 1), ("ready", 1, 3, 0),
      ("vote", 0, 1, 0), ("vote", 1, 2, 0))),
    ((3, 2, 1), None, 500,
     (("ready", 0, 3, 2), ("ready", 1, 3, 0))),
    ((2, 1, 2), (1, 1, 1), 2_231_272,
     (("vote", 0, 3, 0), ("vote", 1, 3, 0), ("ready", 0, 3, 1),
      ("ready", 1, 3, 0), ("vote", 1, 1, 0), ("vote", 1, 2, 0))),
    ((2, 1, 2), (0, 1, 1), 3_837_788,
     (("vote", 1, 3, 0), ("ready", 0, 3, 1), ("ready", 1, 3, 0),
      ("vote", 0, 3, 0), ("vote", 1, 1, 0), ("vote", 1, 2, 0))),
    ((2, 1, 2), (0, 0, 1), 3_710_836,
     (("vote", 1, 3, 0), ("ready", 0, 3, 1), ("ready", 1, 3, 0),
      ("vote", 0, 3, 0), ("vote", 0, 1, 0), ("vote", 1, 2, 0))),
    ((2, 1, 2), None, 249_077,
     (("ready", 0, 3, 2), ("ready", 1, 3, 0))),
    ((2, 2, 2), (1, 1, 1), 858_400, None),
    ((2, 2, 2), (0, 1, 1), 1_757_872,
     (("vote", 0, 3, 1), ("vote", 1, 3, 0), ("ready", 0, 3, 1),
      ("ready", 1, 3, 0), ("vote", 0, 0, 1), ("vote", 1, 1, 0),
      ("vote", 0, 3, 0), ("vote", 1, 2, 0))),
    ((2, 2, 2), (0, 0, 1), 1_687_632,
     (("vote", 1, 3, 0), ("ready", 0, 3, 1), ("ready", 1, 3, 0),
      ("vote", 0, 0, 1), ("vote", 1, 2, 0), ("vote", 0, 3, 0), ("vote", 0, 1, 0))),
    ((2, 2, 2), None, 13_032, None),
    ((1, 1, 3), (1, 1, 1), 1_048_576, None),
    ((1, 1, 3), (0, 1, 1), 1_048_576, None),
    ((1, 1, 3), (0, 0, 1), 1_048_576, None),
    ((1, 1, 3), None, 360_145, None),
])
def test_first_violation_met_is_pinned_at_distorted_thresholds(th, inputs, states, path):
    th = Thresholds(*th)
    if inputs is None:
        res = explore_rb(PARAMS, byz_budget=_TABLE_RB_BUDGET, thresholds=th)
    else:
        res = explore_wba(inputs, PARAMS, byz_budget=_TABLE_WBA_BUDGET, thresholds=th)
    assert res.states == states
    if path is None:
        assert res.ok
    else:
        assert res.violation == {"kind": "agreement", "outputs": [1, 0], "path": path}


@pytest.mark.parametrize("inputs", list(itertools.product((0, 1), repeat=3)),
                         ids=lambda inputs: "".join(map(str, inputs)))
def test_every_wba_input_pattern_is_safe_with_its_class_count(inputs):
    # Criterion 6 searches (1,1,1) and (0,1,1) and lets bit-flip and
    # relabeling cover the rest; here each pattern gets its class's count.
    res = explore_wba(inputs, PARAMS)
    assert res.ok, res.violation
    assert res.states == (7_856_128 if len(set(inputs)) == 1 else 3_231_232)

@pytest.mark.parametrize("search,entry", [
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("echo", 0, 0)),
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("initial", 0, 0)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("vote", 0, 0)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("Ready", 1, 2)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("ready", 2, 0)),
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("ready", 0, 3)),
    (lambda b: explore_wba((1, 1, 1), PARAMS, byz_budget=b), ("vote", True, 0)),
    (lambda b: explore_rb(PARAMS, byz_budget=b), ("initial", 0, False)),
])
def test_budget_entry_the_protocol_cannot_send_is_refused(search, entry):
    # A kind the protocol does not know used to be searched as a ready, and
    # a bool as the bit or recipient it equals.
    with pytest.raises(ValueError, match="budget entry"):
        search([("ready", 1, 1), entry])


@pytest.mark.parametrize("search,named", [
    (lambda: explore_wba((2, 1, 1), PARAMS), r"inputs \(2, 1, 1\)"),
    (lambda: explore_wba((), PARAMS), r"inputs \(\)"),
    (lambda: explore_wba(("1", 1, 1), PARAMS), r"inputs \('1', 1, 1\)"),
    (lambda: explore_rb(PARAMS, correct=0), "correct=0"),
    (lambda: explore_wba((True, 1, False), PARAMS), r"inputs \(True, 1, False\)"),
    (lambda: explore_rb(PARAMS, correct=True), "correct=True"),
], ids=["input 2", "no inputs", "input '1'", "correct 0", "input True",
        "correct True"])
def test_instance_the_search_cannot_seed_is_refused(search, named):
    # Input 2 used to be searched as a one-state validity violation, no
    # validators failed inside the search, and correct=True searched one
    # validator as correct=1 does.
    with pytest.raises(ValueError, match=named):
        search()


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
