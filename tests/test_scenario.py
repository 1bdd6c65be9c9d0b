import copy
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from abcast.checks import CHECKS, run_checks
from abcast.core import ConfigError
from abcast.scenario import load_scenario, scenario_from_dict
from abcast.simnet import MAX_NODES, CrashSpec, FlipVoterSpec, Simulation, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_doc():
    return {
        "version": 1,
        "params": {"n": 4, "f": 1, "delta": 2, "gst": 10, "Delta": 6},
        "backend": "bracha",
        "injections": [{"time": 0, "node": 0, "value": "v0"},
                       {"time": 0, "node": 1, "value": "v1"}],
        "sim": {"seed": 0, "horizon": 200, "pre_gst_max_delay": 5,
                "delay_law": "fixed"},
        "checks": ["safety", "liveness"],
    }


def test_load_bundled_scenario():
    sc = load_scenario(str(SCENARIOS / "honest_n4.json"))
    assert sc.config.params.n == 4 and sc.config.params.f == 1
    assert sc.backend == "bracha"
    assert sc.checks
    assert sc.correct_nodes() == (0, 1, 2, 3)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_scenario(str(SCENARIOS / "does_not_exist.json"))


def test_parse_round_trip_of_fields():
    sc = scenario_from_dict(base_doc())
    assert sc.config.params.gst == 10
    assert sc.config.params.sub_delay == 6
    assert sc.config.horizon == 200
    assert sc.config.injections == ((0, 0, "v0"), (0, 1, "v1"))
    assert sc.checks == ("safety", "liveness")


def test_version_gate():
    doc = base_doc()
    doc["version"] = 2
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    del doc["version"]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_gate_refuses_a_non_integer_one(version):
    # True == 1 and 1.0 == 1 in Python; the gate holds the version to the
    # loader's integer rule.
    doc = base_doc()
    doc["version"] = version
    with pytest.raises(ConfigError, match="unsupported scenario version"):
        scenario_from_dict(doc)


def test_fault_bound_enforced_at_parse():
    doc = base_doc()
    doc["params"]["n"] = 3
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_adversary_parsing_and_bounds():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "crash", "node": 3, "at": 40}]
    sc = scenario_from_dict(doc)
    assert sc.config.adversaries == (CrashSpec(3, 40),)
    assert sc.correct_nodes() == (0, 1, 2)

    doc["adversaries"] = [{"kind": "flip_voter", "node": 3,
                           "bits": {"2": 1}, "equivocate": True}]
    sc = scenario_from_dict(doc)
    assert sc.config.adversaries == (FlipVoterSpec(3, {2: 1}, True),)

    doc["adversaries"] = [{"kind": "crash", "node": 9}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    doc["adversaries"] = [{"kind": "mystery", "node": 3}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_distinct_faulty_validators_bounded_by_f():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "silent_leader", "node": 3},
                          {"kind": "flip_voter", "node": 3, "bits": {}}]
    sc = scenario_from_dict(doc)
    assert sc.correct_nodes() == (0, 1, 2)

    doc["adversaries"] = [{"kind": "silent_leader", "node": 2},
                          {"kind": "flip_voter", "node": 3, "bits": {}}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_faulty_observer_counts_against_f():
    # the fault bound counts every faulty node, observers included, as the
    # simulator does
    doc = base_doc()
    doc["sim"]["extra_nodes"] = 1
    doc["adversaries"] = [{"kind": "crash", "node": 4},
                          {"kind": "silent_leader", "node": 3}]
    with pytest.raises(ConfigError, match="faulty nodes"):
        scenario_from_dict(doc)
    doc["adversaries"] = [{"kind": "crash", "node": 4}]
    assert scenario_from_dict(doc).correct_nodes() == (0, 1, 2, 3)


def test_crash_excludes_drivers_on_same_node():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "crash", "node": 3},
                          {"kind": "silent_leader", "node": 3}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_script_entries_validated():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "scripted", "node": 3,
                           "script": [{"op": "send"}]}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)



def _scripted(**entry):
    return [{"kind": "scripted", "node": 3,
             "script": [{"time": 1, "op": "send", "mkind": "vote", "payload": 1,
                         **entry}]}]


def _flip_bits(bits):
    return {"adversaries": [{"kind": "flip_voter", "node": 3, "bits": bits}]}


def _partition_parent(parent):
    return {"adversaries": [{"kind": "equivocating_proposer", "node": 3, "partitions": [
        {"nodes": [0, 1], "value": "a", "parent": parent}]}]}


MALFORMED = {
    "script entry without instance": {"adversaries": _scripted()},
    "integer script op": {"adversaries": _scripted(instance="wba/0", op=42)},
    "unknown script op": {"adversaries": _scripted(instance="wba/0", op="post")},
    "unknown instance kind": {"adversaries": _scripted(instance="zz/1")},
    # an instance has one spelling, the one a trace writes
    "underscored instance round": {"adversaries": _scripted(instance="wba/1_0")},
    "padded instance round": {"adversaries": _scripted(instance="wba/ 3")},
    "signed instance round": {"adversaries": _scripted(
        instance="rb/+2", mkind="initial", payload={"value": "v"})},
    "non-ascii instance round": {"adversaries": _scripted(instance="wba/\u0663")},
    "zero-padded instance round": {"adversaries": _scripted(instance="wba/03")},
    "zero-padded raw instance round": {
        "mode": "raw", "injections": [],
        "raw_inputs": [{"time": 1, "node": 0, "instance": "rb/01", "value": 1}]},
    "unknown raw instance kind": {
        "mode": "raw", "injections": [],
        "raw_inputs": [{"time": 1, "node": 0, "instance": "zz/1", "value": 1}]},
    "dict payload under gossip": {
        "backend": "gossip",
        "injections": [{"time": 0, "node": 0, "value": {"a": 1}}]},
    "non-integer flip_voter round": {
        "adversaries": [{"kind": "flip_voter", "node": 3, "bits": {"x": 1}}]},
    "list-valued injection": {
        "injections": [{"time": 0, "node": 0, "value": [1, 2]}]},
    # JSON as Python reads it: NaN is unequal to itself, 1e400 is infinite
    "NaN injection": {"injections": [{"time": 0, "node": 0, "value": json.loads("NaN")}]},
    "1e400 injection": {"injections": [{"time": 0, "node": 0, "value": json.loads("1e400")}]},
    "string in schedule": {"schedule": ["a"]},
    "string for equivocate": {
        "adversaries": [{"kind": "flip_voter", "node": 3, "equivocate": "false"}]},
    "integer for equivocate": {
        "adversaries": [{"kind": "flip_voter", "node": 3, "equivocate": 1}]},
    "string for digest_mode": {"backend": {"kind": "gossip", "digest_mode": "no"}},
    "integer for digest_mode": {"backend": {"kind": "gossip", "digest_mode": 1}},
    "object for adversaries": {"adversaries": {}},
    "object for injections": {"injections": {}},
    "object for raw_inputs": {"mode": "raw", "injections": [], "raw_inputs": {}},
    "list-valued raw input": {
        "mode": "raw", "injections": [], "checks": ["subprotocol_delay"],
        "raw_inputs": [{"time": 1, "node": i, "instance": "wba/0", "value": [1]}
                       for i in range(4)]},
    "negative raw input time": {
        "mode": "raw", "injections": [], "checks": ["subprotocol_delay"],
        "raw_inputs": [{"time": -5, "node": i, "instance": "wba/0", "value": 1}
                       for i in range(4)]},
    "string for a script": {
        "adversaries": [{"kind": "scripted", "node": 3, "script": "abc"}]},
    "list for the backend kind": {"backend": {"kind": ["bracha"]}},
    "string rb parent": {"adversaries": _scripted(
        instance="rb/3", mkind="initial", payload={"value": "v", "parent": "x"})},
    "fractional rb parent": {"adversaries": _scripted(
        instance="rb/3", mkind="initial", payload={"value": "v", "parent": 1.5})},
    "string rb ts": {"adversaries": _scripted(
        instance="rb/3", mkind="initial", payload={"value": "v", "ts": "x"})},
    "bare rb payload in engine mode": {"adversaries": _scripted(
        instance="rb/3", mkind="initial", payload="v")},
    "fractional flip_voter bit": _flip_bits({"1": 1.9}),
    "boolean flip_voter bit": _flip_bits({"2": True}),
    "string flip_voter bit": _flip_bits({"3": "0"}),
    "signed flip_voter round": _flip_bits({"-1": 1}),
    "padded flip_voter round": _flip_bits({" 1": 1}),
    "underscored flip_voter round": _flip_bits({"1_0": 1}),
    "non-ascii flip_voter round": _flip_bits({"\u0661": 1}),
    "fractional partition parent": _partition_parent(2.7),
    "boolean partition parent": _partition_parent(True),
    "string partition parent": _partition_parent("2"),
    "boolean gst_draw bound": {"sim": {"horizon": 200, "gst_draw": [True, 5]}},
    "script target beyond the nodes": {"adversaries": _scripted(instance="wba/0",
                                                                to=[7])},
    "partition node beyond the nodes": {"adversaries": [{
        "kind": "equivocating_proposer", "node": 3,
        "partitions": [{"nodes": [0, 4], "value": "a"}]}]},
}


@pytest.mark.parametrize("patch", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_is_config_error_at_parse(patch):
    doc = base_doc()
    doc.update(copy.deepcopy(patch))
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)

@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(4, MAX_NODES + 8) | st.just(10**9),
       extra=st.integers(0, MAX_NODES + 8) | st.just(10**9))
@example(n=MAX_NODES, extra=0)
@example(n=MAX_NODES + 1, extra=0)
@example(n=4, extra=MAX_NODES - 4)
@example(n=4, extra=MAX_NODES - 3)
@example(n=10**9, extra=0)
def test_node_count_is_capped_at_parse(n, extra):
    # Parsed only: a simulation builds every node's state up front.
    doc = base_doc()
    doc["params"]["n"] = n
    doc["sim"]["extra_nodes"] = extra
    if n + extra > MAX_NODES:
        with pytest.raises(ConfigError, match="cap"):
            scenario_from_dict(doc)
    else:
        assert scenario_from_dict(doc).config_for().extra_nodes == extra


def test_integer_fields_still_load():
    doc = base_doc()
    doc.update(_partition_parent(2))
    assert scenario_from_dict(doc).config.adversaries[0].partitions[0].parent == 2
    doc.update(_flip_bits({"0": 0, "12": 1}))
    assert scenario_from_dict(doc).config.adversaries[0].bits == {0: 0, 12: 1}


def test_booleans_are_json_booleans():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "flip_voter", "node": 3, "equivocate": True},
                          {"kind": "flip_voter", "node": 3}]
    doc["backend"] = {"kind": "gossip", "digest_mode": False}
    sc = scenario_from_dict(doc)
    assert [spec.equivocate for spec in sc.config.adversaries] == [True, False]
    assert sc.config.digest_mode is False


def test_bare_rb_payload_is_allowed_in_raw_mode():
    # bare instances output whatever RB carried; only the engine needs a
    # proposal object
    doc = base_doc()
    doc.update(mode="raw", injections=[], adversaries=_scripted(
        instance="rb/3", mkind="initial", payload="v"))
    trace, _, _ = scenario_from_dict(doc).execute()
    assert any(ev.data.get("value") == "v" for ev in trace.iter_kind("sub_output"))


def test_digest_mode_needs_gossip():
    doc = base_doc()
    doc["backend"] = {"kind": "bracha", "digest_mode": True}
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    doc["backend"] = {"kind": "gossip_quorum", "digest_mode": True}
    sc = scenario_from_dict(doc)
    assert sc.backend == "gossip" and sc.config.digest_mode


def test_gst_draw_validation():
    doc = base_doc()
    doc["sim"]["gst_draw"] = [50, 10]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    doc["sim"]["gst_draw"] = [0, 100]
    assert scenario_from_dict(doc).gst_draw == (0, 100)


def test_gst_draw_is_deterministic_per_seed():
    doc = base_doc()
    doc["sim"]["gst_draw"] = [0, 100]
    doc["sim"]["horizon"] = 500
    sc = scenario_from_dict(doc)
    for seed in (0, 7, 123):
        cfg = sc.config_for(seed)
        assert cfg.params.gst == random.Random(seed).randint(0, 100)
        assert cfg.seed == seed
    # Default seed comes from the scenario itself.
    assert sc.config_for().params.gst == random.Random(0).randint(0, 100)


def test_auto_horizon_formula():
    doc = base_doc()
    doc["sim"]["horizon"] = "auto"
    sc = scenario_from_dict(doc)
    cfg = sc.config_for()
    # gst + 3*Delta*(gst + (k+2)*n + 2) + 2*Delta with k = 1 injection max
    assert cfg.horizon == 10 + 3 * 6 * (10 + 3 * 4 + 2) + 2 * 6


def test_auto_horizon_rejected_in_raw_mode():
    doc = base_doc()
    doc["sim"]["horizon"] = "auto"
    doc["mode"] = "raw"
    doc["injections"] = []
    with pytest.raises(ConfigError, match="auto horizon"):
        scenario_from_dict(doc)


def test_horizon_must_clear_gst():
    doc = base_doc()
    doc["sim"]["horizon"] = 10
    with pytest.raises(ConfigError):
        scenario_from_dict(doc).config_for()


def test_injection_at_the_horizon_is_refused_at_parse():
    doc = base_doc()
    doc["injections"] = [{"time": 200, "node": 0, "value": "v"}]
    with pytest.raises(ConfigError, match="horizon"):
        scenario_from_dict(doc)
    doc["injections"] = [{"time": 199, "node": 0, "value": "v"}]
    assert scenario_from_dict(doc).config.injections == ((199, 0, "v"),)


def test_injections_must_fit_horizon_and_nodes():
    doc = base_doc()
    doc["injections"] = [{"time": 300, "node": 0, "value": "v"}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc).config_for()
    doc["injections"] = [{"time": 0, "node": 7, "value": "v"}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc).config_for()


def test_schedule_list_parsed():
    doc = base_doc()
    doc["schedule"] = [3, 2, 1, 0]
    sc = scenario_from_dict(doc)
    assert sc.config.schedule.leader_of(0) == 3
    doc["schedule"] = [0, 1]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_execute_runs_checks():
    trace, reports, cfg = scenario_from_dict(base_doc()).execute()
    assert cfg.seed == 0
    assert [r.name for r in reports] == ["safety", "liveness"]
    assert all(r.status == "pass" for r in reports)
    assert trace.ab_outputs()


def test_context_excludes_faulty_nodes():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "crash", "node": 3}]
    sc = scenario_from_dict(doc)
    ctx = sc.context_for(sc.config_for())
    assert ctx.correct_nodes == (0, 1, 2)
    assert ctx.backend == "bracha"


BAD_CHECKS = {
    "unknown name": ["not_a_check"],
    "unknown name in an object": [{"name": "not_a_check"}],
    "object without a name": [{"rotations": 1}],
    "list entry": [["safety"]],
    "string for the list": "safety",
    "unknown argument": [{"name": "liveness", "bogus": 1}],
    "non-integer argument": [{"name": "liveness", "rotations": "two"}],
}


@pytest.mark.parametrize("checks", BAD_CHECKS.values(), ids=list(BAD_CHECKS))
def test_unknown_check_is_config_error_at_parse(checks):
    doc = base_doc()
    doc["checks"] = checks
    with pytest.raises(ConfigError, match="check"):
        scenario_from_dict(doc)


def test_a_check_takes_no_argument():
    doc = base_doc()
    for entry in ({"name": "liveness", "rotations": 1}, {"name": "liveness", "rotations": -1},
                  {"name": "wba_contract", "slack": 12}, {"name": "rb_contract", "slack": None},
                  {"name": "spread", "slack": -50}, {"name": "round_advance", "max_round": 3}):
        doc["checks"] = ["safety", entry]
        key = next(k for k in entry if k != "name")
        with pytest.raises(ConfigError, match=f"check {entry['name']!r} takes no "
                                              f"argument {key!r}"):
            scenario_from_dict(doc)
    # a format v1 check object with only a name loads as that name
    doc["checks"] = ["safety", {"name": "spread"}]
    sc = scenario_from_dict(doc)
    assert sc.checks == ("safety", "spread")
    _, reports, _ = sc.execute()
    assert [r.name for r in reports] == ["safety", "spread"]


def test_engine_options_parsed():
    doc = base_doc()
    doc["engine_options"] = {"queue_discipline": "fifo", "spam_window": 7}
    assert scenario_from_dict(doc).config.spam_window == 7
    # the proposal buffer is first in first out: no other discipline loads
    for discipline in ("lifo", "stack"):
        doc["engine_options"] = {"queue_discipline": discipline}
        with pytest.raises(ConfigError, match=repr(discipline)):
            scenario_from_dict(doc)


def test_parse_does_not_mutate_document():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "flip_voter", "node": 3, "bits": {"0": 1}}]
    snapshot = copy.deepcopy(doc)
    scenario_from_dict(doc)
    assert doc == snapshot


# -- property: any one-field mutation of a bundled scenario runs or is a
# ConfigError, never another exception --------------------------------------

HORIZON_CAP = 150          # past skippable_accepted's gst and injection


def _paths(node, prefix=()):
    """The path to every value inside a JSON document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


BUNDLED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
MUTATION_SITES = [(name, path) for name, doc in BUNDLED.items()
                  for path in _paths(doc)]

# Small integers keep a mutated node count cheap to run; the strings are
# ones the format gives meaning to.
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 12)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(["auto", "all", "bot", "prev", "rb/1", "wba/2",
                                   "gossip", "bracha", "lifo", "vote", "1", ""])
                | st.text(max_size=4))
JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(site=st.sampled_from(MUTATION_SITES), value=JSON_VALUES)
def test_mutated_bundled_scenario_runs_or_is_config_error(site, value):
    name, path = site
    doc = copy.deepcopy(BUNDLED[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        sc = scenario_from_dict(doc)
        cfg = sc.config_for()
        cfg = replace(cfg, horizon=min(cfg.horizon, HORIZON_CAP))
        trace = run(cfg)
        run_checks(trace, sc.context_for(cfg), sc.checks)
    except ConfigError:
        return
    assert all(ev.time <= cfg.horizon for ev in trace.events)


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_every_accepted_round_keeps_its_parent_accepted(backend):
    # Engine._finalize reads a committed chain from the acceptance cache
    # alone, so every kept round's parent is genesis or kept too.
    kept = 0
    for doc in BUNDLED.values():
        own = doc.get("backend", "bracha")
        if (own if isinstance(own, str) else own.get("kind", "bracha")) != backend:
            doc = {**doc, "backend": {"kind": backend}}
        try:
            sc = scenario_from_dict(doc)
        except ConfigError:
            continue
        for seed in range(3):
            sim = Simulation(sc.config_for(seed))
            sim.run()
            for node in sc.correct_nodes():
                accepted = sim.runtimes[node].engine._accepted
                kept += len(accepted)
                assert all(prop.parent is None or prop.parent in accepted
                           for prop in accepted.values()), (doc, seed, node)
    assert kept > 0


# -- property: a whole document drawn over the format's keys runs or is a
# ConfigError, never another exception ---------------------------------------

_TIME = st.integers(-1, 8)
_NODE = st.integers(-1, 5)
_VALUE = (st.none() | st.booleans() | st.integers(-1, 2) | st.sampled_from(["x", "y"])
          | st.lists(st.integers(0, 1), max_size=1))
_INSTANCE = st.sampled_from(["rb/0", "rb/1", "wba/0", "wba/2", "rb/-1", "zz/0", "rb"]) | _TIME
_PAYLOAD = _VALUE | st.fixed_dictionaries({}, optional={
    "value": _VALUE, "parent": st.none() | _TIME | st.just("x"), "ts": st.none() | _TIME})
_SCRIPT_ENTRY = st.fixed_dictionaries(
    {"time": _TIME, "op": st.sampled_from(["send", "gossip", "x"]), "instance": _INSTANCE,
     "mkind": st.sampled_from(["initial", "echo", "ready", "vote", "x"])},
    optional={"to": st.just("all") | st.lists(_NODE, max_size=3), "payload": _PAYLOAD,
              "forge_signer": _NODE | st.just("x")})
_PARTITION = st.fixed_dictionaries({"nodes": st.lists(_NODE, max_size=3)}, optional={
    "value": _VALUE, "parent": st.sampled_from(["bot", "prev", None, 0, 1, -1, "x"])})
_ADVERSARY = st.fixed_dictionaries(
    {"kind": st.sampled_from(["crash", "silent_leader", "equivocating_proposer",
                              "flip_voter", "scripted", "x"]), "node": _NODE},
    optional={"at": _TIME, "partitions": st.lists(_PARTITION, max_size=2),
              "bits": st.dictionaries(st.sampled_from(["0", "1", "x"]), st.integers(0, 2),
                                      max_size=2),
              "equivocate": st.booleans(), "script": st.lists(_SCRIPT_ENTRY, max_size=3)})
# a check is a name, or a format v1 object naming it; a check takes no
# argument, which the first example below covers
_CHECK = st.sampled_from(list(CHECKS)) | st.sampled_from([*CHECKS, "x"]).map(
    lambda name: {"name": name})
_BACKEND = st.sampled_from(["bracha", "gossip", "gossip_quorum", "x"])
# Mostly valid params, so that most documents get past them.  Each field's
# one bad value sits mid-list, since a draw favours a list's last entry.
_PARAMS = st.builds(
    lambda nf, delta, gst, sub: {"n": nf[0], "f": nf[1], "delta": delta, "gst": gst,
                                 "Delta": sub},
    st.sampled_from([(4, 1)] * 5 + [(4, 2), (5, 1), (7, 2), (4, 0)] + [(4, 1)] * 5),
    st.sampled_from([2] * 6 + [0, 1, 3] + [2] * 5),
    st.sampled_from([0] * 6 + [-1, 10, 20] + [0] * 5),
    st.sampled_from([6] * 6 + [0, 3, 1] + [6] * 5))
DOCUMENTS = st.fixed_dictionaries({"version": st.just(1), "params": _PARAMS}, optional={
    "backend": _BACKEND | st.fixed_dictionaries({}, optional={
        "kind": _BACKEND, "digest_mode": st.booleans()}),
    "schedule": st.sampled_from([None, "round_robin", [3, 2, 1, 0, 0], "x"])
    | st.lists(_NODE, max_size=5),
    "mode": st.sampled_from(["engine", "raw", "x"]),
    "raw_inputs": st.lists(st.fixed_dictionaries(
        {"instance": _INSTANCE, "value": _VALUE, "node": _NODE}, optional={"time": _TIME}),
        max_size=3),
    "adversaries": st.lists(_ADVERSARY, max_size=2),
    "injections": st.lists(st.fixed_dictionaries(
        {"value": _VALUE, "node": _NODE}, optional={"time": _TIME}), max_size=3),
    "engine_options": st.fixed_dictionaries({}, optional={
        "queue_discipline": st.sampled_from(["fifo", "lifo", "x"]),
        "spam_window": st.integers(-1, 3)}),
    "sim": st.fixed_dictionaries({}, optional={
        "horizon": st.integers(-1, HORIZON_CAP) | st.just("auto"), "seed": _TIME,
        "pre_gst_max_delay": st.integers(0, 3),
        "delay_law": st.sampled_from(["fixed", "uniform", "x"]),
        "gossip_relay_latency": st.integers(0, 2), "extra_nodes": st.integers(-1, 2),
        "gst_draw": st.lists(_TIME, max_size=3)}),
    "checks": st.lists(_CHECK, max_size=3)})


@settings(derandomize=True, database=None, deadline=None, max_examples=350)
@given(doc=DOCUMENTS)
# a check takes no argument, null included (liveness once took null as a
# rotation count and died on `3 * None`)
@example(doc={"version": 1, "params": {"n": 4, "f": 1, "delta": 2, "gst": 0, "Delta": 6},
              "checks": [{"name": "liveness", "rotations": None}]})
# a gossip driver on an observer signs with a key the scheme must hold
@example(doc={"version": 1, "params": {"n": 4, "f": 1, "delta": 2, "gst": 0, "Delta": 6},
              "backend": "gossip", "sim": {"extra_nodes": 1, "horizon": 100},
              "adversaries": [{"kind": "flip_voter", "node": 4}]})
def test_drawn_document_runs_or_is_config_error(doc):
    try:
        sc = scenario_from_dict(doc)
        cfg = sc.config_for()
        cfg = replace(cfg, horizon=min(cfg.horizon, HORIZON_CAP))
        trace = run(cfg)
        run_checks(trace, sc.context_for(cfg), sc.checks)
    except ConfigError:
        event("ConfigError")
        return
    event("reaches run")
    assert all(ev.time <= cfg.horizon for ev in trace.events)
