import copy
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcast.checks import run_checks
from abcast.core import ConfigError
from abcast.scenario import load_scenario, scenario_from_dict
from abcast.simnet import CrashSpec, FlipVoterSpec, run

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
    assert sc.params.n == 4 and sc.params.f == 1
    assert sc.backend == "bracha"
    assert sc.checks
    assert sc.correct_nodes() == (0, 1, 2, 3)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_scenario(str(SCENARIOS / "does_not_exist.json"))


def test_parse_round_trip_of_fields():
    sc = scenario_from_dict(base_doc())
    assert sc.params.gst == 10
    assert sc.params.sub_delay == 6
    assert sc.horizon == 200
    assert sc.injections == ((0, 0, "v0"), (0, 1, "v1"))
    assert sc.checks == ("safety", "liveness")


def test_version_gate():
    doc = base_doc()
    doc["version"] = 2
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    del doc["version"]
    with pytest.raises(ConfigError):
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
    assert sc.adversaries == (CrashSpec(3, 40),)
    assert sc.correct_nodes() == (0, 1, 2)

    doc["adversaries"] = [{"kind": "flip_voter", "node": 3,
                           "bits": {"2": 1}, "equivocate": True}]
    sc = scenario_from_dict(doc)
    assert sc.adversaries == (FlipVoterSpec(3, {2: 1}, True),)

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
    assert sc.faulty_nodes == {3}

    doc["adversaries"] = [{"kind": "silent_leader", "node": 2},
                          {"kind": "flip_voter", "node": 3, "bits": {}}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


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


MALFORMED = {
    "script entry without instance": {"adversaries": _scripted()},
    "unknown instance kind": {"adversaries": _scripted(instance="zz/1")},
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
}


@pytest.mark.parametrize("patch", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_is_config_error_at_parse(patch):
    doc = base_doc()
    doc.update(copy.deepcopy(patch))
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)

def test_booleans_are_json_booleans():
    doc = base_doc()
    doc["adversaries"] = [{"kind": "flip_voter", "node": 3, "equivocate": True},
                          {"kind": "flip_voter", "node": 3}]
    doc["backend"] = {"kind": "gossip", "digest_mode": False}
    sc = scenario_from_dict(doc)
    assert [spec.equivocate for spec in sc.adversaries] == [True, False]
    assert sc.digest_mode is False


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
    assert sc.backend == "gossip" and sc.digest_mode


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
    sc = scenario_from_dict(doc)
    with pytest.raises(ConfigError):
        sc.config_for()


def test_horizon_must_clear_gst():
    doc = base_doc()
    doc["sim"]["horizon"] = 10
    with pytest.raises(ConfigError):
        scenario_from_dict(doc).config_for()


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
    assert sc.schedule.leader_of(0) == 3
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


def test_check_arguments_reach_the_check():
    doc = base_doc()
    doc["checks"] = ["safety", {"name": "liveness", "rotations": 1},
                     {"name": "spread", "slack": None}]
    _, reports, _ = scenario_from_dict(doc).execute()
    assert [r.name for r in reports] == ["safety", "liveness", "spread"]


def test_engine_options_parsed():
    doc = base_doc()
    doc["engine_options"] = {"queue_discipline": "lifo", "spam_window": 7}
    sc = scenario_from_dict(doc)
    assert sc.options.queue_discipline == "lifo"
    assert sc.options.spam_window == 7
    doc["engine_options"] = {"queue_discipline": "stack"}
    with pytest.raises(ConfigError):
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
