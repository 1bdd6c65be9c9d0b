"""The benchmark's own test: every workload at minimal size, both modes.

Run with `python3 -m pytest bench/test_bench.py`; it takes a few seconds.
"""

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.compare import compare  # noqa: E402
from bench.run import END_TO_END, PER_LAYER, measure  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def records():
    return {(name, trace): measure(name, 0, 1.0, trace, tiny=True)
            for name in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_metrics(records, name):
    for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
        rec = records[(name, trace)]
        assert rec["correct"], rec["errors"]
        assert rec["failed"] == 0 and rec["attempted"] >= 1
        assert {k: v["unit"] for k, v in rec["metrics"].items()} == units
        assert all(isinstance(v["value"], float | int) for v in rec["metrics"].values())
    untraced = records[(name, False)]
    assert untraced["all_metrics"]["failed_frac"] == 0
    assert all(untraced["all_metrics"][k] > 0 for k in END_TO_END)
    traced = records[(name, True)]["all_metrics"]
    assert traced["bench.self_sum_s"] <= traced["bench.traced_wall_s"]
    # tracing must not change what the program does
    assert records[(name, True)]["fingerprint"] == untraced["fingerprint"]


def test_layers_attributed_to_their_workloads(records):
    fuzz = records[("fuzz_byzantine_n4", True)]["all_metrics"]
    assert fuzz["bracha.steps"] > 0 and fuzz["gossip.sign_calls"] > 0
    long_run = records[("long_run_n4", True)]["all_metrics"]
    assert long_run["trace.decode_s"] > 0 and long_run["checks.round_advance_s"] > 0
    assert long_run["subproto.view_calls"] > 0 and long_run["engine.rounds"] > 0
    gossip = records[("gossip_n10", True)]["all_metrics"]
    assert gossip["simnet.gossip_relays"] > 0 and gossip["proto.skipped_rounds"] > 0
    explore = records[("explore_small", True)]["all_metrics"]
    assert explore["explore.states"] == 50 + 2380 + 256
    assert explore["simnet.events"] == 0


def test_compare_names_a_layer(records):
    untraced = [records[("explore_small", False)]]
    assert compare(untraced, untraced, io.StringIO()) == 0
    a = [records[("long_run_n4", True)]]
    b = [json.loads(json.dumps(a[0]))]
    b[0]["all_metrics"]["engine.handler_s"] += 1.0
    out = io.StringIO()
    assert compare(a, b, out) == 0
    text = out.getvalue()
    assert "slowest layer: engine.handler_s" in text
    assert "fingerprints: 1 identical, 0 differ" in text
    b[0]["env"] = dict(b[0]["env"], nproc=-1)
    assert compare(a, b, io.StringIO()) == 1
