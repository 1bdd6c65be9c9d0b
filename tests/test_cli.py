import json
from pathlib import Path

import pytest

from abcast.cli import main
from abcast.simnet import MAX_NODES
from abcast.trace import Trace
from test_trace import V1_FIXTURE_REPORT, V1_FIXTURES, v1_fixture_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
HONEST = str(SCENARIOS / "honest_n4.json")
GOSSIP = str(SCENARIOS / "gossip_digest_n4.json")
BAD = str(SCENARIOS / "bad_fault_bound.json")


def test_run_honest_scenario_passes(capsys):
    assert main(["run", HONEST]) == 0
    out = capsys.readouterr().out
    assert "run seed=" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_run_writes_trace_and_report(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    code = main(["run", HONEST, "--trace-out", str(trace_path),
                 "--report-out", str(report_path)])
    assert code == 0
    capsys.readouterr()
    first = trace_path.read_text().splitlines()[0]
    assert json.loads(first)["kind"] == "trace_header"
    reports = json.loads(report_path.read_text())
    assert all(r["status"] in ("pass", "inconclusive") for r in reports)
    assert {r["name"] for r in reports} >= {"safety", "liveness"}


def test_check_round_trips_a_saved_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--trace-out", str(trace_path)])
    capsys.readouterr()
    assert main(["check", str(trace_path), HONEST]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_flags_a_corrupted_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--trace-out", str(trace_path)])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    doctored = []
    flipped = 0
    for ln in lines:
        rec = json.loads(ln)
        if (not flipped and rec.get("kind") == "ab_output"
                and rec.get("position") == 0):
            rec["value"] = "tampered"
            flipped = 1
        doctored.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    trace_path.write_text("\n".join(doctored) + "\n")
    assert main(["check", str(trace_path), HONEST]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "first violation" in out


def test_check_rejects_garbage_trace(tmp_path, capsys):
    trace_path = tmp_path / "junk.jsonl"
    trace_path.write_text("not json\n")
    assert main(["check", str(trace_path), HONEST]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_scenario_exits_2(capsys):
    assert main(["run", BAD]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err



def test_malformed_scenario_exits_2(tmp_path, capsys):
    doc = json.loads(Path(HONEST).read_text())
    doc["injections"][0]["value"] = ["not", "hashable"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "injection value" in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0])
def test_non_integer_scenario_version_exits_2(tmp_path, capsys, version):
    doc = json.loads(Path(HONEST).read_text())
    doc["version"] = version
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "unsupported scenario version" in capsys.readouterr().err


def test_too_many_nodes_exits_2(tmp_path, capsys):
    # Observers push the count past the cap: no run starts.
    doc = json.loads(Path(HONEST).read_text())
    doc["sim"]["extra_nodes"] = MAX_NODES + 1 - doc["params"]["n"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert f"exceeds the cap of {MAX_NODES}" in capsys.readouterr().err


def test_short_schedule_for_a_huge_n_exits_2(tmp_path, capsys):
    # The schedule is checked before the node cap, without a set of size n.
    doc = json.loads(Path(HONEST).read_text())
    doc["params"]["n"] = 10**9
    doc["schedule"] = [0, 1, 2, 3]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "leader order leaves out" in capsys.readouterr().err


def test_a_lifo_buffer_is_refused_with_exit_2(tmp_path, capsys):
    doc = json.loads(Path(HONEST).read_text())
    doc["engine_options"] = {"queue_discipline": "lifo"}
    path = tmp_path / "lifo.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert any(ln.startswith("configuration error:") and "'lifo'" in ln
               for ln in err.splitlines())
    assert "Traceback" not in err


def test_unknown_check_name_exits_2(tmp_path, capsys):
    doc = json.loads(Path(HONEST).read_text())
    doc["checks"] = ["safety", {"name": "nope"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "unknown check 'nope'" in capsys.readouterr().err


def test_a_check_argument_exits_2(tmp_path, capsys):
    doc = json.loads(Path(HONEST).read_text())
    doc["checks"] = ["safety", {"name": "liveness", "rotations": 1}]
    path = tmp_path / "argument.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert any(ln.startswith("configuration error:") and "'rotations'" in ln
               for ln in err.splitlines())
    assert "Traceback" not in err


# nested past the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000
NESTED = pytest.param(DEEP, id="nested too deep")


def _event(**fields):
    return json.dumps({"time": 1, "seq": 0, **fields})


# The last fourteen lack a field a checker reads, or hold one of the wrong
# type; the checkers hash output values and compare them, so those must be
# JSON scalars, and a round number has one spelling.
@pytest.mark.parametrize("line", [
    "{}", "1",
    '{"time":0,"seq":0,"kind":"start"},{"time":0,"seq":1,"kind":"start"}',
    _event(kind="sub_output", node=0, value=1),
    _event(kind="sub_output", node=0, value=1, instance="wba/x"),
    _event(kind="sub_input", node=0, value=1, instance="vote/1"),
    _event(kind="sub_input", node=0, instance="rb/1"),
    _event(kind="ab_output", node=0, round=0, value="v"),
    _event(kind="ab_output", node=0, round=0, position="0", value="v"),
    _event(kind="ab_output", node="0", round=0, position=0, value="v"),
    _event(kind="advance", node=0),
    _event(kind="advance", round=1),
    _event(kind="ab_output", node=0, round=0, position=0, value=[1]),
    _event(kind="sub_output", node=0, value=[1], instance="wba/0"),
    _event(kind="ab_output", node=0, round=0, position=0, value=float("nan")),
    '{"time":1,"seq":0,"kind":"sub_output","node":0,"instance":"wba/0","value":1e400}',
    _event(kind="sub_output", node=0, value=0, instance="wba/03"),
    NESTED,
])
def test_check_rejects_a_malformed_event_line(tmp_path, capsys, line):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--trace-out", str(trace_path)])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    lines.insert(2, line)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace_path), HONEST]) == 2
    assert "bad trace file" in capsys.readouterr().err


def _first_deliver(recs):
    """The first `deliver` record and the record of the send it names."""
    deliver = next(r for r in recs if r.get("kind") == "deliver")
    return deliver, next(r for r in recs if r.get("seq") == deliver["msg"])


def _names_a_missing_seq(recs):
    _first_deliver(recs)[0]["msg"] = 10**9


def _names_a_later_send(recs):
    deliver, _ = _first_deliver(recs)
    deliver["msg"] = next(r["seq"] for r in recs if r.get("kind") in ("send", "gossip")
                          and r["seq"] > deliver["seq"])


def _names_a_start(recs):
    _first_deliver(recs)[0]["msg"] = next(r["seq"] for r in recs if r.get("kind") == "start")


def _is_outside_the_list(recs):
    deliver, send = _first_deliver(recs)
    send["to"] = [node for node in range(4) if node != deliver["node"]]


def _is_at_the_gossip_sender(recs):
    deliver, send = _first_deliver(recs)
    deliver["node"] = send["node"]


# A v2 `deliver` names an earlier send or gossip event that reaches its node.
@pytest.mark.parametrize("scenario, doctor", [
    (HONEST, _names_a_missing_seq), (HONEST, _names_a_later_send),
    (HONEST, _names_a_start), (HONEST, _is_outside_the_list),
    (GOSSIP, _names_a_missing_seq), (GOSSIP, _is_at_the_gossip_sender),
], ids=lambda x: getattr(x, "__name__", Path(str(x)).stem))
def test_check_rejects_a_deliver_that_names_no_send_reaching_it(
        tmp_path, capsys, scenario, doctor):
    trace_path = tmp_path / "t.jsonl"
    main(["run", scenario, "--trace-out", str(trace_path)])
    capsys.readouterr()
    recs = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
    Trace.from_jsonl(trace_path.read_text())          # sound before doctoring
    doctor(recs)
    text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                     for r in recs) + "\n"
    with pytest.raises(ValueError, match="deliver"):
        Trace.from_jsonl(text)
    trace_path.write_text(text)
    assert main(["check", str(trace_path), scenario]) == 2
    assert "bad trace file" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["bracha", "gossip"])
def test_check_reads_a_v1_trace_as_its_v2_form(tmp_path, capsys, backend):
    """A v1 trace, as the v1 writer saved it for a pinned config, gives the
    check reports of the v2 trace of the same run."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(v1_fixture_scenario(backend)))
    trace = V1_FIXTURES / f"forge_n4_{backend}.jsonl"
    assert main(["check", str(trace), str(scenario)]) == 0
    assert capsys.readouterr().out.splitlines() == V1_FIXTURE_REPORT


def test_check_refuses_a_trace_from_another_config(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--trace-out", str(trace_path)])
    capsys.readouterr()
    assert main(["check", str(trace_path), str(SCENARIOS / "gossip_digest_n4.json")]) == 2
    err = capsys.readouterr().err
    assert "is from another run: its backend is 'bracha'" in err


# A header without a seed means seed 0; one that is there must be an int.
@pytest.mark.parametrize("header", [
    NESTED,
    '{"kind":"trace_header","version":1,"seed":[1]}',
    '{"kind":"trace_header","version":1,"seed":null}',
    '{"kind":"trace_header","version":1,"seed":"abc"}',
    '{"kind":"trace_header","version":1,"seed":true}',
    '{"kind":"trace_header","version":true,"seed":0}',
    '{"kind":"trace_header","version":1.0,"seed":0}',
    pytest.param('{"kind":"trace_header","version":1,"seed":0,"x":' + DEEP + "}",
                 id="nested meta"),
])
def test_check_rejects_a_malformed_header(tmp_path, capsys, header):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--trace-out", str(trace_path)])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join([header, *lines[1:]]) + "\n")
    assert main(["check", str(trace_path), HONEST]) == 2
    assert "configuration error: bad trace file" in capsys.readouterr().err


def test_check_reads_a_header_without_seed_as_seed_0(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--seed", "0", "--trace-out", str(trace_path)])
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["seed"]
    trace_path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert main(["check", str(trace_path), HONEST]) == 0


@pytest.mark.parametrize("command", ["run", "fuzz"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", DEEP.encode()],
                         ids=["not utf-8", "nested too deep"])
def test_unreadable_scenario_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    extra = ["--seeds", "0..1"] if command == "fuzz" else []
    assert main([command, str(path), *extra]) == 2
    assert "configuration error: scenario" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--trace-out", "--report-out"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, option):
    target = tmp_path / "missing" / "out.json"
    assert main(["run", HONEST, option, str(target)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not target.exists()


def test_fuzz_reports_seed_tally(capsys):
    assert main(["fuzz", HONEST, "--seeds", "0..4"]) == 0
    out = capsys.readouterr().out
    assert "5/5 seeds passed" in out


def test_fuzz_single_seed_form(capsys):
    assert main(["fuzz", HONEST, "--seeds", "3"]) == 0
    assert "1/1 seeds passed" in capsys.readouterr().out


def test_fuzz_bad_range_exits_2(capsys):
    assert main(["fuzz", HONEST, "--seeds", "x..y"]) == 2
    assert "seed range" in capsys.readouterr().err


def test_replay_dumps_event_prefix(capsys):
    assert main(["replay", HONEST, "--seed", "0", "--until", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    seqs = [json.loads(ln)["seq"] for ln in lines]
    assert seqs == sorted(seqs)
    assert seqs[-1] == 10


def test_replay_matches_run_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    main(["run", HONEST, "--seed", "5", "--trace-out", str(trace_path)])
    capsys.readouterr()
    main(["replay", HONEST, "--seed", "5"])
    replayed = capsys.readouterr().out.strip().splitlines()
    saved = trace_path.read_text().strip().splitlines()[1:]
    assert replayed == saved
