"""Scenario files: a versioned JSON description of one simulation run.

A scenario bundles the protocol parameters, backend choice, adversary
placement, input injections, simulator knobs, and the names of the checks
to evaluate on the resulting trace.  No check takes an argument: format
v1's check object ``{"name": X}`` loads as ``X``, and any other key in it
is refused.  Loading is strict: anything malformed raises ConfigError,
which the command line maps to exit code 2.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace

from .checks import CHECKS, CheckContext, run_checks
from .core import ConfigError, LeaderSchedule, Params, is_int
from .simnet import (CrashSpec, EquivocatingProposerSpec, FlipVoterSpec,
                     PartitionValue, RunConfig, ScriptedSpec, SilentLeaderSpec,
                     run, script_entry_key)
from .subproto import Kind

SCENARIO_VERSION = 1


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _int_field(obj: dict, key: str, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing field {key!r}")
        return default
    v = obj[key]
    _expect(is_int(v), f"field {key!r} must be an integer, got {v!r}")
    return v


def _bool_field(obj: dict, key: str) -> bool:
    """A JSON boolean, false when absent; ``"false"`` is not one."""
    v = obj.get(key, False)
    _expect(isinstance(v, bool), f"field {key!r} must be true or false, got {v!r}")
    return v


def _list_field(obj: dict, key: str) -> list:
    """A JSON list, empty when absent; an object is not read as no entries."""
    v = obj.get(key, [])
    _expect(isinstance(v, list), f"{key} must be a list, got {v!r}")
    return v


def _scalar(v, what: str):
    """Values end up in sets and signatures, so they must be hashable, and
    in traces, so a float must be finite: NaN differs from itself, and
    neither NaN nor an infinity is JSON."""
    _expect(v is None or isinstance(v, (str, int, float)),
            f"{what} must be a string, number, boolean or null, got {v!r}")
    _expect(not isinstance(v, float) or math.isfinite(v), f"{what} must be finite, got {v!r}")
    return v


def _node_list(v, what: str) -> tuple:
    """A list of integer node ids; RunConfig checks that they exist."""
    _expect(isinstance(v, list) and all(map(is_int, v)),
            f"{what} must be a list of node ids, got {v!r}")
    return tuple(v)


def _check_entry(entry) -> str:
    """A check is a name; format v1 also writes it ``{"name": X}``, an
    object with no other key, since no check takes an argument."""
    name = entry.get("name") if isinstance(entry, dict) else entry
    _expect(isinstance(name, str) and name in CHECKS,
            f"unknown check {name!r}, expected one of {', '.join(CHECKS)}")
    if isinstance(entry, dict):
        for key in entry:
            _expect(key == "name", f"check {name!r} takes no argument {key!r}")
    return name


def _check_script_payload(entry, mode: str) -> None:
    """A file's script payload, beyond the rules of every script entry: its
    values are scalars, an RB payload's parent and ts are integers or null,
    and outside raw mode an RB payload is an object, since the engine reads
    an RB output as a proposal; bare instances do not."""
    key = script_entry_key(entry)
    payload = entry.get("payload")
    if key.kind is Kind.RB and isinstance(payload, dict):
        _scalar(payload["value"], "rb payload value")
        for field in ("parent", "ts"):
            v = payload.get(field)
            _expect(v is None or is_int(v),
                    f"rb payload {field} must be an integer or null, got {v!r}")
    else:
        _expect(key.kind is not Kind.RB or mode == "raw",
                f"rb payload must be an object with a value: {payload!r}")
        _scalar(payload, "script payload")


def _auto_horizon(params: Params, injections: tuple) -> int:
    """Liveness-safe horizon: pre-GST round burn, then enough leader
    turns to flush every queued injection, plus delivery time."""
    k = max(Counter(node for _, node, _ in injections).values(), default=1)
    d = params.sub_delay
    return params.gst + 3 * d * (params.gst + (k + 2) * params.n + 2) + 2 * d


@dataclass
class Scenario:
    """A file's run as the file writes it, plus what a file adds: checks, a
    per-seed gst draw, and whether the horizon is sized per gst ("auto")."""
    config: RunConfig
    checks: tuple = ()              # check names
    gst_draw: tuple | None = None   # (lo, hi): per-seed gst override
    auto_horizon: bool = False

    @property
    def backend(self) -> str:
        return self.config.backend

    def correct_nodes(self) -> tuple:
        cfg = self.config
        faulty = {spec.node for spec in cfg.adversaries}
        return tuple(i for i in range(cfg.params.n + cfg.extra_nodes) if i not in faulty)

    def config_for(self, seed: int | None = None) -> RunConfig:
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        params, horizon = cfg.params, cfg.horizon
        if self.gst_draw is not None:
            params = replace(params, gst=random.Random(seed).randint(*self.gst_draw))
        if self.auto_horizon:
            horizon = _auto_horizon(params, cfg.injections)
        _expect(horizon > params.gst, "horizon must exceed gst")
        return replace(cfg, params=params, seed=seed, horizon=horizon)

    def context_for(self, cfg: RunConfig) -> CheckContext:
        return CheckContext(
            params=cfg.params, horizon=cfg.horizon,
            correct_nodes=self.correct_nodes(), injections=cfg.injections,
            backend=cfg.backend, delay_law=cfg.delay_law,
            gossip_relay_latency=cfg.gossip_relay_latency, seed=cfg.seed)

    def execute(self, seed: int | None = None):
        """Run once and evaluate this scenario's checks on the trace."""
        cfg = self.config_for(seed)
        trace = run(cfg)
        reports = run_checks(trace, self.context_for(cfg), self.checks)
        return trace, reports, cfg


def _parse_adversary(obj: dict, mode: str):
    _expect(isinstance(obj, dict), f"adversary entry must be an object: {obj!r}")
    kind = obj.get("kind")
    node = _int_field(obj, "node")
    if kind == "crash":
        return CrashSpec(node, _int_field(obj, "at", default=0))
    if kind == "silent_leader":
        return SilentLeaderSpec(node)
    if kind == "equivocating_proposer":
        parts = obj.get("partitions")
        _expect(isinstance(parts, list) and parts,
                "equivocating_proposer needs a partitions list")
        built = []
        for p in parts:
            _expect(isinstance(p, dict), f"partition must be an object: {p!r}")
            nodes = _node_list(p.get("nodes", []), "partition nodes")
            _expect(nodes != (), "partition needs nodes")
            parent = p.get("parent", "bot")
            _expect(parent in ("bot", "prev", None) or is_int(parent),
                    f'partition parent must be "bot", "prev", null or a round: {parent!r}')
            built.append(PartitionValue(nodes, _scalar(p.get("value"), "partition value"),
                                        parent))
        return EquivocatingProposerSpec(node, tuple(built))
    if kind == "flip_voter":
        bits = obj.get("bits", {})
        _expect(isinstance(bits, dict) and all(
                    isinstance(k, str) and k.isascii() and k.isdigit()
                    and is_int(v) and v in (0, 1) for k, v in bits.items()),
                f"flip_voter bits must map round numbers to 0 or 1, got {bits!r}")
        return FlipVoterSpec(node, {int(k): v for k, v in bits.items()},
                             _bool_field(obj, "equivocate"))
    if kind == "scripted":
        script = _list_field(obj, "script")
        for entry in script:
            _check_script_payload(entry, mode)
        return ScriptedSpec(node, tuple(script))
    raise ConfigError(f"unknown adversary kind {kind!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    _expect(isinstance(doc, dict), "scenario must be a JSON object")
    version = doc.get("version")
    _expect(is_int(version) and version == SCENARIO_VERSION,
            f"unsupported scenario version {version!r}")
    p = doc.get("params")
    _expect(isinstance(p, dict), "missing params object")
    params = Params(n=_int_field(p, "n"), f=_int_field(p, "f"),
                    delta=_int_field(p, "delta"), gst=_int_field(p, "gst"),
                    sub_delay=_int_field(p, "Delta"))

    backend_doc = doc.get("backend", "bracha")
    if isinstance(backend_doc, str):
        kind, digest_mode = backend_doc, False
    else:
        _expect(isinstance(backend_doc, dict), "backend must be a string or object")
        kind = backend_doc.get("kind", "bracha")
        digest_mode = _bool_field(backend_doc, "digest_mode")
    _expect(isinstance(kind, str), f"backend kind must be a string, got {kind!r}")
    backend = "gossip" if kind == "gossip_quorum" else kind     # a v1 alias

    sched_doc = doc.get("schedule")
    if sched_doc is None or sched_doc == "round_robin":
        schedule = LeaderSchedule(params.n)
    else:
        _expect(isinstance(sched_doc, list) and all(map(is_int, sched_doc)),
                "schedule must be a list of validator ids or null")
        schedule = LeaderSchedule(params.n, tuple(sched_doc))

    sim = doc.get("sim", {})
    _expect(isinstance(sim, dict), "sim must be an object")
    mode = doc.get("mode", "engine")
    adversaries = tuple(_parse_adversary(a, mode)
                        for a in _list_field(doc, "adversaries"))

    injections = []
    for inj in _list_field(doc, "injections"):
        _expect(isinstance(inj, dict) and "value" in inj,
                f"bad injection entry: {inj!r}")
        injections.append((_int_field(inj, "time", default=0),
                           _int_field(inj, "node"),
                           _scalar(inj["value"], "injection value")))

    # the proposal buffer is first in first out; spam_window is the run's
    opts_doc = doc.get("engine_options", {})
    _expect(isinstance(opts_doc, dict), "engine_options must be an object")
    discipline = opts_doc.get("queue_discipline", "fifo")
    _expect(discipline == "fifo", f"unknown queue discipline {discipline!r}; "
            'the proposal buffer is "fifo"')
    spam_window = _int_field(opts_doc, "spam_window", default=100)

    horizon = sim.get("horizon", "auto")
    auto_horizon = horizon == "auto"
    if auto_horizon:
        _expect(mode == "engine", "auto horizon needs engine mode")
        horizon = _auto_horizon(params, injections)
    _expect(is_int(horizon) and horizon > 0,
            'horizon must be a positive integer or "auto"')
    gst_draw = None
    if "gst_draw" in sim:
        draw = sim["gst_draw"]
        _expect(isinstance(draw, list) and len(draw) == 2
                and all(map(is_int, draw)) and 0 <= draw[0] <= draw[1],
                "gst_draw must be [lo, hi] with 0 <= lo <= hi")
        gst_draw = (draw[0], draw[1])

    raw_inputs = []
    for ri in _list_field(doc, "raw_inputs"):
        _expect(isinstance(ri, dict) and "instance" in ri and "value" in ri,
                f"bad raw input entry: {ri!r}")
        raw_inputs.append((_int_field(ri, "time", default=0),
                           _int_field(ri, "node"), ri["instance"],
                           _scalar(ri["value"], "raw input value")))

    config = RunConfig(
        params=params, schedule=schedule, backend=backend, digest_mode=digest_mode,
        seed=_int_field(sim, "seed", default=0), horizon=horizon,
        pre_gst_max_delay=_int_field(sim, "pre_gst_max_delay", default=5),
        delay_law=sim.get("delay_law", "fixed"),
        gossip_relay_latency=_int_field(sim, "gossip_relay_latency", default=1),
        extra_nodes=_int_field(sim, "extra_nodes", default=0),
        adversaries=adversaries, injections=tuple(injections),
        spam_window=spam_window, mode=mode, raw_inputs=tuple(raw_inputs))
    checks = tuple(_check_entry(entry) for entry in _list_field(doc, "checks"))
    return Scenario(config, checks, gst_draw, auto_horizon)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    # a decode error, bytes that are not UTF-8, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)
