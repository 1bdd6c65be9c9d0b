"""Scenario files: a versioned JSON description of one simulation run.

A scenario bundles the protocol parameters, backend choice, adversary
placement, input injections, simulator knobs, and the list of checks to
evaluate on the resulting trace.  Loading is strict: anything malformed
raises ConfigError, which the command line maps to exit code 2.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass, replace

from .checks import CHECKS, CheckContext, run_checks
from .core import ConfigError, LeaderSchedule, Params
from .engine import EngineOptions
from .simnet import (CrashSpec, EquivocatingProposerSpec, FlipVoterSpec,
                     PartitionValue, RunConfig, ScriptedSpec, SilentLeaderSpec,
                     run)
from .subproto import InstanceKey, Kind, parse_key

SCENARIO_VERSION = 1

_BACKENDS = {"bracha": "bracha", "gossip": "gossip", "gossip_quorum": "gossip"}


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_field(obj: dict, key: str, default=None, minimum=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing field {key!r}")
        return default
    v = obj[key]
    _expect(_is_int(v), f"field {key!r} must be an integer, got {v!r}")
    if minimum is not None:
        _expect(v >= minimum, f"field {key!r} must be >= {minimum}, got {v}")
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
    """Values end up in sets and signatures, so they must be hashable."""
    _expect(v is None or isinstance(v, (str, int, float)),
            f"{what} must be a string, number, boolean or null, got {v!r}")
    return v


def _node_list(v, n_total: int, what: str) -> tuple:
    _expect(isinstance(v, list) and all(_is_int(x) and 0 <= x < n_total for x in v),
            f"{what} must be a list of existing node ids, got {v!r}")
    return tuple(v)


def _instance_key(text) -> InstanceKey:
    try:
        key = parse_key(text) if isinstance(text, str) else None
    except ValueError:
        key = None
    _expect(key is not None and key.round >= 0,
            f"bad instance {text!r}: expected rb/<round> or wba/<round>")
    return key


def _int_like(v, what: str) -> int:
    try:
        return int(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {v!r}") from None


def _check_entry(entry):
    """A check is a name, or an object with a ``name`` and integer (or null)
    values for that check's keyword arguments."""
    name = entry.get("name") if isinstance(entry, dict) else entry
    _expect(isinstance(name, str) and name in CHECKS,
            f"unknown check {name!r}, expected one of {', '.join(CHECKS)}")
    if isinstance(entry, dict):
        # every check takes (trace, ctx) and then its keyword arguments
        known = list(inspect.signature(CHECKS[name]).parameters)[2:]
        for key, value in entry.items():
            if key != "name":
                _expect(key in known, f"check {name!r} takes no argument {key!r}")
                _expect(value is None or _is_int(value),
                        f"check {name!r} argument {key!r} must be an integer")
    return entry


def _check_script_entry(entry, n_total: int, mode: str) -> None:
    _expect(isinstance(entry, dict) and "time" in entry and "op" in entry,
            f"bad script entry: {entry!r}")
    _int_field(entry, "time", minimum=0)
    key = _instance_key(entry.get("instance"))
    _expect(isinstance(entry.get("mkind"), str),
            f"script entry needs a string mkind: {entry!r}")
    to = entry.get("to", "all")
    if to != "all":
        _node_list(to, n_total, "script entry 'to'")
    forged = entry.get("forge_signer")
    _expect(forged is None or _is_int(forged), f"bad forge_signer {forged!r}")
    payload = entry.get("payload")
    if key.kind is Kind.RB and isinstance(payload, dict):
        _expect("value" in payload, f"rb payload needs a value: {payload!r}")
        _scalar(payload["value"], "rb payload value")
        for field in ("parent", "ts"):
            v = payload.get(field)
            _expect(v is None or _is_int(v),
                    f"rb payload {field} must be an integer or null, got {v!r}")
    else:
        # the engine reads an RB output as a proposal; bare instances do not
        _expect(key.kind is not Kind.RB or mode == "raw",
                f"rb payload must be an object with a value: {payload!r}")
        _scalar(payload, "script payload")


@dataclass
class Scenario:
    params: Params
    backend: str
    digest_mode: bool
    schedule: LeaderSchedule
    adversaries: tuple
    injections: tuple
    options: EngineOptions
    seed: int
    horizon: object                 # int, or "auto" for liveness sizing
    pre_gst_max_delay: int
    delay_law: str
    gossip_relay_latency: int
    gst_draw: tuple | None = None   # (lo, hi): per-seed gst override
    extra_nodes: int = 0
    mode: str = "engine"
    raw_inputs: tuple = ()
    checks: tuple = ()

    @property
    def faulty_nodes(self) -> set:
        return {spec.node for spec in self.adversaries}

    def correct_nodes(self) -> tuple:
        total = self.params.n + self.extra_nodes
        return tuple(i for i in range(total) if i not in self.faulty_nodes)

    def auto_horizon(self, params: Params) -> int:
        """Liveness-safe horizon: pre-GST round burn, then enough leader
        rotations to flush every queued injection, plus delivery slack."""
        per_node: dict[int, int] = {}
        for _, node, _ in self.injections:
            per_node[node] = per_node.get(node, 0) + 1
        k = max(per_node.values(), default=1)
        d = params.sub_delay
        return params.gst + 3 * d * (params.gst + (k + 2) * params.n + 2) + 2 * d

    def config_for(self, seed: int | None = None) -> RunConfig:
        seed = self.seed if seed is None else seed
        params = self.params
        if self.gst_draw is not None:
            lo, hi = self.gst_draw
            params = replace(params, gst=random.Random(seed).randint(lo, hi))
        horizon = self.horizon
        if horizon == "auto":
            _expect(self.mode == "engine", "auto horizon needs engine mode")
            horizon = self.auto_horizon(params)
        _expect(horizon > params.gst, "horizon must exceed gst")
        for t, node, _ in self.injections:
            _expect(t < horizon, f"injection at t={t} is beyond the horizon")
            _expect(node < params.n + self.extra_nodes,
                    f"injection target {node} does not exist")
        return RunConfig(
            params=params, schedule=self.schedule, backend=self.backend,
            digest_mode=self.digest_mode, seed=seed, horizon=horizon,
            pre_gst_max_delay=self.pre_gst_max_delay, delay_law=self.delay_law,
            gossip_relay_latency=self.gossip_relay_latency,
            extra_nodes=self.extra_nodes, adversaries=self.adversaries,
            injections=self.injections, options=self.options, mode=self.mode,
            raw_inputs=self.raw_inputs)

    def context_for(self, cfg: RunConfig) -> CheckContext:
        return CheckContext(
            params=cfg.params, horizon=cfg.horizon,
            correct_nodes=self.correct_nodes(), injections=self.injections,
            backend=cfg.backend, delay_law=cfg.delay_law,
            gossip_relay_latency=cfg.gossip_relay_latency, seed=cfg.seed)

    def execute(self, seed: int | None = None):
        """Run once and evaluate this scenario's checks on the trace."""
        cfg = self.config_for(seed)
        trace = run(cfg)
        reports = run_checks(trace, self.context_for(cfg), self.checks)
        return trace, reports, cfg


def _parse_adversary(obj: dict, n_total: int, mode: str):
    _expect(isinstance(obj, dict), f"adversary entry must be an object: {obj!r}")
    kind = obj.get("kind")
    node = _int_field(obj, "node", minimum=0)
    _expect(node < n_total, f"adversary node {node} does not exist")
    if kind == "crash":
        return CrashSpec(node, _int_field(obj, "at", default=0, minimum=0))
    if kind == "silent_leader":
        return SilentLeaderSpec(node)
    if kind == "equivocating_proposer":
        parts = obj.get("partitions")
        _expect(isinstance(parts, list) and parts,
                "equivocating_proposer needs a partitions list")
        built = []
        for p in parts:
            _expect(isinstance(p, dict), f"partition must be an object: {p!r}")
            nodes = _node_list(p.get("nodes", []), n_total, "partition nodes")
            _expect(nodes != (), "partition needs nodes")
            parent = p.get("parent", "bot")
            if parent not in ("bot", "prev", None):
                _int_like(parent, "partition parent")
            built.append(PartitionValue(nodes, _scalar(p.get("value"), "partition value"),
                                        parent))
        return EquivocatingProposerSpec(node, tuple(built))
    if kind == "flip_voter":
        bits_doc = obj.get("bits", {})
        _expect(isinstance(bits_doc, dict), "flip_voter bits must be an object")
        bits = {_int_like(k, "flip_voter round"): _int_like(v, "flip_voter bit")
                for k, v in bits_doc.items()}
        _expect(all(v in (0, 1) for v in bits.values()), "flip bits must be 0/1")
        return FlipVoterSpec(node, bits, _bool_field(obj, "equivocate"))
    if kind == "scripted":
        script = _list_field(obj, "script")
        for entry in script:
            _check_script_entry(entry, n_total, mode)
        return ScriptedSpec(node, tuple(script))
    raise ConfigError(f"unknown adversary kind {kind!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    _expect(isinstance(doc, dict), "scenario must be a JSON object")
    version = doc.get("version")
    _expect(version == SCENARIO_VERSION,
            f"unsupported scenario version {version!r}")
    p = doc.get("params")
    _expect(isinstance(p, dict), "missing params object")
    params = Params(n=_int_field(p, "n"), f=_int_field(p, "f"),
                    delta=_int_field(p, "delta", minimum=1),
                    gst=_int_field(p, "gst", minimum=0),
                    sub_delay=_int_field(p, "Delta", minimum=1))

    backend_doc = doc.get("backend", "bracha")
    if isinstance(backend_doc, str):
        kind, digest_mode = backend_doc, False
    else:
        _expect(isinstance(backend_doc, dict), "backend must be a string or object")
        kind = backend_doc.get("kind", "bracha")
        digest_mode = _bool_field(backend_doc, "digest_mode")
    _expect(isinstance(kind, str) and kind in _BACKENDS, f"unknown backend {kind!r}")
    backend = _BACKENDS[kind]
    _expect(not (digest_mode and backend != "gossip"),
            "digest_mode only applies to the gossip backend")

    sched_doc = doc.get("schedule")
    if sched_doc is None or sched_doc == "round_robin":
        schedule = LeaderSchedule(params.n)
    else:
        _expect(isinstance(sched_doc, list) and all(map(_is_int, sched_doc)),
                "schedule must be a list of validator ids or null")
        schedule = LeaderSchedule(params.n, tuple(sched_doc))

    sim = doc.get("sim", {})
    _expect(isinstance(sim, dict), "sim must be an object")
    extra_nodes = _int_field(sim, "extra_nodes", default=0, minimum=0)
    n_total = params.n + extra_nodes
    mode = doc.get("mode", "engine")
    _expect(mode in ("engine", "raw"), f"unknown mode {mode!r}")
    adversaries = tuple(_parse_adversary(a, n_total, mode)
                        for a in _list_field(doc, "adversaries"))
    crashed = {a.node for a in adversaries if isinstance(a, CrashSpec)}
    driven = {a.node for a in adversaries if not isinstance(a, CrashSpec)}
    _expect(not (crashed & driven),
            "a node cannot both crash and run an adversary driver")
    faulty_validators = {a.node for a in adversaries if a.node < params.n}
    _expect(len(faulty_validators) <= params.f,
            f"{len(faulty_validators)} faulty validators exceeds f={params.f}")

    injections = []
    for inj in _list_field(doc, "injections"):
        _expect(isinstance(inj, dict) and "value" in inj,
                f"bad injection entry: {inj!r}")
        injections.append((_int_field(inj, "time", default=0),
                           _int_field(inj, "node", minimum=0),
                           _scalar(inj["value"], "injection value")))

    opts_doc = doc.get("engine_options", {})
    _expect(isinstance(opts_doc, dict), "engine_options must be an object")
    discipline = opts_doc.get("queue_discipline", "fifo")
    _expect(discipline in ("fifo", "lifo"),
            f"unknown queue discipline {discipline!r}")
    options = EngineOptions(
        queue_discipline=discipline,
        spam_window=_int_field(opts_doc, "spam_window", default=100, minimum=0))

    horizon = sim.get("horizon", "auto")
    if horizon != "auto":
        _expect(isinstance(horizon, int) and not isinstance(horizon, bool)
                and horizon > 0, 'horizon must be a positive integer or "auto"')
    delay_law = sim.get("delay_law", "fixed")
    _expect(delay_law in ("fixed", "uniform"), f"unknown delay law {delay_law!r}")
    gst_draw = None
    if "gst_draw" in sim:
        draw = sim["gst_draw"]
        _expect(isinstance(draw, list) and len(draw) == 2
                and all(isinstance(x, int) for x in draw) and 0 <= draw[0] <= draw[1],
                "gst_draw must be [lo, hi] with 0 <= lo <= hi")
        gst_draw = (draw[0], draw[1])

    raw_inputs = []
    for ri in _list_field(doc, "raw_inputs"):
        _expect(isinstance(ri, dict) and "instance" in ri and "value" in ri,
                f"bad raw input entry: {ri!r}")
        _instance_key(ri["instance"])
        raw_inputs.append((_int_field(ri, "time", default=0),
                           _int_field(ri, "node", minimum=0),
                           ri["instance"], ri["value"]))

    checks = tuple(_check_entry(entry) for entry in _list_field(doc, "checks"))
    return Scenario(
        params=params, backend=backend, digest_mode=digest_mode,
        schedule=schedule, adversaries=adversaries, injections=tuple(injections),
        options=options, seed=_int_field(sim, "seed", default=0),
        horizon=horizon,
        pre_gst_max_delay=_int_field(sim, "pre_gst_max_delay", default=5, minimum=1),
        delay_law=delay_law,
        gossip_relay_latency=_int_field(sim, "gossip_relay_latency", default=1,
                                        minimum=1),
        gst_draw=gst_draw, extra_nodes=extra_nodes, mode=mode,
        raw_inputs=tuple(raw_inputs), checks=checks)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)
