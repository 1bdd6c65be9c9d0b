"""Deterministic partial-synchrony simulator.

Time is integer ticks.  A message sent at t to another node is delivered at

    min(t + d_pre, max(t, gst) + d_post)

where d_pre is bounded by pre_gst_max_delay and d_post by the post-GST hop
bound (delta for direct sends, the relay latency for gossip hops).  Under
the "fixed" law both take their bounds; under "uniform" both are drawn from
the run's seeded RNG per (message, recipient), unless the arrival is known
without a draw (see `Simulation._forced_time`).  A node's messages to itself
are delivered with zero delay inside the same dispatch, which is what lets
a validator count itself in its own quorum tallies.

Everything (event ordering, delay draws, gossip relays, adversary moves)
is a pure function of the run configuration and seed, so a rerun yields a
byte-identical trace.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush, heappop

from .core import ConfigError, Params, LeaderSchedule, is_int
from .subproto import (RB, WBA, INITIAL, READY, VOTE, Input, InstanceKey,
                       InstanceTable, Output, parse_key)
from . import bracha as bracha_mod
from . import gossip as gossip_mod
from .engine import Engine, Proposal, RestartTimer, encode
from .gossip import SignatureScheme, make_signed
from .bracha import BrachaMsg
from .trace import Trace


# A simulation builds every node's state before the first event, so a run
# has at most this many nodes, validators and observers together.
MAX_NODES = 256


# -- adversaries ------------------------------------------------------------
# A spec is both what a run config holds and the behaviour it names.  Every
# seed of a config shares the same spec objects, so a driver keeps nothing
# of a run on itself: the faulty node hands each driver its own `done` set.

class Driver:
    """A faulty node's behaviour, called by its `AdversaryApi`; the base
    behaviour sends nothing."""

    def on_start(self, api: AdversaryApi, done: set) -> None: ...
    def on_deliver(self, api: AdversaryApi, done: set, msg) -> None: ...


@dataclass
class CrashSpec:
    """Behaves correctly, then stops completely at `at`."""
    node: int
    at: int = 0


@dataclass
class SilentLeaderSpec(Driver):
    """Sends nothing, ever."""
    node: int


@dataclass
class PartitionValue:
    nodes: tuple
    value: object
    parent: object = "bot"      # "bot", "prev", or an explicit round


@dataclass
class EquivocatingProposerSpec(Driver):
    """Proposes a different (value, parent) to each recipient partition in
    every round it leads."""
    node: int
    partitions: tuple

    def on_start(self, api: AdversaryApi, done: set) -> None:
        period = len(api.schedule.order) if api.schedule.order else api.params.n
        for r in range(period):
            if api.schedule.leader_of(r) == self.node:
                self._equivocate(api, done, r)
                break

    def on_deliver(self, api: AdversaryApi, done: set, msg) -> None:
        r = msg.instance.round
        if api.schedule.leader_of(r) == self.node and r not in done:
            self._equivocate(api, done, r)

    def _equivocate(self, api: AdversaryApi, done: set, r: int) -> None:
        done.add(r)
        key = InstanceKey(RB, r)
        for part in self.partitions:
            parent = None if part.parent in ("bot", None) else part.parent
            if parent == "prev":
                parent = r - 1 if r > 0 else None
            prop = Proposal(part.value, parent)
            api.send(api.message(key, INITIAL, prop), tuple(part.nodes))


@dataclass
class FlipVoterSpec(Driver):
    """Votes a configured bit per round (default: round parity); with
    `equivocate` it backs both bits, split across recipients."""
    node: int
    bits: dict = field(default_factory=dict)
    equivocate: bool = False

    def on_deliver(self, api: AdversaryApi, done: set, msg) -> None:
        key = msg.instance
        if key.kind is not WBA or key.round in done:
            return
        done.add(key.round)
        bit = self.bits.get(key.round, key.round % 2)
        # The protocols differ: on bracha a vote and a ready back the bit,
        # split by recipient parity when equivocating; on gossip one signed
        # vote floods per bit.
        if api.backend == "gossip":
            for b in (bit, 1 - bit) if self.equivocate else (bit,):
                api.send(api.message(key, VOTE, b))
        elif self.equivocate:
            for to in range(api.params.n):
                b = bit if to % 2 == 0 else 1 - bit
                for kind in (VOTE, READY):
                    api.send(api.message(key, kind, b), (to,))
        else:
            for kind in (VOTE, READY):
                api.send(api.message(key, kind, bit))


@dataclass
class ScriptedSpec(Driver):
    """Replays a fixed list of timed sends.  Entries: {"time": T, "op":
    "send"|"gossip", "to": "all"|[ids], "instance": "rb/1", "mkind":
    "initial", "payload": ..., "forge_signer": id?}.

    RB payloads are {"value": v, "parent": p} dicts; WBA payloads are bits.
    `op` is read by nothing: the run's backend picks direct or gossip.
    """
    node: int
    script: tuple = ()

    def on_script(self, api: AdversaryApi, entry: dict) -> None:
        key = parse_key(entry["instance"])
        payload = entry.get("payload")
        if key.kind is RB and isinstance(payload, dict):
            payload = Proposal(payload["value"], payload.get("parent"),
                               payload.get("ts"))
        msg = api.message(key, entry["mkind"], payload, entry.get("forge_signer"))
        to = entry.get("to", "all")
        api.send(msg, None if to == "all" else tuple(to))


@dataclass
class RunConfig:
    params: Params
    schedule: LeaderSchedule
    backend: str = "bracha"                  # or "gossip"
    digest_mode: bool = False
    seed: int = 0
    horizon: int = 1000
    pre_gst_max_delay: int = 5
    delay_law: str = "fixed"                 # or "uniform"
    gossip_relay_latency: int = 1
    extra_nodes: int = 0                     # observers beyond the n validators
    adversaries: tuple = ()
    injections: tuple = ()                   # (time, node, value)
    spam_window: int = 100                   # messages past round current + this wait
    mode: str = "engine"                     # "raw" runs bare instances, no engine
    raw_inputs: tuple = ()                   # (time, node, "rb/0", value)

    def __post_init__(self) -> None:
        """The value rules of a run, checked wherever a config is built."""
        for what, value, known in (("backend", self.backend, ("bracha", "gossip")),
                                   ("delay law", self.delay_law, ("fixed", "uniform")),
                                   ("mode", self.mode, ("engine", "raw"))):
            if value not in known:
                raise ConfigError(f"unknown {what} {value!r}")
        if self.extra_nodes < 0:
            raise ConfigError(f"extra_nodes must be >= 0, got {self.extra_nodes}")
        if self.spam_window < 0:
            raise ConfigError(f"spam_window must be >= 0, got {self.spam_window}")
        total = self.params.n + self.extra_nodes
        if total > MAX_NODES:
            raise ConfigError(f"{total} nodes exceeds the cap of {MAX_NODES}")
        if self.schedule.n != self.params.n:
            raise ConfigError(f"schedule for n={self.schedule.n}, params n={self.params.n}")
        if self.digest_mode and self.backend != "gossip":
            raise ConfigError("digest_mode only applies to the gossip backend")
        if self.raw_inputs and self.mode != "raw":
            raise ConfigError("raw_inputs only apply in raw mode")
        # a bound of 0 would make the uniform law's rejection loop spin
        if self.pre_gst_max_delay < 1 or self.gossip_relay_latency < 1:
            raise ConfigError("pre_gst_max_delay and gossip_relay_latency must be >= 1")
        # Every node an adversary is, or sends to, exists; at most f distinct
        # nodes may be faulty, observers included; and a node that crashes
        # runs no driver, since a driven node has no correct stack to stop.
        adversaries, targets, times = self.adversaries, [], []
        for t, _, text, _ in self.raw_inputs:
            instance_key(text)
            times.append(t)
        for spec in adversaries:
            if isinstance(spec, EquivocatingProposerSpec):
                targets += [node for part in spec.partitions for node in part.nodes]
            elif isinstance(spec, ScriptedSpec):
                for entry in spec.script:
                    script_entry_key(entry)
                    times.append(entry["time"])
                    targets += () if entry.get("to", "all") == "all" else entry["to"]
            elif isinstance(spec, CrashSpec):
                times.append(spec.at)
            elif not isinstance(spec, Driver):
                raise ConfigError(f"unknown adversary spec {spec!r}")
        if any(t < 0 for t in times):
            raise ConfigError(f"an event at t={min(times)} is before the run starts")
        inputs = (*self.injections, *self.raw_inputs)
        for what, nodes in (("adversary node", [spec.node for spec in adversaries]),
                            ("adversary target", targets),
                            ("input target", [inp[1] for inp in inputs])):
            for node in nodes:
                if not 0 <= node < total:
                    raise ConfigError(f"{what} {node} does not exist")
        faulty = {spec.node for spec in adversaries}
        if len(faulty) > self.params.f:
            raise ConfigError(f"{len(faulty)} faulty nodes exceeds the bound "
                              f"f={self.params.f}")
        crashed = {spec.node for spec in adversaries if isinstance(spec, CrashSpec)}
        if any(spec.node in crashed for spec in adversaries
               if not isinstance(spec, CrashSpec)):
            raise ConfigError("a node cannot both crash and run an adversary driver")
        for t, _, _ in self.injections:
            # an injection at the horizon could never be delivered in time
            if t >= self.horizon:
                raise ConfigError(f"injection at t={t} is not before the horizon")


def trace_meta(cfg: RunConfig) -> dict:
    """The run parameters a trace's header records."""
    return {"backend": cfg.backend, "mode": cfg.mode, "n": cfg.params.n,
            "f": cfg.params.f, "gst": cfg.params.gst, "horizon": cfg.horizon}


def instance_key(text) -> InstanceKey:
    """`text` read as rb/<round> or wba/<round>, spelled as `parse_key`
    reads it."""
    try:
        return parse_key(text)
    except (TypeError, ValueError):          # TypeError: not a str
        raise ConfigError(
            f"bad instance {text!r}: expected rb/<round> or wba/<round>") from None


def script_entry_key(entry) -> InstanceKey:
    """The instance of a `ScriptedSpec` entry, once the entry is one the
    driver can run, wherever its config was built."""
    if not (isinstance(entry, dict) and "time" in entry
            and entry.get("op") in ("send", "gossip")):
        raise ConfigError(f"bad script entry: {entry!r}")
    if not is_int(entry["time"]):
        raise ConfigError(f"field 'time' must be an integer, got {entry['time']!r}")
    key = instance_key(entry.get("instance"))
    if not isinstance(entry.get("mkind"), str):
        raise ConfigError(f"script entry needs a string mkind: {entry!r}")
    to = entry.get("to", "all")
    if to != "all" and not (isinstance(to, (list, tuple)) and all(map(is_int, to))):
        raise ConfigError(f"script entry 'to' must be a list of node ids, got {to!r}")
    forged = entry.get("forge_signer")
    if not (forged is None or is_int(forged)):
        raise ConfigError(f"bad forge_signer {forged!r}")
    payload = entry.get("payload")
    if key.kind is RB and isinstance(payload, dict) and "value" not in payload:
        raise ConfigError(f"rb payload needs a value: {payload!r}")
    return key


def _encode_msg(msg) -> dict:
    """A message's trace fields, for its `send` or `gossip` event; a signed
    message's include its signature."""
    if isinstance(msg, BrachaMsg):
        return {"instance": msg.instance.text, "mkind": msg.kind,
                "payload": encode(msg.payload), "from": msg.sender}
    return {"instance": msg.instance.text, "mkind": msg.kind,
            "payload": encode(msg.payload), "from": msg.signer, "sig": msg.sig}


_HAS = -1         # below every arrival time, so no later copy is queued


class _NodeRuntime:
    """The full correct-node stack: instance table, engine, timer, queues."""

    def __init__(self, sim: "Simulation", node: int):
        self.sim = sim
        self.node = node
        cfg = sim.cfg
        self.table = InstanceTable(cfg.params, cfg.schedule, node, sim.factory_for(node))
        self.engine = (Engine(cfg.params, cfg.schedule, node, self.table)
                       if cfg.mode == "engine" else None)
        self.timer_gen = 0
        self.work: deque = deque()
        self.engine_queued = False
        self.held: list = []                 # spam-window buffer, arrival order

    # -- entry points (each pumps to quiescence) -----------------------------
    # The simulation queues all but on_deliver as bound calls, and each checks
    # for a crash itself; on_deliver runs after the simulation's check.  Each
    # starts on an empty work queue, so its first step runs directly.

    def on_start(self, now: int) -> None:
        if self.sim._crashed(self.node, now):
            return
        self.sim.trace.append(now, "start", self.node)
        if self.engine is not None:
            self._apply_engine(now, *self.engine.start())
            self._pump(now)

    def on_deliver(self, now: int, msg) -> None:
        if self.engine is not None:
            window = self.engine.current + self.sim.cfg.spam_window
            if msg.instance.round > window:
                self.held.append(msg)
                return
        acts = self.table.slot(msg.instance).machine.step(msg)
        if acts:
            self._apply_backend(now, msg.instance, acts)
            if self.work:
                self._pump(now)

    def on_timer(self, now: int, gen: int) -> None:
        if self.node in self.sim.crash_at and self.sim._crashed(self.node, now):
            return
        if gen != self.timer_gen:
            self.sim.trace.append(now, "timer_stale", self.node, {"generation": gen})
            return
        self.sim.trace.append(now, "timer_fire", self.node, {"generation": gen})
        self._apply_engine(now, *self.engine.on_timeout())
        self._pump(now)

    def on_raw_input(self, now: int, key: InstanceKey, value) -> None:
        if not self.sim._crashed(self.node, now):
            self._sub_input(now, Input(key, value))
            self._pump(now)

    # -- internals: a work item is (method, arg), run as method(now, arg) ------
    # (one argument each: unpacking `(method, *args)` costs more than a tag chain)

    def _pump(self, now: int) -> None:
        work = self.work
        while work:
            method, arg = work.popleft()
            method(now, arg)

    def _engine_pass(self, now: int, _) -> None:
        self.engine_queued = False
        self._apply_engine(now, *self.engine.on_subproto_output())

    def _sub_input(self, now: int, inp: Input) -> None:
        acts = self.table.submit_input(inp)
        if acts is not None:
            key = inp.key
            self.sim.trace.append(now, "sub_input", self.node, {
                "instance": key.text, "value": encode(inp.value)})
            self._apply_backend(now, key, acts)

    def _recv(self, now: int, msg) -> None:
        key = msg.instance
        self._apply_backend(now, key, self.table.slot(key).machine.step(msg))

    def _apply_backend(self, now: int, key: InstanceKey, acts: list) -> None:
        for a in acts:
            if isinstance(a, Output):
                if self.table.record_output(key, a.value):
                    self.sim.trace.append(now, "sub_output", self.node, {
                        "instance": key.text, "value": encode(a.value)})
                    if self.engine is not None and not self.engine_queued:
                        self.engine_queued = True        # one pass per batch
                        self.work.append((self._engine_pass, None))
            else:                            # a message, to every node
                self.sim.send(self.node, a, now)
                self.work.append((self._recv, a))

    def _apply_engine(self, now: int, acts: list, notes: list) -> None:
        sim = self.sim
        for kind, data in notes:
            sim.trace.append(now, kind, self.node, data)
        for a in acts:
            if isinstance(a, RestartTimer):
                gen = self.timer_gen = self.timer_gen + 1
                sim.trace.append(now, "timer_set", self.node, {
                    "generation": gen, "fire_at": now + a.delay})
                sim._push(now + a.delay, self.on_timer, (gen,))
            else:                            # a subprotocol Input
                self.work.append((self._sub_input, a))
        if self.held:
            window = self.engine.current + sim.cfg.spam_window
            ready = [m for m in self.held if m.instance.round <= window]
            if ready:
                self.held = [m for m in self.held if m.instance.round > window]
                self.work.extend((self._recv, m) for m in ready)


class AdversaryApi:
    """A faulty node: its stack of `(spec, done)` pairs, one per driver, in
    config order, and what a driver may do.  Several specs may target one
    node; their drivers stack, which is how a single faulty validator
    combines behaviours.  Each entry point moves `now` to its dispatch and
    hands the event to the stack in order."""

    def __init__(self, sim: "Simulation", node: int):
        self.sim = sim
        self.node = node
        self.now = 0
        self.params = sim.cfg.params
        self.schedule = sim.cfg.schedule
        self.backend = sim.cfg.backend
        self.stack: list = []

    def on_start(self, now: int) -> None:
        self.now = now
        for spec, done in self.stack:
            spec.on_start(self, done)

    def on_deliver(self, now: int, msg) -> None:
        self.now = now
        for spec, done in self.stack:
            spec.on_deliver(self, done, msg)

    def on_script(self, now: int, spec: ScriptedSpec, entry: dict) -> None:
        self.now = now
        spec.on_script(self, entry)

    def message(self, instance: InstanceKey, kind: str, payload, forge_signer=None):
        """This node's message in the run's backend.  On gossip it is signed
        with this node's key, the only key a driver holds; `forge_signer`
        then claims another signer under that same signature."""
        if self.backend == "bracha":
            return BrachaMsg(instance, kind, payload, self.node)
        return make_signed(self.sim.scheme, self.node, instance, kind, payload,
                           forge_signer)

    def send(self, msg, targets=None) -> None:
        """Send `msg` to `targets` other than this node, or to every node
        but this one when None: a send never comes back to its sender."""
        self.sim.send(self.node, msg, self.now, targets)


class _RunQueue(dict):
    """The queued calls: per tick, a list of `(handler, args)` in the order
    they were queued, and `ticks`, a heap of the ticks that have a list.
    Running the lowest tick's list in order is the order of one heap keyed
    on (time, order queued)."""

    def __init__(self):
        super().__init__()
        self.ticks: list = []

    def __missing__(self, tick: int) -> list:
        heappush(self.ticks, tick)
        entries = self[tick] = []
        return entries


class Simulation:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.total = cfg.params.n + cfg.extra_nodes
        self.rng = random.Random(cfg.seed)
        # the delay law's per-run constants, read at every send; the post-GST
        # hop bound is the relay latency on gossip and delta direct
        self._fixed_law = cfg.delay_law == "fixed"
        self._gst, self._pre = cfg.params.gst, cfg.pre_gst_max_delay
        self._pre_bits = self._pre.bit_length()
        self._post = (cfg.gossip_relay_latency if cfg.backend == "gossip"
                      else cfg.params.delta)
        self._getrandbits = self.rng.getrandbits
        self.trace = Trace(cfg.seed, meta=trace_meta(cfg))
        # each node's recipients of a send to all: the other nodes, in order
        self._others = [tuple(to for to in range(self.total) if to != node)
                        for node in range(self.total)]
        self.run_queue = _RunQueue()
        self.scheme = SignatureScheme(cfg.seed, self.total)
        self.gossip_backend = cfg.backend == "gossip"
        # gossip message -> per node: None, the earliest arrival still in
        # the queue, or _HAS once the node has the message; then one last
        # slot, True once the message is covered (see _fan_out)
        self.gossip_state: dict = {}

        self.crash_at: dict[int, int] = {}      # per-event paths test it before _crashed
        self.crashed_noted: set[int] = set()
        self.faulty: dict[int, AdversaryApi] = {}
        for spec in cfg.adversaries:
            if isinstance(spec, CrashSpec):
                self.crash_at[spec.node] = spec.at
            else:
                if spec.node not in self.faulty:
                    self.faulty[spec.node] = AdversaryApi(self, spec.node)
                self.faulty[spec.node].stack.append((spec, set()))

        self.runtimes = {node: _NodeRuntime(self, node)
                         for node in range(self.total) if node not in self.faulty}

    # -- scheduling primitives -------------------------------------------------

    def _push(self, time: int, handler, args: tuple) -> None:
        """Queue `handler(time, *args)` after everything queued for `time`."""
        self.run_queue[time].append((handler, args))

    def _forced_time(self, now: int, post_bound: int):
        """A hop's arrival if it is known before any draw, else None: under
        the fixed law, and under "uniform" (at `now + 1`) when the pre-GST
        bound is 1 or, from GST on, the post-GST bound is 1.  It never
        decreases as `now` grows.  A forced hop draws nothing, and every
        trace stays as if it drew: simulated time never goes backwards from
        one send to the next, a run has one post-GST bound (its backend's),
        and nothing else reads the RNG.  So once a post-GST hop is forced
        every later hop is, and with a pre-GST bound of 1 every hop is; a
        skipped draw only moves the RNG past the last value the run uses."""
        if self._fixed_law:
            return min(now + self._pre, max(now, self._gst) + post_bound)
        if self._pre == 1 or (post_bound == 1 and now >= self._gst):
            return now + 1
        return None

    def _delivery_times(self, now: int, post_bound: int, copies: int) -> list:
        """Arrival times of `copies` copies sent at `now` on a hop that is
        not forced, drawn in order.  Each delay is 1 plus a value below its
        bound, drawn by rejection on `getrandbits(bound.bit_length())`.
        That is the loop of CPython's `Random._randbelow_with_getrandbits`,
        down to the 1-bit draws for a bound of 1, so it yields the values
        and consumes the stream of `randint(1, bound)`, without that call's
        three frames."""
        gst, pre = self._gst, self._pre
        getrandbits = self._getrandbits
        k_pre, k_post = self._pre_bits, post_bound.bit_length()
        early, late = now + 1, max(now, gst) + 1
        times = []
        for _ in range(copies):
            d_pre = getrandbits(k_pre)
            while d_pre >= pre:
                d_pre = getrandbits(k_pre)
            d_post = getrandbits(k_post)
            while d_post >= post_bound:
                d_post = getrandbits(k_post)
            times.append(min(early + d_pre, late + d_post))
        return times

    def send(self, sender: int, msg, now: int, targets=None) -> None:
        """The one way a message leaves a node: to `targets` but `sender`,
        in their order, or to every node but `sender` when None.  Records
        one `gossip` event on gossip; on bracha one `send` event to "all",
        or one per target.  Each copy's `deliver` event names the event of
        its send by seq: a target's copy names that target's own `send`."""
        enc, append = _encode_msg(msg), self.trace.append
        if not self.gossip_backend:
            if targets is None:
                enc["to"] = "all"
                ev = append(now, "send", sender, enc)
                self._fan_out(sender, msg, {"msg": ev.seq}, None, now)
            else:
                for to in targets:
                    if to == sender:
                        continue
                    ev = append(now, "send", sender, {**enc, "to": [to]})
                    self._fan_out(sender, msg, {"msg": ev.seq}, None, now, (to,))
            return
        ev = append(now, "gossip", sender, enc)
        state = self.gossip_state.setdefault(msg, [None] * self.total + [False])
        state[sender] = _HAS
        if not state[-1]:
            self._fan_out(sender, msg, {"msg": ev.seq, "gossip": 1}, state, now,
                          None if targets is None
                          else [to for to in targets if to != sender])

    def _fan_out(self, sender: int, msg, deliver: dict, state, now: int,
                 recipients=None) -> None:
        """Queue a copy of `msg` for each of `recipients`, in order, or for
        every node but `sender` when None.  `deliver` is the data each
        copy's `deliver` event copies: the seq of the event that sent it.
        `state` is the message's slot list in `gossip_state` on gossip, and
        None on a direct send.

        A forced hop queues one entry for all the copies it keeps, which
        `_on_deliver` hands over in order; a random hop queues one entry per
        copy, with its own drawn delay.  A batch is trace-identical because
        its copies would have been adjacent in the same tick's list.

        On gossip a node acts only on the first copy of a message it
        receives, so a copy that would arrive after the node has it, or no
        earlier than a copy already queued, is not queued at all.  A gossip
        fan-out to every node on forced hops covers the message, which is
        then not fanned out again: a forced arrival never decreases as the
        send time grows and a slot only falls or becomes _HAS, so no later
        send could queue a copy."""
        at = self._forced_time(now, self._post)
        if state is not None and at is not None:
            state[-1] = recipients is None
        if recipients is None:
            recipients = self._others[sender]
        if at is None:
            queue, on_deliver = self.run_queue, self._on_deliver
            times = self._delivery_times(now, self._post, len(recipients))
            for to, at in zip(recipients, times):
                if state is not None:
                    known = state[to]
                    if known is not None and known <= at:
                        continue
                    state[to] = at
                queue[at].append((on_deliver, ((to,), msg, deliver, state)))
            return
        if state is not None:
            kept = []
            for to in recipients:
                known = state[to]
                if known is None or known > at:
                    state[to] = at
                    kept.append(to)
            recipients = kept
        if recipients:
            self.run_queue[at].append(
                (self._on_deliver, (recipients, msg, deliver, state)))

    def factory_for(self, node: int):
        cfg = self.cfg
        if cfg.backend == "bracha":
            return bracha_mod.machine_factory(cfg.params, cfg.schedule, node)
        return gossip_mod.machine_factory(cfg.params, cfg.schedule, node,
                                          self.scheme, cfg.digest_mode)

    # -- main loop ---------------------------------------------------------------

    def _crashed(self, node: int, now: int) -> bool:
        at = self.crash_at.get(node)
        if at is None or now < at:
            return False
        if node not in self.crashed_noted:
            self.crashed_noted.add(node)
            self.trace.append(now, "crash", node)
        return True

    def run(self) -> Trace:
        cfg, runtimes = self.cfg, self.runtimes
        # a correct node's values injected at t <= 0 are queued just before
        # its start, so they head its buffer in the order given
        at_start: dict[int, list] = {}
        for t, node, value in cfg.injections:
            if t <= 0 and node in runtimes:
                at_start.setdefault(node, []).append(value)
        for node in range(self.total):
            if node in runtimes:
                for value in at_start.get(node, ()):
                    self._push(0, self._on_inject, (node, value))
                self._push(0, runtimes[node].on_start, ())
            else:
                self._push(0, self.faulty[node].on_start, ())
        for t, node, value in cfg.injections:
            if t > 0 or node not in runtimes:
                self._push(max(t, 0), self._on_inject, (node, value))
        for t, node, key_text, value in cfg.raw_inputs:
            if node in runtimes:
                self._push(t, runtimes[node].on_raw_input, (parse_key(key_text), value))
        for api in self.faulty.values():
            for spec, _ in api.stack:
                if isinstance(spec, ScriptedSpec):
                    for entry in spec.script:
                        self._push(entry["time"], api.on_script, (spec, entry))

        queue, horizon = self.run_queue, cfg.horizon
        ticks = queue.ticks
        while ticks:
            now = heappop(ticks)
            if now > horizon:
                break
            for handler, args in queue.pop(now):
                handler(now, *args)
        return self.trace

    def close(self) -> None:
        """Drop what ties the run into reference cycles: the run queue's
        bound calls, each node's runtime (it points back at the simulation,
        and its work queue at itself) and each faulty node.  The trace and
        the configuration stay; reference counting frees the rest."""
        self.run_queue.clear()
        for rt in self.runtimes.values():
            rt.work.clear()
        self.runtimes = {}
        self.faulty = {}

    # -- queued events that are not a bound node entry point ---------------------

    def _on_deliver(self, now: int, recipients, msg, deliver: dict, state) -> None:
        """Each recipient's copy of `msg`, in order; see `_fan_out`.  On
        gossip a node takes only its first copy, and a live correct node
        relays it."""
        trace, faulty, crash_at = self.trace, self.faulty, self.crash_at
        for to in recipients:
            if state is not None:
                if state[to] == _HAS:
                    continue
                state[to] = _HAS
            trace.append(now, "deliver", to, {**deliver})
            if to in faulty:
                faulty[to].on_deliver(now, msg)
            elif not (to in crash_at and self._crashed(to, now)):
                if state is not None and not state[-1]:
                    self._fan_out(to, msg, deliver, state, now)
                self.runtimes[to].on_deliver(now, msg)

    def _on_inject(self, now: int, node: int, value) -> None:
        self.trace.append(now, "inject", node, {"value": encode(value)})
        rt = self.runtimes.get(node)
        if rt is not None and not self._crashed(node, now) and rt.engine is not None:
            rt.engine.on_input(value)


def run(cfg: RunConfig) -> Trace:
    """Run `cfg` and return its trace, which is all of the run that outlives
    the call, whether it returns or raises.  `Simulation(cfg).run()` keeps
    the simulation's state for inspection instead."""
    sim = Simulation(cfg)
    try:
        return sim.run()
    finally:
        sim.close()
