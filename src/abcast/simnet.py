"""Deterministic partial-synchrony simulator.

Time is integer ticks.  A message sent at t to another node is delivered at

    min(t + d_pre, max(t, gst) + d_post)

where d_pre is bounded by pre_gst_max_delay and d_post by the post-GST hop
bound (delta for direct sends, the relay latency for gossip hops).  Under
the "fixed" law both take their bounds; under "uniform" both are drawn from
the run's seeded RNG per (message, recipient).  A node's messages to itself
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

from .core import ConfigError, Params, LeaderSchedule, is_validator
from .subproto import (InstanceKey, Kind, InstanceTable, LocalInput, Recv,
                       SendAll, GossipSend, Output, parse_key)
from . import bracha as bracha_mod
from . import gossip as gossip_mod
from .engine import (Engine, EngineOptions, Proposal, RestartTimer, InputRb,
                     InputWba, Wake)
from .gossip import SignatureScheme, SignedMsg, make_signed
from .bracha import BrachaMsg
from .trace import Trace


# -- adversary specifications -----------------------------------------------

@dataclass
class CrashSpec:
    """Behaves correctly, then stops completely at `at`."""
    node: int
    at: int = 0


@dataclass
class SilentLeaderSpec:
    """Sends nothing, ever."""
    node: int


@dataclass
class PartitionValue:
    nodes: tuple
    value: object
    parent: object = "bot"      # "bot", "prev", or an explicit round


@dataclass
class EquivocatingProposerSpec:
    """Proposes a different (value, parent) to each recipient partition in
    every round it leads."""
    node: int
    partitions: tuple


@dataclass
class FlipVoterSpec:
    """Votes a configured bit per round (default: round parity); with
    `equivocate` it backs both bits, split across recipients."""
    node: int
    bits: dict = field(default_factory=dict)
    equivocate: bool = False


@dataclass
class ScriptedSpec:
    """Replays a fixed list of timed sends; see ScriptedDriver for the
    entry format."""
    node: int
    script: tuple = ()


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
    options: EngineOptions = field(default_factory=EngineOptions)
    mode: str = "engine"                     # "raw" runs bare instances, no engine
    raw_inputs: tuple = ()                   # (time, node, "rb/0", value)


def _encode_value(v):
    if isinstance(v, Proposal):
        return {"value": _encode_value(v.value), "parent": v.parent, "ts": v.ts}
    return v


def _encode_msg(msg) -> dict:
    """A message's trace fields.  Built once where the message is sent and
    carried with every queued copy; each event spreads it into a dict of
    its own."""
    author = msg.sender if isinstance(msg, BrachaMsg) else msg.signer
    return {"instance": msg.instance.text, "mkind": msg.kind,
            "payload": _encode_value(msg.payload), "from": author}


_HAS = -1         # below every arrival time, so no later copy is queued


class _NodeRuntime:
    """The full correct-node stack: instance table, engine, timer, queues."""

    def __init__(self, sim: "Simulation", node: int, initial_inputs: tuple = ()):
        self.sim = sim
        self.node = node
        cfg = sim.cfg
        self.table = InstanceTable(cfg.params, cfg.schedule, node, sim.factory_for(node))
        if cfg.mode == "engine":
            self.engine = Engine(cfg.params, cfg.schedule, node, cfg.options,
                                 self.table, initial_inputs)
        else:
            self.engine = None
        self.timer_gen = 0
        self.work: deque = deque()
        self.engine_queued = False
        self.held: list = []                 # spam-window buffer, arrival order
        self.delivered: list = []            # (value, time)

    # -- entry points (each pumps to quiescence) -----------------------------

    def on_start(self, now: int) -> None:
        if self.engine is None:
            return
        acts, notes = self.engine.start(now)
        self._apply_engine(now, acts, notes)
        self._pump(now)

    def on_deliver(self, now: int, msg) -> None:
        if self.engine is not None:
            window = self.engine.current + self.sim.cfg.options.spam_window
            if msg.instance.round > window:
                self.held.append(msg)
                return
        # The work queue is empty between entry points, so the receipt is
        # stepped first, as it would be if queued, and the pump follows.
        self._recv(now, msg)
        self._pump(now)

    def on_timer(self, now: int, gen: int) -> None:
        if gen != self.timer_gen:
            self.sim.trace.append(now, "timer_stale", self.node, generation=gen)
            return
        self.sim.trace.append(now, "timer_fire", self.node, generation=gen)
        self.work.append(("timeout",))
        self._pump(now)

    def on_inject(self, now: int, value) -> None:
        if self.engine is not None:
            self.engine.on_input(value)

    def on_wake(self, now: int) -> None:
        self._queue_engine_pass()
        self._pump(now)

    def on_raw_input(self, now: int, key: InstanceKey, value) -> None:
        self.work.append(("subinput", key, value))
        self._pump(now)

    # -- internals ------------------------------------------------------------

    def _queue_engine_pass(self) -> None:
        if self.engine is not None and not self.engine_queued:
            self.engine_queued = True
            self.work.append(("engine",))

    def _pump(self, now: int) -> None:
        while self.work:
            item = self.work.popleft()
            tag = item[0]
            if tag == "recv":
                self._recv(now, item[1])
            elif tag == "subinput":
                _, key, value = item
                before = self.table.input_made(key)
                acts = self.table.submit_input(key, value)
                if not before and self.table.input_made(key):
                    self.sim.trace.append(now, "sub_input", self.node,
                                          instance=str(key), value=_encode_value(value))
                self._apply_backend(now, key, acts)
            elif tag == "timeout":
                acts, notes = self.engine.on_timeout(now)
                self._apply_engine(now, acts, notes)
            elif tag == "engine":
                self.engine_queued = False
                acts, notes = self.engine.on_subproto_output(now)
                self._apply_engine(now, acts, notes)

    def _recv(self, now: int, msg) -> None:
        key = msg.instance
        self._apply_backend(now, key, self.table.slot(key).machine.step(Recv(msg)))

    def _apply_backend(self, now: int, key: InstanceKey, acts: list) -> None:
        for a in acts:
            if isinstance(a, SendAll):
                enc = _encode_msg(a.msg)
                self.sim.trace.append(now, "send", self.node, **enc, to="all")
                self.sim.broadcast(self.node, a.msg, enc, now)
                self.work.append(("recv", a.msg))
            elif isinstance(a, GossipSend):
                enc = _encode_msg(a.msg)
                self.sim.trace.append(now, "gossip", self.node, **enc)
                self.sim.gossip_from(self.node, a.msg, enc, now)
                self.work.append(("recv", a.msg))
            elif isinstance(a, Output):
                if self.table.record_output(key, a.value):
                    self.sim.trace.append(now, "sub_output", self.node,
                                          instance=str(key), value=_encode_value(a.value))
                    self._queue_engine_pass()

    def _apply_engine(self, now: int, acts: list, notes: list) -> None:
        for note in notes:
            if note[0] == "advance":
                self.sim.trace.append(now, "advance", self.node, round=note[1])
            elif note[0] == "propose":
                self.sim.trace.append(now, "propose", self.node, round=note[1],
                                      payload=_encode_value(note[2]))
            elif note[0] == "ab_output":
                self.sim.trace.append(now, "ab_output", self.node,
                                      value=_encode_value(note[1]), round=note[2],
                                      position=len(self.delivered))
                self.delivered.append((note[1], now))
            elif note[0] == "finalize":
                self.sim.trace.append(now, "finalize", self.node, round=note[1])
        for a in acts:
            if isinstance(a, RestartTimer):
                self.timer_gen += 1
                self.sim.set_timer(self.node, self.timer_gen, now + a.delay, now)
            elif isinstance(a, InputRb):
                self.work.append(("subinput", InstanceKey(Kind.RB, a.round), a.proposal))
            elif isinstance(a, InputWba):
                self.work.append(("subinput", InstanceKey(Kind.WBA, a.round), a.bit))
            elif isinstance(a, Wake):
                self.sim.set_wake(self.node, a.at)
        if self.held and self.engine is not None:
            window = self.engine.current + self.sim.cfg.options.spam_window
            ready = [m for m in self.held if m.instance.round <= window]
            if ready:
                self.held = [m for m in self.held if m.instance.round > window]
                for m in ready:
                    self.work.append(("recv", m))


class AdversaryApi:
    """What a faulty node's driver may do at one dispatch."""

    def __init__(self, sim: "Simulation", node: int, now: int):
        self.sim = sim
        self.node = node
        self.now = now
        self.params = sim.cfg.params
        self.schedule = sim.cfg.schedule

    def leader_of(self, rnd: int) -> int:
        return self.schedule.leader_of(rnd)

    def send(self, to: int, msg) -> None:
        enc = _encode_msg(msg)
        self.sim.trace.append(self.now, "send", self.node, **enc, to=[to])
        self.sim.schedule_direct(to, msg, enc, self.now)

    def send_all(self, msg) -> None:
        enc = _encode_msg(msg)
        self.sim.trace.append(self.now, "send", self.node, **enc, to="all")
        self.sim.broadcast(self.node, msg, enc, self.now)

    def gossip(self, msg, targets=None) -> None:
        enc = _encode_msg(msg)
        self.sim.trace.append(self.now, "gossip", self.node, **enc)
        self.sim.gossip_from(self.node, msg, enc, self.now, targets)

    def signed(self, instance: InstanceKey, kind: str, payload) -> SignedMsg:
        # Drivers can only produce signatures for their own identity.
        return make_signed(self.sim.scheme, self.node, instance, kind, payload)


class Driver:
    def __init__(self, node: int):
        self.node = node

    def on_start(self, api: AdversaryApi) -> None: ...
    def on_deliver(self, api: AdversaryApi, msg) -> None: ...
    def on_script(self, api: AdversaryApi, entry: dict) -> None: ...


class SilentLeaderDriver(Driver):
    pass


class EquivocatingProposerDriver(Driver):
    def __init__(self, spec: EquivocatingProposerSpec, backend: str):
        super().__init__(spec.node)
        self.spec = spec
        self.backend = backend
        self.done: set[int] = set()

    def on_start(self, api: AdversaryApi) -> None:
        period = len(api.schedule.order) if api.schedule.order else api.params.n
        for r in range(period):
            if api.leader_of(r) == self.node:
                self._equivocate(api, r)
                break

    def on_deliver(self, api: AdversaryApi, msg) -> None:
        r = msg.instance.round
        if api.leader_of(r) == self.node and r not in self.done:
            self._equivocate(api, r)

    def _equivocate(self, api: AdversaryApi, r: int) -> None:
        self.done.add(r)
        key = InstanceKey(Kind.RB, r)
        for part in self.spec.partitions:
            if part.parent == "prev":
                parent = r - 1 if r > 0 else None
            elif part.parent in ("bot", None):
                parent = None
            else:
                parent = int(part.parent)
            prop = Proposal(part.value, parent)
            if self.backend == "bracha":
                for to in part.nodes:
                    api.send(to, BrachaMsg(key, bracha_mod.INITIAL, prop, self.node))
            else:
                api.gossip(api.signed(key, gossip_mod.INITIAL, prop),
                           targets=tuple(part.nodes))


class FlipVoterDriver(Driver):
    def __init__(self, spec: FlipVoterSpec, backend: str):
        super().__init__(spec.node)
        self.spec = spec
        self.backend = backend
        self.done: set[int] = set()

    def on_deliver(self, api: AdversaryApi, msg) -> None:
        key = msg.instance
        if key.kind is not Kind.WBA or key.round in self.done:
            return
        self.done.add(key.round)
        bit = self.spec.bits.get(key.round, key.round % 2)
        if self.backend == "bracha":
            if self.spec.equivocate:
                for to in range(api.params.n):
                    b = bit if to % 2 == 0 else 1 - bit
                    api.send(to, BrachaMsg(key, bracha_mod.VOTE, b, self.node))
                    api.send(to, BrachaMsg(key, bracha_mod.READY, b, self.node))
            else:
                api.send_all(BrachaMsg(key, bracha_mod.VOTE, bit, self.node))
                api.send_all(BrachaMsg(key, bracha_mod.READY, bit, self.node))
        else:
            api.gossip(api.signed(key, gossip_mod.VOTE, bit))
            if self.spec.equivocate:
                api.gossip(api.signed(key, gossip_mod.VOTE, 1 - bit))


class ScriptedDriver(Driver):
    """Entries: {"time": T, "op": "send"|"gossip", "to": "all"|[ids],
    "instance": "rb/1", "mkind": "initial", "payload": ..., "forge_signer": id?}.

    RB payloads are {"value": v, "parent": p} dicts; WBA payloads are bits.
    """

    def __init__(self, spec: ScriptedSpec, backend: str):
        super().__init__(spec.node)
        self.spec = spec
        self.backend = backend

    def on_script(self, api: AdversaryApi, entry: dict) -> None:
        key = parse_key(entry["instance"])
        payload = entry.get("payload")
        if key.kind is Kind.RB and isinstance(payload, dict):
            payload = Proposal(payload["value"], payload.get("parent"),
                               payload.get("ts"))
        if self.backend == "bracha":
            msg = BrachaMsg(key, entry["mkind"], payload, self.node)
        else:
            forged = entry.get("forge_signer")
            if forged is not None:
                honest = api.signed(key, entry["mkind"], payload)
                msg = SignedMsg(key, entry["mkind"], payload, forged, honest.sig)
            else:
                msg = api.signed(key, entry["mkind"], payload)
        to = entry.get("to", "all")
        if self.backend == "gossip":
            targets = None if to == "all" else tuple(to)
            api.gossip(msg, targets)
        elif to == "all":
            api.send_all(msg)
        else:
            for t in to:
                api.send(t, msg)


def _build_driver(spec, backend: str) -> Driver | None:
    """Several specs may target one node; their drivers stack, which is how
    a single faulty validator combines behaviours."""
    if isinstance(spec, SilentLeaderSpec):
        return SilentLeaderDriver(spec.node)
    if isinstance(spec, EquivocatingProposerSpec):
        return EquivocatingProposerDriver(spec, backend)
    if isinstance(spec, FlipVoterSpec):
        return FlipVoterDriver(spec, backend)
    if isinstance(spec, ScriptedSpec):
        return ScriptedDriver(spec, backend)
    if isinstance(spec, CrashSpec):
        return None                          # crash keeps the correct stack
    raise ConfigError(f"unknown adversary spec {spec!r}")


class Simulation:
    def __init__(self, cfg: RunConfig):
        if cfg.backend not in ("bracha", "gossip"):
            raise ConfigError(f"unknown backend {cfg.backend!r}")
        if cfg.delay_law not in ("fixed", "uniform"):
            raise ConfigError(f"unknown delay law {cfg.delay_law!r}")
        if cfg.pre_gst_max_delay < 1:
            raise ConfigError("pre_gst_max_delay must be >= 1 (and finite)")
        if cfg.mode not in ("engine", "raw"):
            raise ConfigError(f"unknown mode {cfg.mode!r}")
        self.cfg = cfg
        self.total = cfg.params.n + cfg.extra_nodes
        faulty = [a.node for a in cfg.adversaries]
        if len(set(faulty)) > cfg.params.f:
            raise ConfigError(
                f"{len(set(faulty))} faulty nodes exceeds the bound f={cfg.params.f}")
        for node in faulty:
            if not 0 <= node < self.total:
                raise ConfigError(f"adversary node {node} out of range")
        for t, node, _ in cfg.injections:
            if not 0 <= node < self.total:
                raise ConfigError(f"injection targets unknown node {node}")
            if t > cfg.horizon:
                raise ConfigError(f"injection at {t} lies beyond the horizon")

        self.rng = random.Random(cfg.seed)
        self.trace = Trace(cfg.seed, meta={
            "backend": cfg.backend, "mode": cfg.mode, "n": cfg.params.n,
            "f": cfg.params.f, "gst": cfg.params.gst, "horizon": cfg.horizon})
        self.queue: list = []
        self.seq = 0
        self.scheme = SignatureScheme(cfg.seed, cfg.params.n)
        # gossip message -> per node: None, the earliest arrival still in
        # the queue, or _HAS once the node has the message
        self.gossip_state: dict = {}

        self.crash_at: dict[int, int] = {}
        self.crashed_noted: set[int] = set()
        self.drivers: dict[int, list[Driver]] = {}
        for spec in cfg.adversaries:
            if isinstance(spec, CrashSpec):
                self.crash_at[spec.node] = spec.at
            else:
                drv = _build_driver(spec, cfg.backend)
                self.drivers.setdefault(spec.node, []).append(drv)

        preseed: dict[int, list] = {}
        for t, node, value in cfg.injections:
            if t <= 0 and node not in self.drivers:
                preseed.setdefault(node, []).append(value)

        self.runtimes: dict[int, _NodeRuntime] = {}
        for node in range(self.total):
            if node in self.drivers:
                continue
            self.runtimes[node] = _NodeRuntime(self, node,
                                               tuple(preseed.get(node, ())))

    # -- scheduling primitives -------------------------------------------------

    def _push(self, time: int, handler, args: tuple) -> None:
        """Queue `handler(time, *args)`.  Entries are (time, seq, handler,
        args); seq is unique, so the heap never compares handlers."""
        heappush(self.queue, (time, self.seq, handler, args))
        self.seq += 1

    def _delivery_times(self, now: int, post_bound: int, copies: int) -> list:
        """Arrival times of `copies` copies sent at `now`, drawn in order.
        Under "uniform" each delay is 1 plus a value below its bound, drawn
        by rejection on `getrandbits(bound.bit_length())`.  That is the loop
        of CPython's `Random._randbelow_with_getrandbits`, down to the 1-bit
        draws for a bound of 1, so it yields the values and consumes the
        stream of `randint(1, bound)`, without that call's three frames."""
        cfg = self.cfg
        gst = cfg.params.gst
        pre = cfg.pre_gst_max_delay
        if cfg.delay_law == "fixed":
            return [min(now + pre, max(now, gst) + post_bound)] * copies
        getrandbits = self.rng.getrandbits
        k_pre, k_post = pre.bit_length(), post_bound.bit_length()
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

    def schedule_direct(self, to: int, msg, enc: dict, now: int) -> None:
        self._send_direct(msg, enc, now, (to,))

    def broadcast(self, sender: int, msg, enc: dict, now: int) -> None:
        self._send_direct(msg, enc, now,
                          [to for to in range(self.total) if to != sender])

    def _send_direct(self, msg, enc: dict, now: int, recipients) -> None:
        """Queue one copy of `msg` per recipient; `enc` is its trace fields,
        encoded once at the send."""
        times = self._delivery_times(now, self.cfg.params.delta, len(recipients))
        queue, seq, deliver = self.queue, self.seq, self._on_deliver
        for to, at in zip(recipients, times):
            heappush(queue, (at, seq, deliver, (to, msg, enc)))
            seq += 1
        self.seq = seq

    def _send_gossip(self, sender: int, msg, enc: dict, state: list, now: int,
                     targets) -> None:
        """Schedule a gossip copy of `msg` to each target but `sender`, with
        one delay draw per copy in target order.  A node acts only on the
        first copy of a message it receives, so a copy that would arrive
        after the node has it, or no earlier than a copy already queued, is
        not queued at all.  The delay is drawn either way, which keeps the
        RNG stream and thus the trace unchanged.  `state` is the message's
        slot list in `gossip_state`; each queued copy carries it."""
        recipients = [to for to in targets if to != sender]
        times = self._delivery_times(now, self.cfg.gossip_relay_latency,
                                     len(recipients))
        queue, seq, deliver = self.queue, self.seq, self._on_gossip_deliver
        for to, at in zip(recipients, times):
            known = state[to]
            if known is not None and known <= at:
                continue
            state[to] = at
            heappush(queue, (at, seq, deliver, (to, msg, enc, state)))
            seq += 1
        self.seq = seq

    def gossip_from(self, origin: int, msg, enc: dict, now: int,
                    targets=None) -> None:
        state = self.gossip_state.get(msg)
        if state is None:
            state = self.gossip_state[msg] = [None] * self.total
        state[origin] = _HAS
        self._send_gossip(origin, msg, enc, state, now,
                          range(self.total) if targets is None else targets)

    def set_timer(self, node: int, gen: int, fire_at: int, now: int) -> None:
        self.trace.append(now, "timer_set", node, generation=gen, fire_at=fire_at)
        self._push(fire_at, self._on_timer, (node, gen))

    def set_wake(self, node: int, at: int) -> None:
        self._push(at, self._on_wake, (node,))

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
        cfg = self.cfg
        for node in range(self.total):
            self._push(0, self._on_start, (node,))
        for t, node, value in cfg.injections:
            if t > 0 or node in self.drivers:
                self._push(max(t, 0), self._on_inject, (node, value))
        for t, node, key_text, value in cfg.raw_inputs:
            self._push(t, self._on_raw_input, (node, parse_key(key_text), value))
        for node, drivers in self.drivers.items():
            for drv in drivers:
                if isinstance(drv, ScriptedDriver):
                    for entry in drv.spec.script:
                        self._push(entry["time"], self._on_script, (node, entry))

        queue, horizon = self.queue, cfg.horizon
        while queue:
            now, _, handler, args = heappop(queue)
            if now > horizon:
                break
            handler(now, *args)
        return self.trace

    # -- event handlers, one per kind of queued event ----------------------------

    def _on_start(self, now: int, node: int) -> None:
        if node in self.drivers:
            api = AdversaryApi(self, node, now)
            for drv in self.drivers[node]:
                drv.on_start(api)
        elif not self._crashed(node, now):
            rt = self.runtimes[node]
            preseeded = list(rt.engine.inputs) if rt.engine else []
            for value in preseeded:
                self.trace.append(now, "inject", node, value=_encode_value(value))
            self.trace.append(now, "start", node)
            rt.on_start(now)

    def _on_deliver(self, now: int, to: int, msg, enc: dict) -> None:
        if to in self.drivers:
            self.trace.append(now, "deliver", to, **enc)
            api = AdversaryApi(self, to, now)
            for drv in self.drivers[to]:
                drv.on_deliver(api, msg)
        elif not self._crashed(to, now):
            self.trace.append(now, "deliver", to, **enc)
            self.runtimes[to].on_deliver(now, msg)

    def _on_gossip_deliver(self, now: int, to: int, msg, enc: dict,
                           state: list) -> None:
        if state[to] == _HAS:
            return
        state[to] = _HAS
        self.trace.append(now, "deliver", to, **enc, gossip=1)
        if to in self.drivers:
            api = AdversaryApi(self, to, now)
            for drv in self.drivers[to]:
                drv.on_deliver(api, msg)
        elif not self._crashed(to, now):
            # first receipt at a live correct node: relay to everyone
            self._send_gossip(to, msg, enc, state, now, range(self.total))
            self.runtimes[to].on_deliver(now, msg)

    def _on_timer(self, now: int, node: int, gen: int) -> None:
        if node in self.runtimes and not self._crashed(node, now):
            self.runtimes[node].on_timer(now, gen)

    def _on_inject(self, now: int, node: int, value) -> None:
        self.trace.append(now, "inject", node, value=_encode_value(value))
        if node in self.runtimes and not self._crashed(node, now):
            self.runtimes[node].on_inject(now, value)

    def _on_wake(self, now: int, node: int) -> None:
        if node in self.runtimes and not self._crashed(node, now):
            self.runtimes[node].on_wake(now)

    def _on_raw_input(self, now: int, node: int, key: InstanceKey, value) -> None:
        if node in self.runtimes and not self._crashed(node, now):
            self.runtimes[node].on_raw_input(now, key, value)

    def _on_script(self, now: int, node: int, entry: dict) -> None:
        api = AdversaryApi(self, node, now)
        for drv in self.drivers[node]:
            if isinstance(drv, ScriptedDriver):
                drv.on_script(api, entry)


def run(cfg: RunConfig) -> Trace:
    return Simulation(cfg).run()
