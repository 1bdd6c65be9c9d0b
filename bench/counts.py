"""One counting path over a finished trace.

Every trace-derived number the benchmark reports comes from `count_trace`:
the commit latencies, the `proto.*` counters and the `simnet.*` counts.
It reads only the trace events plus the run's configuration, so the same
function works on a live trace and on one decoded from JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TraceCounts:
    events: int = 0
    deliveries: int = 0
    msgs: dict = field(default_factory=dict)     # "send/echo" -> count
    timer_fires: int = 0
    timer_stale: int = 0
    skipped_rounds: int = 0
    rounds: int = 0                  # highest round a correct node reached
    round_ticks: list = field(default_factory=list)   # propose -> finalize
    commit_ticks: list = field(default_factory=list)  # inject -> ab_output
    delivered_values: int = 0        # distinct values delivered at correct nodes
    missing: int = 0                 # obliged (value, correct node) pairs absent
    gossip_relays: int = 0           # copies scheduled by first-receipt relays
    gossip_first: int = 0            # first receipts, at any node

    @property
    def messages(self) -> int:
        return sum(self.msgs.values())


def liveness_slack(params) -> int:
    """Ticks after max(injection, gst) by which a value must be everywhere;
    the same obligation rule `check_liveness` applies with two rotations."""
    return 3 * 2 * params.n * params.sub_delay + 2 * params.sub_delay


def count_trace(trace, cfg, correct_nodes) -> TraceCounts:
    """Count one run's trace; `cfg` is the RunConfig that produced it."""
    from abcast.simnet import CrashSpec

    params = cfg.params
    correct = set(correct_nodes)
    total = params.n + cfg.extra_nodes
    crash_at = {a.node: a.at for a in cfg.adversaries if isinstance(a, CrashSpec)}
    driven = {a.node for a in cfg.adversaries} - set(crash_at)
    injected = {value: t for t, node, value in cfg.injections
                if node in correct and node < params.n}

    c = TraceCounts(events=len(trace.events))
    proposed: dict[int, int] = {}
    finalized: list[tuple[int, int]] = []
    skipped: set[int] = set()
    delivered: dict[int, set] = {node: set() for node in correct}
    for ev in trace.events:
        kind = ev.kind
        if kind == "deliver":
            c.deliveries += 1
            if "gossip" in ev.data:
                c.gossip_first += 1
                # a node running the correct stack relays its first receipt
                # to everyone else until it crashes
                at = crash_at.get(ev.node)
                if ev.node not in driven and (at is None or ev.time < at):
                    c.gossip_relays += total - 1
        elif kind in ("send", "gossip"):
            key = f"{kind}/{ev.data['mkind']}"
            c.msgs[key] = c.msgs.get(key, 0) + 1
        elif kind == "timer_fire":
            c.timer_fires += 1
        elif kind == "timer_stale":
            c.timer_stale += 1
        elif kind == "advance":
            if ev.node in correct:
                c.rounds = max(c.rounds, ev.data["round"])
        elif kind == "propose":
            proposed[ev.data["round"]] = ev.time
        elif kind == "finalize":
            if ev.node in correct:
                finalized.append((ev.data["round"], ev.time))
        elif kind == "sub_output":
            inst = ev.data["instance"]
            if ev.node in correct and inst.startswith("wba/") and ev.data["value"] == 0:
                skipped.add(int(inst[4:]))
        elif kind == "ab_output":
            if ev.node in correct:
                value = ev.data["value"]
                if isinstance(value, (dict, list)):
                    value = repr(value)     # JSON-decoded payloads are unhashable
                delivered[ev.node].add(value)
                if value in injected:
                    c.commit_ticks.append(ev.time - injected[value])
    c.skipped_rounds = len(skipped)
    c.round_ticks = [t - proposed[r] for r, t in finalized if r in proposed]
    c.delivered_values = len(set().union(*delivered.values())) if delivered else 0

    slack = liveness_slack(params)
    for value, t in injected.items():
        if max(t, params.gst) + slack > cfg.horizon:
            continue
        c.missing += sum(1 for node in correct if value not in delivered[node])
    return c
