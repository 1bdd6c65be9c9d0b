"""Trace checkers: machine-checkable statements about finished runs.

Every checker takes the trace plus a CheckContext (parameters, who was
faulty, the horizon) and returns a CheckReport.  Reports are three-valued:
a checker whose precondition is not met (say, a liveness horizon that is
too short to promise anything) reports "inconclusive" rather than guessing.
Failures carry the seed and the sequence number of the first offending
event so the run can be replayed to the exact spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Params

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckContext:
    params: Params
    horizon: int
    correct_nodes: tuple
    injections: tuple = ()
    backend: str = "bracha"
    delay_law: str = "fixed"
    gossip_relay_latency: int = 1
    seed: int = 0

    @property
    def correct_validators(self) -> list[int]:
        return [v for v in self.correct_nodes if v < self.params.n]

    @property
    def bounds(self) -> dict[str, int]:
        """Post-GST completion bounds in ticks by instance kind: RB 3*delta
        and WBA 2*delta on bracha, 2 and 1 relay times on gossip."""
        if self.backend == "bracha":
            return {"rb": 3 * self.params.delta, "wba": 2 * self.params.delta}
        g = self.gossip_relay_latency
        return {"rb": 2 * g, "wba": g}


@dataclass
class CheckReport:
    name: str
    status: str
    detail: str = ""
    violation: dict | None = None
    measured: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def line(self) -> str:
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{self.status.upper():12s} {self.name}{tail}"

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail,
                "violation": self.violation, "measured": self.measured}


def _violation(ctx: CheckContext, event) -> dict:
    return {"seed": ctx.seed, "event_index": event.seq}


def _missed_deadline(trace, ctx: CheckContext, deadline: int) -> dict:
    """Point a missed-deadline failure at the last event at or before it."""
    last = trace.last_event_at(deadline)
    return {"seed": ctx.seed, "event_index": last.seq if last else 0}


def check_safety(trace, ctx: CheckContext) -> CheckReport:
    """No two correct nodes ever disagree at any delivered position."""
    first_at: dict[int, tuple] = {}
    count = 0
    for ev in trace.iter_kind("ab_output"):
        if ev.node not in ctx.correct_nodes:
            continue
        count += 1
        pos, value = ev.data["position"], ev.data["value"]
        if pos in first_at:
            other_value, other_ev = first_at[pos]
            if other_value != value:
                return CheckReport(
                    "safety", FAIL,
                    f"position {pos}: node {ev.node} delivered {value!r} but "
                    f"node {other_ev.node} delivered {other_value!r}",
                    _violation(ctx, ev))
        else:
            first_at[pos] = (value, ev)
    return CheckReport("safety", PASS, measured={"deliveries": count})


def check_liveness(trace, ctx: CheckContext, rotations: int = 2) -> CheckReport:
    """Values injected into correct validators reach every correct node."""
    p = ctx.params
    slack = 3 * rotations * p.n * p.sub_delay + 2 * p.sub_delay
    delivered: dict[int, set] = {n: set() for n in ctx.correct_nodes}
    for ev in trace.iter_kind("ab_output"):
        if ev.node in delivered:
            delivered[ev.node].add(ev.data["value"])
    obligations = [(t, node, v) for t, node, v in ctx.injections
                   if node in ctx.correct_nodes and node < p.n]
    gated = 0
    missing = []
    for t, node, value in obligations:
        deadline = max(t, p.gst) + slack
        if deadline > ctx.horizon:
            gated += 1
            continue
        for n in ctx.correct_nodes:
            if value not in delivered[n]:
                missing.append((value, node, n, deadline))
    if missing:
        value, src, n, deadline = missing[0]
        return CheckReport(
            "liveness", FAIL,
            f"value {value!r} injected at node {src} never delivered at node {n} "
            f"(+{len(missing) - 1} more)",
            _missed_deadline(trace, ctx, deadline),
            measured={"node": n, "deadline": deadline})
    if gated == len(obligations) and obligations:
        return CheckReport("liveness", INCONCLUSIVE,
                           f"horizon {ctx.horizon} too short to oblige any of the "
                           f"{len(obligations)} injections (need gst+{slack})")
    detail = f"{len(obligations) - gated}/{len(obligations)} injections obliged"
    return CheckReport("liveness", PASS, detail,
                       measured={"obliged": len(obligations) - gated})


def check_wba_contract(trace, ctx: CheckContext, slack: int | None = None) -> CheckReport:
    """Agreement, validity, and weak termination per binary instance."""
    p = ctx.params
    if slack is None:
        slack = 2 * p.sub_delay
    need = p.quorum - p.f           # "more than q - f" as a minimum count
    correct = set(ctx.correct_nodes)
    validators = set(ctx.correct_validators)
    outputs: dict[int, dict[int, tuple]] = {}
    for ev in trace.iter_kind("sub_output"):
        kind, _, rnd = ev.data["instance"].partition("/")
        if kind == "wba" and ev.node in correct:
            outputs.setdefault(int(rnd), {})[ev.node] = (ev.data["value"], ev)
    inputs: dict[int, dict[int, tuple]] = {}
    for ev in trace.iter_kind("sub_input"):
        kind, _, rnd = ev.data["instance"].partition("/")
        if kind == "wba" and ev.node in validators:
            inputs.setdefault(int(rnd), {})[ev.node] = (ev.data["value"], ev.time)
    checked = 0
    for rnd, by_node in sorted(outputs.items()):
        checked += 1
        bits = {bit for bit, _ in by_node.values()}
        if len(bits) > 1:
            ev = max((e for _, e in by_node.values()), key=lambda e: e.seq)
            return CheckReport("wba_contract", FAIL,
                               f"round {rnd}: correct nodes output both bits",
                               _violation(ctx, ev))
        bit = bits.pop()
        backers = [n for n, (b, _) in inputs.get(rnd, {}).items() if b == bit]
        if len(backers) < need:
            ev = next(e for _, e in by_node.values())
            return CheckReport(
                "wba_contract", FAIL,
                f"round {rnd}: output {bit} backed by {len(backers)} correct "
                f"inputs, needs {need}", _violation(ctx, ev))
    # weak termination: a full quorum of correct same-bit inputs forces output
    for rnd, by_node in sorted(inputs.items()):
        for bit in (0, 1):
            times = sorted(t for b, t in by_node.values() if b == bit)
            if len(times) < p.quorum:
                continue
            t_q = times[p.quorum - 1]
            deadline = max(t_q, p.gst) + slack
            if deadline > ctx.horizon:
                continue
            for n in ctx.correct_nodes:
                got = outputs.get(rnd, {}).get(n)
                if got is None or got[0] != bit:
                    return CheckReport(
                        "wba_contract", FAIL,
                        f"round {rnd}: {p.quorum} correct inputs of {bit} by "
                        f"t={t_q} but node {n} never output it",
                        _missed_deadline(trace, ctx, deadline),
                        measured={"node": n, "deadline": deadline})
    return CheckReport("wba_contract", PASS, measured={"instances": checked})


def check_rb_contract(trace, ctx: CheckContext, slack: int | None = None) -> CheckReport:
    """Agreement plus weak termination and the post-GST delay bound."""
    p = ctx.params
    bound = ctx.bounds["rb"]
    if slack is None:
        slack = max(bound, p.sub_delay)
    correct = set(ctx.correct_nodes)
    outputs: dict[int, dict[int, tuple]] = {}
    for ev in trace.iter_kind("sub_output"):
        kind, _, rnd = ev.data["instance"].partition("/")
        if kind == "rb" and ev.node in correct:
            outputs.setdefault(int(rnd), {})[ev.node] = (ev.data["value"], ev)
    for rnd, by_node in sorted(outputs.items()):
        values = {repr(v) for v, _ in by_node.values()}
        if len(values) > 1:
            ev = max((e for _, e in by_node.values()), key=lambda e: e.seq)
            return CheckReport("rb_contract", FAIL,
                               f"round {rnd}: correct nodes output different values",
                               _violation(ctx, ev))
    terminated = 0
    for ev in trace.iter_kind("sub_input"):
        kind, _, rnd = ev.data["instance"].partition("/")
        if kind != "rb" or ev.node not in correct:
            continue
        rnd, t = int(rnd), ev.time
        deadline = max(t, p.gst) + slack
        if deadline > ctx.horizon:
            continue
        terminated += 1
        for n in ctx.correct_nodes:
            got = outputs.get(rnd, {}).get(n)
            if got is None:
                return CheckReport(
                    "rb_contract", FAIL,
                    f"round {rnd}: correct proposer input at t={t} but node {n} "
                    f"never output", _missed_deadline(trace, ctx, deadline),
                    measured={"node": n, "deadline": deadline})
            if t >= p.gst and ctx.delay_law == "fixed" and got[1].time > t + bound:
                return CheckReport(
                    "rb_contract", FAIL,
                    f"round {rnd}: node {n} output at {got[1].time}, later than "
                    f"input {t} + {bound}", _violation(ctx, got[1]))
    return CheckReport("rb_contract", PASS,
                       measured={"instances": len(outputs), "terminated": terminated})


def check_round_advance(trace, ctx: CheckContext, max_round: int | None = None) -> CheckReport:
    """After GST every node's round counter reaches r by gst + 3r*Delta."""
    p = ctx.params
    bound = ctx.bounds["rb"]
    if p.sub_delay < bound:
        return CheckReport("round_advance", INCONCLUSIVE,
                           f"configured subprotocol delay {p.sub_delay} is below the "
                           f"backend bound {bound}; the claim does not apply")
    checked = 0
    r = 1
    while True:
        deadline = p.gst + 3 * r * p.sub_delay
        if deadline > ctx.horizon or (max_round is not None and r > max_round):
            break
        for n in ctx.correct_nodes:
            got = trace.current_round_at(n, deadline)
            if got < r:
                return CheckReport(
                    "round_advance", FAIL,
                    f"node {n} at round {got} < {r} at time {deadline}",
                    _missed_deadline(trace, ctx, deadline),
                    measured={"node": n, "round": r, "deadline": deadline})
        checked = r
        r += 1
    if checked == 0:
        return CheckReport("round_advance", INCONCLUSIVE,
                           "horizon leaves no round deadline to check")
    return CheckReport("round_advance", PASS, f"rounds 1..{checked} on schedule",
                       measured={"rounds_checked": checked})


def check_subprotocol_delay(trace, ctx: CheckContext) -> CheckReport:
    """Exact output offsets for cleanly driven instances, in ticks: each
    output lands at its input plus the backend's bound (`ctx.bounds`).
    Only meaningful for fixed-law runs whose inputs all land at or after
    GST.
    """
    p = ctx.params
    if ctx.delay_law != "fixed":
        return CheckReport("subprotocol_delay", INCONCLUSIVE,
                           "exact offsets only hold under the fixed delay law")
    offsets = ctx.bounds
    inputs: dict[str, list] = {}
    for ev in trace.iter_kind("sub_input"):
        if ev.node in ctx.correct_nodes:
            inputs.setdefault(ev.data["instance"], []).append(ev)
    if not inputs:
        return CheckReport("subprotocol_delay", INCONCLUSIVE, "no inputs to time")
    outputs: dict[str, list] = {}
    for ev in trace.iter_kind("sub_output"):
        if ev.node in ctx.correct_nodes:
            outputs.setdefault(ev.data.get("instance"), []).append(ev)
    measured = {}
    for instance, evs in sorted(inputs.items()):
        base = max(e.time for e in evs)
        if base < p.gst:
            return CheckReport("subprotocol_delay", INCONCLUSIVE,
                               f"{instance}: input before gst")
        kind = instance.partition("/")[0]
        if kind == "wba" and len({e.data["value"] for e in evs}) > 1:
            continue                     # exactness needs unanimity
        expect = base + offsets[kind]
        for ev in outputs.get(instance, ()):
            if ev.time != expect:
                return CheckReport(
                    "subprotocol_delay", FAIL,
                    f"{instance}: node {ev.node} output at {ev.time}, expected {expect}",
                    _violation(ctx, ev))
        measured[instance] = offsets[kind]
    return CheckReport("subprotocol_delay", PASS, measured=measured)


def check_spread(trace, ctx: CheckContext, slack: int | None = None) -> CheckReport:
    """A subprotocol output observed at one correct node reaches all of them."""
    p = ctx.params
    if slack is None:
        slack = p.sub_delay
    outputs: dict[str, dict[int, tuple]] = {}
    for ev in trace.iter_kind("sub_output"):
        if ev.node in ctx.correct_nodes:
            outputs.setdefault(ev.data["instance"], {})[ev.node] = (ev.data["value"], ev.time)
    for instance, by_node in sorted(outputs.items()):
        earliest = min(t for _, t in by_node.values())
        deadline = max(earliest, p.gst) + slack
        if deadline > ctx.horizon:
            continue
        for n in ctx.correct_nodes:
            if n not in by_node:
                return CheckReport(
                    "spread", FAIL,
                    f"{instance}: output seen at t={earliest} never reached node {n}",
                    _missed_deadline(trace, ctx, deadline),
                    measured={"node": n, "deadline": deadline})
    return CheckReport("spread", PASS, measured={"instances": len(outputs)})


def check_engine_invariants(trace, ctx: CheckContext) -> CheckReport:
    """Write-once outputs, monotone rounds, gap-free delivery positions."""
    seen_out: dict[tuple, tuple] = {}
    for ev in trace.iter_kind("sub_output"):
        key = (ev.node, ev.data["instance"])
        if key in seen_out and seen_out[key] != ev.data["value"]:
            return CheckReport("engine_invariants", FAIL,
                               f"{key} output twice with different values",
                               _violation(ctx, ev))
        seen_out[key] = ev.data["value"]
    last_advance: dict[int, int] = {}
    for ev in trace.iter_kind("advance"):
        if ev.node not in ctx.correct_nodes:
            continue
        if ev.data["round"] <= last_advance.get(ev.node, -1):
            return CheckReport("engine_invariants", FAIL,
                               f"node {ev.node} round counter went backwards",
                               _violation(ctx, ev))
        last_advance[ev.node] = ev.data["round"]
    state: dict[int, tuple[int, int]] = {}    # node -> (last position, last round)
    for ev in trace.iter_kind("ab_output"):
        if ev.node not in ctx.correct_nodes:
            continue
        pos, rnd = ev.data["position"], ev.data["round"]
        last_pos, last_rnd = state.get(ev.node, (-1, -1))
        if pos != last_pos + 1:
            return CheckReport("engine_invariants", FAIL,
                               f"node {ev.node} skipped delivery position",
                               _violation(ctx, ev))
        if rnd < last_rnd:
            return CheckReport("engine_invariants", FAIL,
                               f"node {ev.node} delivered rounds out of order",
                               _violation(ctx, ev))
        state[ev.node] = (pos, rnd)
    return CheckReport("engine_invariants", PASS)


CHECKS = {
    "safety": check_safety,
    "liveness": check_liveness,
    "wba_contract": check_wba_contract,
    "rb_contract": check_rb_contract,
    "round_advance": check_round_advance,
    "subprotocol_delay": check_subprotocol_delay,
    "spread": check_spread,
    "engine_invariants": check_engine_invariants,
}


def run_checks(trace, ctx: CheckContext, selected) -> list[CheckReport]:
    reports = []
    for entry in selected:
        if isinstance(entry, str):
            name, kwargs = entry, {}
        else:
            entry = dict(entry)
            name = entry.pop("name")
            kwargs = entry
        fn = CHECKS.get(name)
        if fn is None:
            raise KeyError(f"unknown check {name!r}")
        reports.append(fn(trace, ctx, **kwargs))
    return reports
