"""Trace checkers: machine-checkable statements about finished runs.

Every checker is a plain ``(trace, ctx)`` function: it takes the trace plus
a CheckContext (parameters, who was faulty, the horizon), states its own
rule and bound, and returns a CheckReport.  Reports are three-valued:
a checker whose precondition is not met (say, a liveness horizon that is
too short to promise anything) reports "inconclusive" rather than guessing.
Failures carry the seed and the sequence number of the first offending
event so the run can be replayed to the exact spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Params
from .trace import compact_encoder

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


def _missed_deadline(name: str, detail: str, trace, ctx: CheckContext, node: int,
                     deadline: int, **extra) -> CheckReport:
    """The FAIL for a node that missed a deadline, pointed at the last event
    at or before it."""
    last = trace.last_event_at(deadline)
    return CheckReport(name, FAIL, detail,
                       {"seed": ctx.seed, "event_index": last.seq if last else 0},
                       measured={"node": node, **extra, "deadline": deadline})


def _by_instance(trace, kind: str, nodes) -> dict[str, dict[int, object]]:
    """Instance text -> node -> that node's `kind` event (``sub_input`` or
    ``sub_output``) for each node in `nodes`; a node's later event replaces
    its earlier one."""
    view: dict[str, dict[int, object]] = {}
    for ev in trace.iter_kind(kind):
        if ev.node in nodes:
            view.setdefault(ev.data["instance"], {})[ev.node] = ev
    return view


def _rounds(view: dict, sub: str) -> dict[int, dict[int, object]]:
    """The `sub` ("rb" or "wba") instances of a `_by_instance` view, by round."""
    prefix = sub + "/"
    return {int(inst[len(prefix):]): by_node for inst, by_node in view.items()
            if inst.startswith(prefix)}


_canonical = compact_encoder()


def _value_text(value) -> str:
    """A value as canonical JSON, so that a decoded dict equals the same dict
    with its keys in another order; `repr` for a value JSON cannot encode."""
    try:
        return _canonical(value)
    except (TypeError, ValueError):
        return repr(value)


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


def check_liveness(trace, ctx: CheckContext) -> CheckReport:
    """Values injected into correct validators reach every correct node
    within two leader cycles of n rounds of 3*Delta, plus 2*Delta of
    delivery, after max(injection, gst): a grace of 6*n*Delta + 2*Delta."""
    p = ctx.params
    grace = 6 * p.n * p.sub_delay + 2 * p.sub_delay
    delivered: dict[int, set] = {n: set() for n in ctx.correct_nodes}
    for ev in trace.iter_kind("ab_output"):
        if ev.node in delivered:
            delivered[ev.node].add(ev.data["value"])
    obligations = [(t, node, v) for t, node, v in ctx.injections
                   if node in ctx.correct_nodes and node < p.n]
    gated = 0
    missing = []
    for t, node, value in obligations:
        deadline = max(t, p.gst) + grace
        if deadline > ctx.horizon:
            gated += 1
            continue
        for n in ctx.correct_nodes:
            if value not in delivered[n]:
                missing.append((value, node, n, deadline))
    if missing:
        value, src, n, deadline = missing[0]
        return _missed_deadline(
            "liveness", f"value {value!r} injected at node {src} never delivered at "
            f"node {n} (+{len(missing) - 1} more)", trace, ctx, n, deadline)
    if gated == len(obligations) and obligations:
        return CheckReport("liveness", INCONCLUSIVE,
                           f"horizon {ctx.horizon} too short to oblige any of the "
                           f"{len(obligations)} injections (need gst+{grace})")
    detail = f"{len(obligations) - gated}/{len(obligations)} injections obliged"
    return CheckReport("liveness", PASS, detail,
                       measured={"obliged": len(obligations) - gated})


def check_wba_contract(trace, ctx: CheckContext) -> CheckReport:
    """Agreement, validity, and weak termination per binary instance, the
    last within 2*Delta of max(the quorum's last input, gst)."""
    p = ctx.params
    need = p.quorum - p.f           # "more than q - f" as a minimum count
    outputs = _rounds(_by_instance(trace, "sub_output", set(ctx.correct_nodes)), "wba")
    inputs = _rounds(_by_instance(trace, "sub_input", set(ctx.correct_validators)), "wba")
    for rnd, by_node in sorted(outputs.items()):
        bits = {ev.data["value"] for ev in by_node.values()}
        if len(bits) > 1:
            ev = max(by_node.values(), key=lambda e: e.seq)
            return CheckReport("wba_contract", FAIL,
                               f"round {rnd}: correct nodes output both bits",
                               _violation(ctx, ev))
        bit = bits.pop()
        backers = [ev for ev in inputs.get(rnd, {}).values() if ev.data["value"] == bit]
        if len(backers) < need:
            return CheckReport(
                "wba_contract", FAIL,
                f"round {rnd}: output {bit} backed by {len(backers)} correct "
                f"inputs, needs {need}", _violation(ctx, next(iter(by_node.values()))))
    # weak termination: a full quorum of correct same-bit inputs forces output
    for rnd, by_node in sorted(inputs.items()):
        for bit in (0, 1):
            times = sorted(ev.time for ev in by_node.values() if ev.data["value"] == bit)
            if len(times) < p.quorum:
                continue
            t_q = times[p.quorum - 1]
            deadline = max(t_q, p.gst) + 2 * p.sub_delay
            if deadline > ctx.horizon:
                continue
            for n in ctx.correct_nodes:
                got = outputs.get(rnd, {}).get(n)
                if got is None or got.data["value"] != bit:
                    return _missed_deadline(
                        "wba_contract", f"round {rnd}: {p.quorum} correct inputs of "
                        f"{bit} by t={t_q} but node {n} never output it",
                        trace, ctx, n, deadline)
    return CheckReport("wba_contract", PASS, measured={"instances": len(outputs)})


def check_rb_contract(trace, ctx: CheckContext) -> CheckReport:
    """Agreement plus weak termination, within max(bound, Delta) of
    max(input, gst), and the post-GST delay bound."""
    p = ctx.params
    bound = ctx.bounds["rb"]
    grace = max(bound, p.sub_delay)
    correct = set(ctx.correct_nodes)
    outputs = _rounds(_by_instance(trace, "sub_output", correct), "rb")
    for rnd, by_node in sorted(outputs.items()):
        if len({_value_text(ev.data["value"]) for ev in by_node.values()}) > 1:
            ev = max(by_node.values(), key=lambda e: e.seq)
            return CheckReport("rb_contract", FAIL,
                               f"round {rnd}: correct nodes output different values",
                               _violation(ctx, ev))
    terminated = 0
    for ev in trace.iter_kind("sub_input"):
        kind, _, rnd = ev.data["instance"].partition("/")
        if kind != "rb" or ev.node not in correct:
            continue
        rnd, t = int(rnd), ev.time
        deadline = max(t, p.gst) + grace
        if deadline > ctx.horizon:
            continue
        terminated += 1
        for n in ctx.correct_nodes:
            got = outputs.get(rnd, {}).get(n)
            if got is None:
                return _missed_deadline(
                    "rb_contract", f"round {rnd}: correct proposer input at t={t} but "
                    f"node {n} never output", trace, ctx, n, deadline)
            if t >= p.gst and ctx.delay_law == "fixed" and got.time > t + bound:
                return CheckReport(
                    "rb_contract", FAIL,
                    f"round {rnd}: node {n} output at {got.time}, later than "
                    f"input {t} + {bound}", _violation(ctx, got))
    return CheckReport("rb_contract", PASS,
                       measured={"instances": len(outputs), "terminated": terminated})


def check_round_advance(trace, ctx: CheckContext) -> CheckReport:
    """After GST every node's round counter reaches r by gst + 3r*Delta,
    checked for every round r whose deadline is within the horizon."""
    p = ctx.params
    bound = ctx.bounds["rb"]
    if p.sub_delay < bound:
        return CheckReport("round_advance", INCONCLUSIVE,
                           f"configured subprotocol delay {p.sub_delay} is below the "
                           f"backend bound {bound}; the claim does not apply")
    last = (ctx.horizon - p.gst) // (3 * p.sub_delay)
    if last < 1:
        return CheckReport("round_advance", INCONCLUSIVE,
                           "horizon leaves no round deadline to check")
    for r in range(1, last + 1):
        deadline = p.gst + 3 * r * p.sub_delay
        for n in ctx.correct_nodes:
            got = trace.current_round_at(n, deadline)
            if got < r:
                return _missed_deadline(
                    "round_advance", f"node {n} at round {got} < {r} at time {deadline}",
                    trace, ctx, n, deadline, round=r)
    return CheckReport("round_advance", PASS, f"rounds 1..{last} on schedule",
                       measured={"rounds_checked": last})


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
    inputs = _by_instance(trace, "sub_input", ctx.correct_nodes)
    if not inputs:
        return CheckReport("subprotocol_delay", INCONCLUSIVE, "no inputs to time")
    outputs = _by_instance(trace, "sub_output", ctx.correct_nodes)
    measured = {}
    for instance, by_node in sorted(inputs.items()):
        base = max(ev.time for ev in by_node.values())
        if base < p.gst:
            return CheckReport("subprotocol_delay", INCONCLUSIVE,
                               f"{instance}: input before gst")
        kind = instance.partition("/")[0]
        if kind == "wba" and len({ev.data["value"] for ev in by_node.values()}) > 1:
            continue                     # exactness needs unanimity
        expect = base + offsets[kind]
        for ev in outputs.get(instance, {}).values():
            if ev.time != expect:
                return CheckReport(
                    "subprotocol_delay", FAIL,
                    f"{instance}: node {ev.node} output at {ev.time}, expected {expect}",
                    _violation(ctx, ev))
        measured[instance] = offsets[kind]
    return CheckReport("subprotocol_delay", PASS, measured=measured)


def check_spread(trace, ctx: CheckContext) -> CheckReport:
    """A subprotocol output observed at one correct node reaches all of them
    within Delta of max(the first output, gst)."""
    p = ctx.params
    outputs = _by_instance(trace, "sub_output", ctx.correct_nodes)
    for instance, by_node in sorted(outputs.items()):
        earliest = min(ev.time for ev in by_node.values())
        deadline = max(earliest, p.gst) + p.sub_delay
        if deadline > ctx.horizon:
            continue
        for n in ctx.correct_nodes:
            if n not in by_node:
                return _missed_deadline(
                    "spread", f"{instance}: output seen at t={earliest} never reached "
                    f"node {n}", trace, ctx, n, deadline)
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


def run_checks(trace, ctx: CheckContext, names) -> list[CheckReport]:
    """The named checks' reports, in order; an unknown name is a KeyError."""
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check {unknown[0]!r}")
    return [CHECKS[name](trace, ctx) for name in names]
