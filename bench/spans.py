"""Run-time spans around the public entry points of each abcast module.

The benchmark installs these wrappers for its traced run only; no source
file of the program changes.  A span records its name, start, end and
parent.  The first `SPAN_CAP` spans are kept in memory and written out at
the end; beyond that only the per-name aggregates grow, which keeps memory
bounded on long runs.  A layer's self time is its span time minus the time
its child spans cover, so the self times of all layers sum to the time of
the outermost spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.on = False
        self.stack: list[list] = []          # [name, child_s, span index]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list = []                # (name, start, end, parent index)
        self.handler_log: list[tuple[int, float]] = []   # (round, seconds)
        self.late_over_early: list[float] = []
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, tag=None, after=None):
        """Wrap `fn` in a span.  A call made while a span of the same name is
        open (verify calling sign) is folded into the outer span.  `tag(args)`
        is read at entry and logged with the duration; `after()` runs on exit."""
        stack, spans = self.stack, self.spans
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if not self.on or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            label = tag(args) if tag is not None else None
            idx = len(spans) if len(spans) < SPAN_CAP else -1
            parent = stack[-1][2] if stack else -1
            if idx >= 0:
                spans.append(None)
            frame = [name, 0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent)
                if label is not None:
                    self.handler_log.append((label, dur))
                if after is not None:
                    after()
        return wrapper

    def counter(self, name: str, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def off(self):
        """Suspend recording, for the benchmark's own bookkeeping."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def _close_run(self) -> None:
        """At the end of each Simulation.run: late-over-early handler cost."""
        log, self.handler_log = self.handler_log, []
        if not log:
            return
        top = max(r for r, _ in log)
        tenth = max(1, (top + 1) // 10)
        early = [d for r, d in log if r < tenth]
        late = [d for r, d in log if r > top - tenth]
        if early and late:
            self.late_over_early.append(
                (sum(late) / len(late)) / (sum(early) / len(early)))

    def install(self) -> None:
        from abcast import bracha, checks, engine, explore, gossip, scenario
        from abcast import simnet, subproto, trace

        p = self._patch
        p(simnet.Simulation, "run",
          self.span("simnet.run", simnet.Simulation.run, after=self._close_run))
        for attr in ("start", "on_timeout", "on_subproto_output"):
            p(engine.Engine, attr, self.span("engine.handler",
                                             getattr(engine.Engine, attr),
                                             tag=lambda args: args[0].current))
        for attr in ("rb_output", "wba_output", "input_made", "rb_rounds_with_output"):
            p(subproto.InstanceTable, attr,
              self.counter("subproto.view_calls", getattr(subproto.InstanceTable, attr)))
        for cls in (bracha.BrachaRb, bracha.BrachaWba):
            p(cls, "step", self.span("bracha.step", cls.step))
        for cls in (gossip.GossipRb, gossip.GossipWba):
            p(cls, "step", self.span("gossip.step", cls.step))
        for attr in ("sign", "verify"):
            p(gossip.SignatureScheme, attr,
              self.span("gossip.sign", getattr(gossip.SignatureScheme, attr)))
        p(trace.Trace, "append", self.span("trace.append", trace.Trace.append))
        p(trace.Trace, "to_jsonl", self.span("trace.encode", trace.Trace.to_jsonl))
        p(trace.Trace, "from_jsonl", classmethod(
            self.span("trace.decode", trace.Trace.__dict__["from_jsonl"].__func__)))
        for name, fn in list(checks.CHECKS.items()):
            p(checks.CHECKS, name, self.span(f"checks.{name}", fn))
        p(explore, "explore_rb", self.span("explore.rb", explore.explore_rb))
        p(explore, "explore_wba", self.span("explore.wba", explore.explore_wba))
        p(scenario, "scenario_from_dict",
          self.span("scenario.parse", scenario.scenario_from_dict))
        p(scenario.Scenario, "config_for",
          self.span("scenario.config", scenario.Scenario.config_for))
        self.on = True

    def uninstall(self) -> None:
        self.on = False
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, times in microseconds from the
        first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_us": round((t0 - base) * 1e6, 1),
                                     "end_us": round((t1 - base) * 1e6, 1)}) + "\n")
