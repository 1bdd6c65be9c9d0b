"""The benchmark's four workloads.

Each workload is closed-loop: one process, one operation at a time.
`setup(seed, tiny)` imports abcast, parses the scenario and builds the run
configuration; `body(state)` is one repetition of the timed work and yields
one `Op` per operation, so the caller can count and fingerprint each trace
between operations, outside the timed region.  Bodies of one run repeat the
same inputs, which makes their wall times comparable and lets the caller
check that every repetition reproduces the first one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

FUZZ_SEEDS = 100           # per backend per body: 10 of 200 lie above p95
LONG_HORIZON = 1500
GOSSIP_HORIZON = 800
INJECT_EVERY = 10          # ticks between injected values
STREAM_CHECKS = ("safety", "liveness", "wba_contract", "rb_contract",
                 "round_advance", "spread", "engine_invariants")


@dataclass
class Op:
    name: str
    total_s: float                 # everything the caller waits for
    sim_s: float = 0.0             # Simulation.run alone
    check_s: float = 0.0           # checking: encode, decode, checkers, searches
    trace: object = None
    cfg: object = None
    correct_nodes: tuple = ()
    text: str | None = None        # the JSONL the operation itself encoded
    states: int = 0                # explorer only
    error: str | None = None       # why the operation failed; None if it passed


def _failures(reports) -> str | None:
    bad = [r.line() for r in reports if r.status == "fail"]
    return "; ".join(bad) if bad else None


class FuzzByzantineN4:
    """The `abcast fuzz` loop: bundled byzantine_n4.json on both backends."""

    name = "fuzz_byzantine_n4"
    # The scenario checks no liveness, and the gossip backend does leave a
    # value undelivered on a few seeds (proto.missing_values counts them).
    missing_fails = False

    def setup(self, seed: int, tiny: bool):
        from abcast import scenario
        doc = json.loads((ROOT / "scenarios" / "byzantine_n4.json").read_text())
        k = 2 if tiny else FUZZ_SEEDS
        seeds = range(seed * k, seed * k + k)
        scenarios = []
        for backend in ("bracha", "gossip"):
            doc["backend"] = {"kind": backend}
            sc = scenario.scenario_from_dict(doc)
            sc.config_for(seeds[0])
            scenarios.append(sc)
        return scenarios, seeds

    def body(self, state):
        from abcast.checks import run_checks
        from abcast.simnet import run
        scenarios, seeds = state
        for sc in scenarios:
            for seed in seeds:
                name = f"{sc.backend}/{seed}"
                t0 = perf_counter()
                try:
                    cfg = sc.config_for(seed)
                    t1 = perf_counter()
                    trace = run(cfg)
                    t2 = perf_counter()
                    reports = run_checks(trace, sc.context_for(cfg), sc.checks)
                    t3 = perf_counter()
                except Exception as exc:     # one failed seed must not end the sweep
                    yield Op(name, perf_counter() - t0, error=repr(exc))
                    continue
                yield Op(name, t3 - t0, t2 - t1, t3 - t2, trace, cfg,
                         sc.correct_nodes(), error=_failures(reports))


def stream_doc(n: int, f: int, backend: str, horizon: int, seed: int,
               adversaries=()) -> dict:
    """One value every INJECT_EVERY ticks, round-robin over the validators."""
    return {
        "version": 1,
        "params": {"n": n, "f": f, "delta": 2, "gst": 0, "Delta": 6},
        "backend": backend,
        "adversaries": list(adversaries),
        "injections": [{"time": t, "node": i % n, "value": f"s{seed}-v{i}"}
                       for i, t in enumerate(range(0, horizon, INJECT_EVERY))],
        "sim": {"seed": seed, "horizon": horizon, "pre_gst_max_delay": 5,
                "delay_law": "uniform", "gossip_relay_latency": 1},
        "checks": list(STREAM_CHECKS),
    }


class _StreamRun:
    """One long run, then the `run --trace-out` / `check` path on its trace."""

    missing_fails = True

    def doc(self, seed: int, tiny: bool) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, tiny: bool):
        from abcast import scenario
        sc = scenario.scenario_from_dict(self.doc(seed, tiny))
        cfg = sc.config_for()
        return sc, cfg, sc.context_for(cfg)

    def body(self, state):
        from abcast.checks import run_checks
        from abcast.simnet import run
        from abcast.trace import Trace
        sc, cfg, ctx = state
        t0 = perf_counter()
        try:
            trace = run(cfg)
            t1 = perf_counter()
            text = trace.to_jsonl()
            decoded = Trace.from_jsonl(text)
            reports = run_checks(decoded, ctx, sc.checks)
            t2 = perf_counter()
        except Exception as exc:
            yield Op(self.name, perf_counter() - t0, error=repr(exc))
            return
        yield Op(self.name, t2 - t0, t1 - t0, t2 - t1, trace, cfg,
                 sc.correct_nodes(), text, error=_failures(reports))


class LongRunN4(_StreamRun):
    """Bracha, n=4, all correct: the engine's rescans make it quadratic."""

    name = "long_run_n4"

    def doc(self, seed: int, tiny: bool) -> dict:
        return stream_doc(4, 1, "bracha", 300 if tiny else LONG_HORIZON, seed)


class GossipN10(_StreamRun):
    """Gossip, n=10, one validator crashed at t=0: relay fan-out and
    timer-skipped rounds."""

    name = "gossip_n10"

    def doc(self, seed: int, tiny: bool) -> dict:
        return stream_doc(10, 3, "gossip", 120 if tiny else GOSSIP_HORIZON, seed,
                          [{"kind": "crash", "node": 9, "at": 0}])


# Pinned reachable-state counts: a search that reports another count fails.
_WBA9 = [(kind, bit, rcpt) for kind, bit in (("vote", 0), ("vote", 1), ("ready", 1))
         for rcpt in range(3)]          # the default budget minus ready/0
_WBA_TINY = [("vote", 0, 0), ("ready", 1, 1)]
SEARCHES = {
    False: (("rb", "explore_rb", None, None, 159_264),
            ("wba(1,1,1)", "explore_wba", (1, 1, 1), _WBA9, 982_016),
            ("wba(0,1,1)", "explore_wba", (0, 1, 1), _WBA9, 403_904)),
    True: (("rb", "explore_rb", None,
            [("initial", 0, 0), ("initial", 1, 1), ("ready", 0, 2)], 50),
           ("wba(1,1,1)", "explore_wba", (1, 1, 1), _WBA_TINY, 2380),
           ("wba(0,1,1)", "explore_wba", (0, 1, 1), _WBA_TINY, 256)),
}


class ExploreSmall:
    """The exhaustive searches of explore.py.  Their inputs are pinned, so
    the seed selects nothing here."""

    name = "explore_small"
    missing_fails = False

    def setup(self, seed: int, tiny: bool):
        from abcast import explore
        from abcast.core import Params
        return explore, Params(n=4, f=1, delta=2, gst=0, sub_delay=6), SEARCHES[tiny]

    def body(self, state):
        explore, params, searches = state
        for name, fn, inputs, budget, pinned in searches:
            search = getattr(explore, fn)
            args = (params,) if inputs is None else (inputs, params)
            t0 = perf_counter()
            try:
                res = search(*args, byz_budget=budget)
            except Exception as exc:
                yield Op(name, perf_counter() - t0, error=repr(exc))
                continue
            dt = perf_counter() - t0
            error = None
            if not res.ok:
                error = f"violation {res.violation}"
            elif res.states != pinned:
                error = f"{res.states} states, pinned {pinned}"
            yield Op(name, dt, check_s=dt, states=res.states, error=error)


WORKLOADS = {w.name: w for w in (FuzzByzantineN4(), LongRunN4(), GossipN10(),
                                 ExploreSmall())}
