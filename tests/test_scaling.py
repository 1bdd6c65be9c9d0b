"""Work per trace event must not grow with the run, nor with the checks.

Timings would make this flaky, so it counts work instead.  The engine's
view calls (the InstanceTable methods the engine reads) per trace event: an
engine that rescans every earlier round on each event makes that ratio
grow with the horizon.  And the walks the checkers make over the event
list: one index build per trace, not one walk per view.
"""

from abcast.checks import CheckContext, run_checks
from abcast.core import LeaderSchedule, Params
from abcast.simnet import RunConfig, run
from abcast.subproto import InstanceTable

VIEW_METHODS = ("rb_output", "wba_output", "input_made", "rb_rounds_with_output")


def _view_calls_per_event(monkeypatch, horizon: int) -> float:
    calls = [0]
    for name in VIEW_METHODS:
        method = getattr(InstanceTable, name)

        def counted(*args, _method=method, **kwargs):
            calls[0] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(InstanceTable, name, counted)
    cfg = RunConfig(
        params=Params(n=4, f=1, delta=2, gst=0, sub_delay=6),
        schedule=LeaderSchedule(4), backend="bracha", seed=3, horizon=horizon,
        delay_law="uniform",
        injections=tuple((t, i % 4, f"v{i}")
                         for i, t in enumerate(range(0, horizon, 10))))
    trace = run(cfg)
    monkeypatch.undo()
    assert any(True for _ in trace.iter_kind("ab_output")), "nothing delivered"
    return calls[0] / len(trace.events)


def test_view_calls_per_event_flat_in_horizon(monkeypatch):
    """A quarter of the horizon against all of it: at most 1.5x per event."""
    short = _view_calls_per_event(monkeypatch, 500)
    long = _view_calls_per_event(monkeypatch, 2000)
    assert short > 0
    assert long <= 1.5 * short, (short, long)


class _CountingList(list):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


STREAM_CHECKS = ("safety", "liveness", "wba_contract", "rb_contract",
                 "round_advance", "spread", "engine_invariants")


def test_stream_checks_walk_the_events_once():
    params = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
    injections = tuple((t, i % 4, f"v{i}") for i, t in enumerate(range(0, 400, 10)))
    trace = run(RunConfig(params=params, schedule=LeaderSchedule(4), seed=3,
                          horizon=400, delay_law="uniform", injections=injections))
    trace.events = _CountingList(trace.events)
    ctx = CheckContext(params=params, horizon=400, correct_nodes=(0, 1, 2, 3),
                       injections=injections)
    reports = run_checks(trace, ctx, STREAM_CHECKS)
    assert [r.status for r in reports] == ["pass"] * len(STREAM_CHECKS)
    assert trace.events.walks == 1
