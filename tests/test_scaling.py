"""The round engine's work per trace event must not grow with the run.

Timings would make this flaky, so it counts calls into the engine's view
(the InstanceTable methods the engine reads) per trace event instead.  An
engine that rescans every earlier round on each event makes that ratio
grow with the horizon.
"""

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
