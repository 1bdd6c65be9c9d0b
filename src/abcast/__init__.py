"""Total-order broadcast built from per-round reliable broadcast and
weakly-terminating binary agreement, with a deterministic simulator and
trace checkers for its safety, liveness, and timing claims.

Each public name is loaded from its home module on first use (PEP 562), so
``import abcast.explore`` does not load the simulator."""

from importlib import import_module

__version__ = "0.1.0"

# Each public name's home module.
_HOME = {
    **dict.fromkeys(("CheckContext", "CheckReport", "run_checks"), "checks"),
    **dict.fromkeys(("ConfigError", "InternalInvariantError", "LeaderSchedule",
                     "Params", "is_quorum", "quorum_min_size"), "core"),
    **dict.fromkeys(("Engine", "Proposal"), "engine"),
    **dict.fromkeys(("Scenario", "load_scenario", "scenario_from_dict"), "scenario"),
    **dict.fromkeys(("CrashSpec", "EquivocatingProposerSpec", "FlipVoterSpec",
                     "PartitionValue", "RunConfig", "ScriptedSpec",
                     "SilentLeaderSpec", "Simulation", "run"), "simnet"),
    **dict.fromkeys(("InstanceKey", "Kind", "parse_key"), "subproto"),
    **dict.fromkeys(("Trace", "TraceEvent"), "trace"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, imported from its home module and kept here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
