"""Total-order broadcast built from per-round reliable broadcast and
weakly-terminating binary agreement, with a deterministic simulator and
trace checkers for its safety, liveness, and timing claims."""

from .checks import CheckContext, CheckReport, run_checks
from .core import (ConfigError, InternalInvariantError, LeaderSchedule,
                   Params, is_quorum, quorum_min_size)
from .engine import Engine, Proposal
from .scenario import Scenario, load_scenario, scenario_from_dict
from .simnet import (CrashSpec, EquivocatingProposerSpec, FlipVoterSpec,
                     PartitionValue, RunConfig, ScriptedSpec, SilentLeaderSpec,
                     Simulation, run)
from .subproto import InstanceKey, Kind, parse_key
from .trace import Trace, TraceEvent

__version__ = "0.1.0"

__all__ = [
    "CheckContext", "CheckReport", "ConfigError", "CrashSpec", "Engine",
    "EquivocatingProposerSpec", "FlipVoterSpec",
    "InstanceKey", "InternalInvariantError", "Kind", "LeaderSchedule",
    "Params", "PartitionValue", "Proposal", "RunConfig", "Scenario",
    "ScriptedSpec", "SilentLeaderSpec", "Simulation", "Trace", "TraceEvent",
    "is_quorum", "load_scenario", "parse_key", "quorum_min_size", "run",
    "run_checks", "scenario_from_dict",
]
