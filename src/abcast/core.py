"""Protocol parameters, quorum arithmetic, and leader schedules.

Validators are the first ``n`` node ids (0..n-1); any further nodes are
observers that deliver outputs but never vote or propose.  All thresholds
assume ``n > 3f``: quorums are sets of more than ``(n + f) / 2`` validators,
which makes any two quorums intersect in more than ``f`` validators, i.e. in
at least one correct one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class ConfigError(ValueError):
    """A configuration violates the fault bound or another setup rule."""


class InternalInvariantError(AssertionError):
    """A write-once or determinism guarantee was broken; always a bug."""


def quorum_min_size(n: int, f: int) -> int:
    """Smallest integer strictly greater than (n + f) / 2.

    Raises ConfigError unless n > 3f, since below that bound quorum
    intersection no longer guarantees a common correct validator.
    """
    if n <= 3 * f:
        raise ConfigError(f"need n > 3f, got n={n} f={f}")
    return (n + f) // 2 + 1


@dataclass(frozen=True)
class Params:
    """Static run parameters.

    n          validator count
    f          tolerated faulty validators
    delta      post-GST delivery bound for a direct message hop (ticks)
    gst        global stabilization time (ticks)
    sub_delay  assumed bound on a subprotocol instance's output delay
               after GST; the engine's round timer runs for twice this
    """

    n: int
    f: int
    delta: int
    gst: int
    sub_delay: int

    def __post_init__(self) -> None:
        if self.n <= 3 * self.f:
            raise ConfigError(f"need n > 3f, got n={self.n} f={self.f}")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.sub_delay <= 0:
            raise ConfigError("sub_delay must be positive")
        if self.gst < 0:
            raise ConfigError("gst must be >= 0")

    @cached_property
    def quorum(self) -> int:
        """Computed once per Params; every quorum test reads it."""
        return quorum_min_size(self.n, self.f)


def is_quorum(size: int, params: Params) -> bool:
    """True iff `size` distinct validators form a quorum."""
    return size >= params.quorum


def is_validator(node: int, params: Params) -> bool:
    return 0 <= node < params.n


@dataclass(frozen=True)
class LeaderSchedule:
    """Maps rounds to proposers.

    With no explicit order this is round-robin over the n validators.  An
    explicit order repeats cyclically and must mention every validator at
    least once so that each keeps leading infinitely often.
    """

    n: int
    order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.order is not None:
            if not self.order:
                raise ConfigError("explicit leader order must be non-empty")
            bad = [v for v in self.order if not 0 <= v < self.n]
            if bad:
                raise ConfigError(f"leader order mentions non-validators: {bad}")
            missing = set(range(self.n)) - set(self.order)
            if missing:
                raise ConfigError(f"leader order never schedules validators {sorted(missing)}")

    def leader_of(self, rnd: int) -> int:
        if rnd < 0:
            raise ValueError("rounds are non-negative")
        if self.order is None:
            return rnd % self.n
        return self.order[rnd % len(self.order)]
