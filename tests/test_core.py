import itertools
from dataclasses import replace

import pytest

from abcast.core import (
    ConfigError,
    LeaderSchedule,
    Params,
    is_quorum,
    is_validator,
    quorum_min_size,
)


def test_quorum_min_size_values():
    assert quorum_min_size(4, 1) == 3
    assert quorum_min_size(5, 1) == 4
    assert quorum_min_size(7, 2) == 5
    assert quorum_min_size(10, 3) == 7
    assert quorum_min_size(4, 0) == 3


def test_quorum_min_size_rejects_bad_fault_bound():
    with pytest.raises(ConfigError):
        quorum_min_size(3, 1)
    with pytest.raises(ConfigError):
        quorum_min_size(6, 2)
    with pytest.raises(ConfigError):
        quorum_min_size(0, 0)


def test_quorum_overlap_exceeds_f_exhaustive():
    # Any two quorums share more than f members, so the shared part
    # contains at least one correct node.  Checked by enumeration for
    # every admissible (n, f) with n <= 7 and every pair of quorums.
    for n in range(1, 8):
        for f in range(0, n):
            if n <= 3 * f:
                continue
            q = quorum_min_size(n, f)
            nodes = range(n)
            for a in itertools.combinations(nodes, q):
                for b in itertools.combinations(nodes, q):
                    overlap = set(a) & set(b)
                    assert len(overlap) > f
                    assert len(overlap) - f >= 1


def test_quorum_minus_f_meets_amplification_threshold():
    # q - f >= f + 1 for every admissible configuration: a quorum of
    # reports minus the faulty ones still convinces any correct node.
    for n in range(1, 40):
        for f in range(0, n):
            if n <= 3 * f:
                continue
            assert quorum_min_size(n, f) - f >= f + 1


def test_params_validation():
    p = Params(n=4, f=1, delta=2, gst=10, sub_delay=6)
    assert p.quorum == 3
    # the quorum is cached per object; a replaced copy computes its own
    assert p.quorum == 3 and replace(p, n=7, f=2).quorum == 5
    with pytest.raises(ConfigError):
        Params(n=3, f=1, delta=2, gst=10, sub_delay=6)
    with pytest.raises(ConfigError):
        Params(n=4, f=1, delta=0, gst=10, sub_delay=6)
    with pytest.raises(ConfigError):
        Params(n=4, f=1, delta=2, gst=-1, sub_delay=6)
    with pytest.raises(ConfigError):
        Params(n=4, f=1, delta=2, gst=10, sub_delay=0)


def test_is_quorum_and_is_validator():
    p = Params(n=4, f=1, delta=2, gst=0, sub_delay=6)
    assert not is_quorum(2, p)
    assert is_quorum(3, p)
    assert is_quorum(4, p)
    assert is_validator(0, p)
    assert is_validator(3, p)
    assert not is_validator(4, p)
    assert not is_validator(-1, p)


def test_round_robin_schedule():
    sched = LeaderSchedule(4)
    assert [sched.leader_of(r) for r in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    with pytest.raises(ValueError):
        sched.leader_of(-1)


def test_explicit_schedule_order():
    sched = LeaderSchedule(4, order=(2, 0, 3, 1))
    assert [sched.leader_of(r) for r in range(6)] == [2, 0, 3, 1, 2, 0]


def test_schedule_rejects_incomplete_order():
    with pytest.raises(ConfigError):
        LeaderSchedule(4, order=(0, 1, 2))
    with pytest.raises(ConfigError):
        LeaderSchedule(4, order=(0, 1, 2, 2))
    with pytest.raises(ConfigError):
        LeaderSchedule(4, order=(0, 1, 2, 4))
