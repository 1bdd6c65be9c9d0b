"""Machine-speed probe.

The reference machine is a shared 2-core VM whose CPU speed drifts by
±25% over seconds to minutes.  Process CPU time drifts with wall time, so
no clock hides it.  A run therefore also times a fixed reference between
operations: a small event simulation written here, with a heap, an RNG,
frozen dataclasses, per-sender tally sets and JSON, the operations abcast
spends its time in.  Every timing of the run is scaled by REFERENCE_S over
the median reference time.  The reference uses no abcast code, so a change
to the program moves the scaled figures as it moves the raw ones.  It runs
in a helper process, so the heap the workload leaves behind (the explorer
frees a hundred megabytes of sets) does not change its speed.  The run
pins itself and the helper to one CPU: the VM's two CPUs slow down
independently, and a reference timed on the other CPU does not track the
workload at all.

Measured on the reference machine over ten 8-second windows, the gossip
run's median time spread by 14% (IQR over median) and its ratio to this
reference by 5%.
"""

from __future__ import annotations

import heapq
import json
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

# Median reference time on the reference machine (2-core VM, Python
# 3.11.7) in a fast phase; scaled timings read as seconds there.
REFERENCE_S = 0.024


@dataclass(frozen=True)
class _Msg:
    kind: str
    rnd: int
    sender: int


class _Node:
    def __init__(self, node: int):
        self.node = node
        self.tally: dict = {}
        self.out: list = []

    def step(self, msg) -> list:
        if not isinstance(msg, _Msg):
            return []
        senders = self.tally.setdefault((msg.kind, msg.rnd), set())
        if msg.sender in senders:
            return []
        senders.add(msg.sender)
        if len(senders) == 3:
            self.out.append(json.dumps({"kind": msg.kind, "round": msg.rnd},
                                       sort_keys=True))
            return [_Msg("ready", msg.rnd, self.node)]
        return []


def reference_work(rounds: int = 200) -> int:
    """Echo/ready flooding among four nodes under random delays."""
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(4)]
    heap: list = []
    seq = 0
    for rnd in range(rounds):
        for sender in range(4):
            for to in range(4):
                heapq.heappush(heap, (rnd + rng.randint(0, 50), seq, to,
                                      _Msg("echo", rnd, sender)))
                seq += 1
    while heap:
        t, _, to, msg = heapq.heappop(heap)
        for out in nodes[to].step(msg):
            for other in range(4):
                heapq.heappush(heap, (t + rng.randint(1, 3), seq, other, out))
                seq += 1
    return sum(len(n.out) for n in nodes)


class SpeedProbe:
    """Samples the reference about twice per second of the run: a call
    takes one sample for every half second since the previous call, at
    most eight, and a forced call takes four.  Use it as a context manager,
    which stops the helper process."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = perf_counter()
        self._helper = subprocess.Popen([sys.executable, __file__], text=True,
                                        stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=60)
        self._helper.stdout.close()

    def sample(self, force: bool = False) -> None:
        due = 4 if force else min(8, int((perf_counter() - self._last) * 2))
        if not due:
            return
        self._helper.stdin.write(f"{due}\n")
        self._helper.stdin.flush()
        self.samples.extend(float(t) for t in self._helper.stdout.readline().split())
        self._last = perf_counter()

    @property
    def factor(self) -> float:
        """Multiply a raw time by this, divide a raw rate by it."""
        return REFERENCE_S / statistics.median(self.samples)


def serve() -> None:
    """Helper process: for each line `n` on stdin, time the reference n
    times and answer with the n durations on one line."""
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = perf_counter()
            reference_work()
            times.append(perf_counter() - t0)
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    serve()
