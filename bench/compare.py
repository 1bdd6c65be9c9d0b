"""Compare two result files written by bench/run.py.

    python3 bench/run.py compare BEFORE.jsonl AFTER.jsonl

For every workload and metric it prints each side's median and quartiles
and the change of the medians.  For traced runs it names the layer whose
self time grew most, and it reports seeds whose trace fingerprints differ.
Files from different machine classes (nproc, Python, system, machine) are
refused: their numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _group(records):
    """(workload, trace) -> metric -> values, and (workload, seed) -> fingerprint."""
    groups: dict = {}
    prints: dict = {}
    for rec in records:
        metrics = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, value in rec["all_metrics"].items():
            if value is not None:        # commit ticks do not exist on explore
                metrics.setdefault(name, []).append(value)
        prints.setdefault((rec["workload"], rec["seed"], rec["tiny"]),
                          set()).add(rec["fingerprint"])
    return groups, prints


def _self_time(name: str) -> bool:
    return name.endswith("_s") and not name.startswith("bench.") and "." in name


def compare(a: list[dict], b: list[dict], out=sys.stdout) -> int:
    from bench.run import machine_class

    classes = {machine_class(r["env"]) for r in a + b}
    if len(classes) > 1:
        print(f"not comparable: results come from {len(classes)} machine classes "
              f"{sorted(classes)}", file=out)
        return 1
    ga, pa = _group(a)
    gb, pb = _group(b)
    for key in sorted(set(ga) & set(gb)):
        workload, traced = key
        ma, mb = ga[key], gb[key]
        runs_a = len(next(iter(ma.values()), []))
        runs_b = len(next(iter(mb.values()), []))
        print(f"{workload} ({'traced' if traced else 'untraced'}, "
              f"{runs_a} vs {runs_b} runs)  median [q1, q3]", file=out)
        growth = []
        for name in ma:
            if name not in mb:
                continue
            qa, qb = quartiles(ma[name]), quartiles(mb[name])
            change = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else float("nan")
            print(f"  {name:28s} {qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  ->  "
                  f"{qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  {change:+7.1f}%",
                  file=out)
            if traced and _self_time(name):
                growth.append((qb[1] - qa[1], name))
        if growth:
            delta, name = max(growth)
            if delta > 0:
                print(f"  slowest layer: {name} grew most, by {delta:.4g} s per body",
                      file=out)
            else:
                print("  slowest layer: no layer's self time grew", file=out)
    differ = sorted(k for k in set(pa) & set(pb) if pa[k] != pb[k])
    for workload, seed, tiny in differ:
        print(f"fingerprint differs: {workload} seed={seed}"
              f"{' tiny' if tiny else ''}", file=out)
    same = len(set(pa) & set(pb)) - len(differ)
    print(f"fingerprints: {same} identical, {len(differ)} differ", file=out)
    return 0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/run.py compare BEFORE.jsonl AFTER.jsonl",
              file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))
