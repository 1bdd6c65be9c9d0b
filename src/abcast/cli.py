"""Command line front end.

Subcommands:
  run     execute a scenario, print the check report, optionally save files
  check   re-evaluate a scenario's checks against a previously saved trace
  fuzz    sweep a seed range over one scenario and aggregate pass/fail
  replay  re-run a seed deterministically and dump events up to a sequence
          number, for chasing a reported violation pointer

Exit codes: 0 all checks passed (inconclusive counts as non-failure),
1 at least one check failed, 2 the scenario or arguments were malformed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import FAIL, run_checks
from .core import ConfigError
from .scenario import load_scenario
from .simnet import run as run_sim, trace_meta
from .trace import Trace

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _print_reports(reports) -> bool:
    failed = False
    for rep in reports:
        print(rep.line())
        if rep.status == FAIL:
            failed = True
            if rep.violation:
                print(f"             first violation: seed={rep.violation['seed']} "
                      f"event_index={rep.violation['event_index']}")
    return failed


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    trace, reports, cfg = scenario.execute(args.seed)
    print(f"run seed={cfg.seed} gst={cfg.params.gst} horizon={cfg.horizon} "
          f"backend={cfg.backend} events={len(trace.events)}")
    failed = _print_reports(reports)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace.to_jsonl())
        print(f"trace written to {args.trace_out}")
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.report_out}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        with open(args.trace) as fh:
            trace = Trace.from_jsonl(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read trace {args.trace}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad trace file {args.trace}: {exc}") from exc
    cfg = scenario.config_for(trace.seed)
    for field, want in trace_meta(cfg).items():
        if field in trace.meta and trace.meta[field] != want:
            raise ConfigError(f"trace {args.trace} is from another run: its {field} is "
                              f"{trace.meta[field]!r}, the scenario's is {want!r}")
    reports = run_checks(trace, scenario.context_for(cfg), scenario.checks)
    failed = _print_reports(reports)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        try:
            single = int(text)
        except ValueError:
            raise ConfigError(f"bad seed range {text!r}, expected A..B") from None
        return range(single, single + 1)
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise ConfigError(f"bad seed range {text!r}, expected A..B") from None


def _cmd_fuzz(args) -> int:
    scenario = load_scenario(args.scenario)
    seeds = _parse_seed_range(args.seeds)
    if len(seeds) == 0:
        raise ConfigError(f"empty seed range {args.seeds!r}")
    failures = []
    inconclusive = 0
    for seed in seeds:
        _, reports, _ = scenario.execute(seed)
        for rep in reports:
            if rep.status == FAIL:
                failures.append((seed, rep))
            elif rep.status == "inconclusive":
                inconclusive += 1
    for seed, rep in failures:
        print(f"seed {seed}: {rep.line()}")
        if rep.violation:
            print(f"  replay with: abcast replay {args.scenario} --seed {seed} "
                  f"--until {rep.violation['event_index']}")
    total = len(seeds)
    print(f"{total - len({s for s, _ in failures})}/{total} seeds passed"
          + (f" ({inconclusive} inconclusive reports)" if inconclusive else ""))
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _cmd_replay(args) -> int:
    scenario = load_scenario(args.scenario)
    cfg = scenario.config_for(args.seed)
    trace = run_sim(cfg)
    limit = args.until if args.until is not None else len(trace.events)
    for ev in trace.events:
        if ev.seq > limit:
            break
        print(ev.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcast",
        description="simulate and check a total-order broadcast protocol")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and check it")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--trace-out", help="write the trace as JSON lines")
    p_run.add_argument("--report-out", help="write the check report as JSON")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="re-check a saved trace")
    p_check.add_argument("trace")
    p_check.add_argument("scenario")
    p_check.set_defaults(fn=_cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="sweep seeds over a scenario")
    p_fuzz.add_argument("scenario")
    p_fuzz.add_argument("--seeds", required=True, metavar="A..B",
                        help="inclusive seed range, e.g. 0..499")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_replay = sub.add_parser("replay", help="re-run a seed and dump events")
    p_replay.add_argument("scenario")
    p_replay.add_argument("--seed", type=int, required=True)
    p_replay.add_argument("--until", type=int, default=None,
                          help="stop after this event sequence number")
    p_replay.set_defaults(fn=_cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:     # OSError: an output path
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
