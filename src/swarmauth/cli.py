"""Command-line front end.

Three subcommands: ``run`` executes one configured scenario and prints
its timing report, ``sweep`` writes the threshold / drone-count
comparison data as CSV, and ``attack`` runs the adversary harness and
reports whether the attack was thwarted.

Exit codes: 0 on success (scenario accepted, sweep written, attack
thwarted), 2 when a protocol run or attack check fails, 1 for usage and
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

from .simnet import (
    ConfigError,
    LatencyModel,
    ScenarioConfig,
    crossover_report,
    baseline_total_us,
    inject_adversary,
    parse_config,
    run_scenario,
    time_bulk_admission,
    time_group_auth,
)

__all__ = ["main"]

ATTACK_MODES = ("replay", "eavesdrop", "mitm")


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def _load_config(path: str, **changes) -> ScenarioConfig | None:
    """The config file at ``path`` with ``changes`` applied, or None after
    reporting why it cannot be read or is invalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return replace(parse_config(fh.read()), **changes)
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
    except ConfigError as exc:
        _fail(f"config error: {exc}")
    return None


def cmd_run(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return 1
    if args.seed is not None:
        config.seed = args.seed

    report, _transcript = run_scenario(config)
    print(report.render())
    if config.scenario == "bulk":
        group_us, nr5g_us = time_bulk_admission(report.n_drones,
                                                config.threshold, config.latency)
        print(f"comparison nr5g_total_ms={nr5g_us / 1000.0:.3f} "
              f"group_total_ms={group_us / 1000.0:.3f}")
    return 0 if report.outcome == "accepted" else 2


def _sweep_rows(variable: str, points: list[int], config: ScenarioConfig):
    model = config.latency
    rows = []
    if variable == "threshold":
        base_ms = baseline_total_us(model) / 1000.0
        for t in points:
            rows.append(("inclusion", "nr-5g", t, 1, base_ms))
            rows.append(("inclusion", "group-auth", t, 1,
                         time_group_auth(t, model) / 1000.0))
    else:
        t = config.threshold
        for n in points:
            group_us, nr5g_us = time_bulk_admission(n, t, model)
            rows.append(("bulk", "nr-5g", t, n, nr5g_us / 1000.0))
            rows.append(("bulk", "group-auth", t, n, group_us / 1000.0))
    return rows


def cmd_sweep(args) -> int:
    if args.variable not in ("threshold", "n_drones"):
        return _fail(f"sweep variable must be threshold or n_drones, "
                     f"got {args.variable!r}")
    if args.step < 1:
        return _fail(f"sweep step must be >= 1, got {args.step}")
    if args.from_ > args.to:
        return _fail(f"empty sweep range: {args.from_}..{args.to}")
    points = list(range(args.from_, args.to + 1, args.step))
    if args.variable == "threshold" and points[0] < 2:
        return _fail(f"threshold sweep must start at 2 or above, got {points[0]}")
    if args.variable == "n_drones" and points[0] < 0:
        return _fail(f"n_drones sweep must start at 0 or above, got {points[0]}")

    if args.config is not None:
        config = _load_config(args.config)
        if config is None:
            return 1
    else:
        scenario = "inclusion" if args.variable == "threshold" else "bulk"
        config = ScenarioConfig(scenario=scenario, latency=LatencyModel())

    rows = _sweep_rows(args.variable, points, config)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("scenario", "method", "t", "n_drones", "time_ms"))
            for scenario, method, t, n, ms in rows:
                writer.writerow((scenario, method, t, n, f"{ms:.3f}"))
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")

    print(f"wrote {len(rows)} rows to {args.out}")
    if args.variable == "threshold":
        report = crossover_report(config.latency)
        print(f"crossover_threshold={report.crossover_threshold}")
        print(report.summary())
    return 0


def cmd_attack(args) -> int:
    if args.mode not in ATTACK_MODES:
        return _fail(f"usage: attack --mode must be one of {ATTACK_MODES}, "
                     f"got {args.mode!r}")
    if args.config is not None:
        configs = [_load_config(args.config, adversary=args.mode)]
        if configs[0] is None:
            return 1
    else:
        # default harness: hit both protocol scenarios
        configs = [ScenarioConfig(scenario="inclusion", adversary=args.mode),
                   ScenarioConfig(scenario="unification", adversary=args.mode)]
    if args.seed is not None:
        for config in configs:
            config.seed = args.seed

    all_thwarted = True
    for config in configs:
        result = inject_adversary(config)
        status = "thwarted" if result.thwarted else "NOT THWARTED"
        print(f"{config.scenario} {args.mode}: {status} ({result.detail})")
        all_thwarted = all_thwarted and result.thwarted
    return 0 if all_thwarted else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmauth",
        description="Threshold group authentication scenarios and timing sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("--config", required=True, help="scenario config path")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="write comparison data as CSV")
    sweep_p.add_argument("--variable", required=True,
                         help="sweep variable: threshold or n_drones")
    sweep_p.add_argument("--from", dest="from_", type=int, required=True,
                         help="inclusive lower bound")
    sweep_p.add_argument("--to", type=int, required=True,
                         help="inclusive upper bound")
    sweep_p.add_argument("--step", type=int, default=1)
    sweep_p.add_argument("--out", required=True, help="CSV output path")
    sweep_p.add_argument("--config", default=None,
                         help="optional config for fixed parameters")
    sweep_p.set_defaults(func=cmd_sweep)

    attack_p = sub.add_parser("attack", help="run an adversary scenario")
    attack_p.add_argument("--mode", required=True,
                          help="replay, eavesdrop, or mitm")
    attack_p.add_argument("--config", default=None,
                          help="optional scenario config (default: inclusion "
                               "and unification)")
    attack_p.add_argument("--seed", type=int, default=None)
    attack_p.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
