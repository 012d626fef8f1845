"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list                      # show all experiment ids
    python -m repro list-scenarios            # show all scenario presets
    python -m repro run fig7                  # run one experiment (default scale)
    python -m repro run table2 --scale test   # faster, smaller configuration
    python -m repro run table1 --scenario cdn-heavy --scale test
    python -m repro run-all --scale test      # everything over one shared context
    python -m repro serve --scale tiny --days 3          # publish daily snapshots
    python -m repro query --scale tiny --address 2001:db8::1
    python -m repro query --scale tiny --prefix 2001:db8::/32
    python -m repro trace --scenario multi-vantage --scale tiny \
        --address 2001:3::1 --vantage 1      # routed AS path + router hops
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.exec import SHARD_KEYS, STORAGE_KINDS, ExecutionPolicy
from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.context import (
    DEFAULT_EXPERIMENT_CONFIG,
    TEST_EXPERIMENT_CONFIG,
    ExperimentConfig,
    ExperimentContext,
)
from repro.scenarios import SCALE_TIERS, build, get_scenario, iter_scenarios, scenario_names

_SCALES = {"default": DEFAULT_EXPERIMENT_CONFIG, "test": TEST_EXPERIMENT_CONFIG}


def _add_policy_options(parser: argparse.ArgumentParser) -> None:
    """The execution-policy flags, shared by every pipeline-running command."""
    parser.add_argument(
        "--reference",
        action="store_true",
        help="run the scalar reference engines instead of the fast ones",
    )
    parser.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="stream hot paths in chunks of this many rows (out-of-core tier)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan shards over this many worker processes (default: 1)",
    )
    parser.add_argument(
        "--storage",
        choices=sorted(STORAGE_KINDS),
        default="ram",
        help="chunk scratch storage: ram or memmap (default: ram)",
    )
    parser.add_argument(
        "--shard-by",
        choices=sorted(SHARD_KEYS),
        default="prefix",
        help="worker shard key: prefix-interval boundaries or raw rows",
    )


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(set(_SCALES) | set(SCALE_TIERS)),
        default="default",
        help=(
            "pipeline scale to use (the scenario-only tiers "
            f"{sorted(set(SCALE_TIERS) - set(_SCALES))} require --scenario)"
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default=None,
        help="run inside a named scenario preset (composed with --scale)",
    )
    _add_policy_options(parser)


def resolve_config(scale: str, scenario: str | None) -> ExperimentConfig:
    """The experiment configuration for a --scale / --scenario pair.

    Without a scenario the historical per-scale configurations are used (they
    pin their own seeds); with one, the preset is composed with the matching
    scale tier.  Tiers that exist only in the scenario layer (tiny, mega)
    need a scenario to compose with.
    """
    if scenario is not None:
        return get_scenario(scenario, scale=scale).experiment_config()
    config = _SCALES.get(scale)
    if config is None:
        raise ValueError(
            f"--scale {scale} is a scenario tier; pair it with --scenario "
            "(e.g. --scenario baseline)"
        )
    return config


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the serving-layer commands (serve, query)."""
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="baseline",
        help="scenario preset to serve (default: baseline)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_TIERS),
        default="test",
        help="scenario scale tier (default: test)",
    )
    _add_policy_options(parser)
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--day",
        type=int,
        default=None,
        help="first day to publish (default: the scenario's run-up horizon)",
    )


def _build_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """The execution policy described by the CLI policy flags."""
    return ExecutionPolicy(
        reference=args.reference,
        chunk_rows=args.chunk_rows,
        workers=args.workers,
        storage=args.storage,
        shard_by=args.shard_by,
    )


def _build_server(args: argparse.Namespace):
    """A server over the requested scenario, plus the first day to publish."""
    server = build(
        "server", args.scenario, scale=args.scale, seed=args.seed, policy=_build_policy(args)
    )
    first_day = args.day
    if first_day is None:
        first_day = get_scenario(args.scenario, scale=args.scale).experiment_config().runup_days
    return server, first_day


def _cmd_trace(args: argparse.Namespace) -> int:
    """Traceroute one address over the scenario's (possibly routed) topology."""
    from repro.netmodel.asgraph import REGIONS
    from repro.netmodel.internet import SimulatedInternet

    config = get_scenario(args.scenario, scale=args.scale).experiment_config()
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    internet = SimulatedInternet(config.internet_config())
    routing = internet.routing
    if routing.active:
        vantage = routing.resolve_vantage(args.vantage)
        vantage_asn = routing.vantage_asns[vantage]
        region = REGIONS[internet.asgraph.region_of(vantage_asn)]
        print(f"vantage {vantage}: AS{vantage_asn} ({region})")
        origin = internet.asn_of(args.address)
        if origin is not None:
            as_path = routing.path_of_asn(origin, args.day, args.vantage)
            rendered = " -> ".join(f"AS{asn}" for asn in as_path) or "(unreachable)"
            print(f"AS path (day {args.day}): {rendered}")
    else:
        print("flat topology (num_transit_ases = 0): synthetic backbone path")
    hops = internet.traceroute(args.address, day=args.day, vantage=args.vantage)
    if not hops:
        print("no responding hops")
        return 0
    for ttl, hop in enumerate(hops, start=1):
        print(f"{ttl:>3}  {hop.compressed}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Publish a run of daily snapshots, reporting each generation."""
    server, first_day = _build_server(args)
    for day in range(first_day, first_day + args.days):
        snapshot = server.publish_day(day)
        print(
            f"generation {snapshot.generation}: day {snapshot.day}, "
            f"{snapshot.num_addresses} addresses, "
            f"{snapshot.num_scan_targets} scan targets, "
            f"{snapshot.num_responsive()} responsive"
        )
    stats = server.stats()
    print(f"published generations: {server.published_generations}")
    print(f"queries served: {stats['queries_total']}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Publish one snapshot and answer a point/prefix/AS query against it."""
    server, first_day = _build_server(args)
    day = first_day if args.day is None else args.day
    snapshot = server.publish_day(day)
    print(f"snapshot generation {snapshot.generation} (day {snapshot.day})")
    if args.address is not None:
        answer = server.point_query(args.address)
        print(f"address {answer.address.compressed}:")
        print(f"  in hitlist: {answer.in_hitlist}")
        print(f"  aliased: {answer.aliased}")
        print(f"  sources: {', '.join(answer.sources) or '-'}")
        first_seen = "-" if answer.first_seen_day is None else answer.first_seen_day
        print(f"  first seen day: {first_seen}")
        for protocol, responsive in zip(answer.protocols, answer.responsive):
            print(f"  responsive on {protocol.value}: {responsive}")
    elif args.prefix is not None:
        answer = server.prefix_query(args.prefix, include_aliased=args.include_aliased)
        print(f"prefix {args.prefix}:")
        print(f"  addresses: {answer.num_addresses}")
        print(f"  responsive (any protocol): {answer.num_responsive()}")
    else:
        answer = server.as_query(args.asn)
        print(f"AS{args.asn}:")
        print(f"  addresses: {answer.num_addresses}")
        print(f"  responsive (any protocol): {answer.num_responsive()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Clusters in the Expanse' (IMC 2018): run the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all experiment ids")
    subparsers.add_parser(
        "list-scenarios", help="list all scenario presets with their descriptions"
    )

    run_parser = subparsers.add_parser("run", help="run a single experiment and print its report")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    _add_config_options(run_parser)

    all_parser = subparsers.add_parser("run-all", help="run every experiment over one shared context")
    _add_config_options(all_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="publish a run of daily hitlist snapshots and report each generation"
    )
    _add_serving_options(serve_parser)
    serve_parser.add_argument(
        "--days", type=int, default=1, help="number of consecutive days to publish (default: 1)"
    )

    trace_parser = subparsers.add_parser(
        "trace", help="traceroute one address over the scenario's routed AS topology"
    )
    trace_parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="multi-vantage",
        help="scenario preset to build (default: multi-vantage)",
    )
    trace_parser.add_argument(
        "--scale",
        choices=sorted(SCALE_TIERS),
        default="test",
        help="scenario scale tier (default: test)",
    )
    trace_parser.add_argument("--address", required=True, help="target IPv6 address")
    trace_parser.add_argument("--day", type=int, default=0, help="measurement day (default: 0)")
    trace_parser.add_argument(
        "--vantage",
        type=int,
        default=None,
        help="vantage index to probe from (default: the scenario's vantage_index)",
    )
    trace_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    query_parser = subparsers.add_parser(
        "query", help="publish one snapshot and answer a point/prefix/AS query against it"
    )
    _add_serving_options(query_parser)
    what = query_parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--address", default=None, help="point query: one IPv6 address")
    what.add_argument("--prefix", default=None, help="prefix query: a CIDR prefix")
    what.add_argument("--asn", type=int, default=None, help="AS query: an origin AS number")
    query_parser.add_argument(
        "--include-aliased",
        action="store_true",
        help="prefix query: include rows inside aliased prefixes",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.command == "list-scenarios":
        for scenario in iter_scenarios():
            print(f"{scenario.name}: {scenario.description}")
        return 0
    if args.command in ("serve", "query", "trace"):
        try:
            if args.command == "serve":
                return _cmd_serve(args)
            if args.command == "trace":
                return _cmd_trace(args)
            return _cmd_query(args)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    try:
        config = resolve_config(args.scale, args.scenario)
        ctx = ExperimentContext(config, policy=_build_policy(args))
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if args.command == "run":
        outcome = run_experiment(args.experiment, ctx=ctx)
        print(f"== {outcome.experiment_id} ==")
        print(outcome.report)
        return 0
    # run-all
    outcomes = run_all(ctx)
    for experiment_id, outcome in outcomes.items():
        print(f"\n== {experiment_id} ==")
        print(outcome.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
