"""The benchmark's four workloads, each driven through the public API.

Every workload builds the ``baseline`` scenario under the realistic anomaly
mix through :func:`repro.scenarios.build`.  The simulated world (Internet
and source assembly) is always the one of the scenario seed, 2018: another
world seed changes the amount of work by up to 1.5x, which would drown any
change a later commit makes.  The benchmark's ``--seed`` seeds what the
workload itself feeds the program instead -- the experiments' sampling, the
query stream, the generation pipeline -- and at 2018 every workload runs the
scenario exactly as configured.

Each workload splits its work into three steps the harness calls:

* ``setup(seed, scale)`` -- everything before the first measured operation
  (world build, source assembly, object construction, workload inputs);
* ``run_pass(state)`` -- one pass of the measured phase: a fixed amount of
  work; it returns the wall-clock interval of each operation, which the
  harness converts to reference-speed seconds (the only timed step);
* ``check(state, output)`` -- the output checks, outside the timed region;
  returns ``(attempted, failed)`` operations.

A repeated pass redoes the same work on the same inputs.  A single caller
waits for each reply (a closed loop with one client); nothing here starts a
thread.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.addr.batch import AddressBatch
from repro.addr.prefix import IPv6Prefix
from repro.core.hitlist import Hitlist
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.genaddr.pipeline import GenerationPipeline
from repro.scenarios import build, get_scenario
from repro.serving.server import HitlistServer

SCENARIO = "baseline"
ANOMALIES = "realistic"
#: The scenario seed: it builds the world, and ``docs/EXPERIMENTS.md`` was
#: generated at it.
WORLD_SEED = 2018
ORACLE_PATH = Path(__file__).resolve().parent.parent / "docs" / "EXPERIMENTS.md"
#: Days ``daily-publish`` publishes after the source run-up, when the
#: hitlist has its full size.  Only these count as its operation latencies:
#: run-up days grow from ~5 to ~45 ms, and percentiles over that ramp land
#: where it is sparse and amplify any slowdown.  200 leave ten beyond p95.
STEADY_DAYS = 200
#: Queries per ``query-mix`` pass, and every how many-th answer is checked.
QUERIES_PER_PASS = 20_000
CHECK_EVERY = 40
#: Queries per client session, ``query-mix``'s operation.  Single queries
#: of the mix are 25x apart in cost, and percentiles of that mixture moved
#: twice as much as the pass time between runs on a noisy host.
SESSION = 100
#: The query mix: kind -> share of queries.
QUERY_MIX = (("hit", 0.60), ("miss", 0.20), ("prefix", 0.15), ("as", 0.05))
PREFIX_LENGTHS = (32, 48, 64)
TOOLS = ("entropy_ip", "6gen")


def build_target(target: str, scale: str, seed: int = WORLD_SEED):
    return build(target, SCENARIO, scale=scale, anomalies=ANOMALIES, seed=seed)


def scenario_config(scale: str):
    return get_scenario(SCENARIO, scale=scale, anomalies=ANOMALIES).experiment_config()


def address_keys(batch: AddressBatch) -> np.ndarray:
    """One 16-byte key per address, for set tests with ``np.isin``."""
    pairs = np.ascontiguousarray(np.stack((batch.hi, batch.lo), axis=1))
    return pairs.view(np.dtype((np.void, 16))).ravel()


#: Wall-clock (start, end) of one operation, in ``time.perf_counter`` time.
Interval = tuple[float, float]


@dataclass
class PassOutput:
    """What one pass hands to the harness and the checks.

    ``ops`` holds the interval of every operation the pass measures and
    ``by_kind`` the interval of every query by kind (query-mix); the checks
    may add work counts read off the outputs to ``counts``.
    """

    ops: list[Interval]
    outputs: object
    by_kind: dict[str, list[Interval]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Workload:
    """One workload.  ``repeats=False`` marks a pass that uses up its set-up.

    Publishing a day or running the experiments fills the world's per-day
    caches (host uptime, route views, probe lookups), which a real campaign
    never finds warm, so such workloads measure one pass per set-up world.
    """

    name: str
    why: str
    setup: Callable[[int, str], object]
    run_pass: Callable[[object], PassOutput]
    check: Callable[[object, PassOutput], tuple[int, int]]
    repeats: bool = True


# -- daily-publish -------------------------------------------------------------


@dataclass
class PublishState:
    days: int
    server: HitlistServer


def publish_setup(seed: int, scale: str) -> PublishState:
    # The service seed stays the scenario's: it steers the stochastic APD
    # verdicts and with them the day's scan targets, so another seed is
    # another amount of work (~30% apart between service seeds 1 and 5).
    server = build_target("server", scale)
    return PublishState(days=scenario_config(scale).runup_days + STEADY_DAYS, server=server)


def publish_pass(state: PublishState) -> PassOutput:
    server = state.server
    clock = time.perf_counter
    ops = []
    snapshots = []
    for day in range(state.days):
        start = clock()
        snapshots.append(server.publish_day(day))
        ops.append((start, clock()))
    return PassOutput(ops[-STEADY_DAYS:], snapshots)


def publish_check(state: PublishState, output: PassOutput) -> tuple[int, int]:
    server, snapshots = state.server, output.outputs
    failed = 0
    previous = 0
    last = len(snapshots) - 1
    for day, snapshot in enumerate(snapshots):
        daily = server.service.history[day]
        download = snapshot.download()
        keys = address_keys(download.addresses)
        targets = address_keys(daily.targets_batch)
        responsive = download.responsive.any(axis=1)
        ok = snapshot.generation == day + 1 and snapshot.day == day
        ok &= len(keys) >= previous
        ok &= bool(np.isin(targets, keys).all())
        ok &= bool(np.isin(keys[responsive], targets).all())
        ok &= int(download.unaliased.sum()) == len(targets)
        ok &= int(responsive.sum()) == daily.count_responsive()
        if day == last:
            one_shot = Hitlist.from_assembly(server.service.assembly, day=day)
            ok &= sorted(a.value for a in one_shot.addresses) == download.addresses.to_ints()
        previous = len(keys)
        failed += not ok
    # The batch service keeps its own candidate set: every day serves one
    # verdict per candidate prefix, re-probing only the changed ones.
    output.counts["core.apd.verdicts_served"] = sum(
        len(server.service.history[day].apd_result.outcomes) for day in range(len(snapshots))
    )
    return len(snapshots), failed


# -- paper-reproduce -------------------------------------------------------------


@dataclass
class ReproduceState:
    ctx: object
    oracle: dict[str, str] | None


def experiment_groups() -> list[list[str]]:
    """Experiment ids grouped by implementing module, in registry order."""
    groups: dict[object, list[str]] = {}
    for experiment_id, module in EXPERIMENTS.items():
        groups.setdefault(module, []).append(experiment_id)
    return list(groups.values())


def load_oracle(path: Path = ORACLE_PATH) -> dict[str, str]:
    """The committed "Measured" report of every experiment id."""
    blocks = {}
    pattern = re.compile(r"\*\*Measured \(this reproduction\)\.\*\*\n\n```\n(.*?)\n```", re.S)
    for section in re.split(r"^## ", path.read_text(), flags=re.M)[1:]:
        experiment_id = section.split(":", 1)[0].strip()
        match = pattern.search(section)
        if match:
            blocks[experiment_id] = match.group(1)
    return blocks


def reproduce_setup(seed: int, scale: str) -> ReproduceState:
    # The experiments draw from the benchmark seed over the scenario world.
    ctx = build_target("context", scale, seed=seed)
    ctx.internet = build_target("internet", scale)
    _ = ctx.assembly
    # The committed reports were generated at the default scale and seed.
    oracle = (seed, scale) == (WORLD_SEED, "default")
    return ReproduceState(ctx=ctx, oracle=load_oracle() if oracle else None)


def reproduce_pass(state: ReproduceState) -> PassOutput:
    # One operation to wait for: the experiments' own durations differ by
    # 100x and their order statistics shift with the seed.
    start = time.perf_counter()
    outcomes = run_all(state.ctx)
    op = (start, time.perf_counter())
    return PassOutput([op], {eid: outcome.report for eid, outcome in outcomes.items()})


def reproduce_check(state: ReproduceState, output: PassOutput) -> tuple[int, int]:
    reports = output.outputs
    failed = 0
    for group in experiment_groups():
        ok = True
        for experiment_id in group:
            report = reports.get(experiment_id)
            ok &= bool(report)
            if state.oracle is not None:
                ok &= report == state.oracle.get(experiment_id)
        failed += not ok
    return len(experiment_groups()), failed


# -- query-mix -------------------------------------------------------------------


@dataclass
class QueryState:
    server: HitlistServer
    day: int
    queries: list[tuple[str, object]]
    truth: dict = field(default_factory=dict)


def make_queries(values: list[int], asn_of: Callable[[int], int | None], seed: int):
    """A seeded query mix over one published hitlist (its sorted int rows)."""
    rng = random.Random(seed)
    present = set(values)
    kinds = [kind for kind, _ in QUERY_MIX]
    weights = [share for _, share in QUERY_MIX]
    queries: list[tuple[str, object]] = []
    for kind in rng.choices(kinds, weights, k=QUERIES_PER_PASS):
        value = rng.choice(values)
        if kind == "hit":
            queries.append((kind, value))
        elif kind == "miss":
            # A neighbour in the same /64: not listed, but near listed rows.
            miss = value
            while miss in present:
                miss = (value >> 64 << 64) | rng.getrandbits(64)
            queries.append((kind, miss))
        elif kind == "prefix":
            length = rng.choice(PREFIX_LENGTHS)
            network = value >> (128 - length) << (128 - length)
            queries.append((kind, IPv6Prefix(network, length)))
        else:
            # The origin AS of a listed address (unrouted rows have none).
            asn = asn_of(value)
            while asn is None:
                asn = asn_of(rng.choice(values))
            queries.append((kind, asn))
    return queries


def query_setup(seed: int, scale: str) -> QueryState:
    server = build_target("server", scale)
    day = scenario_config(scale).runup_days
    snapshot = server.publish_day(day)
    values = snapshot.download().addresses.to_ints()
    queries = make_queries(values, server.internet.asn_of, seed)
    return QueryState(server=server, day=day, queries=queries)


def query_pass(state: QueryState) -> PassOutput:
    server = state.server
    point, prefix, by_as = server.point_query, server.prefix_query, server.as_query
    clock = time.perf_counter
    intervals = []
    answers = []
    for kind, argument in state.queries:
        start = clock()
        if kind == "prefix":
            answer = prefix(argument)
        elif kind == "as":
            answer = by_as(argument)
        else:
            answer = point(argument)
        intervals.append((start, clock()))
        answers.append(answer)
    by_kind: dict[str, list[Interval]] = {kind: [] for kind, _ in QUERY_MIX}
    for (kind, _), interval in zip(state.queries, intervals):
        by_kind[kind].append(interval)
    sessions = [
        (intervals[i][0], intervals[min(i + SESSION, len(intervals)) - 1][1])
        for i in range(0, len(intervals), SESSION)
    ]
    return PassOutput(sessions, answers, by_kind=by_kind)


def _query_truth(state: QueryState) -> dict:
    """Brute-force views of the published snapshot, built once per run."""
    if not state.truth:
        download = state.server.download()
        values = download.addresses.to_ints()
        asn_of = state.server.internet.asn_of
        state.truth = {
            "values": values,
            "row": {value: row for row, value in enumerate(values)},
            "download": download,
            "asn": [asn_of(value) for value in values],
            "apd": state.server.service.history[state.day].apd_result,
        }
    return state.truth


def query_expected_ok(state: QueryState, kind: str, argument, answer) -> bool:
    """Does one answer equal the brute-force answer over the download?"""
    truth = _query_truth(state)
    download = truth["download"]
    values = truth["values"]
    if kind in ("hit", "miss"):
        row = truth["row"].get(argument)
        if row is None:
            return (
                not answer.in_hitlist
                and not any(answer.responsive)
                and answer.aliased == truth["apd"].is_aliased(argument)
            )
        mask = int(download.source_masks[row])
        sources = tuple(
            name for bit, name in enumerate(download.source_names) if mask >> bit & 1
        )
        return (
            answer.in_hitlist
            and answer.aliased == (not download.unaliased[row])
            and answer.responsive == tuple(download.responsive[row].tolist())
            and answer.sources == sources
            and answer.first_seen_day == int(download.first_seen_days[row])
        )
    if kind == "prefix":
        end = argument.network | ((1 << (128 - argument.length)) - 1)
        expected = [
            value
            for row, value in enumerate(values)
            if argument.network <= value <= end and download.unaliased[row]
        ]
    else:
        expected = [value for value, asn in zip(values, truth["asn"]) if asn == argument]
    return answer.addresses.to_ints() == expected


def query_check(state: QueryState, output: PassOutput) -> tuple[int, int]:
    failed = 0
    for index in range(0, len(state.queries), CHECK_EVERY):
        kind, argument = state.queries[index]
        failed += not query_expected_ok(state, kind, argument, output.outputs[index])
    return len(state.queries), failed


# -- learn-addresses ---------------------------------------------------------------


@dataclass
class LearnState:
    seed: int
    ctx: object
    known: np.ndarray
    candidates: dict[str, np.ndarray] | None = None


def learn_setup(seed: int, scale: str) -> LearnState:
    ctx = build_target("context", scale)
    _ = ctx.non_aliased_addresses  # the day-0 hitlist and its APD verdicts
    known = address_keys(ctx.hitlist.address_batch)
    return LearnState(seed=seed, ctx=ctx, known=known)


def learn_pass(state: LearnState) -> PassOutput:
    ctx = state.ctx
    start = time.perf_counter()
    report = GenerationPipeline(ctx.internet, seed=state.seed).run(
        ctx.non_aliased_addresses,
        known_addresses=ctx.hitlist.addresses,
        apd_result=ctx.apd_result,
        probe=True,
    )
    return PassOutput([(start, time.perf_counter())], report)


def learn_check(state: LearnState, output: PassOutput) -> tuple[int, int]:
    report = output.outputs
    ctx = state.ctx
    bgp = ctx.internet.bgp_lpm()
    ok = True
    candidates = {}
    for tool in TOOLS:
        batch = report.candidate_batch(tool)
        keys = address_keys(batch)
        candidates[tool] = keys
        ok &= len(batch) > 0
        ok &= not bool(np.isin(keys, state.known).any())
        ok &= bool((bgp.lookup_indices(batch) >= 0).all())
        ok &= not bool(ctx.apd_result.is_aliased_batch(batch).any())
        ok &= {a.value for a in report.responsive_any(tool)} <= set(batch.to_ints())
    if state.candidates is None:
        state.candidates = candidates
    else:
        ok &= all(np.array_equal(candidates[t], state.candidates[t]) for t in TOOLS)
    return 1, int(not ok)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "daily-publish",
            "the daily service and the serving write side: merge, incremental APD, "
            "batch scan and snapshot build per day on a growing hitlist",
            publish_setup,
            publish_pass,
            publish_check,
            repeats=False,
        ),
        Workload(
            "paper-reproduce",
            "what a researcher runs (run-all): one-shot APD, scalar sweeps, "
            "fingerprinting, clustering, a second world build; oracle in docs/EXPERIMENTS.md",
            reproduce_setup,
            reproduce_pass,
            reproduce_check,
            repeats=False,
        ),
        Workload(
            "query-mix",
            "the serving read side with no probing: 60% point hits, 20% misses, "
            "15% prefix and 5% AS queries from one closed-loop client",
            query_setup,
            query_pass,
            query_check,
        ),
        Workload(
            "learn-addresses",
            "Section 7 address generation (Entropy/IP + 6Gen + probing), "
            "too small a share of paper-reproduce to show there",
            learn_setup,
            learn_pass,
            learn_check,
        ),
    )
}
