"""Cross-engine differential oracle over scenario presets.

Every subsystem of the pipeline ships a fast columnar engine next to the
scalar reference implementation it must agree with:

* APD -- :class:`~repro.core.apd.AliasedPrefixDetector`,
* clustering -- :class:`~repro.core.clustering.EntropyClustering`,
* the daily service -- :class:`~repro.core.hitlist.HitlistService`,
* generation -- :class:`~repro.genaddr.pipeline.GenerationPipeline`.

Each pair is the same entry point under ``ExecutionPolicy()`` and
``ExecutionPolicy(reference=True)``.

:func:`run_differential` builds ONE Internet from a scenario, under the
scenario's own anomaly mix, and asserts exact batch-vs-reference parity for
all four pairs on it.  Loss, ICMP rate limiting, SYN proxies and congestion
included: every probe outcome is a keyed draw on its own coordinates
(:mod:`repro.keyed`), so both engines see the same one.  The hypothesis
harness in
``tests/fuzz/test_differential.py`` samples scenario knobs and feeds them
through this oracle; ``scripts/fuzz_scenarios.py`` drives the same oracle
from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult
from repro.core.clustering import EntropyClustering
from repro.core.hitlist import Hitlist, HitlistService
from repro.exec import ExecutionPolicy
from repro.genaddr.pipeline import TOOLS, GenerationPipeline
from repro.netmodel.internet import SimulatedInternet
from repro.scenarios.build import build
from repro.scenarios.registry import Scenario, as_scenario
from repro.sources.registry import SourceAssembly

#: The four engine pairs the oracle can exercise, in pipeline order.
ENGINE_PAIRS = ("apd", "clustering", "service", "generation")

#: Knob -> (low, high) bounds the fuzz drivers sample, the single source of
#: truth shared by the hypothesis harness (tests/fuzz) and the CLI driver
#: (scripts/fuzz_scenarios.py).  Boolean bounds sample booleans, integer
#: bounds integers, float bounds floats.  Scale knobs stay tiny so one sampled
#: Internet builds in about a
#: second; structure knobs span their full range, including the degenerate
#: ends (no aliasing at all, every allocation deaggregated, near-dead
#: clients).  num_ases must clear the notable-operator floor (31).
FUZZ_KNOB_RANGES: dict[str, tuple] = {
    "num_ases": (32, 44),
    "base_hosts_per_allocation": (3, 7),
    "max_hosts_per_allocation": (60, 140),
    "hitlist_target": (400, 1200),
    "runup_days": (5, 30),
    "aliased_region_rate": (0.0, 1.0),
    "aliased_regions_per_cdn_allocation": (1, 10),
    "deaggregation_rate": (0.0, 0.9),
    "eyeball_tail_boost": (0.25, 6.0),
    "client_daily_uptime": (0.05, 0.95),
    "apd_min_targets": (40, 120),
    # Stochastic anomaly knobs, each range down to the loss-free end.
    "packet_loss": (0.0, 0.3),
    "icmp_rate_limited_share": (0.0, 0.6),
    "stochastic_anomalies": (False, True),
    # Routed-topology knobs.  num_transit_ases spans down to 0, the
    # degenerate single-homed graph.
    "num_transit_ases": (0, 4),
    "num_vantages": (1, 3),
    "vantage_index": (0, 2),
    "filtered_region": (-1, 4),
    "bgp_churn_rate": (0.0, 0.6),
    "transit_congestion": (0.0, 1.0),
    "upstream_rate_limit": (0.0, 1.0),
    # Sub-day dynamics knobs (repro.events).  Every range includes the
    # degenerate-zero end -- waves_per_day 1, capacity 0, rotation 0, no
    # rivals -- so the fuzzer keeps exercising the whole-day path alongside
    # the event-driven one.
    "waves_per_day": (1, 6),
    "icmp_bucket_capacity": (0.0, 80.0),
    "icmp_bucket_refill_per_day": (0.0, 320.0),
    "prefix_rotation_rate": (0.0, 0.8),
    "competing_scanners": (0, 3),
}


@dataclass(slots=True)
class PairCheck:
    """Outcome of one engine-pair parity check on one scenario."""

    pair: str
    passed: bool
    detail: str = ""


@dataclass(slots=True)
class DifferentialReport:
    """All parity checks of one differential run."""

    scenario: str
    seed: int
    knobs: dict[str, object] = field(default_factory=dict)
    checks: list[PairCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[PairCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        lines = [f"scenario={self.scenario} seed={self.seed} knobs={self.knobs}"]
        for check in self.checks:
            status = "ok" if check.passed else "FAIL"
            line = f"  [{status}] {check.pair}"
            if check.detail:
                line += f": {check.detail}"
            lines.append(line)
        return "\n".join(lines)


def _diff_sets(name: str, reference: set, batch: set, limit: int = 3) -> str:
    """Empty string when equal, else a compact description of the asymmetry."""
    if reference == batch:
        return ""
    only_ref = sorted(reference - batch, key=repr)[:limit]
    only_batch = sorted(batch - reference, key=repr)[:limit]
    return (
        f"{name} differs: {len(reference)} reference vs {len(batch)} batch; "
        f"reference-only={only_ref} batch-only={only_batch}"
    )


def _table_diff(name: str, reference: APDResult, batch: APDResult) -> str:
    """Empty string when both verdict tables hold the same prefixes in the
    same order with the same verdicts, else what differs."""
    if not np.array_equal(reference.keys, batch.keys):
        diff = _diff_sets(name, set(reference.outcomes), set(batch.outcomes))
        return diff or f"{name}: order differs"
    flips = np.flatnonzero(reference.verdicts != batch.verdicts).tolist()
    if flips:
        prefixes = list(batch.outcomes)
        return f"{name}: {len(flips)} verdict flips, e.g. {[prefixes[i] for i in flips[:3]]}"
    return ""


# -- per-pair checks ----------------------------------------------------------------


def check_apd(
    internet: SimulatedInternet,
    addresses: Sequence,
    apd_config: APDConfig,
    seed: int,
) -> tuple[PairCheck, APDResult]:
    """Exact parity of the batch vs scalar APD engines' verdict tables: the
    same prefixes in the same order, with the same verdicts.

    Returns the batch result so downstream checks can reuse the verdicts.
    """
    batch = AliasedPrefixDetector(internet, apd_config, seed=seed).run(addresses, day=0)
    scalar = AliasedPrefixDetector(
        internet, apd_config, seed=seed, policy=ExecutionPolicy(reference=True)
    ).run(addresses, day=0)
    problem = _table_diff("probed prefixes", scalar, batch)
    detail = problem or f"{len(batch.outcomes)} prefixes, {len(batch.aliased_prefixes)} aliased"
    return PairCheck("apd", not problem, detail), batch


def check_clustering(
    internet: SimulatedInternet,
    addresses: Sequence,
    seed: int,
    min_addresses: int = 30,
    candidate_ks: Sequence[int] = tuple(range(1, 9)),
) -> PairCheck:
    """Exact fingerprint/label/SSE parity of the two clustering engines."""
    engines = {
        name: EntropyClustering(
            min_addresses=min_addresses,
            candidate_ks=candidate_ks,
            seed=seed,
            policy=ExecutionPolicy(reference=name == "reference"),
        )
        for name in ("reference", "batch")
    }
    fingerprints = {
        name: clustering.fingerprints_by_prefix(addresses, 32)
        for name, clustering in engines.items()
    }
    problems = []
    ref_fp, bat_fp = fingerprints["reference"], fingerprints["batch"]
    if [f.network for f in ref_fp] != [f.network for f in bat_fp]:
        problems.append(
            _diff_sets(
                "fingerprinted networks",
                {f.network for f in ref_fp},
                {f.network for f in bat_fp},
            )
            or "fingerprint order differs"
        )
    else:
        for ref, bat in zip(ref_fp, bat_fp):
            if ref.sample_size != bat.sample_size or ref.entropies != bat.entropies:
                problems.append(f"fingerprint of {ref.network} differs")
                break
    if not problems and ref_fp:
        ref_result = engines["reference"].cluster(ref_fp)
        bat_result = engines["batch"].cluster(bat_fp)
        if ref_result.k != bat_result.k:
            problems.append(f"k differs: {ref_result.k} reference vs {bat_result.k} batch")
        elif ref_result.labels != bat_result.labels:
            problems.append("cluster labels differ")
        elif ref_result.sse_by_k != bat_result.sse_by_k:
            problems.append("SSE curves differ")
    detail = "; ".join(problems)
    if not detail:
        detail = f"{len(ref_fp)} networks above the popularity floor"
    return PairCheck("clustering", not problems, detail)


def check_service(
    internet: SimulatedInternet,
    assembly: SourceAssembly,
    seed: int,
    days: Sequence[int],
    apd_config: APDConfig,
) -> PairCheck:
    """Per-day published-state parity of the two HitlistService engines: each
    day's input size, verdict table, responsive set and provenance."""
    services = {
        name: HitlistService(
            internet,
            assembly,
            apd_config=apd_config,
            seed=seed,
            policy=ExecutionPolicy(reference=name == "reference"),
        )
        for name in ("reference", "batch")
    }
    histories = {name: service.run_days(days) for name, service in services.items()}
    problems = []
    for ref_day, bat_day in zip(histories["reference"], histories["batch"]):
        day = ref_day.day
        if ref_day.input_addresses != bat_day.input_addresses:
            problems.append(
                f"day {day}: input {ref_day.input_addresses} vs {bat_day.input_addresses}"
            )
        problems.append(
            _table_diff(f"day {day} probed prefixes", ref_day.apd_result, bat_day.apd_result)
        )
        problems.append(
            _diff_sets(
                f"day {day} responsive",
                ref_day.scan_result.responsive_on(),
                bat_day.scan_result.responsive_on(),
            )
        )
        if ref_day.hitlist.provenance() != bat_day.hitlist.provenance():
            problems.append(f"day {day}: provenance differs")
    problems = [p for p in problems if p]
    detail = "; ".join(problems)
    if not detail:
        last = histories["batch"][-1]
        detail = f"{len(days)} days, {last.count_responsive()} responsive on day {last.day}"
    return PairCheck("service", not problems, detail)


def check_generation(
    internet: SimulatedInternet,
    non_aliased: Sequence,
    apd_result: APDResult,
    seed: int,
    min_seeds_per_as: int = 40,
    generation_budget_per_as: int = 120,
) -> PairCheck:
    """Candidate-set and responsiveness parity of the two generation engines."""
    reports = {}
    for name in ("reference", "batch"):
        pipeline = GenerationPipeline(
            internet,
            min_seeds_per_as=min_seeds_per_as,
            generation_budget_per_as=generation_budget_per_as,
            seed=seed,
            policy=ExecutionPolicy(reference=name == "reference"),
        )
        reports[name] = pipeline.run(
            non_aliased, day=0, probe=True, apd_result=apd_result
        )
    reference, batch = reports["reference"], reports["batch"]
    problems = []
    ref_rows = [(g.asn, g.tool, g.seeds, g.generated_count) for g in reference.per_as]
    bat_rows = [(g.asn, g.tool, g.seeds, g.generated_count) for g in batch.per_as]
    if ref_rows != bat_rows:
        problems.append(f"per-AS rows differ ({len(ref_rows)} vs {len(bat_rows)})")
    for tool in TOOLS:
        problems.append(
            _diff_sets(
                f"{tool} candidates",
                {a.value for a in reference.candidates.get(tool, [])},
                set(batch.candidate_batch(tool).to_ints()),
            )
        )
        problems.append(
            _diff_sets(
                f"{tool} responsive",
                {a.value for a in reference.responsive_any(tool)},
                {a.value for a in batch.responsive_any(tool)},
            )
        )
    problems = [p for p in problems if p]
    detail = "; ".join(problems)
    if not detail:
        detail = ", ".join(
            f"{tool}: {batch.generated_count(tool)} candidates" for tool in TOOLS
        )
    return PairCheck("generation", not problems, detail)


# -- the oracle ---------------------------------------------------------------------


def run_differential(
    scenario: "str | Scenario",
    *,
    seed: int = 2018,
    days: int = 2,
    pairs: Iterable[str] = ENGINE_PAIRS,
) -> DifferentialReport:
    """Run all requested engine-pair parity checks on one scenario.

    A single Internet + source assembly substrate, built under the
    scenario's own anomaly mix, is shared by every check.
    """
    pairs = tuple(pairs)
    unknown = sorted(set(pairs) - set(ENGINE_PAIRS))
    if unknown:
        raise ValueError(f"unknown engine pair(s) {unknown}: expected {ENGINE_PAIRS}")
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    scenario = as_scenario(scenario)
    context = build("context", scenario, seed=seed)
    config = context.config
    internet, assembly = context.internet, context.assembly
    hitlist = Hitlist.from_assembly(assembly)
    addresses = hitlist.addresses
    apd_config = APDConfig(min_targets_per_prefix=config.apd_min_targets)
    report = DifferentialReport(
        scenario=scenario.name, seed=seed, knobs=scenario.resolved_overrides()
    )
    apd_result: APDResult | None = None
    if "apd" in pairs:
        apd_check, apd_result = check_apd(internet, addresses, apd_config, seed)
        report.checks.append(apd_check)
    elif "generation" in pairs:
        # Generation only needs verdicts to seed from: skip the scalar engine.
        apd_result = AliasedPrefixDetector(internet, apd_config, seed=seed).run(
            addresses, day=0
        )
    if "clustering" in pairs:
        report.checks.append(check_clustering(internet, addresses, seed))
    if "service" in pairs:
        # Service days share the run-up timeline (first_seen_day ∈ [0,
        # runup_days)), so run at the end of the run-up: the first day sees
        # nearly the whole input and later days still merge fresh records.
        first_day = max(0, config.runup_days - 2)
        report.checks.append(
            check_service(
                internet,
                assembly,
                seed,
                list(range(first_day, first_day + days)),
                apd_config,
            )
        )
    if "generation" in pairs:
        _, non_aliased = apd_result.split(addresses)
        report.checks.append(check_generation(internet, non_aliased, apd_result, seed))
    return report
