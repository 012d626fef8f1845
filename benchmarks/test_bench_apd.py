"""Benchmark / regeneration harness for Table 3 plus APD design ablations.

Covers the Table 3 fan-out example, the DESIGN.md ablations and the batch
probing engine's throughput acceptance:

* fan-out (one probe per nybble branch) vs purely random target selection for
  a partially aliased prefix -- the motivating example of Section 5.1 case 3;
* cross-protocol merging vs single-protocol APD under loss (Section 5.2);
* vectorised ``probe_batch`` APD vs the scalar per-probe reference loop,
  asserting the >= 5x speedup the batch engine exists for.
"""

import random
import time

from benchmarks.conftest import run_once, write_bench_json
from repro.addr import IPv6Prefix
from repro.addr.generate import fanout_targets, random_addresses_in_prefix
from repro.core.apd import AliasedPrefixDetector, APDConfig
from repro.exec import ExecutionPolicy
from repro.experiments import table3
from repro.netmodel.services import Protocol


def test_bench_table3_fanout_example(benchmark, ctx):
    result = run_once(benchmark, lambda: table3.run(ctx))
    print("\n" + table3.format_table(result))
    assert len(result.targets) == 16
    assert result.covers_all_branches
    assert result.all_inside_prefix


def test_bench_ablation_fanout_vs_random(benchmark, ctx):
    """A prefix with 9 of 16 aliased subprefixes: fan-out never mislabels it,
    purely random target selection sometimes does (all probes land in aliased
    branches by chance)."""

    def ablation():
        rng = random.Random(7)
        # 14 of the 16 nybble branches are aliased; the whole prefix is not.
        aliased_branches = set(range(14))
        trials = 300

        def classify(targets, prefix):
            # A target "responds" when its branch (first sub-nybble) is aliased.
            shift = 124 - prefix.length
            responding = sum(
                1 for t in targets if ((t.value >> shift) & 0xF) in aliased_branches
            )
            return responding == 16

        prefix = IPv6Prefix.parse("2001:db8:1::/96")
        fanout_false_positives = sum(
            classify(fanout_targets(prefix, seed=trial), prefix) for trial in range(trials)
        )
        random_false_positives = sum(
            classify(random_addresses_in_prefix(prefix, 16, rng), prefix) for _ in range(trials)
        )
        return fanout_false_positives, random_false_positives

    fanout_fp, random_fp = run_once(benchmark, ablation)
    print(f"\nfalse positives over 300 trials: fan-out={fanout_fp}, random={random_fp}")
    assert fanout_fp == 0
    assert random_fp > fanout_fp  # random selection mislabels the prefix sometimes


def test_bench_ablation_cross_protocol_merging(benchmark, ctx):
    """Cross-protocol APD detects ICMP-only aliased regions that TCP-only
    probing misses entirely."""

    def ablation():
        internet = ctx.internet
        icmp_only_regions = [
            r
            for r in internet.aliased_regions
            if Protocol.TCP80 not in r.host.services and not r.syn_proxy
        ][:20]
        prefixes = [
            IPv6Prefix.of(r.prefix.network, max(64, r.prefix.length)) for r in icmp_only_regions
        ]
        both = AliasedPrefixDetector(internet, APDConfig(), seed=11)
        tcp_only = AliasedPrefixDetector(
            internet, APDConfig(protocols=(Protocol.TCP80,)), seed=11
        )
        detected_both = sum(both.probe_prefixes([p])[p].is_aliased for p in prefixes)
        detected_tcp = sum(tcp_only.probe_prefixes([p])[p].is_aliased for p in prefixes)
        return len(prefixes), detected_both, detected_tcp

    total, detected_both, detected_tcp = run_once(benchmark, ablation)
    print(f"\nICMP-only aliased prefixes: {total}, detected with merging: {detected_both}, TCP-only: {detected_tcp}")
    if total:
        assert detected_both > detected_tcp
        assert detected_both >= total * 0.8


def test_bench_apd_batch_speedup(benchmark, ctx):
    """The batch engine must beat the scalar probe loop by >= 5x on the APD
    hot path, while classifying the same prefixes as aliased."""

    def compare():
        internet = ctx.internet
        candidates = AliasedPrefixDetector(internet, seed=17).candidate_prefixes(
            ctx.hitlist.addresses
        )[:400]
        scalar = AliasedPrefixDetector(
            internet, APDConfig(), seed=17, policy=ExecutionPolicy(reference=True)
        )
        start = time.perf_counter()
        scalar_outcomes = scalar.probe_prefixes(candidates, day=0)
        scalar_elapsed = time.perf_counter() - start
        batch = AliasedPrefixDetector(internet, APDConfig(), seed=17)
        # The batch pass is ~ms-scale; take the best of a few repeats so a
        # scheduler hiccup cannot dominate the measurement.
        batch_elapsed = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batch_outcomes = batch.probe_prefixes(candidates, day=0)
            batch_elapsed = min(batch_elapsed, time.perf_counter() - start)
        scalar_aliased = {p for p, o in scalar_outcomes.items() if o.is_aliased}
        batch_aliased = {p for p, o in batch_outcomes.items() if o.is_aliased}
        return len(candidates), scalar_elapsed, batch_elapsed, scalar_aliased, batch_aliased

    prefixes, scalar_elapsed, batch_elapsed, scalar_aliased, batch_aliased = run_once(
        benchmark, compare
    )
    speedup = scalar_elapsed / batch_elapsed if batch_elapsed else float("inf")
    print(
        f"\nAPD over {prefixes} prefixes: scalar {scalar_elapsed * 1e3:.1f} ms, "
        f"batch {batch_elapsed * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "apd",
        {
            "prefixes": prefixes,
            "scalar_seconds": round(scalar_elapsed, 4),
            "batch_seconds": round(batch_elapsed, 4),
            "speedup": round(speedup, 2),
            "addresses_per_sec": round(prefixes * 16 / batch_elapsed)
            if batch_elapsed
            else None,
        },
    )
    assert prefixes >= 100
    assert speedup >= 5.0
    # Both engines are precise against ground truth and detect similar
    # volumes; the exact sets may differ on loss-flipped borderline prefixes
    # (single-protocol regions flip with ~20% probability per engine).
    for detected in (scalar_aliased, batch_aliased):
        assert detected
        truth_hits = sum(
            ctx.internet.is_aliased_truth(p.first + 1) for p in detected
        )
        assert truth_hits / len(detected) > 0.95
    assert 0.7 < len(batch_aliased) / len(scalar_aliased) < 1.4
