#!/usr/bin/env python3
"""Learn previously unknown IPv6 addresses with Entropy/IP and 6Gen (Section 7).

Seeds the generators with the non-aliased part of a hitlist, generates
candidate addresses per AS with both tools, probes them, and compares the
tools' hit rates, overlap and the protocol mix of what they found (the
Table 7 / Figure 9 analysis).

Run with:  python examples/discover_new_addresses.py
"""

from repro.core.apd import AliasedPrefixDetector
from repro.core.hitlist import Hitlist
from repro.genaddr import GenerationPipeline
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.sources import assemble_all_sources


def main() -> None:
    internet = SimulatedInternet(InternetConfig(seed=23, num_ases=80, base_hosts_per_allocation=15))
    assembly = assemble_all_sources(internet, total_target=3500, seed=4, runup_days=90)
    hitlist = Hitlist.from_assembly(assembly)

    # Seed only with addresses outside aliased prefixes, as the paper does.
    apd = AliasedPrefixDetector(internet, seed=13).run(hitlist.addresses, day=0)
    _, seeds = apd.split(hitlist.addresses)
    print(f"Seeds: {len(seeds):,} non-aliased hitlist addresses")

    # The default policy runs generation and probing columnar;
    # policy=ExecutionPolicy(reference=True) selects the scalar loop with
    # identical output.
    # Passing apd_result reuses the cached verdicts to drop generated
    # candidates that fall inside aliased prefixes, as the paper requires.
    pipeline = GenerationPipeline(
        internet,
        min_seeds_per_as=80,
        generation_budget_per_as=300,
        seed=99,
    )
    report = pipeline.run(
        seeds, known_addresses=hitlist.addresses, day=0, probe=True, apd_result=apd
    )

    print("\ntool         generated   responsive   rate")
    for tool in ("entropy_ip", "6gen"):
        generated = report.generated_count(tool)
        responsive = len(report.responsive_any(tool))
        rate = report.response_rate(tool)
        print(f"{tool:<12} {generated:>9,} {responsive:>12,} {rate:>6.1%}")

    overlap = report.overlap_candidates()
    responsive_overlap = report.overlap_responsive()
    print(f"\ncandidates generated by both tools: {len(overlap):,}")
    print(f"responsive addresses found by both: {len(responsive_overlap):,}")

    print("\ntop protocol combinations among responders:")
    for tool in ("entropy_ip", "6gen"):
        shares = report.protocol_combination_shares(tool)
        top = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)[:3]
        for combo, share in top:
            combo_text = "+".join(p.value for p in combo)
            print(f"  {tool:<12} {combo_text:<28} {share:6.1%}")


if __name__ == "__main__":
    main()
