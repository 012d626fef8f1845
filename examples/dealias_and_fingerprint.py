#!/usr/bin/env python3
"""De-aliasing deep dive: multi-level APD, fingerprint validation, baseline comparison.

Reproduces the Section 5 workflow on a small simulated Internet:

1. run multi-level aliased prefix detection over a hitlist,
2. validate detected aliased /64s with TCP options fingerprinting (iTTL,
   option text, MSS, window, timestamps),
3. compare against Murdock et al.'s static /96 baseline.

Run with:  python examples/dealias_and_fingerprint.py
"""


from repro.addr import IPv6Prefix
from repro.addr.generate import fanout_targets
from repro.analysis.comparison import compare_apd_approaches
from repro.core.apd import AliasedPrefixDetector
from repro.core.apd_murdock import MurdockDetector
from repro.core.consistency import ConsistencyChecker
from repro.core.hitlist import Hitlist
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.probing.fingerprint import FingerprintProbe
from repro.sources import assemble_all_sources


def main() -> None:
    internet = SimulatedInternet(InternetConfig(seed=31, num_ases=80, base_hosts_per_allocation=12))
    assembly = assemble_all_sources(internet, total_target=3000, seed=6, runup_days=90)
    hitlist = Hitlist.from_assembly(assembly)
    print(f"Hitlist: {len(hitlist):,} addresses")

    # 1. Multi-level APD.
    detector = AliasedPrefixDetector(internet, seed=3)
    apd = detector.run(hitlist.addresses, day=0)
    aliased_addrs, clean = apd.split(hitlist.addresses)
    print(f"APD: {len(apd.outcomes):,} prefixes probed, {len(apd.aliased_prefixes):,} aliased, "
          f"{len(aliased_addrs):,} addresses filtered ({len(aliased_addrs) / len(hitlist):.1%})")

    # 2. Fingerprint validation of detected aliased /64s (Table 5 / Table 6 style).
    probe = FingerprintProbe(internet, seed=8)
    checker = ConsistencyChecker()
    records = {}
    for prefix in apd.aliased_prefixes:
        base = IPv6Prefix.of(prefix.network, 64) if prefix.length >= 64 else prefix
        if base in records or len(records) >= 60:
            continue
        targets = fanout_targets(base, seed=8)
        fingerprints = [probe.probe(t) for t in targets]
        if all(r.responded for r in fingerprints):
            records[base] = fingerprints
    report = checker.evaluate_many(records)
    shares = report.shares()
    print(f"\nFingerprinted {len(report)} aliased /64s:")
    print(f"  inconsistent: {shares['inconsistent']:.1%}   "
          f"consistent (timestamp test): {shares['consistent']:.1%}   "
          f"indecisive: {shares['indecisive']:.1%}")
    for test, count in report.inconsistent_per_test().items():
        print(f"  {test:<12} inconsistent prefixes: {count}")

    # 3. Comparison with the static /96 baseline (Section 5.5).
    murdock = MurdockDetector(internet, seed=3).run(hitlist.addresses, day=0)
    comparison = compare_apd_approaches(hitlist.addresses, apd, murdock)
    print("\nMulti-level APD vs Murdock et al. (/96, single protocol):")
    print(f"  aliased addresses found:  {comparison.apd_aliased_addresses:,} vs "
          f"{comparison.murdock_aliased_addresses:,}")
    print(f"  found only by APD:        {comparison.only_apd:,}")
    print(f"  found only by Murdock:    {comparison.only_murdock:,}")
    print(f"  addresses probed:         {comparison.apd_addresses_probed:,} vs "
          f"{comparison.murdock_addresses_probed:,}")


if __name__ == "__main__":
    main()
