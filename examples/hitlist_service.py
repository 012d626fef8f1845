#!/usr/bin/env python3
"""Run the daily IPv6 hitlist service for a week and export its artefacts.

Mirrors the paper's public service (https://ipv6hitlist.github.io): every day
the pipeline merges the sources' new records, removes aliased prefixes, scans
five protocols and publishes (a) the list of responsive addresses and (b) the
list of detected aliased prefixes.  This example runs the last week of the
source run-up on the incremental batch engine -- day *d* only merges records
first seen on day *d*, reuses APD verdicts for unchanged prefixes, and keeps
responsiveness as (target x protocol) matrices until the final export.

Run with:  python examples/hitlist_service.py
"""

from pathlib import Path

from repro.core.hitlist import HitlistService
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.netmodel.services import Protocol
from repro.sources import assemble_all_sources

OUTPUT_DIR = Path("hitlist-output")
RUNUP_DAYS = 90


def main() -> None:
    internet = SimulatedInternet(InternetConfig(seed=5, num_ases=80, base_hosts_per_allocation=12))
    assembly = assemble_all_sources(internet, total_target=3000, seed=9, runup_days=RUNUP_DAYS)
    service = HitlistService(internet, assembly, seed=17)

    days = range(RUNUP_DAYS - 7, RUNUP_DAYS)
    print("day  input     targets  aliased-pfx  apd-probed  responsive  icmp   tcp80")
    for day in days:
        daily = service.run_day(day)
        print(
            f"{day:>3}  {daily.input_addresses:>8,} {len(daily.scan_result.targets):>8,} "
            f"{len(daily.aliased_prefixes):>11,} {service.apd_probe_counts[day]:>10,} "
            f"{daily.count_responsive():>10,} "
            f"{daily.count_responsive(Protocol.ICMP):>6,} "
            f"{daily.count_responsive(Protocol.TCP80):>6,}"
        )

    # The publish boundary: only here are scalar address views materialised.
    last = service.history[days[-1]]
    OUTPUT_DIR.mkdir(exist_ok=True)
    responsive_file = OUTPUT_DIR / "responsive-addresses.txt"
    aliased_file = OUTPUT_DIR / "aliased-prefixes.txt"
    responsive = last.scan_result.responsive_on()
    responsive_file.write_text("\n".join(sorted(a.compressed for a in responsive)) + "\n")
    aliased_file.write_text("\n".join(sorted(str(p) for p in last.aliased_prefixes)) + "\n")
    print(f"\nWrote {responsive_file} ({len(responsive):,} addresses)")
    print(f"Wrote {aliased_file} ({len(last.aliased_prefixes):,} prefixes)")
    print(f"Aliased share of the input: {last.aliased_share:.1%}")


if __name__ == "__main__":
    main()
