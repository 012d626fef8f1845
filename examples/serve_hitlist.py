#!/usr/bin/env python3
"""Serve the hitlist while the next day's update builds in the background.

Mirrors how the paper's public service (https://ipv6hitlist.github.io) is
consumed: researchers fire point/prefix/AS queries and download snapshots
continuously, while every day a new hitlist generation is computed and
swapped in.  This example publishes one generation, starts the next day's
publish on the server's background lane, keeps querying throughout -- every
answer names the generation it came from, and the swap is atomic -- and
finally diffs the two generations.

Run with:  python examples/serve_hitlist.py
"""

from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.netmodel.services import Protocol
from repro.scenarios import build, get_scenario

SCENARIO = "baseline"
SCALE = "test"


def main() -> None:
    runup = get_scenario(SCENARIO, scale=SCALE).experiment_config().runup_days
    server = build("server", SCENARIO, scale=SCALE)

    snapshot = server.publish_day(runup)
    print(
        f"generation {snapshot.generation} (day {snapshot.day}): "
        f"{snapshot.num_addresses:,} addresses, "
        f"{snapshot.num_scan_targets:,} scan targets, "
        f"{snapshot.num_responsive():,} responsive"
    )

    # Queries answer from the published snapshot -- including while the next
    # generation builds on the background lane below.
    some_member = IPv6Address(server.download().addresses.to_ints()[0])
    with server:
        future = server.publish_day_async(runup + 1)

        answer = server.point_query(some_member)
        print(f"\npoint query {answer.address.compressed} (generation {answer.generation}):")
        print(f"  sources: {', '.join(answer.sources)}")
        print(f"  aliased: {answer.aliased}")
        print(f"  responsive on TCP/443: {answer.responsive_on(Protocol.TCP443)}")

        prefix = IPv6Prefix.of(some_member, 32)
        subset = server.prefix_query(prefix)
        print(f"prefix query {prefix} (generation {subset.generation}):")
        print(
            f"  {subset.num_addresses:,} unaliased addresses, "
            f"{subset.num_responsive():,} responsive"
        )

        miss = server.point_query("2001:db8:ffff::1")
        print(f"point query 2001:db8:ffff::1: in hitlist = {miss.in_hitlist}")

        new_snapshot = future.result()

    print(
        f"\ngeneration {new_snapshot.generation} (day {new_snapshot.day}) swapped in: "
        f"{new_snapshot.num_responsive():,} responsive"
    )
    old, new = snapshot.download(), new_snapshot.download()
    gained = set(new.addresses.to_ints()) - set(old.addresses.to_ints())
    print(f"addresses new since generation {snapshot.generation}: {len(gained):,}")
    print(f"server stats: {server.stats()}")


if __name__ == "__main__":
    main()
