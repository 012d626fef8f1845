"""Tables 5 and 6: fingerprint consistency of aliased vs non-aliased prefixes.

Table 5 counts, for /64 prefixes classified as aliased whose 16 APD probes to
TCP/80 all answered, how many prefixes show inconsistent iTTL, TCP option
text, window scale, MSS or window size, and how many pass the high-confidence
timestamp test.  Table 6 runs the same tests on non-aliased prefixes with at
least 16 responding addresses as validation: those should be far more
inconsistent and far less timestamp-consistent than aliased prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addr.batch import AddressBatch, batch_fanout_targets
from repro.addr.prefix import IPv6Prefix
from repro.core.consistency import ConsistencyChecker, ConsistencyReport
from repro.experiments.context import ExperimentContext
from repro.netmodel.host import Host
from repro.netmodel.services import HostRole, Protocol
from repro.probing.fingerprint import FingerprintProbe


@dataclass(slots=True)
class Table5Result:
    """Consistency reports for aliased and (validation) non-aliased prefixes."""

    aliased_report: ConsistencyReport
    non_aliased_report: ConsistencyReport

    @property
    def aliased_shares(self) -> dict[str, float]:
        return self.aliased_report.shares()

    @property
    def non_aliased_shares(self) -> dict[str, float]:
        return self.non_aliased_report.shares()

    @property
    def aliased_less_inconsistent(self) -> bool:
        """Table 6's headline: aliased prefixes are far less inconsistent."""
        return (
            self.aliased_shares["inconsistent"]
            <= self.non_aliased_shares["inconsistent"] + 1e-9
        )

    @property
    def aliased_more_timestamp_consistent(self) -> bool:
        return self.aliased_shares["consistent"] >= self.non_aliased_shares["consistent"] - 1e-9


def run(ctx: ExperimentContext, max_prefixes: int = 150) -> Table5Result:
    """Fingerprint aliased /64s and 16-responder non-aliased /64s."""
    probe = FingerprintProbe(ctx.internet, seed=ctx.config.seed ^ 0x7E5)
    checker = ConsistencyChecker()

    # Aliased prefixes detected by APD, normalised to /64 for fingerprinting.
    aliased_64s = []
    seen = set()
    for prefix in ctx.apd_result.aliased_prefixes:
        base = IPv6Prefix.of(prefix.network, 64) if prefix.length >= 64 else prefix
        if base not in seen:
            seen.add(base)
            aliased_64s.append(base)
    # One vectorised pass generates every prefix's 16-probe fan-out, and one
    # probe_batch round decides Table 5's admission condition ("all 16
    # TCP/80 probes answered").  Only admitted prefixes pay for the paired
    # header probes below; admission sees exactly one round of stochastic
    # loss, like the scalar per-prefix loop it replaces.
    fan_prefixes = [p for p in aliased_64s[:max_prefixes] if p.length <= 124]
    targets, prefix_index, _ = batch_fanout_targets(fan_prefixes, ctx.config.seed ^ 0x7E5)
    admission = ctx.internet.probe_batch(targets, (Protocol.TCP80,), day=0)
    answered = admission.responsive[:, 0]
    aliased_records = {}
    for i, prefix in enumerate(fan_prefixes):
        rows = prefix_index == i
        if not (rows.any() and answered[rows].all()):
            continue
        prefix_targets = AddressBatch(targets.hi[rows], targets.lo[rows]).to_addresses()
        records = [r for r in (probe.probe(t) for t in prefix_targets) if r.responded]
        if records:
            aliased_records[prefix] = records

    # Validation set: non-aliased /64s with many responding addresses.
    # Every host indexed by (AS, covering /64), in host order.
    hosts_by_64: dict[tuple[int, IPv6Prefix], list[Host]] = {}
    for h in ctx.internet.hosts:
        hosts_by_64.setdefault((h.asn, IPv6Prefix.of(h.primary_address, 64)), []).append(h)
    non_aliased_records = {}
    hosts = ctx.internet.hosts_by_role(HostRole.WEB_SERVER, HostRole.CDN_EDGE)
    in_aliased = ctx.apd_result.is_aliased_batch(
        AddressBatch.from_addresses([h.primary_address for h in hosts])
    )
    for host, aliased in zip(hosts, in_aliased.tolist()):
        if len(non_aliased_records) >= max_prefixes:
            break
        if Protocol.TCP80 not in host.services or aliased:
            continue
        prefix = IPv6Prefix.of(host.primary_address, 64)
        if prefix in non_aliased_records:
            continue
        # Probe the prefix's actually responding addresses (its hosts), which
        # is what ">= 16 responding IP addresses in a non-aliased /64" means;
        # at simulation scale we accept prefixes with fewer bound addresses.
        same_prefix_hosts = hosts_by_64[(host.asn, prefix)]
        records = [probe.probe(a) for h in same_prefix_hosts for a in h.addresses]
        records = [r for r in records if r.responded]
        if len(records) >= 2:
            non_aliased_records[prefix] = records

    return Table5Result(
        aliased_report=checker.evaluate_many(aliased_records),
        non_aliased_report=checker.evaluate_many(non_aliased_records),
    )


def format_table(result: Table5Result) -> str:
    """Render Table 5 (per-test counts) and Table 6 (shares)."""
    report = result.aliased_report
    per_test = report.inconsistent_per_test()
    cumulative = report.cumulative_inconsistent()
    consistent = report.consistent_after_each_test()
    lines = [f"Table 5 -- {len(report)} aliased prefixes fingerprinted"]
    lines.append("test         incs.   cum-incs.  cum-cons.")
    for test in per_test:
        lines.append(f"{test:<12} {per_test[test]:>5} {cumulative[test]:>10} {consistent[test]:>10}")
    lines.append(f"timestamp-consistent: {report.timestamp_consistent_count()}")
    lines.append("")
    lines.append("Table 6 -- validation")
    lines.append("scan type      incons.   cons.   indec.")
    a, n = result.aliased_shares, result.non_aliased_shares
    lines.append(f"non-aliased    {n['inconsistent']:7.1%} {n['consistent']:7.1%} {n['indecisive']:7.1%}")
    lines.append(f"aliased        {a['inconsistent']:7.1%} {a['consistent']:7.1%} {a['indecisive']:7.1%}")
    return "\n".join(lines)
