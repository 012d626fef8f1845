"""Shared experiment context.

Building the simulated Internet, assembling sources, running APD and running
a full five-protocol sweep are the expensive steps every experiment needs.
The context builds each of them lazily, exactly once, and caches the result
so that running all experiments (or all benchmarks) costs one pipeline run
plus per-experiment analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult
from repro.core.hitlist import Hitlist
from repro.exec import ExecutionPolicy
from repro.netmodel.config import InternetConfig
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import DailyScanResult, ScanScheduler
from repro.probing.zmap import ScanResult
from repro.sources.registry import SourceAssembly, assemble_all_sources


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Scale and seeding of the experiment pipeline.

    The defaults give an Internet with a few hundred ASes, a hitlist input of
    ~12 k addresses and scan campaigns that complete in tens of seconds --
    roughly three to four orders of magnitude below the paper's absolute
    numbers while preserving the relative structure every experiment checks.
    """

    seed: int = 2018
    num_ases: int = 200
    base_hosts_per_allocation: int = 25
    max_hosts_per_allocation: int = 900
    hitlist_target: int = 12_000
    runup_days: int = 180
    longitudinal_days: int = 14
    apd_min_targets: int = 100
    # Stochastic knobs, mirroring the InternetConfig defaults.  Zero out the
    # first two and disable the third for a fully deterministic Internet --
    # the substrate of the golden-snapshot regression tests, where every
    # experiment output is a pure function of the configuration.
    packet_loss: float = 0.015
    icmp_rate_limited_share: float = 0.02
    stochastic_anomalies: bool = True
    # Extra InternetConfig fields applied on top of the derived configuration,
    # as a sorted tuple of (field, value) pairs so the config stays hashable.
    # This is how scenario presets (repro.scenarios) reach Internet-only knobs
    # -- aliased_region_rate, deaggregation_rate, uptimes, ... -- through an
    # ExperimentConfig without widening this dataclass for each of them.
    internet_overrides: tuple[tuple[str, object], ...] = ()

    def internet_config(self) -> InternetConfig:
        """The matching simulated-Internet configuration."""
        config = InternetConfig(
            seed=self.seed,
            num_ases=self.num_ases,
            base_hosts_per_allocation=self.base_hosts_per_allocation,
            max_hosts_per_allocation=self.max_hosts_per_allocation,
            study_days=max(30, self.longitudinal_days + 2),
            packet_loss=self.packet_loss,
            icmp_rate_limited_share=self.icmp_rate_limited_share,
            stochastic_anomalies=self.stochastic_anomalies,
        )
        if self.internet_overrides:
            config = replace(config, **dict(self.internet_overrides))
        return config


#: Configuration used by the benchmark harness and EXPERIMENTS.md.
DEFAULT_EXPERIMENT_CONFIG = ExperimentConfig()

#: Smaller configuration for integration tests of the experiment modules.
TEST_EXPERIMENT_CONFIG = ExperimentConfig(
    seed=7,
    num_ases=80,
    base_hosts_per_allocation=12,
    max_hosts_per_allocation=300,
    hitlist_target=3_000,
    runup_days=60,
    longitudinal_days=6,
)


class ExperimentContext:
    """Lazily built, cached pipeline artefacts shared by all experiments.

    ``policy`` reaches every engine-paired step an experiment runs: the
    context's own day-0 APD and the detectors, clusterings, window mergers
    and generation pipelines the experiments build over it.
    """

    def __init__(
        self,
        config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.config = config
        self.policy = policy

    # -- substrate -----------------------------------------------------------------

    @cached_property
    def internet(self) -> SimulatedInternet:
        """The simulated IPv6 Internet."""
        return SimulatedInternet(self.config.internet_config())

    @cached_property
    def assembly(self) -> SourceAssembly:
        """All daily-scanned hitlist sources."""
        return assemble_all_sources(
            self.internet,
            total_target=self.config.hitlist_target,
            seed=self.config.seed ^ 0xA55,
            runup_days=self.config.runup_days,
        )

    @cached_property
    def hitlist(self) -> Hitlist:
        """The merged hitlist input (all sources, full run-up)."""
        return Hitlist.from_assembly(self.assembly)

    # -- aliased prefix detection ------------------------------------------------------

    @cached_property
    def apd_config(self) -> APDConfig:
        return APDConfig(min_targets_per_prefix=self.config.apd_min_targets)

    @cached_property
    def apd_result(self) -> APDResult:
        """Day-0 multi-level APD over the full hitlist."""
        detector = AliasedPrefixDetector(
            self.internet,
            self.apd_config,
            seed=self.config.seed ^ 0xA9D,
            policy=self.policy,
        )
        return detector.run(self.hitlist.addresses, day=0)

    @cached_property
    def aliased_split(self) -> tuple[list[IPv6Address], list[IPv6Address]]:
        """The hitlist split into (aliased, non-aliased) addresses."""
        return self.apd_result.split(self.hitlist.addresses)

    @property
    def aliased_addresses(self) -> list[IPv6Address]:
        return self.aliased_split[0]

    @property
    def non_aliased_addresses(self) -> list[IPv6Address]:
        return self.aliased_split[1]

    # -- scans ---------------------------------------------------------------------------

    @cached_property
    def day0_sweep(self) -> Mapping[Protocol, ScanResult]:
        """Five-protocol day-0 sweep over the non-aliased scan targets."""
        scheduler = ScanScheduler(self.internet, ALL_PROTOCOLS, seed=self.config.seed ^ 0x5CA)
        return scheduler.run_day(self.non_aliased_addresses, day=0).results

    @cached_property
    def day0_responsive(self) -> set[IPv6Address]:
        """Addresses responsive on at least one protocol on day 0."""
        responsive: set[IPv6Address] = set()
        for result in self.day0_sweep.values():
            responsive |= result.responsive
        return responsive

    @cached_property
    def longitudinal_campaign(self) -> Sequence[DailyScanResult]:
        """Multi-day campaign over the day-0 responsive addresses (Figure 8)."""
        scheduler = ScanScheduler(self.internet, ALL_PROTOCOLS, seed=self.config.seed ^ 0x10E)
        targets = sorted(self.day0_responsive, key=lambda a: a.value)
        return scheduler.run_fixed_campaign(targets, days=range(self.config.longitudinal_days))

    # -- convenience ------------------------------------------------------------------------

    def responsive_on(self, protocol: Protocol) -> set[IPv6Address]:
        """Day-0 responsive addresses for one protocol."""
        result = self.day0_sweep.get(protocol)
        return result.responsive if result else set()

    def bgp_prefix_counts(self, addresses: Sequence[IPv6Address]) -> dict:
        """Addresses per covering BGP prefix (zesplot colour values).

        Vectorised: one flattened-LPM lookup (shared with ``probe_batch``)
        for the whole address list instead of a trie walk per address.
        """
        if not addresses:
            return {}
        batch = (
            addresses
            if isinstance(addresses, AddressBatch)
            else AddressBatch.from_addresses(addresses)
        )
        flat = self.internet.bgp_lpm()
        indices = flat.lookup_indices(batch)
        covered = indices[indices >= 0]
        if not covered.size:
            return {}
        unique, unique_counts = np.unique(covered, return_counts=True)
        return {
            flat.objects[i].prefix: int(c)
            for i, c in zip(unique.tolist(), unique_counts.tolist())
        }

    def bgp_origin_map(self) -> dict:
        """Announced prefix -> origin ASN for zesplot ordering."""
        return {ann.prefix: ann.origin_asn for ann in self.internet.bgp}
