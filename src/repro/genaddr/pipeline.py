"""The paper's address-generation methodology (Section 7.1).

Steps, as described in the paper:

1. use all hitlist addresses in **non-aliased** prefixes as the seed list
   (generating inside aliased prefixes would trivially inflate response rates);
2. split the seeds by origin AS, keeping ASes with at least 100 addresses;
3. take a random sample of at most 100 k seeds per AS;
4. run Entropy/IP and 6Gen per AS to generate up to a fixed number of
   candidate addresses each;
5. take a random sample of at most 100 k generated addresses per AS and tool;
6. probe the generated addresses (new, routable, non-aliased ones only) on
   all protocols.

The absolute numbers are scaled down by the pipeline's parameters; the
relative behaviour (low overall response rate, 6Gen ahead of Entropy/IP,
small but highly responsive overlap) is what the Table 7 / Figure 9
experiments check.

Two engines run the same methodology, selected by ``policy.reference``:

* the fast engine (default) keeps everything columnar: per-AS seed
  partitioning is one flattened-LPM lookup over the BGP table, the
  generators emit packed uint64 hi/lo batches, hitlist dedup is one
  ``union_sorted`` binary-search merge, aliased filtering reuses the cached
  APD verdicts (``APDResult.is_aliased_batch``), and both tools' candidates
  are probed with a single ``probe_batch`` sweep whose (candidate x
  protocol) matrix backs the report.
* the reference engine is the original scalar loop, kept for seeded
  parity: both engines consume the pipeline's random stream identically, so
  they emit bit-identical candidate sets and per-AS reports, and (the probes
  being keyed draws) identical responsive sets.  It probes one address at a
  time through :meth:`ScanScheduler.run_day` and records the replies into
  the same containers: a :class:`GenerationReport` holds candidate batches
  and sweep matrices on both engines.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, union_sorted
from repro.addr.generate import dedupe, sample_capped, sample_capped_batch
from repro.exec import ExecutionPolicy
from repro.genaddr.entropy_ip import EntropyIPGenerator, EntropyIPModel
from repro.genaddr.sixgen import SixGenGenerator
from repro.netmodel.internet import BatchProbeResult, SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import ScanScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only (core sits above this layer)
    from repro.core.apd import APDResult

#: The two generation tools, in report order.
TOOLS = ("entropy_ip", "6gen")


class PerASGeneration:
    """Generated addresses of one tool for one AS.

    Stored as an :class:`AddressBatch` in the tool's output order; the
    scalar :attr:`generated` list view is materialised only when a consumer
    asks for addresses.
    """

    __slots__ = ("asn", "tool", "seeds", "generated_batch")

    def __init__(self, asn: int, tool: str, seeds: int, batch: AddressBatch):
        self.asn = asn
        self.tool = tool
        self.seeds = seeds
        #: The generated addresses as a columnar batch.
        self.generated_batch = batch

    @property
    def generated(self) -> list[IPv6Address]:
        """The generated addresses (scalar view, materialised on demand)."""
        return self.generated_batch.to_addresses()

    @property
    def generated_count(self) -> int:
        """Number of generated addresses (no scalar materialisation)."""
        return len(self.generated_batch)

    def __repr__(self) -> str:
        return (
            f"PerASGeneration(asn={self.asn}, tool={self.tool!r}, "
            f"seeds={self.seeds}, generated={self.generated_count})"
        )


class GenerationReport:
    """Outcome of the full generation + probing pipeline.

    Both engines store the same containers: per tool, a candidate batch and
    the read-only :class:`~repro.netmodel.internet.BatchProbeResult` of its
    sweep, with the sweep's rows aligned to the batch's.  Counts, rates and
    protocol combinations come straight off the matrices; the address sets
    are the sweeps' own, built lazily at the read boundary.
    """

    def __init__(self):
        self.per_as: list[PerASGeneration] = []
        self._candidates: dict[str, tuple[IPv6Address, ...]] = {}
        self._candidate_batches: dict[str, AddressBatch] = {}
        self._sweeps: dict[str, BatchProbeResult] = {}

    # -- storage (filled by the pipeline engines) ---------------------------------

    def set_candidate_batch(self, tool: str, batch: AddressBatch) -> None:
        """Store one tool's candidates (the rows of its sweep, if probed)."""
        self._candidate_batches[tool] = batch

    def set_sweep(self, tool: str, sweep: BatchProbeResult) -> None:
        """Store one tool's scan."""
        self._sweeps[tool] = sweep

    # -- candidate views ----------------------------------------------------------

    @property
    def candidates(self) -> Mapping[str, tuple[IPv6Address, ...]]:
        """Deduplicated, routed, previously unknown addresses per tool.

        A read-only view of tuples: every reader shares the cached ones.
        """
        for tool, batch in self._candidate_batches.items():
            if tool not in self._candidates:
                self._candidates[tool] = tuple(batch.to_addresses())
        return MappingProxyType(self._candidates)

    def candidate_batch(self, tool: str) -> AddressBatch:
        """One tool's candidates as a columnar batch."""
        return self._candidate_batches.get(tool, AddressBatch.empty())

    def generated_count(self, tool: str) -> int:
        """Total candidate addresses produced by one tool."""
        return len(self.candidate_batch(tool))

    # -- responsiveness views -----------------------------------------------------

    @property
    def responsive(self) -> dict[str, dict[Protocol, frozenset[IPv6Address]]]:
        """Responsive addresses per tool and protocol (lazy scalar view)."""
        return {
            tool: {protocol: sweep.responsive_on(protocol) for protocol in sweep.protocols}
            for tool, sweep in self._sweeps.items()
        }

    def responsive_matrix(self, tool: str) -> np.ndarray | None:
        """The read-only (candidate x protocol) matrix (None when not probed)."""
        sweep = self._sweeps.get(tool)
        return None if sweep is None else sweep.responsive

    def responsive_any(self, tool: str) -> frozenset[IPv6Address]:
        """Addresses of one tool responsive on at least one protocol."""
        sweep = self._sweeps.get(tool)
        return frozenset() if sweep is None else sweep.responsive_on()

    def responsive_any_count(self, tool: str) -> int:
        """Responsive-candidate count (a matrix sum)."""
        sweep = self._sweeps.get(tool)
        return 0 if sweep is None else sweep.count_responsive()

    def response_rate(self, tool: str) -> float:
        """Responsive share of one tool's candidates."""
        generated = self.generated_count(tool)
        return self.responsive_any_count(tool) / generated if generated else 0.0

    def overlap_candidates(
        self, tool_a: str = "entropy_ip", tool_b: str = "6gen"
    ) -> set[IPv6Address]:
        """Candidate addresses produced by both tools."""
        return set(self.candidates.get(tool_a, ())) & set(self.candidates.get(tool_b, ()))

    def overlap_responsive(
        self, tool_a: str = "entropy_ip", tool_b: str = "6gen"
    ) -> frozenset[IPv6Address]:
        """Responsive addresses found by both tools."""
        return self.responsive_any(tool_a) & self.responsive_any(tool_b)

    def protocol_combination_shares(self, tool: str) -> dict[tuple[Protocol, ...], float]:
        """Share of responsive addresses per exact protocol combination (Table 7).

        Combinations are keyed by protocol bitmask and emitted in ascending
        mask order, so tied shares always rank the same.
        """
        sweep = self._sweeps.get(tool)
        if sweep is None:
            return {}
        matrix = sweep.responsive
        any_mask = matrix.any(axis=1)
        total = int(any_mask.sum())
        if not total:
            return {}
        bits = matrix[any_mask] @ (1 << np.arange(len(sweep.protocols)))
        combos, combo_counts = np.unique(bits, return_counts=True)
        return {
            tuple(p for j, p in enumerate(sweep.protocols) if combo >> j & 1): int(count) / total
            for combo, count in zip(combos.tolist(), combo_counts.tolist())
        }


class GenerationPipeline:
    """Per-AS Entropy/IP + 6Gen generation and probing (two seeded engines)."""

    def __init__(
        self,
        internet: SimulatedInternet,
        min_seeds_per_as: int = 100,
        seed_cap_per_as: int = 100_000,
        generation_budget_per_as: int = 2_000,
        generated_cap_per_as: int = 100_000,
        seed: int = 0,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.internet = internet
        self.min_seeds_per_as = min_seeds_per_as
        self.seed_cap_per_as = seed_cap_per_as
        self.generation_budget_per_as = generation_budget_per_as
        self.generated_cap_per_as = generated_cap_per_as
        self.policy = policy
        self._rng = random.Random(seed)

    # -- seed preparation ------------------------------------------------------------

    def seeds_by_as(
        self, non_aliased_addresses: Iterable[IPv6Address]
    ) -> dict[int, list[IPv6Address]]:
        """Group non-aliased seed addresses by origin AS and apply the caps."""
        groups: dict[int, list[IPv6Address]] = {}
        for address in non_aliased_addresses:
            asn = self.internet.asn_of(address)
            if asn is None:
                continue
            groups.setdefault(asn, []).append(address)
        eligible: dict[int, list[IPv6Address]] = {}
        for asn, addresses in groups.items():
            if len(addresses) < self.min_seeds_per_as:
                continue
            eligible[asn] = sample_capped(dedupe(addresses), self.seed_cap_per_as, self._rng)
        return eligible

    def seeds_by_as_batch(self, seeds: AddressBatch) -> dict[int, AddressBatch]:
        """Batch counterpart of :meth:`seeds_by_as` (same addresses, same draws).

        One flattened-LPM lookup maps the whole seed batch to origin ASes;
        a stable argsort groups rows per AS while preserving input order, and
        the eligible groups are visited in first-appearance order so the
        shared random stream advances exactly like the scalar path.
        """
        eligible: dict[int, AddressBatch] = {}
        if len(seeds) == 0:
            return eligible
        flat = self.internet.bgp_lpm()
        indices = flat.lookup_indices(seeds)
        covered = np.flatnonzero(indices >= 0)
        if not covered.size:
            return eligible
        origin_of = np.fromiter(
            (announcement.origin_asn for announcement in flat.objects),
            np.int64,
            len(flat.objects),
        )
        asns = origin_of[indices[covered]]
        order = np.argsort(asns, kind="stable")
        positions = covered[order]
        grouped = asns[order]
        boundary = np.ones(grouped.shape[0], dtype=bool)
        boundary[1:] = grouped[1:] != grouped[:-1]
        starts = np.flatnonzero(boundary).tolist() + [grouped.shape[0]]
        # Stable sort keeps original positions ascending inside a group, so
        # positions[start] is each AS's first appearance in the input.
        group_spans = sorted(
            zip(starts, starts[1:]), key=lambda span: positions[span[0]]
        )
        for start, end in group_spans:
            if end - start < self.min_seeds_per_as:
                continue
            members = seeds.take(positions[start:end])
            eligible[int(grouped[start])] = sample_capped_batch(
                members.unique_stable(), self.seed_cap_per_as, self._rng
            )
        return eligible

    # -- generation --------------------------------------------------------------------

    def run(
        self,
        non_aliased_addresses: "Sequence[IPv6Address] | AddressBatch",
        known_addresses: "Iterable[IPv6Address] | AddressBatch" = (),
        day: int = 0,
        probe: bool = True,
        apd_result: "APDResult | None" = None,
    ) -> GenerationReport:
        """Run the full pipeline and (optionally) probe the generated targets.

        Both address inputs may be batches or address lists; the fast engine
        reads a batch as it is.  With *apd_result* given, generated candidates falling inside prefixes
        the detector labelled aliased are dropped before probing -- reusing
        the cached APD verdicts instead of re-probing any prefix.
        """
        if self.policy.reference:
            return self._run_reference(
                non_aliased_addresses, known_addresses, day, probe, apd_result
            )
        return self._run_batch(non_aliased_addresses, known_addresses, day, probe, apd_result)

    def _run_reference(
        self,
        non_aliased_addresses: "Sequence[IPv6Address] | AddressBatch",
        known_addresses: "Iterable[IPv6Address] | AddressBatch",
        day: int,
        probe: bool,
        apd_result: "APDResult | None",
    ) -> GenerationReport:
        """The original scalar loop, kept for seeded parity."""
        non_aliased_addresses = list(non_aliased_addresses)
        known = {a.value for a in known_addresses} or {a.value for a in non_aliased_addresses}
        report = GenerationReport()
        seeds_by_as = self.seeds_by_as(non_aliased_addresses)
        raw_by_tool: dict[str, list[IPv6Address]] = {tool: [] for tool in TOOLS}
        for asn, seeds in sorted(seeds_by_as.items()):
            self._rng.getrandbits(32)  # one draw per AS: the capping samples' stream
            budget = self.generation_budget_per_as
            entropy_model = EntropyIPModel(seeds)
            entropy_addresses = EntropyIPGenerator(entropy_model).generate(budget)
            sixgen_addresses = SixGenGenerator(seeds, policy=self.policy).generate(budget)
            for tool, addresses in zip(TOOLS, (entropy_addresses, sixgen_addresses)):
                capped = sample_capped(addresses, self.generated_cap_per_as, self._rng)
                raw_by_tool[tool].extend(capped)
                report.per_as.append(
                    PerASGeneration(
                        asn=asn,
                        tool=tool,
                        seeds=len(seeds),
                        batch=AddressBatch.from_addresses(capped),
                    )
                )
        for tool, addresses in raw_by_tool.items():
            candidates = [
                a
                for a in dedupe(addresses)
                if a.value not in known
                and self.internet.bgp.is_routed(a)
                and not (apd_result is not None and apd_result.is_aliased(a))
            ]
            # Kept in dedupe order; the sweep's rows follow the same order.
            report.set_candidate_batch(tool, AddressBatch.from_addresses(candidates))
        if probe:
            scheduler = ScanScheduler(
                self.internet, ALL_PROTOCOLS, seed=self._rng.getrandbits(32)
            )
            for tool in TOOLS:
                report.set_sweep(tool, scheduler.run_day(report.candidates[tool], day))
        return report

    def _run_batch(
        self,
        non_aliased_addresses: "Sequence[IPv6Address] | AddressBatch",
        known_addresses: "Iterable[IPv6Address] | AddressBatch",
        day: int,
        probe: bool,
        apd_result: "APDResult | None",
    ) -> GenerationReport:
        """The columnar loop: batches end to end, one probe sweep."""
        seeds = (
            non_aliased_addresses
            if isinstance(non_aliased_addresses, AddressBatch)
            else AddressBatch.from_addresses(non_aliased_addresses)
        )
        known = (
            known_addresses
            if isinstance(known_addresses, AddressBatch)
            else AddressBatch.from_addresses(known_addresses)
        )
        known_sorted = (known if len(known) else seeds).unique()
        report = GenerationReport()
        seeds_by_as = self.seeds_by_as_batch(seeds)
        raw_by_tool: dict[str, list[AddressBatch]] = {tool: [] for tool in TOOLS}
        for asn, seed_batch in sorted(seeds_by_as.items()):
            self._rng.getrandbits(32)  # one draw per AS: the capping samples' stream
            budget = self.generation_budget_per_as
            entropy_model = EntropyIPModel(seed_batch)
            entropy_batch = EntropyIPGenerator(entropy_model).generate_batch(budget)
            sixgen_batch = SixGenGenerator(seed_batch, policy=self.policy).generate_batch(budget)
            for tool, generated in zip(TOOLS, (entropy_batch, sixgen_batch)):
                capped = sample_capped_batch(generated, self.generated_cap_per_as, self._rng)
                raw_by_tool[tool].append(capped)
                report.per_as.append(
                    PerASGeneration(asn=asn, tool=tool, seeds=len(seed_batch), batch=capped)
                )
        bgp = self.internet.bgp_lpm()
        for tool, batches in raw_by_tool.items():
            pool = AddressBatch.concatenate(batches).unique()
            _, _, _, is_new = union_sorted(known_sorted, pool)
            fresh = pool.take(is_new)
            if len(fresh):
                fresh = fresh.take(bgp.lookup_indices(fresh) >= 0)
            if apd_result is not None and len(fresh):
                fresh = fresh.take(~apd_result.is_aliased_batch(fresh))
            report.set_candidate_batch(tool, fresh)
        if probe:
            scheduler = ScanScheduler(
                self.internet, ALL_PROTOCOLS, seed=self._rng.getrandbits(32)
            )
            first = report.candidate_batch(TOOLS[0])
            second = report.candidate_batch(TOOLS[1])
            union, first_pos, second_pos, _ = union_sorted(first, second)
            daily = scheduler.run_day_batch(union, day)
            report.set_sweep(TOOLS[0], daily.take(first_pos))
            report.set_sweep(TOOLS[1], daily.take(second_pos))
        return report
