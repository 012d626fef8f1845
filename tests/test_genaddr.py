"""Tests for the Entropy/IP and 6Gen generators and the generation pipeline."""

import functools
import random

import numpy as np
import pytest

from repro.addr import IPv6Address, IPv6Prefix
from repro.exec import ExecutionPolicy
from repro.genaddr import (
    EntropyIPGenerator,
    EntropyIPModel,
    GenerationPipeline,
    SixGenGenerator,
)
from repro.genaddr.entropy_ip import MAX_SEGMENT_WIDTH, segment_positions
from repro.genaddr.sixgen import MAX_CLUSTERS, SeedCluster
from repro.netmodel.schemes import AddressingScheme, generate_addresses

#: The fast engine and its scalar reference twin.
POLICIES = (ExecutionPolicy(), ExecutionPolicy(reference=True))


def _seeds(scheme=AddressingScheme.LOW_COUNTER, count=200, seed=0, prefix="2001:db8::/32"):
    rng = random.Random(seed)
    return generate_addresses(scheme, IPv6Prefix.parse(prefix), count, rng)


class TestSegmentation:
    def test_empty(self):
        assert segment_positions([]) == []

    def test_uniform_entropy_single_segment(self):
        segments = segment_positions([0.0] * 6)
        assert segments == [(1, 6)]

    def test_entropy_jump_splits(self):
        segments = segment_positions([0.0, 0.0, 0.9, 0.9])
        assert segments == [(1, 2), (3, 4)]

    def test_max_width_enforced(self):
        segments = segment_positions([0.5] * 20)
        assert all(end - start + 1 <= MAX_SEGMENT_WIDTH for start, end in segments)
        assert segments[0][0] == 1 and segments[-1][1] == 20

    def test_segments_are_contiguous(self):
        segments = segment_positions([0.1, 0.2, 0.9, 0.1, 0.5, 0.5])
        flat = [p for s, e in segments for p in range(s, e + 1)]
        assert flat == list(range(1, 7))

    def test_running_mean_adds_left_to_right(self):
        """0.05 + 0.1 + 0.15 rounds up when added left to right, so 0.2 stays
        within 0.1 of the mean.  The compensated builtin sum() of Python
        3.12 and later rounds it down and would split 0.2 off."""
        assert segment_positions([0.05, 0.1, 0.15, 0.2]) == [(1, 4)]


class TestEntropyIPModel:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            EntropyIPModel([])

    def test_segments_cover_all_nybbles(self):
        model = EntropyIPModel(_seeds())
        assert model.segments[0].start == 1
        assert model.segments[-1].end == 32
        covered = sum(s.width for s in model.segments)
        assert covered == 32

    def test_segment_probabilities_normalised(self):
        model = EntropyIPModel(_seeds())
        for index, segment_model in enumerate(model.segment_models):
            assert segment_model.marginal_probabilities.sum() == pytest.approx(1.0)
            for previous_id in range(len(segment_model.pointer) - 1):
                row = model.candidate_values(index, previous_id)
                assert row.probabilities.sum() == pytest.approx(1.0)

    def test_is_seed(self):
        seeds = _seeds(count=50)
        model = EntropyIPModel(seeds)
        assert model.is_seed(seeds[0].value)
        assert not model.is_seed(IPv6Address.parse("2a00::1").value)
        assert len(model.seed_batch) == 50

    def test_wide_segments_keep_distinct_values(self):
        """Random addresses make segments of the widest kind, eight nybbles,
        and each keeps every distinct value the seeds show there."""
        rng = random.Random(5)
        seeds = [IPv6Address(rng.getrandbits(128)) for _ in range(40)]
        model = EntropyIPModel(seeds)
        assert max(s.width for s in model.segments) == MAX_SEGMENT_WIDTH
        seed_nybbles = {a.nybbles for a in seeds}
        for segment, segment_model in zip(model.segments, model.segment_models):
            values = [f"{v:0{segment.width}x}" for v in segment_model.alphabet.tolist()]
            expected = {n[segment.start - 1 : segment.end] for n in seed_nybbles}
            assert values == sorted(expected)

    @pytest.mark.parametrize("first_nybble", [0, 33, -3])
    def test_first_nybble_out_of_range(self, first_nybble):
        with pytest.raises(ValueError):
            EntropyIPModel(_seeds(count=20), first_nybble=first_nybble)

    @pytest.mark.parametrize(
        "knob", ["entropy_threshold", "max_segment_width", "max_values_per_segment"]
    )
    def test_segmentation_constants_are_not_options(self, knob):
        with pytest.raises(TypeError):
            EntropyIPModel(_seeds(count=20), **{knob: 8})


class TestEntropyIPGenerator:
    def test_generates_requested_budget(self):
        model = EntropyIPModel(_seeds(AddressingScheme.STRUCTURED, count=200))
        generated = EntropyIPGenerator(model).generate(100)
        assert 0 < len(generated) <= 100
        assert len(set(generated)) == len(generated)

    def test_generated_share_prefix_with_seeds(self):
        seeds = _seeds(AddressingScheme.LOW_COUNTER, count=150)
        model = EntropyIPModel(seeds)
        generated = EntropyIPGenerator(model).generate(50)
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert all(a in prefix for a in generated)

    def test_excludes_seeds_by_default(self):
        seeds = _seeds(AddressingScheme.LOW_COUNTER, count=120)
        model = EntropyIPModel(seeds)
        generated = EntropyIPGenerator(model).generate(200)
        assert not set(generated) & set(seeds)

    def test_include_seeds_option(self):
        seeds = _seeds(AddressingScheme.LOW_COUNTER, count=120)
        model = EntropyIPModel(seeds)
        generated = EntropyIPGenerator(model).generate(200, include_seeds=True)
        assert set(generated) & set(seeds)

    def test_zero_budget(self):
        model = EntropyIPModel(_seeds(count=100))
        assert EntropyIPGenerator(model).generate(0) == []

    def test_most_probable_first(self):
        # Seeds where one last-nybble value dominates: with seeds included, the
        # exhaustive generator must emit the densest (seed) combinations before
        # any previously unseen combination.
        seeds = [IPv6Address.parse(f"2001:db8::{i:x}0") for i in range(14)]
        seeds += [IPv6Address.parse("2001:db8::1"), IPv6Address.parse("2001:db8::2")]
        model = EntropyIPModel(seeds)
        generated = EntropyIPGenerator(model).generate(5, include_seeds=True)
        assert generated
        assert generated[0] in set(seeds)

    @pytest.mark.parametrize(
        "scheme", [AddressingScheme.LOW_COUNTER, AddressingScheme.STRUCTURED]
    )
    def test_generate_batch_matches_scalar(self, scheme):
        model = EntropyIPModel(_seeds(scheme, count=200))
        generator = EntropyIPGenerator(model)
        for budget in (0, 1, 40, 400):
            for include_seeds in (False, True):
                scalar = generator.generate(budget, include_seeds=include_seeds)
                batch = generator.generate_batch(budget, include_seeds=include_seeds)
                assert [a.value for a in scalar] == batch.to_ints(), (
                    budget,
                    include_seeds,
                )


def _cluster(*values: int) -> SeedCluster:
    """The cluster of seed addresses *values*, merged in argument order (row
    *k* is the *k*-th value)."""
    clusters = [
        SeedCluster(
            np.uint16(1)
            << np.array([value >> shift & 0xF for shift in range(124, -4, -4)], np.uint16),
            np.array([row]),
        )
        for row, value in enumerate(values)
    ]
    return functools.reduce(SeedCluster.merged_with, clusters)


class TestSeedCluster:
    def test_from_seed_is_singleton(self):
        cluster = _cluster(0)
        assert cluster.mask.dtype == np.uint16 and cluster.mask.shape == (32,)
        assert cluster.size == 1
        assert cluster.density == 1.0
        assert cluster.values() == [(0,)] * 32

    def test_merge_grows_ranges(self):
        a, b = _cluster(0x1), _cluster(0x2)
        merged = _cluster(0x1, 0x2)
        assert merged.size == 2
        assert merged.values() == [(0,)] * 31 + [(1, 2)]
        assert merged.rows.tolist() == [0, 1]
        assert a.merged_size(b) == 2

    def test_enumerate_respects_budget(self):
        merged = _cluster(0x11, 0x22)
        assert merged.size == 4
        assert len(merged.enumerate_addresses(3)) == 3
        assert len(merged.enumerate_addresses(10)) == 4

    def test_mask_and_rows_are_read_only(self):
        cluster = _cluster(0x1, 0x2)
        with pytest.raises(ValueError):
            cluster.mask[0] = 0xFFFF
        with pytest.raises(ValueError):
            cluster.rows[0] = 5


class TestSeedClusterBudgetEdges:
    @pytest.fixture()
    def wide_cluster(self):
        """A cluster whose wildcard space (3 x 2 = 6) is fully known."""
        merged = _cluster(0x11, 0x22, 0x31)
        assert merged.size == 6
        return merged

    def test_budget_of_zero_and_negative(self, wide_cluster):
        assert wide_cluster.enumerate_addresses(0) == []
        assert wide_cluster.enumerate_addresses(-3) == []
        assert len(wide_cluster.enumerate_batch(0)) == 0
        assert len(wide_cluster.enumerate_batch(-3)) == 0

    def test_wildcard_space_larger_than_budget(self, wide_cluster):
        for budget in range(1, wide_cluster.size):
            scalar = wide_cluster.enumerate_addresses(budget)
            assert len(scalar) == budget
            batch = wide_cluster.enumerate_batch(budget)
            assert [a.value for a in scalar] == batch.to_ints()

    def test_budget_at_and_beyond_size(self, wide_cluster):
        size = wide_cluster.size
        for budget in (size, size + 1, size * 10):
            scalar = wide_cluster.enumerate_addresses(budget)
            assert len(scalar) == size
            assert len(set(scalar)) == size
            assert [a.value for a in scalar] == wide_cluster.enumerate_batch(budget).to_ints()

    def test_enumeration_is_lexicographic(self, wide_cluster):
        enumerated = [a.value for a in wide_cluster.enumerate_addresses(10**6)]
        assert enumerated == [0x11, 0x12, 0x21, 0x22, 0x31, 0x32]

    def test_singleton_cluster_enumerates_itself(self):
        cluster = _cluster(2 << 124)
        assert [a.value for a in cluster.enumerate_addresses(5)] == [2 << 124]
        assert cluster.enumerate_batch(5).to_ints() == [2 << 124]

    def test_network_and_interface_nybbles_vary_together(self):
        """Values at the first nybble and on both sides of the /64 boundary
        land in the right half of the batch's hi/lo pair."""
        cluster = _cluster(0x1 << 124 | 0x3 << 64 | 0x5 << 60, 0xF << 124 | 0xA << 64 | 0x6 << 60)
        assert cluster.size == 8
        scalar = [a.value for a in cluster.enumerate_addresses(8)]
        assert scalar == sorted(scalar)
        for budget in (1, 3, 8):
            assert cluster.enumerate_batch(budget).to_ints() == scalar[:budget]


class TestSixGen:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            SixGenGenerator([])

    def test_generates_new_addresses_in_dense_regions(self):
        seeds = _seeds(AddressingScheme.LOW_COUNTER, count=200)
        generator = SixGenGenerator(seeds)
        generated = generator.generate(300)
        assert generated
        assert not set(generated) & set(seeds)
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert all(a in prefix for a in generated)

    def test_cluster_count_positive(self):
        generator = SixGenGenerator(_seeds(count=100))
        assert 0 < len(generator.clusters) <= MAX_CLUSTERS

    def test_budget_respected(self):
        generator = SixGenGenerator(_seeds(AddressingScheme.STRUCTURED, count=150))
        assert len(generator.generate(40)) <= 40
        assert generator.generate(0) == []

    def test_duplicate_seeds_handled(self):
        seeds = [IPv6Address.parse("2001:db8::1")] * 10 + [IPv6Address.parse("2001:db8::2")]
        generator = SixGenGenerator(seeds)
        assert len(generator.seed_batch) == 2
        assert sorted(generator.clusters[0].rows.tolist()) == [0, 1]

    def test_cluster_of_identical_seeds(self):
        """All-duplicate seed lists collapse to one singleton cluster."""
        seeds = [IPv6Address.parse("2001:db8::1")] * 10
        for policy in POLICIES:
            generator = SixGenGenerator(seeds, policy=policy)
            assert len(generator.clusters) == 1
            assert generator.clusters[0].size == 1
            assert generator.clusters[0].density == 1.0
            # The only enumerable address is the seed itself: excluded by
            # default, returned when seeds are allowed.
            assert generator.generate(10) == []
            assert len(generator.generate_batch(10)) == 0
            included = generator.generate(10, include_seeds=True)
            assert [a.value for a in included] == [seeds[0].value]
            assert generator.generate_batch(10, include_seeds=True).to_ints() == [
                seeds[0].value
            ]

    def test_engines_grow_identical_clusters(self):
        seeds = _seeds(AddressingScheme.STRUCTURED, count=180, seed=2)
        reference = SixGenGenerator(seeds, policy=ExecutionPolicy(reference=True))
        batch = SixGenGenerator(seeds)
        assert [(c.mask.tolist(), c.rows.tolist()) for c in reference.clusters] == [
            (c.mask.tolist(), c.rows.tolist()) for c in batch.clusters
        ]
        for budget in (0, 1, 25, 500):
            assert [
                a.value for a in reference.generate(budget)
            ] == batch.generate_batch(budget).to_ints(), budget

    @pytest.mark.parametrize("knob", ["max_cluster_size", "max_clusters", "seed"])
    def test_constants_are_not_options(self, knob):
        with pytest.raises(TypeError):
            SixGenGenerator(_seeds(count=20), **{knob: 8})

    def test_generate_budget_exceeding_enumerable_space(self):
        """A budget far beyond the clusters' total range must not loop/raise."""
        seeds = [IPv6Address.parse("2001:db8::1"), IPv6Address.parse("2001:db8::3")]
        for policy in POLICIES:
            generator = SixGenGenerator(seeds, policy=policy)
            total_space = sum(c.size for c in generator.clusters)
            generated = generator.generate(10_000)
            assert len(generated) <= total_space
            assert [a.value for a in generated] == generator.generate_batch(
                10_000
            ).to_ints()


class TestGenerationPipeline:
    @pytest.fixture(scope="class")
    def pipeline_report(self, small_internet):
        from repro.netmodel.services import HostRole

        seeds = [
            a
            for a in small_internet.addresses_by_role(
                HostRole.WEB_SERVER, HostRole.DNS_SERVER, HostRole.MAIL_SERVER
            )
            if not small_internet.is_aliased_truth(a)
        ]
        pipeline = GenerationPipeline(
            small_internet,
            min_seeds_per_as=60,
            generation_budget_per_as=200,
            seed=3,
        )
        report = pipeline.run(seeds, day=0, probe=True)
        return seeds, report

    def test_seeds_by_as_threshold(self, small_internet):
        from repro.netmodel.services import HostRole

        seeds = small_internet.addresses_by_role(HostRole.WEB_SERVER)
        pipeline = GenerationPipeline(small_internet, min_seeds_per_as=50, seed=1)
        groups = pipeline.seeds_by_as(seeds)
        assert groups
        assert all(len(v) >= 50 for v in groups.values())

    def test_candidates_are_new_and_routed(self, small_internet, pipeline_report):
        seeds, report = pipeline_report
        seed_set = set(seeds)
        for tool in ("entropy_ip", "6gen"):
            candidates = report.candidates[tool]
            assert candidates
            assert not set(candidates) & seed_set
            assert all(small_internet.bgp.is_routed(a) for a in candidates[:50])

    def test_low_overlap_between_tools(self, pipeline_report):
        _, report = pipeline_report
        overlap = report.overlap_candidates()
        total = report.generated_count("entropy_ip") + report.generated_count("6gen")
        assert len(overlap) < total * 0.25

    def test_response_rates_low(self, pipeline_report):
        _, report = pipeline_report
        for tool in ("entropy_ip", "6gen"):
            assert 0.0 <= report.response_rate(tool) < 0.5

    def test_protocol_combination_shares(self, pipeline_report):
        _, report = pipeline_report
        for tool in ("entropy_ip", "6gen"):
            shares = report.protocol_combination_shares(tool)
            if shares:
                assert sum(shares.values()) == pytest.approx(1.0)

    def test_per_as_records(self, pipeline_report):
        _, report = pipeline_report
        assert report.per_as
        assert {r.tool for r in report.per_as} == {"entropy_ip", "6gen"}

    def test_candidates_cannot_be_changed_by_readers(self, pipeline_report):
        """Every reader shares one cached view of the candidates, and Table 7's
        overlap line reads it: a reader that could clear a tool's list would
        change every later reader's answer."""
        _, report = pipeline_report
        overlap = report.overlap_candidates()
        assert overlap
        with pytest.raises(AttributeError):
            report.candidates["6gen"].clear()
        with pytest.raises(TypeError):
            report.candidates["6gen"] = ()
        assert report.overlap_candidates() == overlap
        assert len(report.candidates["6gen"]) == report.generated_count("6gen")
