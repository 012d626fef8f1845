"""Edge cases of the sliding window and the bias metrics.

Covers the corners the parity suites skip: empty and single-day windows, a
prefix responsive on exactly the fan-out boundary, non-default fan-out sizes,
and bias/coverage metrics for degenerate (single-AS, empty) hitlists.
"""

from collections import Counter

import pytest

from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import APDResult, PrefixProbeOutcome
from repro.core.bias import (
    concentration_index,
    coverage_stats,
    gini_coefficient,
    top_x_fractions,
)
from repro.core.sliding_window import SlidingWindowMerger
from repro.exec import ExecutionPolicy
from repro.netmodel.services import Protocol

PREFIX = IPv6Prefix(0x2001_0DB8_0407_8000 << 64, 64)


def outcome_with(responsive: int, total: int = 16, day: int = 0) -> PrefixProbeOutcome:
    """A probe outcome with *responsive* of *total* fan-out branches answering."""
    targets = [IPv6Address(PREFIX.network | (i + 1)) for i in range(total)]
    responses = [
        {Protocol.ICMP} if i < responsive else set() for i in range(total)
    ]
    return PrefixProbeOutcome(
        prefix=PREFIX, day=day, targets=targets, branch_responses=responses
    )


def merger_for(outcomes_by_day: dict, reference: bool) -> SlidingWindowMerger:
    daily = {
        day: APDResult(day=day, outcomes={PREFIX: outcome})
        for day, outcome in outcomes_by_day.items()
    }
    return SlidingWindowMerger(daily, policy=ExecutionPolicy(reference=reference))


class TestWindowEdges:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowMerger({})

    @pytest.mark.parametrize("reference", [True, False], ids=["reference", "fast"])
    def test_single_day_window(self, reference):
        merger = merger_for({0: outcome_with(16)}, reference)
        assert merger.days == [0]
        stats = merger.window_stats(0)
        assert stats.total_prefixes == 1
        assert stats.aliased_final == 1
        assert stats.unstable_prefixes == 0  # one verdict can never flip
        assert merger.final_aliased_prefixes(0) == [PREFIX]

    @pytest.mark.parametrize("reference", [True, False], ids=["reference", "fast"])
    def test_window_larger_than_history(self, reference):
        """A window longer than the history yields no verdict days at all."""
        merger = merger_for({0: outcome_with(16)}, reference)
        stats = merger.window_stats(3)
        assert stats.unstable_prefixes == 0
        assert merger_for({0: outcome_with(16)}, "scalar").daily_verdicts(PREFIX, 3) == []

    @pytest.mark.parametrize("reference", [True, False], ids=["reference", "fast"])
    def test_exact_fanout_boundary(self, reference):
        """16/16 responsive branches is aliased; 15/16 is not."""
        at_boundary = merger_for({0: outcome_with(16)}, reference)
        below = merger_for({0: outcome_with(15)}, reference)
        assert at_boundary.window_stats(0).aliased_final == 1
        assert below.window_stats(0).aliased_final == 0
        assert at_boundary.windowed_is_aliased(PREFIX, 0, 0)
        assert not below.windowed_is_aliased(PREFIX, 0, 0)

    @pytest.mark.parametrize("reference", [True, False], ids=["reference", "fast"])
    def test_non_default_fanout_judged_against_its_own_size(self, reference):
        """A 4-target outcome with 4 responses is aliased (not judged vs 16)."""
        merger = merger_for({0: outcome_with(4, total=4)}, reference)
        assert merger.window_stats(0).aliased_final == 1

    @pytest.mark.parametrize("reference", [True, False], ids=["reference", "fast"])
    def test_window_merges_partial_days_across_the_boundary(self, reference):
        """8 + 8 disjoint branches over two days only alias once merged."""
        first = outcome_with(16, day=0)
        first.branch_responses = [
            {Protocol.ICMP} if i < 8 else set() for i in range(16)
        ]
        second = outcome_with(16, day=1)
        second.branch_responses = [
            set() if i < 8 else {Protocol.TCP80} for i in range(16)
        ]
        merger = merger_for({0: first, 1: second}, reference)
        assert not merger.windowed_is_aliased(PREFIX, 1, 0)
        assert merger.windowed_is_aliased(PREFIX, 1, 1)


class TestBiasEdges:
    def test_empty_counts(self):
        assert top_x_fractions(Counter()) == []
        assert concentration_index(Counter()) == 0.0
        assert gini_coefficient(Counter()) == 0.0

    def test_empty_hitlist_coverage(self, tiny_internet):
        stats = coverage_stats([], tiny_internet)
        assert stats.num_addresses == 0
        assert stats.num_ases == 0
        assert stats.top_as_share == 0.0
        assert stats.as_gini == 0.0

    def test_single_as_hitlist_is_maximally_concentrated(self, tiny_internet):
        plan = tiny_internet.plans[0]
        addresses = [a for host in plan.hosts for a in host.addresses][:50]
        assert addresses
        stats = coverage_stats(addresses, tiny_internet)
        assert stats.num_ases == 1
        assert stats.top_as_share == 1.0
        assert stats.as_gini == 0.0

    def test_single_group_fractions(self):
        counts = Counter({"AS1": 7})
        assert top_x_fractions(counts) == [1.0]
        assert concentration_index(counts, top=5) == 1.0
        assert gini_coefficient(counts) == 0.0
