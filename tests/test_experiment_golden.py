"""Golden-snapshot regression tests for experiment outputs.

Table 5 / Figure 6 are run against a fully deterministic Internet
(``packet_loss=0``, ``icmp_rate_limited_share=0``,
``stochastic_anomalies=False``): every output below is a pure function of
the configuration, reproducible across processes, Python versions and hash
seeds.  The snapshots pin the exact measured values so that future
vectorization PRs cannot silently drift experiment results -- an engine
change that alters any of these numbers is a behaviour change, not a
refactor, and must update the goldens explicitly.
"""

import pytest

from repro.experiments import fig6, table5
from repro.experiments.context import ExperimentConfig, ExperimentContext

#: Deterministic small-scale configuration (stochastic knobs zeroed).
GOLDEN_CONFIG = ExperimentConfig(
    seed=2018,
    num_ases=60,
    base_hosts_per_allocation=10,
    max_hosts_per_allocation=250,
    hitlist_target=2500,
    runup_days=40,
    longitudinal_days=4,
    apd_min_targets=60,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)


@pytest.fixture(scope="module")
def golden_ctx() -> ExperimentContext:
    return ExperimentContext(GOLDEN_CONFIG)


class TestFig6Golden:
    @pytest.fixture(scope="class")
    def result(self, golden_ctx):
        return fig6.run(golden_ctx)

    def test_response_counts(self, result):
        assert result.responsive_addresses == 621
        assert result.covered_prefixes == 61
        assert result.covered_ases == 29

    def test_coverage_denominators(self, result):
        assert result.announced_prefixes == 186
        assert result.input_covered_prefixes == 106

    def test_derived_shares(self, result):
        assert result.response_prefix_share == pytest.approx(61 / 186)
        assert result.responses_track_input == pytest.approx(61 / 106)


class TestTable5Golden:
    @pytest.fixture(scope="class")
    def result(self, golden_ctx):
        return table5.run(golden_ctx, max_prefixes=80)

    def test_fingerprinted_prefix_counts(self, result):
        assert len(result.aliased_report) == 62
        assert len(result.non_aliased_report) == 80

    def test_aliased_prefixes_fully_consistent(self, result):
        # On the deterministic Internet every aliased /64 is one machine:
        # no fingerprint test may flag an inconsistency.
        assert result.aliased_report.inconsistent_per_test() == {
            "ittl": 0,
            "optionstext": 0,
            "wscale": 0,
            "mss": 0,
            "wsize": 0,
        }
        assert result.aliased_report.timestamp_consistent_count() == 30

    def test_share_snapshots(self, result):
        assert result.aliased_shares == pytest.approx(
            {"inconsistent": 0.0, "consistent": 30 / 62, "indecisive": 32 / 62}
        )
        assert result.non_aliased_shares == pytest.approx(
            {"inconsistent": 78 / 80, "consistent": 2 / 80, "indecisive": 0.0}
        )

    def test_headline_claims_hold(self, result):
        assert result.aliased_less_inconsistent
        assert result.aliased_more_timestamp_consistent
