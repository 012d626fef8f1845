"""Integration tests: every experiment runs on a small context and its
qualitative (paper-shape) claims hold."""

import pytest

from repro.exec import ExecutionPolicy
from repro.experiments import runner
from repro.experiments.context import TEST_EXPERIMENT_CONFIG, ExperimentContext
from repro.experiments import (
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig10,
    murdock,
    table1,
    table2,
    table3,
    table4,
    table5,
    table7,
    table9,
)
from repro.netmodel.internet import BatchProbeResult, SimulatedInternet
from repro.netmodel.services import Protocol
from repro.probing.scheduler import ScanScheduler


@pytest.fixture(scope="module")
def ctx():
    """One shared experiment context at test scale."""
    return ExperimentContext(TEST_EXPERIMENT_CONFIG)


class TestContext:
    def test_hitlist_nontrivial(self, ctx):
        assert len(ctx.hitlist) > 1000

    def test_apd_removes_a_large_share(self, ctx):
        aliased, clean = ctx.aliased_split
        share = len(aliased) / len(ctx.hitlist)
        assert 0.2 < share < 0.85
        assert len(aliased) + len(clean) == len(ctx.hitlist)

    def test_day0_scan_has_all_protocols(self, ctx):
        assert set(ctx.day0_scan.protocols) == set(Protocol)
        assert ctx.day0_scan.count_responsive()


class TestTable1:
    def test_row_and_claims(self, ctx):
        result = table1.run(ctx)
        assert result.this_work_addresses == len(ctx.hitlist)
        assert result.is_only_full_apd
        assert "This work" in table1.format_table(result)


class TestTable2:
    def test_rows_and_concentration(self, ctx):
        result = table2.run(ctx)
        assert len(result.rows) == 7
        assert result.total.total_ips == len(ctx.hitlist)
        # CT is far more concentrated than RIPE Atlas (Figure 1b / Table 2 shape).
        assert result.top_as_share_ct > result.top_as_share_ripeatlas
        assert "total" in table2.format_table(result)


class TestFig1:
    def test_runup_and_coverage(self, ctx):
        result = fig1.run(ctx)
        for series in result.runup.values():
            assert series == sorted(series)
        assert result.growth_factor("scamper") > 1.5
        assert 0.1 < result.coverage_share <= 1.0
        assert result.zesplot.items
        assert "zesplot" in fig1.format_table(result)


class TestFig2:
    def test_cluster_structure(self, ctx):
        result = fig2.run(ctx, min_addresses=60)
        assert 2 <= result.full_k <= 10
        assert 2 <= result.iid_k <= 10
        assert result.has_popular_low_entropy_cluster
        assert "cluster 1" in fig2.format_table(result)


class TestFig3:
    def test_dns_clusters(self, ctx):
        result = fig3.run(ctx, min_addresses_dns=20, min_addresses_bgp=60)
        assert result.dns_k >= 1
        assert result.dns_clusters_are_low_entropy
        assert len(result.zesplot.items) == result.bgp_clustering.num_networks
        fig3.format_table(result)


class TestTable3:
    def test_fanout_example(self, ctx):
        result = table3.run(ctx)
        assert len(result.targets) == 16
        assert result.covers_all_branches
        assert result.all_inside_prefix
        assert "2001:0db8:0407:8000" in table3.format_table(result)


class TestTable4:
    def test_sliding_window_sweep(self, ctx):
        result = table4.run(ctx, days=range(5), windows=range(4))
        unstable = [s.unstable_prefixes for s in result.stats]
        assert unstable[0] >= unstable[-1]
        table4.format_table(result)


class TestFig4:
    def test_dealiasing_flattens(self, ctx):
        result = fig4.run(ctx)
        assert result.aliased_more_concentrated
        assert result.dealiasing_flattens_as_distribution
        assert 0 <= result.as_coverage_loss < 30
        assert 0.2 < result.aliased_share < 0.85
        fig4.format_table(result)


class TestFig5:
    def test_aliased_prefixes_carry_most_responses(self, ctx):
        result = fig5.run(ctx)
        # Aliased prefixes are a minority of prefixes at paper scale (3 %); at
        # simulation scale they remain well below full coverage while carrying
        # a disproportionate share of the raw response volume.
        assert result.aliased_prefix_share < 0.8
        assert result.aliased_response_share > 0.3
        assert result.responses_unfiltered > result.responses_in_aliased
        fig5.format_table(result)


class TestTable5:
    def test_consistency_contrast(self, ctx):
        result = table5.run(ctx, max_prefixes=60)
        assert len(result.aliased_report) > 5
        assert result.aliased_shares["inconsistent"] < 0.3
        assert result.aliased_less_inconsistent or result.aliased_more_timestamp_consistent
        assert "Table 6" in table5.format_table(result)


class TestMurdock:
    def test_apd_beats_baseline(self, ctx):
        result = murdock.run(ctx)
        assert result.apd_finds_at_least_as_many
        assert result.comparison.apd_aliased_addresses > 0
        murdock.format_table(result)


class TestFig6:
    def test_response_coverage(self, ctx):
        result = fig6.run(ctx)
        assert result.responsive_addresses > 100
        assert 0 < result.covered_prefixes <= result.announced_prefixes
        assert result.covered_ases > 10
        fig6.format_table(result)


class TestFig7:
    def test_matrix_shape(self, ctx):
        result = fig7.run(ctx)
        assert result.icmp_dominates
        assert result.quic_implies_https
        assert result.https_to_quic_weaker
        assert result.icmp_given_any_responsive > 0.8
        for y in Protocol:
            for x in Protocol:
                assert 0.0 <= result.probability(y, x) <= 1.0
        fig7.format_table(result)


class TestFig8:
    def test_longitudinal_shape(self, ctx):
        result = fig8.run(ctx)
        assert result.stable_sources_stay_responsive
        assert result.scamper_decays_fastest
        for timeline in result.timelines.values():
            assert all(0.0 <= r <= 1.0 for r in timeline.retention)
        fig8.format_table(result)


class TestTable7:
    def test_generation_claims(self, ctx):
        result = table7.run(ctx, generation_budget_per_as=150)
        assert result.report.generated_count("entropy_ip") > 0
        assert result.report.generated_count("6gen") > 0
        assert result.low_overall_response_rate
        assert result.tools_mostly_disjoint
        assert "entropy_ip" in table7.format_table(result)


class TestFig10:
    def test_rdns_claims(self, ctx):
        result = fig10.run(ctx, rdns_scale=0.3)
        assert result.mostly_new
        assert result.rdns_no_more_concentrated
        assert result.rdns_is_server_population
        assert result.unrouted_filtered > 0
        assert "Table 8" in fig10.format_table(result)


class TestTable9:
    def test_crowdsourcing_claims(self, ctx):
        result = table9.run(ctx, scale=0.2)
        assert result.mturk_has_more_participants
        assert 0.1 < result.ipv6_rate_mturk < 0.6
        assert result.clients_less_responsive_than_atlas
        assert result.clients_churn_quickly
        assert "platform" in table9.format_table(result)


class TestRunner:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            runner.run_experiment("nope")

    def test_run_single(self, ctx):
        outcome = runner.run_experiment("table3", ctx)
        assert outcome.experiment_id == "table3"
        assert outcome.report

    def test_run_all_selected_shares_module_results(self, ctx):
        outcomes = runner.run_all(ctx, experiment_ids=["table3", "table2", "fig7"])
        assert set(outcomes) == {"table3", "table2", "fig7"}
        assert all(o.report for o in outcomes.values())

    def test_registry_covers_all_paper_artefacts(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            "table8", "table9", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "murdock", "vantage_bias",
        }
        assert set(runner.EXPERIMENTS) == expected


class TestContextPolicy:
    """The context's policy reaches every engine-paired object an experiment
    builds, not only the context's own day-0 APD."""

    @pytest.fixture(scope="class")
    def reference_ctx(self):
        return ExperimentContext(TEST_EXPERIMENT_CONFIG, policy=ExecutionPolicy(reference=True))

    def test_experiments_build_under_the_context_policy(self, reference_ctx, monkeypatch):
        built = []
        for module, name in (
            (fig2, "EntropyClustering"),
            (fig3, "EntropyClustering"),
            (table4, "AliasedPrefixDetector"),
            (table4, "SlidingWindowMerger"),
            (table7, "GenerationPipeline"),
        ):

            def spy(*args, _cls=getattr(module, name), **kwargs):
                obj = _cls(*args, **kwargs)
                built.append((type(obj).__name__, obj.policy))
                return obj

            monkeypatch.setattr(module, name, spy)
        fig2.run(reference_ctx)
        fig3.run(reference_ctx)
        table4.run(reference_ctx, days=range(3), windows=range(2))
        table7.run(reference_ctx, generation_budget_per_as=50)
        assert {name for name, _ in built} == {
            "EntropyClustering",
            "AliasedPrefixDetector",
            "SlidingWindowMerger",
            "GenerationPipeline",
        }
        assert all(policy is reference_ctx.policy for _, policy in built)

    def test_fig2_matches_the_default_context(self, reference_ctx, ctx):
        # Clustering parity between the engines is exact.
        assert fig2.run(reference_ctx) == fig2.run(ctx)

    def test_every_report_matches_the_default_context(self, reference_ctx, ctx):
        reference = runner.run_all(reference_ctx)
        default = runner.run_all(ctx)
        assert set(reference) == set(default) == set(runner.EXPERIMENTS)
        for experiment_id, outcome in default.items():
            assert reference[experiment_id].report == outcome.report, experiment_id

    def test_default_policy_scans_are_columnar(self, ctx, monkeypatch):
        fresh = ExperimentContext(TEST_EXPERIMENT_CONFIG)
        fresh.internet = ctx.internet
        fresh.assembly = ctx.assembly

        def scalar(*args, **kwargs):
            raise AssertionError("scalar probe under the default policy")

        monkeypatch.setattr(ScanScheduler, "run_day", scalar)
        monkeypatch.setattr(SimulatedInternet, "probe", scalar)
        for module in (fig3, fig5, fig7, fig8, fig10, murdock):
            module.run(fresh)
        assert isinstance(fresh.day0_scan, BatchProbeResult)

    def test_reference_policy_scans_are_scalar(self, ctx, monkeypatch):
        fresh = ExperimentContext(TEST_EXPERIMENT_CONFIG, policy=ExecutionPolicy(reference=True))
        fresh.internet = ctx.internet
        fresh.assembly = ctx.assembly

        def batch(*args, **kwargs):
            raise AssertionError("batch scan under the reference policy")

        monkeypatch.setattr(ScanScheduler, "run_day_batch", batch)
        monkeypatch.setattr(SimulatedInternet, "probe_batch", batch)
        fig5.run(fresh)
        fig10.run(fresh, rdns_scale=0.3)
        assert len(fresh.longitudinal_campaign) == TEST_EXPERIMENT_CONFIG.longitudinal_days
