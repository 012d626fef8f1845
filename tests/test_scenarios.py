"""Tests for the scenario registry, composition rules and plumbing."""

import pytest

from repro.__main__ import build_parser, main, resolve_config
from repro.core.hitlist import HitlistService
from repro.exec import ExecutionPolicy
from repro.experiments.context import ExperimentContext
from repro.genaddr import GenerationPipeline
from repro.netmodel.internet import SimulatedInternet
from repro.scenarios import (
    ANOMALY_MIXES,
    BUILD_TARGETS,
    SCALE_TIERS,
    Scenario,
    ScenarioLayer,
    as_scenario,
    build,
    get_scenario,
    iter_scenarios,
    scenario_names,
)
from repro.serving import HitlistServer


class TestRegistry:
    def test_at_least_eight_presets_registered(self):
        assert len(scenario_names()) >= 8

    def test_expected_presets_present(self):
        names = set(scenario_names())
        assert {
            "baseline",
            "cdn-heavy",
            "eui64-cpe-flood",
            "sparse-sources",
            "aliasing-storm",
            "high-churn",
            "deaggregated-swamp",
            "rate-limited",
            "multi-vantage",
            "filtered-region",
            "bgp-churn",
            "subday-churn",
            "rate-limit-recovery",
            "scanner-contention",
            "megascale",
        } <= names

    def test_fuzz_ranges_include_routing_knobs_with_degenerate_ends(self):
        """The differential fuzzer sweeps routing knobs and can always land on
        the flat end of each range (no transits, no filtering, no churn)."""
        from repro.scenarios.differential import FUZZ_KNOB_RANGES

        assert FUZZ_KNOB_RANGES["num_transit_ases"][0] == 0
        assert FUZZ_KNOB_RANGES["num_vantages"][0] == 1
        assert FUZZ_KNOB_RANGES["filtered_region"][0] == -1
        assert FUZZ_KNOB_RANGES["bgp_churn_rate"][0] == 0.0

    def test_fuzz_ranges_include_subday_knobs_with_degenerate_ends(self):
        """The fuzzer sweeps the sub-day dynamics knobs too, and every range
        starts at the flat end (one wave, no buckets, no rotation, no rival
        scanner) so the degenerate whole-day configuration stays covered."""
        from repro.scenarios.differential import FUZZ_KNOB_RANGES

        assert FUZZ_KNOB_RANGES["waves_per_day"][0] == 1
        assert FUZZ_KNOB_RANGES["icmp_bucket_capacity"][0] == 0.0
        assert FUZZ_KNOB_RANGES["icmp_bucket_refill_per_day"][0] == 0.0
        assert FUZZ_KNOB_RANGES["prefix_rotation_rate"][0] == 0.0
        assert FUZZ_KNOB_RANGES["competing_scanners"][0] == 0

    def test_subday_presets_activate_the_dynamics_layer(self):
        from repro.events import NetworkDynamics
        from repro.netmodel import SimulatedInternet

        for name in ("subday-churn", "rate-limit-recovery", "scanner-contention"):
            config = get_scenario(name, scale="tiny").internet_config()
            assert config.waves_per_day > 1
            dynamics = NetworkDynamics.from_config(SimulatedInternet(config))
            assert dynamics is not None and dynamics.active, name

    def test_routed_presets_enable_the_as_graph(self):
        for name in ("multi-vantage", "filtered-region", "bgp-churn"):
            config = get_scenario(name, scale="tiny").internet_config()
            assert config.num_transit_ases > 0

    def test_unknown_name_lists_registered_names(self):
        with pytest.raises(ValueError, match="cdn-heavy"):
            get_scenario("does-not-exist")

    def test_iter_scenarios_ordered_and_described(self):
        scenarios = list(iter_scenarios())
        assert [s.name for s in scenarios] == scenario_names()
        assert all(s.description for s in scenarios)

    def test_as_scenario_accepts_instances_and_names(self):
        by_name = as_scenario("baseline", scale="tiny")
        by_instance = as_scenario(get_scenario("baseline"), scale="tiny")
        assert by_name == by_instance


class TestComposition:
    def test_later_layers_win(self):
        scenario = (
            get_scenario("cdn-heavy")
            .at_scale("tiny")
            .with_overrides("ad-hoc", {"num_ases": 33, "aliased_region_rate": 0.5})
        )
        resolved = scenario.resolved_overrides()
        assert resolved["num_ases"] == 33  # ad-hoc beats the tiny tier's 40
        assert resolved["aliased_region_rate"] == 0.5  # ad-hoc beats the preset

    def test_scale_tier_and_anomaly_mix_names(self):
        assert {"tiny", "test", "default", "mega"} <= set(SCALE_TIERS)
        assert {"deterministic", "realistic", "hostile"} <= set(ANOMALY_MIXES)
        with pytest.raises(ValueError, match="tiny"):
            get_scenario("baseline").at_scale("galactic")
        with pytest.raises(ValueError, match="deterministic"):
            get_scenario("baseline").with_anomalies("weird")

    def test_deterministic_zeroes_stochastic_knobs(self):
        config = get_scenario("rate-limited", anomalies="deterministic").experiment_config()
        assert config.packet_loss == 0.0
        assert config.icmp_rate_limited_share == 0.0
        assert config.stochastic_anomalies is False
        internet_config = config.internet_config()
        assert internet_config.packet_loss == 0.0
        assert internet_config.stochastic_anomalies is False

    def test_internet_only_knobs_flow_through_experiment_config(self):
        config = get_scenario("cdn-heavy").experiment_config()
        assert dict(config.internet_overrides)["aliased_region_rate"] == 0.95
        internet_config = config.internet_config()
        assert internet_config.aliased_region_rate == 0.95
        assert internet_config.aliased_regions_per_cdn_allocation == 12

    def test_unknown_knob_rejected_at_layer_construction(self):
        with pytest.raises(ValueError, match="warp_factor"):
            ScenarioLayer("bad", {"warp_factor": 9})

    def test_seed_override(self):
        assert get_scenario("baseline").experiment_config(seed=99).seed == 99

    def test_scenarios_are_hashable(self):
        scenario = get_scenario("high-churn", scale="tiny")
        assert scenario in {scenario}

    def test_baseline_matches_defaults(self):
        from repro.experiments.context import ExperimentConfig

        assert get_scenario("baseline").experiment_config() == ExperimentConfig()
        assert get_scenario("baseline").internet_config() == ExperimentConfig().internet_config()


class TestCLI:
    def test_parser_accepts_scenario(self):
        args = build_parser().parse_args(
            ["run", "table3", "--scenario", "cdn-heavy", "--scale", "test"]
        )
        assert args.scenario == "cdn-heavy"
        assert args.scale == "test"

    def test_parser_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table3", "--scenario", "bogus"])

    def test_resolve_config_composes_scale(self):
        config = resolve_config("test", "cdn-heavy")
        assert config == get_scenario("cdn-heavy", scale="test").experiment_config()
        assert config.num_ases == 80  # the test tier
        assert dict(config.internet_overrides)["aliased_region_rate"] == 0.95

    def test_resolve_config_without_scenario_keeps_legacy_scales(self):
        from repro.experiments.context import TEST_EXPERIMENT_CONFIG

        assert resolve_config("test", None) == TEST_EXPERIMENT_CONFIG

    def test_list_scenarios_prints_all(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_table3_inside_scenario(self, capsys):
        assert main(["run", "table3", "--scenario", "sparse-sources", "--scale", "test"]) == 0
        assert "table3" in capsys.readouterr().out

    def test_scenario_only_tiers_require_a_scenario(self, capsys):
        assert main(["run", "table3", "--scale", "tiny"]) == 2
        assert "--scenario" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["run", "table3", "--scenario", "baseline", "--scale", "tiny"]
        )
        assert resolve_config(args.scale, args.scenario) == get_scenario(
            "baseline", scale="tiny"
        ).experiment_config()


#: The type each :data:`BUILD_TARGETS` entry constructs.
BUILD_TYPES = {
    "internet": SimulatedInternet,
    "substrate": tuple,
    "context": ExperimentContext,
    "service": HitlistService,
    "server": HitlistServer,
    "pipeline": GenerationPipeline,
}


class TestBuild:
    """``scenarios.build`` is the one constructor path from a scenario."""

    @pytest.mark.parametrize("target", BUILD_TARGETS)
    def test_every_target_builds_at_tiny_scale(self, target):
        built = build(target, "baseline", scale="tiny")
        assert isinstance(built, BUILD_TYPES[target])
        policy = getattr(built, "policy", None)
        assert policy is None or policy == ExecutionPolicy()

    def test_experiment_context(self):
        ctx = build("context", "high-churn", scale="tiny")
        assert ctx.config == get_scenario("high-churn", scale="tiny").experiment_config()
        assert ctx.config.internet_config().client_daily_uptime == 0.12

    def test_hitlist_service(self):
        service = build(
            "service",
            "sparse-sources",
            scale="tiny",
            anomalies="deterministic",
            policy=ExecutionPolicy(reference=True),
        )
        assert service.policy.reference
        assert service.apd_config.min_targets_per_prefix == 60
        assert service.internet.config.packet_loss == 0.0
        assert len(service.assembly.sources) > 0

    def test_server_gets_hook_and_policy(self):
        def hook(snapshot):
            pass

        policy = ExecutionPolicy(reference=True)
        server = build("server", "baseline", scale="tiny", validate_hook=hook, policy=policy)
        assert server.validate_hook is hook
        assert server.service.policy is policy

    def test_generation_pipeline(self):
        pipeline = build("pipeline", "cdn-heavy", scale="tiny", min_seeds_per_as=50)
        assert not pipeline.policy.reference
        assert pipeline.min_seeds_per_as == 50
        assert pipeline.internet.config.aliased_region_rate == 0.95

    @pytest.mark.parametrize(
        "target, scenario, scale, bad",
        [
            ("warehouse", "baseline", "tiny", "warehouse"),
            ("server", "atlantis", "tiny", "atlantis"),
            ("server", "baseline", "galactic", "galactic"),
        ],
    )
    def test_unknown_value_is_named(self, target, scenario, scale, bad):
        with pytest.raises(ValueError, match=bad):
            build(target, scenario, scale=scale)

    def test_scenario_build_internet_honours_seed(self):
        scenario = Scenario("ad-hoc", "one-off", ())
        config = scenario.internet_config(seed=123)
        assert config.seed == 123


class TestDifferentialValidation:
    def test_rejects_unknown_pairs_and_bad_days(self):
        from repro.scenarios import run_differential

        with pytest.raises(ValueError, match="engine pair"):
            run_differential("baseline", pairs=["apd", "warp"])
        with pytest.raises(ValueError, match="days"):
            run_differential("baseline", days=0)

    def test_tables_differ_in_a_non_aliased_candidate_or_a_verdict(self):
        """The oracle compares whole verdict tables: an extra non-aliased
        candidate and a flipped verdict are both differences, although
        neither changes the aliased-prefix set."""
        from repro.addr import IPv6Prefix
        from repro.core.apd import APDResult, PrefixProbeOutcome
        from repro.netmodel.services import Protocol
        from repro.scenarios.differential import _table_diff

        def table(*verdicts):
            return APDResult.from_outcomes(
                PrefixProbeOutcome(
                    IPv6Prefix.parse(f"2001:db8:{i}::/64"),
                    0,
                    [IPv6Prefix.parse(f"2001:db8:{i}::/64").first],
                    branch_responses=[{Protocol.ICMP} if aliased else set()],
                )
                for i, aliased in enumerate(verdicts)
            )

        assert _table_diff("day 3", table(True, False), table(True, False)) == ""
        extra = _table_diff("day 3", table(True, False), table(True, False, False))
        assert "day 3" in extra and "2001:db8:2::/64" in extra
        flip = _table_diff("day 3", table(True, False, False), table(True, False, True))
        assert "1 verdict flips" in flip and "2001:db8:2::/64" in flip
