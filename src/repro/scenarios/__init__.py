"""Scenario registry and cross-engine differential oracle.

``repro.scenarios`` names whole network environments -- CDN-heavy aliasing,
EUI-64 CPE floods, sparse sources, churn-heavy eyeball networks -- as
composable presets (base preset x scale tier x anomaly mix) and turns engine
parity into a scenario-randomized differential oracle: any preset, at any
scale and under any anomaly mix, must yield exact batch-vs-reference
agreement for all four engine pairs.

Importing this package registers the built-in presets.
"""

from repro.scenarios.registry import (
    ANOMALY_MIXES,
    SCALE_TIERS,
    Scenario,
    ScenarioLayer,
    as_scenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios import presets  # noqa: F401  (registers the built-ins)
from repro.scenarios.build import BUILD_TARGETS, build
from repro.scenarios.differential import (
    ENGINE_PAIRS,
    FUZZ_KNOB_RANGES,
    DifferentialReport,
    PairCheck,
    run_differential,
)

__all__ = [
    "ANOMALY_MIXES",
    "SCALE_TIERS",
    "Scenario",
    "ScenarioLayer",
    "as_scenario",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "scenario_names",
    "BUILD_TARGETS",
    "build",
    "ENGINE_PAIRS",
    "FUZZ_KNOB_RANGES",
    "DifferentialReport",
    "PairCheck",
    "run_differential",
]
