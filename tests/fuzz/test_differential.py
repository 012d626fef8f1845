"""Scenario-randomized differential fuzzing of the four engine pairs.

Hypothesis samples a scenario preset, an anomaly mix and perturbations of
its structural and stochastic knobs, builds a tiny Internet from the
composed scenario, and asserts exact batch-vs-reference parity for all four
engine pairs (APD
verdicts, cluster fingerprints/labels/SSE, per-day service state, generation
candidate and responsive sets) via the shared oracle in
:mod:`repro.scenarios.differential`.  On failure hypothesis shrinks towards a
minimal failing configuration, which the assertion message prints in full.

A non-hypothesis sweep additionally pins every registered preset at test
runtime, under both the deterministic and the realistic anomaly mix --
preset knobs composed OVER the tiny tier, with only a min() clamp on the
scale knobs -- so "registered" always implies "differentially verified" on
the preset's own structure, not on a tier that erased it.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenarios import (
    ANOMALY_MIXES,
    ENGINE_PAIRS,
    FUZZ_KNOB_RANGES,
    SCALE_TIERS,
    Scenario,
    get_scenario,
    run_differential,
    scenario_names,
)

#: One strategy per fuzzable knob, derived from the shared bounds (see
#: FUZZ_KNOB_RANGES for the rationale of each range).
def _knob_strategy(low, high):
    if isinstance(low, bool):
        return st.booleans()
    if isinstance(low, int) and isinstance(high, int):
        return st.integers(low, high)
    return st.floats(low, high, allow_nan=False)


_KNOBS = {name: _knob_strategy(low, high) for name, (low, high) in FUZZ_KNOB_RANGES.items()}


@st.composite
def scenario_cases(draw):
    """(composed scenario, master seed) pairs for the oracle.

    Each knob is perturbed only when drawn, so the preset's own defining
    overrides and the drawn anomaly mix survive composition on the
    unperturbed knobs -- the search explores preset structure *and*
    perturbations, not just perturbations.
    """
    preset = draw(st.sampled_from(scenario_names()))
    mix = draw(st.sampled_from(sorted(ANOMALY_MIXES)))
    seed = draw(st.integers(0, 2**16 - 1))
    overrides = {
        name: draw(strategy)
        for name, strategy in _KNOBS.items()
        if draw(st.booleans())
    }
    scenario = get_scenario(preset, scale="tiny", anomalies=mix).with_overrides(
        "fuzz", overrides
    )
    return scenario, seed


_EXAMPLES = os.environ.get("REPRO_FUZZ_EXAMPLES")


@settings(
    # Scoped budget: explicit here (raise with REPRO_FUZZ_EXAMPLES=40 for a
    # deep sweep) instead of a loaded profile, which would globally shrink
    # the example budget of every other hypothesis suite in tests/.  The
    # default run is derandomized so the suite cannot flake a required CI
    # job on a random draw; an explicit REPRO_FUZZ_EXAMPLES budget opts into
    # fresh randomized exploration.
    max_examples=int(_EXAMPLES or "4"),
    derandomize=_EXAMPLES is None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
@given(case=scenario_cases())
def test_cross_engine_parity_on_sampled_scenarios(case):
    scenario, seed = case
    report = run_differential(scenario, seed=seed, days=2)
    assert report.ok, "\n" + report.summary()


#: Runtime ceiling for the per-preset sweep: applied as min() clamps AFTER
#: the preset layer, so a preset's defining knobs survive whenever they are
#: already test-sized (sparse-sources keeps its exact 2500/45 signature) and
#: pure scale presets (megascale) are bounded yet still distinct from the
#: tiny tier.
_SWEEP_CAPS = {
    "num_ases": 64,
    "base_hosts_per_allocation": 8,
    "max_hosts_per_allocation": 160,
    "hitlist_target": 2_500,
    "runup_days": 45,
}


def sweep_scenario(name: str):
    """The preset at test runtime: tiny tier first, preset knobs winning."""
    preset = get_scenario(name)
    base = Scenario(
        preset.name, preset.description, (SCALE_TIERS["tiny"],) + preset.layers
    )
    resolved = base.resolved_overrides()
    clamped = {
        knob: min(resolved[knob], cap)
        for knob, cap in _SWEEP_CAPS.items()
        if knob in resolved and resolved[knob] > cap
    }
    return base.with_overrides("sweep-cap", clamped) if clamped else base


def test_sweep_preserves_preset_structure():
    """The sweep must not erase what defines a preset (the tiny-tier trap)."""
    sparse = sweep_scenario("sparse-sources").resolved_overrides()
    assert sparse["hitlist_target"] == 2_500
    assert sparse["runup_days"] == 45
    mega = sweep_scenario("megascale").resolved_overrides()
    baseline = sweep_scenario("baseline").resolved_overrides()
    assert mega["num_ases"] > baseline["num_ases"]


@pytest.mark.parametrize("mix", ["deterministic", "realistic"])
@pytest.mark.parametrize("name", scenario_names())
def test_every_registered_preset_is_parity_clean(name, mix):
    """Each preset, bounded to test runtime, passes all four pairs under
    both anomaly mixes: loss and rate limiting included, parity is exact."""
    report = run_differential(sweep_scenario(name).with_anomalies(mix), seed=2018, days=2)
    assert set(c.pair for c in report.checks) == set(ENGINE_PAIRS)
    assert report.ok, "\n" + report.summary()
