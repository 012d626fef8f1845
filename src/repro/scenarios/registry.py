"""Scenario presets: named network environments for the whole pipeline.

The paper's findings hinge on structure that varies wildly across network
environments -- CDN-dominated aliasing, sparse source coverage, client churn,
heavy deaggregation -- yet a single default configuration exercises only one
point of that space.  A :class:`Scenario` is a named, composable description
of an environment: an ordered stack of :class:`ScenarioLayer` override maps
(base preset x scale tier x anomaly mix) that resolves to one
:class:`~repro.experiments.context.ExperimentConfig` (and, through it, one
:class:`~repro.netmodel.config.InternetConfig`).

Composition rules
-----------------

* A layer is a flat mapping ``field -> value``; fields must belong to
  ``InternetConfig`` or ``ExperimentConfig`` (validated at construction).
* Layers compose left to right: later layers win on conflicting fields.
  ``preset x scale x anomalies`` therefore means "the preset's structure, at
  that scale, under those stochastic conditions".
* Fields shared by both configs (``num_ases``, host counts, stochastic
  knobs) are set on the ``ExperimentConfig`` and flow into the derived
  ``InternetConfig``; Internet-only fields travel via
  ``ExperimentConfig.internet_overrides``.

Scenarios are frozen and hashable, so they can key caches and hypothesis
examples.  The module-level registry maps names to presets;
:func:`get_scenario` composes scale tiers and anomaly mixes at lookup time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.experiments.context import TEST_EXPERIMENT_CONFIG, ExperimentConfig
from repro.netmodel.config import InternetConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.context import ExperimentContext
    from repro.netmodel.internet import SimulatedInternet

_INTERNET_FIELDS = frozenset(f.name for f in dataclasses.fields(InternetConfig))
_EXPERIMENT_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "internet_overrides"
)
_ALL_FIELDS = _INTERNET_FIELDS | _EXPERIMENT_FIELDS


def _as_items(overrides: "Mapping[str, object] | Iterable[tuple[str, object]]"):
    items = tuple(sorted(dict(overrides).items()))
    unknown = [name for name, _ in items if name not in _ALL_FIELDS]
    if unknown:
        raise ValueError(
            f"unknown scenario knob(s) {unknown}: valid knobs are "
            f"InternetConfig/ExperimentConfig fields ({sorted(_ALL_FIELDS)})"
        )
    return items


@dataclass(frozen=True, slots=True)
class ScenarioLayer:
    """One composable slice of a scenario: a validated override map."""

    name: str
    overrides: tuple[tuple[str, object], ...]

    def __init__(
        self, name: str, overrides: "Mapping[str, object] | Iterable[tuple[str, object]]" = ()
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "overrides", _as_items(overrides))


@dataclass(frozen=True, slots=True)
class Scenario:
    """A named network environment: an ordered stack of override layers."""

    name: str
    description: str
    layers: tuple[ScenarioLayer, ...] = ()

    # -- composition ------------------------------------------------------------

    def with_layer(self, layer: ScenarioLayer) -> "Scenario":
        """A copy with *layer* appended (it wins on conflicting fields)."""
        return Scenario(self.name, self.description, self.layers + (layer,))

    def with_overrides(
        self, name: str, overrides: "Mapping[str, object] | Iterable[tuple[str, object]]"
    ) -> "Scenario":
        """A copy with an ad-hoc override layer appended."""
        return self.with_layer(ScenarioLayer(name, overrides))

    def at_scale(self, tier: str) -> "Scenario":
        """Compose a named scale tier (see :data:`SCALE_TIERS`) on top."""
        try:
            return self.with_layer(SCALE_TIERS[tier])
        except KeyError:
            raise ValueError(
                f"unknown scale tier: {tier!r} (expected one of {sorted(SCALE_TIERS)})"
            ) from None

    def with_anomalies(self, mix: str) -> "Scenario":
        """Compose a named anomaly mix (see :data:`ANOMALY_MIXES`) on top."""
        try:
            return self.with_layer(ANOMALY_MIXES[mix])
        except KeyError:
            raise ValueError(
                f"unknown anomaly mix: {mix!r} (expected one of {sorted(ANOMALY_MIXES)})"
            ) from None

    # -- resolution -------------------------------------------------------------

    def resolved_overrides(self) -> dict[str, object]:
        """All layers merged left to right (later layers win)."""
        merged: dict[str, object] = {}
        for layer in self.layers:
            merged.update(layer.overrides)
        return merged

    def experiment_config(self, seed: int | None = None) -> ExperimentConfig:
        """The scenario resolved to an :class:`ExperimentConfig`."""
        merged = self.resolved_overrides()
        if seed is not None:
            merged["seed"] = seed
        experiment = {k: v for k, v in merged.items() if k in _EXPERIMENT_FIELDS}
        internet_only = {k: v for k, v in merged.items() if k not in _EXPERIMENT_FIELDS}
        return ExperimentConfig(
            **experiment, internet_overrides=tuple(sorted(internet_only.items()))
        )

    def internet_config(self, seed: int | None = None) -> InternetConfig:
        """The scenario resolved to an :class:`InternetConfig`."""
        return self.experiment_config(seed=seed).internet_config()

    # -- substrate builders ------------------------------------------------------

    def build_internet(self, seed: int | None = None) -> "SimulatedInternet":
        """A simulated Internet for this scenario."""
        from repro.netmodel.internet import SimulatedInternet

        return SimulatedInternet(self.internet_config(seed=seed))

    def build_context(self, seed: int | None = None) -> "ExperimentContext":
        """A shared experiment context for this scenario."""
        from repro.experiments.context import ExperimentContext

        return ExperimentContext(self.experiment_config(seed=seed))

    def build_substrate(self, seed: int | None = None):
        """(internet, assembly) exactly as :class:`ExperimentContext` derives
        them -- the one place the substrate wiring (assembly seed scheme,
        run-up) is defined, so scenario consumers cannot drift from it."""
        context = self.build_context(seed=seed)
        return context.internet, context.assembly

    def summary(self) -> str:
        """One-line human-readable description of the resolved knobs."""
        overrides = self.resolved_overrides()
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        return f"{self.name}: {self.description}" + (f" [{knobs}]" if knobs else "")


def _scale_fields(config: ExperimentConfig) -> dict[str, object]:
    """The scale-relevant fields of a per-scale ExperimentConfig.

    Deliberately excludes ``seed``: a scale tier says how *big* the
    environment is, not which random universe it lives in, so composing a
    tier never silently re-seeds a scenario.  (This is the one documented
    asymmetry vs the legacy ``--scale test`` path, whose config pins seed 7.)
    """
    return {
        "num_ases": config.num_ases,
        "base_hosts_per_allocation": config.base_hosts_per_allocation,
        "max_hosts_per_allocation": config.max_hosts_per_allocation,
        "hitlist_target": config.hitlist_target,
        "runup_days": config.runup_days,
        "longitudinal_days": config.longitudinal_days,
    }


#: Scale tiers: how big the environment is, orthogonal to its structure.
SCALE_TIERS: dict[str, ScenarioLayer] = {
    "tiny": ScenarioLayer(
        "scale:tiny",
        {
            "num_ases": 40,
            "base_hosts_per_allocation": 5,
            "max_hosts_per_allocation": 100,
            "hitlist_target": 900,
            "runup_days": 25,
            "longitudinal_days": 4,
            "apd_min_targets": 60,
        },
    ),
    # Derived from the integration-test config so the two cannot drift.
    "test": ScenarioLayer("scale:test", _scale_fields(TEST_EXPERIMENT_CONFIG)),
    "default": ScenarioLayer("scale:default", {}),
    "mega": ScenarioLayer(
        "scale:mega",
        {
            "num_ases": 600,
            "base_hosts_per_allocation": 60,
            "max_hosts_per_allocation": 4_000,
            "hitlist_target": 60_000,
            "runup_days": 240,
        },
    ),
}

#: Anomaly mixes: the stochastic conditions probes face, orthogonal to both.
ANOMALY_MIXES: dict[str, ScenarioLayer] = {
    "deterministic": ScenarioLayer(
        "anomalies:deterministic",
        {
            "packet_loss": 0.0,
            "icmp_rate_limited_share": 0.0,
            "stochastic_anomalies": False,
            # Stochastic routed-path effects; the deterministic routed knobs
            # (filtering, churn, vantage) stay.
            "transit_congestion": 0.0,
            "upstream_rate_limit": 0.0,
        },
    ),
    "realistic": ScenarioLayer("anomalies:realistic", {}),
    "hostile": ScenarioLayer(
        "anomalies:hostile",
        {
            "packet_loss": 0.08,
            "icmp_rate_limited_share": 0.25,
            "stochastic_anomalies": True,
        },
    ),
}


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name must be unique)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def iter_scenarios() -> Iterator[Scenario]:
    """All registered scenarios, in name order."""
    for name in scenario_names():
        yield _REGISTRY[name]


def get_scenario(
    name: str, *, scale: str | None = None, anomalies: str | None = None
) -> Scenario:
    """Look up a preset by name, composing optional scale/anomaly tiers.

    Raises ``ValueError`` listing the registered names on an unknown name.
    """
    scenario = _REGISTRY.get(name)
    if scenario is None:
        raise ValueError(f"unknown scenario: {name!r} (expected one of {scenario_names()})")
    if scale is not None:
        scenario = scenario.at_scale(scale)
    if anomalies is not None:
        scenario = scenario.with_anomalies(anomalies)
    return scenario


def as_scenario(
    scenario: "str | Scenario",
    *,
    scale: str | None = None,
    anomalies: str | None = None,
) -> Scenario:
    """Coerce a scenario name or instance, composing optional tiers."""
    if isinstance(scenario, Scenario):
        if scale is not None:
            scenario = scenario.at_scale(scale)
        if anomalies is not None:
            scenario = scenario.with_anomalies(anomalies)
        return scenario
    return get_scenario(scenario, scale=scale, anomalies=anomalies)
