"""One construction path from a scenario to any pipeline object.

:func:`build` is the only scenario constructor: the CLI, benchmarks, tests
and examples all wire a scenario's experiment config, substrate and APD
floor through it, so no consumer re-derives that wiring:

    service = scenarios.build("service", "megascale",
                              policy=ExecutionPolicy(reference=True))

*policy* is an :class:`~repro.exec.ExecutionPolicy` (``None`` for the
defaults); it reaches the context, service, server and pipeline targets.
"""

from __future__ import annotations

from typing import Any

from repro.exec import ExecutionPolicy
from repro.scenarios.registry import as_scenario

#: Buildable targets, in rough dependency order.
BUILD_TARGETS = (
    "internet",
    "substrate",
    "context",
    "service",
    "server",
    "pipeline",
)


def build(
    target: str,
    scenario: "str | object",
    *,
    scale: str | None = None,
    anomalies: str | None = None,
    seed: int | None = None,
    policy: ExecutionPolicy | None = None,
    **kwargs: Any,
):
    """Construct *target* for a scenario preset under one execution policy.

    ``target`` is one of :data:`BUILD_TARGETS`; ``scale`` / ``anomalies``
    compose named tiers on top of the preset and ``seed`` overrides the
    scenario seed.  Extra keyword arguments are forwarded to the target's
    constructor (e.g. ``protocols=`` for the service, ``validate_hook=`` for
    the server).  Service days share the sources' run-up timeline: run days
    at or after the scenario's ``runup_days`` to see the full hitlist input.
    """
    resolved = as_scenario(scenario, scale=scale, anomalies=anomalies)
    if policy is None:
        policy = ExecutionPolicy()
    if target == "internet":
        from repro.netmodel.internet import SimulatedInternet

        return SimulatedInternet(resolved.internet_config(seed=seed))
    if target == "substrate":
        # (internet, assembly) exactly as the context derives them: the one
        # place the substrate wiring (assembly seed scheme, run-up) lives.
        context = build("context", resolved, seed=seed)
        return context.internet, context.assembly
    if target == "context":
        from repro.experiments.context import ExperimentContext

        return ExperimentContext(
            resolved.experiment_config(seed=seed), policy=policy, **kwargs
        )
    if target == "service":
        from repro.core.apd import APDConfig
        from repro.core.hitlist import HitlistService

        config = resolved.experiment_config(seed=seed)
        internet, assembly = build("substrate", resolved, seed=seed)
        return HitlistService(
            internet,
            assembly,
            apd_config=APDConfig(min_targets_per_prefix=config.apd_min_targets),
            seed=config.seed,
            policy=policy,
            **kwargs,
        )
    if target == "server":
        from repro.serving.server import HitlistServer

        validate_hook = kwargs.pop("validate_hook", None)
        service = build(
            "service",
            resolved,
            seed=seed,
            policy=policy,
            **kwargs,
        )
        return HitlistServer(service, validate_hook=validate_hook)
    if target == "pipeline":
        from repro.genaddr.pipeline import GenerationPipeline

        config = resolved.experiment_config(seed=seed)
        return GenerationPipeline(
            build("internet", resolved, seed=seed),
            seed=config.seed,
            policy=policy,
            **kwargs,
        )
    raise ValueError(
        f"unknown build target: {target!r} (expected one of {list(BUILD_TARGETS)})"
    )
