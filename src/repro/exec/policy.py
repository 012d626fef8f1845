"""The execution policy: one frozen value selecting *how* an engine runs.

Every engine-paired entry point (APD, clustering and k-means, the sliding
window, the daily service, 6Gen, the generation pipeline and the experiment
context) takes a keyword-only ``policy=ExecutionPolicy()``.  Its one field
is ``reference``: ``False`` (the default) runs the fast columnar engine,
``True`` the scalar twin the differential oracle holds it to.

Policies are frozen and hashable, so they can ride inside scenario caches and
hypothesis examples just like :class:`~repro.scenarios.Scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ExecutionPolicy:
    """How an engine executes: the fast engine, or its scalar reference twin."""

    reference: bool = False
