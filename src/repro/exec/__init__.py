"""The execution policy.

One frozen :class:`ExecutionPolicy` value -- the keyword-only ``policy=`` of
every engine-paired entry point -- selects the implementation: the fast
columnar engine, or the scalar reference twin the differential oracle holds
it to.
"""

from repro.exec.policy import ExecutionPolicy

__all__ = ["ExecutionPolicy"]
