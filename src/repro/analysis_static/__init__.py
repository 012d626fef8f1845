"""reprolint: AST-based invariant checking for the reproduction.

The correctness of this codebase rests on a handful of conventions that
ordinary linters cannot see:

* **R1 determinism** -- every random draw flows from an explicitly seeded
  generator and no hot path reads the wall clock, so that engine pairs are
  reproducible per seed and the differential fuzz oracle means something.
* **R2 snapshot immutability** -- published artefacts are frozen behind
  ``readonly_view``/``.readonly()``; a snapshot shared with concurrent
  readers is never mutated and never leaks a writable array view.
* **R3 lock discipline** -- attributes a class declares guarded (via a
  ``_GUARDED_BY`` class map) are only touched inside a ``with`` block on
  the declared lock.

This package is a small rule-engine framework over Python :mod:`ast`
(per-file visitor dispatch, a rule registry, ``# reprolint: disable=RULE``
pragmas, JSON and human output, an exit-code contract) with those rule
families implemented on top.  Run it as ``python -m repro.analysis_static
src/`` or via ``scripts/reprolint.py``; CI fails on any new finding.
"""

from repro.analysis_static.engine import (
    Finding,
    LintContext,
    Rule,
    RULE_REGISTRY,
    SourceFile,
    lint_paths,
    register_rule,
)

# Importing the rule modules registers their rules.
from repro.analysis_static import rules_determinism  # noqa: F401
from repro.analysis_static import rules_immutability  # noqa: F401
from repro.analysis_static import rules_locks  # noqa: F401

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "RULE_REGISTRY",
    "SourceFile",
    "lint_paths",
    "register_rule",
]
