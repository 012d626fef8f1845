"""CLI for reprolint: ``python -m repro.analysis_static [paths...]``.

Exit-code contract: 0 = no findings, 1 = findings, 2 = usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis_static.engine import (
    RULE_REGISTRY,
    LintUsageError,
    lint_paths,
)

# Rule modules must be imported for registration before the registry is read.
import repro.analysis_static  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis_static",
        description=(
            "reprolint: AST-based invariant checks for determinism (R1), "
            "snapshot immutability (R2) and lock discipline (R3)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, cls in RULE_REGISTRY.items():
            print(f"{rule_id}  {cls.name}: {cls.description}")
        return 0
    select = None
    if args.select is not None:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        findings, files_checked = lint_paths(args.paths, select=select)
    except LintUsageError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "files_checked": files_checked,
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format_human())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"reprolint: {len(findings)} {noun} in {files_checked} files")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
