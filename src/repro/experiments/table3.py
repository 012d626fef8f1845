"""Table 3: the APD fan-out example.

The paper illustrates multi-level APD with the prefix
``2001:db8:407:8000::/64``: one pseudo-random address is generated in each of
the 16 subprefixes ``2001:db8:407:8000:[0-f]000::/68``.  This experiment
regenerates that example and checks the defining properties (16 targets, one
per nybble branch, all inside the prefix).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addr.address import IPv6Address
from repro.addr.generate import fanout_targets
from repro.addr.prefix import IPv6Prefix
from repro.experiments.context import ExperimentContext

EXAMPLE_PREFIX = IPv6Prefix.parse("2001:db8:407:8000::/64")


@dataclass(slots=True)
class Table3Result:
    """The example prefix and its 16 fan-out targets."""

    prefix: IPv6Prefix
    targets: list[IPv6Address]

    @property
    def branch_nybbles(self) -> list[str]:
        """The first IID nybble of each target (must enumerate 0..f)."""
        return [t.nybbles[16] for t in self.targets]

    @property
    def covers_all_branches(self) -> bool:
        return sorted(self.branch_nybbles) == list("0123456789abcdef")

    @property
    def all_inside_prefix(self) -> bool:
        return all(t in self.prefix for t in self.targets)


def run(ctx: ExperimentContext, prefix: IPv6Prefix = EXAMPLE_PREFIX) -> Table3Result:
    """Generate the fan-out targets for the example prefix."""
    return Table3Result(prefix=prefix, targets=fanout_targets(prefix, ctx.config.seed))


def format_table(result: Table3Result) -> str:
    """Render the example like the paper's Table 3."""
    lines = [str(result.prefix)]
    lines.extend(f"  {target.exploded}" for target in result.targets)
    return "\n".join(lines)
