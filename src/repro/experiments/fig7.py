"""Figure 7: conditional probability of responsiveness between protocols.

The matrix P[Y | X] over ICMP, TCP/80, TCP/443, UDP/53 and UDP/443.  Shape
checks mirror the paper's reading of the figure: every responsive population
answers ICMPv6 with high probability (>= ~89 %), QUIC responders almost
always also serve HTTPS/HTTP, and the reverse implication is much weaker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.crossproto import conditional_probability_matrix, icmp_given_any, protocol_counts
from repro.experiments.context import ExperimentContext
from repro.netmodel.services import ALL_PROTOCOLS, Protocol


@dataclass(slots=True)
class Fig7Result:
    """The conditional probability matrix plus headline statistics."""

    matrix: Mapping[Protocol, Mapping[Protocol, float]]
    counts: Mapping[Protocol, int]
    icmp_given_any_responsive: float

    def probability(self, y: Protocol, x: Protocol) -> float:
        return self.matrix[y][x]

    @property
    def icmp_dominates(self) -> bool:
        """P(ICMP | X) is high for every protocol X with responders."""
        return all(
            self.matrix[Protocol.ICMP][x] > 0.8
            for x in ALL_PROTOCOLS
            if x is not Protocol.ICMP and self.counts.get(x, 0) >= 20
        )

    @property
    def quic_implies_https(self) -> bool:
        if self.counts.get(Protocol.UDP443, 0) < 20:
            return True
        return self.matrix[Protocol.TCP443][Protocol.UDP443] > 0.85

    @property
    def https_to_quic_weaker(self) -> bool:
        """The reverse implication (HTTPS -> QUIC) is much weaker."""
        if self.counts.get(Protocol.TCP443, 0) < 20:
            return True
        return (
            self.matrix[Protocol.UDP443][Protocol.TCP443]
            < self.matrix[Protocol.TCP443][Protocol.UDP443]
        )


def run(ctx: ExperimentContext) -> Fig7Result:
    """Compute the matrix from the day-0 five-protocol scan."""
    sweep = {protocol: ctx.responsive_on(protocol) for protocol in ALL_PROTOCOLS}
    return Fig7Result(
        matrix=conditional_probability_matrix(sweep),
        counts=protocol_counts(sweep),
        icmp_given_any_responsive=icmp_given_any(sweep),
    )


def format_table(result: Fig7Result) -> str:
    """Render the matrix like the Figure 7 heat map (rows = Y, columns = X)."""
    header = "P[Y|X]      " + " ".join(f"{p.value:>8}" for p in ALL_PROTOCOLS)
    lines = [header]
    for y in ALL_PROTOCOLS:
        row = " ".join(f"{result.matrix[y][x]:8.2f}" for x in ALL_PROTOCOLS)
        lines.append(f"{y.value:<11} {row}")
    lines.append(f"P(ICMP | any responsive) = {result.icmp_given_any_responsive:.2f}")
    return "\n".join(lines)
