"""Deterministic discrete-event dynamics over the simulated Internet.

The service historically ticks in whole days; this package adds the
sub-day timescale -- a seeded, wall-clock-free event scheduler driving
token-bucket ICMP rate limiters (which ``competing_scanners`` synthetic
rivals pre-charge), DHCPv6/prefix-rotation churn and probe waves -- with the
whole-day, zero-event configuration guaranteed bit-identical to the
day-granular model (see ``docs/EVENTS.md``).
"""

from repro.events.dynamics import NetworkDynamics, WaveAdmission
from repro.events.scheduler import EventScheduler
from repro.events.tokenbucket import TokenBucket

__all__ = [
    "EventScheduler",
    "NetworkDynamics",
    "TokenBucket",
    "WaveAdmission",
]
