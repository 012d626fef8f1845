"""Aliased prefixes: one machine answering an entire prefix.

Section 5 of the paper is motivated by CDNs binding whole prefixes to single
machines (``IP_FREEBIND``), which makes every address in e.g. a /48 or /96
respond and would otherwise flood the hitlist with millions of equivalent
addresses.  An :class:`AliasedRegion` models exactly that: a prefix plus the
single host that answers for every address inside it.

Two special behaviours from the paper's anomaly analysis (Section 5.1, case 4)
are modelled as well, because they stress-test APD:

* a *SYN-proxy* region only starts answering TCP after a connection-attempt
  threshold is crossed, producing inconsistent probe results;
* an *ICMP rate-limited* region drops a fraction of probe bursts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.netmodel.host import Host
from repro.netmodel.packets import ProbeReply
from repro.netmodel.services import Protocol

#: Probability that a SYN-proxy region answers any individual TCP probe
#: (shared by the scalar reply path and the batch probing engine).
SYN_PROXY_ANSWER_PROBABILITY = 0.35


@dataclass(slots=True)
class AliasedRegion:
    """A prefix fully bound to one responding machine."""

    prefix: IPv6Prefix
    host: Host
    #: Probability that any individual probe into the region is answered;
    #: models loss and rate limiting on top of the host's own model.
    answer_probability: float = 1.0
    #: If True the region behaves like a SYN proxy: TCP answers appear only
    #: with this probability per probe, independent of address.
    syn_proxy: bool = False
    #: If set, ICMP probes are rate limited to this acceptance probability.
    icmp_rate_limit: float | None = None
    #: Deterministic-anomaly gate: when False (the Internet was built with
    #: ``stochastic_anomalies=False``) the region consumes *no* random draws
    #: -- SYN-proxy, rate-limit and answer-probability behaviour are all
    #: disabled, leaving only the deterministic service/stability checks.
    #: Historically the ICMP rate-limit Bernoulli fired regardless of the
    #: gate, which both broke determinism and modelled no recovery; the
    #: token buckets of :mod:`repro.events` are the deterministic
    #: replacement.
    stochastic: bool = True

    def covers(self, address: IPv6Address) -> bool:
        """True if *address* falls inside the aliased prefix."""
        return address in self.prefix

    def reply(
        self,
        address: IPv6Address,
        protocol: Protocol,
        day: int,
        rng: random.Random,
        time_of_day: float = 0.0,
    ) -> ProbeReply | None:
        """Reply of the aliased machine for a probe to any covered address.

        For direct callers: :meth:`SimulatedInternet.probe` makes the same
        decision with its memoised uptime, then :meth:`admits`.
        """
        if not self.covers(address) or not self.host.is_responsive(protocol, day):
            return None
        if not self.admits(protocol, rng):
            return None
        return self.host.packet(address, protocol, day, time_of_day)

    def admits(
        self, protocol: Protocol, rng: random.Random, *, bucketed_icmp: bool = False
    ) -> bool:
        """Does a probe to the responsive machine survive the region's anomalies?

        The SYN proxy, the ICMP rate limit and the answer probability draw
        from *rng* in that order; a non-stochastic region draws nothing.
        ``bucketed_icmp`` marks a probe whose ICMP rate limiting was already
        decided by a wave's token-bucket admission, so the region's own
        Bernoulli limit does not apply on top.
        """
        if not self.stochastic:
            return True
        if (
            self.syn_proxy
            and protocol.is_tcp
            and rng.random() > SYN_PROXY_ANSWER_PROBABILITY
        ):
            return False
        if (
            self.icmp_rate_limit is not None
            and protocol is Protocol.ICMP
            and not bucketed_icmp
            and rng.random() > self.icmp_rate_limit
        ):
            return False
        return rng.random() <= self.answer_probability
