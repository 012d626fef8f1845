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

from dataclasses import dataclass
from typing import Callable

from repro import keyed
from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.netmodel.host import Host
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
    #: ``stochastic_anomalies=False``) SYN-proxy, rate-limit and
    #: answer-probability behaviour are all disabled, leaving only the
    #: service/stability checks.  The token buckets of :mod:`repro.events`
    #: are the deterministic model of rate limiting with recovery.
    stochastic: bool = True

    def covers(self, address: IPv6Address) -> bool:
        """True if *address* falls inside the aliased prefix."""
        return address in self.prefix

    def admits(
        self,
        protocol: Protocol,
        draw: Callable[[int], float],
        *,
        bucketed_icmp: bool = False,
    ) -> bool:
        """Does a probe to the responsive machine survive the region's anomalies?

        ``draw(salt)`` is the probe's keyed uniform draw for one named
        decision (:mod:`repro.keyed`): the SYN proxy, the ICMP rate limit and
        the answer probability each read their own, so the order of the
        checks carries no meaning.  ``bucketed_icmp`` marks a probe whose
        ICMP rate limiting was already decided by a wave's token-bucket
        admission, so the region's own limit does not apply on top.
        """
        if not self.stochastic:
            return True
        if (
            self.syn_proxy
            and protocol.is_tcp
            and draw(keyed.SYN_PROXY) > SYN_PROXY_ANSWER_PROBABILITY
        ):
            return False
        if (
            self.icmp_rate_limit is not None
            and protocol is Protocol.ICMP
            and not bucketed_icmp
            and draw(keyed.REGION_ICMP) > self.icmp_rate_limit
        ):
            return False
        return self.answer_probability >= 1.0 or (
            draw(keyed.REGION_ANSWER) <= self.answer_probability
        )
