"""Address generation helpers.

The aliased-prefix detection of Section 5.1 probes 16 pseudo-random addresses
per prefix, one inside each 4-bit *fan-out* subprefix (Table 3).  This module
implements that fan-out generation, keyed on (prefix, day, branch, seed), plus
plain pseudo-random address sampling inside a prefix, driven by an explicit
:class:`random.Random`.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from repro import keyed
from repro.addr.address import BITS, LO_MASK, IPv6Address
from repro.addr.batch import AddressBatch
from repro.addr.prefix import IPv6Prefix, parse_prefix

#: Number of fan-out probes used by multi-level APD (one per nybble value).
FANOUT = 16


def random_address_in_prefix(
    prefix: "IPv6Prefix | str", rng: random.Random
) -> IPv6Address:
    """A pseudo-random address uniformly drawn from *prefix*."""
    prefix = parse_prefix(prefix)
    host_bits = BITS - prefix.length
    offset = rng.getrandbits(host_bits) if host_bits else 0
    return IPv6Address(prefix.network | offset)


def random_addresses_in_prefix(
    prefix: "IPv6Prefix | str", count: int, rng: random.Random, unique: bool = True
) -> list[IPv6Address]:
    """*count* pseudo-random addresses inside *prefix*.

    With ``unique=True`` (the default) the result contains no duplicates as
    long as the prefix is large enough to supply them.
    """
    prefix = parse_prefix(prefix)
    if unique and count > prefix.num_addresses:
        raise ValueError(
            f"cannot draw {count} unique addresses from {prefix} "
            f"({prefix.num_addresses} available)"
        )
    result: list[IPv6Address] = []
    seen: set[int] = set()
    while len(result) < count:
        addr = random_address_in_prefix(prefix, rng)
        if unique:
            if addr.value in seen:
                continue
            seen.add(addr.value)
        result.append(addr)
    return result


def fanout_targets(
    prefix: "IPv6Prefix | str", seed: int = 0, day: int = 0, fanout: int = FANOUT
) -> list[IPv6Address]:
    """APD targets, one per 4-bit subprefix of *prefix*.

    For a prefix of length ``L`` this enumerates the 16 subprefixes of length
    ``L+4`` (``prefix:[0-f]...``) and picks one address in each, exactly as
    illustrated in Table 3 of the paper.  Enforcing one probe per subprefix
    guarantees that probes are spread evenly over the more specific space,
    so partially aliased prefixes are not misclassified.  The host bits are
    keyed on (prefix, *day*, branch, *seed*) (:mod:`repro.keyed`): the
    scalar twin of :func:`repro.addr.batch.batch_fanout_targets`.

    Prefixes longer than 124 bits cannot fan out by a full nybble; for those
    the remaining host bits are enumerated instead (at most 16 values anyway).
    """
    prefix = parse_prefix(prefix)
    if fanout != FANOUT:
        raise ValueError("the paper's APD uses a fixed fan-out of 16 probes")
    sub_length = min(prefix.length + 4, BITS)
    count = 1 << (sub_length - prefix.length)
    host_mask = (1 << (BITS - sub_length)) - 1
    prefix_key = keyed.key(prefix.network >> 64, prefix.network & LO_MASK, prefix.length)
    hi_stream = keyed.stream(keyed.FANOUT_HI, seed, day)
    lo_stream = keyed.stream(keyed.FANOUT_LO, seed, day)
    targets: list[IPv6Address] = []
    for branch in range(count):
        sub = prefix.nth_subnet(sub_length, branch)
        host = keyed.key(prefix_key ^ hi_stream, branch) << 64
        host |= keyed.key(prefix_key ^ lo_stream, branch)
        targets.append(IPv6Address(sub.network | (host & host_mask)))
    return targets


def spread_offsets(prefix: "IPv6Prefix | str", count: int) -> list[IPv6Address]:
    """*count* addresses evenly spread across *prefix* (deterministic).

    Useful for building deterministic probe sets in tests and benchmarks.
    """
    prefix = parse_prefix(prefix)
    if count <= 0:
        return []
    count = min(count, prefix.num_addresses)
    step = prefix.num_addresses // count
    return [IPv6Address(prefix.network + i * step) for i in range(count)]


def dedupe(addresses: Iterable[IPv6Address]) -> list[IPv6Address]:
    """Remove duplicate addresses while preserving first-seen order."""
    seen: set[int] = set()
    unique: list[IPv6Address] = []
    for addr in addresses:
        if addr.value not in seen:
            seen.add(addr.value)
            unique.append(addr)
    return unique


def sample_capped(
    addresses: Sequence[IPv6Address], cap: int, rng: random.Random
) -> list[IPv6Address]:
    """A random sample of at most *cap* addresses (Section 7.1's 100 k cap).

    If the population is not larger than the cap it is returned unchanged
    (as a list copy), otherwise a uniform sample without replacement is drawn.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if len(addresses) <= cap:
        return list(addresses)
    return rng.sample(list(addresses), cap)


def sample_capped_batch(
    batch: AddressBatch, cap: int, rng: random.Random
) -> AddressBatch:
    """Batch counterpart of :func:`sample_capped`, bit-identical per seed.

    ``random.Random.sample`` selects by *index*, so sampling ``range(n)`` and
    taking those rows reproduces exactly the addresses (and order) the scalar
    path would draw from the equivalent address list.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if len(batch) <= cap:
        return batch
    indices = rng.sample(range(len(batch)), cap)
    return batch.take(np.asarray(indices, dtype=np.int64))


def synthetic_mixed_batch(
    count: int,
    num_prefixes: int,
    seed: int,
    counter_modulus: int = 512,
    round_robin: bool = False,
) -> AddressBatch:
    """A synthetic hitlist batch over ``num_prefixes`` /32s with mixed schemes.

    The lower half of the prefixes uses small counter IIDs, the upper half
    random IIDs — the two addressing styles the Section 4 entropy clustering
    must tell apart.  Used by the clustering parity tests and benchmarks so
    both exercise the same data shape.  ``round_robin`` fills the prefixes
    with exactly equal sizes; the default assigns prefixes randomly.
    """
    rng = np.random.default_rng(seed)
    if round_robin:
        prefix_index = np.arange(count, dtype=np.uint64) % np.uint64(num_prefixes)
    else:
        prefix_index = rng.integers(0, num_prefixes, count).astype(np.uint64)
    hi = (
        (np.uint64(0x2001) << np.uint64(48))
        | (prefix_index << np.uint64(32))
        | rng.integers(0, 2**32, count, dtype=np.uint64)
    )
    lo = rng.integers(0, 2**64 - 1, count, dtype=np.uint64, endpoint=True)
    counter_style = prefix_index < np.uint64(max(1, num_prefixes // 2))
    lo[counter_style] = (
        np.arange(count, dtype=np.uint64) % np.uint64(counter_modulus)
    )[counter_style]
    return AddressBatch(hi, lo)
