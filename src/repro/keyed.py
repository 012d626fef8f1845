"""Keyed draws: every per-entity random decision as a pure function of its key.

No probe outcome reads a random stream whose order matters.  A decision --
is this host up today, is this probe lost, which host bits does this
fan-out target get -- is ``hash01(key parts)``: the splitmix64 finaliser
chained over the parts, mapped to a uniform double in ``[0, 1)``.  The same
draw therefore comes out whichever engine asks, in whatever order, in
whatever chunk, in whatever process.

Every function has a Python-int form (the scalar engine, one value) and an
array form (the batch engine, uint64 arrays); the two agree bit for bit.
Parts are taken modulo 2**64, so negative ints key like their two's
complement.  A draw keyed on one hot coordinate (an address, a machine) is
:func:`draw`, ``hash01(base ^ stream)``: one mixer round over a per-entity
``base`` key cached by the caller and a memoised per-context ``stream`` key.

The named salts below separate the independent decisions; the table in
``docs/ARCHITECTURE.md`` lists each decision with its key.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MASK64 = (1 << 64) - 1

#: splitmix64's increment and its two finaliser multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
#: A 53-bit integer times this is an exactly representable double in [0, 1).
_UNIT = 1.0 / (1 << 53)

# -- named salts: one per independent decision --------------------------------
#: Host uptime coin, keyed on (machine, day).
UPTIME = 1
#: Probe loss, keyed on (target, protocol, day, wave, attempt).
LOSS = 2
#: Path congestion, keyed on the probe plus the vantage.
CONGESTION = 3
#: Upstream (route) ICMP allowance, keyed on the probe plus the vantage.
ROUTE_ICMP = 4
#: ICMP allowance of a rate-limited prefix, keyed on the probe.
PREFIX_ICMP = 5
#: SYN-proxy answer of an aliased region, keyed on the probe.
SYN_PROXY = 6
#: ICMP rate limit of an aliased region, keyed on the probe.
REGION_ICMP = 7
#: Answer probability of an aliased region, keyed on the probe.
REGION_ANSWER = 8
#: APD fan-out host bits (high and low limb), keyed on (prefix, day, branch, seed).
FANOUT_HI = 9
FANOUT_LO = 10
#: Prefix rotation: does a host rotate today, when, and to which address.
ROTATES = 11
ROTATE_TIME = 12
ROTATE_HI = 13
ROTATE_LO = 14
#: BGP churn onto the alternate path, keyed on (destination, day, world seed).
CHURN = 15


def key(*parts: int) -> int:
    """The 64-bit key of *parts*: the splitmix64 finaliser chained over them."""
    h = 0
    for part in parts:
        z = ((h ^ part) + _GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _M1) & MASK64
        z = ((z ^ (z >> 27)) * _M2) & MASK64
        h = z ^ (z >> 31)
    return h


def hash01(*parts: int) -> float:
    """A uniform draw in ``[0, 1)``, a pure function of *parts*."""
    return (key(*parts) >> 11) * _UNIT


def draw(base: int, stream: int) -> float:
    """``hash01(base ^ stream)`` in one inlined mixer round (the hot scalar draw)."""
    z = ((base ^ stream) + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return ((z ^ (z >> 31)) >> 11) * _UNIT


def _as_u64(part: "np.ndarray | int") -> np.ndarray:
    if isinstance(part, np.ndarray):
        return part.astype(np.uint64, copy=False)
    return np.asarray(int(part) & MASK64, dtype=np.uint64)


def key_array(*parts: "np.ndarray | int") -> np.ndarray:
    """Array form of :func:`key`: parts broadcast, the result is uint64.

    Always at least one-dimensional, so every mixer step is an array
    operation whose uint64 products wrap silently.
    """
    shape = np.broadcast_shapes((1,), *(np.shape(part) for part in parts))
    h = np.zeros(shape, dtype=np.uint64)
    for part in parts:
        h ^= _as_u64(part)
        h += np.uint64(_GAMMA)
        h ^= h >> np.uint64(30)
        h *= np.uint64(_M1)
        h ^= h >> np.uint64(27)
        h *= np.uint64(_M2)
        h ^= h >> np.uint64(31)
    return h


def hash01_array(*parts: "np.ndarray | int") -> np.ndarray:
    """Array form of :func:`hash01`: float64 draws in ``[0, 1)``."""
    return (key_array(*parts) >> np.uint64(11)).astype(np.float64) * _UNIT


def draw_array(base: np.ndarray, stream: int) -> np.ndarray:
    """Array form of :func:`draw` over per-entity base keys."""
    return hash01_array(base ^ np.uint64(stream))


@lru_cache(maxsize=4096)
def stream(*parts: int) -> int:
    """:func:`key` memoised, for the per-context half of a ``base ^ stream`` draw."""
    return key(*parts)
