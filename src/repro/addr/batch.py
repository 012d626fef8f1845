"""Columnar IPv6 address batches (the vectorised substrate).

Scalar :class:`~repro.addr.address.IPv6Address` objects are convenient but far
too slow for the paper's probing volumes: multi-level APD alone fans out 16
targets per candidate prefix at every length from /64 to /124, and the daily
hitlist service re-probes the whole input on five protocols.  This module
keeps whole *batches* of addresses as a pair of numpy ``uint64`` arrays (the
upper and lower 64 bits of each address) so that the hot operations -- nybble
extraction, prefix truncation, EUI-64 detection, longest-prefix matching and
fan-out target generation -- become a handful of array operations instead of
per-address Python round-trips.

Three pieces live here:

* :class:`AddressBatch` -- the columnar address representation with bulk
  versions of the :class:`IPv6Address` accessors,
* :class:`FlatLPM` -- a flattened longest-prefix-match table: a prefix set is
  decomposed once into disjoint 128-bit intervals so that batch lookups are a
  single native binary search instead of one scalar lookup per address,
* :func:`batch_fanout_targets` -- vectorised generation of the paper's
  16-probe APD fan-out for many prefixes at once (Table 3).

128-bit values do not fit numpy's integer dtypes, so every search packs each
``(hi, lo)`` pair into one 16-byte big-endian ``V16`` key, whose byte order
is its numeric order, and makes one native ``np.searchsorted`` call.  A
table searched again and again keeps its side packed (:class:`FlatLPM`,
:class:`PackedKeys`); the layout never leaves this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import keyed
from repro.addr.address import (
    BITS,
    FULL_MASK,
    LO_MASK,
    IPv6Address,
    _to_int,
)
from repro.addr.prefix import IPv6Prefix

#: All-ones 64-bit mask as a numpy scalar.
U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

_LO_MASK = LO_MASK


def _shl64(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Elementwise ``x << shift`` on uint64 where ``shift`` may fall outside 0..63.

    C (and therefore numpy) leaves shifts by >= the bit width undefined; this
    helper returns 0 for out-of-range lanes (including negative shift counts,
    which appear in lanes a surrounding ``np.where`` discards), the
    arithmetically correct result for mask building.
    """
    x = np.asarray(x, dtype=np.uint64)
    shift = np.asarray(shift)
    ok = (shift >= 0) & (shift < 64)
    safe = np.where(ok, shift, 0).astype(np.uint64)
    return np.where(ok, x << safe, np.uint64(0))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` of uint64 values: smear the top bit
    down, then count the ones."""
    for shift in (1, 2, 4, 8, 16, 32):
        x = x | (x >> np.uint64(shift))
    return np.bitwise_count(x).astype(np.int64)


def _shr64(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Elementwise ``x >> shift`` on uint64, returning 0 where shift is outside 0..63."""
    x = np.asarray(x, dtype=np.uint64)
    shift = np.asarray(shift)
    ok = (shift >= 0) & (shift < 64)
    safe = np.where(ok, shift, 0).astype(np.uint64)
    return np.where(ok, x >> safe, np.uint64(0))


def readonly_view(array: np.ndarray) -> np.ndarray:
    """A read-only view of *array* (shares memory, no copy).

    The publish-boundary guard: everything a hitlist snapshot hands out is
    wrapped in one of these, so a consumer that tries to mutate published
    arrays gets an immediate ``ValueError`` from numpy instead of silently
    corrupting state shared with concurrent readers.
    """
    view = array.view()
    view.flags.writeable = False
    return view


def prefix_masks(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) netmasks for an array of prefix lengths (0..128)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    mask_hi = _shl64(U64_MAX, 64 - np.minimum(lengths, 64))
    mask_lo = _shl64(U64_MAX, 128 - np.maximum(lengths, 64))
    return mask_hi, mask_lo


class AddressBatch:
    """A batch of IPv6 addresses stored column-wise as uint64 hi/lo arrays.

    The batch is immutable by convention: operations return new batches (or
    plain numpy arrays) and never modify ``hi``/``lo`` in place.
    """

    __slots__ = ("hi", "lo")

    #: Immutability contract, enforced statically by reprolint rule R2:
    #: the limb arrays are bound once in ``__init__`` and never rebound or
    #: mutated in place -- every operation returns a new batch or new arrays.
    __frozen_arrays__ = ("hi", "lo")

    def __init__(self, hi: np.ndarray, lo: np.ndarray):
        hi = np.asarray(hi, dtype=np.uint64)
        lo = np.asarray(lo, dtype=np.uint64)
        if hi.ndim != 1 or hi.shape != lo.shape:
            raise ValueError("hi and lo must be 1-D arrays of equal length")
        self.hi = hi
        self.lo = lo

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "AddressBatch":
        return cls(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64))

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "AddressBatch":
        """Build a batch from an iterable of 128-bit integers."""
        vals = values if isinstance(values, list) else list(values)
        n = len(vals)
        hi = np.fromiter((v >> 64 for v in vals), dtype=np.uint64, count=n)
        lo = np.fromiter((v & _LO_MASK for v in vals), dtype=np.uint64, count=n)
        return cls(hi, lo)

    @classmethod
    def from_addresses(
        cls, addresses: Iterable["IPv6Address | int | str"]
    ) -> "AddressBatch":
        """Build a batch from address-like values (addresses, ints, strings)."""
        return cls.from_ints([_to_int(a) for a in addresses])

    @classmethod
    def concatenate(cls, batches: Sequence["AddressBatch"]) -> "AddressBatch":
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([b.hi for b in batches]),
            np.concatenate([b.lo for b in batches]),
        )

    # -- conversion --------------------------------------------------------

    def to_ints(self) -> list[int]:
        """The batch as a list of plain 128-bit Python integers."""
        his = self.hi.tolist()
        los = self.lo.tolist()
        return [(h << 64) | l for h, l in zip(his, los)]

    def to_addresses(self) -> list[IPv6Address]:
        """The batch as scalar :class:`IPv6Address` objects."""
        return [IPv6Address(v) for v in self.to_ints()]

    def __len__(self) -> int:
        return int(self.hi.shape[0])

    def __getitem__(self, index: int) -> IPv6Address:
        return IPv6Address((int(self.hi[index]) << 64) | int(self.lo[index]))

    def __iter__(self) -> Iterator[IPv6Address]:
        return iter(self.to_addresses())

    def __repr__(self) -> str:
        return f"AddressBatch(n={len(self)})"

    # -- structure ---------------------------------------------------------

    @property
    def network_part(self) -> np.ndarray:
        """The upper 64 bits of every address."""
        return self.hi

    @property
    def iid(self) -> np.ndarray:
        """The lower 64 bits (interface identifiers)."""
        return self.lo

    def nybble(self, index: int) -> np.ndarray:
        """Nybble *index* (1-based, as in the paper's Eq. 2) of every address."""
        if not 1 <= index <= 32:
            raise IndexError(f"nybble index out of range: {index}")
        if index <= 16:
            shift = np.uint64(4 * (16 - index))
            return ((self.hi >> shift) & np.uint64(0xF)).astype(np.uint8)
        shift = np.uint64(4 * (32 - index))
        return ((self.lo >> shift) & np.uint64(0xF)).astype(np.uint8)

    def nybbles_matrix(self, first: int = 1, last: int = 32) -> np.ndarray:
        """An ``(n, last-first+1)`` uint8 matrix of nybble values.

        Column *j* holds nybble ``first + j`` of every address; this is the
        input shape of the entropy fingerprint computation (Section 4).
        """
        if not 1 <= first <= last <= 32:
            raise ValueError(f"invalid nybble span {first}..{last}")
        columns = [self.nybble(index) for index in range(first, last + 1)]
        return np.stack(columns, axis=1) if columns else np.zeros((len(self), 0), np.uint8)

    def masked(self, length: int) -> "AddressBatch":
        """Every address truncated to its covering /*length* network.

        The batch equivalent of ``IPv6Prefix.of(addr, length).network``.
        """
        host_bits = BITS - int(length)
        mask = FULL_MASK >> host_bits << host_bits
        return AddressBatch(self.hi & np.uint64(mask >> 64), self.lo & np.uint64(mask & _LO_MASK))

    def is_slaac_eui64(self) -> np.ndarray:
        """Boolean array: does the IID carry the EUI-64 ``ff:fe`` marker?"""
        return ((self.lo >> np.uint64(24)) & np.uint64(0xFFFF)) == np.uint64(0xFFFE)

    def iid_hamming_weight(self) -> np.ndarray:
        """Bits set in each interface identifier (Section 8)."""
        return np.bitwise_count(self.lo)

    def hamming_weight(self) -> np.ndarray:
        """Bits set across each full 128-bit address."""
        return np.bitwise_count(self.hi) + np.bitwise_count(self.lo)

    def mac_vendor_oui(self) -> np.ndarray:
        """Per-address 24-bit vendor OUI for EUI-64 IIDs, -1 otherwise."""
        oui = ((self.lo >> np.uint64(40)) & np.uint64(0xFFFFFF)) ^ np.uint64(0x020000)
        return np.where(self.is_slaac_eui64(), oui.astype(np.int64), np.int64(-1))

    # -- ordering ----------------------------------------------------------

    def argsort(self) -> np.ndarray:
        """Indices sorting the batch in ascending 128-bit order (stable).

        Two stable passes, ``lo`` then ``hi`` -- what ``np.lexsort`` does,
        but through numpy's faster typed argsort.
        """
        order = np.argsort(self.lo, kind="stable")
        return order[np.argsort(self.hi[order], kind="stable")]

    def take(self, indices: np.ndarray) -> "AddressBatch":
        return AddressBatch(self.hi[indices], self.lo[indices])

    def readonly(self) -> "AddressBatch":
        """This batch with read-only ``hi``/``lo`` views (no copy).

        Hands the same memory to consumers while making in-place mutation a
        ``ValueError``; see :func:`readonly_view`.
        """
        return AddressBatch(readonly_view(self.hi), readonly_view(self.lo))

    def sort(self) -> "AddressBatch":
        return self.take(self.argsort())

    def is_sorted(self) -> bool:
        """Is the batch in ascending 128-bit order (duplicates allowed)?"""
        if len(self) < 2:
            return True
        hi, lo = self.hi, self.lo
        ascending = (hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] >= lo[:-1]))
        return bool(ascending.all())

    def sorted_run_starts(self) -> np.ndarray:
        """Start index of every run of equal addresses (batch must be sorted).

        The shared boundary-scan behind dedup, provenance merging and
        prefix grouping: one vectorised neighbour comparison instead of a
        Python group-by.
        """
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        boundary = np.ones(len(self), dtype=bool)
        boundary[1:] = (self.hi[1:] != self.hi[:-1]) | (self.lo[1:] != self.lo[:-1])
        return np.flatnonzero(boundary).astype(np.int64)

    def shared_prefix_lengths(self) -> np.ndarray:
        """Leading bits each address shares with the one before it (-1 first).

        In a sorted batch a row starts a new /*L* network exactly where this
        is below *L*, so one neighbour comparison serves every prefix length.
        """
        shared = np.full(len(self), -1, dtype=np.int64)
        if len(self) > 1:
            x_hi = self.hi[1:] ^ self.hi[:-1]
            x_lo = self.lo[1:] ^ self.lo[:-1]
            shared[1:] = np.where(x_hi != 0, 64 - _bit_length(x_hi), 128 - _bit_length(x_lo))
        return shared

    def unique(self) -> "AddressBatch":
        """Sorted batch with duplicate addresses removed."""
        if len(self) == 0:
            return AddressBatch.empty()
        s = self.sort()
        return s.take(s.sorted_run_starts())

    def unique_stable(self) -> "AddressBatch":
        """Duplicates removed, first occurrences kept in input order.

        The batch equivalent of :func:`repro.addr.generate.dedupe`: the
        sort behind :meth:`argsort` is stable, so the first row of every
        equal run carries the smallest original index -- sorting those
        indices restores first-seen order.
        """
        if len(self) == 0:
            return AddressBatch.empty()
        order = self.argsort()
        s = self.take(order)
        firsts = order[s.sorted_run_starts()]
        return self.take(np.sort(firsts))

    def prefix_groups(
        self, length: int
    ) -> tuple[np.ndarray, np.ndarray, "AddressBatch"]:
        """Group the batch by covering /*length* prefix in one sort.

        Returns ``(order, starts, networks)`` where ``order`` sorts the batch
        by masked prefix (ties broken arbitrarily but deterministically),
        ``starts[g]`` is the first position of group *g* within the sorted
        batch, and ``networks`` holds each group's network address (one entry
        per group, ascending).  This is the batch equivalent of
        ``group_by_prefix``: one ``lexsort`` + one boundary scan instead of a
        Python dict fill with per-address ``IPv6Prefix`` construction.
        """
        masked = self.masked(length)
        order = np.lexsort((masked.lo, masked.hi))
        if len(self) == 0:
            return order, np.zeros(0, dtype=np.int64), AddressBatch.empty()
        hi = masked.hi[order]
        lo = masked.lo[order]
        boundary = np.ones(len(self), dtype=bool)
        boundary[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.flatnonzero(boundary).astype(np.int64)
        return order, starts, AddressBatch(hi[starts], lo[starts])


def _pack128(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``(hi, lo)`` pairs as ``V16`` keys: ``hi`` then ``lo``, both big-endian,
    so numpy's bytewise ``V16`` order is the keys' 128-bit order."""
    hi = np.asarray(hi, dtype=np.uint64)
    keys = np.empty(hi.shape + (2,), dtype=">u8")
    keys[..., 0] = hi
    keys[..., 1] = lo
    return keys.view("V16")[..., 0]


def _exact_positions(keys: np.ndarray, queries: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """*pos* (left insertion points of *queries* in *keys*) where the key
    there equals the query, -1 where the query is absent."""
    n = int(keys.shape[0])
    if n == 0:
        return np.full(queries.shape, -1, dtype=np.int64)
    safe = np.minimum(pos, n - 1)
    return np.where(keys[safe] == queries, safe, np.int64(-1))


def searchsorted128(
    sorted_hi: np.ndarray,
    sorted_lo: np.ndarray,
    query_hi: np.ndarray,
    query_lo: np.ndarray,
    side: str = "right",
) -> np.ndarray:
    """``np.searchsorted`` over 128-bit ``(hi, lo)`` keys.

    ``sorted_hi/lo`` must be sorted in ascending 128-bit order.  Both sides
    are packed into 16-byte keys and searched with one native call.
    """
    return np.searchsorted(
        _pack128(sorted_hi, sorted_lo), _pack128(query_hi, query_lo), side=side
    )


class PackedKeys:
    """A sorted batch packed once into 16-byte keys, for repeated searches.

    :func:`searchsorted128` packs both sides on every call; a table searched
    on every probe pass packs its own side once here, as :class:`FlatLPM`
    does with its interval starts.
    """

    __slots__ = ("_keys",)

    #: Immutability contract, enforced statically by reprolint rule R2.
    __frozen_arrays__ = ("_keys",)

    def __init__(self, batch: AddressBatch):
        self._keys = _pack128(batch.hi, batch.lo)

    def searchsorted(self, batch: AddressBatch, side: str = "right") -> np.ndarray:
        """:func:`searchsorted128` of *batch* into the packed keys."""
        return np.searchsorted(self._keys, _pack128(batch.hi, batch.lo), side=side)


def find128(
    sorted_hi: np.ndarray,
    sorted_lo: np.ndarray,
    query_hi: np.ndarray,
    query_lo: np.ndarray,
) -> np.ndarray:
    """Exact-match positions of queries in sorted ``(hi, lo)`` arrays, -1 if absent."""
    keys = _pack128(sorted_hi, sorted_lo)
    queries = _pack128(query_hi, query_lo)
    return _exact_positions(keys, queries, np.searchsorted(keys, queries))


def union_sorted(
    base: AddressBatch, incoming: AddressBatch
) -> tuple[AddressBatch, np.ndarray, np.ndarray, np.ndarray]:
    """Merge a sorted-unique *incoming* batch into a sorted-unique *base*.

    This is the vectorised dedup step of the incremental hitlist merge: the
    standing batch stays sorted, so one native search of the day's new
    records gives both their membership and their insertion points -- no
    Python-dict round-trips.

    Returns ``(merged, base_pos, incoming_pos, is_new)`` where ``merged`` is
    the sorted union, ``base_pos[i]`` is the position of ``base[i]`` in
    ``merged``, ``incoming_pos[j]`` the position of ``incoming[j]`` in
    ``merged``, and ``is_new[j]`` flags incoming rows absent from ``base``.
    """
    n, m = len(base), len(incoming)
    if m == 0:
        return base, np.arange(n, dtype=np.int64), np.zeros(0, np.int64), np.zeros(0, bool)
    keys = _pack128(base.hi, base.lo)
    queries = _pack128(incoming.hi, incoming.lo)
    pos = np.searchsorted(keys, queries)
    match = _exact_positions(keys, queries, pos)
    is_new = match < 0
    fresh = incoming.take(is_new)
    insert = pos[is_new]
    # Each base row shifts right by the number of fresh rows inserted at or
    # before it; fresh row j lands at its insertion point plus its own rank.
    inserted_before = np.cumsum(np.bincount(insert, minlength=n + 1)).astype(np.int64)
    base_pos = np.arange(n, dtype=np.int64) + inserted_before[:n]
    fresh_pos = insert + np.arange(len(fresh), dtype=np.int64)
    merged_hi = np.empty(n + len(fresh), dtype=np.uint64)
    merged_lo = np.empty(n + len(fresh), dtype=np.uint64)
    merged_hi[base_pos] = base.hi
    merged_lo[base_pos] = base.lo
    merged_hi[fresh_pos] = fresh.hi
    merged_lo[fresh_pos] = fresh.lo
    incoming_pos = np.empty(m, dtype=np.int64)
    incoming_pos[is_new] = fresh_pos
    incoming_pos[~is_new] = base_pos[match[~is_new]]
    return AddressBatch(merged_hi, merged_lo), base_pos, incoming_pos, is_new


def prefix_columns(prefixes: Iterable["IPv6Prefix"]) -> tuple[AddressBatch, np.ndarray]:
    """The networks and lengths of *prefixes*, as :class:`FlatLPM` takes them."""
    prefixes = list(prefixes)
    nets = AddressBatch.from_ints([prefix.network for prefix in prefixes])
    return nets, np.fromiter((prefix.length for prefix in prefixes), np.int64, len(prefixes))


class FlatLPM:
    """Flattened longest-prefix matching over a fixed prefix set.

    A set of CIDR prefixes (any two are either disjoint or nested) is swept
    once into at most ``2 * len(prefixes) + 1`` disjoint address intervals,
    each annotated with the index of its most specific covering prefix.  A
    batch lookup is then one native search of the packed interval starts --
    replacing the per-address :class:`~repro.addr.trie.PrefixTrie` probes of
    scalar de-aliasing and BGP mapping.
    """

    __slots__ = ("objects", "_start_keys", "_values")

    #: Immutability contract, enforced statically by reprolint rule R2: the
    #: interval arrays are built once in ``__init__`` and then only read --
    #: lookups are pure searchsorted probes over frozen columns.
    __frozen_arrays__ = ("_start_keys", "_values")

    def __init__(self, nets: AddressBatch, lengths: np.ndarray, values: Iterable[object]):
        """Prefix *i* is ``nets[i]/lengths[i]`` and carries value *i*
        (:func:`prefix_columns` turns prefix objects into the two columns)."""
        #: Value objects, indexable by the result of :meth:`lookup_indices`.
        self.objects: list[object] = list(values)
        n = len(self.objects)
        lengths = np.asarray(lengths, dtype=np.int64)
        mask_hi, mask_lo = prefix_masks(lengths)
        # Each prefix opens at its network and closes one past its last
        # address, unless that wraps past the top of the address space.
        close_lo = (nets.lo | ~mask_lo) + np.uint64(1)
        close_hi = (nets.hi | ~mask_hi) + (close_lo == 0)
        closing = np.flatnonzero((close_hi != 0) | (close_lo != 0))
        # Events in address order; at one address the closes come first,
        # inner to outer, then the opens, outer to inner (of two equal
        # prefixes the later one is inner, so it wins).
        rank = lengths * n + np.arange(n)
        hi = np.concatenate([close_hi[closing], nets.hi])
        lo = np.concatenate([close_lo[closing], nets.lo])
        order = np.lexsort((np.concatenate([-1 - rank[closing], rank]), lo, hi))
        hi, lo = hi[order], lo[order]
        opens = order >= closing.size
        value = np.concatenate([closing, np.arange(n)])[order]
        # Nested prefixes pair up like brackets: after a close, the innermost
        # prefix still open is the last one opened at the remaining depth.
        closes = ~opens
        depth = np.cumsum(np.where(opens, 1, -1))
        key = depth * hi.size + np.arange(hi.size)
        by_key = np.argsort(key[opens])
        open_keys = key[opens][by_key]
        found = np.searchsorted(open_keys, key[closes]) - 1
        same_depth = np.append(open_keys // max(hi.size, 1), -1)[found] == depth[closes]
        value[closes] = np.where(same_depth, np.append(value[opens][by_key], -1)[found], -1)
        # An address's interval takes the value after its last event.
        last = np.ones(hi.size, dtype=bool)
        last[:-1] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        hi, lo, value = hi[last], lo[last], value[last]
        if not (hi.size and hi[0] == 0 and lo[0] == 0):
            hi, lo, value = np.insert(hi, 0, 0), np.insert(lo, 0, 0), np.insert(value, 0, -1)
        self._start_keys = _pack128(hi, lo)
        self._values = value.astype(np.int64)

    def __len__(self) -> int:
        return len(self.objects)

    def starts(self) -> AddressBatch:
        """First address of every interval, ascending (the first is ``::``)."""
        limbs = self._start_keys.view(">u8")
        return AddressBatch(limbs[0::2], limbs[1::2])

    def lookup_indices(self, batch: AddressBatch) -> np.ndarray:
        """Index (into :attr:`objects`) of each address's most specific
        covering prefix, or -1 where no stored prefix covers the address."""
        pos = np.searchsorted(self._start_keys, _pack128(batch.hi, batch.lo), side="right")
        return self._values[pos - 1]


def _host_masks(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) masks of the low *shift* host bits of each address."""
    mask_hi = np.where(
        shift > 64, _shl64(np.uint64(1), shift - 64) - np.uint64(1), np.uint64(0)
    )
    mask_lo = np.where(shift >= 64, U64_MAX, _shl64(np.uint64(1), shift) - np.uint64(1))
    return mask_hi, mask_lo


def _random_host_bits(
    shift: np.ndarray, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random (hi, lo) fills for the low *shift* host bits of each address."""
    rand_hi = rng.integers(0, U64_MAX, size=count, dtype=np.uint64, endpoint=True)
    rand_lo = rng.integers(0, U64_MAX, size=count, dtype=np.uint64, endpoint=True)
    mask_hi, mask_lo = _host_masks(shift)
    return rand_hi & mask_hi, rand_lo & mask_lo


def batch_fanout_targets(
    prefixes: Sequence["IPv6Prefix"], seed: int = 0, day: int = 0
) -> tuple[AddressBatch, np.ndarray, np.ndarray]:
    """Vectorised APD fan-out generation for many prefixes at once.

    For every prefix of length ``L`` the fan-out picks one address in each of
    its 16 length-``L+4`` subprefixes (fewer for L > 124, where the remaining
    host bits are enumerated), exactly like the scalar
    :func:`repro.addr.generate.fanout_targets`.  The branch number sits just
    below the prefix; the host bits below it are keyed on (prefix, day,
    branch, *seed*) (:mod:`repro.keyed`), so a row's target never depends on
    which other rows are built with it.  Returns ``(targets, prefix_index,
    branch)``: the targets of one prefix are contiguous and ordered by
    branch, ``prefix_index[i]`` is the position of row *i*'s prefix in
    *prefixes* and ``branch[i]`` its fan-out branch number.
    """
    num = len(prefixes)
    lengths = np.fromiter((p.length for p in prefixes), np.int64, num)
    counts = 1 << (np.minimum(lengths + 4, BITS) - lengths)
    prefix_index = np.repeat(np.arange(num), counts)
    branch = np.arange(len(prefix_index)) - np.repeat(np.cumsum(counts) - counts, counts)
    net_hi = np.fromiter((p.network >> 64 for p in prefixes), np.uint64, num)[prefix_index]
    net_lo = np.fromiter((p.network & _LO_MASK for p in prefixes), np.uint64, num)[prefix_index]
    lengths = lengths[prefix_index]
    # ``shift`` is the bit position of the branch field and simultaneously
    # the number of host bits below it.
    shift = BITS - np.minimum(lengths + 4, BITS)
    b = branch.astype(np.uint64)
    hi_part = np.where(shift >= 64, _shl64(b, shift - 64), _shr64(b, 64 - shift))
    lo_part = np.where(shift >= 64, np.uint64(0), _shl64(b, shift))
    prefix_key = keyed.key_array(net_hi, net_lo, lengths)
    hi_stream = np.uint64(keyed.stream(keyed.FANOUT_HI, seed, day))
    lo_stream = np.uint64(keyed.stream(keyed.FANOUT_LO, seed, day))
    mask_hi, mask_lo = _host_masks(shift)
    targets = AddressBatch(
        net_hi | hi_part | (keyed.key_array(prefix_key ^ hi_stream, b) & mask_hi),
        net_lo | lo_part | (keyed.key_array(prefix_key ^ lo_stream, b) & mask_lo),
    )
    return targets, prefix_index, branch


def random_batch_in_prefix(
    prefix: "IPv6Prefix", count: int, rng: np.random.Generator
) -> AddressBatch:
    """*count* pseudo-random addresses uniformly drawn from *prefix* (batch)."""
    shift = np.int64(BITS - prefix.length)
    rand_hi, rand_lo = _random_host_bits(shift, count, rng)
    hi = np.uint64(prefix.network >> 64) | rand_hi
    lo = np.uint64(prefix.network & _LO_MASK) | rand_lo
    return AddressBatch(hi, lo)
