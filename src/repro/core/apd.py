"""Multi-level aliased prefix detection (Section 5).

For every candidate prefix the detector sends 16 probes, one to a
pseudo-random address in each 4-bit subprefix (the fan-out of Table 3), on
both ICMPv6 and TCP/80.  An address counts as responsive when either protocol
answers (cross-protocol merging, Section 5.2); a prefix is labelled aliased
when all 16 fan-out addresses are responsive.  Detection runs at multiple
prefix lengths -- every length from /64 to /124 in 4-bit steps that covers
more than ``min_targets_per_prefix`` hitlist addresses, plus all /64s -- and
the final per-address classification uses longest-prefix matching over the
probed prefixes.

Both probing engines publish one outcome form, a (branch x protocol)
matrix per prefix (:class:`PrefixProbeOutcome`), and one result form, the
immutable verdict table :class:`APDResult`, so the sliding window, the
daily service and its snapshots read every outcome the same way.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from itertools import compress
from typing import Any

import numpy as np

from repro.addr.address import IPv6Address, _to_int
from repro.addr.batch import (
    AddressBatch,
    FlatLPM,
    _exact_positions,
    batch_fanout_targets,
    prefix_masks,
    readonly_view,
)
from repro.addr.generate import fanout_targets
from repro.addr.prefix import IPv6Prefix
from repro.exec import ExecutionPolicy
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import Protocol

#: The protocols whose answers APD merges by default (Section 5.2).
APD_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80)


#: A key of the verdict table: the network's two limbs, big-endian, then the
#: length byte, so numpy's bytewise order of the packed keys is prefix order.
_KEY = np.dtype([("hi", ">u8"), ("lo", ">u8"), ("length", "u1")])
_PACKED = np.dtype((np.void, _KEY.itemsize))


def _key_bytes(prefix: IPv6Prefix) -> bytes:
    """One prefix's key in :data:`_KEY`'s byte layout."""
    return prefix.network.to_bytes(16, "big") + bytes((prefix.length,))


def _prefix_keys(prefixes: Iterable[IPv6Prefix]) -> np.ndarray:
    return np.frombuffer(b"".join(map(_key_bytes, prefixes)), dtype=_KEY)


def _key_order(keys: np.ndarray) -> np.ndarray:
    """The rows of *keys* in prefix order, the last of each repeated key."""
    _, last = np.unique(keys.view(_PACKED)[::-1], return_index=True)
    return len(keys) - 1 - last


@dataclass(frozen=True, slots=True)
class APDConfig:
    """Parameters of the multi-level aliased prefix detection."""

    #: Prefix lengths at which hitlist addresses are aggregated (4-bit steps).
    prefix_lengths: tuple[int, ...] = tuple(range(64, 125, 4))
    #: Only prefixes with more than this many hitlist addresses are probed ...
    min_targets_per_prefix: int = 100
    #: ... except /64 prefixes, which are always probed ("full analysis of all
    #: known /64 prefixes").
    always_probe_64: bool = True
    #: Protocols whose responses are merged (Section 5.2).
    protocols: tuple[Protocol, ...] = APD_PROTOCOLS

    def candidate_runs(self, batch: AddressBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The candidate rule over a sorted batch, all prefix lengths in one pass.

        A /L network qualifies with more than ``min_targets_per_prefix`` rows,
        and every /64 does while ``always_probe_64`` holds.  A /L network's
        rows are one run that starts where a row shares fewer than L leading
        bits with the row before it (:meth:`AddressBatch.shared_prefix_lengths`).
        Returns the qualifying networks' keys in prefix order, each network
        once, and the ``[start, end)`` rows of each.
        """
        lengths = np.asarray(self.prefix_lengths, dtype=np.int64)
        rows = max(len(batch), 1)
        # Row-major over (length, row): a run ends where the next one starts,
        # and each length's first run starts at row 0.
        flat = np.flatnonzero(batch.shared_prefix_lengths() < lengths[:, None])
        run_lengths = lengths[flat // rows]
        starts = flat % rows
        ends = starts + np.diff(flat, append=len(lengths) * len(batch))
        qualifies = ends - starts > self.min_targets_per_prefix
        if self.always_probe_64:
            qualifies |= run_lengths == 64
        starts, ends, run_lengths = starts[qualifies], ends[qualifies], run_lengths[qualifies]
        mask_hi, mask_lo = prefix_masks(run_lengths)
        keys = np.empty(len(starts), dtype=_KEY)
        keys["hi"], keys["lo"] = batch.hi[starts] & mask_hi, batch.lo[starts] & mask_lo
        keys["length"] = run_lengths
        order = _key_order(keys)
        return keys[order], starts[order], ends[order]


class PrefixProbeOutcome:
    """Probe outcome for one candidate prefix on one day.

    One storage form on both engines: the fan-out targets as ``hi``/``lo``
    limbs and a (branch x protocol) boolean matrix of who answered.  The
    fast engine stores slices of its one ``probe_batch`` matrix; the scalar
    engine fills its own matrix one ``probe`` at a time.  The hot path
    (`is_aliased`, `responsive_branches`) is an array reduction, and scalar
    targets/sets are materialised only when a consumer asks for them.  The
    matrix is never written after construction: fast-engine outcomes share
    one probe matrix, and a verdict table holds each outcome's verdict.
    """

    __slots__ = (
        "prefix",
        "day",
        "_target_limbs",
        "_matrix",
        "_protocols",
        "_aliased",
    )

    def __init__(
        self,
        prefix: IPv6Prefix,
        day: int,
        targets: list[IPv6Address] | None = None,
        branch_responses: list[set[Protocol]] | None = None,
        protocols: tuple[Protocol, ...] = APD_PROTOCOLS,
    ):
        batch = AddressBatch.from_addresses(targets or ())
        self.prefix = prefix
        self.day = day
        self._target_limbs = (batch.hi, batch.lo)
        self._protocols = protocols
        responses = branch_responses or []
        self._matrix = np.zeros((len(responses), len(protocols)), dtype=bool)
        for i, answered in enumerate(responses):
            self._matrix[i, [protocols.index(p) for p in answered]] = True
        self._aliased = None

    @classmethod
    def from_matrix(
        cls,
        prefix: IPv6Prefix,
        day: int,
        target_hi: np.ndarray,
        target_lo: np.ndarray,
        matrix: np.ndarray,
        protocols: tuple[Protocol, ...],
        aliased: bool,
    ) -> "PrefixProbeOutcome":
        """An outcome over a (branch x protocol) boolean matrix.

        The fan-out targets come as the ``hi``/``lo`` limbs of an
        :class:`AddressBatch`; *aliased* is the verdict the caller already
        reduced from the matrix.
        """
        outcome = cls.__new__(cls)
        outcome.prefix = prefix
        outcome.day = day
        outcome._target_limbs = (target_hi, target_lo)
        outcome._matrix = matrix
        outcome._protocols = protocols
        outcome._aliased = aliased
        return outcome

    @property
    def targets(self) -> list[IPv6Address]:
        """The fan-out target addresses (materialised on demand)."""
        return AddressBatch(*self._target_limbs).to_addresses()

    @property
    def num_targets(self) -> int:
        """Fan-out size without materialising scalar addresses."""
        return len(self._target_limbs[0])

    @property
    def branch_responses(self) -> list[set[Protocol]]:
        """Per-branch (0..15) set of protocols that answered."""
        return [{self._protocols[j] for j in row.nonzero()[0].tolist()} for row in self._matrix]

    @property
    def responsive_branches(self) -> set[int]:
        """Branch indices whose target answered on at least one protocol."""
        return set(np.flatnonzero(self._matrix.any(axis=1)).tolist())

    @property
    def num_responsive(self) -> int:
        return int(self._matrix.any(axis=1).sum())

    @property
    def is_aliased(self) -> bool:
        """All fan-out branches responded -> the prefix is labelled aliased."""
        if self._aliased is None:
            self._aliased = (
                self.num_responsive >= self.num_targets and self.num_targets > 0
            )
        return self._aliased

    @property
    def probes_sent(self) -> int:
        """Number of probe packets sent for this prefix (one per target and protocol)."""
        return self.num_targets * len(self._protocols)

    def __repr__(self) -> str:
        return (
            f"PrefixProbeOutcome({self.prefix}, day={self.day}, "
            f"responsive={self.num_responsive}/{self.num_targets})"
        )


class APDResult:
    """One detection's probed prefixes: an immutable table in prefix order.

    Every detector publishes it: one-shot APD, both engines of the daily
    service and the /96 baseline (whose outcomes are
    :class:`~repro.core.apd_murdock.MurdockPrefixOutcome`).  The columns are
    bound once in ``__init__`` and read-only: :attr:`keys` (``hi``, ``lo``,
    ``length``), the outcomes and :attr:`verdicts`.  :meth:`with_outcomes`
    builds a new table and never writes this one.  Addresses are judged by
    longest-prefix match over one :class:`FlatLPM`, built on first lookup,
    for batches and single addresses alike.
    """

    __slots__ = ("keys", "_outcomes", "verdicts", "_lpm")

    #: Immutability contract, enforced statically by reprolint rule R2.
    __frozen_arrays__ = ("keys", "_outcomes", "verdicts")

    def __init__(self, keys: np.ndarray, outcomes: np.ndarray, verdicts: np.ndarray):
        """Aligned columns in prefix order, each key once."""
        self.keys = readonly_view(keys)
        self._outcomes = readonly_view(outcomes)
        self.verdicts = readonly_view(verdicts)
        self._lpm: FlatLPM | None = None

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[Any]) -> "APDResult":
        """The table of *outcomes*, in any order (of one prefix's, the last)."""
        column = np.fromiter(outcomes, dtype=object)
        keys = _prefix_keys(outcome.prefix for outcome in column)
        order = _key_order(keys)
        column = column[order]
        verdicts = np.fromiter((o.is_aliased for o in column), dtype=bool, count=len(column))
        return cls(keys[order], column, verdicts)

    def with_outcomes(self, outcomes: Iterable[Any]) -> "APDResult":
        """A new table: new prefixes inserted in order, re-probed ones replaced."""
        update = APDResult.from_outcomes(outcomes)
        if not len(update.keys):
            return self
        table, queries = self.keys.view(_PACKED), update.keys.view(_PACKED)
        pos = np.searchsorted(table, queries)
        fresh = _exact_positions(table, queries, pos) < 0
        keys = np.insert(self.keys, pos[fresh], update.keys[fresh])
        column = np.insert(self._outcomes, pos[fresh], update._outcomes[fresh])
        verdicts = np.insert(self.verdicts, pos[fresh], update.verdicts[fresh])
        # Each update row lands after the fresh rows that sort before it.
        rows = pos + np.cumsum(fresh) - fresh
        column[rows] = update._outcomes
        verdicts[rows] = update.verdicts
        return APDResult(keys, column, verdicts)

    @property
    def outcomes(self) -> Mapping[IPv6Prefix, Any]:
        """Prefix -> outcome, a read-only view in prefix order."""
        return _OutcomeView(self)

    @property
    def aliased_prefixes(self) -> tuple[IPv6Prefix, ...]:
        """All prefixes labelled aliased, in prefix order."""
        return tuple(outcome.prefix for outcome in self._outcomes[self.verdicts])

    @property
    def probes_sent(self) -> int:
        """Total probe packets sent."""
        return sum(outcome.probes_sent for outcome in self._outcomes)

    @property
    def addresses_probed(self) -> int:
        """Total distinct target addresses probed."""
        return sum(outcome.num_targets for outcome in self._outcomes)

    @property
    def lpm(self) -> FlatLPM:
        """The probed prefixes as one :class:`FlatLPM` (index *i* = row *i*)."""
        if self._lpm is None:
            self._lpm = FlatLPM((outcome.prefix, outcome) for outcome in self._outcomes)
        return self._lpm

    def is_aliased(self, address: "IPv6Address | int | str") -> bool:
        """Longest-prefix-match classification of one address.

        The most specific probed prefix covering the address decides: this is
        what lets small non-aliased subprefixes survive inside aliased
        covering prefixes (the /116 anomaly of Section 5.1).
        """
        row = int(self.lpm.lookup_indices(AddressBatch.from_ints([_to_int(address)]))[0])
        return row >= 0 and bool(self.verdicts[row])

    def is_aliased_batch(self, batch: AddressBatch) -> np.ndarray:
        """:meth:`is_aliased` for a whole batch, in one LPM search."""
        # An uncovered address reads index -1: the appended False.
        return np.append(self.verdicts, False)[self.lpm.lookup_indices(batch)]

    def split(
        self, addresses: Iterable[IPv6Address]
    ) -> tuple[list[IPv6Address], list[IPv6Address]]:
        """Split addresses into (aliased, non-aliased) by longest-prefix match."""
        address_list = list(addresses)
        hits = self.is_aliased_batch(AddressBatch.from_addresses(address_list)).tolist()
        clean = [address for address, hit in zip(address_list, hits) if not hit]
        return list(compress(address_list, hits)), clean


class _OutcomeView(Mapping[IPv6Prefix, Any]):
    """The prefix -> outcome mapping of an :class:`APDResult`: its rows in
    order, and a lookup is one search of its keys."""

    __slots__ = ("_table",)

    def __init__(self, table: APDResult):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.keys)

    def __iter__(self) -> Iterator[IPv6Prefix]:
        return (outcome.prefix for outcome in self._table._outcomes)

    def __getitem__(self, prefix: IPv6Prefix) -> Any:
        if isinstance(prefix, IPv6Prefix):
            keys, key = self._table.keys.view(_PACKED), np.void(_key_bytes(prefix))
            row = int(keys.searchsorted(key))
            if row < len(keys) and keys[row] == key:
                return self._table._outcomes[row]
        raise KeyError(prefix)

    def values(self) -> ValuesView[Any]:
        return _OutcomeValues(self)


class _OutcomeValues(ValuesView[Any]):
    """The outcome column itself, without a lookup per key."""

    __slots__ = ()
    _mapping: _OutcomeView

    def __iter__(self) -> Iterator[Any]:
        return iter(self._mapping._table._outcomes)


class AliasedPrefixDetector:
    """The paper's multi-level APD over the simulated Internet.

    Two probing engines are available, selected by ``policy.reference``:

    * the fast engine (default): fan-out targets for all candidate prefixes
      are generated in one vectorised pass and resolved with a single
      :meth:`SimulatedInternet.probe_batch` call -- the hot path for whole
      hitlists, turning O(prefixes x 16 x protocols) Python probe round-trips
      into a handful of array operations.
    * the reference engine: the original per-probe scalar loop over
      :meth:`SimulatedInternet.probe`, kept for parity testing, ablations and
      benchmarks.  It records each answer into its outcome's matrix, the
      form the fast engine publishes.

    Fan-out host bits are keyed on (prefix, day, branch, *seed*) and every
    probe outcome on its own coordinates (:mod:`repro.keyed`), so the two
    engines return identical outcomes, loss and rate limiting included.
    """

    def __init__(
        self,
        internet: SimulatedInternet,
        config: APDConfig = APDConfig(),
        seed: int = 0,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.internet = internet
        self.config = config
        self.policy = policy
        self._seed = seed

    # -- candidate selection ----------------------------------------------------

    def candidate_prefixes(
        self,
        addresses: Sequence[IPv6Address],
        extra_prefixes: Iterable[IPv6Prefix] = (),
    ) -> list[IPv6Prefix]:
        """Prefixes to probe for a hitlist (Section 5.1).

        Hitlist addresses are mapped to every length in ``prefix_lengths``;
        a prefix qualifies when it covers more than ``min_targets_per_prefix``
        addresses, except /64s which always qualify.  ``extra_prefixes``
        (e.g. BGP announcements) are probed as given.
        """
        batch = AddressBatch.from_addresses(addresses).sort()
        keys, _, _ = self.config.candidate_runs(batch)
        candidates = [IPv6Prefix((hi << 64) | lo, length) for hi, lo, length in keys.tolist()]
        extra = set(extra_prefixes)
        return sorted(extra.union(candidates)) if extra else candidates

    # -- probing -----------------------------------------------------------------

    def _probe_prefix_scalar(self, prefix: IPv6Prefix, day: int = 0) -> PrefixProbeOutcome:
        """Reference implementation: one :meth:`SimulatedInternet.probe` call
        per target and protocol, recorded into the outcome's matrix."""
        targets = fanout_targets(prefix, self._seed, day)
        protocols = self.config.protocols
        matrix = np.array(
            [
                [self.internet.probe(target, protocol, day) is not None for protocol in protocols]
                for target in targets
            ],
            dtype=bool,
        ).reshape(len(targets), len(protocols))
        batch = AddressBatch.from_addresses(targets)
        return PrefixProbeOutcome.from_matrix(
            prefix,
            day,
            batch.hi,
            batch.lo,
            matrix,
            protocols,
            aliased=bool(len(targets)) and bool(matrix.any(axis=1).all()),
        )

    def probe_prefixes(
        self, prefixes: Iterable[IPv6Prefix], day: int = 0
    ) -> dict[IPv6Prefix, PrefixProbeOutcome]:
        """Probe many candidate prefixes in one vectorised pass (the hot path).

        The fan-out rows of every prefix (:func:`batch_fanout_targets`) are
        resolved by one :meth:`SimulatedInternet.probe_batch` call, and each
        prefix's outcome holds slices of its target columns and probe matrix.
        Duplicate prefixes collapse onto one outcome (probed once).
        """
        prefix_list = list(dict.fromkeys(prefixes))
        if self.policy.reference:
            return {p: self._probe_prefix_scalar(p, day) for p in prefix_list}
        if not prefix_list:
            return {}
        targets, prefix_index, _ = batch_fanout_targets(prefix_list, self._seed, day)
        protocols = self.config.protocols
        matrix = self.internet.probe_batch(targets, protocols, day).responsive
        ends = np.cumsum(np.bincount(prefix_index))
        starts = np.concatenate(([0], ends[:-1]))
        # A prefix is aliased when every one of its fan-out rows answered on
        # any protocol.
        aliased = np.logical_and.reduceat(matrix.any(axis=1), starts).tolist()
        outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        for prefix, start, end, verdict in zip(
            prefix_list, starts.tolist(), ends.tolist(), aliased
        ):
            outcomes[prefix] = PrefixProbeOutcome.from_matrix(
                prefix,
                day,
                targets.hi[start:end],
                targets.lo[start:end],
                matrix[start:end],
                protocols,
                aliased=verdict,
            )
        return outcomes

    def run(
        self,
        addresses: Sequence[IPv6Address] = (),
        prefixes: Iterable[IPv6Prefix] = (),
        day: int = 0,
    ) -> APDResult:
        """Run APD for a hitlist and/or an explicit prefix list on one day."""
        candidates = self.candidate_prefixes(addresses, extra_prefixes=prefixes)
        return APDResult.from_outcomes(self.probe_prefixes(candidates, day).values())

    def run_window(
        self,
        addresses: Sequence[IPv6Address],
        days: Sequence[int],
        prefixes: Iterable[IPv6Prefix] = (),
    ) -> "Mapping[int, APDResult]":
        """Run APD daily over several days (input to the sliding window)."""
        # Materialised once: a one-shot iterable must reach every day.
        prefixes = list(prefixes)
        return {day: self.run(addresses, prefixes, day) for day in days}
