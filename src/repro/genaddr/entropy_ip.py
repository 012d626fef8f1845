"""Entropy/IP: segment-based address structure model and generator.

Entropy/IP (Foremski et al., IMC 2016) discovers structure in a set of IPv6
addresses in three steps:

1. compute the per-nybble entropy profile of the seed set and split the 32
   nybble positions into *segments* of similar entropy;
2. for each segment, mine the frequent values (or value ranges) observed in
   the seeds;
3. connect adjacent segments in a Bayesian-network-like chain that captures
   which value combinations co-occur.

The generator then produces candidate addresses by walking the model.  The
paper improves the original random walk by enumerating combinations
*exhaustively in order of probability* under a scanning budget; that is what
:class:`EntropyIPGenerator` implements (a best-first search over the segment
chain).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.addr.address import HEX_ALPHABET, IPv6Address, NYBBLES
from repro.addr.batch import AddressBatch
from repro.core.entropy import nybble_entropies_of_matrix

_HEX_DIGITS = np.array(list(HEX_ALPHABET))


def _rows_as_hex(matrix: np.ndarray) -> list[str]:
    """Each row of a nybble-value matrix as one lowercase hex string."""
    if matrix.shape[0] == 0:
        return []
    chars = _HEX_DIGITS[matrix]
    return chars.view(f"<U{matrix.shape[1]}").ravel().tolist()


def _chunk_widths(width: int) -> list[int]:
    """Widths of the 16-nybble chunks a segment of *width* splits into."""
    return [min(16, width - offset) for offset in range(0, width, 16)]


def _pack_segment(matrix: np.ndarray, start: int, end: int) -> np.ndarray:
    """Pack nybble columns ``start..end`` (1-based, inclusive) into uint64s.

    Returns an ``(n, chunks)`` array: the segment is split into 16-nybble
    chunks from the left so each chunk fits a uint64 regardless of segment
    width.  Rows compare lexicographically (most significant chunk first)
    exactly like the fixed-width hex strings they stand for.
    """
    width = end - start + 1
    chunks = []
    offset = start - 1
    for chunk_width in _chunk_widths(width):
        columns = matrix[:, offset : offset + chunk_width].astype(np.uint64)
        powers = np.uint64(16) ** np.arange(
            chunk_width - 1, -1, -1, dtype=np.uint64
        )
        chunks.append((columns * powers).sum(axis=1))
        offset += chunk_width
    return np.stack(chunks, axis=1)


def _hex_of_packed(row: np.ndarray, width: int) -> str:
    """The fixed-width lowercase hex string a packed chunk row stands for."""
    return "".join(
        f"{int(value):0{chunk_width}x}"
        for value, chunk_width in zip(row, _chunk_widths(width))
    )


@dataclass(frozen=True, slots=True)
class Segment:
    """A run of adjacent nybble positions with similar entropy.

    ``start``/``end`` are 1-based inclusive nybble positions.
    """

    start: int
    end: int
    mean_entropy: float

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def slice_of(self, nybbles: str) -> str:
        """This segment's substring of a 32-nybble address string."""
        return nybbles[self.start - 1 : self.end]


def segment_positions(
    entropies: Sequence[float], threshold: float = 0.1, max_width: int = 8
) -> list[tuple[int, int]]:
    """Split nybble positions 1..N into segments of similar entropy.

    Adjacent positions are merged while their entropy differs by less than
    ``threshold`` from the running segment mean and the segment stays at most
    ``max_width`` nybbles wide (wide segments explode the value alphabet).
    """
    if not entropies:
        return []
    segments: list[tuple[int, int]] = []
    start = 1
    running: list[float] = [entropies[0]]
    for position in range(2, len(entropies) + 1):
        entropy = entropies[position - 1]
        mean = sum(running) / len(running)
        if abs(entropy - mean) > threshold or len(running) >= max_width:
            segments.append((start, position - 1))
            start = position
            running = [entropy]
        else:
            running.append(entropy)
    segments.append((start, len(entropies)))
    return segments


@dataclass(slots=True)
class SegmentModel:
    """Observed value distribution of one segment."""

    segment: Segment
    #: value (hex string) -> probability.
    probabilities: dict[str, float] = field(default_factory=dict)

    def top_values(self, limit: int | None = None) -> list[tuple[str, float]]:
        """Values ordered by decreasing probability."""
        ordered = sorted(self.probabilities.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered if limit is None else ordered[:limit]


class EntropyIPModel:
    """Segment decomposition + value statistics + adjacent-segment chain."""

    def __init__(
        self,
        seeds: "AddressBatch | Sequence[IPv6Address | int | str]",
        first_nybble: int = 1,
        entropy_threshold: float = 0.1,
        max_segment_width: int = 8,
        max_values_per_segment: int = 64,
    ):
        if len(seeds) == 0:
            raise ValueError("Entropy/IP needs at least one seed address")
        self.first_nybble = first_nybble
        batch = (
            seeds
            if isinstance(seeds, AddressBatch)
            else AddressBatch.from_addresses(seeds)
        )
        # One bulk nybble extraction feeds the entropy profile, the segment
        # value mining and the transition fitting below.
        self._seed_matrix = batch.nybbles_matrix(1, NYBBLES)
        self._seed_set = set(_rows_as_hex(self._seed_matrix))
        entropies = nybble_entropies_of_matrix(self._seed_matrix[:, first_nybble - 1 :])
        raw_segments = segment_positions(entropies, entropy_threshold, max_segment_width)
        self.segments: list[Segment] = [
            Segment(
                start=first_nybble + start - 1,
                end=first_nybble + end - 1,
                mean_entropy=sum(entropies[start - 1 : end]) / (end - start + 1),
            )
            for start, end in raw_segments
        ]
        self.max_values_per_segment = max_values_per_segment
        # Pack every segment's nybble columns once; value mining and
        # transition fitting both consume the packed columns.
        self._packed_segments = [
            _pack_segment(self._seed_matrix, segment.start, segment.end)
            for segment in self.segments
        ]
        self.segment_models: list[SegmentModel] = [
            self._fit_segment(index) for index in range(len(self.segments))
        ]
        self.transitions: list[dict[str, dict[str, float]]] = self._fit_transitions()

    # -- fitting ------------------------------------------------------------------

    def _fit_segment(self, index: int) -> SegmentModel:
        """Value mining over the packed segment columns (one ``np.unique``)."""
        segment = self.segments[index]
        values, value_counts = np.unique(
            self._packed_segments[index], axis=0, return_counts=True
        )
        # (-count, packed chunks most significant first) sorts exactly like
        # (-count, hex string) for fixed-width lowercase hex.
        keys = [values[:, c] for c in range(values.shape[1] - 1, -1, -1)]
        order = np.lexsort(tuple(keys) + (-value_counts,))
        kept = order[: self.max_values_per_segment]
        kept_total = int(value_counts[kept].sum()) or 1
        probabilities = {
            _hex_of_packed(values[i], segment.width): int(value_counts[i]) / kept_total
            for i in kept
        }
        return SegmentModel(segment=segment, probabilities=probabilities)

    def _fit_transitions(self) -> list[dict[str, dict[str, float]]]:
        """Conditional P(next segment value | this segment value) per boundary.

        Pair statistics come from one two-column ``np.unique`` over the packed
        (left, right) segment values instead of a per-seed string-slicing loop.
        """
        transitions: list[dict[str, dict[str, float]]] = []
        for boundary, (left, right) in enumerate(zip(self.segments, self.segments[1:])):
            lv = self._packed_segments[boundary]
            rv = self._packed_segments[boundary + 1]
            pairs, pair_counts = np.unique(
                np.hstack((lv, rv)), axis=0, return_counts=True
            )
            left_chunks = lv.shape[1]
            counts: dict[str, dict[str, int]] = {}
            for row, count in zip(pairs, pair_counts.tolist()):
                left_key = _hex_of_packed(row[:left_chunks], left.width)
                right_key = _hex_of_packed(row[left_chunks:], right.width)
                counts.setdefault(left_key, {})[right_key] = count
            table: dict[str, dict[str, float]] = {}
            for left_key, right_counts in counts.items():
                total = sum(right_counts.values())
                table[left_key] = {rk: c / total for rk, c in right_counts.items()}
            transitions.append(table)
        return transitions

    # -- probabilities -----------------------------------------------------------

    def candidate_values(self, index: int, previous_value: str | None) -> list[tuple[str, float]]:
        """Values of segment *index* with probabilities, conditioned on the
        previous segment's value when a transition entry exists."""
        model = self.segment_models[index]
        if index > 0 and previous_value is not None:
            table = self.transitions[index - 1].get(previous_value)
            if table:
                # Blend the conditional distribution with the marginal so that
                # unseen combinations still get some probability mass.
                blended: dict[str, float] = dict(model.probabilities)
                for value, p in table.items():
                    blended[value] = 0.5 * blended.get(value, 0.0) + 0.5 * p
                total = sum(blended.values())
                return sorted(
                    ((v, p / total) for v, p in blended.items()),
                    key=lambda kv: (-kv[1], kv[0]),
                )
        return model.top_values()

    def is_seed(self, nybbles: str) -> bool:
        """True when the 32-nybble string is one of the model's seeds."""
        return nybbles in self._seed_set

    def seed_values(self) -> frozenset[int]:
        """The seed addresses as 128-bit integers (built lazily, cached).

        The integer counterpart of :meth:`is_seed`, used by the batch
        generators which track candidates as packed integers instead of
        nybble strings.
        """
        cached = getattr(self, "_seed_values", None)
        if cached is None:
            cached = frozenset(int(nybbles, 16) for nybbles in self._seed_set)
            self._seed_values = cached
        return cached

    @property
    def seed_count(self) -> int:
        return int(self._seed_matrix.shape[0])


class _SegmentTables:
    """Integer-indexed views of a model's per-segment value alphabets.

    Heap states in the batch generator are tuples of small integers instead
    of hex strings; these tables map value ids back to strings (for
    conditioning lookups) and to their positional contribution to the final
    128-bit address.
    """

    __slots__ = ("id_of", "value_of", "contrib")

    def __init__(self, model: "EntropyIPModel"):
        self.id_of: list[dict[str, int]] = []
        self.value_of: list[list[str]] = []
        self.contrib: list[list[int]] = []
        last = len(model.segments) - 1
        for index, segment in enumerate(model.segments):
            values = set(model.segment_models[index].probabilities)
            if index > 0:
                for table in model.transitions[index - 1].values():
                    values.update(table)
            if index < last:
                values.update(model.transitions[index])
            ordered = sorted(values)
            shift = 4 * (NYBBLES - segment.end)
            self.id_of.append({value: i for i, value in enumerate(ordered)})
            self.value_of.append(ordered)
            self.contrib.append([int(value, 16) << shift for value in ordered])


class _Distribution:
    """One cached, id-indexed ``candidate_values`` result.

    ``logs`` carries ``math.log`` of each candidate probability (None for
    zero-probability entries, which the exhaustive search skips exactly like
    the scalar loop).
    """

    __slots__ = ("ids", "logs")

    def __init__(self, ids: list[int], probabilities: list[float]):
        self.ids = ids
        self.logs = [math.log(p) if p > 0 else None for p in probabilities]


class EntropyIPGenerator:
    """Exhaustive most-probable-first address generation from an Entropy/IP model.

    :meth:`generate` is the original per-address reference loop;
    :meth:`generate_batch` produces the same addresses (bit-identical for the
    same model and budget) as packed columnar :class:`AddressBatch` output --
    the search runs over integer value ids with memoised candidate
    distributions.
    """

    def __init__(self, model: EntropyIPModel):
        self.model = model
        self._tables: _SegmentTables | None = None
        self._distributions: dict[tuple[int, int | None], _Distribution] = {}

    def _ensure_tables(self) -> _SegmentTables:
        if self._tables is None:
            self._tables = _SegmentTables(self.model)
        return self._tables

    def _distribution(self, index: int, previous_id: int | None) -> _Distribution:
        """Memoised ``candidate_values`` for one (segment, previous value)."""
        key = (index, previous_id)
        cached = self._distributions.get(key)
        if cached is None:
            tables = self._ensure_tables()
            previous = (
                None if previous_id is None else tables.value_of[index - 1][previous_id]
            )
            candidates = self.model.candidate_values(index, previous)
            ids = [tables.id_of[index][value] for value, _ in candidates]
            cached = _Distribution(ids, [p for _, p in candidates])
            self._distributions[key] = cached
        return cached

    def generate(self, budget: int, include_seeds: bool = False) -> list[IPv6Address]:
        """Generate up to *budget* addresses, most probable first.

        A best-first search over segment assignments: states are partial
        assignments scored by the sum of log-probabilities; expanding a state
        fixes the next segment to one of its candidate values.  The first
        ``budget`` complete assignments popped from the priority queue are the
        most probable addresses under the model.

        Equal scores are broken by the candidate *rank* tuple (each segment's
        position in its probability-sorted candidate list) -- a content-based
        order shared with :meth:`generate_batch`, whose lazy-successor search
        must pop states in exactly the same sequence.
        """
        if budget <= 0:
            return []
        results: list[IPv6Address] = []
        # Heap entries: (negative log-probability, rank tuple, values tuple).
        # Rank tuples are unique per state, so values are never compared.
        heap: list[tuple[float, tuple[int, ...], tuple[str, ...]]] = [(0.0, (), ())]
        num_segments = len(self.model.segments)
        prefix_nybbles = "0" * (self.model.first_nybble - 1)
        while heap and len(results) < budget:
            neg_logp, ranks, values = heapq.heappop(heap)
            if len(values) == num_segments:
                nybbles = prefix_nybbles + "".join(values)
                if not include_seeds and self.model.is_seed(nybbles):
                    continue
                results.append(IPv6Address.from_nybbles(nybbles))
                continue
            index = len(values)
            previous = values[-1] if values else None
            for rank, (value, probability) in enumerate(
                self.model.candidate_values(index, previous)
            ):
                if probability <= 0:
                    continue
                heapq.heappush(
                    heap,
                    (neg_logp - math.log(probability), ranks + (rank,), values + (value,)),
                )
        return results

    def generate_batch(self, budget: int, include_seeds: bool = False) -> AddressBatch:
        """Batch counterpart of :meth:`generate`: same addresses, columnar output.

        Two changes make this the hot-path implementation while keeping the
        pop sequence bit-identical to :meth:`generate` (same scores via the
        same ``math.log`` accumulation, same rank-tuple tie-break):

        * candidate distributions are memoised per (segment, previous value)
          and indexed by integer ids -- no per-expansion sorting or string
          assembly;
        * successors are generated lazily: popping a state pushes only its
          first child and its next sibling, both of which score at least as
          high, instead of materialising every child.  The heap stays
          O(pops) instead of O(pops x alphabet).
        """
        if budget <= 0:
            return AddressBatch.empty()
        tables = self._ensure_tables()
        seeds = self.model.seed_values()
        results: list[int] = []
        num_segments = len(self.model.segments)
        # Heap entries: (score, ranks, ids, parent score).  Ranks are unique
        # per state, so the (non-comparable-by-score) tails never compare.
        heap: list[tuple[float, tuple[int, ...], tuple[int, ...], float]] = [
            (0.0, (), (), 0.0)
        ]

        def push(
            score: float,
            ranks: tuple[int, ...],
            ids: tuple[int, ...],
            rank: int,
            distribution: _Distribution,
        ) -> None:
            """Push the state extending/replacing the last rank with *rank*
            (advanced past zero-probability candidates, exactly like the
            scalar loop's ``probability <= 0`` skip)."""
            logs = distribution.logs
            while rank < len(logs) and logs[rank] is None:
                rank += 1
            if rank >= len(logs):
                return
            heapq.heappush(
                heap,
                (
                    score - logs[rank],
                    ranks + (rank,),
                    ids + (distribution.ids[rank],),
                    score,
                ),
            )

        while heap and len(results) < budget:
            neg_logp, ranks, ids, parent_score = heapq.heappop(heap)
            depth = len(ranks)
            if depth:
                # Next sibling: same prefix, next candidate of this segment.
                sibling_distribution = self._distribution(
                    depth - 1, ids[-2] if depth > 1 else None
                )
                push(parent_score, ranks[:-1], ids[:-1], ranks[-1] + 1, sibling_distribution)
            if depth == num_segments:
                address = 0
                for index, value_id in enumerate(ids):
                    address |= tables.contrib[index][value_id]
                if not include_seeds and address in seeds:
                    continue
                results.append(address)
                continue
            # First child: best candidate of the next segment.
            child_distribution = self._distribution(depth, ids[-1] if depth else None)
            push(neg_logp, ranks, ids, 0, child_distribution)
        return AddressBatch.from_ints(results)
