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
:class:`EntropyIPGenerator` implements.  Its reference loop is a best-first
search over the segment chain; its batch engine is one exact k-best beam
over sparse per-segment cost tables that emits the same addresses in the
same order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.addr.address import HEX_ALPHABET, IPv6Address, LO_MASK, NYBBLES
from repro.addr.batch import AddressBatch, find128
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

    def top_values(self) -> list[tuple[str, float]]:
        """Values ordered by decreasing probability."""
        return sorted(self.probabilities.items(), key=lambda kv: (-kv[1], kv[0]))


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
        #: Sorted-unique seed addresses: the batch generator's seed filter.
        self.seed_batch = batch.unique()
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

    @property
    def seed_count(self) -> int:
        return int(self._seed_matrix.shape[0])


#: Slack of the beam's selection threshold, relative to the threshold (and
#: absolute below 1).  A selection cost differs from the exact left-to-right
#: score by its summation order (under 64 ulp of the total) and by numpy
#: normalising each row of n candidates in its own order (about 2n ulp per
#: term).  With at most 32 terms and n at most the 100k seeds an AS is
#: capped at plus 64 marginal values, that is under 1e-9 (absolute below 1,
#: relative above); 1e-8 exceeds twice it, so the beam drops a prefix only
#: when K other prefixes' best completions score strictly better than every
#: completion of it, exact ties included.
_MARGIN = 1e-8

#: Children scored per expansion block.  It bounds one block's transient
#: score, id and pointer arrays to a few MB (~40 bytes a child), however many
#: transitions a segment's rows hold.
_BLOCK_CHILDREN = 1 << 16


def _limit(threshold: float) -> float:
    """The largest f the beam keeps when the k-th smallest f is *threshold*."""
    return threshold + _MARGIN * max(1.0, threshold)


def _row_pointers(owners: np.ndarray, rows: int) -> np.ndarray:
    """CSR row pointers of entries sorted by their owner row."""
    return np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=rows))))


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row position, entry index) of *counts* consecutive entries per row,
    each from its row's start."""
    owner = np.repeat(np.arange(len(starts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(int(counts.sum())) - np.repeat(first - starts, counts)


class _CostRows:
    """Selection costs of one segment's values given the previous segment's.

    Row *u* (a previous-segment value id, or the root for segment 0) holds
    ``-log p`` of what ``candidate_values(index, value_of[u])`` returns, with
    no (previous alphabet x alphabet) table: a row is the segment's marginal
    values (at most ``max_values_per_segment``) plus u's observed
    transitions.  A child's cost is ``offset[u] + raw``: ``offset[u]`` is the
    log of u's normalising total (0 for a row without transitions, which
    takes the marginal as is) and ``raw`` is ``-log m`` for a marginal value
    and ``-log(m/2 + c/2)`` for a transition.  A transition to a marginal
    value replaces that child (the ``blend`` entries, by marginal slot); any
    other adds one (the ``extra`` entries).  Both are CSR tables over u.

    ``completion`` is a value's cheapest cost over the later segments, so a
    child of a path scoring ``s`` has ``f = s + offset[u] + raw +
    completion``; ``extra_through`` holds ``raw + completion``.  These costs
    only select paths: numpy normalises and sums them in its own order, so
    they match the exact scores within :data:`_MARGIN`.
    """

    __slots__ = (
        "marginal_ids",
        "marginal_raw",
        "marginal_completion",
        "offset",
        "blend_ptr",
        "blend_slot",
        "blend_raw",
        "extra_ptr",
        "extra_ids",
        "extra_raw",
        "extra_through",
    )

    def __init__(
        self,
        model: "EntropyIPModel",
        tables: "_SegmentTables",
        index: int,
        completion: np.ndarray,
    ):
        id_of = tables.id_of[index]
        marginal = model.segment_models[index].top_values()
        probabilities = np.array([p for _, p in marginal])
        self.marginal_ids = np.array([id_of[value] for value, _ in marginal], dtype=np.int64)
        self.marginal_raw = -np.log(probabilities)
        self.marginal_completion = completion[self.marginal_ids]
        owners: list[int] = []
        children: list[int] = []
        conditional: list[float] = []
        previous_rows = 1
        if index > 0:
            previous_rows = len(tables.value_of[index - 1])
            previous_id = tables.id_of[index - 1]
            for previous, table in model.transitions[index - 1].items():
                owners.extend([previous_id[previous]] * len(table))
                children.extend(map(id_of.__getitem__, table))
                conditional.extend(table.values())
        owner = np.array(owners, dtype=np.int64)
        child = np.array(children, dtype=np.int64)
        size = len(tables.value_of[index])
        marginal_p = np.zeros(size)
        marginal_p[self.marginal_ids] = probabilities
        slot_of = np.full(size, -1, dtype=np.int64)
        slot_of[self.marginal_ids] = np.arange(len(marginal))
        blended = 0.5 * marginal_p[child] + 0.5 * np.array(conditional)
        total = probabilities.sum() + np.bincount(
            owner, blended - marginal_p[child], minlength=previous_rows
        )
        has_row = np.bincount(owner, minlength=previous_rows) > 0
        self.offset = np.log(np.where(has_row, total, 1.0))
        order = np.argsort(owner, kind="stable")
        owner, child, raw = owner[order], child[order], -np.log(blended[order])
        slot = slot_of[child]
        blend = slot >= 0
        self.blend_ptr = _row_pointers(owner[blend], previous_rows)
        self.blend_slot = slot[blend]
        self.blend_raw = raw[blend]
        self.extra_ptr = _row_pointers(owner[~blend], previous_rows)
        self.extra_ids = child[~blend]
        self.extra_raw = raw[~blend]
        self.extra_through = self.extra_raw + completion[self.extra_ids]

    def cheapest(self) -> np.ndarray:
        """Each row's least ``offset + raw + completion``: the cheapest
        completion of every previous-segment value."""
        dense = self.offset[:, None] + (self.marginal_raw + self.marginal_completion)
        owner = np.repeat(np.arange(len(self.offset)), np.diff(self.blend_ptr))
        dense[owner, self.blend_slot] = self.offset[owner] + (
            self.blend_raw + self.marginal_completion[self.blend_slot]
        )
        best = dense.min(axis=1)
        owner = np.repeat(np.arange(len(self.offset)), np.diff(self.extra_ptr))
        np.minimum.at(best, owner, self.offset[owner] + self.extra_through)
        return best

    def children(
        self, base: np.ndarray, previous: np.ndarray, limit: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(score, f, parent position, value id) of the children whose f is
        at most *limit*, for parents scoring ``base - offset``."""
        child_score = base[:, None] + self.marginal_raw
        starts = self.blend_ptr[previous]
        owner, entry = _ragged(starts, self.blend_ptr[previous + 1] - starts)
        child_score[owner, self.blend_slot[entry]] = base[owner] + self.blend_raw[entry]
        parent, slot = np.nonzero(child_score + self.marginal_completion <= limit)
        child_score = child_score[parent, slot]
        starts = self.extra_ptr[previous]
        owner, entry = _ragged(starts, self.extra_ptr[previous + 1] - starts)
        extra_f = base[owner] + self.extra_through[entry]
        within = extra_f <= limit
        owner, entry = owner[within], entry[within]
        return (
            np.concatenate((child_score, base[owner] + self.extra_raw[entry])),
            np.concatenate((child_score + self.marginal_completion[slot], extra_f[within])),
            np.concatenate((parent, owner)),
            np.concatenate((self.marginal_ids[slot], self.extra_ids[entry])),
        )

    def select(
        self, score: np.ndarray, previous: np.ndarray, f: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """One beam step: the children of the parents (*score*, *previous*,
        *f*) whose f is within the margin of the k-th smallest.

        A parent's f is the least f of its children, so the k-th smallest
        parent f bounds the k-th smallest child f from above, and no parent
        above the running threshold is expanded.  Parents are expanded in
        ascending f, in blocks of about :data:`_BLOCK_CHILDREN` children,
        against a running k-best.  Returns the kept children's (score, f,
        parent, value id) and whether any child of the parents was left out.
        """
        order = np.argsort(f, kind="stable")
        ordered_f = f[order]
        limit = _limit(ordered_f[k - 1]) if len(order) >= k else np.inf
        stop = int(np.searchsorted(ordered_f, limit, "right"))
        widths = len(self.marginal_ids) + np.diff(self.extra_ptr)[previous]
        order = order[:stop]
        rows = previous[order]
        base = score[order] + self.offset[rows]
        ends = np.cumsum(widths[order])
        kept = [np.zeros(0), np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64)]
        start = 0
        while start < stop:
            before = ends[start - 1] if start else 0
            end = max(start + 1, int(np.searchsorted(ends, before + _BLOCK_CHILDREN, "right")))
            block = slice(start, min(end, stop))
            child_score, child_f, owner, child = self.children(base[block], rows[block], limit)
            fresh = (child_score, child_f, order[block][owner], child)
            kept = [np.concatenate(pair) for pair in zip(kept, fresh)]
            if len(kept[1]) > k:
                limit = _limit(np.partition(kept[1], k - 1)[k - 1])
                within = kept[1] <= limit
                kept = [column[within] for column in kept]
                stop = min(stop, int(np.searchsorted(ordered_f, limit, "right")))
            start = end
        child_score, child_f, parent, child = kept
        return child_score, child_f, parent, child, len(child) < int(widths.sum())


class _SegmentTables:
    """Integer-indexed views of a model's per-segment value alphabets.

    The beam tracks paths as small integer value ids; these tables map ids
    back to strings (for conditioning lookups), to their bits of the 128-bit
    address (``contrib_hi``/``contrib_lo``) and to each segment's selection
    costs (``rows``, built last segment first: each value's cheapest
    completion is a backward min over the later segments).  ``best`` is the
    root's f: the best path's selection cost.
    """

    __slots__ = ("id_of", "value_of", "contrib_hi", "contrib_lo", "rows", "best")

    def __init__(self, model: "EntropyIPModel"):
        self.id_of: list[dict[str, int]] = []
        self.value_of: list[list[str]] = []
        self.contrib_hi: list[np.ndarray] = []
        self.contrib_lo: list[np.ndarray] = []
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
            contributions = [int(value, 16) << shift for value in ordered]
            self.id_of.append({value: i for i, value in enumerate(ordered)})
            self.value_of.append(ordered)
            self.contrib_hi.append(np.array([c >> 64 for c in contributions], np.uint64))
            self.contrib_lo.append(np.array([c & LO_MASK for c in contributions], np.uint64))
        completion = np.zeros(len(self.value_of[last]))
        self.rows: list[_CostRows] = []
        for index in range(last, -1, -1):
            self.rows.insert(0, _CostRows(model, self, index, completion))
            completion = self.rows[0].cheapest()
        self.best = completion

    def addresses(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (hi, lo) address columns of paths given as value-id rows."""
        hi = np.zeros(len(ids), dtype=np.uint64)
        lo = np.zeros(len(ids), dtype=np.uint64)
        for index in range(ids.shape[1]):
            hi |= self.contrib_hi[index][ids[:, index]]
            lo |= self.contrib_lo[index][ids[:, index]]
        return hi, lo


class _Distribution:
    """One memoised ``candidate_values`` row, indexed by value id.

    ``logs`` follows the row's rank order and holds ``math.log`` of its
    probabilities: the very floats the scalar loop subtracts.  Every
    probability is positive (each candidate value was observed), so no
    candidate is skipped.
    """

    __slots__ = ("logs", "_by_id", "_sorted_ids")

    def __init__(self, ids: list[int], probabilities: list[float]):
        self.logs = np.array([math.log(p) for p in probabilities])
        self._by_id = np.argsort(ids)
        self._sorted_ids = np.asarray(ids, dtype=np.int64)[self._by_id]

    def rank_of(self, ids: np.ndarray) -> np.ndarray:
        """The rank of each value id in this row."""
        return self._by_id[np.searchsorted(self._sorted_ids, ids)]


class EntropyIPGenerator:
    """Exhaustive most-probable-first address generation from an Entropy/IP model.

    :meth:`generate` is the original per-address reference loop;
    :meth:`generate_batch` produces the same addresses in the same order
    (bit-identical for the same model and budget) as packed columnar
    :class:`AddressBatch` output.
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
        order that :meth:`generate_batch` sorts its paths by.
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
        """Batch counterpart of :meth:`generate`: same addresses, same order.

        The scalar loop pops complete paths in (score, rank tuple) order.
        Here one exact k-best beam finds the first K of them without a
        priority queue:

        * at each segment it keeps the children whose ``f = score + h`` is
          within :data:`_MARGIN` of the K-th smallest, where h is the exact
          cheapest completion of the child's value.  A dropped prefix's best
          completion loses to those of K kept ones, so every one of the K
          first paths survives;
        * the surviving paths are re-scored from the memoised
          ``candidate_values`` rows by the scalar loop's own left-to-right
          ``score - log p`` and sorted by (score, rank tuple) with
          ``np.lexsort``: the scalar loop's pop order;
        * K starts at *budget* and doubles (at least to *budget* plus the
          seeds found) while seeds, which are skipped unless
          *include_seeds*, fill the first K; it stops once *budget*
          non-seeds remain or no path was dropped.
        """
        if budget <= 0:
            return AddressBatch.empty()
        tables = self._ensure_tables()
        seeds = self.model.seed_batch
        k = budget
        while True:
            ids, complete = self._beam(k)
            ranked = ids[self._pop_order(ids)]
            if not complete:
                ranked = ranked[:k]
            hi, lo = tables.addresses(ranked)
            if not include_seeds:
                fresh = find128(seeds.hi, seeds.lo, hi, lo) < 0
                hi, lo = hi[fresh], lo[fresh]
            if len(hi) >= budget or complete:
                return AddressBatch(hi[:budget], lo[:budget])
            k = max(2 * k, budget + len(ranked) - len(hi))

    def _beam(self, k: int) -> tuple[np.ndarray, bool]:
        """Every path that survives a k-best beam, as rows of value ids (one
        column per segment), and whether the beam kept every path."""
        tables = self._ensure_tables()
        score, f = np.zeros(1), tables.best
        previous = np.zeros(1, dtype=np.int64)
        trail: list[tuple[np.ndarray, np.ndarray]] = []
        complete = True
        for rows in tables.rows:
            score, f, parent, previous, dropped = rows.select(score, previous, f, k)
            trail.append((parent, previous))
            complete = complete and not dropped
        ids = np.empty((len(previous), len(trail)), dtype=np.int64)
        pointer = np.arange(len(previous))
        for index in range(len(trail) - 1, -1, -1):
            parent, child = trail[index]
            ids[:, index] = child[pointer]
            pointer = parent[pointer]
        return ids, complete

    def _pop_order(self, ids: np.ndarray) -> np.ndarray:
        """The order in which the scalar loop pops the paths *ids*: exact
        scores from the memoised rows, ties broken by rank tuple."""
        count, depth = ids.shape
        score = np.zeros(count)
        ranks = np.empty_like(ids)
        logs = np.empty(count)
        for index in range(depth):
            if index == 0:
                groups = [(None, np.arange(count))]
            else:
                previous = ids[:, index - 1]
                order = np.argsort(previous, kind="stable")
                cuts = np.flatnonzero(np.diff(previous[order])) + 1
                heads = previous[order[np.concatenate(([0], cuts))]].tolist()
                groups = list(zip(heads, np.split(order, cuts)))
            for previous_id, rows in groups:
                distribution = self._distribution(index, previous_id)
                rank = distribution.rank_of(ids[rows, index])
                ranks[rows, index] = rank
                logs[rows] = distribution.logs[rank]
            # The scalar loop's own accumulation, one segment at a time.
            score = score - logs
        keys = tuple(ranks[:, index] for index in range(depth - 1, -1, -1))
        return np.lexsort(keys + (score,))
