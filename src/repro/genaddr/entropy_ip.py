"""Entropy/IP: segment-based address structure model and generator.

Entropy/IP (Foremski et al., IMC 2016) discovers structure in a set of IPv6
addresses in three steps:

1. compute the per-nybble entropy profile of the seed set and split the 32
   nybble positions into *segments* of similar entropy;
2. for each segment, mine the frequent values observed in the seeds;
3. connect adjacent segments in a Bayesian-network-like chain that captures
   which value combinations co-occur.

A segment value is an integer id, its index in the segment's sorted
alphabet of observed values (at most 8 nybbles, so one ``uint64`` each).
Per segment the model holds that alphabet, its 64 most frequent ids with
their probabilities, and the transitions from the previous segment as CSR
arrays; :meth:`EntropyIPModel.candidate_values` builds one read-only row of
candidate ids per (segment, previous id) and memoises it.

The generator then produces candidate addresses by walking the model.  The
paper improves the original random walk by enumerating combinations
*exhaustively in order of probability* under a scanning budget; that is what
:class:`EntropyIPGenerator` implements.  Its reference loop is a best-first
search over the segment chain; its batch engine is one exact k-best beam
over sparse per-segment cost tables that emits the same addresses in the
same order.  Both read the model's memoised rows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.addr.address import IPv6Address, NYBBLES
from repro.addr.batch import AddressBatch, find128, readonly_view
from repro.core.entropy import nybble_entropies_of_matrix

#: Adjacent nybbles share a segment while their entropy stays within this
#: of the segment's running mean.
ENTROPY_THRESHOLD = 0.1

#: The widest segment, in nybbles: wider ones explode the value alphabet,
#: and at this width every segment value fits one ``uint64``.
MAX_SEGMENT_WIDTH = 8

#: Values a segment's marginal distribution keeps, most frequent first.
MAX_VALUES_PER_SEGMENT = 64


@dataclass(frozen=True, slots=True)
class Segment:
    """A run of adjacent nybble positions with similar entropy.

    ``start``/``end`` are 1-based inclusive nybble positions.
    """

    start: int
    end: int

    @property
    def width(self) -> int:
        return self.end - self.start + 1


def segment_positions(entropies: Sequence[float]) -> list[tuple[int, int]]:
    """Split nybble positions 1..N into segments of similar entropy.

    Adjacent positions are merged while their entropy differs by at most
    :data:`ENTROPY_THRESHOLD` from the running segment mean and the segment
    stays at most :data:`MAX_SEGMENT_WIDTH` nybbles wide.  The running total
    adds the entropies left to right, so the means do not depend on how the
    interpreter's ``sum`` rounds.
    """
    if not entropies:
        return []
    segments: list[tuple[int, int]] = []
    start = 1
    total, width = entropies[0], 1
    for position in range(2, len(entropies) + 1):
        entropy = entropies[position - 1]
        if abs(entropy - total / width) > ENTROPY_THRESHOLD or width >= MAX_SEGMENT_WIDTH:
            segments.append((start, position - 1))
            start, total, width = position, entropy, 1
        else:
            total += entropy
            width += 1
    segments.append((start, len(entropies)))
    return segments


@dataclass(frozen=True, slots=True, eq=False)
class SegmentModel:
    """One segment's fitted values, each an id into its alphabet.

    ``alphabet`` holds every value the seeds show in the segment, ascending:
    a value's id is its index there.  ``marginal_ids`` are the (at most
    :data:`MAX_VALUES_PER_SEGMENT`) most frequent ids in rank order, count
    descending then id ascending, and ``marginal_probabilities`` their
    shares of the kept count.  The transitions into the segment are CSR
    arrays over the previous segment's ids: previous id u is followed by
    ``children[pointer[u]:pointer[u + 1]]``, ascending, with the conditional
    probabilities at the same positions of ``conditional``.  Segment 0 has
    one empty row, the root's.  Every array is read-only.
    """

    segment: Segment
    alphabet: np.ndarray
    marginal_ids: np.ndarray
    marginal_probabilities: np.ndarray
    pointer: np.ndarray
    children: np.ndarray
    conditional: np.ndarray


def _row_pointers(owners: np.ndarray, rows: int) -> np.ndarray:
    """CSR row pointers of entries sorted by their owner row."""
    return np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=rows))))


def _fit_segment(
    segment: Segment,
    values: np.ndarray,
    previous: np.ndarray | None,
    previous_counts: np.ndarray,
) -> tuple[SegmentModel, np.ndarray, np.ndarray]:
    """Fit one segment from each seed's value of it.

    *previous* holds each seed's value id in the previous segment (None for
    segment 0) and *previous_counts* each previous id's seed count (the
    root's one count for segment 0).  Returns the model and this segment's
    own ids and counts: the next call's *previous* and *previous_counts*.
    """
    alphabet, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    kept = np.argsort(-counts, kind="stable")[:MAX_VALUES_PER_SEGMENT]
    if previous is None:  # the root has no transitions
        pairs = pair_counts = np.zeros(0, dtype=np.int64)
    else:
        pairs, pair_counts = np.unique(previous * len(alphabet) + inverse, return_counts=True)
    owners, children = np.divmod(pairs, len(alphabet))
    model = SegmentModel(
        segment=segment,
        alphabet=readonly_view(alphabet),
        marginal_ids=readonly_view(kept),
        marginal_probabilities=readonly_view(counts[kept] / counts[kept].sum()),
        pointer=readonly_view(_row_pointers(owners, len(previous_counts))),
        children=readonly_view(children),
        # Every seed with previous value u has a value here, so u's seed
        # count is its row's total.
        conditional=readonly_view(pair_counts / previous_counts[owners]),
    )
    return model, inverse, counts


class CandidateRow:
    """One segment's candidate values after one value of the previous segment.

    ``ids`` are value ids, most probable first and ties by id, and
    ``probabilities`` theirs.  ``logs`` holds ``math.log`` of each: the very
    floats both generator engines subtract.  Every probability is positive
    (each candidate value was observed).  Every array is read-only.
    """

    __slots__ = ("ids", "probabilities", "logs", "_by_id")

    def __init__(self, ids: np.ndarray, probabilities: np.ndarray):
        self.ids = readonly_view(ids)
        self.probabilities = readonly_view(probabilities)
        self.logs = readonly_view(np.array([math.log(p) for p in probabilities.tolist()]))
        self._by_id = np.argsort(ids)

    def rank_of(self, ids: np.ndarray) -> np.ndarray:
        """The rank (position in this row) of each value id."""
        return self._by_id[np.searchsorted(self.ids, ids, sorter=self._by_id)]


class EntropyIPModel:
    """Segment decomposition + value statistics + adjacent-segment chain.

    *first_nybble* is the first nybble the model learns; the ones before it
    are zero in every generated address.
    """

    def __init__(
        self,
        seeds: "AddressBatch | Sequence[IPv6Address | int | str]",
        first_nybble: int = 1,
    ):
        if len(seeds) == 0:
            raise ValueError("Entropy/IP needs at least one seed address")
        if not 1 <= first_nybble <= NYBBLES:
            raise ValueError(f"first nybble out of range 1..{NYBBLES}: {first_nybble}")
        batch = (
            seeds
            if isinstance(seeds, AddressBatch)
            else AddressBatch.from_addresses(seeds)
        )
        #: Sorted-unique seed addresses: the batch generator's seed filter.
        self.seed_batch = batch.unique()
        self._seed_values: set[int] | None = None
        # One bulk nybble extraction feeds the entropy profile and the
        # values of every segment.
        matrix = batch.nybbles_matrix(first_nybble, NYBBLES)
        self.segments: list[Segment] = [
            Segment(first_nybble + start - 1, first_nybble + end - 1)
            for start, end in segment_positions(nybble_entropies_of_matrix(matrix))
        ]
        self.segment_models: list[SegmentModel] = []
        previous: np.ndarray | None = None
        previous_counts = np.array([len(batch)])
        for segment in self.segments:
            first = segment.start - first_nybble
            columns = matrix[:, first : first + segment.width].astype(np.uint64)
            powers = np.uint64(16) ** np.arange(segment.width - 1, -1, -1, dtype=np.uint64)
            model, previous, previous_counts = _fit_segment(
                segment, (columns * powers).sum(axis=1), previous, previous_counts
            )
            self.segment_models.append(model)
        self._rows: dict[tuple[int, int], CandidateRow] = {}

    def candidate_values(self, index: int, previous_id: int) -> CandidateRow:
        """Segment *index*'s candidate values after value *previous_id* of
        the previous segment (0, the root, for segment 0), memoised."""
        key = (index, previous_id)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._candidate_row(index, previous_id)
        return row

    def _candidate_row(self, index: int, previous_id: int) -> CandidateRow:
        segment_model = self.segment_models[index]
        ids, marginal = segment_model.marginal_ids, segment_model.marginal_probabilities
        start, end = segment_model.pointer[previous_id], segment_model.pointer[previous_id + 1]
        if start == end:  # segment 0's root row: the marginal as is
            return CandidateRow(ids, marginal)
        children = segment_model.children[start:end]
        conditional = segment_model.conditional[start:end]
        # Blend the conditional distribution with the marginal so that unseen
        # combinations still get some probability mass: a marginal value
        # takes the mean of both, and any other child joins after them.
        position = np.minimum(np.searchsorted(children, ids), len(children) - 1)
        shared = children[position] == ids
        blended = marginal.copy()
        blended[shared] = 0.5 * marginal[shared] + 0.5 * conditional[position[shared]]
        extra = np.ones(len(children), dtype=bool)
        extra[position[shared]] = False
        row_ids = np.concatenate((ids, children[extra]))
        weights = np.concatenate((blended, 0.5 * conditional[extra]))
        # Left to right, in that order: builtin sum() of floats rounds
        # differently from Python 3.12 on.
        total = 0.0
        for weight in weights.tolist():
            total += weight
        probabilities = weights / total
        order = np.lexsort((row_ids, -probabilities))
        return CandidateRow(row_ids[order], probabilities[order])

    def is_seed(self, value: int) -> bool:
        """True when the 128-bit *value* is one of the model's seeds."""
        if self._seed_values is None:
            self._seed_values = set(self.seed_batch.to_ints())
        return value in self._seed_values


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


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row position, entry index) of *counts* consecutive entries per row,
    each from its row's start."""
    owner = np.repeat(np.arange(len(starts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(int(counts.sum())) - np.repeat(first - starts, counts)


class _CostRows:
    """Selection costs of one segment's values given the previous segment's.

    Row *u* (a previous-segment value id, or the root for segment 0) holds
    ``-log p`` of what ``candidate_values(index, u)`` returns, with no
    (previous alphabet x alphabet) table: a row is the segment's marginal
    values (at most :data:`MAX_VALUES_PER_SEGMENT`) plus u's observed
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

    def __init__(self, segment_model: SegmentModel, completion: np.ndarray):
        probabilities = segment_model.marginal_probabilities
        self.marginal_ids = segment_model.marginal_ids
        self.marginal_raw = -np.log(probabilities)
        self.marginal_completion = completion[self.marginal_ids]
        widths = np.diff(segment_model.pointer)
        previous_rows = len(widths)
        owner = np.repeat(np.arange(previous_rows), widths)
        child = segment_model.children
        size = len(segment_model.alphabet)
        marginal_p = np.zeros(size)
        marginal_p[self.marginal_ids] = probabilities
        slot_of = np.full(size, -1, dtype=np.int64)
        slot_of[self.marginal_ids] = np.arange(len(self.marginal_ids))
        blended = 0.5 * marginal_p[child] + 0.5 * segment_model.conditional
        total = probabilities.sum() + np.bincount(
            owner, blended - marginal_p[child], minlength=previous_rows
        )
        self.offset = np.log(np.where(widths > 0, total, 1.0))
        raw = -np.log(blended)
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
    """The beam's per-segment tables over a model's value ids.

    ``contrib_hi``/``contrib_lo`` hold each value's bits of the 128-bit
    address, and ``rows`` each segment's selection costs, built last
    segment first: each value's cheapest completion is a backward min over
    the later segments.  ``best`` is the root's f: the best path's
    selection cost.
    """

    __slots__ = ("contrib_hi", "contrib_lo", "rows", "best")

    def __init__(self, model: EntropyIPModel):
        self.contrib_hi: list[np.ndarray] = []
        self.contrib_lo: list[np.ndarray] = []
        for segment_model in model.segment_models:
            alphabet = segment_model.alphabet
            shift = 4 * (NYBBLES - segment_model.segment.end)
            zeros = np.zeros_like(alphabet)
            if shift >= 64:
                hi, lo = alphabet << np.uint64(shift - 64), zeros
            elif shift:
                hi, lo = alphabet >> np.uint64(64 - shift), alphabet << np.uint64(shift)
            else:
                hi, lo = zeros, alphabet
            self.contrib_hi.append(hi)
            self.contrib_lo.append(lo)
        completion = np.zeros(len(model.segment_models[-1].alphabet))
        self.rows: list[_CostRows] = []
        for segment_model in reversed(model.segment_models):
            self.rows.insert(0, _CostRows(segment_model, completion))
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

    def _ensure_tables(self) -> _SegmentTables:
        if self._tables is None:
            self._tables = _SegmentTables(self.model)
        return self._tables

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
        model = self.model
        depth = len(model.segments)
        alphabets = [segment_model.alphabet.tolist() for segment_model in model.segment_models]
        shifts = [4 * (NYBBLES - segment.end) for segment in model.segments]
        results: list[IPv6Address] = []
        # Heap entries: (negative log-probability, rank tuple, value-id tuple).
        # Rank tuples are unique per state, so value ids are never compared.
        heap: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = [(0.0, (), ())]
        while heap and len(results) < budget:
            neg_logp, ranks, values = heapq.heappop(heap)
            index = len(values)
            if index == depth:
                # The nybbles before the model's first are zero.
                address = sum(alphabets[i][value] << shifts[i] for i, value in enumerate(values))
                if include_seeds or not model.is_seed(address):
                    results.append(IPv6Address(address))
                continue
            row = model.candidate_values(index, values[-1] if values else 0)
            for rank, (value, log) in enumerate(zip(row.ids.tolist(), row.logs.tolist())):
                heapq.heappush(heap, (neg_logp - log, ranks + (rank,), values + (value,)))
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
        previous = np.zeros(count, dtype=np.int64)  # the root
        for index in range(depth):
            order = np.argsort(previous, kind="stable")
            cuts = np.flatnonzero(np.diff(previous[order])) + 1
            heads = previous[order[np.concatenate(([0], cuts))]].tolist()
            for previous_id, rows in zip(heads, np.split(order, cuts)):
                row = self.model.candidate_values(index, previous_id)
                rank = row.rank_of(ids[rows, index])
                ranks[rows, index] = rank
                logs[rows] = row.logs[rank]
            # The scalar loop's own accumulation, one segment at a time.
            score = score - logs
            previous = ids[:, index]
        keys = tuple(ranks[:, index] for index in range(depth - 1, -1, -1))
        return np.lexsort(keys + (score,))
