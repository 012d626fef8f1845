"""Property-based tests (hypothesis) for the Entropy/IP and 6Gen generators.

Entropy/IP: the scalar best-first loop :meth:`EntropyIPGenerator.generate`
is the oracle: :meth:`~EntropyIPGenerator.generate_batch` must emit the
same addresses in the same order for every model, budget and seed choice.
The batch engine's beam keeps a prefix only within a float margin of the
k-th best and re-scores its survivors, so the cases that matter are ties
(the rank tuple decides), seed-heavy tops (the beam widens in rounds) and
spaces smaller than the budget (the beam holds every path).

Both engines read the model's memoised candidate rows, so the fit has its
own oracle: :func:`_string_model` writes the model out over the seeds' hex
substrings, and every row must match it id for id and float for float.

6Gen: :func:`_string_clusters` writes the cluster growth out over hex
strings and sets of characters, and both engines' bitmask clusters must
equal it, value for value and seed for seed.  Counter-like interface
identifiers give many tied merge sizes (the first pair must win), random
ones give merges beyond the range-size cap (which must be refused), and a
/64 of more than 60 seeds reaches the round that pairs neighbours.
"""

import math
import random
from collections import Counter

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.addr import IPv6Address, IPv6Prefix
from repro.core.entropy import nybble_entropies
from repro.exec import ExecutionPolicy
from repro.genaddr import EntropyIPGenerator, EntropyIPModel, SixGenGenerator
from repro.netmodel.schemes import AddressingScheme, generate_addresses

#: Budgets stop here when the model's space is larger: the scalar oracle
#: pops every state one by one.
MAX_BUDGET = 1_500


def _space(model: EntropyIPModel) -> int:
    """How many addresses *model* can emit: its paths through the chain.

    A segment's candidates after value u are its marginal values plus u's
    observed transitions (:meth:`EntropyIPModel.candidate_values`).
    """
    ways = {0: 1}  # the root
    for index in range(len(model.segments)):
        following: dict[int, int] = {}
        for value, count in ways.items():
            for child in model.candidate_values(index, value).ids.tolist():
                following[child] = following.get(child, 0) + count
        ways = following
    return sum(ways.values())


def _left_to_right(values) -> float:
    """The floats' sum, added left to right (builtin sum() rounds
    differently from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _string_model(seeds, first_nybble: int):
    """Entropy/IP's fit written out over hex strings: the segments, each
    segment's sorted alphabet and every candidate row, keyed by (segment,
    previous value or None) and listing (value, probability) in row order."""
    entropies = nybble_entropies(seeds, first_nybble)
    segments, start = [], 1
    for position in range(2, len(entropies) + 1):
        running = entropies[start - 1 : position - 1]
        mean = _left_to_right(running) / len(running)
        if abs(entropies[position - 1] - mean) > 0.1 or len(running) >= 8:
            segments.append((start, position - 1))
            start = position
    segments.append((start, len(entropies)))
    segments = [(first_nybble + s - 1, first_nybble + e - 1) for s, e in segments]
    nybbles = [seed.nybbles for seed in seeds]
    columns = [[n[s - 1 : e] for n in nybbles] for s, e in segments]
    alphabets = [sorted(set(column)) for column in columns]
    rows = {}
    for index, column in enumerate(columns):
        ranked = sorted(Counter(column).items(), key=lambda kv: (-kv[1], kv[0]))[:64]
        kept = sum(count for _, count in ranked)
        marginal = {value: count / kept for value, count in ranked}
        if index == 0:
            rows[(0, None)] = list(marginal.items())
            continue
        transitions: dict[str, dict[str, int]] = {}
        for (previous, child), count in sorted(Counter(zip(columns[index - 1], column)).items()):
            transitions.setdefault(previous, {})[child] = count
        for previous in alphabets[index - 1]:
            children = transitions[previous]
            total = sum(children.values())  # integer counts: exact
            blended = dict(marginal)
            for child, count in children.items():
                blended[child] = 0.5 * blended.get(child, 0.0) + 0.5 * (count / total)
            norm = _left_to_right(blended.values())
            rows[(index, previous)] = sorted(
                ((value, p / norm) for value, p in blended.items()),
                key=lambda kv: (-kv[1], kv[0]),
            )
    return segments, alphabets, rows


def _assert_engines_agree(generator: EntropyIPGenerator, budget: int, include_seeds: bool):
    scalar = generator.generate(budget, include_seeds=include_seeds)
    batch = generator.generate_batch(budget, include_seeds=include_seeds)
    assert batch.to_ints() == [a.value for a in scalar], (budget, include_seeds)


@st.composite
def seed_sets(draw):
    """1-600 seeds of one addressing scheme, and the first nybble to model."""
    scheme = draw(st.sampled_from(AddressingScheme))
    count = draw(st.integers(min_value=1, max_value=600))
    seeds = generate_addresses(
        scheme, IPv6Prefix.parse("2001:db8::/32"), count, random.Random(draw(st.integers(0, 2**16)))
    )
    return seeds, draw(st.integers(min_value=1, max_value=32))


@st.composite
def generation_cases(draw):
    seeds, first_nybble = draw(seed_sets())
    model = EntropyIPModel(seeds, first_nybble=first_nybble)
    budget = draw(st.integers(min_value=0, max_value=min(_space(model) + 2, MAX_BUDGET)))
    return model, budget, draw(st.booleans())


PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)


@PROPERTY_SETTINGS
@given(case=generation_cases())
def test_batch_emits_the_scalar_loops_addresses_in_its_order(case):
    model, budget, include_seeds = case
    _assert_engines_agree(EntropyIPGenerator(model), budget, include_seeds)


@PROPERTY_SETTINGS
@given(case=seed_sets())
def test_fit_matches_the_string_model(case):
    """Same segments, alphabets and candidate rows (ids, order and floats)
    as the model written out over hex strings."""
    seeds, first_nybble = case
    model = EntropyIPModel(seeds, first_nybble=first_nybble)
    segments, alphabets, rows = _string_model(seeds, first_nybble)
    assert [(segment.start, segment.end) for segment in model.segments] == segments
    for segment_model, alphabet in zip(model.segment_models, alphabets):
        width = segment_model.segment.width
        assert [f"{value:0{width}x}" for value in segment_model.alphabet.tolist()] == alphabet
    id_of = [{value: i for i, value in enumerate(alphabet)} for alphabet in alphabets]
    for (index, previous), expected in rows.items():
        row = model.candidate_values(index, 0 if previous is None else id_of[index - 1][previous])
        assert row.ids.tolist() == [id_of[index][value] for value, _ in expected], (index, previous)
        assert row.probabilities.tolist() == [p for _, p in expected], (index, previous)


def test_equal_probabilities_are_ordered_by_rank_tuple():
    """Random IIDs seen once each: every value of a segment is equally likely,
    so rank tuples alone order most paths."""
    seeds = generate_addresses(
        AddressingScheme.RANDOM_IID, IPv6Prefix.parse("2001:db8::/32"), 120, random.Random(4)
    )
    model = EntropyIPModel(seeds)
    assert len(set(model.segment_models[-1].marginal_probabilities.tolist())) == 1
    generator = EntropyIPGenerator(model)
    for budget in (1, 64, 500, MAX_BUDGET):
        for include_seeds in (False, True):
            _assert_engines_agree(generator, budget, include_seeds)


def test_seeds_fill_the_top():
    """A 200-address counter block: every top path is a seed, so the beam
    widens round after round until no path is left out."""
    seeds = [IPv6Address(IPv6Address.parse("2001:db8::").value + i) for i in range(200)]
    generator = EntropyIPGenerator(EntropyIPModel(seeds))
    assert set(generator.generate(400, include_seeds=True)) == set(seeds)
    for budget in (1, 50, 400):
        for include_seeds in (False, True):
            _assert_engines_agree(generator, budget, include_seeds)


def test_space_smaller_than_the_budget():
    seeds = [IPv6Address.parse(text) for text in ("2001:db8::4", "2001:db8::17", "2001:db8:1::8")]
    model = EntropyIPModel(seeds)
    space = _space(model)
    generator = EntropyIPGenerator(model)
    assert len(generator.generate(space + 10, include_seeds=True)) == space
    for include_seeds in (False, True):
        _assert_engines_agree(generator, space + 10, include_seeds)


# -- 6Gen ----------------------------------------------------------------------


def _string_clusters(seeds):
    """6Gen's cluster growth written out over hex strings: per kept cluster,
    the sorted characters at each position and the seed strings in merge
    order, densest first."""

    def size(ranges):
        return math.prod(len(values) for values in ranges)

    def union(a, b):
        return [x | y for x, y in zip(a[0], b[0])], a[1] + b[1]

    buckets: dict[str, list[str]] = {}
    for text in sorted({seed.nybbles for seed in seeds}):
        buckets.setdefault(text[:16], []).append(text)
    clusters = []
    for members in buckets.values():
        bucket = [([{c} for c in text], [text]) for text in members]
        merged = True
        while merged and len(bucket) > 1:
            merged = False
            best, best_size = None, None
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    merged_size = size(union(bucket[i], bucket[j])[0])
                    if merged_size <= 2**20 and (best_size is None or merged_size < best_size):
                        best, best_size = (i, j), merged_size
            if best is not None:
                combined = union(bucket[best[0]], bucket[best[1]])
                bucket = [c for k, c in enumerate(bucket) if k not in best] + [combined]
                merged = True
            if len(bucket) > 60:
                bucket.sort(key=lambda c: c[1][0])
                halved = []
                for a, b in zip(bucket[0::2], bucket[1::2]):
                    if size(union(a, b)[0]) <= 2**20:
                        halved.append(union(a, b))
                    else:
                        halved.extend((a, b))
                if len(bucket) % 2:
                    halved.append(bucket[-1])
                bucket = halved
        clusters.extend(bucket)
    clusters.sort(key=lambda c: (-len(c[1]) / size(c[0]), -len(c[1])))
    return [([sorted(values) for values in ranges], texts) for ranges, texts in clusters[:256]]


def _clusters_as_strings(generator: SixGenGenerator):
    seeds = generator.seed_batch
    return [
        (
            [[f"{value:x}" for value in values] for values in cluster.values()],
            [f"{value:032x}" for value in seeds.take(cluster.rows).to_ints()],
        )
        for cluster in generator.clusters
    ]


def _network(index: int) -> int:
    """The upper 64 bits of the /64 2001:db8:0:<index>::/64."""
    return (0x20010DB8 << 32) | index


@st.composite
def sixgen_seeds(draw):
    """Seeds over 1-4 /64s: counter-like interface identifiers mixed with
    random ones."""
    networks = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=4, unique=True))
    seeds = []
    for network in networks:
        counters = draw(st.lists(st.integers(0, 0xFFF), min_size=1, max_size=70))
        randoms = draw(st.lists(st.integers(0, 2**64 - 1), max_size=6))
        seeds += [IPv6Address(_network(network) << 64 | iid) for iid in counters + randoms]
    return seeds


def _crowded_64() -> list[IPv6Address]:
    """One /64 of 81 seeds.  The first merge joins rows 0 and 2 (IIDs 0x00
    and 0x20 differ in one nybble, 0x11 in two), and the round then pairs
    neighbours, ordered by first seed, while above 60 clusters."""
    rng = random.Random(9)
    iids = [0x00, 0x11, 0x20] + [0x100 + 3 * i for i in range(70)]
    iids += [rng.getrandbits(64) for _ in range(8)]
    return [IPv6Address(_network(7) << 64 | iid) for iid in iids]


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(seeds=sixgen_seeds(), include_seeds=st.booleans())
@example(seeds=_crowded_64(), include_seeds=False)
def test_sixgen_clusters_match_the_string_grower(seeds, include_seeds):
    """Both engines grow the string grower's clusters, and the two generators
    emit the same addresses at budgets from 0 to beyond every range.  (The
    scalar generator enumerates every address of a large budget, so each
    example checks one of the two seed choices.)"""
    expected = _string_clusters(seeds)
    for reference in (True, False):
        generator = SixGenGenerator(seeds, policy=ExecutionPolicy(reference=reference))
        assert _clusters_as_strings(generator) == expected, reference
    total = sum(cluster.size for cluster in generator.clusters)
    for budget in (0, 1, max(2, total // 2), total + 1):
        scalar = generator.generate(budget, include_seeds=include_seeds)
        batch = generator.generate_batch(budget, include_seeds=include_seeds)
        assert batch.to_ints() == [a.value for a in scalar], budget
