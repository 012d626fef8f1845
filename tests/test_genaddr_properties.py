"""Property-based tests (hypothesis) for the Entropy/IP batch generator.

The scalar best-first loop :meth:`EntropyIPGenerator.generate` is the
oracle: :meth:`~EntropyIPGenerator.generate_batch` must emit the same
addresses in the same order for every model, budget and seed choice.  The
batch engine's beam keeps a prefix only within a float margin of the k-th
best and re-scores its survivors, so the cases that matter are ties (the
rank tuple decides), seed-heavy tops (the beam widens in rounds) and spaces
smaller than the budget (the beam holds every path).
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.addr import IPv6Address, IPv6Prefix
from repro.genaddr import EntropyIPGenerator, EntropyIPModel
from repro.netmodel.schemes import AddressingScheme, generate_addresses

#: Budgets stop here when the model's space is larger: the scalar oracle
#: pops every state one by one.
MAX_BUDGET = 1_500


def _space(model: EntropyIPModel) -> int:
    """How many addresses *model* can emit: its paths through the chain.

    A segment's candidates after value u are its marginal values plus u's
    observed transitions (:meth:`EntropyIPModel.candidate_values`).
    """
    ways = dict.fromkeys(model.segment_models[0].probabilities, 1)
    for index in range(1, len(model.segments)):
        marginal = model.segment_models[index].probabilities
        following = dict.fromkeys(marginal, sum(ways.values()))
        for value, count in ways.items():
            for child in model.transitions[index - 1].get(value, {}):
                if child not in marginal:
                    following[child] = following.get(child, 0) + count
        ways = following
    return sum(ways.values())


def _assert_engines_agree(generator: EntropyIPGenerator, budget: int, include_seeds: bool):
    scalar = generator.generate(budget, include_seeds=include_seeds)
    batch = generator.generate_batch(budget, include_seeds=include_seeds)
    assert batch.to_ints() == [a.value for a in scalar], (budget, include_seeds)


@st.composite
def generation_cases(draw):
    scheme = draw(st.sampled_from(AddressingScheme))
    count = draw(st.integers(min_value=1, max_value=600))
    seeds = generate_addresses(
        scheme, IPv6Prefix.parse("2001:db8::/32"), count, random.Random(draw(st.integers(0, 2**16)))
    )
    model = EntropyIPModel(seeds, first_nybble=draw(st.integers(min_value=1, max_value=32)))
    budget = draw(st.integers(min_value=0, max_value=min(_space(model) + 2, MAX_BUDGET)))
    return model, budget, draw(st.booleans())


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
@given(case=generation_cases())
def test_batch_emits_the_scalar_loops_addresses_in_its_order(case):
    model, budget, include_seeds = case
    _assert_engines_agree(EntropyIPGenerator(model), budget, include_seeds)


def test_equal_probabilities_are_ordered_by_rank_tuple():
    """Random IIDs seen once each: every value of a segment is equally likely,
    so rank tuples alone order most paths."""
    seeds = generate_addresses(
        AddressingScheme.RANDOM_IID, IPv6Prefix.parse("2001:db8::/32"), 120, random.Random(4)
    )
    model = EntropyIPModel(seeds)
    assert len(set(model.segment_models[-1].probabilities.values())) == 1
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
