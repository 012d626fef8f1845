"""The execution policy, and the keyed-draw contract probe slices rely on.

:class:`ExecutionPolicy` has one field, ``reference``; every other knob is
gone rather than silently ignored.  The batch engine still probes slices of
a batch -- a waved scan day probes one slice of its resolved targets per
wave, and :meth:`BatchProbeResult.take` splits one sweep per consumer -- so
probing a batch in slices must reproduce the one-shot matrix bit for bit,
loss and rate limiting included: every probe outcome is a keyed draw on its
own coordinates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.addr.batch import AddressBatch
from repro.core.apd import APDConfig
from repro.exec import ExecutionPolicy
from repro.scenarios import build

# -- ExecutionPolicy API ----------------------------------------------------


def test_default_policy_is_plain_fast_engine():
    assert not ExecutionPolicy().reference


@pytest.mark.parametrize(
    "kwargs",
    [{"workers": 2}, {"shard_by": "rows"}, {"chunk_rows": 8}, {"storage": "memmap"}],
)
def test_execution_policy_rejects_removed_knobs(kwargs):
    # Fork sharding was slower than one core at every workload size, and no
    # workload's working set reached the out-of-core tier's first chunk:
    # their knobs are gone rather than silently ignored.
    with pytest.raises(TypeError):
        ExecutionPolicy(**kwargs)


def test_execution_policy_is_frozen_and_hashable():
    policy = ExecutionPolicy(reference=True)
    with pytest.raises(AttributeError):
        policy.reference = False
    assert hash(policy) == hash(ExecutionPolicy(reference=True))


# -- probing slices of a batch under loss -------------------------------------


@pytest.fixture(scope="module")
def stochastic_probe_corpus():
    """A stochastic internet (lossy, rate-limited probes) and a target batch."""
    ctx = build("context", "baseline", scale="tiny", anomalies="realistic")
    targets = AddressBatch.from_addresses(ctx.hitlist.addresses[:600])
    return ctx.internet, targets, APDConfig().protocols


@pytest.mark.parametrize("chunk_rows", [1, 7, 128, 5000])
def test_chunked_probe_batch_equals_one_shot_under_loss(stochastic_probe_corpus, chunk_rows):
    """Keyed outcomes: probing direct slices of a batch reproduces the
    one-shot matrix, and so does taking those rows of the one-shot scan."""
    internet, targets, protocols = stochastic_probe_corpus
    one_shot = internet.probe_batch(targets, protocols, 1)
    for start in range(0, len(targets), chunk_rows):
        rows = slice(start, start + chunk_rows)
        batch = AddressBatch(targets.hi[rows], targets.lo[rows])
        sliced = internet.probe_batch(batch, protocols, 1)
        np.testing.assert_array_equal(sliced.responsive, one_shot.responsive[rows])
        taken = one_shot.take(np.arange(len(targets))[rows])
        np.testing.assert_array_equal(taken.responsive, sliced.responsive)
        assert taken.targets.to_ints() == sliced.targets.to_ints()
    assert not one_shot.responsive.all() and one_shot.responsive.any()
