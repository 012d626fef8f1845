"""Bit-identity of the out-of-core execution tier.

The three hottest paths -- APD fan-out probing, k-means label assignment,
the sliding-window verdict sweep -- each loop over ``chunk_rows`` blocks
(one block by default), optionally backed by unlinked memmap scratch.  The
contract is exactness, not approximation: on the realistic anomaly mix
(loss, rate limiting, SYN proxies) every chunked or memmap configuration
must reproduce the default in-RAM result *bit for bit*, across multiple
scenario presets including the megascale preset at a CI-feasible tier --
every fan-out target and probe outcome is a keyed draw, so no chunking can
shift one.

Also covered here: the :class:`ExecutionPolicy` API surface (defaults,
validation, removed knobs), the memmap round-trip on :class:`AddressBatch`,
and the peak-memory bound -- a streamed probe sweep must never materialise
the full target set in RAM.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.addr.batch import AddressBatch
from repro.core.apd import APDConfig, AliasedPrefixDetector
from repro.core.clustering import kmeans
from repro.core.sliding_window import SlidingWindowMerger
from repro.exec import (
    DEFAULT_CHUNK_ROWS,
    ExecutionPolicy,
    chunked_probe_batch,
    plan_chunk_spans,
    scratch_memmap,
)
from repro.scenarios import build

#: Every streaming configuration under test: chunked in-RAM, chunked into
#: memmap scratch, and memmap scratch at the default chunk size.
STREAMING_POLICIES = [
    ExecutionPolicy(chunk_rows=64),
    ExecutionPolicy(chunk_rows=64, storage="memmap"),
    ExecutionPolicy(storage="memmap"),  # implied chunking
]

#: Parity presets: the two densest anomaly shapes plus the megascale preset
#: (at the tiny tier, so CI probes the same code path the real tier runs).
PARITY_SCENARIOS = ["aliasing-storm", "cdn-heavy", "megascale"]


# -- ExecutionPolicy API ----------------------------------------------------


def test_default_policy_is_plain_fast_engine():
    policy = ExecutionPolicy()
    assert not policy.reference
    assert policy.effective_chunk_rows is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chunk_rows": 0},
        {"chunk_rows": -4},
        {"storage": "disk"},
    ],
)
def test_execution_policy_validates_knobs(kwargs):
    with pytest.raises(ValueError):
        ExecutionPolicy(**kwargs)


@pytest.mark.parametrize("kwargs", [{"workers": 2}, {"shard_by": "rows"}])
def test_execution_policy_rejects_removed_knobs(kwargs):
    # Fork sharding was slower than one core at every workload size, and
    # its knobs are gone rather than silently ignored.
    with pytest.raises(TypeError):
        ExecutionPolicy(**kwargs)


def test_execution_policy_streaming_flags():
    # Memmap storage without a pinned chunk size falls back to the default.
    assert ExecutionPolicy(storage="memmap").effective_chunk_rows == DEFAULT_CHUNK_ROWS
    assert ExecutionPolicy(chunk_rows=8).effective_chunk_rows == 8


def test_execution_policy_is_frozen_and_hashable():
    policy = ExecutionPolicy(chunk_rows=8)
    with pytest.raises(AttributeError):
        policy.chunk_rows = 4
    assert hash(policy) == hash(ExecutionPolicy(chunk_rows=8))


# -- chunk planning ----------------------------------------------------------


def test_chunk_spans_cover_every_row_once():
    spans = plan_chunk_spans(1000, 64)
    assert spans[0][0] == 0 and spans[-1][1] == 1000
    for (_, e), (s, _) in zip(spans, spans[1:]):
        assert e == s


# -- AddressBatch memmap round-trip ------------------------------------------


def test_address_batch_memmap_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    batch = AddressBatch(
        rng.integers(0, 2**64, size=257, dtype=np.uint64),
        rng.integers(0, 2**64, size=257, dtype=np.uint64),
    )
    path = batch.to_memmap(tmp_path / "batch.npy")
    loaded = AddressBatch.from_memmap(path)
    assert len(loaded) == len(batch)
    np.testing.assert_array_equal(np.asarray(loaded.hi), np.asarray(batch.hi))
    np.testing.assert_array_equal(np.asarray(loaded.lo), np.asarray(batch.lo))
    # Zero-copy: the columns are views over the mapped file, not RAM copies.
    assert isinstance(np.asarray(loaded.hi).base.base, np.memmap)


def test_address_batch_from_memmap_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-batch.npy"
    np.save(path, np.zeros((3, 4), dtype=np.float64))
    with pytest.raises(ValueError, match="not an AddressBatch memmap"):
        AddressBatch.from_memmap(path)
    np.save(path, np.zeros((3, 4), dtype=np.uint64))
    with pytest.raises(ValueError, match="not an AddressBatch memmap"):
        AddressBatch.from_memmap(path)


# -- APD parity: chunked/memmap vs one-shot batch ---------------------------


@pytest.fixture(scope="module", params=PARITY_SCENARIOS)
def apd_corpus(request):
    """(internet, config, candidate prefixes) on a stochastic preset."""
    ctx = build("context", request.param, scale="tiny", anomalies="realistic")
    addresses = ctx.hitlist.addresses
    detector = AliasedPrefixDetector(
        ctx.internet,
        APDConfig(min_targets_per_prefix=ctx.config.apd_min_targets),
        seed=123,
    )
    candidates = detector.candidate_prefixes(addresses)
    assert candidates, f"scenario {request.param} yields no candidate prefixes"
    return ctx.internet, ctx.config, candidates


def run_apd(internet, config, candidates, policy, days=(0, 1)):
    """Replay the same multi-day probe plan under one policy."""
    detector = AliasedPrefixDetector(
        internet,
        APDConfig(min_targets_per_prefix=config.apd_min_targets),
        seed=123,
        policy=policy,
    )
    return [detector.probe_prefixes(candidates, day) for day in days]


def assert_outcomes_identical(reference, streamed):
    assert list(reference) == list(streamed)
    for prefix, ref in reference.items():
        got = streamed[prefix]
        assert got.is_aliased == ref.is_aliased, prefix
        assert got.targets == ref.targets, prefix
        assert got.branch_responses == ref.branch_responses, prefix


@pytest.mark.parametrize("policy", STREAMING_POLICIES, ids=str)
def test_apd_streaming_bit_identical_to_batch(apd_corpus, policy):
    internet, config, candidates = apd_corpus
    plain_days = run_apd(internet, config, candidates, ExecutionPolicy())
    streamed_days = run_apd(internet, config, candidates, policy)
    for plain, streamed in zip(plain_days, streamed_days):
        assert_outcomes_identical(plain, streamed)


# -- k-means parity ----------------------------------------------------------


@pytest.mark.parametrize("policy", [ExecutionPolicy(chunk_rows=17)], ids=str)
def test_kmeans_streaming_bit_identical(policy):
    rng = np.random.default_rng(11)
    data = np.concatenate(
        [rng.normal(loc=c, scale=0.6, size=(120, 5)) for c in (-4.0, 0.0, 4.0)]
    )
    plain = kmeans(data, k=3, seed=3)
    streamed = kmeans(data, k=3, seed=3, policy=policy)
    np.testing.assert_array_equal(streamed.labels, plain.labels)
    np.testing.assert_array_equal(streamed.centroids, plain.centroids)
    assert streamed.sse == plain.sse
    assert streamed.iterations == plain.iterations


# -- sliding-window parity ---------------------------------------------------


def test_window_sweep_streaming_bit_identical(apd_corpus):
    internet, config, candidates = apd_corpus
    detector = AliasedPrefixDetector(
        internet,
        APDConfig(min_targets_per_prefix=config.apd_min_targets),
        seed=123,
    )
    daily = {day: detector.run(prefixes=candidates, day=day) for day in range(4)}
    plain = SlidingWindowMerger(daily)
    streamed = SlidingWindowMerger(daily, policy=ExecutionPolicy(chunk_rows=7))
    for window in (0, 1, 2):
        np.testing.assert_array_equal(
            streamed._windowed_verdicts(window), plain._windowed_verdicts(window)
        )
        assert streamed.window_stats(window) == plain.window_stats(window)


# -- tentpole acceptance: peak memory bounded by chunk_rows ------------------


def test_out_of_core_probe_peak_memory_is_bounded(tmp_path):
    """A megascale probe sweep completes without the rows ever living in RAM.

    The fan-out targets are tiled out to a megascale-tier row count, parked
    in a memmap file, reopened zero-copy, and probed chunk by chunk into
    memmap scratch.  tracemalloc tracks every numpy heap allocation, so the
    traced peak bounds the resident working set: it must scale with
    ``chunk_rows``, far below the full hi/lo/response materialisation --
    while the resulting matrix stays bit-identical to the one-shot
    ``probe_batch`` call.
    """
    ctx = build("context", "megascale", scale="tiny", anomalies="deterministic")
    config = APDConfig()
    base = AddressBatch.from_addresses(ctx.hitlist.addresses)
    n = 1 << 17
    targets = AddressBatch(
        np.resize(np.asarray(base.hi), n), np.resize(np.asarray(base.lo), n)
    )
    full_bytes = n * (2 * 8 + len(config.protocols))

    # One-shot reference (also warms the internet's lazy routing tables so
    # their one-time construction cannot pollute the streamed measurement).
    reference = ctx.internet.probe_batch(targets, config.protocols, 0).responsive

    stored = AddressBatch.from_memmap(targets.to_memmap(tmp_path / "targets.npy"))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = scratch_memmap((n, len(config.protocols)), np.bool_)
        chunked_probe_batch(
            ctx.internet, stored, config.protocols, 0, chunk_rows=1024, out=out
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # probe_batch allocates a handful of per-chunk intermediates, so the
    # bound is a multiple of the chunk footprint -- far below full size.
    assert peak < full_bytes // 4, (peak, full_bytes)
    np.testing.assert_array_equal(np.asarray(out), reference)


# -- chunked probing under loss ----------------------------------------------


@pytest.fixture(scope="module")
def stochastic_probe_corpus():
    """A stochastic internet (lossy, rate-limited probes) and a target batch."""
    ctx = build("context", "baseline", scale="tiny", anomalies="realistic")
    targets = AddressBatch.from_addresses(ctx.hitlist.addresses[:600])
    return ctx.internet, targets, APDConfig().protocols


@pytest.mark.parametrize("chunk_rows", [1, 7, 128, 5000])
def test_chunked_probe_batch_equals_one_shot_under_loss(stochastic_probe_corpus, chunk_rows):
    """Keyed outcomes: every chunking reproduces the one-shot matrix."""
    internet, targets, protocols = stochastic_probe_corpus
    one_shot = internet.probe_batch(targets, protocols, 1).responsive
    chunked = chunked_probe_batch(internet, targets, protocols, 1, chunk_rows=chunk_rows)
    np.testing.assert_array_equal(chunked, one_shot)
    assert not one_shot.all() and one_shot.any()
