"""Property tests for the serving layer: snapshots answer like the scalars.

The snapshot's vectorised query paths (bisect range cuts, mask filters,
provenance bitmasks) must agree with a brute-force filter over the scalar
published hitlist of the same day -- for arbitrary prefixes, arbitrary
addresses and every source.  One day of the tiny scenario is published once
at module scope; hypothesis then draws queries against it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.addr.address import FULL_MASK, IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.scenarios import build
from repro.serving import HitlistSnapshot

FIRST_DAY = 25  # the tiny tier's run-up horizon
PREFIX_LENGTHS = (8, 16, 32, 40, 44, 48, 56, 64, 96, 112, 128)


@pytest.fixture(scope="module")
def served():
    """One published day: the snapshot plus its scalar ground truth."""
    server = build("server", "baseline", scale="tiny", seed=7)
    snapshot = server.publish_day(FIRST_DAY)
    daily = server.service.history[FIRST_DAY]
    scalars = daily.hitlist.addresses
    truth = {
        "scalars": scalars,
        "values": [a.value for a in scalars],
        # The snapshot files unrouted rows under AS -1.
        "asns": [-1 if asn is None else asn for asn in map(server.internet.asn_of, scalars)],
        "targets": set(daily.scan_result.targets.to_ints()),
        "responsive": {
            protocol: {a.value for a in daily.scan_result.responsive_on(protocol)}
            for protocol in snapshot.protocols
        },
        "provenance": daily.hitlist.provenance(),
    }
    return server, snapshot, daily, truth


def _brute_prefix(truth, prefix, *, include_aliased, responsive_only, protocol):
    """The prefix query, answered by filtering the scalar hitlist directly."""
    rows = []
    for address in truth["scalars"]:
        if not prefix.contains(address):
            continue
        if not include_aliased and address.value not in truth["targets"]:
            continue
        if protocol is not None:
            if address.value not in truth["responsive"][protocol]:
                continue
        elif responsive_only:
            if not any(
                address.value in members for members in truth["responsive"].values()
            ):
                continue
        rows.append(address.value)
    return rows


class TestPrefixQueryEqualsBruteForce:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_anchored_at_hitlist_rows(self, served, data):
        _, snapshot, _, truth = served
        row = data.draw(st.integers(0, len(truth["values"]) - 1), label="row")
        length = data.draw(st.sampled_from(PREFIX_LENGTHS), label="length")
        include_aliased = data.draw(st.booleans(), label="include_aliased")
        responsive_only = data.draw(st.booleans(), label="responsive_only")
        protocol = data.draw(
            st.sampled_from((None, *snapshot.protocols)), label="protocol"
        )
        prefix = IPv6Prefix.of(IPv6Address(truth["values"][row]), length)
        answer = snapshot.prefix_query(
            prefix,
            include_aliased=include_aliased,
            responsive_only=responsive_only,
            protocol=protocol,
        )
        expected = _brute_prefix(
            truth,
            prefix,
            include_aliased=include_aliased,
            responsive_only=responsive_only,
            protocol=protocol,
        )
        assert answer.addresses.to_ints() == expected
        assert answer.num_responsive(protocol) == len(
            [
                v
                for v in expected
                if protocol is not None
                and v in truth["responsive"][protocol]
                or protocol is None
                and any(v in members for members in truth["responsive"].values())
            ]
        )

    @given(
        value=st.integers(0, FULL_MASK),
        length=st.sampled_from(PREFIX_LENGTHS),
        include_aliased=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_at_arbitrary_addresses(self, served, value, length, include_aliased):
        _, snapshot, _, truth = served
        prefix = IPv6Prefix.of(IPv6Address(value), length)
        answer = snapshot.prefix_query(prefix, include_aliased=include_aliased)
        expected = _brute_prefix(
            truth,
            prefix,
            include_aliased=include_aliased,
            responsive_only=False,
            protocol=None,
        )
        assert answer.addresses.to_ints() == expected


class TestPointQueryEqualsMembership:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hitlist_rows(self, served, data):
        _, snapshot, _, truth = served
        row = data.draw(st.integers(0, len(truth["values"]) - 1), label="row")
        value = truth["values"][row]
        answer = snapshot.point_query(value)
        assert answer.in_hitlist
        assert answer.aliased == (value not in truth["targets"])
        sources, first_seen = truth["provenance"][value]
        assert set(answer.sources) == sources
        assert answer.first_seen_day == first_seen
        for protocol in snapshot.protocols:
            assert answer.responsive_on(protocol) == (
                value in truth["responsive"][protocol]
            )
        assert answer.responsive_any == any(
            value in members for members in truth["responsive"].values()
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_addresses(self, served, data):
        """Arbitrary addresses, and misses in the /64 of a listed row, get the
        membership and the APD verdict of the scalar trie."""
        _, snapshot, daily, truth = served
        same_64 = st.builds(
            lambda listed, iid: listed >> 64 << 64 | iid,
            st.sampled_from(truth["values"]),
            st.integers(0, 2**64 - 1),
        )
        value = data.draw(st.one_of(st.integers(0, FULL_MASK), same_64), label="value")
        answer = snapshot.point_query(value)
        assert answer.in_hitlist == (value in truth["provenance"])
        assert answer.aliased == daily.apd_result.is_aliased(value)
        if not answer.in_hitlist:
            assert answer.sources == ()
            assert answer.first_seen_day is None
            assert answer.responsive == tuple(False for _ in snapshot.protocols)


class TestASQueryEqualsBruteForce:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_of_the_origin_as(self, served, data):
        _, snapshot, _, truth = served
        row = data.draw(st.integers(0, len(truth["values"]) - 1), label="row")
        asn = truth["asns"][row]
        answer = snapshot.as_query(asn)
        expected = [v for v, a in zip(truth["values"], truth["asns"]) if a == asn]
        rows = answer.addresses.to_ints()
        assert rows == expected
        assert rows == sorted(rows)

    def test_snapshot_without_internet_refuses(self, served):
        _, snapshot, daily, truth = served
        bare = HitlistSnapshot.from_daily(daily, generation=snapshot.generation)
        with pytest.raises(ValueError, match="without an AS index"):
            bare.as_query(truth["asns"][0])


class TestProvenanceRoundTrip:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_bitmask_selects_exactly_the_source_members(self, served, data):
        """Per-source membership decoded from the snapshot's bitmask column
        equals the scalar hitlist's by_source view."""
        _, snapshot, daily, _ = served
        source = data.draw(st.sampled_from(snapshot.source_names), label="source")
        download = snapshot.download()
        bit = np.uint64(snapshot.source_names.index(source))
        member_mask = (download.source_masks >> bit & np.uint64(1)).astype(bool)
        from_snapshot = download.addresses.take(member_mask).to_ints()
        from_scalars = [a.value for a in daily.hitlist.by_source(source)]
        assert from_snapshot == from_scalars

    def test_every_row_round_trips_through_point_queries(self, served):
        """Exhaustive (non-drawn) check: each row's decoded source tuple
        matches the scalar provenance map."""
        _, snapshot, _, truth = served
        for value, (sources, first_seen) in truth["provenance"].items():
            answer = snapshot.point_query(value)
            assert set(answer.sources) == sources
            assert answer.first_seen_day == first_seen
