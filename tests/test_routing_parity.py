"""Degenerate-topology regression suite.

The routed AS graph must be a strict superset of the historical flat probe
resolution: with ``num_transit_ases = 0`` (the degenerate single-homed star)
probe resolution takes the exact pre-routing code path, and with a routed
graph whose effect knobs are all zero the outcomes are still bit-identical
-- same responses, and, since every draw is keyed on the probe's own
coordinates, the same loss even on a lossy world.  This suite pins both
properties on
every registered scenario preset (reusing the cross-engine differential
oracle) and at the raw ``probe``/``probe_batch`` level, so the golden
tables and figures survive the routed-topology migration unchanged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.addr.batch import AddressBatch
from repro.netmodel.config import InternetConfig
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS
from repro.scenarios import get_scenario, run_differential, scenario_names

#: Deterministic tiny substrate shared by the bit-identity checks.
_FLAT = InternetConfig(
    num_ases=48,
    base_hosts_per_allocation=8,
    max_hosts_per_allocation=160,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

#: The same Internet with a routed graph whose path effects are all zero.
_ROUTED_NO_EFFECTS = replace(_FLAT, num_transit_ases=4, num_ixps=1, num_vantages=2)


@pytest.fixture(scope="module")
def flat_internet():
    return SimulatedInternet(_FLAT)


@pytest.fixture(scope="module")
def routed_internet():
    return SimulatedInternet(_ROUTED_NO_EFFECTS)


@pytest.fixture(scope="module")
def shared_targets(flat_internet):
    addresses = flat_internet.all_bound_addresses()
    return AddressBatch.from_addresses(addresses[::3])


class TestBitIdentity:
    def test_structure_is_unchanged_by_the_routed_graph(
        self, flat_internet, routed_internet
    ):
        """Same seed => same hosts, addressing and announcements, graph or not."""
        assert flat_internet.routing.active is False
        assert routed_internet.routing.active is True
        assert [h.addresses for h in flat_internet.hosts] == [
            h.addresses for h in routed_internet.hosts
        ]
        assert [a.prefix for a in flat_internet.bgp] == [
            a.prefix for a in routed_internet.bgp
        ]
        assert flat_internet.aliased_prefixes() == routed_internet.aliased_prefixes()

    @pytest.mark.parametrize("day", [0, 1, 5])
    def test_probe_batch_is_bit_identical(
        self, flat_internet, routed_internet, shared_targets, day
    ):
        """Zero-effect routed resolution flips nothing."""
        flat = flat_internet.probe_batch(shared_targets, day=day)
        routed = routed_internet.probe_batch(shared_targets, day=day)
        assert np.array_equal(flat.responsive, routed.responsive)

    def test_scalar_probe_is_bit_identical(
        self, flat_internet, routed_internet, shared_targets
    ):
        addresses = shared_targets.to_addresses()[:300]
        for protocol in ALL_PROTOCOLS:
            flat = [flat_internet.probe(a, protocol, day=1) is not None for a in addresses]
            routed = [
                routed_internet.probe(a, protocol, day=1) is not None for a in addresses
            ]
            assert flat == routed

    def test_loss_is_unshifted_by_zero_effect_routing(self, shared_targets):
        """Keyed loss: the routed graph cannot move a single lost probe."""
        flat = SimulatedInternet(replace(_FLAT, packet_loss=0.2))
        routed = SimulatedInternet(replace(_ROUTED_NO_EFFECTS, packet_loss=0.2))
        a = flat.probe_batch(shared_targets, day=1).responsive
        b = routed.probe_batch(shared_targets, day=1).responsive
        assert np.array_equal(a, b)
        lossless = SimulatedInternet(_FLAT).probe_batch(shared_targets, day=1).responsive
        assert (lossless & ~a).any()  # the loss did drop probes

    def test_traceroute_is_bit_identical_in_degenerate_mode(self, flat_internet):
        """The flat path keeps its draw order (scamper goldens depend on it)."""
        import random

        address = flat_internet.all_bound_addresses()[0]
        a = flat_internet.traceroute(address, rng=random.Random(3))
        b = flat_internet.traceroute(address, rng=random.Random(3))
        assert a == b and a

    @pytest.mark.parametrize("vantage", [0, 1, 5])
    def test_vantage_is_irrelevant_without_path_effects(
        self, routed_internet, shared_targets, vantage
    ):
        base = routed_internet.probe_batch(shared_targets, day=0)
        other = routed_internet.probe_batch(shared_targets, day=0, vantage=vantage)
        assert np.array_equal(base.responsive, other.responsive)


class TestScalarBatchRoutedParity:
    """Scalar probe and probe_batch agree under deterministic routed effects."""

    @pytest.fixture(scope="class")
    def filtered_internet(self):
        return SimulatedInternet(
            replace(_ROUTED_NO_EFFECTS, filtered_region=2, bgp_churn_rate=0.4)
        )

    @pytest.mark.parametrize("day", [0, 2])
    @pytest.mark.parametrize("vantage", [0, 1])
    def test_probe_matches_batch_column(self, filtered_internet, day, vantage):
        internet = filtered_internet
        targets = AddressBatch.from_addresses(internet.all_bound_addresses()[::5])
        batch = internet.probe_batch(targets, day=day, vantage=vantage)
        for j, protocol in enumerate(batch.protocols):
            scalar = np.array(
                [
                    internet.probe(a, protocol, day=day, vantage=vantage) is not None
                    for a in targets.to_addresses()
                ]
            )
            assert np.array_equal(scalar, batch.responsive[:, j])


@pytest.mark.parametrize("name", scenario_names())
def test_every_preset_is_parity_clean_with_degenerate_routing(name):
    """Each preset pinned to the single-homed graph passes all engine pairs.

    This is the regression contract of the migration: composing
    ``num_transit_ases = 0`` over any preset (including the routed ones)
    reproduces the historical flat resolution, and the batch and reference
    engines agree exactly on it.
    """
    scenario = get_scenario(name, scale="tiny").with_overrides(
        "degenerate-routing", {"num_transit_ases": 0}
    )
    report = run_differential(scenario, seed=2018, days=2)
    assert report.ok, "\n" + report.summary()
