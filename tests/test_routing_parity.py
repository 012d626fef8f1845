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
It also pins :meth:`SimulatedInternet.routed`: a view of a built world under
other routing knobs answers as a fresh build under those knobs would, and
leaves the world it shares untouched.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.addr.batch import AddressBatch
from repro.addr.generate import random_address_in_prefix
from repro.experiments.vantage import ROUTED_KNOBS
from repro.netmodel.config import InternetConfig
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS
from repro.scenarios import build, get_scenario, run_differential, scenario_names

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


class TestRoutedView:
    """``world.routed(**knobs)`` equals ``SimulatedInternet(replace(config,
    **knobs))`` probe for probe, on a lossy, rate-limited world with the
    anomaly regions (the realistic mix at test scale)."""

    VANTAGES = range(ROUTED_KNOBS["num_vantages"])

    @pytest.fixture(scope="class")
    def world(self):
        return build("internet", "baseline", scale="test", anomalies="realistic")

    @pytest.fixture(scope="class")
    def fresh(self, world):
        return SimulatedInternet(replace(world.config, **ROUTED_KNOBS))

    @pytest.fixture(scope="class")
    def targets(self, world):
        """Bound hosts, addresses inside every aliased region and random
        (mostly unrouted) addresses: every branch of a probe."""
        rng = random.Random(11)
        addresses = world.all_bound_addresses()[::2]
        addresses += [
            random_address_in_prefix(region.prefix, rng)
            for region in world.aliased_regions
            for _ in range(4)
        ]
        addresses += [rng.getrandbits(128) for _ in range(200)]
        return AddressBatch.from_addresses(addresses)

    @staticmethod
    def sample(targets, count=150):
        return random.Random(5).sample(targets.to_addresses(), count)

    @pytest.mark.parametrize("day", [0, 5])
    def test_probe_batch_equals_a_fresh_routed_build(self, world, fresh, targets, day):
        view = world.routed(**ROUTED_KNOBS)
        assert view.config == fresh.config
        for vantage in self.VANTAGES:
            got = view.probe_batch(targets, day=day, vantage=vantage).responsive
            want = fresh.probe_batch(targets, day=day, vantage=vantage).responsive
            assert np.array_equal(got, want), vantage
            assert got.any() and not got.all()

    def test_a_resolution_belongs_to_the_routing_that_made_it(self, world, targets):
        view = world.routed(**ROUTED_KNOBS)
        with pytest.raises(ValueError, match="another SimulatedInternet"):
            view.probe_batch(world.resolve_targets(targets))
        with pytest.raises(ValueError, match="another SimulatedInternet"):
            world.probe_batch(view.resolve_targets(targets))

    def test_a_flat_view_traces_as_a_fresh_world(self, world, targets):
        """The view's topology stream starts where a fresh build's does,
        whatever the world traced before."""
        sample = self.sample(targets, 40)
        for address in sample[20:]:
            world.traceroute(address)
        view, fresh = world.routed(), SimulatedInternet(world.config)
        assert [view.traceroute(a) for a in sample] == [fresh.traceroute(a) for a in sample]

    def test_probe_and_traceroute_equal_a_fresh_routed_build(self, world, fresh, targets):
        sample = self.sample(targets)
        # The world's own scalar cache holds unrouted answers: the view must
        # not read them.
        for address in sample:
            world.probe(address, ALL_PROTOCOLS[0], day=2)
        view = world.routed(**ROUTED_KNOBS)
        for vantage in self.VANTAGES:
            for protocol in ALL_PROTOCOLS:
                got = [view.probe(a, protocol, day=2, vantage=vantage) for a in sample]
                want = [fresh.probe(a, protocol, day=2, vantage=vantage) for a in sample]
                assert got == want, (vantage, protocol)
            for address in sample[:40]:
                got = view.traceroute(address, 1, random.Random(3), vantage=vantage)
                want = fresh.traceroute(address, 1, random.Random(3), vantage=vantage)
                assert got == want, (vantage, address)

    def test_the_view_leaves_the_world_unchanged(self, world, targets):
        before = world.probe_batch(targets, day=1).responsive.copy()
        sample = self.sample(targets)
        scalar = [world.probe(a, ALL_PROTOCOLS[0], day=1) for a in sample]
        view = world.routed(**ROUTED_KNOBS)
        view.probe_batch(targets, day=1)
        for address in sample[:40]:
            view.probe(address, ALL_PROTOCOLS[0], day=1)
            view.traceroute(address, 1, vantage=2)
        view.sample_aliased_addresses(60, random.Random(9))
        assert not world.routing.active and world.config.num_transit_ases == 0
        assert np.array_equal(world.probe_batch(targets, day=1).responsive, before)
        assert [world.probe(a, ALL_PROTOCOLS[0], day=1) for a in sample] == scalar
        # The view's sampling grew its own pods, not the world's: the world
        # samples as a second view, whose pods start empty, does.
        second = world.routed()
        own = world.sample_aliased_addresses(60, random.Random(9))
        assert own == second.sample_aliased_addresses(60, random.Random(9))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_ases", 81),
            ("packet_loss", 0.0),
            ("icmp_rate_limited_share", 0.0),
            ("stochastic_anomalies", False),
            ("seed", 8),
        ],
    )
    def test_a_build_field_is_refused(self, world, field, value):
        with pytest.raises(ValueError, match=field):
            world.routed(**{field: value})


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
