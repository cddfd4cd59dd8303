"""Tests for LocalCloud and the full Fig.-1 hierarchy."""

import hashlib

import numpy as np
import pytest

from repro.core import metrics
from repro.fields.generators import urban_temperature_field
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.middleware.hierarchy import Hierarchy
from repro.middleware.localcloud import LocalCloud
from repro.network.bus import MessageBus
from repro.sensors.base import Environment
from repro.sim.scenario import smart_building_scenario


@pytest.fixture
def truth():
    return urban_temperature_field(16, 8, rng=3)


@pytest.fixture
def env(truth):
    return Environment(fields={"temperature": truth})


class TestLocalCloud:
    def test_nc_split_and_origins(self):
        bus = MessageBus()
        lc = LocalCloud(
            "lc0", bus, 8, 8, n_nanoclouds=2, nodes_per_nc=10,
            origin=(4, 0), rng=0,
        )
        assert len(lc.nanoclouds) == 2
        assert lc.nanoclouds[0].origin == (4, 0)
        assert lc.nanoclouds[1].origin == (8, 0)
        assert lc.n_nodes == 20

    def test_uneven_split_rejected(self):
        bus = MessageBus()
        with pytest.raises(ValueError):
            LocalCloud("lc0", bus, 9, 8, n_nanoclouds=2)

    def test_round_concatenates_columns(self, env, truth):
        bus = MessageBus()
        lc = LocalCloud(
            "lc0", bus, 16, 8, n_nanoclouds=2, nodes_per_nc=60,
            config=BrokerConfig(seed=1), heterogeneous=False, rng=1,
        )
        result = lc.run_round(env)
        assert result.field.width == 16
        assert result.field.height == 8
        assert len(result.nc_estimates) == 2

    def test_aggregate_messages_metered(self, env):
        bus = MessageBus()
        lc = LocalCloud(
            "lc0", bus, 16, 8, n_nanoclouds=2, nodes_per_nc=30, rng=2
        )
        lc.run_round(env)
        assert bus.stats.by_kind["aggregate"] == 2

    def test_explicit_budgets(self, env):
        bus = MessageBus()
        lc = LocalCloud(
            "lc0", bus, 16, 8, n_nanoclouds=2, nodes_per_nc=60, rng=3
        )
        result = lc.run_round(env, measurements_per_nc=[10, 20])
        assert result.nc_estimates[0].m <= 10
        assert result.nc_estimates[1].m <= 20

    def test_wrong_budget_count(self, env):
        bus = MessageBus()
        lc = LocalCloud("lc0", bus, 16, 8, n_nanoclouds=2, nodes_per_nc=10, rng=4)
        with pytest.raises(ValueError):
            lc.run_round(env, measurements_per_nc=[10])


class TestHierarchy:
    def _hierarchy(self, **kwargs):
        defaults = dict(
            config=HierarchyConfig(
                zones_x=4, zones_y=2, nodes_per_nanocloud=48
            ),
            broker_config=BrokerConfig(seed=5),
            rng=42,
        )
        defaults.update(kwargs)
        return Hierarchy(16, 8, **defaults)

    def test_structure(self):
        h = self._hierarchy()
        assert len(h.localclouds) == 8
        assert h.n_nodes == 8 * 48

    def test_global_round_accuracy(self, env, truth):
        h = self._hierarchy()
        h.run_global_round(env)  # warm-up: adapts per-zone sparsity
        estimate = h.run_global_round(env, timestamp=1.0)
        err = metrics.relative_error(truth.vector(), estimate.field.vector())
        assert err < 0.1
        assert estimate.total_measurements < truth.n

    def test_zone_budgets_feed_round(self, env, truth):
        h = self._hierarchy()
        budgets = h.zone_budgets(truth, total_budget=64)
        assert sum(budgets.values()) == 64
        estimate = h.run_global_round(env, zone_measurements=budgets)
        assert estimate.total_measurements <= 64

    def test_cloud_receives_one_aggregate_per_zone(self, env):
        h = self._hierarchy()
        before = h.bus.stats.by_kind.get("aggregate", 0)
        h.run_global_round(env)
        # Each NC reports to its LC head, each LC head to the cloud:
        # with 1 NC per LC that is 2 aggregates per zone.
        assert h.bus.stats.by_kind["aggregate"] - before == 2 * len(h.localclouds)

    def test_split_budget_even(self):
        assert Hierarchy._split_budget(10, 3) == [4, 3, 3]
        assert sum(Hierarchy._split_budget(17, 4)) == 17

    def test_criticality_matrix_passed(self, env):
        crit = np.ones((2, 4))
        crit[0, 0] = 10.0
        h = self._hierarchy(criticality=crit)
        zone0 = h.zone_grid.zones[0]
        assert zone0.criticality == 10.0
        broker = h.localclouds[0].nanoclouds[0].broker
        assert broker.criticality is not None

    def test_node_energy_accumulates(self, env):
        h = self._hierarchy()
        h.run_global_round(env)
        assert h.total_node_energy_mj() > 0


class TestDefaultBusSeed:
    @staticmethod
    def _lossy_rounds(rounds=4):
        scenario = smart_building_scenario(
            width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=12, rng=7
        )
        system = scenario.system
        bus = system.hierarchy.bus
        bus.loss_rate = 0.1  # set after construction, on the private bus
        books = []
        for _ in range(rounds):
            estimate = system.sense_field()
            lost = {
                address: (
                    bus.endpoint(address).outbound_lost,
                    bus.endpoint(address).inbound_lost,
                )
                for address in bus.addresses
            }
            books.append((bus.messages_lost, lost, estimate.field.grid.copy()))
        return books

    def test_private_bus_loss_stream_follows_rng(self):
        first = self._lossy_rounds()
        second = self._lossy_rounds()
        assert first[-1][0] > 0  # the channel did lose messages
        for (lost_a, per_a, grid_a), (lost_b, per_b, grid_b) in zip(
            first, second
        ):
            assert lost_a == lost_b
            assert per_a == per_b  # the same senders and receivers lost
            assert np.array_equal(grid_a, grid_b)


class TestLockstepPhaseOrder:
    def test_lossy_round_keeps_collect_all_then_finalize_all(self, env):
        # run_global_round collects every zone before it finalizes any:
        # finalisation sends AGGREGATE traffic that draws from the bus
        # loss stream, so interleaving it with collection changes which
        # reports a lossy channel eats (342 messages become 340 and the
        # field moves).  Digest and counts recorded before the solve
        # phase became a function of a frozen round; the field is
        # rounded to 1e-6 so only the order, not the BLAS, is pinned.
        bus = MessageBus(loss_rate=0.1, seed=11)
        hierarchy = Hierarchy(
            16, 8,
            config=HierarchyConfig(
                zones_x=2, zones_y=1, nodes_per_nanocloud=24
            ),
            broker_config=BrokerConfig(command_retries=1),
            bus=bus,
            rng=5,
        )
        digest = hashlib.sha256()
        for round_index in range(3):
            estimate = hierarchy.run_global_round(env, float(round_index))
            digest.update(np.round(estimate.field.grid, 6).tobytes())
        assert dict(bus.losses_by_reason) == {"iid-loss": 37}
        assert bus.stats.messages == 342
        assert digest.hexdigest() == (
            "4254aac401375ad34a7927217b79add7b6882bcdc6fb6b5b96fa71332b5e31f8"
        )
