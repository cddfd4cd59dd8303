"""Tests for NanoCloud assembly and membership tracking."""

import numpy as np
import pytest

from repro.analysis import contracts
from repro.core import metrics
from repro.fields.generators import smooth_field
from repro.middleware.config import BrokerConfig
from repro.middleware.nanocloud import NanoCloud
from repro.network.bus import MessageBus
from repro.sensors.base import Environment


@pytest.fixture
def env():
    return Environment(
        fields={"temperature": smooth_field(8, 8, offset=20.0, rng=0)}
    )


class TestBuild:
    def test_nodes_on_distinct_cells(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 8, 8, n_nodes=20, rng=1)
        cells = list(nc.broker.members.values())
        assert len(cells) == len(set(cells)) == 20
        assert nc.n_nodes == 20

    def test_all_registered_on_bus(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 4, 4, n_nodes=5, rng=2)
        assert nc.broker.broker_id in bus.addresses
        for node_id in nc.nodes:
            assert node_id in bus.addresses

    def test_node_states_in_global_coordinates(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 4, 4, n_nodes=4, origin=(10, 20), rng=3)
        for node_id, cell in nc.broker.members.items():
            node = nc.nodes[node_id]
            i, j = cell // 4, cell % 4
            assert node.state.x == 10 + i
            assert node.state.y == 20 + j

    def test_dense_crowds_share_cells(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 2, 2, n_nodes=9, rng=0)
        cells = list(nc.broker.members.values())
        assert len(cells) == 9
        assert set(cells) == {0, 1, 2, 3}  # every cell covered first

    def test_zero_nodes_rejected(self):
        bus = MessageBus()
        with pytest.raises(ValueError):
            NanoCloud.build("nc0", bus, 2, 2, n_nodes=0)

    def test_heterogeneous_tiers_drawn(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 8, 8, n_nodes=60, rng=4)
        tiers = {node.tier.name for node in nc.nodes.values()}
        assert len(tiers) >= 2

    def test_homogeneous_option(self):
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc0", bus, 8, 8, n_nodes=10, heterogeneous=False, rng=5
        )
        assert {node.tier.name for node in nc.nodes.values()} == {"midrange"}


class TestRounds:
    def test_round_reconstructs(self, env):
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc0", bus, 8, 8, n_nodes=60,
            config=BrokerConfig(seed=6), rng=6,
        )
        truth = env.fields["temperature"]
        nc.run_round(env, measurements=30)  # warm up sparsity estimate
        estimate = nc.run_round(env, timestamp=1.0, measurements=30)
        err = metrics.relative_error(truth.vector(), estimate.field.vector())
        assert err < 0.1

    def test_refresh_membership_tracks_movement(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 8, 8, n_nodes=4, rng=7)
        node = next(iter(nc.nodes.values()))
        node.state.x, node.state.y = 5.0, 3.0
        nc.refresh_membership()
        assert nc.broker.members[node.node_id] == 5 * 8 + 3

    def test_refresh_clamps_wanderers(self):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 4, 4, n_nodes=3, origin=(0, 0), rng=8)
        node = next(iter(nc.nodes.values()))
        node.state.x, node.state.y = 100.0, -5.0
        nc.refresh_membership()
        cell = nc.broker.members[node.node_id]
        assert 0 <= cell < 16

    def test_node_energy_rollup(self, env):
        bus = MessageBus()
        nc = NanoCloud.build("nc0", bus, 8, 8, n_nodes=40, rng=9)
        assert nc.total_node_energy_mj() == 0.0
        nc.run_round(env, measurements=20)
        assert nc.total_node_energy_mj() > 0.0


def _fresh_energy(nc):
    return sum(node.ledger.total_mj() for node in nc.nodes.values())


class TestEnergySubtotal:
    """The cached per-NanoCloud energy subtotal and what invalidates it."""

    @pytest.fixture
    def nc(self):
        nc = NanoCloud.build("nc0", MessageBus(), 4, 4, n_nodes=6, rng=10)
        for k, node in enumerate(nc.nodes.values()):
            node.ledger.post("sensing", 0.1 * (k + 1))
        assert nc.total_node_energy_mj() == _fresh_energy(nc)
        return nc

    def test_member_post_and_merge_invalidate(self, nc):
        ledger = nc.nodes["nc0/node3"].ledger
        ledger.post("cpu", 0.7)
        assert nc.total_node_energy_mj() == _fresh_energy(nc)
        other = type(ledger)(node_id="x")
        other.post("radio_tx", 1.3)
        ledger.merge(other)
        assert nc.total_node_energy_mj() == _fresh_energy(nc)

    def test_every_membership_write_invalidates(self, nc):
        spare = NanoCloud.build("nc1", MessageBus(), 2, 2, n_nodes=3, rng=11)
        donor = list(spare.nodes.values())
        for node in donor:
            node.ledger.post("sensing", 2.5)
        writes = [
            lambda: nc.nodes.__setitem__("a", donor[0]),
            lambda: nc.nodes.update(b=donor[1]),
            lambda: nc.nodes.setdefault("c", donor[2]),
            lambda: nc.nodes.pop("a"),
            lambda: nc.nodes.__delitem__("b"),
            lambda: nc.nodes.popitem(),
            lambda: nc.nodes.__ior__({"a": donor[0]}),
            lambda: nc.promote_broker(),
            lambda: nc.nodes.clear(),
        ]
        for write in writes:
            write()
            assert nc.total_node_energy_mj() == _fresh_energy(nc)

    def test_assigned_dict_becomes_a_member_table(self, nc):
        nodes = dict(nc.nodes)
        nodes.pop("nc0/node0")
        nc.nodes = nodes
        assert nc.total_node_energy_mj() == _fresh_energy(nc)
        nc.nodes["nc0/node1"].ledger.post("cpu", 4.0)
        assert nc.total_node_energy_mj() == _fresh_energy(nc)

    def test_matches_the_uncached_sum_bit_for_bit(self, env):
        nc = NanoCloud.build(
            "nc0", MessageBus(), 8, 8, n_nodes=30,
            config=BrokerConfig(seed=12), rng=12,
        )
        for t in range(4):
            nc.run_round(env, timestamp=float(t), measurements=20)
            assert nc.total_node_energy_mj().hex() == _fresh_energy(nc).hex()

    def test_sanitizer_catches_a_silent_ledger_write(self, nc):
        ledger = nc.nodes["nc0/node2"].ledger
        ledger._by_category["sensing"] += 1.0  # bypasses the hook
        was_enabled = contracts.enabled()
        try:
            contracts.enable(False)
            assert nc.total_node_energy_mj() != _fresh_energy(nc)
            contracts.enable(True)
            with pytest.raises(contracts.ContractViolation):
                nc.total_node_energy_mj()
        finally:
            contracts.enable(was_enabled)
