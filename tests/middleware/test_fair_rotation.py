"""Tests for battery-fair duty rotation among co-located nodes ([24])."""

import numpy as np
import pytest

from repro.energy.model import Battery
from repro.fields.generators import smooth_field
from repro.middleware.broker import Broker
from repro.middleware.config import BrokerConfig
from repro.middleware.node import MobileNode
from repro.network.bus import MessageBus
from repro.sensors.base import Environment, NodeState
from repro.sensors.physical import TemperatureSensor

W, H = 4, 4
N = W * H


def _colocated_fleet(bus, broker, per_cell=3, seed=1):
    """``per_cell`` nodes on every cell, each with its own battery."""
    rng = np.random.default_rng(seed)
    nodes = {}
    for cell in range(N):
        for copy in range(per_cell):
            node_id = f"n{cell}-{copy}"
            i, j = cell // H, cell % H
            node = MobileNode(
                node_id,
                sensors={"temperature": TemperatureSensor(rng=rng.integers(2**31))},
                state=NodeState(x=float(i), y=float(j)),
                battery=Battery(capacity_mj=1000.0),
                rng=rng.integers(2**31),
            )
            nodes[node_id] = node
            bus.register(node_id)
            broker.join(node_id, cell)
    return nodes


@pytest.fixture
def env():
    return Environment(
        fields={"temperature": smooth_field(W, H, offset=20.0, rng=0)}
    )


class TestFairRotation:
    def test_burden_spreads_across_copies(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=2))
        bus.register("b")
        nodes = _colocated_fleet(bus, broker)
        for r in range(30):
            broker.run_round(bus, nodes, env, timestamp=float(r), measurements=N)
        # Every copy of every cell should have carried some duty.
        sampled = [n.sensors["temperature"].samples_taken for n in nodes.values()]
        assert min(sampled) > 0
        assert max(sampled) - min(sampled) <= 2

    def test_rotation_extends_worst_battery(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=3))
        bus.register("b")
        nodes = _colocated_fleet(bus, broker, seed=3)
        for r in range(40):
            broker.run_round(
                bus, nodes, env, timestamp=float(r), measurements=N
            )
        spent: dict[int, list[float]] = {}
        for node_id, node in nodes.items():
            cell = int(node_id[1:].split("-")[0])
            spent.setdefault(cell, []).append(1.0 - node.ledger.battery.level)
        # A fixed order would drain one copy per cell by the cell's
        # whole spend; rotation keeps every copy near a third of it.
        for drains in spent.values():
            assert sum(drains) > 0
            assert max(drains) <= 0.5 * sum(drains)

    def test_nodes_without_batteries_still_work(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=4))
        bus.register("b")
        rng = np.random.default_rng(5)
        nodes = {}
        for cell in range(N):
            node_id = f"n{cell}"
            i, j = cell // H, cell % H
            node = MobileNode(
                node_id,
                sensors={"temperature": TemperatureSensor(rng=rng.integers(2**31))},
                state=NodeState(x=float(i), y=float(j)),
                rng=rng.integers(2**31),
            )
            nodes[node_id] = node
            bus.register(node_id)
            broker.join(node_id, cell)
        estimate = broker.run_round(bus, nodes, env, measurements=8)
        assert estimate.m == 8
