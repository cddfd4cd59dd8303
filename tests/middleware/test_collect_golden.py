"""Collected rounds pinned bit for bit on the zero-latency bus.

Seeded runs whose every collect-dependent output is hashed: each
:class:`repro.middleware.broker.ZoneEstimate` field (the field and the
reconstruction bit for bit, the realised plan, every telemetry counter,
trust) plus the bus's traffic stats and its losses by reason.

1. Lockstep rounds (``NanoCloud.run_round`` / ``LocalCloud.run_round``)
   over the collect paths that differ: unsuppressed co-located reports,
   retries with top-up resampling on a lossy channel, a partition with
   an infrastructure rescue, privacy refusals beside fixed sensors, a
   member leaving the bus between rounds, and two NanoClouds.
2. Zero-mode ``async_drivers`` on a 2-zone, 2-NC hierarchy over a
   seeded lossy bus with retries.

The digests were taken while the broker still had its own lockstep
command loop and the zero-mode driver called it; a collector that
orders commands, loss draws, retries, stamps or averages differently
moves them.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.fields.generators import smooth_field
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.middleware.hierarchy import Hierarchy
from repro.middleware.localcloud import LocalCloud
from repro.middleware.nanocloud import NanoCloud
from repro.middleware.privacy import PrivacyPolicy
from repro.network.bus import MessageBus
from repro.network.faults import FaultInjector, Partition
from repro.sensors.base import Environment
from repro.sensors.physical import TemperatureSensor
from repro.sim.clock import SimClock

LOCKSTEP_GOLDEN = {
    "suppress_off": "d0d510bd657e4c149e26266b5156126cf95c45b4d5b906dc43a018f931a8ef7e",
    "retries_topup": "16d9b167ec9fc039ff2be7efa33856de4cdbd0c015a4cc09f924ed6b8180b07c",
    "partition_infra": "e62f4ada16bb838ca320a73657e166af9f3fb2a1a11cc3645a91e64185565bf1",
    "privacy_infra": "ce71e60fd903b70266b7aab9e5d07508c6cbeed6ce880010366aa109c8894937",
    "member_unregistered": "fad15a4922dd396f9f1ffc2904a30efebe44769b3a9e1b9ccbf8f048b07b8ddd",
    "two_nanoclouds": "da9a5a7ce13e25a1e5d3d6b03be61a9f5e729c940b85c0eb31660fac12b2a281",
}
ASYNC_ZERO_GOLDEN = {
    (0.15, 1, 3): "41634918ab6f408d2d5f6a02a453377e914ef526301fd0c2aa3c98f3d2454d14",
    (0.2, 2, 8): "e0ad712850342d268f6859b24067d1a80e4d012b4e52ae86e8efc94c4d943b22",
    (0.3, 2, 21): "dca4d6450000d6fee8b1d7e394109070fe06898cc95707a5f602278d4276f4c6",
}


def _hash(digest, value) -> None:
    """Feed one value, recursing through dataclasses and containers."""
    if isinstance(value, np.ndarray):
        digest.update(value.dtype.str.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        digest.update(float(value).hex().encode())
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            digest.update(item.name.encode())
            _hash(digest, getattr(value, item.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            _hash(digest, key)
            _hash(digest, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _hash(digest, item)
    else:
        digest.update(repr(value).encode())
    digest.update(b";")


def _hash_bus(digest, bus: MessageBus) -> None:
    digest.update(json.dumps(bus.stats.snapshot(), sort_keys=True).encode())
    _hash(digest, dict(bus.losses_by_reason))


def _env(width, height, seed=0):
    return Environment(
        fields={
            "temperature": smooth_field(
                width, height, cutoff=0.2, amplitude=4.0, offset=20.0,
                rng=seed,
            )
        }
    )


def _nanocloud(bus, width, height, n_nodes, **config):
    return NanoCloud.build(
        "nc", bus, width, height, n_nodes=n_nodes,
        config=BrokerConfig(seed=4, **config), rng=9,
    )


def _rounds(nc, env, digest, rounds=3, measurements=16, between=None):
    for index in range(rounds):
        if between is not None and index:
            between(index)
        _hash(digest, nc.run_round(
            env, timestamp=10.0 * index, measurements=measurements
        ))
    _hash_bus(digest, nc.bus)


def _suppress_off(digest):
    env = _env(6, 4)
    bus = MessageBus(loss_rate=0.1, seed=2)
    nc = _nanocloud(bus, 6, 4, 72, suppress_redundant=False)
    _rounds(nc, env, digest, measurements=12)


def _retries_topup(digest):
    env = _env(8, 6)
    bus = MessageBus(loss_rate=0.3, seed=5)
    nc = _nanocloud(
        bus, 8, 6, 48, command_retries=2, topup_resampling=True,
        retry_backoff_s=0.3,
    )
    _rounds(nc, env, digest, measurements=20)


def _partition_infra(digest):
    env = _env(8, 6)
    bus = MessageBus(loss_rate=0.05, seed=7)
    nc = _nanocloud(bus, 8, 6, 40, command_retries=1)
    cut = sorted(nc.nodes)[::2]
    bus.fault_injector = FaultInjector(
        Partition({nc.broker.broker_id}, cut)
    )
    for cell in range(0, 48, 4):
        nc.broker.add_infrastructure(cell, TemperatureSensor(rng=cell))
    _rounds(nc, env, digest, measurements=24)


def _privacy_infra(digest):
    env = _env(8, 6)
    bus = MessageBus(loss_rate=0.1, seed=3)
    nc = _nanocloud(bus, 8, 6, 60)
    gen = np.random.default_rng(1)
    for node_id in sorted(nc.nodes):
        if gen.random() < 0.3:
            nc.nodes[node_id].policy = PrivacyPolicy(
                blocked_sensors={"temperature"}
            )
    for cell in range(0, 48, 5):
        nc.broker.add_infrastructure(cell, TemperatureSensor(rng=cell))
    _rounds(nc, env, digest, measurements=24)


def _member_unregistered(digest):
    env = _env(8, 6)
    bus = MessageBus(loss_rate=0.1, seed=13)
    nc = _nanocloud(bus, 8, 6, 40, command_retries=1)
    leaving = sorted(nc.nodes)[1::3]

    def churn(index):
        for node_id in leaving[index - 1 :: 2]:
            bus.unregister(node_id)

    _rounds(nc, env, digest, measurements=24, between=churn)


def _two_nanoclouds(digest):
    env = _env(8, 4)
    bus = MessageBus(loss_rate=0.15, seed=17)
    lc = LocalCloud(
        "lc0", bus, 8, 4, n_nanoclouds=2, nodes_per_nc=16,
        config=BrokerConfig(command_retries=1), rng=6,
    )
    for index in range(3):
        result = lc.run_round(env, 10.0 * index)
        _hash(digest, result.field.grid)
        _hash(digest, result.nc_estimates)
    _hash_bus(digest, bus)


LOCKSTEP_CASES = {
    "suppress_off": _suppress_off,
    "retries_topup": _retries_topup,
    "partition_infra": _partition_infra,
    "privacy_infra": _privacy_infra,
    "member_unregistered": _member_unregistered,
    "two_nanoclouds": _two_nanoclouds,
}


def _async_zero(loss, retries, seed):
    env = _env(16, 8, seed)
    bus = MessageBus(loss_rate=loss, seed=seed)
    hierarchy = Hierarchy(
        16, 8,
        config=HierarchyConfig(
            zones_x=2, zones_y=1, nodes_per_nanocloud=14,
            nanoclouds_per_localcloud=2,
        ),
        broker_config=BrokerConfig(command_retries=retries),
        bus=bus,
        rng=seed,
    )
    clock = SimClock()
    bus.attach_clock(clock, "zero")
    outcomes = []
    drivers = hierarchy.async_drivers(
        env, clock, default_period_s=30.0, on_complete=outcomes.append
    )
    for zone_id in sorted(drivers):
        drivers[zone_id].start(until=120.0)
    clock.run_until(120.0)
    digest = hashlib.sha256()
    for outcome in outcomes:
        # ``partial`` is left out: zero mode always reported False
        # until it came to mean "a planned cell went unrealised" on
        # both buses.
        _hash(digest, (
            outcome.zone_id, outcome.index, outcome.started_at,
            outcome.completed_at, outcome.stale,
        ))
        _hash(digest, outcome.result.field.grid)
        _hash(digest, outcome.result.nc_estimates)
    for zone_id in sorted(drivers):
        driver = drivers[zone_id]
        _hash(digest, (driver.rounds_completed, driver.rounds_failed))
    _hash_bus(digest, bus)
    return len(outcomes), digest.hexdigest()


class TestLockstepGolden:
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_rounds_match_committed_digest(self, case):
        digest = hashlib.sha256()
        LOCKSTEP_CASES[case](digest)
        assert digest.hexdigest() == LOCKSTEP_GOLDEN[case]


class TestAsyncZeroGolden:
    @pytest.mark.parametrize("shape", sorted(ASYNC_ZERO_GOLDEN))
    def test_zero_mode_drivers_match_committed_digest(self, shape):
        rounds, sha = _async_zero(*shape)
        assert rounds == 8
        assert sha == ASYNC_ZERO_GOLDEN[shape]
