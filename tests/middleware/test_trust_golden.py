"""Trust ledger outcomes pinned bit for bit on both tiers.

Two seeded runs whose every trust-dependent output is hashed:

1. City: a :class:`repro.sim.mega.MegaSimulation` with 12 stuck sensors
   among 200 nodes over 6 rounds — every :class:`MegaRoundRecord` field
   plus the population's ``trust`` and ``quarantined`` bytes after each
   round.
2. Broker: a ``robust_mode="trim"`` NanoCloud whose Byzantine nodes stop
   lying mid-run, with a rehab probe every round, so nodes are
   quarantined, probed and released — each round's trust snapshot,
   quarantine roster, rejected count, realised plan and field.

The digests were taken before the two tiers shared one ledger; any
change to the EWMA, the floor, the quarantine guards, the release
hysteresis, the probe order or the id tie-breaks moves them.
"""

import dataclasses
import hashlib

import numpy as np

from repro.fields.generators import smooth_field
from repro.middleware.config import BrokerConfig
from repro.middleware.nanocloud import NanoCloud
from repro.network.bus import MessageBus
from repro.sensors.base import Environment
from repro.sensors.faults import Adversarial, SensorFaultInjector, StuckAt
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import PopulationConfig

CITY_GOLDEN = {
    "quarantined": 12,
    "sha256": "9e44e3809a5e721e32c640c0e7aa5f102c880c24600de14483331eea0f8c51cd",
}
BROKER_GOLDEN = {
    "released": 7,
    "sha256": "3fa2219d85bf9e15734f947306816ff2cb3ad191083f620f334e486b6a1a1915",
}


def _city_digest() -> tuple[int, str]:
    injector = SensorFaultInjector()
    for index in range(12):
        injector.attach(f"meganode-{index}", StuckAt(1e6))
    sim = MegaSimulation(
        MegaConfig(
            population=PopulationConfig(
                n_nodes=200,
                width=16,
                height=16,
                zones_x=2,
                zones_y=2,
                mobility="gauss_markov",
                seed=13,
            ),
            reports_per_zone=200,
            sparsity=8,
        ),
        sensor_fault_injector=injector,
    )
    digest = hashlib.sha256()
    for _ in range(6):
        record = sim.run_round()
        for item in dataclasses.astuple(record):
            text = item.hex() if isinstance(item, float) else repr(item)
            digest.update(f"{text};".encode())
        digest.update(sim.population.trust.tobytes())
        digest.update(sim.population.quarantined.tobytes())
    return record.quarantined_nodes, digest.hexdigest()


def _broker_digest() -> tuple[int, str]:
    width = height = 8
    n = width * height
    env = Environment(
        fields={
            "temperature": smooth_field(
                width, height, cutoff=0.15, amplitude=3.0, offset=20.0, rng=0
            )
        }
    )
    nc = NanoCloud.build(
        "nc", MessageBus(), width, height, n_nodes=n,
        config=BrokerConfig(
            seed=3, robust_mode="trim", rehab_interval=1, rehab_probes=2
        ),
        heterogeneous=False, rng=5,
    )
    injector = SensorFaultInjector()
    ids = sorted(nc.nodes)
    for node_id in ids[3:12:3]:
        injector.attach(node_id, StuckAt(60.0, end=6.0))
    for node_id in ids[20:40:6]:
        injector.attach(
            node_id, Adversarial(offset=9.0, claimed_std=0.01, end=6.0)
        )
    for node in nc.nodes.values():
        node.fault_injector = injector
    digest = hashlib.sha256()
    released = set()
    previous: set[str] = set()
    for round_index in range(18):
        estimate = nc.run_round(
            env, timestamp=float(round_index), measurements=3 * n // 4
        )
        for node_id, trust in sorted(estimate.trust.items()):
            digest.update(f"{node_id}={trust.hex()};".encode())
        digest.update(repr(estimate.quarantined_nodes).encode())
        digest.update(str(estimate.rejected_reports).encode())
        digest.update(
            np.asarray(estimate.plan.locations, dtype=np.int64).tobytes()
        )
        digest.update(estimate.field.vector().tobytes())
        current = set(estimate.quarantined_nodes)
        released |= previous - current
        previous = current
    return len(released), digest.hexdigest()


class TestTrustGolden:
    def test_city_stuck_sensors_match_committed_digest(self):
        quarantined, sha = _city_digest()
        assert {"quarantined": quarantined, "sha256": sha} == CITY_GOLDEN

    def test_broker_quarantine_probe_release_match_committed_digest(self):
        released, sha = _broker_digest()
        assert {"released": released, "sha256": sha} == BROKER_GOLDEN
