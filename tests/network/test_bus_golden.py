"""The in-process message bus pinned by golden digests.

Each row runs one seeded scenario on the bus and hashes everything a
caller can observe of it:

- ``link`` and ``zero`` rows: a two-zone hierarchy driven by
  event-driven rounds over a lossy bus with 6-deep inboxes, with
  link-latency (deferred) or synchronous delivery.  Each outcome's
  field grid, ``x_hat``, plan locations and per-NanoCloud counters are
  hashed, then the bus's losses by reason, messages, bytes, kinds and
  latency sum, then every endpoint's backlog.  The rounds consume
  arrivals through handlers, so no inbox fills and these digests agree
  across drop policies: a round that starts queueing moves them.
- ``blast`` rows: 25 mixed-kind sends into a 3-deep sink through a
  lossy channel, the sink drained after every 6th; the bus's counters
  plus every message the sink drained or still holds, so a drop policy
  that evicts the wrong message moves the digest.
- the ``faults`` row: the deployment again, with a broker-to-nodes
  partition and an extra-delay window from a :class:`FaultInjector`.

One row per delivery mode, drop policy and seed.  The digests were
taken while the frozen pre-transport-split bus still shipped beside the
live one, and both produced every row; a change to loss draws, fault
verdicts, metering or inbox shedding moves them.  Float arrays
pass through libm/BLAS, so they pin this platform's numpy build, like
every golden vector.
"""

import hashlib

import numpy as np
import pytest

from repro.fields.generators import smooth_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.network.bus import DROP_POLICIES, MessageBus
from repro.network.faults import DegradationWindow, FaultInjector, Partition
from repro.network.links import WIFI
from repro.network.message import Message, MessageKind
from repro.sensors.base import Environment
from repro.sim.clock import SimClock

SEEDS = (0, 3, 4242)
BLAST_KINDS = (
    MessageKind.SENSE_REPORT,
    MessageKind.CONTEXT_SHARE,
    MessageKind.AGGREGATE,
    MessageKind.SENSE_COMMAND,
)

GOLDEN = {
    ('link', 'drop-newest', 0): "1871e029ab97b93bbbc3cb2c6cc853004af382091a4660b73da4b38298b8ff97",
    ('link', 'drop-newest', 3): "db89d6efd26a8737f231f8c6c610424e2194dbb0dd08475e95e481521112d35d",
    ('link', 'drop-newest', 4242): "cf15e5775af2b93ca16e85b7c1d08949f0280f725b3f74af30deb768914c58a1",
    ('link', 'drop-oldest', 0): "1871e029ab97b93bbbc3cb2c6cc853004af382091a4660b73da4b38298b8ff97",
    ('link', 'drop-oldest', 3): "db89d6efd26a8737f231f8c6c610424e2194dbb0dd08475e95e481521112d35d",
    ('link', 'drop-oldest', 4242): "cf15e5775af2b93ca16e85b7c1d08949f0280f725b3f74af30deb768914c58a1",
    ('link', 'priority', 0): "1871e029ab97b93bbbc3cb2c6cc853004af382091a4660b73da4b38298b8ff97",
    ('link', 'priority', 3): "db89d6efd26a8737f231f8c6c610424e2194dbb0dd08475e95e481521112d35d",
    ('link', 'priority', 4242): "cf15e5775af2b93ca16e85b7c1d08949f0280f725b3f74af30deb768914c58a1",
    ('zero', 'drop-newest', 0): "78edeb0b6a71a2152f487d76135d80ae3b147eb6fcd41a3fb8a7a70c6f12e971",
    ('zero', 'drop-newest', 3): "abcf0f49a4ace93b3f0de3c5d7001e44e4307035a81c47d91a27b22c5285a376",
    ('zero', 'drop-newest', 4242): "46abaf2d60d5171d72df69cd51b2d1bff98bcc23d4304b00bbb3795822fd7eb6",
    ('zero', 'drop-oldest', 0): "78edeb0b6a71a2152f487d76135d80ae3b147eb6fcd41a3fb8a7a70c6f12e971",
    ('zero', 'drop-oldest', 3): "abcf0f49a4ace93b3f0de3c5d7001e44e4307035a81c47d91a27b22c5285a376",
    ('zero', 'drop-oldest', 4242): "46abaf2d60d5171d72df69cd51b2d1bff98bcc23d4304b00bbb3795822fd7eb6",
    ('zero', 'priority', 0): "78edeb0b6a71a2152f487d76135d80ae3b147eb6fcd41a3fb8a7a70c6f12e971",
    ('zero', 'priority', 3): "abcf0f49a4ace93b3f0de3c5d7001e44e4307035a81c47d91a27b22c5285a376",
    ('zero', 'priority', 4242): "46abaf2d60d5171d72df69cd51b2d1bff98bcc23d4304b00bbb3795822fd7eb6",
    ('blast', 'drop-newest', 0): "44af6474af5930ddc4be13c1903b2c20755738e276093bf315b8acf166ee5307",
    ('blast', 'drop-newest', 3): "51c6fc49e3bdfe70ee8128c9d158ec6198414064844f68bf7779989a495a6364",
    ('blast', 'drop-newest', 4242): "beb23280c6dcce15e033591e457b037674e013f0ef4e7ccfedf0084e719aa702",
    ('blast', 'drop-oldest', 0): "8e3014ee00c1428307a840dbda1160dc6824d5a424b7c4cb48882fcd9037755e",
    ('blast', 'drop-oldest', 3): "6b98c47af7f02fd081a36dd629dcc882acda300bc610b5f5251bda05f53aed10",
    ('blast', 'drop-oldest', 4242): "b2e3abbe598894457983c52a12f9ed492ec88ae50482bdaf7eadfcd1155bd998",
    ('blast', 'priority', 0): "bc9491a369d197faae0c831f3c7edd6313302afd7d76cf275d12f1294280bcdb",
    ('blast', 'priority', 3): "1050cd9348552ded793936e3acec949f5b86a08427b041640363144796f7f9e6",
    ('blast', 'priority', 4242): "835d7e8fc53a24784041314c0a4689cdcdb246ac5ee846ed85bdacf3858e3a3a",
    ('faults', 'drop-newest', 5): "a754424ccc5a01085ac95986d503288daed38ef479efdab81d70f8722fef8ded",
}


def _deployment(seed, drop_policy, latency_mode="link", faults=False):
    """One seeded two-zone deployment; three event-driven rounds."""
    gen = np.random.default_rng(seed)
    truth = smooth_field(
        16, 8, cutoff=0.2, amplitude=4.0, offset=20.0,
        rng=gen.integers(2**31),
    )
    env = Environment(fields={"temperature": truth})
    injector = FaultInjector() if faults else None
    bus = MessageBus(
        loss_rate=0.05,
        seed=seed + 1,
        fault_injector=injector,
        inbox_capacity=6,
        drop_policy=drop_policy,
    )
    system = SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=2, zones_y=1, nodes_per_nanocloud=10
        ),
        broker_config=BrokerConfig(),
        transport=bus,
        rng=gen.integers(2**31),
    )
    if faults:
        nc = system.hierarchy.localclouds[0].nanoclouds[0]
        cut = sorted(nc.nodes)[:5]
        injector.add(Partition({nc.broker.broker_id}, cut, 25.0, 65.0))
        injector.add(DegradationWindow(55.0, 80.0, extra_latency_s=0.4))
    clock = SimClock()
    bus.attach_clock(clock, latency_mode)
    outcomes = []
    drivers = system.hierarchy.async_drivers(
        env, clock, default_period_s=30.0, on_complete=outcomes.append
    )
    for zone_id in sorted(drivers):
        drivers[zone_id].start(until=90.0)
    clock.run_until(100.0)
    return bus, outcomes


def _blast(seed, drop_policy):
    """Mixed-kind traffic into a 3-deep sink through a lossy channel;
    returns the bus and every message the sink saw, batch by batch."""
    bus = MessageBus(
        loss_rate=0.2, seed=seed, inbox_capacity=3, drop_policy=drop_policy
    )
    bus.register("src", WIFI)
    sink = bus.register("sink", WIFI)
    batches = []
    for i in range(25):
        bus.send(
            Message(
                kind=BLAST_KINDS[i % len(BLAST_KINDS)],
                source="src",
                destination="sink",
                payload={"i": i},
            ),
            strict=False,
        )
        if i % 6 == 5:
            batches.append(sink.drain())
    batches.append(list(sink.inbox))
    return bus, batches


def _feed(digest, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(value.dtype.str.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            digest.update(value.hex().encode())
        else:
            digest.update(repr(value).encode())
        digest.update(b";")


def _hash_outcomes(digest, outcomes) -> None:
    for out in outcomes:
        _feed(digest, out.zone_id, out.started_at, out.latency_s, out.partial)
        if out.result is None:
            _feed(digest, None)
            continue
        _feed(digest, out.result.field.grid)
        for est in out.result.nc_estimates:
            _feed(
                digest,
                est.reconstruction.x_hat,
                est.plan.locations,
                est.planned_m,
                est.reports_ok,
                est.reports_refused,
                est.commands_lost,
                est.reports_lost,
                est.retries_used,
            )


def _hash_bus(digest, bus) -> None:
    stats = bus.stats
    _feed(
        digest,
        sorted(stats.losses_by_reason.items()),
        stats.messages,
        stats.bytes,
        sorted(stats.by_kind.items()),
        stats.latency_sum_s,
    )
    for address in bus.addresses:
        _feed(digest, address, bus.endpoint(address).pending())


def _row_digest(row) -> str:
    kind, policy, seed = row
    digest = hashlib.sha256()
    if kind == "blast":
        bus, batches = _blast(seed, policy)
        for batch in batches:
            _feed(digest, [(m.kind.value, m.payload["i"]) for m in batch])
    else:
        bus, outcomes = _deployment(
            seed,
            policy,
            latency_mode="zero" if kind == "zero" else "link",
            faults=kind == "faults",
        )
        assert outcomes
        _hash_outcomes(digest, outcomes)
    _hash_bus(digest, bus)
    return digest.hexdigest()


ROWS = [
    (kind, policy, seed)
    for kind in ("link", "zero", "blast")
    for policy in DROP_POLICIES
    for seed in SEEDS
] + [("faults", "drop-newest", 5)]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: "-".join(map(str, row)))
def test_row_matches_golden(row):
    assert _row_digest(row) == GOLDEN[row]


def test_grid_exercises_loss_backpressure_and_faults():
    # The digests only pin what the rows actually reach: channel loss
    # in the rounds and the blast, shedding in the blast, and the
    # partition and the delay window in the faults row.
    bus, _ = _deployment(seed=3, drop_policy="drop-newest")
    assert bus.stats.losses_by_reason["iid-loss"] > 0
    blast, _ = _blast(seed=3, drop_policy="priority")
    assert blast.stats.losses_by_reason["iid-loss"] > 0
    assert blast.stats.losses_by_reason["backpressure"] > 0
    faulty, outcomes = _deployment(
        seed=5, drop_policy="drop-newest", faults=True
    )
    assert faulty.stats.losses_by_reason["partition"] > 0
    assert any(out.partial for out in outcomes)
    assert faulty.stats.latency_sum_s > 10 * bus.stats.latency_sum_s
