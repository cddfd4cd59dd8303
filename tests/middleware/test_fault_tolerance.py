"""Failure-injection tests: message loss, bursts, partitions, churn and
broker failover.

Mobile crowdsensing lives on lossy radios with churning participants;
the broker must degrade gracefully — fewer collected measurements, not
crashes or corrupt fields — and the NanoCloud must survive losing its
own coordinator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.fields.generators import smooth_field
from repro.middleware.broker import ZoneEstimate
from repro.middleware.config import BrokerConfig
from repro.middleware.nanocloud import NanoCloud
from repro.network.bus import MessageBus
from repro.network.faults import (
    CrashSchedule,
    FaultInjector,
    GilbertElliottLoss,
    Partition,
)
from repro.network.message import Message, MessageKind
from repro.sensors.base import Environment
from repro.sensors.faults import (
    Adversarial,
    SensorFaultInjector,
    afflict_fraction,
)
from repro.sensors.physical import TemperatureSensor


@pytest.fixture
def env():
    return Environment(
        fields={
            "temperature": smooth_field(
                12, 8, cutoff=0.15, amplitude=4.0, offset=20.0, rng=0
            )
        }
    )


class TestLossyBus:
    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            MessageBus(loss_rate=1.0)
        with pytest.raises(ValueError):
            MessageBus(loss_rate=-0.1)

    def test_losses_are_counted_and_sender_still_pays(self):
        bus = MessageBus(loss_rate=0.5, seed=1)
        bus.register("a")
        bus.register("b")
        for _ in range(200):
            bus.send(
                Message(
                    kind=MessageKind.SENSE_REPORT,
                    source="a",
                    destination="b",
                )
            )
        assert 50 < bus.messages_lost < 150
        delivered = bus.endpoint("b").pending()
        assert delivered == 200 - bus.messages_lost
        # Sender metered every attempt; receiver only deliveries.
        assert bus.endpoint("a").stats.messages == 200
        assert bus.endpoint("b").stats.messages == delivered
        assert bus.endpoint("b").stats.receive_energy_mj < (
            bus.endpoint("a").stats.transmit_energy_mj
        )

    def test_losses_reproducible_by_seed(self):
        def run(seed):
            bus = MessageBus(loss_rate=0.3, seed=seed)
            bus.register("a")
            bus.register("b")
            for _ in range(50):
                bus.send(
                    Message(
                        kind=MessageKind.QUERY, source="a", destination="b"
                    )
                )
            return bus.messages_lost

        assert run(7) == run(7)


class TestBrokerUnderLoss:
    def _nanocloud(self, loss_rate, env, seed=3):
        bus = MessageBus(loss_rate=loss_rate, seed=seed)
        return NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=seed), heterogeneous=False, rng=seed,
        )

    def test_round_survives_heavy_loss(self, env):
        nc = self._nanocloud(0.4, env)
        estimate = nc.run_round(env, measurements=48)
        # Some commands/reports vanished, so fewer than 48 collected —
        # but the round completes and the field is sane.
        assert estimate.m < 48
        assert estimate.m > 5
        truth = env.fields["temperature"]
        err = metrics.relative_error(truth.vector(), estimate.field.vector())
        assert err < 0.5

    def test_loss_costs_accuracy_not_correctness(self, env):
        truth = env.fields["temperature"]

        def error_at(loss):
            nc = self._nanocloud(loss, env, seed=5)
            nc.run_round(env, measurements=48)
            estimate = nc.run_round(env, timestamp=1.0, measurements=48)
            return metrics.relative_error(
                truth.vector(), estimate.field.vector()
            ), estimate.m

        clean_err, clean_m = error_at(0.0)
        lossy_err, lossy_m = error_at(0.5)
        assert lossy_m < clean_m
        assert np.isfinite(lossy_err)

    def test_total_loss_raises_cleanly(self, env):
        nc = self._nanocloud(0.0, env, seed=7)
        # Make every command vanish from now on.
        nc.bus.loss_rate = 0.99999
        with pytest.raises(RuntimeError, match="no measurements"):
            nc.run_round(env, measurements=24)


class TestNodeChurn:
    def test_departed_nodes_are_skipped(self, env):
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=9), heterogeneous=False, rng=9,
        )
        # Half the fleet walks away: gone from the node table but the
        # broker's membership list is stale (it hasn't noticed yet).
        departed = list(nc.nodes)[::2]
        for node_id in departed:
            del nc.nodes[node_id]
        estimate = nc.broker.run_round(bus, nc.nodes, env, measurements=48)
        assert estimate.m <= 48
        truth = env.fields["temperature"]
        err = metrics.relative_error(truth.vector(), estimate.field.vector())
        assert np.isfinite(err)

    def test_leave_then_round(self, env):
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=11), heterogeneous=False, rng=11,
        )
        for node_id in list(nc.nodes)[:48]:
            nc.broker.leave(node_id)
            del nc.nodes[node_id]
            bus.unregister(node_id)
        estimate = nc.broker.run_round(bus, nc.nodes, env, measurements=40)
        assert estimate.m <= 40
        assert estimate.reports_ok > 0

    def test_unregistered_member_is_a_lost_command_not_a_crash(self, env):
        # The stale-membership worst case: nodes still in the broker's
        # table and the node dict, but gone from the bus.  The round
        # must count lost commands and continue, not raise KeyError.
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=13), heterogeneous=False, rng=13,
        )
        for node_id in list(nc.nodes)[::2]:
            bus.unregister(node_id)  # radio off; broker not yet aware
        estimate = nc.broker.run_round(bus, nc.nodes, env, measurements=48)
        assert estimate.commands_lost > 0
        assert estimate.degraded
        assert bus.losses_by_reason["unreachable"] > 0
        assert np.isfinite(
            metrics.relative_error(
                env.fields["temperature"].vector(), estimate.field.vector()
            )
        )


class TestRetriesAndTopUp:
    def _nanocloud(self, env, *, loss=0.3, seed=3, **config_kwargs):
        bus = MessageBus(loss_rate=loss, seed=seed)
        return NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=seed, **config_kwargs),
            heterogeneous=False, rng=seed,
        )

    def test_retries_recover_effective_m(self, env):
        plain = self._nanocloud(env).run_round(env, measurements=48)
        retried = self._nanocloud(
            env, command_retries=3
        ).run_round(env, measurements=48)
        assert retried.effective_m > plain.effective_m
        assert retried.retries_used > 0
        assert retried.delivery_ratio > plain.delivery_ratio

    def test_retries_have_an_energy_price(self, env):
        plain_nc = self._nanocloud(env)
        plain_nc.run_round(env, measurements=48)
        retry_nc = self._nanocloud(env, command_retries=3)
        retry_nc.run_round(env, measurements=48)
        # Same channel, same plan seed: persistence costs extra radio.
        assert (
            retry_nc.bus.stats.total_energy_mj
            > plain_nc.bus.stats.total_energy_mj
        )

    def test_retry_accounting_against_a_total_partition(self, env):
        # Every command leg is cut: each planned cell burns the full
        # retry budget and every attempt is counted as a lost command.
        nc = self._nanocloud(env, loss=0.0, command_retries=2)
        broker_id = nc.broker.broker_id
        nc.bus.fault_injector = FaultInjector(
            Partition({broker_id}, set(nc.nodes))
        )
        nc.broker.add_infrastructure(0, TemperatureSensor(rng=1))
        estimate = nc.run_round(env, measurements=12)
        # 12 cells x (1 try + 2 retries), all lost; one infra rescue.
        assert estimate.commands_lost == 36
        assert estimate.retries_used == 24
        assert estimate.reports_lost == 0
        assert estimate.infra_reads >= 1
        assert estimate.degraded
        assert estimate.delivery_ratio < 1.0

    @pytest.mark.parametrize("measurements, topup", [(1024, False), (600, True)])
    def test_partition_of_a_large_plan_does_not_recurse(
        self, measurements, topup
    ):
        # On the zero-latency bus every exchange completes inside send:
        # a dark crowd must be walked cell by cell, not by recursion.
        env = Environment(
            fields={"temperature": smooth_field(32, 32, offset=20.0, rng=0)}
        )
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc", bus, 32, 32, n_nodes=1024, rng=2,
            config=BrokerConfig(
                seed=2, command_retries=1, topup_resampling=topup
            ),
        )
        bus.fault_injector = FaultInjector(
            Partition({nc.broker.broker_id}, set(nc.nodes))
        )
        nc.broker.add_infrastructure(0, TemperatureSensor(rng=1))
        estimate = nc.run_round(env, measurements=measurements)
        # Every phone was commanded twice (with top-up, the spare
        # cells' phones too); only the fixed sensor answered.
        assert estimate.commands_lost == 2 * 1024
        assert estimate.infra_reads == 1

    def test_backoff_advances_simulated_time(self, env):
        # The retried commands must carry increasing timestamps — the
        # backoff exists in simulated time, not wall clock.
        nc = self._nanocloud(env, loss=0.0, command_retries=3,
                             retry_backoff_s=1.0)
        seen: list[float] = []
        original_send = nc.bus.send

        def spy_send(message, **kwargs):
            if message.kind is MessageKind.SENSE_COMMAND:
                seen.append(message.timestamp)
                return False  # swallow every command: force all retries
            return original_send(message, **kwargs)

        nc.bus.send = spy_send
        # One planned cell, one phone on it: every attempt is swallowed,
        # so the round collects nothing.
        with pytest.raises(RuntimeError, match="collected no measurements"):
            nc.run_round(env, timestamp=100.0, measurements=1)
        # 1 try + 3 retries with capped exponential backoff 1, 2, 4.
        assert seen == [100.0, 101.0, 103.0, 107.0]

    def test_topup_restores_planned_m(self, env):
        plain = self._nanocloud(env, loss=0.35, seed=5).run_round(
            env, measurements=40
        )
        topped = self._nanocloud(
            env, loss=0.35, seed=5, command_retries=2, topup_resampling=True
        ).run_round(env, measurements=40)
        assert plain.effective_m < 40
        assert topped.effective_m > plain.effective_m
        assert topped.effective_m >= 36  # near-planned despite the losses

    def test_clean_channel_keeps_seed_behaviour(self, env):
        # With no loss the resilience knobs must not change a round.
        plain = self._nanocloud(env, loss=0.0, seed=7).run_round(
            env, measurements=48
        )
        hardened = self._nanocloud(
            env, loss=0.0, seed=7, command_retries=3, topup_resampling=True
        ).run_round(env, measurements=48)
        assert plain.effective_m == hardened.effective_m == 48
        assert hardened.retries_used == 0
        assert not hardened.degraded
        assert hardened.delivery_ratio == 1.0
        np.testing.assert_allclose(
            plain.field.vector(), hardened.field.vector()
        )


class TestBurstyLoss:
    def test_bursty_channel_degrades_round(self, env):
        injector = FaultInjector(
            GilbertElliottLoss(
                p_enter_bad=0.1, p_exit_bad=0.2, loss_good=0.0,
                loss_bad=0.9, seed=3,
            )
        )
        bus = MessageBus(fault_injector=injector)
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=3), heterogeneous=False, rng=3,
        )
        estimate = nc.run_round(env, measurements=48)
        assert estimate.effective_m < 48
        assert estimate.degraded
        assert bus.losses_by_reason["bursty-loss"] > 0

    def test_retries_and_topup_recover_from_bursts(self, env):
        def run(hardened):
            injector = FaultInjector(
                GilbertElliottLoss(
                    p_enter_bad=0.1, p_exit_bad=0.2, loss_good=0.0,
                    loss_bad=0.9, seed=3,
                )
            )
            bus = MessageBus(fault_injector=injector)
            config = BrokerConfig(
                seed=3,
                command_retries=3 if hardened else 0,
                topup_resampling=hardened,
            )
            nc = NanoCloud.build(
                "nc", bus, 12, 8, n_nodes=96,
                config=config, heterogeneous=False, rng=3,
            )
            return nc.run_round(env, measurements=48)

        plain = run(False)
        hardened = run(True)
        assert hardened.effective_m > plain.effective_m
        assert hardened.effective_m >= 44


class TestPartitionedZone:
    def test_partitioned_members_are_lost_not_fatal(self, env):
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=17), heterogeneous=False, rng=17,
        )
        cut_nodes = set(list(nc.nodes)[:48])
        bus.fault_injector = FaultInjector(
            Partition({nc.broker.broker_id}, cut_nodes)
        )
        estimate = nc.run_round(env, measurements=48)
        assert estimate.commands_lost > 0
        assert estimate.effective_m < 48
        assert estimate.degraded
        assert bus.losses_by_reason["partition"] > 0

    def test_round_heals_when_partition_ends(self, env):
        bus = MessageBus()
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=17), heterogeneous=False, rng=17,
        )
        cut_nodes = set(list(nc.nodes)[:48])
        bus.fault_injector = FaultInjector(
            Partition({nc.broker.broker_id}, cut_nodes, start=0.0, end=5.0)
        )
        during = nc.run_round(env, timestamp=1.0, measurements=48)
        after = nc.run_round(env, timestamp=10.0, measurements=48)
        assert during.degraded
        assert not after.degraded
        assert after.effective_m == 48


class TestBrokerFailover:
    def _crashed_cloud(self, env, *, loss=0.0, seed=19):
        crash = CrashSchedule().crash("nc/broker", at=5.0)
        bus = MessageBus(
            loss_rate=loss, seed=seed, fault_injector=FaultInjector(crash)
        )
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=seed), heterogeneous=False, rng=seed,
        )
        return nc

    def test_heartbeat_promotes_healthiest_member(self, env):
        nc = self._crashed_cloud(env)
        assert nc.heartbeat(0.0)  # broker alive before the crash
        levels = {
            node_id: node.ledger.battery.level
            for node_id, node in nc.nodes.items()
        }
        best = min(levels, key=lambda nid: (-levels[nid], nid))
        assert not nc.heartbeat(10.0)  # dead: failover happened
        assert nc.broker.broker_id == best
        assert best not in nc.nodes  # promoted out of the sensing fleet
        # Membership carried over, minus the promoted phone itself.
        assert nc.broker.members
        assert best not in nc.broker.members

    def test_rounds_continue_across_broker_crash(self, env):
        nc = self._crashed_cloud(env, loss=0.1)
        truth = env.fields["temperature"]
        before = nc.run_round(env, timestamp=0.0, measurements=48)
        after = nc.run_round(env, timestamp=10.0, measurements=48)
        later = nc.run_round(env, timestamp=20.0, measurements=48)
        for estimate in (before, after, later):
            assert isinstance(estimate, ZoneEstimate)
            err = metrics.relative_error(
                truth.vector(), estimate.field.vector()
            )
            assert err < 0.5
        # Degradation telemetry is populated on the lossy rounds.
        assert after.planned_m == 48
        assert 0.0 < after.delivery_ratio <= 1.0
        assert nc.broker.broker_id != "nc/broker"

    def test_failover_carries_prior_and_adaptation(self, env):
        nc = self._crashed_cloud(env)
        for t in range(3):
            nc.run_round(env, timestamp=float(t) / 10.0, measurements=48)
        old = nc.broker
        learned_sparsity = old.last_sparsity
        history_len = len(old._history)
        nc.promote_broker(10.0)
        assert nc.broker.last_sparsity == learned_sparsity
        assert len(nc.broker._history) == history_len
        assert nc.broker.infrastructure == old.infrastructure

    def test_no_live_member_to_promote_raises(self, env):
        crash = CrashSchedule().crash("nc/broker", at=0.0)
        bus = MessageBus(fault_injector=FaultInjector(crash))
        nc = NanoCloud.build(
            "nc", bus, 4, 4, n_nodes=4,
            config=BrokerConfig(seed=23), heterogeneous=False, rng=23,
        )
        for node_id in nc.nodes:
            crash.crash(node_id, at=0.0)
        with pytest.raises(RuntimeError, match="no live member"):
            nc.promote_broker(1.0)


class TestNeverRaisesProperty:
    @given(
        loss=st.floats(min_value=0.0, max_value=0.995),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_never_raises_with_infrastructure_fallback(
        self, loss, seed
    ):
        # For ANY loss rate < 1, a broker that owns at least one
        # infrastructure sensor must complete its round: in the worst
        # case the whole crowd goes dark and the fixed sensors carry it.
        env = Environment(
            fields={
                "temperature": smooth_field(
                    6, 4, cutoff=0.3, amplitude=3.0, offset=20.0, rng=0
                )
            }
        )
        bus = MessageBus(loss_rate=loss, seed=seed)
        nc = NanoCloud.build(
            "nc", bus, 6, 4, n_nodes=12,
            config=BrokerConfig(seed=seed), heterogeneous=False, rng=seed,
        )
        for cell in (0, 10, 23):
            nc.broker.add_infrastructure(
                cell, TemperatureSensor(rng=cell + 1)
            )
        estimate = nc.run_round(env, measurements=8)
        assert isinstance(estimate, ZoneEstimate)
        assert estimate.effective_m >= 1
        assert np.all(np.isfinite(estimate.field.vector()))
        assert 0.0 <= estimate.delivery_ratio <= 1.0


class TestCombinedLossAndSensorFaults:
    """Transport faults and data faults at once: the telemetry must keep
    the two failure planes distinguishable on one estimate."""

    def _byzantine_lossy_nc(self, *, loss=0.2, seed=7, fraction=0.1):
        bus = MessageBus(loss_rate=loss, seed=seed)
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(
                seed=seed, robust_mode="trim", command_retries=1
            ),
            heterogeneous=False, rng=seed,
        )
        injector = SensorFaultInjector()
        bad = afflict_fraction(
            injector,
            nc.nodes.keys(),
            fraction,
            lambda nid: Adversarial(offset=10.0, claimed_std=0.01),
            seed=seed,
        )
        for node in nc.nodes.values():
            node.fault_injector = injector
        return nc, bad

    def test_effective_m_reflects_both_failure_planes(self, env):
        nc, bad = self._byzantine_lossy_nc()
        estimate = nc.run_round(env, measurements=48)
        # Transport plane: the lossy channel ate commands or reports.
        assert estimate.commands_lost + estimate.reports_lost > 0
        assert estimate.delivery_ratio < 1.0
        # Data plane: adversarial rows got through the channel and were
        # rejected by the robust solve instead.
        assert estimate.rejected_reports > 0
        assert estimate.effective_m == (
            estimate.m - estimate.rejected_reports
        )
        assert estimate.effective_m < 48
        assert estimate.degraded
        assert np.isfinite(
            metrics.relative_error(
                env.fields["temperature"].vector(), estimate.field.vector()
            )
        )

    def test_robust_solve_survives_losses_without_faulty_rows(self, env):
        # Loss alone must not trip the data-fault telemetry.
        bus = MessageBus(loss_rate=0.2, seed=9)
        nc = NanoCloud.build(
            "nc", bus, 12, 8, n_nodes=96,
            config=BrokerConfig(seed=9, robust_mode="trim"),
            heterogeneous=False, rng=9,
        )
        estimate = nc.run_round(env, measurements=48)
        assert estimate.commands_lost + estimate.reports_lost > 0
        assert estimate.rejected_reports == 0
        assert estimate.quarantined_nodes == ()
