"""Tests for the NanoCloud broker's aggregation round."""

import dataclasses

import numpy as np
import pytest

from repro.core import metrics
from repro.fields.generators import smooth_field
from repro.fields.priors import build_zone_prior
from repro.fields.temporal import ar1_evolution, evolve_field
from repro.middleware.broker import Broker
from repro.middleware.config import (
    GLS_STD_FLOOR,
    BrokerConfig,
    CompressionPolicy,
)
from repro.middleware.node import MobileNode
from repro.middleware.privacy import PrivacyPolicy
from repro.network.bus import MessageBus
from repro.network.message import MessageKind
from repro.sensors.base import Environment, NodeState
from repro.sensors.physical import TemperatureSensor


W, H = 12, 8
N = W * H


@pytest.fixture
def truth():
    return smooth_field(W, H, cutoff=0.15, amplitude=4.0, offset=20.0, rng=0)


@pytest.fixture
def env(truth):
    return Environment(fields={"temperature": truth})


def _deploy(bus, broker, n_nodes=N, noise=False, seed=1):
    """Place one node on each of the first n_nodes cells."""
    rng = np.random.default_rng(seed)
    nodes = {}
    for cell in range(n_nodes):
        node_id = f"n{cell}"
        i, j = cell // H, cell % H
        spec = TemperatureSensor().spec
        if not noise:
            spec = type(spec)(
                name=spec.name, unit=spec.unit, noise_std=0.0,
                energy_per_sample_mj=spec.energy_per_sample_mj,
                max_rate_hz=spec.max_rate_hz,
            )
        node = MobileNode(
            node_id,
            sensors={"temperature": TemperatureSensor(spec=spec, rng=rng.integers(2**31))},
            state=NodeState(x=float(i), y=float(j)),
            rng=rng.integers(2**31),
        )
        nodes[node_id] = node
        bus.register(node_id)
        broker.join(node_id, cell)
    return nodes


class TestMembership:
    def test_join_and_coverage(self):
        broker = Broker("b", W, H)
        broker.join("n1", 5)
        broker.add_infrastructure(10, TemperatureSensor(rng=0))
        assert broker.coverage() == {5, 10}
        broker.leave("n1")
        assert broker.coverage() == {10}

    def test_join_out_of_range(self):
        broker = Broker("b", W, H)
        with pytest.raises(ValueError):
            broker.join("n1", N)

    def test_infrastructure_out_of_range(self):
        broker = Broker("b", W, H)
        with pytest.raises(ValueError):
            broker.add_infrastructure(-1, TemperatureSensor())


class TestRunRound:
    def test_reconstructs_smooth_field(self, env, truth):
        bus = MessageBus()
        broker = Broker(
            "b", W, H,
            config=BrokerConfig(solver="chs", seed=3, use_gls=False),
        )
        bus.register("b")
        nodes = _deploy(bus, broker)
        # Round 1 cold-starts with a crude sparsity estimate; the broker
        # then adapts K from the residual, so round 2 is the steady state.
        broker.run_round(bus, nodes, env, measurements=40)
        estimate = broker.run_round(bus, nodes, env, measurements=40)
        err = metrics.relative_error(
            truth.vector(), estimate.field.vector()
        )
        assert err < 0.05
        assert estimate.m <= 40
        assert estimate.reports_ok == estimate.m

    def test_policy_chooses_m(self, env):
        bus = MessageBus()
        broker = Broker(
            "b", W, H,
            config=BrokerConfig(
                policy=CompressionPolicy(mode="fixed-ratio", ratio=0.25),
                seed=4,
            ),
        )
        bus.register("b")
        nodes = _deploy(bus, broker)
        estimate = broker.run_round(bus, nodes, env)
        assert estimate.m == N // 4

    def test_traffic_metered(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=5))
        bus.register("b")
        nodes = _deploy(bus, broker)
        estimate = broker.run_round(bus, nodes, env, measurements=20)
        # One command + one report per measurement.
        assert bus.stats.by_kind["sense_command"] == 20
        assert bus.stats.by_kind["sense_report"] == 20

    def test_refusals_fall_back_to_infrastructure(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=6))
        bus.register("b")
        nodes = _deploy(bus, broker)
        # Every node refuses; infrastructure covers every cell.
        for node in nodes.values():
            node.policy = PrivacyPolicy(opted_out=True)
        for cell in range(N):
            broker.add_infrastructure(cell, TemperatureSensor(rng=cell))
        estimate = broker.run_round(bus, nodes, env, measurements=24)
        assert estimate.infra_reads == estimate.m
        assert estimate.reports_refused > 0
        assert broker.ledger.category_mj("sensing") > 0

    def test_all_refused_no_infra_raises(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=7))
        bus.register("b")
        nodes = _deploy(bus, broker)
        for node in nodes.values():
            node.policy = PrivacyPolicy(opted_out=True)
        with pytest.raises(RuntimeError, match="no measurements"):
            broker.run_round(bus, nodes, env, measurements=10)

    def test_no_coverage_raises(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H)
        bus.register("b")
        with pytest.raises(RuntimeError, match="coverage"):
            broker.run_round(bus, {}, env)

    def test_criticality_biases_selection(self, env):
        criticality = np.zeros(N)
        criticality[:10] = 100.0
        criticality[10:] = 0.01
        hits = np.zeros(N)
        for seed in range(15):
            bus = MessageBus()
            broker = Broker(
                "b", W, H,
                config=BrokerConfig(seed=seed),
                criticality=criticality,
            )
            bus.register("b")
            nodes = _deploy(bus, broker, seed=seed)
            estimate = broker.run_round(bus, nodes, env, measurements=8)
            hits[estimate.plan.locations] += 1
        assert hits[:10].sum() > hits[10:].sum()

    def test_sparsity_adapts_between_rounds(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=8))
        bus.register("b")
        nodes = _deploy(bus, broker)
        cold = broker._sparsity_estimate()
        broker.run_round(bus, nodes, env, measurements=40)
        assert broker.last_sparsity is not None
        assert broker._sparsity_estimate() == max(broker.last_sparsity, 1)
        assert broker._sparsity_estimate() != cold or broker.last_sparsity == cold

    def test_gls_used_with_heterogeneous_reports(self, truth):
        env = Environment(fields={"temperature": truth})
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=9, use_gls=True))
        bus.register("b")
        nodes = _deploy(bus, broker, noise=True)
        estimate = broker.run_round(bus, nodes, env, measurements=48)
        err = metrics.relative_error(truth.vector(), estimate.field.vector())
        assert err < 0.2


class TestPrior:
    def test_prior_basis_round(self, env, truth):
        trace = evolve_field(
            truth, ar1_evolution(rho=0.95, innovation_std=0.05),
            steps=15, rng=10,
        )
        prior = build_zone_prior(trace)
        bus = MessageBus()
        broker = Broker(
            "b", W, H,
            config=BrokerConfig(seed=11, use_prior_basis=True, use_gls=False),
        )
        bus.register("b")
        broker.set_prior(prior)
        nodes = _deploy(bus, broker)
        estimate = broker.run_round(bus, nodes, env, measurements=20)
        err = metrics.relative_error(truth.vector(), estimate.field.vector())
        assert err < 0.1
        assert estimate.sparsity_estimate == max(prior.typical_sparsity, 1)

    def test_prior_shape_checked(self):
        broker = Broker("b", W, H)
        small = smooth_field(4, 4, rng=0)
        trace = evolve_field(small, ar1_evolution(), steps=4, rng=1)
        with pytest.raises(ValueError):
            broker.set_prior(build_zone_prior(trace))


class TestContextInbox:
    def test_context_messages_consumed(self):
        bus = MessageBus()
        broker = Broker("b", W, H)
        bus.register("b")
        bus.register("n1")
        from repro.network.message import Message

        bus.send(
            Message(
                kind=MessageKind.CONTEXT_SHARE,
                source="n1",
                destination="b",
                payload={"kind": "activity", "value": "walking"},
                timestamp=1.0,
            )
        )
        processed = broker.process_inbox(bus, now=1.0)
        assert processed == 1
        rollup = broker.groups.aggregate("activity", now=1.0)
        assert rollup.consensus == "walking"

    def test_non_context_messages_left_in_inbox(self):
        bus = MessageBus()
        broker = Broker("b", W, H)
        bus.register("b")
        bus.register("n1")
        from repro.network.message import Message

        bus.send(Message(MessageKind.QUERY, "n1", "b"))
        broker.process_inbox(bus, now=0.0)
        assert bus.endpoint("b").pending() == 1


class TestDisseminate:
    def test_reaches_all_members(self):
        bus = MessageBus()
        broker = Broker("b", W, H)
        bus.register("b")
        for cell in range(5):
            node_id = f"n{cell}"
            bus.register(node_id)
            broker.join(node_id, cell)
        sent = broker.disseminate(bus, {"alert": "fire"}, 1, timestamp=0.0)
        assert sent == 5
        assert bus.endpoint("n3").pending() == 1


class TestCoverageGuard:
    def test_guard_reduces_largest_gap(self, env):
        from repro.fields.coverage import largest_gap_radius

        def worst_gap_over_rounds(max_gap, seed):
            bus = MessageBus()
            broker = Broker(
                "b", W, H,
                config=BrokerConfig(seed=seed, max_coverage_gap=max_gap),
            )
            bus.register("b")
            nodes = _deploy(bus, broker, seed=seed)
            gaps = []
            for r in range(10):
                estimate = broker.run_round(
                    bus, nodes, env, timestamp=float(r), measurements=8
                )
                gaps.append(
                    largest_gap_radius(
                        estimate.plan.locations, broker.n, broker.zone_height
                    )
                )
            return max(gaps)

        unguarded = max(worst_gap_over_rounds(None, s) for s in (3, 5, 7))
        guarded = max(worst_gap_over_rounds(3.0, s) for s in (3, 5, 7))
        assert guarded <= unguarded

    def test_invalid_gap_rejected(self):
        with pytest.raises(ValueError):
            BrokerConfig(max_coverage_gap=-1.0)


class TestOnlinePriorLearning:
    def test_learns_prior_from_own_rounds(self, env, truth):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=21))
        bus.register("b")
        nodes = _deploy(bus, broker, seed=21)
        for _ in range(10):
            broker.run_round(bus, nodes, env, measurements=48)
        prior = broker.learn_prior_from_history(min_rounds=8)
        assert broker.prior is prior
        assert prior.basis.shape == (N, N)
        # The static field's history is near-rank-1 around its mean, so
        # the learned typical sparsity is tiny.
        assert prior.typical_sparsity <= 6

    def test_prior_improves_scarce_rounds(self, env, truth):
        bus = MessageBus()
        broker = Broker(
            "b", W, H, config=BrokerConfig(seed=23, use_prior_basis=True),
        )
        bus.register("b")
        nodes = _deploy(bus, broker, seed=23)
        # Phase 1: generous rounds build history.
        for _ in range(10):
            broker.run_round(bus, nodes, env, measurements=48)
        before = broker.run_round(bus, nodes, env, measurements=8)
        err_before = metrics.relative_error(
            truth.vector(), before.field.vector()
        )
        broker.learn_prior_from_history()
        after = broker.run_round(bus, nodes, env, measurements=8)
        err_after = metrics.relative_error(
            truth.vector(), after.field.vector()
        )
        assert err_after <= err_before + 0.02

    def test_requires_enough_history(self):
        broker = Broker("b", W, H)
        with pytest.raises(RuntimeError, match="remembered"):
            broker.learn_prior_from_history()
        with pytest.raises(ValueError):
            broker.learn_prior_from_history(min_rounds=1)

    def test_history_bounded(self, env):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=25))
        broker.history_limit = 5
        bus.register("b")
        nodes = _deploy(bus, broker, seed=25)
        for _ in range(8):
            broker.run_round(bus, nodes, env, measurements=24)
        assert len(broker._history) == 5


class TestGlsStdFloor:
    """A claimed-zero-std row (infrastructure, or a liar) must not get
    unbounded GLS weight: every variance is floored at GLS_STD_FLOOR^2."""

    def _mixed_broker(self, seed=11):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=seed))
        bus.register("b")
        # Mobile nodes (noisy, std 0.3) on the first half of the grid...
        nodes = _deploy(bus, broker, n_nodes=N // 2, noise=True, seed=seed)
        # ... and noiseless infrastructure on the rest.
        spec = TemperatureSensor().spec
        zero = type(spec)(
            name=spec.name, unit=spec.unit, noise_std=0.0,
            energy_per_sample_mj=spec.energy_per_sample_mj,
            max_rate_hz=spec.max_rate_hz,
        )
        for cell in range(N // 2, N):
            broker.add_infrastructure(
                cell, TemperatureSensor(spec=zero, rng=cell)
            )
        return bus, broker, nodes

    def test_zero_std_rows_floored_not_dominant(self, env):
        bus, broker, nodes = self._mixed_broker()
        pending = broker.collect_round(bus, nodes, env, measurements=N)
        assert pending.covariance is not None
        variances = pending.covariance
        assert variances.shape == (pending.values.size,)
        floor = GLS_STD_FLOOR
        assert np.all(variances >= floor**2 - 1e-15)
        infra = [
            i for i, src in enumerate(pending.sources) if src == ()
        ]
        mobile = [
            i for i, src in enumerate(pending.sources) if src != ()
        ]
        assert infra and mobile  # both populations sampled
        # Infrastructure claims 0.0 -> lands exactly on the floor.
        assert np.allclose(variances[infra], floor**2)
        # The weight ratio between any two rows is bounded by the floor.
        assert variances.max() / variances.min() <= (0.3 / floor) ** 2 + 1e-9
        # The round still solves end to end with the mixed covariance.
        estimate = broker.finalize_round(
            pending, *broker.solve_round(pending)
        )
        assert np.isfinite(estimate.field.vector()).all()


class TestSharedBasisRegistry:
    def test_same_shaped_brokers_share_one_basis_object(self):
        first = Broker("a", W, H)._basis()
        assert Broker("b", W, H)._basis() is first
        assert Broker("c", H, W)._basis() is not first


class TestFrozenRound:
    """The solve phase is a function of a frozen round.

    What RPR003/RPR011 used to lint for — a write to broker state or to
    the pending record somewhere under ``solve_round`` — is checked
    here as behaviour: the record refuses assignment, and solving it
    twice gives the same bits and moves nothing on the broker.
    """

    @staticmethod
    def _pending(env, truth, **config):
        bus = MessageBus()
        broker = Broker("b", W, H, config=BrokerConfig(seed=11, **config))
        bus.register("b")
        if config.get("use_prior_basis"):
            trace = evolve_field(
                truth, ar1_evolution(rho=0.95, innovation_std=0.05),
                steps=15, rng=10,
            )
            broker.set_prior(build_zone_prior(trace))
        nodes = _deploy(bus, broker, noise=True)
        pending = broker.collect_round(bus, nodes, env, measurements=48)
        # Three gross outliers, so the robust modes have rows to judge.
        corrupted = pending.values.copy()
        corrupted[:3] += 40.0
        return broker, dataclasses.replace(pending, values=corrupted)

    def test_pending_round_rejects_assignment(self, env, truth):
        _, pending = self._pending(env, truth, robust_mode="trim")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pending.robust = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            pending.values = pending.values * 0.0

    @pytest.mark.parametrize(
        "config",
        [
            {"robust_mode": "none"},
            {"robust_mode": "trim"},
            {"robust_mode": "huber"},
            {"robust_mode": "trim", "use_prior_basis": True},
        ],
        ids=["none", "trim", "huber", "trim-prior"],
    )
    def test_solving_twice_is_identical_and_moves_nothing(
        self, env, truth, config
    ):
        broker, pending = self._pending(env, truth, **config)
        inputs = (
            pending.values.copy(),
            pending.locations.copy(),
            pending.covariance.copy(),
        )
        before = (
            broker.last_sparsity,
            broker._rounds_run,
            len(broker._history),
            broker.trust.snapshot(),
        )
        first, first_x, first_robust = broker.solve_round(pending)
        again, again_x, again_robust = broker.solve_round(pending)
        assert np.array_equal(first_x, again_x)
        assert np.array_equal(first.coefficients, again.coefficients)
        if config["robust_mode"] == "none":
            assert first_robust is None and again_robust is None
        else:
            assert np.array_equal(first_robust.kept, again_robust.kept)
            assert first_robust.row_rejected()[:3].all()
        assert before == (
            broker.last_sparsity,
            broker._rounds_run,
            len(broker._history),
            broker.trust.snapshot(),
        )
        for array, copy in zip(
            (pending.values, pending.locations, pending.covariance), inputs
        ):
            assert np.array_equal(array, copy)
