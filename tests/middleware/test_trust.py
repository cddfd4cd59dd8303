"""Trust ledger, quarantine, and Byzantine-tolerant broker rounds."""

import numpy as np
import pytest

from repro.middleware.broker import Broker
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.node import MobileNode
from repro.middleware.trust import NodeTrust, TrustManager
from repro.network.bus import MessageBus
from repro.sensors.base import Environment, NodeState
from repro.sensors.faults import Adversarial, SensorFaultInjector, StuckAt
from repro.sensors.physical import TemperatureSensor
from repro.fields.generators import smooth_field


class TestTrustManager:
    def test_unknown_node_has_full_trust(self):
        trust = TrustManager()
        assert trust.trust_of("nobody") == 1.0
        assert not trust.is_quarantined("nobody")

    def test_ewma_math(self):
        trust = TrustManager(alpha=0.3)
        assert trust.observe("n1", rejected=True) == pytest.approx(0.7)
        assert trust.observe("n1", rejected=True) == pytest.approx(0.49)
        assert trust.observe("n1", rejected=False) == pytest.approx(
            0.7 * 0.49 + 0.3
        )
        record = trust.get("n1")
        assert record.rejected == 2
        assert record.accepted == 1
        assert record.observations == 3

    def test_trust_never_below_floor(self):
        trust = TrustManager(alpha=1.0, floor=0.05)
        for _ in range(10):
            trust.observe("n1", rejected=True)
        assert trust.trust_of("n1") == 0.05

    def test_row_trust_is_least_contributor(self):
        trust = TrustManager(alpha=0.5)
        trust.observe("bad", rejected=True)
        assert trust.row_trust(()) == 1.0  # infrastructure row
        assert trust.row_trust(("good",)) == 1.0
        assert trust.row_trust(("good", "bad")) == 0.5

    def test_quarantine_needs_repeat_offense(self):
        trust = TrustManager(alpha=1.0, min_rejections=2)
        trust.observe("n1", rejected=True)  # trust at floor already
        newly, released = trust.update_quarantine(1)
        assert newly == [] and released == []
        trust.observe("n1", rejected=True)
        newly, _ = trust.update_quarantine(2)
        assert newly == ["n1"]
        assert trust.is_quarantined("n1")
        assert trust.get("n1").quarantined_at_round == 2

    def test_release_hysteresis(self):
        trust = TrustManager(
            alpha=0.5, quarantine_below=0.4, release_at=0.8, min_rejections=1
        )
        trust.observe("n1", rejected=True)
        trust.observe("n1", rejected=True)  # 0.25 < 0.4
        trust.update_quarantine(1)
        assert trust.is_quarantined("n1")
        trust.observe("n1", rejected=False)  # 0.625: above quarantine,
        _, released = trust.update_quarantine(2)  # below release
        assert released == []
        trust.observe("n1", rejected=False)  # 0.8125 >= 0.8
        _, released = trust.update_quarantine(3)
        assert released == ["n1"]
        assert not trust.is_quarantined("n1")
        assert trust.get("n1").quarantined_at_round is None

    def test_quarantine_cap_keeps_worst_offenders(self):
        trust = TrustManager(
            alpha=1.0, min_rejections=1, max_quarantine_fraction=0.25
        )
        for node, rejections in (("a", 3), ("b", 2), ("c", 1)):
            for _ in range(rejections):
                trust.observe(node, rejected=True)
        # Population 8 -> cap 2; all three are at the floor so the
        # sorted (trust, id) order decides: a and b enter first.
        newly, _ = trust.update_quarantine(1, member_count=8)
        assert newly == ["a", "b"]
        assert trust.quarantined == {"a", "b"}

    def test_probe_candidates_longest_quarantined_first(self):
        trust = TrustManager(alpha=1.0, min_rejections=1)
        for node, round_index in (("late", 5), ("early", 1)):
            trust.observe(node, rejected=True)
            trust.observe(node, rejected=True)
            record = trust.get(node)
            record.quarantined = True
            record.quarantined_at_round = round_index
        assert trust.probe_candidates(1) == ["early"]
        assert trust.get("early").probes == 1
        assert trust.get("late").probes == 0
        assert trust.probe_candidates(0) == []

    def test_snapshot_and_forget(self):
        trust = TrustManager(alpha=0.5)
        trust.observe("b", rejected=True)
        trust.observe("a", rejected=False)
        assert list(trust.snapshot()) == ["a", "b"]
        assert trust.snapshot()["b"] == pytest.approx(0.5)
        trust.forget("b")
        assert "b" not in trust.snapshot()
        assert trust.trust_of("b") == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"quarantine_below": 0.7, "release_at": 0.6},
            {"min_rejections": 0},
            {"max_quarantine_fraction": 0.0},
            {"floor": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrustManager(**kwargs)

    def test_nodetrust_defaults(self):
        record = NodeTrust()
        assert record.trust == 1.0
        assert record.observations == 0
        assert not record.quarantined


# -- broker integration ----------------------------------------------------

W, H = 8, 4
N = W * H


@pytest.fixture
def env():
    return Environment(
        fields={
            "temperature": smooth_field(
                W, H, cutoff=0.15, amplitude=3.0, offset=20.0, rng=0
            )
        }
    )


def _setup(injector=None, **cfg_kwargs):
    """Fully-covered zone with a dense plan: every cell every round, so
    faulty nodes are observed each round and runs replay exactly."""
    cfg_kwargs.setdefault("solver", "chs")
    cfg_kwargs.setdefault("seed", 3)
    cfg_kwargs.setdefault("policy", CompressionPolicy(mode="dense"))
    bus = MessageBus()
    broker = Broker("b", W, H, config=BrokerConfig(**cfg_kwargs))
    bus.register("b")
    rng = np.random.default_rng(42)
    nodes = {}
    for cell in range(N):
        node_id = f"n{cell:02d}"
        i, j = cell // H, cell % H
        node = MobileNode(
            node_id,
            sensors={
                "temperature": TemperatureSensor(rng=int(rng.integers(2**31)))
            },
            state=NodeState(x=float(i), y=float(j)),
            rng=int(rng.integers(2**31)),
        )
        node.fault_injector = injector
        nodes[node_id] = node
        bus.register(node_id)
        broker.join(node_id, cell)
    return bus, broker, nodes


def _adversarial_injector(bad_ids, offset=9.0):
    injector = SensorFaultInjector()
    for node_id in bad_ids:
        injector.attach(node_id, Adversarial(offset=offset, claimed_std=0.01))
    return injector


BAD = ("n05", "n13", "n27")


class TestBrokerRobustRounds:
    def test_trim_matches_naive_exactly_without_faults(self, env):
        bus_a, naive, nodes_a = _setup(robust_mode="none")
        bus_b, trim, nodes_b = _setup(robust_mode="trim")
        for _ in range(3):
            est_naive = naive.run_round(bus_a, nodes_a, env)
            est_trim = trim.run_round(bus_b, nodes_b, env)
            assert np.array_equal(
                est_naive.field.grid, est_trim.field.grid
            )
            assert est_trim.rejected_reports == 0
            assert est_trim.robust_rounds == 0
            assert not est_trim.degraded

    def test_adversarial_rows_rejected_and_telemetry_filled(self, env):
        injector = _adversarial_injector(BAD)
        bus, broker, nodes = _setup(robust_mode="trim", injector=injector)
        estimate = broker.run_round(bus, nodes, env)
        assert estimate.rejected_reports >= len(BAD)
        assert estimate.effective_m == estimate.m - estimate.rejected_reports
        assert estimate.degraded
        assert estimate.robust_rounds >= 1
        for node_id in BAD:
            assert estimate.trust[node_id] < 1.0
        honest_trust = [
            trust
            for node_id, trust in estimate.trust.items()
            if node_id not in BAD
        ]
        assert min(honest_trust, default=1.0) > max(
            estimate.trust[node_id] for node_id in BAD
        )

    def test_trim_recovers_field_from_adversaries(self, env):
        bus_c, clean, nodes_c = _setup(robust_mode="none")
        baseline = clean.run_round(bus_c, nodes_c, env)
        truth = env.fields["temperature"].grid

        injector = _adversarial_injector(BAD)
        bus_n, naive, nodes_n = _setup(robust_mode="none", injector=injector)
        corrupted = naive.run_round(bus_n, nodes_n, env)

        injector2 = _adversarial_injector(BAD)
        bus_t, trim, nodes_t = _setup(robust_mode="trim", injector=injector2)
        robust = trim.run_round(bus_t, nodes_t, env)

        def rmse(estimate):
            return float(
                np.sqrt(np.mean((estimate.field.grid - truth) ** 2))
            )

        assert rmse(robust) < 2.0 * rmse(baseline)
        assert rmse(corrupted) > 3.0 * rmse(robust)

    def test_repeat_offenders_quarantined_and_not_reselected(self, env):
        injector = _adversarial_injector(BAD)
        bus, broker, nodes = _setup(robust_mode="trim", injector=injector)
        estimate = None
        for _ in range(5):
            estimate = broker.run_round(bus, nodes, env)
            if set(BAD) <= set(estimate.quarantined_nodes):
                break
        assert set(BAD) <= set(estimate.quarantined_nodes)
        assert set(BAD) <= broker.trust.quarantined
        # Quarantined nodes never appear in the next round's candidates.
        plan = broker.plan_round()
        for candidates in plan.members_by_cell.values():
            assert not (set(candidates) & set(BAD))

    def test_huber_mode_downweights_without_exclusion(self, env):
        injector = _adversarial_injector(BAD)
        bus, broker, nodes = _setup(robust_mode="huber", injector=injector)
        estimate = broker.run_round(bus, nodes, env)
        truth = env.fields["temperature"].grid
        rmse = float(np.sqrt(np.mean((estimate.field.grid - truth) ** 2)))
        injector_n = _adversarial_injector(BAD)
        bus_n, naive, nodes_n = _setup(
            robust_mode="none", injector=injector_n
        )
        naive_est = naive.run_round(bus_n, nodes_n, env)
        naive_rmse = float(
            np.sqrt(np.mean((naive_est.field.grid - truth) ** 2))
        )
        assert rmse < naive_rmse
        assert estimate.rejected_reports >= 1

    def test_same_seed_faulty_replay_is_bit_identical(self, env):
        def run():
            injector = _adversarial_injector(BAD)
            bus, broker, nodes = _setup(
                robust_mode="trim", injector=injector
            )
            fields, rejected = [], []
            for _ in range(4):
                estimate = broker.run_round(bus, nodes, env)
                fields.append(estimate.field.grid.copy())
                rejected.append(estimate.rejected_reports)
            return fields, rejected, broker.trust.snapshot(), broker.trust.quarantined

        fields_a, rejected_a, trust_a, quarantine_a = run()
        fields_b, rejected_b, trust_b, quarantine_b = run()
        assert rejected_a == rejected_b
        assert trust_a == trust_b
        assert quarantine_a == quarantine_b
        for field_a, field_b in zip(fields_a, fields_b):
            assert np.array_equal(field_a, field_b)

    def test_rehabilitation_restores_recovered_node(self, env):
        # Stuck sensors that recover at t=0 never lie again (window is
        # behind every round's timestamps) — but trust only climbs if
        # the broker probes them.
        injector = SensorFaultInjector()
        injector.attach("n05", StuckAt(60.0, start=0.0, end=4.0))
        bus, broker, nodes = _setup(
            robust_mode="trim",
            injector=injector,
            rehab_interval=1,
            rehab_probes=2,
        )
        for timestamp in (1.0, 2.0, 3.0):
            broker.run_round(bus, nodes, env, timestamp=timestamp)
            if broker.trust.is_quarantined("n05"):
                break
        assert broker.trust.is_quarantined("n05")
        # The fault window is over: probe rounds see honest readings.
        released_at = None
        for step in range(12):
            estimate = broker.run_round(
                bus, nodes, env, timestamp=10.0 + step
            )
            if not broker.trust.is_quarantined("n05"):
                released_at = step
                break
        assert released_at is not None
        assert broker.trust.trust_of("n05") >= broker.trust.release_at
        assert broker.trust.get("n05").probes >= 1
        assert "n05" not in estimate.quarantined_nodes
