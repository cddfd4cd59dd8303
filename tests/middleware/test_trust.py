"""Trust ledger, quarantine, and Byzantine-tolerant broker rounds."""

import numpy as np
import pytest

from repro.analysis import contracts
from repro.middleware.broker import Broker
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.node import MobileNode
from repro.middleware.trust import TrustManager
from repro.network.bus import MessageBus
from repro.sensors.base import Environment, NodeState
from repro.sensors.faults import Adversarial, SensorFaultInjector, StuckAt
from repro.sensors.physical import TemperatureSensor
from repro.fields.generators import smooth_field


def _observe(ledger, node_id, rejected):
    """Fold one verdict for ``node_id``; returns its trust."""
    slot = ledger.slot(node_id)
    ledger.observe([slot], [rejected])
    return ledger.trust[slot]


class TestTrustManager:
    def test_unknown_node_has_full_trust(self):
        trust = TrustManager()
        assert trust.trust_of("nobody") == 1.0
        assert not trust.is_quarantined("nobody")
        assert len(trust) == 0

    def test_ewma_math(self):
        trust = TrustManager(alpha=0.3)
        assert _observe(trust, "n1", True) == pytest.approx(0.7)
        assert _observe(trust, "n1", True) == pytest.approx(0.49)
        assert _observe(trust, "n1", False) == pytest.approx(0.7 * 0.49 + 0.3)
        slot = trust.slot("n1")
        assert trust.rejected[slot] == 2
        assert trust.accepted[slot] == 1

    def test_vectorised_observe_matches_one_at_a_time(self):
        batch, single = TrustManager(), TrustManager()
        ids = ["c", "a", "b"]
        verdicts = [True, False, True]
        for _ in range(3):
            batch.observe([batch.slot(i) for i in ids], verdicts)
            for node_id, verdict in zip(ids, verdicts):
                _observe(single, node_id, verdict)
        assert batch.snapshot() == single.snapshot()

    def test_observe_rejects_misaligned_verdicts(self):
        trust = TrustManager()
        with pytest.raises(ValueError):
            trust.observe([trust.slot("a")], [True, False])

    def test_trust_never_below_floor(self):
        trust = TrustManager(alpha=1.0, floor=0.05)
        for _ in range(10):
            _observe(trust, "n1", True)
        assert trust.trust_of("n1") == 0.05

    def test_row_trust_is_least_contributor(self):
        trust = TrustManager(alpha=0.5)
        _observe(trust, "bad", True)
        assert trust.row_trust(()) == 1.0  # infrastructure row
        assert trust.row_trust(("good",)) == 1.0
        assert trust.row_trust(("good", "bad")) == 0.5

    def test_quarantine_needs_repeat_offense(self):
        trust = TrustManager(alpha=1.0, min_rejections=2)
        _observe(trust, "n1", True)  # trust at floor already
        newly, released = trust.update_quarantine(1)
        assert newly == [] and released == []
        _observe(trust, "n1", True)
        newly, _ = trust.update_quarantine(2)
        assert newly == ["n1"]
        assert trust.is_quarantined("n1")
        assert trust.quarantined_at[trust.slot("n1")] == 2

    def test_release_hysteresis(self):
        trust = TrustManager(
            alpha=0.5, quarantine_below=0.4, release_at=0.8, min_rejections=1
        )
        _observe(trust, "n1", True)
        _observe(trust, "n1", True)  # 0.25 < 0.4
        trust.update_quarantine(1)
        assert trust.is_quarantined("n1")
        _observe(trust, "n1", False)  # 0.625: above quarantine,
        _, released = trust.update_quarantine(2)  # below release
        assert released == []
        _observe(trust, "n1", False)  # 0.8125 >= 0.8
        _, released = trust.update_quarantine(3)
        assert released == ["n1"]
        assert not trust.is_quarantined("n1")
        assert trust.quarantined_at[trust.slot("n1")] == 0

    def test_quarantine_cap_keeps_worst_offenders(self):
        trust = TrustManager(
            alpha=1.0, min_rejections=1, max_quarantine_fraction=0.25
        )
        for node, rejections in (("a", 3), ("b", 2), ("c", 1)):
            for _ in range(rejections):
                _observe(trust, node, True)
        # Population 8 -> cap 2; all three are at the floor so the
        # sorted (trust, id) order decides: a and b enter first.
        newly, _ = trust.update_quarantine(1, member_count=8)
        assert newly == ["a", "b"]
        assert trust.quarantined == {"a", "b"}
        # The held-back offender is reconsidered once there is room,
        # although it was not observed again.
        newly, _ = trust.update_quarantine(2, member_count=12)
        assert newly == ["c"]

    def test_probe_candidates_longest_quarantined_first(self):
        trust = TrustManager(alpha=1.0, min_rejections=1)
        for node, round_index in (("late", 5), ("early", 1)):
            _observe(trust, node, True)
            _observe(trust, node, True)
            slot = trust.slot(node)
            trust.in_quarantine[slot] = True
            trust.quarantined_at[slot] = round_index
        assert trust.probe_candidates(1) == ["early"]
        assert trust.probes[trust.slot("early")] == 1
        assert trust.probes[trust.slot("late")] == 0
        assert trust.probe_candidates(0) == []

    def test_snapshot_and_forget(self):
        trust = TrustManager(alpha=0.5)
        _observe(trust, "b", True)
        _observe(trust, "a", False)
        assert list(trust.snapshot()) == ["a", "b"]
        assert trust.snapshot()["b"] == pytest.approx(0.5)
        trust.forget("b")
        assert "b" not in trust.snapshot()
        assert trust.trust_of("b") == 1.0
        assert len(trust) == 1
        # The freed slot is recycled with a clean record.
        slot = trust.slot("c")
        assert trust.trust[slot] == 1.0 and trust.rejected[slot] == 0

    def test_index_ledger_uses_node_indices_as_slots(self):
        trust = TrustManager(4, alpha=0.5, quarantine_below=0.3)
        for _ in range(3):
            trust.observe(np.array([0, 2]), np.array([True, False]))
        newly, released = trust.update_quarantine()
        assert newly == [0] and released == []
        assert trust.in_quarantine.tolist() == [True, False, False, False]
        assert len(trust) == 4
        with pytest.raises(KeyError):
            trust.slot("n1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"quarantine_below": 0.7, "release_at": 0.6},
            {"min_rejections": 0},
            {"max_quarantine_fraction": 0.0},
            {"floor": 0.0},
            {"size": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrustManager(**kwargs)


class TestLedgerSanitizer:
    @pytest.fixture(autouse=True)
    def sanitize(self, monkeypatch):
        monkeypatch.setattr(contracts, "_ENABLED", True)

    def test_duplicate_slot_in_one_observe_is_a_violation(self):
        trust = TrustManager()
        slot = trust.slot("a")
        with pytest.raises(contracts.ContractViolation, match="twice"):
            trust.observe([slot, slot], [True, True])

    def test_trust_outside_its_range_is_a_violation(self):
        trust = TrustManager()
        slot_a, slot_b = trust.slot("a"), trust.slot("b")
        trust.trust[slot_b] = float("nan")
        with pytest.raises(contracts.ContractViolation, match="floor"):
            trust.observe([slot_a], [False])

    def test_clean_updates_pass(self):
        trust = TrustManager(alpha=1.0, min_rejections=1)
        for _ in range(2):
            trust.observe([trust.slot("a"), trust.slot("b")], [True, False])
        assert trust.update_quarantine(1) == (["a"], [])


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
        assert broker.trust.probes[broker.trust.slot("n05")] >= 1
        assert "n05" not in estimate.quarantined_nodes
