"""Per-rule fixture tests for reprolint (repro.analysis.reprolint).

Every rule gets at least one firing case and one pragma-suppressed
case, exercised through ``lint_source`` so the fixtures stay inline.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.reprolint import (
    PARSE_ERROR_RULE,
    RETIRED_RULES,
    RULES,
    Finding,
    lint_source,
)


def _lint(source: str, path: str = "module.py", **kwargs) -> list[Finding]:
    return lint_source(textwrap.dedent(source), path, **kwargs)


def _rules(findings, *, suppressed=None):
    return [
        f.rule
        for f in findings
        if suppressed is None or f.suppressed is suppressed
    ]


class TestRPR001GlobalRng:
    def test_np_random_module_call_fires(self):
        findings = _lint(
            """
            import numpy as np

            def f():
                return np.random.rand(4)
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR001"]

    def test_stdlib_random_module_call_fires(self):
        findings = _lint(
            """
            import random

            def f():
                random.shuffle([1, 2])
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR001"]

    def test_seeded_constructors_allowed(self):
        findings = _lint(
            """
            import random
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed), random.Random(seed)
            """
        )
        assert findings == []

    def test_import_alias_is_resolved(self):
        findings = _lint(
            """
            import numpy.random as npr

            def f():
                return npr.normal()
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR001"]

    def test_pragma_suppresses(self):
        findings = _lint(
            """
            import numpy as np

            def f():
                return np.random.rand(4)  # reprolint: allow[global-rng]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR001"]
        assert _rules(findings, suppressed=False) == []

    def test_unrelated_attribute_not_flagged(self):
        findings = _lint(
            """
            def f(thing):
                return thing.random.rand()
            """
        )
        assert findings == []


class TestRPR002WallClock:
    def test_time_time_fires(self):
        findings = _lint(
            """
            import time

            def f():
                return time.time()
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR002"]

    def test_from_import_perf_counter_fires(self):
        findings = _lint(
            """
            from time import perf_counter

            def f():
                return perf_counter()
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR002"]

    def test_datetime_now_fires(self):
        findings = _lint(
            """
            from datetime import datetime

            def f():
                return datetime.now()
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR002"]

    def test_pragma_by_rule_id_suppresses(self):
        findings = _lint(
            """
            import time

            def f():
                return time.perf_counter()  # reprolint: allow[RPR002]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR002"]

    def test_time_sleep_not_flagged(self):
        findings = _lint(
            """
            import time

            def f():
                time.sleep(0.1)
            """
        )
        assert findings == []


class TestRPR003Retired:
    """RPR003 guarded ``solve_round`` while a thread pool dispatched it.
    The solve is now ``solve_pending(pending)`` over a frozen record —
    the planted violation is a runtime error, not a lint finding (see
    ``TestFrozenRound`` in tests/middleware/test_broker.py)."""

    def test_planted_self_write_no_longer_fires(self):
        findings = _lint(
            """
            class Broker:
                def solve_round(self, pending):
                    self.cache = pending
                    return pending
            """,
            path="src/broker.py",
        )
        assert findings == []

    @pytest.mark.parametrize(
        "entry", ["RPR003", "solve-purity", "RPR011", "transitive-impurity"]
    )
    def test_retired_ids_and_names_are_not_selectable(self, entry):
        with pytest.raises(ValueError, match=entry):
            _lint("x = 1\n", select=[entry])

    def test_retired_ids_are_reserved(self):
        assert set(RETIRED_RULES) == {"RPR003", "RPR007", "RPR011"}
        assert not set(RETIRED_RULES) & set(RULES)


class TestRPR004RawTopic:
    def test_publish_with_raw_topic_fires(self):
        findings = _lint(
            """
            def f(bus, msg):
                bus.publish("zones/estimates", msg)
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR004"]

    def test_subscribe_second_arg_fires(self):
        findings = _lint(
            """
            def f(bus):
                bus.subscribe("lc0/head", "zones/estimates")
            """
        )
        findings = [f for f in findings if not f.suppressed]
        assert [f.rule for f in findings] == ["RPR004"]
        assert "zones/estimates" in findings[0].message

    def test_keyword_topic_fires(self):
        findings = _lint(
            """
            def f(bus, msg):
                bus.publish(topic="zones/estimates", message=msg)
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR004"]

    def test_constant_topic_allowed(self):
        findings = _lint(
            """
            from repro.network.topics import TOPIC_ZONE_ESTIMATES

            def f(bus, msg):
                bus.publish(TOPIC_ZONE_ESTIMATES, msg)
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = _lint(
            """
            def f(bus, msg):
                bus.publish("zones/estimates", msg)  # reprolint: allow[raw-topic]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR004"]


class TestRPR005FloatEq:
    def test_float_literal_comparison_fires(self):
        findings = _lint(
            """
            def f(x):
                return x == 1.5
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR005"]

    def test_near_zero_literal_still_fires(self):
        findings = _lint(
            """
            def f(x):
                return x == 0.1
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR005"]

    def test_float_cast_comparison_fires(self):
        findings = _lint(
            """
            def f(x, y):
                return float(x) != y
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR005"]

    def test_int_comparison_allowed(self):
        findings = _lint(
            """
            def f(x):
                return x == 0 or x != 10
            """
        )
        assert findings == []

    def test_literal_zero_comparison_allowed(self):
        """Zero is exactly representable: ``== 0.0`` is a divide-by-zero
        guard, not a tolerance question, on either side and either
        sign."""
        findings = _lint(
            """
            def f(x, y):
                return x == 0.0, 0.0 != y, x == -0.0, float(y) != 0.0
            """
        )
        assert findings == []

    def test_ordering_comparison_allowed(self):
        findings = _lint(
            """
            def f(x):
                return x <= 1.5
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = _lint(
            """
            def f(peak):
                return peak == 0.5  # reprolint: allow[float-eq]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR005"]


class TestRPR006MutableDefault:
    def test_literal_mutable_defaults_fire(self):
        findings = _lint(
            """
            def f(a=[], b={}, c=set()):
                return a, b, c
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR006"] * 3

    def test_keyword_only_mutable_default_fires(self):
        findings = _lint(
            """
            def f(*, cache=dict()):
                return cache
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR006"]

    def test_none_default_allowed(self):
        findings = _lint(
            """
            def f(a=None, b=(), c=0):
                return a, b, c
            """
        )
        assert findings == []

    def test_unseeded_default_rng_fires(self):
        findings = _lint(
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR006"]

    def test_seeded_default_rng_allowed(self):
        findings = _lint(
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = _lint(
            """
            def f(a=[]):  # reprolint: allow[mutable-default]
                return a
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR006"]


class TestRPR007Retired:
    """RPR007 gated the TrafficStats.latency_s alias; both the alias
    and the rule are gone (PR 8), and the id must stay retired."""

    def test_stats_latency_chain_no_longer_fires(self):
        findings = _lint(
            """
            def f(bus, stats):
                return bus.stats.latency_s + stats.latency_s
            """
        )
        assert findings == []

    def test_rule_id_is_not_selectable(self):
        with pytest.raises(ValueError, match="RPR007"):
            _lint("x = 1\n", select=["RPR007"])
        with pytest.raises(ValueError, match="deprecated-latency-s"):
            _lint("x = 1\n", select=["deprecated-latency-s"])

    def test_replacement_fields_allowed(self):
        findings = _lint(
            """
            def f(stats):
                return stats.latency_sum_s + stats.mean_latency_s
            """
        )
        assert findings == []


class TestRPR002RealtimeAllowlist:
    """The sanctioned realtime modules may read the wall clock."""

    _SOURCE = """
        import time

        def f():
            return time.monotonic()
        """

    def test_ordinary_module_fires(self):
        findings = _lint(self._SOURCE, path="src/repro/sim/clock.py")
        assert _rules(findings, suppressed=False) == ["RPR002"]

    def test_wallclock_module_allowlisted(self):
        findings = _lint(self._SOURCE, path="src/repro/sim/wallclock.py")
        assert findings == []

    def test_asyncio_transport_allowlisted(self):
        findings = _lint(
            self._SOURCE, path="src/repro/network/asyncio_transport.py"
        )
        assert findings == []

    def test_gateway_package_allowlisted(self):
        findings = _lint(
            self._SOURCE, path="src/repro/gateway/server.py"
        )
        assert findings == []

    def test_lookalike_module_is_not_allowlisted(self):
        findings = _lint(
            self._SOURCE, path="src/repro/sim/wallclock_helpers.py"
        )
        assert _rules(findings, suppressed=False) == ["RPR002"]


class TestRPR008RawInbox:
    def test_inbox_append_fires(self):
        findings = _lint(
            """
            def f(bus, message):
                bus.endpoint("b").inbox.append(message)
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR008"]

    def test_inbox_rebind_fires(self):
        findings = _lint(
            """
            def f(endpoint):
                endpoint.inbox = []
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR008"]

    def test_inbox_item_delete_fires(self):
        findings = _lint(
            """
            def f(endpoint, idx):
                del endpoint.inbox[idx]
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR008"]

    def test_bus_module_exempt(self):
        findings = _lint(
            """
            def push(self, message):
                self.inbox.append(message)
            """,
            path="bus.py",
        )
        assert findings == []

    def test_reads_allowed(self):
        findings = _lint(
            """
            def f(endpoint):
                depth = len(endpoint.inbox)
                copy = list(endpoint.inbox)
                return depth, copy
            """
        )
        assert findings == []

    def test_unrelated_append_allowed(self):
        findings = _lint(
            """
            def f(outbox, inbox, message):
                outbox.append(message)
                inbox.append(message)  # bare local, not an attribute
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = _lint(
            """
            def f(endpoint, message):
                endpoint.inbox.append(message)  # reprolint: allow[raw-inbox]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR008"]


class TestRPR009WorkerRng:
    def test_default_rng_in_worker_fires(self):
        findings = _lint(
            """
            import numpy as np

            def _solve_zone_worker(payload, seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(4)
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR009"]

    def test_seed_sequence_in_worker_init_fires(self):
        findings = _lint(
            """
            import numpy as np

            def shard_worker_init(seed, index):
                child = np.random.SeedSequence(seed).spawn(8)[index]
                return np.random.Generator(np.random.PCG64(child))
            """
        )
        # SeedSequence, Generator and PCG64 construction each fire.
        assert _rules(findings, suppressed=False) == [
            "RPR009",
            "RPR009",
            "RPR009",
        ]

    def test_stdlib_random_in_worker_fires(self):
        findings = _lint(
            """
            import random

            def worker_main(seed):
                return random.Random(seed)
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR009"]

    def test_nested_helper_inside_worker_fires(self):
        findings = _lint(
            """
            import numpy as np

            def run_worker(seed):
                def draw():
                    return np.random.default_rng(seed).random()
                return draw()
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR009"]

    def test_pragma_suppresses(self):
        findings = _lint(
            """
            import numpy as np

            def _bench_worker(seed):
                return np.random.default_rng(seed)  # reprolint: allow[worker-rng]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR009"]

    def test_non_worker_function_negative(self):
        findings = _lint(
            """
            import numpy as np

            def build_population(seed):
                return np.random.default_rng(seed)

            def spawn_shard_seeds(root, count):
                return np.random.SeedSequence(root).spawn(count)
            """
        )
        assert findings == []

    def test_worker_without_rng_negative(self):
        findings = _lint(
            """
            def _solve_zone_worker(payload, basis):
                cells, values = payload
                return basis[cells, :] @ values
            """
        )
        assert findings == []

    def test_shipped_tree_has_zero_worker_rng_findings(self, shipped_lint):
        assert shipped_lint.scanned > 50
        active = shipped_lint.active("RPR009")
        assert active == [], "\n".join(f.render() for f in active)


class TestSuppressionMechanics:
    def test_star_pragma_suppresses_everything(self):
        findings = _lint(
            """
            import time

            def f(x):
                return time.time(), x == 1.5  # reprolint: allow[*]
            """
        )
        assert findings and all(f.suppressed for f in findings)

    def test_multiline_statement_accepts_closing_line_pragma(self):
        findings = _lint(
            """
            import time

            def f():
                return (
                    time.time()
                )  # reprolint: allow[wall-clock]
            """
        )
        assert _rules(findings, suppressed=True) == ["RPR002"]

    def test_pragma_on_other_line_does_not_leak(self):
        findings = _lint(
            """
            import time

            def f():
                a = time.time()  # reprolint: allow[wall-clock]
                b = time.time()
                return a, b
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR002"]
        assert _rules(findings, suppressed=True) == ["RPR002"]

    def test_wrong_rule_pragma_does_not_suppress(self):
        findings = _lint(
            """
            import time

            def f():
                return time.time()  # reprolint: allow[float-eq]
            """
        )
        assert _rules(findings, suppressed=False) == ["RPR002"]


class TestSelectAndErrors:
    def test_select_filters_rules(self):
        source = """
            import time

            def f(x):
                return time.time(), x == 1.5
            """
        only_clock = _lint(source, select=["wall-clock"])
        assert _rules(only_clock) == ["RPR002"]
        only_float = _lint(source, select=["RPR005"])
        assert _rules(only_float) == ["RPR005"]

    def test_unknown_select_raises(self):
        try:
            _lint("x = 1", select=["no-such-rule"])
        except ValueError as exc:
            assert "no-such-rule" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_parse_error_reported_not_raised(self):
        findings = _lint("def broken(:\n    pass")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert not findings[0].suppressed

    def test_findings_sorted_by_position(self):
        findings = _lint(
            """
            import time

            def f(x):
                b = x == 1.5
                a = time.time()
                return a, b
            """
        )
        assert [f.rule for f in findings] == ["RPR005", "RPR002"]
        assert findings[0].line < findings[1].line


class TestTreeIsClean:
    def test_shipped_sources_have_zero_unsuppressed_findings(
        self, shipped_lint
    ):
        active = shipped_lint.active()
        assert shipped_lint.scanned > 50
        assert active == [], "\n".join(f.render() for f in active)

    def test_rule_catalogue_is_stable(self):
        assert set(RULES) == {
            "RPR001",
            "RPR002",
            # RPR003 retired with the thread-pool fork it guarded.
            "RPR004",
            "RPR005",
            "RPR006",
            # RPR007 retired with the latency_s alias (PR 8); the id
            # stays reserved and must never be reused.
            "RPR008",
            "RPR009",
            # RPR011 retired with RPR003.
            "RPR010",
            "RPR012",
            "RPR013",
        }

    def test_cross_file_rules_fire_per_file(self):
        """lint_source runs RPR010/012/013 too, folding over its one
        file: a sleep in a gateway coroutine and a literal seed used
        twice both fire without a project around them."""
        findings = _lint(
            """
            import time

            import numpy as np

            async def pump():
                time.sleep(1)

            a = np.random.default_rng(9)
            b = np.random.default_rng(9)
            """,
            path="src/repro/gateway/pump.py",
            select=["RPR010", "RPR012", "RPR013"],
        )
        assert _rules(findings, suppressed=False) == ["RPR010", "RPR012"]
