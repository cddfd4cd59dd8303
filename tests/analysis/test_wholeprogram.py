"""Tests for the cross-module rules RPR010, RPR012 and RPR013.

Mirrors the per-rule matrix of the other reprolint rules — firing,
suppressed, negative, and shipped-tree-zero — plus the planted-violation
acceptance tests (one finding each) and the lint timing budget.  All
three run in ``lint_paths``' single per-file pass: RPR010 follows calls
within one module, RPR012/RPR013 fold the seed and topic facts every
file records.  RPR011's planted violation (an impure call under the
solve phase) is a runtime fact now: ``TestFrozenRound`` in
tests/middleware/test_broker.py and the order-independence case in
tests/sim/test_mega.py.

Fixtures are materialised as real file trees under tmp_path because the
rules are path-aware: realtime modules are recognised by
``repro/gateway/`` (etc.) path shape and topic constants by the
``repro/network/topics.py`` module that defines them — so the fixture
tree mimics the repo layout without importing any of it.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.reprolint import lint_paths


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def _run(tmp_path, files, select):
    findings, _scanned = lint_paths([_tree(tmp_path, files)], select=select)
    return findings


def _active(findings):
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# RPR010 async-blocking
# ----------------------------------------------------------------------


class TestRPR010AsyncBlocking:
    def test_direct_sleep_in_gateway_coroutine_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    async def pump():
                        time.sleep(0.1)
                """,
            },
            select=["RPR010"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR010"]
        assert "time.sleep" in active[0].message
        assert active[0].path.endswith("server.py")

    def test_transitive_chain_fires_with_witness(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    def load():
                        with open("x") as fh:
                            return fh.read()

                    def fetch():
                        return load()

                    async def handle():
                        fetch()
                """,
            },
            select=["RPR010"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR010"]
        # Anchored in the coroutine, witness names the chain + sink.
        assert active[0].line == 10
        assert "fetch -> load -> open" in active[0].message

    def test_solver_entry_point_fires_unless_awaited_or_offloaded(
        self, tmp_path
    ):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import asyncio

                    async def tick(broker, driver):
                        broker.run_round()
                        await driver.run_round()
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(None, broker.run_round)
                """,
            },
            select=["RPR010"],
        )
        active = _active(findings)
        assert [(f.rule, f.line) for f in active] == [("RPR010", 5)]
        assert "run_round()" in active[0].message

    def test_same_class_method_chain_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import subprocess

                    class Gateway:
                        def _probe(self):
                            subprocess.run(["true"])

                        async def serve(self):
                            self._probe()
                """,
            },
            select=["RPR010"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR010"]
        assert "_probe -> subprocess.run" in active[0].message

    def test_chain_leaving_the_module_is_not_followed(self, tmp_path):
        """The documented trade: reach stops at the module boundary."""
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    from repro.util.io import fetch

                    async def handle():
                        fetch()
                """,
                "repro/util/io.py": """
                    def fetch():
                        with open("x") as fh:
                            return fh.read()
                """,
            },
            select=["RPR010"],
        )
        assert findings == []

    def test_pragma_at_call_site_suppresses(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    async def pump():
                        time.sleep(0.1)  # reprolint: allow[async-blocking]
                """,
            },
            select=["RPR010"],
        )
        assert _active(findings) == []
        assert [f.rule for f in findings] == ["RPR010"]
        assert findings[0].suppressed

    def test_pragma_at_sink_cuts_propagation(self, tmp_path):
        """A sanctioned offload site in a helper (or a sanctioned helper
        def) clears every coroutine that reaches it — no finding, not
        even suppressed."""
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    def fetch():
                        time.sleep(0)  # reprolint: allow[async-blocking]

                    def worker_entry():  # reprolint: allow[async-blocking]
                        time.sleep(1)

                    async def handle():
                        fetch()
                        worker_entry()
                """,
            },
            select=["RPR010"],
        )
        assert findings == []

    def test_sync_function_and_non_realtime_module_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                # Blocking in a *sync* gateway function: fine.
                "repro/gateway/server.py": """
                    import time

                    def warmup():
                        time.sleep(0.1)
                """,
                # Blocking in an async def *outside* realtime modules:
                # out of scope for this rule.
                "repro/middleware/jobs.py": """
                    import time

                    async def batch():
                        time.sleep(0.1)
                """,
            },
            select=["RPR010"],
        )
        assert findings == []

    def test_shipped_tree_zero(self, shipped_lint):
        assert shipped_lint.scanned > 50
        active = shipped_lint.active("RPR010")
        assert active == [], "\n".join(f.render() for f in active)


# ----------------------------------------------------------------------
# RPR012 seed-lineage
# ----------------------------------------------------------------------


class TestRPR012SeedLineage:
    def test_duplicate_literal_seed_across_files_fires_once(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/a.py": """
                    import numpy as np

                    def make():
                        return np.random.default_rng(1234)
                """,
                "repro/sim/b.py": """
                    import numpy as np

                    def make():
                        return np.random.default_rng(1234)
                """,
            },
            select=["RPR012"],
        )
        active = _active(findings)
        # One finding at the *second* site, pointing back at the first.
        assert [f.rule for f in active] == ["RPR012"]
        assert active[0].path.endswith("b.py")
        assert "a.py" in active[0].message

    def test_duplicate_seed_keyword_and_random_random(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/mix.py": """
                    import random

                    import numpy as np

                    def make():
                        g = np.random.default_rng(seed=7)
                        r = random.Random(7)
                        return g, r
                """,
            },
            select=["RPR012"],
        )
        assert len(_active(findings)) == 1

    def test_rng_passed_to_executor_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/pool.py": """
                    import numpy as np

                    def fan_out(pool, work):
                        rng = np.random.default_rng(99)
                        return pool.submit(work, rng)
                """,
            },
            select=["RPR012"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR012"]
        assert "rng" in active[0].message

    def test_closure_capturing_rng_submitted_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/pool.py": """
                    import numpy as np

                    def fan_out(pool, items):
                        rng = np.random.default_rng(5)

                        def job(item):
                            return item + rng.normal()

                        return pool.map(job, items)
                """,
            },
            select=["RPR012"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR012"]

    def test_pragma_suppresses(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/pool.py": """
                    import numpy as np

                    def fan_out(pool, work):
                        rng = np.random.default_rng(99)
                        return pool.submit(work, rng)  # reprolint: allow[seed-lineage]
                """,
                # The fold honours a pragma at the duplicate's own site.
                "repro/sim/seeds.py": """
                    import numpy as np

                    a = np.random.default_rng(3)
                    b = np.random.default_rng(3)  # reprolint: allow[seed-lineage]
                """,
            },
            select=["RPR012"],
        )
        assert _active(findings) == []
        assert [f.suppressed for f in findings] == [True, True]

    def test_distinct_and_nonliteral_seeds_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/a.py": """
                    import numpy as np

                    def make(seed):
                        first = np.random.default_rng(1)
                        second = np.random.default_rng(2)
                        derived = np.random.default_rng(seed)
                        also = np.random.default_rng(seed)
                        return first, second, derived, also
                """,
                # Submitting plain data to an executor is fine.
                "repro/sim/pool.py": """
                    def fan_out(pool, work):
                        return pool.submit(work, 1234)
                """,
            },
            select=["RPR012"],
        )
        assert findings == []

    def test_spawned_children_negative(self, tmp_path):
        """SeedSequence(literal) once + spawned children: the sanctioned
        idiom must not trip the duplicate detector."""
        findings = _run(
            tmp_path,
            {
                "repro/sim/spawn.py": """
                    import numpy as np

                    def shards(n):
                        root = np.random.SeedSequence(2024)
                        return [
                            np.random.default_rng(child)
                            for child in root.spawn(n)
                        ]
                """,
            },
            select=["RPR012"],
        )
        assert findings == []

    def test_shipped_tree_zero(self, shipped_lint):
        active = shipped_lint.active("RPR012")
        assert active == [], "\n".join(f.render() for f in active)


# ----------------------------------------------------------------------
# RPR013 pubsub-flow
# ----------------------------------------------------------------------

_TOPICS = """
    TOPIC_ALPHA = "fixture/alpha"
    TOPIC_BETA = "fixture/beta"
    TOPIC_SPARE = "fixture/spare"
"""


class TestRPR013PubsubFlow:
    def test_publish_without_subscriber_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ALPHA

                    def emit(bus, msg):
                        bus.publish(TOPIC_ALPHA, msg)
                """,
            },
            select=["RPR013"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR013"]
        assert "TOPIC_ALPHA" in active[0].message
        assert active[0].path.endswith("pub.py")

    def test_subscribe_without_publisher_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                "repro/middleware/sub.py": """
                    from repro.network.topics import TOPIC_BETA

                    def listen(bus, addr):
                        bus.subscribe(addr, TOPIC_BETA)
                """,
            },
            select=["RPR013"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR013"]
        assert "TOPIC_BETA" in active[0].message

    def test_matched_pair_and_unused_topic_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                # Publisher and subscriber in *different* files; the
                # subscriber takes the constant through a package
                # re-export, the publisher through a relative import.
                # TOPIC_SPARE is used by nobody: reserving a constant
                # is not a violation.
                "repro/network/__init__.py": """
                    from .topics import TOPIC_ALPHA
                """,
                "repro/middleware/pub.py": """
                    from ..network.topics import TOPIC_ALPHA

                    def emit(bus, msg):
                        bus.publish(TOPIC_ALPHA, msg)
                """,
                "repro/middleware/sub.py": """
                    from repro.network import TOPIC_ALPHA

                    def listen(bus, addr):
                        bus.subscribe(addr, TOPIC_ALPHA)
                """,
            },
            select=["RPR013"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ALPHA

                    def emit(bus, msg):
                        bus.publish(TOPIC_ALPHA, msg)  # reprolint: allow[pubsub-flow]
                """,
            },
            select=["RPR013"],
        )
        assert _active(findings) == []
        assert [f.suppressed for f in findings] == [True]

    def test_shipped_tree_zero(self, shipped_lint):
        active = shipped_lint.active("RPR013")
        assert active == [], "\n".join(f.render() for f in active)
        # The one documented exception, reached through a relative
        # import: the localcloud observability downlink.
        suppressed = [
            f for f in shipped_lint.findings if f.rule == "RPR013"
        ]
        assert [Path(f.path).name for f in suppressed] == ["localcloud.py"]
        assert "TOPIC_ZONE_ESTIMATES" in suppressed[0].message


# ----------------------------------------------------------------------
# The planted violations from the acceptance criteria — each must
# produce exactly one finding against a realistic mini-tree.
# ----------------------------------------------------------------------


class TestPlantedViolations:
    def test_planted_sleep_in_gateway_coroutine(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    async def _serve_device(reader, writer):
                        time.sleep(0.05)
                        return reader, writer
                """,
            },
            select=["RPR010"],
        )
        assert len(_active(findings)) == 1

    def test_planted_duplicate_seed(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/seeds.py": """
                    import numpy as np

                    def streams():
                        truth = np.random.default_rng(42)
                        noise = np.random.default_rng(42)
                        return truth, noise
                """,
            },
            select=["RPR012"],
        )
        assert len(_active(findings)) == 1

    def test_planted_subscriberless_topic(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": """
                    TOPIC_ORPHAN = "fixture/orphan"
                """,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ORPHAN

                    def emit(bus, msg):
                        bus.publish(TOPIC_ORPHAN, msg)
                """,
            },
            select=["RPR013"],
        )
        assert len(_active(findings)) == 1


# ----------------------------------------------------------------------
# Whole-tree gates
# ----------------------------------------------------------------------


class TestShippedTreeGates:
    def test_zero_unsuppressed_findings_all_rules(self, shipped_lint):
        """The acceptance gate: every rule is clean on the shipped
        package."""
        active = shipped_lint.active()
        assert shipped_lint.scanned > 50
        assert active == [], "\n".join(f.render() for f in active)

    def test_whole_program_pass_stays_under_time_budget(self, shipped_lint):
        """Lint must not quietly become 10x slower.

        The budget is deliberately generous (shared CI runners): the
        full pass takes ~1 s on a 2-vCPU VM; 20 s means an
        order-of-magnitude regression still fails loudly.
        """
        assert shipped_lint.seconds < 20.0, (
            f"full reprolint pass took {shipped_lint.seconds:.1f}s"
        )
