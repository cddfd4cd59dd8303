"""CLI tests for ``python -m repro.analysis`` (repro.analysis.cli)."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.analysis import cli, main

PKG_ROOT = str(Path(repro.__file__).parent)


def _reuse(monkeypatch, shipped_lint):
    """Serve the session's one lint of the shipped tree to the CLI."""
    monkeypatch.setattr(
        cli,
        "lint_paths",
        lambda paths, select=None: (shipped_lint.findings, shipped_lint.scanned),
    )


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 file(s) scanned, 0 finding(s)" in out

    def test_finding_exits_one(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "dirty.py",
            """
            import time

            def f():
                return time.time()
            """,
        )
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "RPR002[wall-clock]" in out
        assert "dirty.py:5:" in out

    def test_suppressed_finding_exits_zero(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "pinned.py",
            """
            import time

            def f():
                return time.time()  # reprolint: allow[wall-clock]
            """,
        )
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s), 1 suppressed" in out
        assert "RPR002" not in out  # hidden without --show-suppressed

    def test_show_suppressed_prints_them(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "pinned.py",
            "peak = 1.0\nflag = peak == 1.5  # reprolint: allow[float-eq]\n",
        )
        assert main(["--show-suppressed", str(path)]) == 0
        assert "(suppressed)" in capsys.readouterr().out

    def test_unknown_rule_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        assert main(["--select", "no-such-rule", str(path)]) == 2
        assert "no-such-rule" in capsys.readouterr().err
        # A retired id is reserved, not selectable.
        assert main(["--select", "RPR013", str(path)]) == 2
        assert "RPR013" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RPR001", "RPR008", "wall-clock", "seed-lineage"):
            assert rule in out
        # Retired ids stay listed, as retired, so they read as reserved.
        lines = out.splitlines()
        assert "RPR003 solve-purity: retired" in lines
        assert "RPR004 raw-topic: retired" in lines
        assert "RPR007 deprecated-latency-s: retired" in lines
        assert "RPR009 worker-rng: retired" in lines
        assert "RPR011 transitive-impurity: retired" in lines
        assert "RPR013 pubsub-flow: retired" in lines


class TestJsonFormat:
    def test_json_report_shape(self, tmp_path, capsys):
        _write(
            tmp_path,
            "mixed.py",
            """
            import time

            def f(x):
                t = time.time()  # reprolint: allow[wall-clock]
                return t, x == 1.5
            """,
        )
        assert main(["--format", "json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_scanned"] == 1
        assert report["unsuppressed"] == 1
        assert report["suppressed"] == 1
        by_rule = {f["rule"]: f for f in report["findings"]}
        assert by_rule["RPR002"]["suppressed"] is True
        assert by_rule["RPR005"]["suppressed"] is False
        assert set(by_rule["RPR005"]) == {
            "rule", "name", "path", "line", "col", "message", "suppressed",
        }

    def test_shipped_tree_reports_zero_unsuppressed(
        self, capsys, monkeypatch, shipped_lint
    ):
        """The acceptance gate: `--format json` over the shipped
        package reports zero unsuppressed findings."""
        _reuse(monkeypatch, shipped_lint)
        assert main(["--format", "json", PKG_ROOT]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unsuppressed"] == 0
        assert report["suppressed"] == 0
        assert report["files_scanned"] > 50


class TestGithubFormat:
    def test_annotation_shape_and_exit_code(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "dirty.py",
            """
            import time

            def f():
                return time.time()
            """,
        )
        assert main(["--format", "github", str(path)]) == 1
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("::")][0]
        assert line.startswith("::error file=")
        assert "title=RPR002[wall-clock]" in line
        assert f",line=5,col=12," in line
        assert "::" in line.split("title=")[1]  # message after ::

    def test_suppressed_findings_become_warnings(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "pinned.py",
            """
            import time

            def f():
                return time.time()  # reprolint: allow[wall-clock]
            """,
        )
        assert main(["--format", "github", "--show-suppressed", str(path)]) == 0
        out = capsys.readouterr().out
        assert "::warning file=" in out
        assert "::error" not in out

    def test_message_newlines_are_escaped(self, tmp_path):
        from repro.analysis.cli import _github_annotation
        from repro.analysis.reprolint import Finding

        finding = Finding(
            rule="RPR001",
            name="global-rng",
            path="a:b,c.py",
            line=3,
            col=0,
            message="line one\nline two, 50%",
        )
        rendered = _github_annotation(finding)
        assert "\n" not in rendered
        assert "%0A" in rendered
        assert "file=a%3Ab%2Cc.py" in rendered
        assert "50%25" in rendered

    def test_shipped_tree_emits_no_error_annotations(
        self, capsys, monkeypatch, shipped_lint
    ):
        _reuse(monkeypatch, shipped_lint)
        assert main(["--format", "github", "--show-suppressed", PKG_ROOT]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "::warning" not in out  # no pragma'd site is left


class TestWholeProgram:
    def test_cross_file_finding_through_cli(self, tmp_path, capsys):
        """The CLI runs every rule: a blocking call inside a gateway
        coroutine surfaces without any flag."""
        gateway = tmp_path / "repro" / "gateway"
        gateway.mkdir(parents=True)
        for d in (tmp_path / "repro", gateway):
            (d / "__init__.py").write_text("", encoding="utf-8")
        (gateway / "server.py").write_text(
            "import time\n\n\nasync def pump():\n    time.sleep(1)\n",
            encoding="utf-8",
        )
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR010[async-blocking]" in out


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(PKG_ROOT).parent), "PATH": "/usr/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_select_filters(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "both.py",
            """
            import time

            def f(x):
                return time.time(), x == 1.5
            """,
        )
        assert main(["--select", "float-eq", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RPR005" in out
        assert "RPR002" not in out
