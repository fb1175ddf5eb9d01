"""End-to-end tests for the repro.analysis CLI and the acceptance scenario:
deliberately breaking a determinism invariant in the real tree must fail
the lint gate."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.engine import parse_pragmas

REPO_ROOT = Path(__file__).resolve().parent.parent

CLEAN = "x = 1\n"
DIRTY = "def f(acc=[]):\n    return acc\n"  # one R6 violation


def run_cli(*args, cwd):
    """Run ``python -m repro.analysis`` in ``cwd`` with src/ on the path."""
    env_path = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )


@pytest.fixture
def project(tmp_path):
    """A miniature project with one clean and one dirty file."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "clean.py").write_text(CLEAN)
    (tmp_path / "pkg" / "dirty.py").write_text(DIRTY)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project):
        result = run_cli("pkg/clean.py", cwd=project)
        assert result.returncode == 0, result.stdout
        assert "0 violations" in result.stdout

    def test_violation_exits_one(self, project):
        result = run_cli("pkg/dirty.py", cwd=project)
        assert result.returncode == 1
        assert "R6" in result.stdout

    def test_missing_target_exits_two(self, project):
        result = run_cli("no/such/dir", cwd=project)
        assert result.returncode == 2

    @pytest.mark.parametrize("flag", ["--cache-dir=.lint-cache", "--baseline=b.json"])
    def test_removed_flags_are_unknown(self, project, flag):
        result = run_cli("pkg", flag, cwd=project)
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_syntax_error_is_reported_not_crashed(self, project):
        (project / "pkg" / "broken.py").write_text("def f(:\n")
        result = run_cli("pkg/broken.py", cwd=project)
        assert result.returncode == 1
        assert "broken.py" in result.stdout


class TestTextOutput:
    def test_violation_line_format(self, project):
        result = run_cli("pkg/dirty.py", cwd=project)
        # path:line:col: RULE message — clickable and grep-able
        assert "pkg/dirty.py:1:" in result.stdout
        assert "R6" in result.stdout

    def test_summary_line(self, project):
        result = run_cli("pkg", cwd=project)
        assert "2 files checked" in result.stdout
        assert "1 violations" in result.stdout


class TestJsonOutput:
    def test_json_payload(self, project):
        result = run_cli("pkg", "--format", "json", cwd=project)
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        assert payload["checked_files"] == 2
        assert [v["rule"] for v in payload["violations"]] == ["R6"]
        assert payload["violations"][0]["path"].endswith("dirty.py")

    def test_json_clean(self, project):
        result = run_cli("pkg/clean.py", "--format", "json", cwd=project)
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestListRules:
    def test_lists_all_fourteen(self, project):
        result = run_cli("--list-rules", cwd=project)
        assert result.returncode == 0
        for rule_id in (f"R{i}" for i in range(1, 15)):
            assert rule_id in result.stdout


class TestSarifCli:
    def test_sarif_format_on_stdout(self, project):
        result = run_cli("pkg/dirty.py", "--format", "sarif", cwd=project)
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "R6" for r in results)

    def test_sarif_out_writes_file_alongside_text(self, project):
        result = run_cli(
            "pkg/dirty.py", "--sarif-out", "out.sarif", cwd=project
        )
        assert result.returncode == 1
        assert "R6" in result.stdout  # text format still printed
        payload = json.loads((project / "out.sarif").read_text())
        assert payload["runs"][0]["results"]


class TestPragmaParsing:
    def test_parse_pragmas(self):
        lines = [
            "x = 1  # repro: noqa",
            "y = 2  # repro: noqa[R1]",
            "z = 3  # repro: noqa[R1, R2] reason text",
            "w = 4",
        ]
        pragmas = parse_pragmas(lines)
        assert pragmas[1] is None  # bare noqa: everything
        assert pragmas[2] == frozenset({"R1"})
        assert pragmas[3] == frozenset({"R1", "R2"})
        assert 4 not in pragmas


class TestRepoIsClean:
    """The committed tree passes its own linter (acceptance criterion)."""

    def test_repo_lints_clean(self):
        report = analyze_paths(
            [
                str(REPO_ROOT / "src" / "repro"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
                str(REPO_ROOT / "examples"),
            ]
        )
        assert not report.parse_failures
        rendered = "\n".join(v.render() for v in report.violations)
        assert not report.violations, f"lint violations in tree:\n{rendered}"


class TestTypecheckGate:
    """Strict mypy over the determinism-critical packages.  Skips where
    mypy is not installed (it is a CI-only tool, not a runtime dep)."""

    def test_mypy_strict_packages(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                "--config-file",
                "mypy.ini",
                "src/repro/core",
                "src/repro/graph",
                "src/repro/timeseries",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout


class TestAcceptanceBreakage:
    """Deliberately breaking R1 in louvain.py or R5 in parallel.py must be
    caught — this is what makes the CI lint job a real gate."""

    def _copy_tree(self, tmp_path):
        dest = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", dest)
        return dest

    def test_r1_break_in_louvain_is_flagged(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        louvain = dest / "graph" / "louvain.py"
        source = louvain.read_text()
        # Inject an unordered iteration into the module: a set-driven loop.
        source += (
            "\n\ndef _broken_sweep(nodes):\n"
            "    pending = set(nodes)\n"
            "    order = []\n"
            "    for node in pending:\n"
            "        order.append(node)\n"
            "    return order\n"
        )
        louvain.write_text(source)
        report = analyze_paths([str(dest)])
        hits = [
            v
            for v in report.violations
            if v.rule == "R1" and v.path.endswith("louvain.py")
        ]
        assert hits, "R1 break in louvain.py was not flagged"

    def test_r5_break_in_parallel_is_flagged(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        parallel = dest / "core" / "parallel.py"
        source = parallel.read_text()
        # Dispatch a lambda through the pool: not picklable, not a
        # module-level function.
        source += (
            "\n\ndef _broken_dispatch(pool, chunks):\n"
            "    return [pool.submit(lambda c: c, chunk) for chunk in chunks]\n"
        )
        parallel.write_text(source)
        report = analyze_paths([str(dest)])
        hits = [
            v
            for v in report.violations
            if v.rule == "R5" and v.path.endswith("parallel.py")
        ]
        assert hits, "R5 break in parallel.py was not flagged"
