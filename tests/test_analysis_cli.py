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
from tests.conftest import REGISTERED_RULE_IDS

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

    @pytest.mark.parametrize(
        "flag,error",
        [
            (["--cache-dir=.lint-cache"], "unrecognized arguments"),
            (["--baseline=b.json"], "unrecognized arguments"),
            (["--sarif-out", "x"], "unrecognized arguments"),
            (["--format", "sarif"], "invalid choice"),
        ],
        ids=[
            "--cache-dir=.lint-cache",
            "--baseline=b.json",
            "--sarif-out=x",
            "--format=sarif",
        ],
    )
    def test_removed_flags_are_unknown(self, project, flag, error):
        result = run_cli("pkg", *flag, cwd=project)
        assert result.returncode == 2
        assert error in result.stderr

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
    def test_lists_exactly_the_registry(self, project):
        result = run_cli("--list-rules", cwd=project)
        assert result.returncode == 0
        listed = {
            line.split()[0]
            for line in result.stdout.splitlines()
            if line and not line[0].isspace()
        }
        assert listed == REGISTERED_RULE_IDS


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


_SWALLOWED = (
    "\n\ndef _try_remove(path):\n"
    "    try:\n"
    "        os.unlink(path)\n"
    "    except Exception:\n"
    "        pass\n"
)

#: One realistic break per kept rule, seeded into a copy of ``src/repro``:
#: ``(rule, file under src/repro, anchor, replacement)``.  An empty anchor
#: appends the replacement to the file; otherwise the anchor must occur
#: in the file and is replaced once.
SEEDED_BREAKS = [
    # A set-driven sweep order in Louvain.
    ("R1", "graph/louvain.py", "", (
        "\n\ndef _broken_sweep(nodes):\n"
        "    order = []\n"
        "    for node in set(nodes):\n"
        "        order.append(node)\n"
        "    return order\n"
    )),
    ("R2", "core/coappearance.py", "", (
        "\n\ndef _is_half(a):\n"
        "    return float(a) == 0.5\n"
    )),
    ("R3", "graph/louvain.py", "", (
        "\n\nimport numpy\n\n\ndef _shuffled(nodes):\n"
        "    return list(numpy.random.permutation(nodes))\n"
    )),
    ("R4", "core/detector.py", "", (
        "\n\nimport time\n\n\ndef _stamp():\n"
        "    return time.time()\n"
    )),
    # The pool's worker target reads a mutable module-level dict: every
    # worker process would see its own divergent copy.
    ("R5", "core/parallel.py",
        "    tenant_pipelines: dict[str, CommunityPipeline] = {}\n",
        "    tenant_pipelines: dict[str, CommunityPipeline] = {}\n"
        "    _SHARED_CACHE.get('warm')\n"),
    ("R5", "core/parallel.py",
        "def _pool_worker(tasks: Any, results: Any) -> None:\n",
        "_SHARED_CACHE: dict[str, Any] = {}\n\n\n"
        "def _pool_worker(tasks: Any, results: Any) -> None:\n"),
    ("R6", "core/streaming.py", "", (
        "\n\ndef _acc(x, acc=[]):\n"
        "    acc.append(x)\n"
        "    return acc\n"
    )),
    ("R7", "core/checkpoint.py", "", _SWALLOWED),
    ("R7", "runtime/rotation.py", "", _SWALLOWED),
    ("R8", "core/coappearance.py", "", (
        "\n\ndef _mean_level(arr):\n"
        "    return np.mean(arr)\n"
    )),
    ("R9", "ingest/frontier.py", "", (
        "\n\nimport time\n\n\ndef _arrival_stamp():\n"
        "    return time.monotonic()\n"
    )),
    # A writer whose key the paired loader never consumes.
    ("R11", "core/checkpoint.py", "", (
        "\n\ndef save_extra_state(stream):\n"
        '    return {"kept": stream.kept, "forgotten": stream.lost}\n'
        "\n\ndef load_extra_state(state):\n"
        '    return state["kept"]\n'
    )),
    ("R14", "runtime/supervisor.py", "", (
        "\n\ndef _refuse(reason):\n"
        "    raise RuntimeError(reason)\n"
    )),
]

EXPECTED_HITS = list(dict.fromkeys((rule, path) for rule, path, _, _ in SEEDED_BREAKS))


@pytest.fixture(scope="module")
def broken_tree_hits(tmp_path_factory):
    """``(rule, file)`` of every finding on a copy of ``src/repro`` with
    every seeded break applied, from one analyzer pass."""
    dest = tmp_path_factory.mktemp("broken") / "src" / "repro"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        dest,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for _, relpath, anchor, replacement in SEEDED_BREAKS:
        path = dest / relpath
        source = path.read_text(encoding="utf-8")
        if anchor:
            assert anchor in source, f"anchor gone from {relpath}"
            source = source.replace(anchor, replacement, 1)
        else:
            source += replacement
        path.write_text(source, encoding="utf-8")
    report = analyze_paths([str(dest)])
    assert not report.parse_failures, report.parse_failures
    return {
        (v.rule, Path(v.path).relative_to(dest).as_posix())
        for v in report.violations
    }


class TestAcceptanceBreakage:
    """Every kept rule catches a realistic break in the real tree — this is
    what makes the CI lint job a real gate."""

    @pytest.mark.parametrize(
        "rule,relpath",
        EXPECTED_HITS,
        ids=[f"{rule}-{Path(relpath).stem}" for rule, relpath in EXPECTED_HITS],
    )
    def test_seeded_break_is_flagged(self, broken_tree_hits, rule, relpath):
        assert (rule, relpath) in broken_tree_hits

    def test_each_break_trips_only_its_rule(self, broken_tree_hits):
        assert broken_tree_hits == set(EXPECTED_HITS)
