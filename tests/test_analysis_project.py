"""Whole-program analysis tests: the project index / call graph, the
cross-file rules R11-R14, the SARIF emitter, and the pragma-parser
regressions.

Each rule gets a miniature on-disk project (packages with real
``__init__.py`` chains) because the behaviour under test is exactly the
cross-file part: pairing a writer in one module with a reader in another,
resolving a call through an import alias.
"""

import ast
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, analyze_paths
from repro.analysis.callgraph import resolve_call
from repro.analysis.engine import analyze_paths as engine_analyze_paths
from repro.analysis.engine import parse_pragmas_source
from repro.analysis.project import (
    build_project,
    module_name_for,
    summarize_module,
)
from repro.analysis.sarif import sarif_report

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict) -> Path:
    """Materialise ``{relpath: source}`` under ``root`` (dedented)."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint_tree(root: Path, rules=ALL_RULES):
    return analyze_paths([str(root)], rules, root=str(root))


def findings(root: Path, rule_id: str, **kwargs):
    report = lint_tree(root, **kwargs)
    assert not report.parse_failures, report.parse_failures
    return [v for v in report.violations if v.rule == rule_id]


def fixture_project(root: Path):
    """Build a ProjectContext over every .py file under ``root``."""
    summaries = {}
    for path in sorted(root.rglob("*.py")):
        relpath = path.as_posix()
        module, is_package = module_name_for(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        summaries[relpath] = summarize_module(tree, module, is_package)
    return build_project(summaries, {}, {})


# --------------------------------------------------------------------- #
# Project index and call-graph resolution
# --------------------------------------------------------------------- #


class TestCallGraphResolution:
    def test_local_call_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                def helper():
                    return 1

                def entry():
                    return helper()
                """,
        })
        project = fixture_project(tmp_path)
        relpath = (tmp_path / "pkg/a.py").as_posix()
        assert resolve_call(project, relpath, "entry", "helper") == "pkg.a:helper"

    def test_imported_alias_resolves_cross_module(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                def target():
                    return 1
                """,
            "pkg/b.py": """\
                from .a import target as t

                def caller():
                    return t()
                """,
        })
        project = fixture_project(tmp_path)
        relpath = (tmp_path / "pkg/b.py").as_posix()
        assert resolve_call(project, relpath, "caller", "t") == "pkg.a:target"

    def test_reexport_chain_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "from .impl import thing\n",
            "pkg/impl.py": """\
                def thing():
                    return 1
                """,
            "pkg/use.py": """\
                from . import thing

                def caller():
                    return thing()
                """,
        })
        project = fixture_project(tmp_path)
        relpath = (tmp_path / "pkg/use.py").as_posix()
        assert project.resolve(relpath, "thing") == "pkg.impl.thing"
        assert resolve_call(project, relpath, "caller", "thing") == "pkg.impl:thing"

    def test_method_self_call_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                class Box:
                    def inner(self):
                        return 1

                    def outer(self):
                        return self.inner()
                """,
        })
        project = fixture_project(tmp_path)
        relpath = (tmp_path / "pkg/a.py").as_posix()
        resolved = resolve_call(project, relpath, "Box.outer", "self.inner")
        assert resolved == "pkg.a:Box.inner"

    def test_transitive_callees_cross_module(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                from .b import middle

                def entry():
                    return middle()
                """,
            "pkg/b.py": """\
                def leaf():
                    return 1

                def middle():
                    return leaf()
                """,
        })
        project = fixture_project(tmp_path)
        callees = project.callgraph.transitive_callees("pkg.a:entry")
        assert "pkg.b:middle" in callees
        assert "pkg.b:leaf" in callees


# --------------------------------------------------------------------- #
# R11 — checkpoint save/load key symmetry
# --------------------------------------------------------------------- #

_SYMMETRIC = {
    "pkg/__init__.py": "",
    "pkg/state.py": """\
        class Engine:
            def to_state(self):
                return {"alpha": self.alpha, "beta": self.beta}

            def from_state(self, state):
                self.alpha = state["alpha"]
                self.beta = state.get("beta", 0.0)
        """,
}


class TestR11CheckpointContract:
    def test_symmetric_pair_is_clean(self, tmp_path):
        write_tree(tmp_path, _SYMMETRIC)
        assert findings(tmp_path, "R11") == []

    def test_orphaned_write_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                class Engine:
                    def to_state(self):
                        return {"alpha": 1, "dropped": 2}

                    def from_state(self, state):
                        self.alpha = state["alpha"]
                """,
        })
        hits = findings(tmp_path, "R11")
        assert len(hits) == 1
        assert "'dropped'" in hits[0].message
        assert "never consumed" in hits[0].message

    def test_hard_read_of_unwritten_key_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                class Engine:
                    def to_state(self):
                        return {"alpha": 1}

                    def from_state(self, state):
                        self.alpha = state["alpha"]
                        self.beta = state["beta"]
                """,
        })
        hits = findings(tmp_path, "R11")
        assert len(hits) == 1
        assert "'beta'" in hits[0].message
        assert "KeyError" in hits[0].message

    def test_cross_file_save_load_pair(self, tmp_path):
        """save_*/load_* in different modules still pair up (global-unique
        fallback) — the orphaned key is found across the file boundary."""
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/writer.py": """\
                def save_snapshot(engine):
                    return {"kept": engine.kept, "lost": engine.lost}
                """,
            "pkg/reader.py": """\
                def load_snapshot(state):
                    return state["kept"]
                """,
        })
        hits = findings(tmp_path, "R11")
        assert len(hits) == 1
        assert "'lost'" in hits[0].message
        assert hits[0].path.endswith("writer.py")

    def test_callee_reads_count_via_call_graph(self, tmp_path):
        """Keys consumed inside a same-module helper the reader calls are
        part of the reader's contract (closure expansion)."""
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                def save_snapshot(engine):
                    return {"alpha": 1, "beta": 2}

                def _apply_beta(engine, state):
                    engine.beta = state["beta"]

                def load_snapshot(engine, state):
                    engine.alpha = state["alpha"]
                    _apply_beta(engine, state)
                """,
        })
        assert findings(tmp_path, "R11") == []

    def test_thin_wrapper_loader_pairs_by_name_not_by_fallback(self, tmp_path):
        """An exact-name loader that only delegates (no key facts of its
        own) still claims its writer; an unrelated loader in the same
        module must not be mis-paired with it."""
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                def save_snapshot(engine):
                    return {"kept": engine.kept}

                def load_snapshot(state):
                    return _apply(state)

                def _apply(state):
                    return state["kept"]

                def save_manifest(path):
                    return {"format": "m", "shards": 4}

                def load_manifest(state):
                    return (state["format"], state["shards"])
                """,
        })
        assert findings(tmp_path, "R11") == []

    def test_const_loop_keys_are_enumerated(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                def save_arrays(engine):
                    out = {}
                    for name in ("baseline", "sums"):
                        out[name] = getattr(engine, name)
                    out["count"] = engine.count
                    return out

                def load_arrays(engine, state):
                    for name in ("baseline", "sums"):
                        setattr(engine, name, state[name])
                    engine.count = state["count"]
                """,
        })
        assert findings(tmp_path, "R11") == []


_MIGRATION_KEYS = ("engine", "corr_refresh", "n_jobs", "louvain_verify")

_MIGRATION_TEMPLATE = """\
    def save_checkpoint(stream):
        # Version-1 layout: the migration keys did not exist yet.
        return {{"version": 1, "payload": stream.payload}}

    def load_checkpoint(state):
        version = state["version"]
        if version == 1:
    {setdefaults}
        return (
            state["payload"],
            state["engine"],
            state["corr_refresh"],
            state["n_jobs"],
            state["louvain_verify"],
        )
    """


def _migration_source(drop: str | None = None) -> str:
    lines = [
        f'        state.setdefault("{key}", None)'
        for key in _MIGRATION_KEYS
        if key != drop
    ]
    return _MIGRATION_TEMPLATE.format(setdefaults="\n".join(lines))


class TestR11VersionCoverage:
    """R11 provably covers the checkpoint versions: with every migration
    default in place the fixture is clean, and deleting ANY single one
    turns a hard read of an unwritten (v1) key into a finding."""

    def test_full_migration_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/ckpt.py": _migration_source(),
        })
        assert findings(tmp_path, "R11") == []

    @pytest.mark.parametrize("key", _MIGRATION_KEYS)
    def test_deleting_any_migration_default_trips_r11(self, tmp_path, key):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/ckpt.py": _migration_source(drop=key),
        })
        hits = findings(tmp_path, "R11")
        assert len(hits) == 1
        assert f"'{key}'" in hits[0].message


# --------------------------------------------------------------------- #
# R12 — lock/queue acquisition-order cycles
# --------------------------------------------------------------------- #


class TestR12LockOrder:
    def test_consistent_order_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def first():
                    with A:
                        with B:
                            pass

                def second():
                    with A:
                        with B:
                            pass
                """,
        })
        assert findings(tmp_path, "R12") == []

    def test_opposite_orders_in_one_module_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def ab():
                    with A:
                        with B:
                            pass

                def ba():
                    with B:
                        with A:
                            pass
                """,
        })
        hits = findings(tmp_path, "R12")
        assert hits, "AB/BA inversion not reported"
        assert any("cycle" in v.message for v in hits)

    def test_cross_module_cycle_via_call_graph(self, tmp_path):
        """alpha holds its lock and calls into beta (and vice versa): the
        cycle only exists through the resolved call graph."""
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/alpha.py": """\
                import threading

                from . import beta

                A = threading.Lock()

                def grab():
                    with A:
                        pass

                def outer():
                    with A:
                        beta.grab()
                """,
            "pkg/beta.py": """\
                import threading

                from . import alpha

                B = threading.Lock()

                def grab():
                    with B:
                        pass

                def outer():
                    with B:
                        alpha.grab()
                """,
        })
        hits = findings(tmp_path, "R12")
        assert hits, "cross-module acquisition cycle not reported"
        assert any("pkg.alpha.A" in v.message for v in hits)
        assert any("pkg.beta.B" in v.message for v in hits)

    def test_self_reacquire_of_plain_lock_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                A = threading.Lock()

                def twice():
                    with A:
                        with A:
                            pass
                """,
        })
        hits = findings(tmp_path, "R12")
        assert len(hits) == 1
        assert "self-deadlock" in hits[0].message

    def test_self_reacquire_of_rlock_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                A = threading.RLock()

                def twice():
                    with A:
                        with A:
                            pass
                """,
        })
        assert findings(tmp_path, "R12") == []

    def test_real_runtime_has_no_cycles(self):
        """Acceptance: R12 reports zero lock-order cycles on the real
        codebase (repro.runtime + repro.core.parallel)."""
        report = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        assert [v for v in report.violations if v.rule == "R12"] == []


# --------------------------------------------------------------------- #
# R13 — config / CLI / docs drift
# --------------------------------------------------------------------- #


class TestR13ConfigDrift:
    def test_unknown_keyword_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/config.py": """\
                from dataclasses import dataclass

                @dataclass
                class Cfg:
                    alpha: int = 1
                    beta: float = 2.0
                """,
            "pkg/use.py": """\
                from .config import Cfg

                def make():
                    return Cfg(alpha=2, gamma=3)
                """,
        })
        hits = findings(tmp_path, "R13")
        assert len(hits) == 1
        assert "'gamma'" in hits[0].message
        assert hits[0].path.endswith("use.py")

    def test_known_keywords_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/config.py": """\
                from dataclasses import dataclass

                @dataclass
                class Cfg:
                    alpha: int = 1
                """,
            "pkg/use.py": """\
                from .config import Cfg

                def make():
                    return Cfg(alpha=2)
                """,
        })
        assert findings(tmp_path, "R13") == []

    def test_dead_flag_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cli.py": """\
                import argparse

                def main():
                    parser = argparse.ArgumentParser()
                    parser.add_argument("--used-flag", type=int)
                    parser.add_argument("--dead-flag", type=int)
                    args = parser.parse_args()
                    return args.used_flag
                """,
        })
        hits = findings(tmp_path, "R13")
        assert len(hits) == 1
        assert "--dead-flag" in hits[0].message

    def test_args_read_without_flag_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cli.py": """\
                import argparse

                def main():
                    parser = argparse.ArgumentParser()
                    parser.add_argument("--real", type=int)
                    args = parser.parse_args()
                    return args.real + args.phantom
                """,
        })
        hits = findings(tmp_path, "R13")
        assert len(hits) == 1
        assert "args.phantom" in hits[0].message

    def test_subparser_dest_is_not_dead(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cli.py": """\
                import argparse

                def main():
                    parser = argparse.ArgumentParser()
                    sub = parser.add_subparsers(dest="command")
                    sub.add_parser("run")
                    args = parser.parse_args()
                    return args.command
                """,
        })
        assert findings(tmp_path, "R13") == []

    def test_undocumented_cadconfig_field_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "README.md": "# Fixture\n\nKnobs: `alpha` is documented here.\n",
            "pkg/__init__.py": "",
            "pkg/config.py": """\
                from dataclasses import dataclass

                @dataclass
                class CADConfig:
                    alpha: int = 1
                    hidden_knob: float = 0.5
                """,
        })
        hits = findings(tmp_path, "R13")
        assert len(hits) == 1
        assert "hidden_knob" in hits[0].message

    def test_dashed_doc_mention_counts(self, tmp_path):
        write_tree(tmp_path, {
            "README.md": "# Fixture\n\nUse `alpha` or `--hidden-knob`.\n",
            "pkg/__init__.py": "",
            "pkg/config.py": """\
                from dataclasses import dataclass

                @dataclass
                class CADConfig:
                    alpha: int = 1
                    hidden_knob: float = 0.5
                """,
        })
        assert findings(tmp_path, "R13") == []


# --------------------------------------------------------------------- #
# R14 — exception-taxonomy discipline
# --------------------------------------------------------------------- #

_TAXONOMY = {
    "pkg/__init__.py": "",
    "pkg/runtime/__init__.py": "",
    "pkg/runtime/errors.py": """\
        class BaseError(Exception):
            pass

        class WorkerError(BaseError):
            pass
        """,
}


class TestR14ExceptionTaxonomy:
    def test_builtin_raise_in_runtime_flagged(self, tmp_path):
        write_tree(tmp_path, dict(_TAXONOMY, **{
            "pkg/runtime/worker.py": """\
                def run(n):
                    if n < 0:
                        raise ValueError(f"bad n: {n}")
                    return n
                """,
        }))
        hits = findings(tmp_path, "R14")
        assert len(hits) == 1
        assert "ValueError" in hits[0].message

    def test_taxonomy_raise_is_clean(self, tmp_path):
        write_tree(tmp_path, dict(_TAXONOMY, **{
            "pkg/runtime/worker.py": """\
                from .errors import WorkerError

                def run(n):
                    if n < 0:
                        raise WorkerError(f"bad n: {n}")
                    return n
                """,
        }))
        assert findings(tmp_path, "R14") == []

    def test_subclass_defined_outside_errors_is_clean(self, tmp_path):
        """The taxonomy closes over subclasses: deriving locally from a
        taxonomy class keeps the raise typed."""
        write_tree(tmp_path, dict(_TAXONOMY, **{
            "pkg/runtime/worker.py": """\
                from .errors import WorkerError

                class LocalError(WorkerError):
                    pass

                def run(n):
                    if n < 0:
                        raise LocalError(f"bad n: {n}")
                    return n
                """,
        }))
        assert findings(tmp_path, "R14") == []

    def test_not_implemented_error_allowed(self, tmp_path):
        write_tree(tmp_path, dict(_TAXONOMY, **{
            "pkg/runtime/worker.py": """\
                def run(n):
                    raise NotImplementedError
                """,
        }))
        assert findings(tmp_path, "R14") == []

    def test_fleet_package_in_scope(self, tmp_path):
        # The fleet runtime joined the taxonomy contract alongside
        # runtime/ and ingest/.
        write_tree(tmp_path, dict(_TAXONOMY, **{
            "pkg/fleet/__init__.py": "",
            "pkg/fleet/manager.py": """\
                def route(tenant):
                    if not tenant:
                        raise KeyError(tenant)
                    return tenant
                """,
        }))
        hits = findings(tmp_path, "R14")
        assert len(hits) == 1
        assert "KeyError" in hits[0].message

    def test_outside_runtime_is_out_of_scope(self, tmp_path):
        write_tree(tmp_path, dict(_TAXONOMY, **{
            "pkg/other.py": """\
                def run(n):
                    if n < 0:
                        raise ValueError(f"bad n: {n}")
                    return n
                """,
        }))
        assert findings(tmp_path, "R14") == []

    def test_runtime_errors_derive_from_builtins(self):
        """The real migration keeps pre-taxonomy except-clauses working."""
        from repro.runtime.errors import ConfigurationError, QueueEmptyError

        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(QueueEmptyError, IndexError)


# --------------------------------------------------------------------- #
# R5 on the call graph — cross-module dispatch targets
# --------------------------------------------------------------------- #


class TestR5CrossModule:
    def test_imported_worker_with_global_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/workers.py": """\
                COUNTER = []

                def bad_worker(chunk):
                    global COUNTER
                    COUNTER = [chunk]
                    return chunk
                """,
            "pkg/driver.py": """\
                from .workers import bad_worker

                def dispatch(pool, chunks):
                    return [pool.submit(bad_worker, c) for c in chunks]
                """,
        })
        hits = [
            v
            for v in findings(tmp_path, "R5")
            if v.path.endswith("driver.py")
        ]
        assert hits, "cross-module worker global not reported at dispatch site"
        assert any("global" in v.message for v in hits)

    def test_clean_imported_worker_passes(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/workers.py": """\
                def good_worker(chunk):
                    return chunk * 2
                """,
            "pkg/driver.py": """\
                from .workers import good_worker

                def dispatch(pool, chunks):
                    return [pool.submit(good_worker, c) for c in chunks]
                """,
        })
        assert [
            v
            for v in findings(tmp_path, "R5")
            if v.path.endswith("driver.py")
        ] == []


# --------------------------------------------------------------------- #
# SARIF emitter
# --------------------------------------------------------------------- #


class TestSarif:
    def test_report_structure(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                def save_snapshot(engine):
                    return {"kept": 1, "lost": 2}

                def load_snapshot(state):
                    return state["kept"]
                """,
        })
        report = lint_tree(root)
        new = [v for v in report.violations if v.rule == "R11"]
        assert new
        sarif = sarif_report(new, [], ALL_RULES)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {f"R{i}" for i in range(1, 15)} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R11"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("pkg/state.py")
        assert location["region"]["startLine"] == new[0].line


# --------------------------------------------------------------------- #
# Pragma parser regressions
# --------------------------------------------------------------------- #


class TestPragmaRobustness:
    def test_multiple_pragmas_on_one_line_merge(self):
        source = "x = 1  # repro: noqa[R1] ... # repro: noqa[R2]\n"
        pragmas = parse_pragmas_source(source)
        assert pragmas[1] == frozenset({"R1", "R2"})

    def test_bare_noqa_dominates_scoped(self):
        source = "x = 1  # repro: noqa # repro: noqa[R2]\n"
        pragmas = parse_pragmas_source(source)
        assert pragmas[1] is None

    def test_pragma_inside_string_literal_ignored(self):
        source = 'x = "text with # repro: noqa[R1] inside"\n'
        assert parse_pragmas_source(source) == {}

    def test_pragma_after_string_still_applies(self):
        source = 'x = "# repro: noqa[R9]"  # repro: noqa[R1]\n'
        pragmas = parse_pragmas_source(source)
        assert pragmas[1] == frozenset({"R1"})

    def test_string_pragma_does_not_suppress(self, tmp_path):
        """End-to-end: a pragma-looking string must not hide a finding."""
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/code.py": """\
                def f(items):
                    marker = "# repro: noqa[R1]"
                    out = []
                    for x in set(items):
                        out.append(x)
                    return marker, out
                """,
        })
        assert findings(root, "R1"), "string literal suppressed a finding"


# --------------------------------------------------------------------- #
# Acceptance breakage: seeding a real save/load mismatch
# --------------------------------------------------------------------- #


class TestAcceptanceBreakageR11:
    def test_seeded_key_mismatch_in_real_tree_is_caught(self, tmp_path):
        """Add a save/load pair to the real checkpoint module whose writer
        emits a key the loader never consumes: the gate must trip."""
        dest = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", dest)
        checkpoint = dest / "core" / "checkpoint.py"
        source = checkpoint.read_text(encoding="utf-8")
        source += (
            "\n\ndef save_extra_state(stream):\n"
            '    return {"kept": stream.kept, "forgotten": stream.lost}\n'
            "\n\ndef load_extra_state(state):\n"
            '    return state["kept"]\n'
        )
        checkpoint.write_text(source, encoding="utf-8")
        report = engine_analyze_paths([str(dest)])
        hits = [
            v
            for v in report.violations
            if v.rule == "R11" and v.path.endswith("checkpoint.py")
            and "'forgotten'" in v.message
        ]
        assert hits, "seeded save/load key mismatch was not caught"
