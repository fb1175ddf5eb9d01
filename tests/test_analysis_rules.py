"""Per-rule fixtures for repro.analysis: every rule has a positive case
(flagged), a negative case (clean), and a pragma-suppressed case."""

import textwrap

import pytest

from repro.analysis import ALL_RULES, RULES_BY_ID, analyze_source
from repro.analysis.rules import ProjectRule
from tests.conftest import REGISTERED_RULE_IDS

SRC = "src/repro/core/example.py"  # in scope for every path-scoped rule


def lint(source, relpath=SRC):
    return analyze_source(textwrap.dedent(source), relpath)


def rules_fired(source, relpath=SRC):
    return {v.rule for v in lint(source, relpath)}


class TestRegistry:
    def test_registry_is_pinned(self):
        assert len(ALL_RULES) == len(REGISTERED_RULE_IDS)
        assert set(RULES_BY_ID) == REGISTERED_RULE_IDS

    def test_rules_have_rationales(self):
        for rule in ALL_RULES:
            assert rule.rule_id and rule.title and rule.rationale


class TestR1UnorderedIteration:
    def test_for_loop_over_set_flagged(self):
        assert "R1" in rules_fired(
            """
            def f(graph):
                vertices = {1, 2, 3}
                for v in vertices:
                    graph.visit(v)
            """
        )

    def test_list_of_set_flagged(self):
        assert "R1" in rules_fired("order = list({3, 1, 2})\n")

    def test_dict_comprehension_over_set_call_flagged(self):
        assert "R1" in rules_fired(
            "labels = {x: 0 for x in set(data)}\n"
        )

    def test_sorted_iteration_clean(self):
        assert "R1" not in rules_fired(
            """
            def f(graph):
                vertices = {1, 2, 3}
                for v in sorted(vertices):
                    graph.visit(v)
            """
        )

    def test_order_insensitive_consumers_clean(self):
        assert "R1" not in rules_fired(
            """
            s = {1, 2, 3}
            n = len(s)
            top = max(s)
            total = sum(s)
            ordered = sorted(x + 1 for x in s)
            """
        )

    def test_membership_and_set_algebra_clean(self):
        assert "R1" not in rules_fired(
            """
            def f(a, b):
                merged = set(a) | set(b)
                return 3 in merged
            """
        )

    def test_noqa_suppresses(self):
        assert "R1" not in rules_fired(
            """
            def f(graph):
                vertices = {1, 2, 3}
                for v in vertices:  # repro: noqa[R1] visit order is irrelevant here
                    graph.mark(v)
            """
        )

    def test_tests_are_out_of_scope(self):
        source = "for v in {1, 2}:\n    print(v)\n"
        assert "R1" in rules_fired(source)
        assert "R1" not in rules_fired(source, "tests/test_example.py")


class TestR2FloatEquality:
    def test_float_literal_comparison_flagged(self):
        assert "R2" in rules_fired("ok = tau == 0.5\n")

    def test_float_call_comparison_flagged(self):
        assert "R2" in rules_fired("import numpy as np\nbad = np.mean(x) == y\n")

    def test_inferred_float_array_comparison_flagged(self):
        assert "R2" in rules_fired(
            """
            import numpy as np
            def f(raw):
                values = np.array(raw, dtype=np.float64)
                return values[0] != values[1]
            """
        )

    def test_int_comparison_clean(self):
        assert "R2" not in rules_fired("done = count == 3\nother = n != -1\n")

    def test_shape_comparison_clean(self):
        assert "R2" not in rules_fired("ok = a.shape == b.shape\n")

    def test_inequality_bound_clean(self):
        assert "R2" not in rules_fired("small = abs(a - b) <= 1e-9\n")

    def test_noqa_suppresses(self):
        assert "R2" not in rules_fired(
            "exact = x == 0.5  # repro: noqa[R2] sentinel compare\n"
        )

    def test_tests_are_out_of_scope(self):
        assert "R2" not in rules_fired(
            "assert value == 0.5\n", "tests/test_thing.py"
        )


class TestR3ModuleRandomState:
    def test_stdlib_random_import_flagged(self):
        assert "R3" in rules_fired("import random\n")

    def test_np_random_legacy_call_flagged(self):
        assert "R3" in rules_fired("import numpy as np\nnp.random.seed(0)\n")
        assert "R3" in rules_fired("import numpy as np\nx = np.random.rand(3)\n")

    def test_from_numpy_random_import_flagged(self):
        assert "R3" in rules_fired("from numpy.random import rand\n")

    def test_seeded_generator_clean(self):
        assert "R3" not in rules_fired(
            """
            import numpy as np
            def f(seed: int):
                rng = np.random.default_rng(seed)
                return rng.normal(size=3)
            """
        )

    def test_generator_annotation_clean(self):
        assert "R3" not in rules_fired(
            """
            import numpy as np
            def f(rng: np.random.Generator):
                return rng.integers(0, 10)
            """
        )

    def test_noqa_suppresses(self):
        assert "R3" not in rules_fired(
            "import random  # repro: noqa[R3] legacy shim\n"
        )


class TestR4WallClock:
    def test_time_time_flagged(self):
        assert "R4" in rules_fired("import time\nstamp = time.time()\n")

    def test_datetime_now_flagged(self):
        assert "R4" in rules_fired(
            "import datetime\nnow = datetime.datetime.now()\n"
        )

    def test_perf_counter_allowed(self):
        assert "R4" not in rules_fired("import time\nt0 = time.perf_counter()\n")

    def test_out_of_scope_module_clean(self):
        assert "R4" not in rules_fired(
            "import time\nstamp = time.time()\n", "src/repro/bench/example.py"
        )

    def test_noqa_suppresses(self):
        assert "R4" not in rules_fired(
            "import time\nstamp = time.time()  # repro: noqa[R4] log line only\n"
        )


class TestR5ParallelDispatch:
    def test_lambda_target_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp

            def start():
                return mp.Process(target=lambda: None)
            """
        )

    def test_nested_function_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp

            def start(queue):
                def work(q):
                    q.put(1)
                return mp.Process(target=work, args=(queue,))
            """
        )

    def test_bound_method_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp

            class Runner:
                def start(self, queue):
                    return mp.Process(target=self.work, args=(queue,))
            """
        )

    def test_worker_reading_mutable_global_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp

            _CACHE = {}

            def work(queue):
                queue.put(_CACHE.get(queue.get()))

            def start(queue):
                return mp.Process(target=work, args=(queue,))
            """
        )

    def test_worker_declaring_global_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp

            _TOTAL = 0

            def work(queue):
                global _TOTAL
                _TOTAL += queue.get()

            def start(queue):
                return mp.Process(target=work, args=(queue,))
            """
        )

    def test_module_level_pure_worker_clean(self):
        assert "R5" not in rules_fired(
            """
            import multiprocessing as mp

            _LIMIT = 16

            def work(tasks, results):
                results.put(min(tasks.get(), _LIMIT))

            def start(tasks, results):
                return mp.Process(target=work, args=(tasks, results))
            """
        )

    def test_context_process_target_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp

            class Pool:
                def __init__(self):
                    self._ctx = mp.get_context("spawn")

                def start(self):
                    return self._ctx.Process(target=lambda: None, daemon=True)
            """
        )

    def test_plain_map_builtin_ignored(self):
        assert "R5" not in rules_fired(
            "doubled = list(map(lambda x: x * 2, [1, 2]))\n"
        )

    def test_submit_and_thread_targets_ignored(self):
        assert "R5" not in rules_fired(
            """
            import threading

            def run(supervisor, sample):
                supervisor.submit(lambda: sample)
                return threading.Thread(target=lambda: None)
            """
        )

    def test_partial_of_lambda_flagged(self):
        assert "R5" in rules_fired(
            """
            import multiprocessing as mp
            from functools import partial

            def start():
                return mp.Process(target=partial(lambda x: x, 1))
            """
        )

    def test_noqa_suppresses(self):
        assert "R5" not in rules_fired(
            """
            import multiprocessing as mp

            def start():
                return mp.Process(target=lambda: None)  # repro: noqa[R5] fork only
            """
        )


class TestR6MutableDefaults:
    def test_list_default_flagged(self):
        assert "R6" in rules_fired("def f(acc=[]):\n    return acc\n")

    def test_dict_call_default_flagged(self):
        assert "R6" in rules_fired("def f(cache=dict()):\n    return cache\n")

    def test_kwonly_set_default_flagged(self):
        assert "R6" in rules_fired("def f(*, seen={1}):\n    return seen\n")

    def test_none_and_tuple_defaults_clean(self):
        assert "R6" not in rules_fired(
            "def f(acc=None, dims=(1, 2), name='x'):\n    return acc\n"
        )

    def test_applies_in_tests_too(self):
        assert "R6" in rules_fired(
            "def helper(acc=[]):\n    return acc\n", "tests/test_helper.py"
        )

    def test_noqa_suppresses(self):
        assert "R6" not in rules_fired(
            "def f(acc=[]):  # repro: noqa[R6] module-lifetime accumulator\n    return acc\n"
        )


class TestR7SwallowedExceptions:
    CHECKPOINT = "src/repro/core/checkpoint_helpers.py"

    def test_bare_except_flagged_everywhere_in_src(self):
        assert "R7" in rules_fired(
            """
            def f():
                try:
                    work()
                except:
                    raise
            """
        )

    def test_swallowed_broad_handler_flagged_on_state_path(self):
        assert "R7" in rules_fired(
            """
            def load(path):
                try:
                    return read(path)
                except Exception:
                    pass
            """,
            self.CHECKPOINT,
        )

    def test_swallowed_broad_handler_allowed_off_state_path(self):
        source = """
        def probe():
            try:
                return peek()
            except Exception:
                pass
        """
        assert "R7" not in rules_fired(source, "src/repro/evaluation/probe.py")

    def test_narrow_handler_clean_on_state_path(self):
        assert "R7" not in rules_fired(
            """
            def load(path):
                try:
                    return read(path)
                except FileNotFoundError:
                    return None
            """,
            self.CHECKPOINT,
        )

    def test_handled_broad_exception_clean(self):
        assert "R7" not in rules_fired(
            """
            def load(path):
                try:
                    return read(path)
                except Exception as error:
                    raise ValueError(f"corrupt checkpoint: {error}")
            """,
            self.CHECKPOINT,
        )

    def test_noqa_suppresses(self):
        assert "R7" not in rules_fired(
            """
            def f():
                try:
                    work()
                except:  # repro: noqa[R7] REPL convenience wrapper
                    raise
            """
        )


class TestR8NanDiscipline:
    PIPELINE = "src/repro/core/pipeline.py"

    def test_np_mean_flagged_in_degraded_module(self):
        assert "R8" in rules_fired(
            "import numpy as np\nmu = np.mean(window)\n", self.PIPELINE
        )

    def test_np_std_flagged(self):
        assert "R8" in rules_fired(
            "import numpy as np\ns = np.std(corr)\n", self.PIPELINE
        )

    def test_nan_aware_variant_clean(self):
        assert "R8" not in rules_fired(
            "import numpy as np\nmu = np.nanmean(window)\n", self.PIPELINE
        )

    def test_out_of_scope_module_clean(self):
        assert "R8" not in rules_fired(
            "import numpy as np\nmu = np.mean(window)\n",
            "src/repro/evaluation/range_metrics.py",
        )

    def test_noqa_with_reason_suppresses(self):
        assert "R8" not in rules_fired(
            "import numpy as np\n"
            "mu = np.mean(window)  # repro: noqa[R8] window validated finite above\n",
            self.PIPELINE,
        )


class TestR9IngestClock:
    FRONTIER = "src/repro/ingest/frontier.py"

    def test_wall_clock_flagged_in_ingest(self):
        assert "R9" in rules_fired(
            "import time\nnow = time.time()\n", self.FRONTIER
        )

    def test_monotonic_clock_flagged_in_ingest(self):
        assert "R9" in rules_fired(
            "import time\nmark = time.perf_counter()\n", self.FRONTIER
        )

    def test_naive_fromtimestamp_flagged(self):
        assert "R9" in rules_fired(
            "from datetime import datetime\n"
            "stamp = datetime.fromtimestamp(ts)\n",
            self.FRONTIER,
        )

    def test_utcfromtimestamp_always_flagged(self):
        assert "R9" in rules_fired(
            "from datetime import datetime, timezone\n"
            "stamp = datetime.utcfromtimestamp(ts)\n",
            self.FRONTIER,
        )

    def test_aware_fromtimestamp_clean(self):
        assert "R9" not in rules_fired(
            "from datetime import datetime, timezone\n"
            "stamp = datetime.fromtimestamp(ts, tz=timezone.utc)\n",
            self.FRONTIER,
        )

    def test_outside_ingest_clean(self):
        assert "R9" not in rules_fired(
            "import time\nmark = time.perf_counter()\n",
            "src/repro/bench/timing.py",
        )

    def test_fleet_scheduler_in_scope(self):
        # The fleet scheduler inherits the ingest clock contract: cycle
        # ordering and fairness must be replayable, never wall-clock-driven.
        assert "R9" in rules_fired(
            "import time\nnow = time.time()\n",
            "src/repro/fleet/scheduler.py",
        )
        assert "R9" in rules_fired(
            "import time\nmark = time.monotonic()\n",
            "src/repro/fleet/manager.py",
        )

    def test_noqa_with_reason_suppresses(self):
        assert "R9" not in rules_fired(
            "import time\n"
            "t = time.monotonic()  # repro: noqa[R9] diagnostics only\n",
            self.FRONTIER,
        )


class TestPragmas:
    def test_bare_noqa_suppresses_all_rules(self):
        assert (
            rules_fired("def f(acc=[]):  # repro: noqa\n    return acc\n")
            == set()
        )

    def test_noqa_for_other_rule_does_not_suppress(self):
        assert "R6" in rules_fired(
            "def f(acc=[]):  # repro: noqa[R1]\n    return acc\n"
        )

    def test_multiple_codes(self):
        source = (
            "import numpy as np\n"
            "def f(acc=[], t=0.5):  # repro: noqa[R6, R2]\n"
            "    return acc if t == 0.5 else None\n"
        )
        fired = rules_fired(source)
        assert "R6" not in fired


@pytest.mark.parametrize(
    "rule_id",
    sorted(rule.rule_id for rule in ALL_RULES if not isinstance(rule, ProjectRule)),
)
def test_every_rule_has_a_firing_fixture(rule_id):
    """Meta-test: every per-file rule in the registry has a fixture that
    fires it (project rules are exercised in test_analysis_project.py)."""
    fixtures = {
        "R1": ("vals = list({1, 2, 3})\n", SRC),
        "R2": ("ok = x == 0.5\n", SRC),
        "R3": ("import random\n", SRC),
        "R4": ("import time\nt = time.time()\n", SRC),
        "R5": (
            "import multiprocessing as mp\n"
            "p = mp.Process(target=lambda: None)\n",
            SRC,
        ),
        "R6": ("def f(a=[]):\n    return a\n", SRC),
        "R7": ("try:\n    x()\nexcept:\n    raise\n", SRC),
        "R8": ("import numpy as np\nm = np.mean(w)\n", "src/repro/core/pipeline.py"),
        "R9": (
            "import time\nnow = time.time()\n",
            "src/repro/ingest/frontier.py",
        ),
    }
    source, relpath = fixtures[rule_id]
    assert rule_id in {v.rule for v in analyze_source(source, relpath)}
