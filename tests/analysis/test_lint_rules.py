"""Fixture-driven rule tests: per rule, snippets that must fire and
sanctioned patterns that must pass.

Fixtures live as inline strings (never as real files under ``tests/``)
so the repository's own gating ``repro lint tests/`` run does not trip
over them.
"""

import textwrap

from repro.analysis.lint import lint_source


def findings_for(code: str, rule: str | None = None):
    found = lint_source(textwrap.dedent(code))
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


class TestREP101NakedRNG:
    def test_module_level_draw_fires(self):
        found = findings_for(
            """
            import numpy as np

            def jitter(x):
                return x + np.random.rand()
            """,
            "REP101",
        )
        assert len(found) == 1
        assert "numpy.random.rand" in found[0].message

    def test_global_seed_fires(self):
        assert findings_for(
            "import numpy as np\nnp.random.seed(0)\n", "REP101"
        )

    def test_stdlib_random_fires(self):
        found = findings_for(
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            "REP101",
        )
        assert len(found) == 1

    def test_stdlib_from_import_fires(self):
        assert findings_for(
            "from random import shuffle\nshuffle([1, 2])\n", "REP101"
        )

    def test_unkeyed_default_rng_fires(self):
        found = findings_for(
            "import numpy as np\nrng = np.random.default_rng()\n", "REP101"
        )
        assert len(found) == 1
        assert "un-keyed" in found[0].message

    def test_none_seed_fires(self):
        assert findings_for(
            "import numpy as np\nrng = np.random.default_rng(None)\n",
            "REP101",
        )

    def test_keyed_default_rng_passes(self):
        assert not findings_for(
            """
            import numpy as np

            SERVE_STREAM_TAG = 7

            def stream(seed, client_id):
                return np.random.default_rng([seed, SERVE_STREAM_TAG, client_id])
            """,
            "REP101",
        )

    def test_generator_method_calls_pass(self):
        # Draws *from a keyed stream object* are the sanctioned pattern.
        assert not findings_for(
            """
            import numpy as np

            def draw(rng: np.random.Generator):
                return rng.normal(size=3)
            """,
            "REP101",
        )

    def test_from_import_default_rng_keyed_passes(self):
        assert not findings_for(
            "from numpy.random import default_rng\nr = default_rng([0, 1])\n",
            "REP101",
        )


class TestREP102WallClock:
    def test_time_time_fires(self):
        found = findings_for(
            "import time\nstamp = time.time()\n", "REP102"
        )
        assert len(found) == 1

    def test_perf_counter_from_import_fires(self):
        assert findings_for(
            "from time import perf_counter\nt0 = perf_counter()\n", "REP102"
        )

    def test_datetime_now_fires(self):
        assert findings_for(
            "from datetime import datetime\nwhen = datetime.now()\n",
            "REP102",
        )

    def test_datetime_module_form_fires(self):
        assert findings_for(
            "import datetime\nwhen = datetime.datetime.utcnow()\n", "REP102"
        )

    def test_virtual_clock_passes(self):
        # The sanctioned pattern: all latencies in virtual ticks.
        assert not findings_for(
            """
            def latency_ticks(arrive_tick, done_tick):
                return done_tick - arrive_tick
            """,
            "REP102",
        )

    def test_waivered_measurement_seam_passes(self):
        code = (
            "import time\n"
            "t0 = time.perf_counter()  "
            "# repro: allow[REP102] timing harness\n"
        )
        assert not findings_for(code, "REP102")


class TestREP103ShardJobs:
    def test_lambda_to_submit_fires(self):
        found = findings_for(
            """
            def run(executor, xs):
                return [executor.submit(lambda x: x + 1, x) for x in xs]
            """,
            "REP103",
        )
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_nested_def_fires(self):
        found = findings_for(
            """
            def run(executor, xs):
                def job(x):
                    return x + 1
                return [executor.submit(job, x) for x in xs]
            """,
            "REP103",
        )
        assert len(found) == 1
        assert "job" in found[0].message

    def test_bound_method_fires(self):
        found = findings_for(
            """
            class Runner:
                def go(self, executor, shard):
                    return executor.submit(self.execute, shard)
            """,
            "REP103",
        )
        assert len(found) == 1
        assert "instance" in found[0].message

    def test_lambda_to_pool_map_fires(self):
        assert findings_for(
            """
            def run(pool, xs):
                return list(pool.map(lambda x: x * 2, xs))
            """,
            "REP103",
        )

    def test_module_level_job_passes(self):
        assert not findings_for(
            """
            def _execute_shard(shard):
                return shard

            def run(executor, shards):
                return [executor.submit(_execute_shard, s) for s in shards]
            """,
            "REP103",
        )

    def test_partial_of_module_level_passes(self):
        assert not findings_for(
            """
            import functools

            def _job(x, y):
                return x + y

            def run(executor):
                return executor.submit(functools.partial(_job, 1), 2)
            """,
            "REP103",
        )

    def test_partial_of_lambda_fires(self):
        assert findings_for(
            """
            import functools

            def run(executor):
                return executor.submit(functools.partial(lambda x: x, 1))
            """,
            "REP103",
        )

    def test_lambda_to_shards_map_fires(self):
        found = findings_for(
            """
            def run(shards, runner, parts):
                return shards.map(lambda r, p: r.go(p), runner, parts)
            """,
            "REP103",
        )
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_nested_def_to_shards_map_fires(self):
        found = findings_for(
            """
            def run(shards, runner, parts):
                def job(shared, part):
                    return shared.go(part)
                return shards.map(job, runner, parts)
            """,
            "REP103",
        )
        assert len(found) == 1
        assert "job" in found[0].message

    def test_bound_method_to_shards_map_fires(self):
        found = findings_for(
            """
            class Runner:
                def go(self, sharding, parts):
                    return sharding.map(self.execute, self, parts)
            """,
            "REP103",
        )
        assert len(found) == 1
        assert "instance" in found[0].message

    def test_lambda_as_job_keyword_fires(self):
        assert findings_for(
            """
            def run(shards, parts):
                return shards.map(job=lambda s, p: p, shared=None, parts=parts)
            """,
            "REP103",
        )

    def test_module_level_job_to_shards_map_passes(self):
        assert not findings_for(
            """
            def _execute_shard(runner, shard):
                return runner.go(shard)

            def run(shards, runner, parts):
                return shards.map(_execute_shard, runner, parts)
            """,
            "REP103",
        )

    def test_non_pool_map_ignored(self):
        # ``.map`` on something that is not an executor/pool is not a
        # dispatch seam.
        assert not findings_for(
            """
            def rename(frame):
                return frame.map(lambda v: v + 1)
            """,
            "REP103",
        )


class TestREP104UnorderedReductions:
    def test_sum_over_set_fires(self):
        assert findings_for(
            "def f(xs):\n    return sum(set(xs))\n", "REP104"
        )

    def test_sum_over_dict_values_fires(self):
        found = findings_for(
            "def f(d):\n    return sum(d.values())\n", "REP104"
        )
        assert len(found) == 1

    def test_sum_generator_over_items_fires(self):
        assert findings_for(
            "def f(d):\n    return sum(v for _, v in d.items())\n", "REP104"
        )

    def test_fsum_over_values_fires(self):
        assert findings_for(
            "import math\n\ndef f(d):\n    return math.fsum(d.values())\n",
            "REP104",
        )

    def test_sum_over_sorted_items_passes(self):
        assert not findings_for(
            "def f(d):\n    return sum(v for _, v in sorted(d.items()))\n",
            "REP104",
        )

    def test_sum_over_list_passes(self):
        assert not findings_for(
            "def f(xs):\n    return sum(x * 2 for x in xs)\n", "REP104"
        )

    def test_unsorted_glob_fires(self):
        found = findings_for(
            "import glob\n\ndef f():\n    return glob.glob('*.npz')\n",
            "REP104",
        )
        assert len(found) == 1
        assert "filesystem order" in found[0].message

    def test_sorted_glob_passes(self):
        assert not findings_for(
            "import glob\n\ndef f():\n    return sorted(glob.glob('*.npz'))\n",
            "REP104",
        )

    def test_sorted_path_glob_passes(self):
        assert not findings_for(
            """
            def f(root):
                return sorted(root.glob("*.npz"))
            """,
            "REP104",
        )

    def test_accumulation_loop_over_items_fires(self):
        assert findings_for(
            """
            def merge(totals, shard):
                for name, t in shard.items():
                    totals[name] += t
            """,
            "REP104",
        )

    def test_accumulation_loop_over_sorted_items_passes(self):
        assert not findings_for(
            """
            def merge(totals, shard):
                for name, t in sorted(shard.items()):
                    totals[name] += t
            """,
            "REP104",
        )

    def test_non_accumulating_dict_loop_passes(self):
        assert not findings_for(
            """
            def render(d):
                rows = []
                for name, value in d.items():
                    rows.append((name, value))
                return rows
            """,
            "REP104",
        )


SPEC_FIXTURE = """
_SECTIONS = {{
    "dataset": DatasetSection,
}}


class NoiseSection:
    bit_depth: int | None = None


class DatasetSection:
    preset: str = "ci"
    fps: float = 120.0
    seed: int = 0
    batched: bool = False
    noise: NoiseSection = None


class ExperimentSpec:
    workload: str = "evaluate"
    dataset: DatasetSection = None
    {extra_field}

    def validate(self):
        d = self.dataset
        if d.preset not in ("ci", "paper"):
            raise ValueError("dataset.preset")
        {validation}
        return self
"""


def spec_findings(extra_field="", validation="pass"):
    return findings_for(
        SPEC_FIXTURE.format(extra_field=extra_field, validation=validation),
        "REP106",
    )


class TestREP106SpecDrift:
    def test_unvalidated_fields_fire(self):
        found = spec_findings()
        messages = [f.message for f in found]
        # fps and seed are never touched by validate(); preset is.
        assert any("dataset.fps" in m for m in messages)
        assert any("dataset.seed" in m for m in messages)
        assert not any("dataset.preset" in m for m in messages)

    def test_bool_fields_exempt(self):
        assert not any(
            "batched" in f.message for f in spec_findings()
        )

    def test_nested_section_recurses(self):
        assert any(
            "dataset.noise.bit_depth" in f.message for f in spec_findings()
        )

    def test_dotted_string_coverage_passes(self):
        found = spec_findings(
            validation=(
                'self._require("dataset.fps", d.fps > 0)\n'
                '        self._require("dataset.seed", d.seed >= 0)\n'
                '        self._require("dataset.noise.bit_depth", True)'
            )
        )
        assert not found

    def test_attribute_read_coverage_passes(self):
        found = spec_findings(
            validation=(
                "assert d.fps > 0\n"
                "        assert d.seed >= 0\n"
                "        assert d.noise.bit_depth is None"
            )
        )
        assert not found

    def test_section_missing_from_sections_map_fires(self):
        found = spec_findings(extra_field="sensor: NoiseSection = None")
        assert any(
            "_SECTIONS" in f.message and "'sensor'" in f.message
            for f in found
        )

    def test_module_without_spec_ignored(self):
        assert not findings_for(
            "class Foo:\n    x: int = 1\n", "REP106"
        )


class TestREP107StoreKeys:
    def test_repr_in_store_put_fires(self):
        found = findings_for(
            """
            def save(store, pipeline, value):
                store.put(("pipeline", repr(pipeline)), value)
            """,
            "REP107",
        )
        assert len(found) == 1
        assert "repr()" in found[0].message

    def test_id_in_store_get_fires(self):
        found = findings_for(
            """
            def load(store, pipeline):
                return store.get(("pipeline", id(pipeline)))
            """,
            "REP107",
        )
        assert len(found) == 1
        assert "id()" in found[0].message

    def test_hash_in_store_contains_fires(self):
        assert findings_for(
            """
            def probe(store, obj):
                return store.contains(("x", hash(obj)))
            """,
            "REP107",
        )

    def test_str_of_object_in_key_fires(self):
        found = findings_for(
            """
            def save(artifact_store, dataset, value):
                artifact_store.put(("dataset", str(dataset)), value)
            """,
            "REP107",
        )
        assert len(found) == 1
        assert "str(<object>)" in found[0].message

    def test_fstring_repr_conversion_fires(self):
        found = findings_for(
            """
            def save(store, obj, value):
                store.put(("x", f"{obj!r}"), value)
            """,
            "REP107",
        )
        assert len(found) == 1
        assert "!r" in found[0].message

    def test_store_digest_function_seam_fires(self):
        from textwrap import dedent

        found = findings_for(
            dedent(
                """
                from repro.store import store_digest

                def key_of(obj):
                    return store_digest(("x", repr(obj)))
                """
            ),
            "REP107",
        )
        assert len(found) == 1

    def test_keyword_key_argument_fires(self):
        assert findings_for(
            """
            def save(store, obj, value):
                store.put(key=("x", id(obj)), value=value)
            """,
            "REP107",
        )

    def test_hash_derived_key_passes(self):
        assert not findings_for(
            """
            def save(store, spec, value):
                key = ("pipeline", spec.section_hash("dataset"), 16.0)
                store.put(key, value)
            """,
            "REP107",
        )

    def test_registry_names_and_scalars_pass(self):
        assert not findings_for(
            """
            def save(store, spec, name, value):
                store.put(
                    ("strategy_training", spec.spec_hash(), name, 4), value
                )
            """,
            "REP107",
        )

    def test_str_of_literal_passes(self):
        # str() of a constant is just a cast, not an identity leak.
        assert not findings_for(
            """
            def save(store, value):
                store.put(("x", str(16)), value)
            """,
            "REP107",
        )

    def test_repr_outside_key_seam_ignored(self):
        assert not findings_for(
            """
            def describe(obj):
                return repr(obj)
            """,
            "REP107",
        )

    def test_non_store_receiver_ignored(self):
        assert not findings_for(
            """
            def note(cache, obj):
                cache.put(("x", repr(obj)), 1)
            """,
            "REP107",
        )


class TestREP108ObsPlane:
    def _lint_as(self, code: str, filename: str):
        return [
            f
            for f in lint_source(textwrap.dedent(code), filename=filename)
            if f.rule == "REP108"
        ]

    def test_wall_read_in_obs_module_fires(self):
        found = self._lint_as(
            """
            import time

            def sample():
                return time.perf_counter()
            """,
            "src/repro/obs/tracer.py",
        )
        assert len(found) == 1
        assert "wall.py" in found[0].message

    def test_wall_read_in_wall_seam_passes(self):
        assert not self._lint_as(
            """
            import time

            def wall_now():
                return time.perf_counter()
            """,
            "src/repro/obs/wall.py",
        )

    def test_wall_read_outside_obs_ignored(self):
        # REP102's jurisdiction, not REP108's.
        assert not self._lint_as(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            "src/repro/engine/timing.py",
        )

    def test_rep102_waiver_does_not_waive_rep108(self):
        found = self._lint_as(
            """
            import time

            def sample():
                return time.perf_counter()  # repro: allow[REP102] seam
            """,
            "src/repro/obs/export.py",
        )
        assert len(found) == 1

    def test_ambient_tracer_in_engine_worker_passes(self):
        # A traced pool job runs under capture_job, whose tracer is the
        # ambient one, so the call is correct wherever the job lives.
        assert not self._lint_as(
            """
            from repro.obs.tracer import current_tracer

            def _square_worker(x):
                with current_tracer().span("square"):
                    return x * x
            """,
            "src/repro/engine/executors.py",
        )
