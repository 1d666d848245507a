"""ExperimentSpec: round-trip fidelity and field-naming validation."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    DatasetSection,
    ExecutionSection,
    ExperimentSpec,
    SpecError,
    StrategySection,
)


def _full_spec() -> ExperimentSpec:
    """A spec with every section away from its defaults."""
    return ExperimentSpec.from_dict(
        {
            "workload": "strategy_sweep",
            "dataset": {
                "preset": "ci",
                "num_sequences": 6,
                "frames_per_sequence": 8,
                "fps": 60.0,
                "seed": 3,
                "eye_scale": 0.7,
                "dynamics": "lively",
                "noise": {
                    "electrons_per_second_full_scale": 240000.0,
                    "read_noise_electrons": 5.0,
                    "bit_depth": 8,
                },
            },
            "sensor": {
                "compression": 12.5,
                "roi_margin_px": 2,
                "sensor_seed": 99,
                "reuse_window": 3,
            },
            "strategy": {
                "names": ["Skip", "Ours (ROI+Random)"],
                "compression": 8.0,
                "train_epochs": 2,
                "seed": 7,
                "use_gt_roi": False,
            },
            "training": {"epochs": 3, "train_indices": [0, 1, 2]},
            "execution": {
                "workers": 2,
                "batched": True,
                "batch_size": 4,
                "eval_indices": [3, 4, 5],
                "fps": 240.0,
                "serve": {
                    "num_clients": 8,
                    "arrival": "poisson",
                    "duration_ticks": 20,
                    "deadline_policy": "best_effort",
                    "max_batch": 4,
                    "queue_capacity": 16,
                    "deadline_slack_ticks": 2,
                    "seed": 5,
                },
            },
        }
    )


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        spec = _full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_identity(self):
        spec = _full_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_plain_json(self):
        # No tuples or dataclasses may leak into the serialized form.
        text = json.dumps(_full_spec().to_dict())
        assert json.loads(text) == _full_spec().to_dict()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = _full_spec()
        path.write_text(spec.to_json())
        assert ExperimentSpec.from_file(path) == spec

    def test_spec_hash_stable_and_sensitive(self):
        assert _full_spec().spec_hash() == _full_spec().spec_hash()
        other = dataclasses.replace(
            _full_spec(), dataset=DatasetSection(seed=999)
        )
        assert other.spec_hash() != _full_spec().spec_hash()

    def test_section_hash_ignores_other_sections(self):
        spec = _full_spec()
        moved = dataclasses.replace(
            spec, execution=ExecutionSection(workers=8)
        )
        key = ("dataset", "sensor", "training")
        assert spec.section_hash(*key) == moved.section_hash(*key)
        assert spec.spec_hash() != moved.spec_hash()


class TestValidation:
    def test_unknown_top_level_key_named(self):
        with pytest.raises(SpecError, match="datasett: unknown field"):
            ExperimentSpec.from_dict({"datasett": {}})

    def test_unknown_nested_key_named_with_suggestion(self):
        with pytest.raises(SpecError) as err:
            ExperimentSpec.from_dict({"execution": {"workerz": 2}})
        assert err.value.field == "execution.workerz"
        assert "did you mean 'workers'" in str(err.value)

    def test_unknown_workload_lists_choices(self):
        with pytest.raises(SpecError, match="unknown workload 'bogus'"):
            ExperimentSpec.from_dict({"workload": "bogus"})

    def test_nested_section_unknown_key_named_with_suggestion(self):
        with pytest.raises(SpecError) as err:
            ExperimentSpec.from_dict(
                {"execution": {"serve": {"num_client": 2}}}
            )
        assert err.value.field == "execution.serve.num_client"
        assert "did you mean 'num_clients'" in str(err.value)

    def test_serve_enums_validated(self):
        with pytest.raises(SpecError, match="execution.serve.arrival"):
            ExperimentSpec.from_dict(
                {"execution": {"serve": {"arrival": "bursty"}}}
            )
        with pytest.raises(
            SpecError, match="execution.serve.deadline_policy"
        ):
            ExperimentSpec.from_dict(
                {"execution": {"serve": {"deadline_policy": "maybe"}}}
            )

    def test_serve_ranges_validated(self):
        for field, bad in (
            ("num_clients", 0),
            ("duration_ticks", 1),
            ("max_batch", 0),
            ("queue_capacity", 0),
            ("deadline_slack_ticks", -1),
        ):
            with pytest.raises(SpecError, match=f"execution.serve.{field}"):
                ExperimentSpec.from_dict(
                    {"execution": {"serve": {field: bad}}}
                )

    def test_noise_ranges_validated(self):
        for field, bad in (
            ("electrons_per_second_full_scale", 0.0),
            ("read_noise_electrons", -1.0),
            ("bit_depth", 0),
        ):
            with pytest.raises(SpecError, match=f"dataset.noise.{field}"):
                ExperimentSpec.from_dict(
                    {"dataset": {"noise": {field: bad}}}
                )

    def test_nested_section_must_be_object(self):
        with pytest.raises(SpecError, match="dataset.noise"):
            ExperimentSpec.from_dict({"dataset": {"noise": 3}})

    def test_unknown_strategy_named_by_index(self):
        with pytest.raises(SpecError) as err:
            ExperimentSpec.from_dict(
                {"strategy": {"names": ["Skip", "Nope"]}}
            )
        assert err.value.field == "strategy.names[1]"

    def test_bad_enum_preset(self):
        with pytest.raises(SpecError, match="dataset.preset"):
            ExperimentSpec.from_dict({"dataset": {"preset": "huge"}})

    def test_bad_dynamics_preset(self):
        with pytest.raises(SpecError, match="dataset.dynamics"):
            ExperimentSpec.from_dict({"dataset": {"dynamics": "frantic"}})

    def test_wrong_type_named(self):
        with pytest.raises(SpecError, match="dataset.num_sequences"):
            ExperimentSpec.from_dict({"dataset": {"num_sequences": "four"}})
        with pytest.raises(SpecError, match="execution.batched"):
            ExperimentSpec.from_dict({"execution": {"batched": 1}})

    def test_int_widens_to_float_but_not_reverse(self):
        spec = ExperimentSpec.from_dict({"dataset": {"fps": 90}})
        assert spec.dataset.fps == 90.0
        with pytest.raises(SpecError, match="dataset.seed"):
            ExperimentSpec.from_dict({"dataset": {"seed": 1.5}})

    def test_out_of_range_values_named(self):
        with pytest.raises(SpecError, match="execution.workers"):
            ExperimentSpec.from_dict({"execution": {"workers": 0}})
        with pytest.raises(SpecError, match="sensor.compression"):
            ExperimentSpec.from_dict({"sensor": {"compression": 0.5}})
        with pytest.raises(SpecError, match="training.epochs"):
            ExperimentSpec.from_dict({"training": {"epochs": 0}})

    def test_negative_seeds_rejected_at_the_boundary(self):
        # REP106 regression: seeds key default_rng([seed, tag, ...])
        # streams, where a negative entry detonates deep inside numpy
        # with no field name.  validate() must catch it at the boundary.
        for section, field in (
            ("dataset", "seed"),
            ("sensor", "sensor_seed"),
            ("strategy", "seed"),
        ):
            with pytest.raises(SpecError, match=f"{section}.{field}"):
                ExperimentSpec.from_dict({section: {field: -1}})
        with pytest.raises(SpecError, match="execution.serve.seed"):
            ExperimentSpec.from_dict(
                {"execution": {"serve": {"seed": -1}}}
            )

    def test_zero_seed_is_valid(self):
        spec = ExperimentSpec.from_dict({"dataset": {"seed": 0}})
        assert spec.dataset.seed == 0

    def test_empty_indices_rejected(self):
        with pytest.raises(SpecError, match="execution.eval_indices"):
            ExperimentSpec.from_dict({"execution": {"eval_indices": []}})

    def test_indices_range_checked_against_dataset(self):
        # Explicit num_sequences bounds the indices...
        with pytest.raises(SpecError, match=r"eval_indices\[1\].*out of range"):
            ExperimentSpec.from_dict(
                {
                    "dataset": {"num_sequences": 3},
                    "execution": {"eval_indices": [2, 50]},
                }
            )
        # ...and so does the preset default (ci = 4 sequences).
        with pytest.raises(SpecError, match=r"train_indices\[0\]"):
            ExperimentSpec.from_dict({"training": {"train_indices": [4]}})
        with pytest.raises(SpecError, match=r"eval_indices\[0\]"):
            ExperimentSpec.from_dict({"execution": {"eval_indices": [-1]}})

    def test_fps_sweep_points_validated(self):
        spec = ExperimentSpec.from_dict(
            {"execution": {"fps_sweep_points": [30, 90.5]}}
        )
        assert spec.execution.fps_sweep_points == (30.0, 90.5)
        with pytest.raises(SpecError, match=r"fps_sweep_points\[1\]"):
            ExperimentSpec.from_dict(
                {"execution": {"fps_sweep_points": [30, 0]}}
            )
        with pytest.raises(SpecError, match="fps_sweep_points"):
            ExperimentSpec.from_dict({"execution": {"fps_sweep_points": []}})

    @pytest.mark.parametrize(
        "section, field",
        [
            ("execution", "fps"),
            ("sensor", "compression"),
            ("strategy", "compression"),
            ("dataset", "eye_scale"),
            ("dataset", "fps"),
        ],
    )
    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(math.inf, id="inf"),
            pytest.param(-math.inf, id="-inf"),
            pytest.param(math.nan, id="nan"),
            pytest.param(10**400, id="int-beyond-float"),
        ],
    )
    def test_non_finite_numbers_named(self, section, field, value):
        with pytest.raises(SpecError, match=f"{section}.{field}: .*finite"):
            ExperimentSpec.from_dict(
                {"workload": "energy", section: {field: value}}
            )

    def test_non_finite_sweep_point_named_by_index(self):
        with pytest.raises(SpecError, match=r"fps_sweep_points\[1\]"):
            ExperimentSpec.from_dict(
                {"execution": {"fps_sweep_points": [30, math.inf]}}
            )

    def test_retired_repeats_field_rejected(self):
        with pytest.raises(SpecError, match="execution.repeats"):
            ExperimentSpec.from_dict({"execution": dict(repeats=3)})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentSpec.from_json("{not json")

    def test_direct_construction_validates_on_run_entry(self):
        # validate() is also the Session.run entry check.
        spec = ExperimentSpec(strategy=StrategySection(names=("Nope",)))
        with pytest.raises(SpecError, match="strategy.names"):
            spec.validate()

    def test_blink_rate_validated(self):
        spec = ExperimentSpec.from_dict({"dataset": {"blink_rate_hz": 2.0}})
        assert spec.dataset.blink_rate_hz == 2.0
        with pytest.raises(SpecError, match="dataset.blink_rate_hz"):
            ExperimentSpec.from_dict({"dataset": {"blink_rate_hz": -1.0}})

    def test_with_workers_override(self):
        spec = ExperimentSpec()
        assert spec.with_workers(None) == spec
        assert spec.with_workers(4).execution.workers == 4
        # The rest of the spec is untouched.
        assert spec.with_workers(4).dataset == spec.dataset


def _field_paths(data: dict, prefix: str = "") -> list[str]:
    """Every dotted path of a spec dict, nested sections included."""
    paths = []
    for key, value in sorted(data.items()):
        path = f"{prefix}{key}"
        paths.append(path)
        if isinstance(value, dict):
            paths += _field_paths(value, f"{path}.")
    return paths


def _substitute(data: dict, path: str, value) -> dict:
    head, _, rest = path.partition(".")
    out = dict(data)
    out[head] = _substitute(data[head], rest, value) if rest else value
    return out


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
_VALID = _full_spec().to_dict()
_TOP_FIELDS = {"workload", "dataset", "sensor", "strategy", "training",
               "execution"}


class TestFuzz:
    """Any JSON value at any field of a valid spec either validates to
    standard JSON or fails with a ``SpecError`` naming a field — never
    another exception, never a non-finite number."""

    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from(_field_paths(_VALID)),
        value=st.floats() | st.integers() | _JSON_VALUES,
    )
    @example(path="execution.fps", value=math.inf)
    @example(path="dataset.eye_scale", value=-math.inf)
    @example(path="strategy.compression", value=10**400)
    @example(path="execution.fps_sweep_points", value=[30, math.inf])
    def test_substituted_field_validates_or_names_a_field(self, path, value):
        data = _substitute(_VALID, path, value)
        try:
            spec = ExperimentSpec.from_dict(data)
        except SpecError as exc:
            assert exc.field.split(".")[0].split("[")[0] in _TOP_FIELDS
            return
        json.dumps(spec.to_dict(), allow_nan=False)
