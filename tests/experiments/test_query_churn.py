"""Query-lifecycle churn in the experiment layer.

Covers the :class:`~repro.experiments.config.QueryChurnSpec` schedule, the
runner integration (removal / re-submission between publications, composed
with node churn), the ``query-churn`` and ``owner-failover`` scenarios, the
v3 → v4 result-schema bump and — crucially — backward compatibility: v3
grid result files still load and ``report --diff`` works across schema
versions.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import (
    ChurnSpec,
    ExperimentConfig,
    QueryChurnSpec,
)
from repro.experiments.parallel import diff_grids, load_cells
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import get_scenario, scenario_names
from repro.metrics.serialize import (
    RESULT_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    query_churn_from_dict,
    query_churn_to_dict,
    result_from_dict,
    result_to_dict,
)


def tiny_config(**overrides):
    params = dict(
        name="query-churn-test",
        num_nodes=12,
        num_queries=8,
        num_tuples=30,
        num_relations=4,
        attributes_per_relation=3,
        value_domain=5,
        join_arity=3,
        seed=11,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestQueryChurnSpec:
    def test_defaults_disabled(self):
        spec = QueryChurnSpec()
        assert not spec.enabled
        assert spec.events_for(100) == []

    def test_events_schedule(self):
        spec = QueryChurnSpec(remove_every=10, start_after=5)
        assert spec.events_for(40) == [15, 25, 35]

    def test_negative_rate_rejected(self):
        with pytest.raises(ExperimentError):
            QueryChurnSpec(remove_every=-1)

    def test_unknown_target_rejected(self):
        with pytest.raises(ExperimentError):
            QueryChurnSpec(remove_every=5, target="loudest")

    def test_config_type_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(query_churn={"remove_every": 5})


class TestRunnerIntegration:
    def test_removal_and_resubmission_keep_population(self):
        result = run_experiment(
            tiny_config(query_churn=QueryChurnSpec(remove_every=10))
        )
        summary = result.summary
        assert summary["queries_removed"] == 3
        assert summary["active_queries"] == 8  # resubmitted each time
        assert summary["submitted_queries"] == 11
        assert summary["orphaned_state_records"] == 0

    def test_removal_without_resubmission_drains(self):
        result = run_experiment(
            tiny_config(
                query_churn=QueryChurnSpec(remove_every=10, resubmit=False)
            )
        )
        summary = result.summary
        assert summary["queries_removed"] == 3
        assert summary["active_queries"] == 5

    def test_min_queries_floor_is_respected(self):
        result = run_experiment(
            tiny_config(
                num_queries=2,
                query_churn=QueryChurnSpec(
                    remove_every=5, resubmit=False, min_queries=2
                ),
            )
        )
        assert result.summary["queries_removed"] == 0
        assert result.summary["active_queries"] == 2

    @pytest.mark.parametrize("target", ["oldest", "newest", "random"])
    def test_victim_targets_run_clean(self, target):
        result = run_experiment(
            tiny_config(
                query_churn=QueryChurnSpec(remove_every=15, target=target)
            )
        )
        assert result.summary["queries_removed"] == 2

    def test_composes_with_node_churn(self):
        result = run_experiment(
            tiny_config(
                query_churn=QueryChurnSpec(remove_every=10),
                churn=ChurnSpec(join_every=12, leave_every=20),
            )
        )
        summary = result.summary
        assert summary["queries_removed"] == 3
        assert summary["membership_events"] > 0
        assert summary["orphaned_state_records"] == 0

    def test_batch_mode_dispatches_query_churn(self):
        result = run_experiment(
            tiny_config(
                batch_size=5,
                query_churn=QueryChurnSpec(remove_every=10),
            )
        )
        assert result.summary["queries_removed"] == 3

    def test_owner_failover_flag_threads_through(self):
        on = run_experiment(tiny_config(owner_failover=True))
        off = run_experiment(tiny_config(owner_failover=False))
        # static ring: the flag changes replication, not the answers
        assert on.summary["answers"] == off.summary["answers"]
        assert on.summary["failover_reregistrations"] == 0
        assert off.summary["failover_reregistrations"] == 0


class TestScenarios:
    def test_lifecycle_scenarios_registered(self):
        names = scenario_names()
        assert "query-churn" in names
        assert "owner-failover" in names

    def test_query_churn_variants(self):
        scenario = get_scenario("query-churn")
        labels = [v.label for v in scenario.variants(full_scale=False)]
        assert labels == ["stable", "remove", "churn", "churn+nodes"]
        churn_variant = scenario.variant_named("churn+nodes")
        config = scenario.config_for(churn_variant, seed=42)
        assert config.query_churn is not None and config.query_churn.enabled
        assert config.churn is not None and config.churn.enabled

    def test_owner_failover_axis(self):
        scenario = get_scenario("owner-failover")
        on = scenario.config_for(scenario.variant_named("failover"), seed=42)
        off = scenario.config_for(
            scenario.variant_named("no-failover"), seed=42
        )
        assert on.owner_failover is True
        assert off.owner_failover is False
        assert on.churn is not None and on.churn.crash_every > 0


class TestSerialization:
    def test_schema_version_bumped_for_query_lifecycle(self):
        assert RESULT_SCHEMA_VERSION >= 4

    def test_query_churn_round_trip(self):
        spec = QueryChurnSpec(
            remove_every=7,
            resubmit=False,
            start_after=3,
            target="random",
            min_queries=2,
        )
        assert query_churn_from_dict(query_churn_to_dict(spec)) == spec
        assert query_churn_to_dict(None) is None
        assert query_churn_from_dict(None) is None

    def test_config_round_trip_with_query_churn(self):
        config = tiny_config(
            query_churn=QueryChurnSpec(remove_every=5),
            owner_failover=False,
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored.query_churn == config.query_churn
        assert restored.owner_failover is False

    def test_v3_config_dict_still_loads(self):
        """A config dict written before the lifecycle fields existed."""
        data = config_to_dict(tiny_config())
        del data["query_churn"]
        del data["owner_failover"]
        restored = config_from_dict(data)
        assert restored.query_churn is None
        assert restored.owner_failover is True

    def test_v3_result_dict_still_loads(self):
        result = run_experiment(tiny_config(num_tuples=5, num_queries=2))
        data = result_to_dict(result)
        data["schema_version"] = 3
        del data["config"]["query_churn"]
        del data["config"]["owner_failover"]
        restored = result_from_dict(data)
        assert restored.config.num_nodes == 12
        assert restored.summary == result.summary


def _write_cell(directory, cell_id, payload):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{cell_id}.json").write_text(json.dumps(payload))


class TestCrossVersionDiff:
    def _payload(self, schema_version, qpl):
        config = config_to_dict(tiny_config(num_tuples=5, num_queries=2))
        if schema_version < 4:
            del config["query_churn"]
            del config["owner_failover"]
        return {
            "schema_version": schema_version,
            "cell": {
                "cell_id": "sc__v__rjoin__seed42",
                "scenario": "sc",
                "variant": "v",
                "strategy": "rjoin",
                "seed": 42,
            },
            "result": {
                "config": config,
                "summary": {"answers": 3.0},
                "derived": {"qpl_per_node": qpl},
            },
        }

    def test_diff_spans_schema_versions(self, tmp_path):
        """``report --diff`` pairs a v3 directory with a v4 directory."""
        dir_a = tmp_path / "v3"
        dir_b = tmp_path / "v4"
        _write_cell(dir_a, "sc__v__rjoin__seed42", self._payload(3, 10.0))
        _write_cell(
            dir_b,
            "sc__v__rjoin__seed42",
            self._payload(RESULT_SCHEMA_VERSION, 12.5),
        )
        assert set(load_cells(dir_a)) == {"sc__v__rjoin__seed42"}
        diff = diff_grids(dir_a, dir_b, ["qpl_per_node"])
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []
        pair = diff["cells"][0]["metrics"]["qpl_per_node"]
        assert pair["a"] == 10.0
        assert pair["b"] == 12.5
        assert pair["delta"] == pytest.approx(2.5)
