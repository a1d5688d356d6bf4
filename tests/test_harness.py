import json

import numpy as np
import pytest

from hfsem import diffsim, harness
from hfsem.errors import AllStartsFailedError, SpecError
from tests.conftest import make_degenerate_model


def small_config(**overrides):
    kwargs = dict(n_values=[100], T=1.0, replications=3, master_seed=99,
                  model_spec_paths=["model1", "model2", "model3"])
    kwargs.update(overrides)
    return harness.ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def small_run():
    config = small_config()
    return config, harness.run_experiment(config)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = small_config(criteria=["qbic2"], starts=3, workers=2)
        path = tmp_path / "exp.json"
        config.to_json(path)
        loaded = harness.ExperimentConfig.from_json(path)
        assert loaded.to_dict() == config.to_dict()
        assert json.loads(path.read_text())["schema"] == "hfsem-exp-v1"

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(replications=0).validate()
        with pytest.raises(ValueError):
            small_config(n_values=[1]).validate()
        with pytest.raises(ValueError):
            small_config(criteria=[]).validate()
        with pytest.raises(ValueError):
            small_config(criteria=["bic"]).validate()
        with pytest.raises(ValueError):
            small_config(init_mode="oracle").validate()
        with pytest.raises(ValueError):
            small_config(model_spec_paths=[]).validate()

    def test_schema_enforced(self, tmp_path):
        path = tmp_path / "exp.json"
        doc = small_config().to_dict()
        doc["schema"] = "nope"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_json(path)

    def test_grid_below_observed_dimension_rejected(self, monkeypatch):
        # n = 6 increments of p = 10 series give a rank-6 Q
        monkeypatch.setattr(harness, "limit_optimum", lambda *args, **kwargs:
                            pytest.fail("limit optimum ran before the check"))
        config = small_config(n_values=[100, 6])
        with pytest.raises(ValueError, match="n=6 .*p=10"):
            harness.run_experiment(config)
        with pytest.raises(ValueError, match="n=6 .*p=10"):
            harness.gap_growth_probe(config, "model1", "model2")

    def test_missing_key_named(self):
        doc = small_config().to_dict()
        del doc["T"]
        with pytest.raises(ValueError, match="'T'"):
            harness.ExperimentConfig.from_dict(doc)


class TestTruthSigma:
    def test_matches_hand_assembled_oracle(self, sigma0_oracle):
        sigma = harness.truth_sigma("true4-6")
        assert np.abs(sigma - sigma0_oracle).max() < 1e-12

    def test_nontrivial_structure_matrix(self):
        tb = diffsim.true_blocks()
        tb["b0"] = np.array([[0.0, 0.0], [0.5, 0.0]])
        sigma = harness._sigma_of_blocks(tb)
        psi_inv = np.linalg.inv(np.eye(2) - tb["b0"])
        a2 = tb["lambda_x2"] @ psi_inv
        m = tb["gamma"] @ np.array([[9.0]]) @ tb["gamma"].T + np.diag([9.0, 1.0])
        expected_22 = a2 @ m @ a2.T + np.diag([25.0, 1.0, 4.0, 1.0, 9.0, 4.0])
        assert np.abs(sigma[4:, 4:] - expected_22).max() < 1e-12


class TestSeedSplit:
    def test_deterministic(self):
        assert harness.split_seed(7, 100, 3) == harness.split_seed(7, 100, 3)

    def test_distinct_across_cells(self):
        seeds = {harness.split_seed(7, n, rep)
                 for n in (100, 1000, 10_000) for rep in range(200)}
        assert len(seeds) == 600
        assert harness.split_seed(7, 100, 0) != harness.split_seed(8, 100, 0)
        assert harness.split_seed(7, 100, 0, tag=1) != harness.split_seed(7, 100, 0)


class TestLoadSpecs:
    def test_builtin_names_load(self):
        specs = harness.load_specs(["model1", "model2", "model3"])
        assert [s.name for s in specs] == ["model1", "model2", "model3"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecError):
            harness.load_specs(["model1", "model1"])

    def test_rank_screen_rejects_degenerate_spec(self, tmp_path):
        path = tmp_path / "degenerate.json"
        make_degenerate_model().to_json(path)
        with pytest.raises(SpecError, match="rank"):
            harness.load_specs([str(path)])


class TestRunExperiment:
    def test_counts_conservation(self, small_run):
        config, (table, records) = small_run
        table.validate()
        for criterion in table.criteria:
            total = sum(table.counts[(criterion, 100)].values())
            assert total + table.failures[100] == config.replications

    def test_records_shape(self, small_run):
        config, (table, records) = small_run
        assert len(records) == config.replications * 3
        for record in records:
            assert set(harness.REPLICATION_COLUMNS) <= set(record)
            assert isinstance(record["boundary_hit"], bool)
            assert isinstance(record["iterations"], int)
            assert isinstance(record["grad_norm"], float)

    def test_failed_fit_leaves_fit_columns_empty(self, monkeypatch):
        original = harness.fit

        def failing(surface, **kwargs):
            if surface.spec.name == "model3":
                raise AllStartsFailedError("forced")
            return original(surface, **kwargs)

        monkeypatch.setattr(harness, "fit", failing)
        table, records = harness.run_experiment(small_config(replications=1))
        assert table.failures[100] == 1
        (failed,) = [r for r in records if r["selected_by"] == "fit_failed"]
        assert failed["model"] == "model3"
        for column in ("h_at_hat", "converged", "boundary_hit", "iterations",
                       "grad_norm"):
            assert failed[column] == ""

    def test_single_replication_equals_its_selection(self):
        config = small_config(replications=1)
        table, records = harness.run_experiment(config)
        for criterion in config.criteria:
            winners = [r["model"] for r in records
                       if criterion in r["selected_by"].split("+")]
            assert len(winners) == 1
            assert table.counts[(criterion, 100)][winners[0]] == 1

    def test_deterministic_rerun(self, small_run):
        config, (table, records) = small_run
        table2, records2 = harness.run_experiment(small_config())
        assert table2.counts == table.counts
        assert table2.failures == table.failures
        assert records2 == records

    def test_worker_count_does_not_change_results(self, small_run):
        config, (table, records) = small_run
        table2, records2 = harness.run_experiment(small_config(workers=2))
        assert table2.counts == table.counts
        assert records2 == records

    def test_moment_init_mode_runs(self):
        config = small_config(replications=1, init_mode="moment", starts=2)
        table, records = harness.run_experiment(config)
        table.validate()

    def test_custom_truth(self):
        truth = {
            "lambda_x1": [[1.0], [2.0]],
            "lambda_x2": [[1.0], [3.0]],
            "gamma": [[1.5]],
            "xi": {"mean_reversion": [[1.0]], "level": [2.0],
                   "dispersion": [[1.0]], "init": [0.0]},
            "delta": {"mean_reversion": [[1.0, 0.0], [0.0, 1.0]],
                      "level": [0.0, 0.0],
                      "dispersion": [[1.0, 0.0], [0.0, 1.0]],
                      "init": [0.0, 0.0]},
            "eps": {"mean_reversion": [[1.0, 0.0], [0.0, 1.0]],
                    "level": [0.0, 0.0],
                    "dispersion": [[1.0, 0.0], [0.0, 1.0]],
                    "init": [0.0, 0.0]},
            "zeta": {"mean_reversion": [[1.0]], "level": [0.0],
                     "dispersion": [[1.0]], "init": [0.0]},
        }
        sigma = harness.truth_sigma(truth)
        assert sigma.shape == (4, 4)
        bundle = harness._simulate_truth(harness._truth_blocks(truth),
                                         50, 1.0, seed=1)
        assert bundle.x_obs.shape == (51, 4)


class TestRendering:
    def test_text_layout(self, small_run):
        _, (table, _) = small_run
        text = harness.render_table(table, "text")
        assert "n=100" in text
        for criterion in table.criteria:
            assert criterion in text
        assert "failures" in text

    def test_csv_row_count(self, small_run):
        _, (table, _) = small_run
        csv = harness.render_table(table, "csv").strip().splitlines()
        expected = len(table.criteria) * len(table.n_values) * len(table.model_ids)
        assert len(csv) == expected + 1  # header
        assert csv[0] == "criterion,n,model_id,count,share"

    def test_unknown_format(self, small_run):
        _, (table, _) = small_run
        with pytest.raises(ValueError):
            harness.render_table(table, "latex")

    def test_write_outputs(self, small_run, tmp_path):
        _, (table, records) = small_run
        paths = harness.write_outputs(table, records, tmp_path / "out")
        for path in paths.values():
            assert (tmp_path / "out").exists()
        lines = open(paths["replications_csv"]).read().splitlines()
        assert lines[0] == ",".join(harness.REPLICATION_COLUMNS)
        assert len(lines) == 1 + len(records)


class TestGapProbe:
    def test_same_model_level_zero(self):
        config = small_config(n_values=[2000], replications=3)
        out = harness.gap_growth_probe(config, "model1", "model1")
        assert out.analytic_level == 0.0
        assert abs(out.level) < 0.01

    def test_both_correct_log_n_dominated(self):
        config = small_config(n_values=[2000], replications=4)
        out = harness.gap_growth_probe(config, "model1", "model2",
                                       criterion="qbic2")
        assert abs(out.analytic_level) < 1e-6
        assert abs(out.level) < 0.05
        # scaled back up, the gap is the parameter-count penalty minus the
        # over-fitting gain, so it sits near (q2 - q1) log n
        gap_n = out.level * 2000
        assert abs(gap_n - np.log(2000)) < 10.0

    def test_misspecified_precondition(self):
        config = small_config(replications=1)
        with pytest.raises(ValueError):
            harness.gap_growth_probe(config, "model3", "model1")
