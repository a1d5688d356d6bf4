import collections
import csv
import dataclasses
import functools
import json
import pathlib
import re

import numpy as np
import pytest
from scipy import stats

from hfsem import diffsim, harness, models, qmle
from hfsem.errors import (AllStartsFailedError, SingularStructureError,
                          SpecError)
from hfsem.infocrit import CRITERIA, criteria_row
from hfsem.qlik import LikelihoodSurface, quad_var
from tests.conftest import bundled_truth_doc, make_degenerate_model


def small_config(**overrides):
    kwargs = dict(n_values=[100], T=1.0, replications=3, master_seed=99,
                  model_spec_paths=["model1", "model2", "model3"])
    kwargs.update(overrides)
    return harness.ExperimentConfig(**kwargs)


def failing_fit_lanes(model, lanes=slice(None)):
    """``harness.fit_lanes`` with the fits of ``model`` in ``lanes`` (all,
    by default) failed, as when all their starts lie outside the
    admissible region."""
    original = harness.fit_lanes

    def fit_lanes(spec, q_xx, n, start_sets):
        reports = original(spec, q_xx, n, start_sets)
        if spec.name == model:
            for k in range(len(reports))[lanes]:
                reports[k] = None
        return reports

    return fit_lanes


def assert_same_records(got, want):
    """The same records, column by column and row by row."""
    assert got.model_ids == want.model_ids
    assert np.array_equal(got.failed, want.failed)
    for column in harness.REPLICATION_COLUMNS:
        assert got.columns[column].dtype == want.columns[column].dtype
        assert np.array_equal(got.columns[column], want.columns[column],
                              equal_nan=True)
    assert list(got) == list(want)


@pytest.fixture(scope="module")
def small_run():
    config = small_config()
    return config, harness.run_experiment(config)


def custom_truth():
    """A 2+2-dimensional truth given as a dict, as a config carries it."""
    return {
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


def readme_truth():
    """The custom truth of the README's example (p1 = p2 = 2, k1 = k2 = 1)."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md")
    docs = [json.loads(text) for text in
            re.findall(r"```json\n(.*?)```", readme.read_text(), re.DOTALL)]
    (truth,) = [doc for doc in docs if "xi" in doc]
    return truth


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = small_config(starts=3, workers=2)
        path = tmp_path / "exp.json"
        config.to_json(path)
        loaded = harness.ExperimentConfig.from_json(path)
        assert loaded.to_dict() == config.to_dict()
        assert json.loads(path.read_text())["schema"] == "hfsem-exp-v1"

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(n_values=[1])
        with pytest.raises(ValueError):
            small_config(init_mode="oracle")
        with pytest.raises(ValueError):
            small_config(model_spec_paths=[])

    @pytest.mark.parametrize("key, value", [
        ("n_values", [100.5]), ("n_values", [100, 1000.0]),
        ("replications", 2.5), ("replications", True), ("starts", 1.5),
        ("workers", "2"), ("master_seed", 7.9), ("master_seed", -1),
        ("T", np.nan), ("T", np.inf), ("T", 0.0),
        ("T", "1"), ("n_values", 100), ("n_values", []),
        ("starts", [8]), ("model_spec_paths", [["model1"]]),
        ("model_spec_paths", [0]), ("true_model", 5)])
    def test_numbers_checked(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key}(\[\d+\])? must be"):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value", [("n_values", [100, 1000, 100])])
    def test_repeats_rejected(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must not repeat"):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        # a 3-dimensional delta against the two rows of lambda_x1
        ("delta", {"mean_reversion": np.eye(3).tolist(), "level": [0.0] * 3,
                   "dispersion": np.eye(3).tolist()},
         r"^true_model\.delta has dimension 3"),
        ("b0", [[0.0, 0.0], [0.0, 0.0]], r"^true_model\.b0 has shape")],
        ids=["delta-3d", "b0-2x2"])
    def test_truth_cross_checked(self, key, value, message):
        doc = {**small_config().to_dict(),
               "true_model": {**readme_truth(), key: value}}
        with pytest.raises(ValueError, match=message) as err:
            harness.ExperimentConfig.from_dict(doc)
        assert "pattern" not in str(err.value)  # no model-spec role

    def test_truth_singular_structure_rejected(self):
        truth = {**bundled_truth_doc(), "b0": [[0.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(SingularStructureError, match=r"true_model\.b0"):
            small_config(true_model=truth)

    def test_numpy_scalars_kept_as_python_numbers(self, tmp_path):
        # Each field keeps what its reader returns, so a config built from
        # NumPy scalars writes JSON and reads back as the same config.
        plain = small_config(n_values=[100, 1000], T=2.0, replications=3,
                             master_seed=7, starts=4, workers=2)
        config = small_config(
            n_values=[np.int64(100), np.int32(1000)], T=np.float64(2.0),
            replications=np.int64(3), master_seed=np.uint64(7),
            starts=np.int16(4), workers=np.int64(2))
        path = tmp_path / "exp.json"
        config.to_json(path)
        assert harness.ExperimentConfig.from_json(path) == plain == config
        assert [type(v) for v in config.n_values] == [int, int]
        assert {key: type(getattr(config, key)) for key in (
            "T", "replications", "master_seed", "starts", "workers")} == {
            "T": float, "replications": int, "master_seed": int,
            "starts": int, "workers": int}

    def test_checked_when_built_and_frozen(self):
        # A config is checked once, when it is built; replace builds anew
        # and so checks again, and no field can change after the check.
        config = small_config()
        assert not hasattr(config, "validate")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 0
        with pytest.raises(ValueError, match="^workers must be"):
            dataclasses.replace(config, workers=0)
        assert dataclasses.replace(config, workers=2).workers == 2

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

    def test_truth_dimensions_checked_against_specs(self, monkeypatch):
        # the README's truth observes p = 2 + 2 series, model1 p = 4 + 6
        monkeypatch.setattr(harness, "limit_optimum", lambda *args, **kwargs:
                            pytest.fail("limit optimum ran before the check"))
        config = small_config(true_model=readme_truth())
        message = (r"^true_model's covariance \(fitted by 'model1'\) is "
                   r"\(4, 4\), model observes p=10$")
        with pytest.raises(ValueError, match=message):
            harness.run_experiment(config)
        with pytest.raises(ValueError, match=message):
            harness.gap_growth_probe(config, "model1", "model2")

    def test_unknown_keys_rejected(self):
        # every study tallies every criterion: a config cannot pick some
        doc = {**small_config().to_dict(), "init_mod": "moment", "worker": 2,
               "criteria": ["qbic2"]}
        with pytest.raises(
                ValueError,
                match=r"unknown keys \['criteria', 'init_mod', 'worker'\]"):
            harness.ExperimentConfig.from_dict(doc)

    def test_defaults_filled(self):
        required = ("schema", "n_values", "T", "replications", "master_seed",
                    "model_spec_paths")
        doc = {k: v for k, v in small_config().to_dict().items() if k in required}
        assert harness.ExperimentConfig.from_dict(doc) == small_config()

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
        tb = dataclasses.replace(diffsim.load_truth("true4-6"),
                                 b0=[[0.0, 0.0], [0.5, 0.0]])
        sigma = diffsim.implied_sigma(tb)
        psi_inv = np.linalg.inv(np.eye(2) - tb.b0)
        a2 = tb.lambda_x2 @ psi_inv
        m = tb.gamma @ np.array([[9.0]]) @ tb.gamma.T + np.diag([9.0, 1.0])
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
        for criterion in CRITERIA:
            total = sum(table.counts[(criterion, 100)].values())
            assert total + table.failures[100] == config.replications

    def test_records_shape(self, small_run):
        config, (table, records) = small_run
        assert len(records) == config.replications * 3
        assert records.model_ids == ("model1", "model2", "model3")
        for column, values in records.columns.items():
            rows = config.replications * (1 if column == "selected_by" else 3)
            assert len(values) == rows
        assert records.columns["selected_by"].shape[1] == len(CRITERIA)
        assert list(records.columns["model"]) == [0, 1, 2] * 3
        for i, record in enumerate(records):
            assert record == records[i] == records[i - len(records)]
            assert tuple(record) == harness.REPLICATION_COLUMNS
            assert record["converged"] is True
            assert isinstance(record["j_flag"], bool)
            assert type(record["h_at_hat"]) is float
            assert type(record["n"]) is type(record["rep"]) is int
            assert isinstance(record["boundary_hit"], bool)
            assert isinstance(record["iterations"], int)
            assert isinstance(record["evaluations"], int)
            assert record["evaluations"] > record["iterations"]
            assert isinstance(record["grad_norm"], float)

    def test_failed_fit_leaves_fit_columns_empty(self, monkeypatch):
        monkeypatch.setattr(harness, "fit_lanes", failing_fit_lanes("model3"))
        table, records = harness.run_experiment(small_config(replications=1))
        assert table.failures[100] == 1
        (failed,) = [r for r in records if r["selected_by"] == "fit_failed"]
        assert failed["model"] == "model3"
        for column in ("h_at_hat", "lr_sat", "converged", "boundary_hit",
                       "iterations", "evaluations", "grad_norm"):
            assert failed[column] == ""
        assert list(records.failed) == [False, False, True]
        assert list(records.columns["selected_by"][0]) == [-1] * len(CRITERIA)
        assert [records[k]["selected_by"] for k in (0, 1)] == ["", ""]

    def test_lr_sat_is_its_definition(self, monkeypatch):
        # lr_sat = 2 (l_sat - h_at_hat) with l_sat = n (-p - log det Q) / 2,
        # Q as harness._realized gives it to the fits.
        realized, seen = harness._realized, {}
        monkeypatch.setattr(harness, "_realized",
                            lambda config, truth, n, rep: seen.setdefault(
                                (n, rep), realized(config, truth, n, rep)))
        _, records = harness.run_experiment(small_config(n_values=[100, 400]))
        assert len(seen) == 6 and len(records) == 18
        for r in records:
            q_xx = seen[(r["n"], r["rep"])].q_xx
            sat = r["n"] * (-len(q_xx) - np.linalg.slogdet(q_xx)[1]) / 2
            assert r["lr_sat"] == 2.0 * (sat - r["h_at_hat"])

    def test_saturated_value_once_per_task(self, monkeypatch):
        # lr_sat's saturated log-likelihood is one slogdet of each task's
        # (p, p) Q, shared by every spec's row (the criteria's slogdets are
        # of (q, q) Hessians).
        slogdet, seen = np.linalg.slogdet, []
        monkeypatch.setattr(np.linalg, "slogdet",
                            lambda a: seen.append(np.shape(a)) or slogdet(a))
        config = small_config(n_values=[100, 400])
        specs = harness.load_specs(config.model_spec_paths)
        assert all(spec.q != spec.p for spec in specs)
        _, records = harness.run_experiment(config)
        assert not records.failed.any()
        assert seen.count((10, 10)) == 2 * config.replications

    def test_records_held_per_replication(self):
        # The records run_experiment returns hold at most 0.6 KB per
        # (n, rep) over three models: columns, not a dict per row.
        import gc
        import tracemalloc
        config = small_config(n_values=[100, 200], replications=64)
        tracemalloc.start()
        try:
            _, records = harness.run_experiment(config)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del records
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / (2 * config.replications) <= 600

    def test_chunk_peak_memory(self):
        # A full chunk of 128 true-init replications holds one spec's fit
        # reports at a time, and its fits one Hessian stack plus at most
        # one working copy: traced peak 2.9 MB, against 4.0 MB when each
        # round held four (L, q, q) copies, the last pass stayed alive
        # while the next was scored and every spec's reports (each with
        # its (q, q) Hessian) were kept until the chunk's records were
        # built.
        import gc
        import tracemalloc
        config = small_config(n_values=[100, 1000], replications=64)
        specs, truth, sigma0 = harness._load_study(config,
                                                   config.model_spec_paths)
        inits = [theta for theta, _ in
                 harness._limit_optima(specs, sigma0, config)]
        tasks = [(n, rep) for n in config.n_values
                 for rep in range(config.replications)]
        assert len(tasks) == harness._CHUNK
        gc.collect()
        tracemalloc.start()
        try:
            records = harness._chunk_worker(
                (config, truth, specs, inits, tasks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not records.failed.any()
        assert peak < 3.4 * 2**20

    def test_seeds_split_in_the_chunk(self, monkeypatch):
        # 300 replications make 3 chunks of 100; the first path may wait
        # only on seeds of the first chunk, not on the study's 600.
        class FirstPath(Exception):
            pass

        split, splits = harness.split_seed, []
        monkeypatch.setattr(harness, "split_seed", lambda *args, **kw:
                            splits.append(args) or split(*args, **kw))

        def first_path(*args, **kwargs):
            raise FirstPath(len(splits))

        monkeypatch.setattr(diffsim, "simulate_custom", first_path)
        config = small_config(n_values=[100, 200], replications=150,
                              model_spec_paths=["model1"])
        first_chunk = harness._chunk_cuts(300, config.workers)[1]
        assert first_chunk == 100
        with pytest.raises(FirstPath) as stop:
            harness.run_experiment(config)
        assert stop.value.args[0] <= 2 * first_chunk

    def test_table_is_the_records_grouped(self, tmp_path, monkeypatch):
        # replications.csv, grouped by selected_by, gives table.csv: a
        # fit_failed row fails its (n, rep), and every other row counts
        # once for each criterion it names.
        monkeypatch.setattr(harness, "fit_lanes",
                            failing_fit_lanes("model2", slice(None, None, 2)))
        config = small_config(n_values=[100, 200], replications=3)
        table, records = harness.run_experiment(config)
        paths = harness.write_outputs(table, records, tmp_path)
        with open(paths["replications_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        failed = {(r["n"], r["rep"]) for r in rows
                  if r["selected_by"] == "fit_failed"}
        assert failed == {("100", "0"), ("100", "2"), ("200", "1")}
        failures = {n: sum(m == n for m, _ in failed) for n in ("100", "200")}
        counts = collections.Counter(
            (c, r["n"], r["model"]) for r in rows
            if r["selected_by"] != "fit_failed"
            for c in r["selected_by"].split("+") if c)
        with open(paths["table_csv"]) as fh:
            lines = list(csv.DictReader(fh))
        assert len(lines) == 18
        for line in lines:
            count = counts[(line["criterion"], line["n"], line["model_id"])]
            assert int(line["count"]) == count
            good = config.replications - failures[line["n"]]
            assert line["share"] == f"{count / good:.6f}"
        assert table.failures == {100: 2, 200: 1}

    def test_single_replication_equals_its_selection(self):
        config = small_config(replications=1)
        table, records = harness.run_experiment(config)
        for criterion in CRITERIA:
            winners = [r["model"] for r in records
                       if criterion in r["selected_by"].split("+")]
            assert len(winners) == 1
            assert table.counts[(criterion, 100)][winners[0]] == 1

    def test_deterministic_rerun(self, small_run):
        config, (table, records) = small_run
        table2, records2 = harness.run_experiment(small_config())
        assert table2.counts == table.counts
        assert table2.failures == table.failures
        assert_same_records(records2, records)

    def test_worker_count_does_not_change_results(self, small_run):
        config, (table, records) = small_run
        table2, records2 = harness.run_experiment(small_config(workers=2))
        assert table2.counts == table.counts
        assert_same_records(records2, records)

    def test_drawn_ahead_paths_same_across_workers(self):
        # n = 20000 takes two path chunks, so each worker draws on a helper
        # thread while it solves
        config = small_config(n_values=[100, 20000], replications=4)
        table, records = harness.run_experiment(config)
        table2, records2 = harness.run_experiment(
            dataclasses.replace(config, workers=2))
        assert table2.counts == table.counts
        assert_same_records(records2, records)

    @pytest.mark.parametrize("init_mode", ["true", "moment"])
    def test_chunking_does_not_change_records(self, init_mode, monkeypatch):
        # Chunks of 2 cross from n=100 to n=200; a chunk's fits are lanes
        # of one loop, yet every replication's records stay the same.  The
        # study's 6 replications are fewer than the default chunk, which
        # takes them all on one worker and splits them 3 + 3 on two.
        config = small_config(n_values=[100, 200], init_mode=init_mode,
                              starts=2)
        assert harness._CHUNK == 128
        assert harness._chunk_cuts(6, 1) == [0, 6]
        assert harness._chunk_cuts(6, 2) == [0, 3, 6]
        runs = []
        for chunk, workers in ((harness._CHUNK, 1), (1, 1), (2, 1), (2, 2),
                               (harness._CHUNK, 2), (16, 1)):
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            config = dataclasses.replace(config, workers=workers)
            runs.append(harness.run_experiment(config))
        table, records = runs[0]
        assert len(records) == 2 * config.replications * 3
        for other_table, other_records in runs[1:]:
            assert_same_records(other_records, records)
            assert other_table.counts == table.counts

    @pytest.mark.parametrize("tasks, workers", [
        (1, 1), (1, 2), (6, 2), (128, 1), (129, 1), (256, 2), (257, 2),
        (498, 1), (1000, 3)])
    def test_chunk_cuts(self, tasks, workers):
        # The fewest chunks of at most _CHUNK, in a count the workers share
        # evenly (fewer only with fewer tasks), sizes within one.
        sizes = np.diff(harness._chunk_cuts(tasks, workers))
        chunks = -(-tasks // harness._CHUNK)
        assert sizes.sum() == tasks and sizes.min() >= 1
        assert sizes.max() <= harness._CHUNK
        assert sizes.max() - sizes.min() <= 1
        assert len(sizes) == min(tasks, -(-chunks // workers) * workers)

    def test_chunk_cuts_as_before_at_any_worker_count(self):
        # The chunk count is capped at the task count, which leaves the
        # cuts as they were: past one chunk a task, tasks * i // count
        # already hit every task boundary.
        def uncapped(tasks, workers):
            count = -(-tasks // harness._CHUNK)
            count = -(-count // workers) * workers
            return sorted({tasks * i // count for i in range(count + 1)})

        for tasks in range(1, 301):
            for workers in range(1, 9):
                assert harness._chunk_cuts(tasks, workers) == \
                    uncapped(tasks, workers)
        assert harness._chunk_cuts(10, 10**9) == list(range(11))

    def test_pool_no_larger_than_the_chunks(self, small_run, monkeypatch):
        # A pool opens one process a chunk at most, whatever the worker
        # count; the fake pool maps serially, so no process starts.
        opened = []

        class SerialPool:
            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return list(map(func, items))

        monkeypatch.setattr(harness.multiprocessing, "Pool", SerialPool)
        config, (table, records) = small_run
        table2, records2 = harness.run_experiment(
            dataclasses.replace(config, workers=10**9))
        assert opened == [config.replications]
        assert table2.counts == table.counts
        assert_same_records(records2, records)

    def test_moment_init_mode_runs(self):
        config = small_config(replications=1, init_mode="moment", starts=2)
        table, records = harness.run_experiment(config)
        table.validate()

    def test_custom_truth(self):
        truth = custom_truth()
        sigma = harness.truth_sigma(truth)
        assert sigma.shape == (4, 4)
        bundle = diffsim.simulate_custom(diffsim.load_truth(truth),
                                         n=50, T=1.0, seed=1)
        assert bundle.x_obs.shape == (51, 4)

    @pytest.mark.parametrize("where, key", [
        (None, "gamma"), (None, "zeta"), ("xi", "level"),
        ("eps", "mean_reversion"), ("delta", "dispersion")])
    def test_custom_truth_missing_key_named(self, where, key):
        truth = custom_truth()
        del (truth if where is None else truth[where])[key]
        with pytest.raises(ValueError, match=key):
            diffsim.load_truth(truth)

    @pytest.mark.parametrize("where, key, value, message", [
        (None, "bo", [[0.0]], r"true_model has unknown keys \['bo'\]"),
        ("xi", "inti", [0.0], r"true_model.xi has unknown keys \['inti'\]"),
        ("xi", "level", ["5"], r"true_model.xi.level must be"),
        ("zeta", "level", [True], r"true_model.zeta.level must be"),
        (None, "delta", 5, r"true_model.delta must be an object"),
        (None, "gamma", [["1.5"]], r"true_model.gamma must be"),
        ("delta", "mean_reversion", [[1.0]],
         r"true_model.delta: mean_reversion must be 2x2")],
        ids=["misspelt-b0", "misspelt-init", "level-text", "level-bool",
             "block-number", "gamma-text", "block-shapes-disagree"])
    def test_custom_truth_malformed_named(self, where, key, value, message):
        truth = custom_truth()
        (truth if where is None else truth[where])[key] = value
        with pytest.raises(ValueError, match=message):
            diffsim.load_truth(truth)


class TestRendering:
    def test_text_layout(self, small_run):
        _, (table, _) = small_run
        text = harness.render_table(table, "text")
        assert "n=100" in text
        for criterion in CRITERIA:
            assert criterion in text
        assert "failures" in text

    def test_csv_row_count(self, small_run):
        _, (table, _) = small_run
        csv = harness.render_table(table, "csv").strip().splitlines()
        expected = len(CRITERIA) * len(table.n_values) * len(table.model_ids)
        assert len(csv) == expected + 1  # header
        assert csv[0] == "criterion,n,model_id,count,share"

    def test_unknown_format(self, small_run):
        _, (table, _) = small_run
        with pytest.raises(ValueError):
            harness.render_table(table, "latex")

    def test_replications_csv_cell_text(self, tmp_path):
        # Each cell reads as str() of a Python float or np.float64 (the
        # record dicts' values), True/False, an int, or "" on a failed row.
        floats = [0.1 + 0.2, 1e-7, 1e16, 1e22, -0.0, 5e-324,
                  1.7976931348623157e308]
        text = ["0.30000000000000004", "1e-07", "1e+16", "1e+22", "-0.0",
                "5e-324", "1.7976931348623157e+308"]
        records = harness.Records.allocate(["m1", "m2"], [(100, 0), (1000, 7)])
        values = [dict(zip(("h_at_hat", "lr_sat", *CRITERIA, "grad_norm"),
                           floats[k:] + floats[:k]),
                       j_flag=k == 0, converged=True, boundary_hit=k == 1,
                       iterations=12 + k, evaluations=2 ** 40 + k)
                  for k in range(3)]
        for k, row in enumerate(values):
            for column, value in row.items():
                records.columns[column][k] = value
            records.failed[k] = False
        records.columns["selected_by"][0] = [0, 0, 1]
        table = harness.SelectionTable(
            n_values=[100, 1000],
            model_ids=["m1", "m2"],
            counts={(c, n): {"m1": int(n == 100 and c != "qaic"),
                             "m2": int(n == 100 and c == "qaic")}
                    for c in CRITERIA for n in (100, 1000)},
            failures={1000: 1}, replications=1)
        path = harness.write_outputs(table, records, tmp_path)["replications_csv"]
        lines = pathlib.Path(path).read_text().splitlines()
        assert lines == [
            ",".join(harness.REPLICATION_COLUMNS),
            "0,100,m1,0.30000000000000004,1e-07,1e+16,1e+22,-0.0,True,True,"
            "False,12,1099511627776,5e-324,qbic1+qbic2",
            "0,100,m2,1e-07,1e+16,1e+22,-0.0,5e-324,False,True,True,13,"
            "1099511627777,1.7976931348623157e+308,qaic",
            "7,1000,m1,1e+16,1e+22,-0.0,5e-324,1.7976931348623157e+308,False,"
            "True,False,14,1099511627778,0.30000000000000004,",
            "7,1000,m2,,,,,,,,,,,,fit_failed"]
        # The dict records wrote str() of Python floats and np.float64 alike.
        assert [str(v) for v in floats] == text
        assert [str(np.float64(v)) for v in floats] == text
        assert [records[k] for k in range(3)] == [
            {"rep": 7 if k == 2 else 0, "n": 1000 if k == 2 else 100,
             "model": "m2" if k == 1 else "m1", **row,
             "selected_by": ["qbic1+qbic2", "qaic", ""][k]}
            for k, row in enumerate(values)]

    def test_write_outputs(self, small_run, tmp_path):
        _, (table, records) = small_run
        paths = harness.write_outputs(table, records, tmp_path / "out")
        for path in paths.values():
            assert (tmp_path / "out").exists()
        text = pathlib.Path(paths["replications_csv"]).read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(harness.REPLICATION_COLUMNS)
        assert len(lines) == 1 + len(records)


PROBE_CASES = [("model1", "model3", "qbic1"), ("model1", "model2", "qbic2"),
               ("model2", "model1", "qaic")]


def probe_config(**overrides):
    return small_config(n_values=[200, 500], replications=2, master_seed=11,
                        model_spec_paths=["model1"], **overrides)


@functools.lru_cache(maxsize=None)
def direct_gap_probe(model_a, model_b, criterion):
    """Reference for ``gap_growth_probe`` on ``probe_config()``: simulate,
    fit both models from their limit optima and difference the criterion,
    in one plain loop."""
    config = probe_config()
    specs = [models.resolve_spec(m) for m in (model_a, model_b)]
    truth = diffsim.load_truth(config.true_model)
    sigma0 = diffsim.implied_sigma(truth)
    (theta_a, lim_a), (theta_b, lim_b) = [
        qmle.limit_optimum(spec, sigma0, starts=max(config.starts, 4),
                           seed=config.master_seed) for spec in specs]
    diffs = {n: [] for n in config.n_values}
    for n in config.n_values:
        for rep in range(config.replications):
            seed = harness.split_seed(config.master_seed, n, rep)
            qv = quad_var(diffsim.simulate_custom(truth, n=n, T=config.T,
                                                  seed=seed).x_obs, config.T)
            row_a, row_b = [
                criteria_row(qmle.fit(LikelihoodSurface(spec, qv), init=theta))
                for spec, theta in zip(specs, (theta_a, theta_b))]
            diffs[n].append((row_b.value(criterion) - row_a.value(criterion)) / n)
    return harness.GapProbeResult(
        criterion=criterion,
        level=float(np.mean([d for v in diffs.values() for d in v])),
        analytic_level=float(2.0 * (lim_a - lim_b)),
        per_n={n: float(np.mean(v)) for n, v in diffs.items()},
        n_values=config.n_values, replications=config.replications,
        limit_value_a=float(lim_a), limit_value_b=float(lim_b))


class TestGapProbe:
    def test_same_model_level_zero(self, tmp_path):
        # model1 against a copy of itself under another name
        copy = models.load_builtin("model1")
        copy.name = "model1_copy"
        copy.to_json(tmp_path / "copy.json")
        config = small_config(n_values=[2000], replications=3)
        out = harness.gap_growth_probe(config, "model1",
                                       str(tmp_path / "copy.json"))
        assert out.analytic_level == 0.0
        assert abs(out.level) < 0.01

    def test_same_model_rejected(self, monkeypatch):
        monkeypatch.setattr(harness, "limit_optimum", lambda *args, **kwargs:
                            pytest.fail("limit optimum ran before the check"))
        with pytest.raises(SpecError, match="duplicate model names"):
            harness.gap_growth_probe(small_config(), "model1", "model1")

    def test_specs_rank_screened(self, tmp_path):
        path = tmp_path / "degenerate.json"
        make_degenerate_model().to_json(path)
        with pytest.raises(SpecError, match="rank screen"):
            harness.gap_growth_probe(small_config(), "model1", str(path))

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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", PROBE_CASES, ids="-".join)
    def test_matches_direct_loop(self, case, workers):
        out = harness.gap_growth_probe(probe_config(workers=workers), *case)
        assert out == direct_gap_probe(*case)

    def test_unknown_criterion_rejected_first(self, monkeypatch):
        monkeypatch.setattr(harness, "limit_optimum", lambda *args, **kwargs:
                            pytest.fail("limit optimum ran before the check"))
        with pytest.raises(ValueError, match="unknown criterion 'bic'"):
            harness.gap_growth_probe(small_config(), "model1", "model2",
                                     criterion="bic")

    def test_failed_fit_names_replication(self, monkeypatch):
        monkeypatch.setattr(harness, "fit_lanes", failing_fit_lanes("model2"))
        with pytest.raises(AllStartsFailedError, match="n=100, rep 0"):
            harness.gap_growth_probe(small_config(replications=1),
                                     "model1", "model2")


class TestSimulatorEntries:
    """A benchmark hook patches ``diffsim.simulate_custom`` to clock each
    replication, so every replication must enter it there exactly once."""

    @pytest.fixture()
    def entries(self, monkeypatch):
        calls = []
        original = diffsim.simulate_custom

        def entered(*args, **kwargs):
            calls.append(kwargs["n"])
            return original(*args, **kwargs)

        monkeypatch.setattr(diffsim, "simulate_custom", entered)
        return calls

    def test_run_experiment(self, entries):
        harness.run_experiment(small_config(n_values=[100, 200], replications=2,
                                            model_spec_paths=["model1"]))
        assert entries == [100, 100, 200, 200]

    def test_gap_probe(self, entries):
        harness.gap_growth_probe(small_config(n_values=[100, 200], replications=2),
                                 "model1", "model2", criterion="qaic")
        assert entries == [100, 100, 200, 200]


class TestTransitionBuilds:
    """Each of the truth's four block transitions is built once per grid
    size in a process, however many replications and runs use it."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        original = diffsim._build_transition

        def counted(block, h):
            calls.append(h)
            return original(block, h)

        monkeypatch.setattr(diffsim, "_build_transition", counted)
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        return calls

    @pytest.mark.parametrize("replications", [1, 3])
    def test_run_experiment(self, builds, replications):
        config = small_config(n_values=[100, 200], replications=replications,
                              model_spec_paths=["model1"], workers=1)
        harness.run_experiment(config)
        assert builds == [1 / 100] * 4 + [1 / 200] * 4
        harness.run_experiment(config)
        assert len(builds) == 8

    @pytest.mark.parametrize("replications", [1, 3])
    def test_gap_probe(self, builds, replications):
        config = small_config(n_values=[100, 200], replications=replications)
        harness.gap_growth_probe(config, "model1", "model2", criterion="qaic")
        assert builds == [1 / 100] * 4 + [1 / 200] * 4
        harness.gap_growth_probe(config, "model1", "model2", criterion="qaic")
        assert len(builds) == 8


# -- the asymptotic law of the fitted value -------------------------------------

CHI2_N, CHI2_REPS = 10_000, 200


@pytest.fixture(scope="module")
def chi2_study():
    """The true-init study of model1-3 at n = 10^4, with each model's
    ``lr_sat`` column."""
    table, records = harness.run_experiment(small_config(
        n_values=[CHI2_N], replications=CHI2_REPS, master_seed=1))
    lr_sat = {model: np.array([r["lr_sat"] for r in records
                               if r["model"] == model])
              for model in ("model1", "model2", "model3")}
    return table, lr_sat


class TestChiSquareOracle:
    """At large n the quasi-likelihood ratio against the saturated model,
    ``lr_sat``, is chi-square with p(p+1)/2 - q degrees of freedom for a
    correct model: 33 for model1, 32 for model2.  The nested statistic
    ``lr_sat(model1) - lr_sat(model2)`` is chi-square with 1, so model2, the
    overfit, is picked with probability P(chi2_1 > log n) by qbic2 and
    P(chi2_1 > 2) = 0.157 by qaic.  This tests that the fits reach the
    optimum: with ``_MAX_ITER = 2`` the KS p-values fall to about 0.

    The bounds were set after master seeds 1-8 at 200 replications, which
    gave KS p-values of 0.087-0.943 (model1) and 0.140-0.997 (model2),
    qbic2 shares of 0-0.010 and qaic shares of 0.110-0.205."""

    @pytest.mark.parametrize("model, df", [("model1", 33), ("model2", 32)])
    def test_correct_models_follow_their_law(self, chi2_study, model, df):
        _, lr_sat = chi2_study
        assert stats.kstest(lr_sat[model], stats.chi2(df).cdf).pvalue > 0.01

    @pytest.mark.parametrize("criterion, threshold", [
        ("qbic2", np.log(CHI2_N)), ("qaic", 2.0)], ids=["qbic2", "qaic"])
    def test_overfit_share_predicted(self, chi2_study, criterion, threshold):
        table, _ = chi2_study
        predicted = stats.chi2(1).sf(threshold)
        share = table.share(criterion, CHI2_N, "model2")
        error = np.sqrt(predicted * (1.0 - predicted) / CHI2_REPS)
        assert abs(share - predicted) <= 3.0 * error

    def test_misspecified_model_rejected(self, chi2_study):
        table, lr_sat = chi2_study
        assert all(table.share(c, CHI2_N, "model3") == 0.0 for c in CRITERIA)
        assert lr_sat["model3"].min() > 1000.0
