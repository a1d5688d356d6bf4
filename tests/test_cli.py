import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from hfsem import harness, models
from hfsem.cli import main
from hfsem.diffsim import simulate_true_model
from hfsem.qlik import quad_var
from tests.conftest import all_fixed_spec


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestSimulate:
    def test_writes_csv_with_header(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        invoke(runner, ["simulate", "--model", "true4-6", "--n", "50",
                        "--T", "1", "--seed", "3", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"x{i}" for i in range(1, 11))
        assert len(lines) == 52

    def test_latent_dump(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        invoke(runner, ["simulate", "--n", "10", "--T", "1",
                        "--seed", "3", "--out", str(out), "--with-latents"])
        header = out.read_text().splitlines()[0].split(",")
        assert "xi1" in header and "delta4" in header
        assert "eps6" in header and "zeta2" in header and "eta2" in header
        assert len(header) == 1 + 10 + 1 + 4 + 6 + 2 + 2

    def test_unknown_model(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--model", "nope", "--n", "5",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code != 0

    @pytest.mark.parametrize("option, value", [
        ("--n", "0"), ("--seed", "-1"), ("--T", "nan"),
        ("--n", "10000000000000")])  # an 800 TB path: MemoryError at once
    def test_invalid_input_is_one_line_error(self, runner, tmp_path,
                                             option, value):
        argv = ["simulate", "--n", "5", "--seed", "0", "--T", "1",
                "--out", str(tmp_path / "x.csv")]
        argv[argv.index(option) + 1] = value
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert len(result.output.strip().splitlines()) == 1

    def test_determinism(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            invoke(runner, ["simulate", "--n", "20", "--T", "1",
                            "--seed", "9", "--out", str(out)])
        assert a.read_text() == b.read_text()


class TestQuadvar:
    def test_matches_library(self, runner, tmp_path):
        path = tmp_path / "path.csv"
        out = tmp_path / "q.csv"
        invoke(runner, ["simulate", "--n", "200", "--T", "1", "--seed", "5",
                        "--out", str(path)])
        invoke(runner, ["quadvar", "--in", str(path), "--T", "1",
                        "--out", str(out)])
        q = np.loadtxt(out, delimiter=",")
        bundle = simulate_true_model(200, 1.0, seed=5)
        expected = quad_var(bundle.x_obs, 1.0).q_xx
        assert np.abs(q - expected).max() < 1e-8

    def test_headerless_default_savetxt(self, runner, tmp_path):
        # np.savetxt's default %.18e format puts an 'e' in every field.
        bundle = simulate_true_model(100, 1.0, seed=6)
        t = np.arange(bundle.n + 1) * bundle.h
        path, out = tmp_path / "bare.csv", tmp_path / "q.csv"
        np.savetxt(path, np.column_stack([t, bundle.x_obs]), delimiter=",")
        invoke(runner, ["quadvar", "--in", str(path), "--T", "1",
                        "--out", str(out)])
        expected = quad_var(bundle.x_obs, 1.0).q_xx
        assert np.abs(np.loadtxt(out, delimiter=",") - expected).max() < 1e-8

    def test_latent_columns_ignored(self, runner, tmp_path):
        plain, latent = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(runner, ["simulate", "--n", "50", "--T", "1", "--seed", "4",
                        "--out", str(plain)])
        invoke(runner, ["simulate", "--n", "50", "--T", "1", "--seed", "4",
                        "--out", str(latent), "--with-latents"])
        qa, qb = tmp_path / "qa.csv", tmp_path / "qb.csv"
        invoke(runner, ["quadvar", "--in", str(plain), "--T", "1", "--out", str(qa)])
        invoke(runner, ["quadvar", "--in", str(latent), "--T", "1", "--out", str(qb)])
        assert np.allclose(np.loadtxt(qa, delimiter=","),
                           np.loadtxt(qb, delimiter=","), atol=1e-12)


@pytest.mark.parametrize("command", [["quadvar", "--in"],
                                     ["fit", "--spec", "model1", "--data"]],
                         ids=["quadvar", "fit"])
def test_headed_path_without_x_columns(runner, tmp_path, command):
    # A header names the columns; without an x* column there is no path.
    data, out = tmp_path / "path.csv", tmp_path / "out"
    data.write_text("t,y1,y2\n0,1,2\n1,2,4\n")
    result = runner.invoke(main, [*command, str(data), "--T", "1",
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: no x* columns in {data}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def fit_files(tmp_path_factory):
    runner = CliRunner()
    root = tmp_path_factory.mktemp("cli_fit")
    path = root / "path.csv"
    invoke(runner, ["simulate", "--n", "800", "--T", "1", "--seed", "21",
                    "--out", str(path)])
    fits = []
    for name in ("model1", "model2", "model3"):
        out = root / f"{name}.json"
        invoke(runner, ["fit", "--spec", name, "--data", str(path),
                        "--T", "1", "--out", str(out)])
        fits.append(out)
    return root, path, fits


class TestFitAndCriteria:
    def test_fit_report_fields(self, fit_files):
        _, _, fits = fit_files
        doc = json.loads(fits[0].read_text())
        assert list(doc) == ["model", "n", "q", "theta_hat", "h_at_hat",
                             "grad_norm", "hessian", "iterations",
                             "evaluations", "restarts", "converged",
                             "boundary_hit"]
        assert doc["n"] == 800 and doc["q"] == 22

    def test_fit_with_init_and_starts(self, runner, fit_files, tmp_path):
        root, path, _ = fit_files
        init = tmp_path / "init.csv"
        np.savetxt(init, [[3, 4, 6, 3, 2, 2, 4, 3, 2, 9, 4, 1, 4, 9, 25, 1,
                           4, 1, 9, 4, 9, 1]], delimiter=",")
        out = tmp_path / "fit.json"
        invoke(runner, ["fit", "--spec", "model1", "--data", str(path),
                        "--T", "1", "--init", str(init), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["restarts"] == 0

    def test_fit_rejects_grid_below_observed_dimension(self, runner, tmp_path):
        # 5 increments of p = 10 series give a rank-5 Q, whose fit ran off
        # to the box; fit and table1 refuse it with the same message.
        message = ("Error: grid size n=5 is below p=10, the observed "
                   "dimension of 'model1'\n")
        path, out = tmp_path / "path.csv", tmp_path / "fit.json"
        invoke(runner, ["simulate", "--n", "5", "--T", "1", "--seed", "3",
                        "--out", str(path)])
        result = runner.invoke(main, ["fit", "--spec", "model1", "--data",
                                      str(path), "--T", "1", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == message
        assert not out.exists()
        config = tmp_path / "exp.json"
        harness.ExperimentConfig(n_values=[5], T=1.0, replications=1,
                                 master_seed=5,
                                 model_spec_paths=["model1"]).to_json(config)
        result = runner.invoke(main, ["table1", "--config", str(config),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output == message

    def test_criteria_csv(self, runner, fit_files, tmp_path):
        _, _, fits = fit_files
        out = tmp_path / "criteria.csv"
        args = ["criteria"]
        for f in fits:
            args += ["--fits", str(f)]
        args += ["--criterion", "qbic2", "--out", str(out)]
        invoke(runner, args)
        lines = out.read_text().splitlines()
        assert lines[0] == ("model_id,q,n,h_at_hat,qbic1,qbic2,qaic,"
                            "j_flag,posterior_prob,selected")
        assert len(lines) == 4
        selected = [ln.split(",")[0] for ln in lines[1:]
                    if ln.split(",")[-1] == "True"]
        assert selected == ["model1"]
        probs = [float(ln.split(",")[-2]) for ln in lines[1:]]
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_fit_then_criteria_with_no_free_parameter(self, runner, fit_files,
                                                      model1, tmp_path):
        # criteria reads what fit writes for q = 0, whose 0 x 0 Hessian
        # JSON holds as [].
        _, path, fits = fit_files
        spec, fit = tmp_path / "fixed1.json", tmp_path / "fixed1_fit.json"
        all_fixed_spec(model1, models.THETA1_TRUE, "fixed1").to_json(spec)
        invoke(runner, ["fit", "--spec", str(spec), "--data", str(path),
                        "--T", "1", "--out", str(fit)])
        assert json.loads(fit.read_text())["hessian"] == []
        out = tmp_path / "criteria.csv"
        invoke(runner, ["criteria", "--fits", str(fits[0]), "--fits", str(fit),
                        "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["model1", "22"], ["fixed1", "0"]]
        qbic1, qbic2, qaic, j_flag = rows[1][4:8]
        assert qbic1 == qbic2 == qaic and j_flag == "True"

    def test_criteria_priors_flag(self, runner, fit_files, tmp_path):
        _, _, fits = fit_files
        out = tmp_path / "criteria.csv"
        args = ["criteria"]
        for f in fits:
            args += ["--fits", str(f)]
        args += ["--priors", "0.2,0.3,0.5", "--out", str(out)]
        invoke(runner, args)

    def test_criteria_rejects_mixed_grids(self, runner, fit_files, tmp_path):
        root, path, fits = fit_files
        other = tmp_path / "path2.csv"
        invoke(runner, ["simulate", "--n", "400", "--T", "1", "--seed", "22",
                        "--out", str(other)])
        fit2 = tmp_path / "m1_other.json"
        invoke(runner, ["fit", "--spec", "model1", "--data", str(other),
                        "--T", "1", "--out", str(fit2)])
        result = runner.invoke(main, ["criteria", "--fits", str(fits[0]),
                                      "--fits", str(fit2),
                                      "--out", str(tmp_path / "c.csv")])
        assert result.exit_code != 0

    def test_criteria_rejects_repeated_model(self, runner, fit_files, tmp_path):
        # Two fits of one model would each be selected, with posterior 1/2.
        _, _, fits = fit_files
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["criteria", "--fits", str(fits[0]),
                                      "--fits", str(fits[1]),
                                      "--fits", str(fits[0]),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "Error: two fits of model 'model1'\n"
        assert not out.exists()


@pytest.mark.parametrize("name", ["m,1", 'm"1', "m\n1"],
                         ids=["comma", "quote", "newline"])
def test_model_name_is_a_bare_csv_cell(runner, fit_files, tmp_path, name):
    # The criteria CSV, like a study's table.csv and replications.csv,
    # writes a model name as a bare cell, where a comma would shift every
    # later column of its row: a spec and a fit report refuse such a name.
    _, path, fits = fit_files
    spec, fit, out = tmp_path / "spec.json", tmp_path / "fit.json", tmp_path / "out"
    spec.write_text(json.dumps({**models.load_builtin("model1").to_dict(),
                                "name": name}))
    fit.write_text(json.dumps({**json.loads(fits[0].read_text()), "model": name}))
    rule = f"must be a string with no comma, double quote or line break, got {name!r}"
    for argv, field in (
            (["fit", "--spec", str(spec), "--data", str(path), "--T", "1"], "name"),
            (["criteria", "--fits", str(fit), "--fits", str(fits[1])],
             "fit report field 'model'")):
        result = runner.invoke(main, [*argv, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"Error: {field} {rule}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["quadvar", "--in", "{path}", "--T", "0", "--out", "{out}"],
    ["quadvar", "--in", "{path}", "--T", "inf", "--out", "{out}"],
    ["fit", "--spec", "nosuch", "--data", "{path}", "--T", "1", "--out", "{out}"],
    ["fit", "--spec", "model1", "--data", "{path}", "--T", "1",
     "--starts", "0", "--out", "{out}"],
    ["criteria", "{fits}", "--priors", "a,b", "--out", "{out}"],
    ["criteria", "{fits}", "--priors", "0.5", "--out", "{out}"],
    ["criteria", "{fits}", "--priors", "0.2,0.2", "--out", "{out}"],
    ["table1", "--config", "{config}", "--out-dir", "{out}"],
    ["quadvar", "--in", "{one_row_headed}", "--T", "1", "--out", "{out}"],
    ["quadvar", "--in", "{one_row_bare}", "--T", "1", "--out", "{out}"],
    ["fit", "--spec", "model1", "--data", "{path}", "--T", "1",
     "--init", "{short_init}", "--out", "{out}"],
    ["criteria", "{fits}", "--priors", "nan,0.5,0.5", "--out", "{out}"],
    ["criteria", "--fits", "{partial_fit}", "--out", "{out}"],
    ["quadvar", "--in", "{time_only}", "--T", "1", "--out", "{out}"],
    ["criteria", "--fits", "{q_null_fit}", "--out", "{out}"],
    ["criteria", "--fits", "{text_theta_fit}", "--out", "{out}"],
    ["fit", "--spec", "{nan_spec}", "--data", "{path}", "--T", "1",
     "--out", "{out}"],
    ["fit", "--spec", "{index_float_spec}", "--data", "{path}", "--T", "1",
     "--out", "{out}"],
    ["criteria", "--fits", "{flag_text_fit}", "--out", "{out}"],
    ["table1", "--config", "{unknown_key_config}", "--out-dir", "{out}"],
    ["fit", "--spec", "{list_doc}", "--data", "{path}", "--T", "1",
     "--out", "{out}"],
    ["table1", "--config", "{list_doc}", "--out-dir", "{out}"],
    ["criteria", "--fits", "{number_doc}", "--out", "{out}"],
    ["criteria", "--fits", "{text_loglik_fit}", "--out", "{out}"],
    ["table1", "--config", "{number_n_values_config}", "--out-dir", "{out}"],
    ["table1", "--config", "{number_truth_config}", "--out-dir", "{out}"],
    ["table1", "--config", "{nested_criteria_config}", "--out-dir", "{out}"],
    ["table1", "--config", "{nested_paths_config}", "--out-dir", "{out}"],
    ["fit", "--spec", "{dir}", "--data", "{path}", "--T", "1", "--out", "{out}"],
    ["table1", "--config", "{dir}", "--out-dir", "{out}"],
    ["criteria", "--fits", "{q_mismatch_fit}", "--out", "{out}"],
    ["criteria", "--fits", "{n_zero_fit}", "--out", "{out}"],
    ["criteria", "{fits}", "--fits", "{nan_loglik_fit}", "--out", "{out}"],
    ["criteria", "--fits", "{nan_hessian_fit}", "--out", "{out}"],
    ["fit", "--spec", "{bad_json}", "--data", "{path}", "--T", "1",
     "--out", "{out}"],
    ["table1", "--config", "{bad_json}", "--out-dir", "{out}"],
    ["criteria", "{fits}", "--fits", "{bad_json}", "--out", "{out}"],
    ["fit", "--spec", "{huge_fixed_spec}", "--data", "{path}", "--T", "1",
     "--out", "{out}"],
    ["fit", "--spec", "{huge_bound_spec}", "--data", "{path}", "--T", "1",
     "--out", "{out}"],
    ["table1", "--config", "{huge_T_config}", "--out-dir", "{out}"],
], ids=["quadvar-T0", "quadvar-Tinf", "fit-nosuch-spec", "fit-starts0",
        "priors-not-numbers", "priors-one-of-three", "priors-sum",
        "table1-replications", "quadvar-one-row-headed",
        "quadvar-one-row-bare", "fit-init-length", "priors-nan",
        "criteria-fit-missing-fields", "quadvar-time-column-only",
        "criteria-fit-q-null", "criteria-fit-theta-text", "fit-spec-nan",
        "fit-spec-index-float", "criteria-fit-flag-text",
        "table1-unknown-key", "fit-spec-list", "table1-config-list",
        "criteria-fit-number", "criteria-fit-loglik-text",
        "table1-n_values-number", "table1-true_model-number",
        "table1-criteria-nested", "table1-model_spec_paths-nested",
        "fit-spec-directory", "table1-config-directory",
        "criteria-fit-q-mismatch", "criteria-fit-n-zero",
        "criteria-fit-loglik-nan", "criteria-fit-hessian-nan",
        "fit-spec-not-json", "table1-config-not-json", "criteria-fit-not-json",
        "fit-spec-fixed-huge", "fit-spec-bound-huge", "table1-T-huge"])
def test_library_error_is_one_line(runner, fit_files, tmp_path, argv):
    _, path, fits = fit_files
    fit_doc = json.loads(fits[0].read_text())
    doc = harness.ExperimentConfig(
        n_values=[100], T=1.0, replications=1, master_seed=5,
        model_spec_paths=["model1"]).to_dict()
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**doc, "replications": 2.5}))
    nan_spec, index_float_spec, huge_fixed_spec, huge_bound_spec = (
        models.load_builtin("model1").to_dict() for _ in range(4))
    nan_spec["b"][1][0] = {"fixed": "nan"}
    index_float_spec["gamma"][0][0] = {"free": {"index": 7.0}}
    # JSON integers beyond float range
    huge_fixed_spec["b"][1][0] = {"fixed": 10 ** 400}
    huge_bound_spec["bounds"]["lower"][0] = -10 ** 400
    files = {"{one_row_headed}": "t,x1,x2\n0,1,2\n", "{one_row_bare}": "0,1,2\n",
             "{short_init}": "2.0\n", "{partial_fit}": '{"model": "m"}',
             "{time_only}": "0\n1\n2\n",
             "{q_null_fit}": json.dumps({**fit_doc, "q": None}),
             "{text_theta_fit}": json.dumps({**fit_doc, "theta_hat": ["a"]}),
             "{nan_spec}": json.dumps(nan_spec),
             "{index_float_spec}": json.dumps(index_float_spec),
             "{flag_text_fit}": json.dumps({**fit_doc, "converged": "false"}),
             "{unknown_key_config}": json.dumps({**doc, "worker": 2}),
             "{list_doc}": "[1, 2]", "{number_doc}": "5",
             "{bad_json}": '{"schema": }',
             "{text_loglik_fit}": json.dumps({**fit_doc, "h_at_hat": "-3649.5"}),
             "{q_mismatch_fit}": json.dumps({**fit_doc, "q": 5}),
             "{n_zero_fit}": json.dumps({**fit_doc, "n": 0}),
             "{nan_loglik_fit}": json.dumps({**fit_doc, "model": "m",
                                             "h_at_hat": math.nan}),
             "{nan_hessian_fit}": json.dumps(
                 {**fit_doc, "hessian": [[math.nan] * 22] * 22}),
             "{number_n_values_config}": json.dumps({**doc, "n_values": 100}),
             "{number_truth_config}": json.dumps({**doc, "true_model": 5}),
             "{nested_criteria_config}": json.dumps({**doc, "criteria": [["qbic1"]]}),
             "{nested_paths_config}": json.dumps(
                 {**doc, "model_spec_paths": [["model1"]]}),
             "{huge_fixed_spec}": json.dumps(huge_fixed_spec),
             "{huge_bound_spec}": json.dumps(huge_bound_spec),
             "{huge_T_config}": json.dumps({**doc, "T": 10 ** 400})}
    fill = {"{path}": [str(path)], "{out}": [str(tmp_path / "out")],
            "{config}": [str(config)], "{dir}": [str(tmp_path)],
            "{fits}": [a for f in fits for a in ("--fits", str(f))]}
    for key, text in files.items():
        target = tmp_path / key.strip("{}")
        target.write_text(text)
        fill[key] = [str(target)]
    args = [a for arg in argv for a in fill.get(arg, [arg])]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ")
    assert len(result.output.strip().splitlines()) == 1
    assert "Traceback" not in result.output
    if "{bad_json}" in argv:  # the message names the file it cannot parse
        named = f"Error: cannot parse {fill['{bad_json}'][0]}: "
        assert result.output.startswith(named)
    huge = {"{huge_fixed_spec}": "b[1][0].fixed", "{huge_bound_spec}": "bounds.lower",
            "{huge_T_config}": "T"}
    for key, field in huge.items():
        if key in argv:  # the message names the field
            assert result.output == (f"Error: {field} must be a number within "
                                     "float range, got an integer beyond it\n")


@pytest.mark.parametrize("argv, culprit, reason", [
    (["simulate", "--n", "5", "--out", "{missing}"], "{missing}", "missing"),
    (["quadvar", "--in", "{path}", "--T", "1", "--out", "{missing}"],
     "{missing}", "missing"),
    (["fit", "--spec", "model1", "--data", "{path}", "--T", "1",
      "--out", "{missing}"], "{missing}", "missing"),
    (["criteria", "{fits}", "--out", "{missing}"], "{missing}", "missing"),
    (["quadvar", "--in", "{dir}", "--T", "1", "--out", "{out}"], "{dir}",
     "directory"),
    (["fit", "--spec", "model1", "--data", "{dir}", "--T", "1",
      "--out", "{out}"], "{dir}", "directory"),
    (["fit", "--spec", "model1", "--data", "{path}", "--T", "1",
      "--init", "{dir}", "--out", "{out}"], "{dir}", "directory"),
], ids=["simulate-out", "quadvar-out", "fit-out", "criteria-out",
        "quadvar-in-directory", "fit-data-directory", "fit-init-directory"])
def test_path_error_is_one_line(runner, fit_files, tmp_path, argv, culprit,
                                reason):
    _, path, fits = fit_files
    fill = {"{path}": [str(path)], "{out}": [str(tmp_path / "out")],
            "{missing}": [str(tmp_path / "nodir" / "x.csv")],
            "{dir}": [str(tmp_path)],
            "{fits}": [a for f in fits for a in ("--fits", str(f))]}
    args = [a for arg in argv for a in fill.get(arg, [arg])]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    strerror = {"missing": "No such file or directory",
                "directory": "Is a directory"}[reason]
    assert result.output == f"Error: {fill[culprit][0]}: {strerror}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_write_error_without_filename(runner, fit_files):
    # Writing to /dev/full fails with an OSError that names no file: the
    # message is the error itself.
    _, path, _ = fit_files
    result = runner.invoke(main, ["quadvar", "--in", str(path), "--T", "1",
                                  "--out", "/dev/full"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: [Errno 28] No space left on device\n"


class TestTable1:
    def test_invariant_violation_reported(self, runner, tmp_path, monkeypatch):
        def broken(table):
            raise AssertionError("count leak")

        monkeypatch.setattr(harness.SelectionTable, "validate", broken)
        config = harness.ExperimentConfig(
            n_values=[100], T=1.0, replications=1, master_seed=5,
            model_spec_paths=["model1"], init_mode="moment", starts=1)
        config_path = tmp_path / "exp.json"
        config.to_json(config_path)
        out_dir = tmp_path / "results"
        result = runner.invoke(main, ["table1", "--config", str(config_path),
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert "invariant violation: count leak" in result.output
        assert not any(out_dir.iterdir())  # made before the run, left empty

    def test_unusable_out_dir_stops_before_the_study(self, runner, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", lambda *args, **kw:
                            pytest.fail("the study ran"))
        config_path = tmp_path / "exp.json"
        harness.ExperimentConfig(n_values=[100], T=1.0, replications=1,
                                 master_seed=5,
                                 model_spec_paths=["model1"]).to_json(config_path)
        blocker = tmp_path / "p.csv"
        blocker.write_text("")
        out_dir = blocker / "out"
        result = runner.invoke(main, ["table1", "--config", str(config_path),
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert result.output == f"Error: {out_dir}: Not a directory\n"

    def test_workers_override(self, runner, tmp_path):
        # --workers replaces the config's worker count, and the config
        # checks the new count; the files do not depend on it.
        config_path = tmp_path / "exp.json"
        harness.ExperimentConfig(
            n_values=[100], T=1.0, replications=3, master_seed=5,
            model_spec_paths=["model1", "model3"]).to_json(config_path)
        files = ("table.txt", "table.csv", "replications.csv")
        written = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"workers{workers}"
            invoke(runner, ["table1", "--config", str(config_path),
                            "--out-dir", str(out_dir), "--workers", workers])
            written.append([(out_dir / name).read_bytes() for name in files])
        assert written[0] == written[1]
        out_dir = tmp_path / "workers0"
        result = runner.invoke(main, ["table1", "--config", str(config_path),
                                      "--out-dir", str(out_dir), "--workers", "0"])
        assert result.exit_code == 1
        assert result.output == ("Error: workers must be an integer of at "
                                 "least 1, got 0\n")
        assert not out_dir.exists()

    def test_full_run(self, runner, tmp_path):
        config = harness.ExperimentConfig(
            n_values=[100], T=1.0, replications=2, master_seed=5,
            model_spec_paths=["model1", "model2", "model3"])
        config_path = tmp_path / "exp.json"
        config.to_json(config_path)
        out_dir = tmp_path / "results"
        result = invoke(runner, ["table1", "--config", str(config_path),
                                 "--out-dir", str(out_dir)])
        assert (out_dir / "table.txt").exists()
        assert (out_dir / "table.csv").exists()
        assert (out_dir / "replications.csv").exists()
        assert "Selection counts" in result.output
