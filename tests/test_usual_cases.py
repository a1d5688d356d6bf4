"""The usual cases: the study's and the command line's outputs, pinned by
their SHA-256 digests.

- Six one-worker selection studies through ``run_experiment`` and
  ``write_outputs``: n_values [100, 1000], model1-3, master seeds 7, 11 and
  3, true init with 200 replications and moment init with 10.  Each pins
  ``table.txt``, ``table.csv`` and ``replications.csv``.  The worker count
  does not change the outputs (``test_worker_count_does_not_change_results``
  in ``test_harness.py``), so one worker stands for any.
- ``hfsem simulate --n 20000 --seed 4``, with and without
  ``--with-latents``: 20 000 steps are three chunks, so the calling
  thread and the helper thread share the draws.
- ``hfsem fit --T 1`` of model1-3 on that path (without latents), as
  JSON, with the default 8 starts and seed 0.

The digests were recorded by these tests' own calls on commit c3e5616,
with NumPy 2.4.6 and SciPy 1.17.1 on their bundled OpenBLAS 0.3.31
(DYNAMIC_ARCH, x86-64), BLAS threads unset.  They hold for that build: a
different BLAS or CPU kernel may round a product differently.  A change
that moves these bits on purpose records them again and says why; on a
mismatch a study prints each spec's selection counts, iteration total and
evaluation total, so the reader sees what moved.
"""

import hashlib
import json
import pathlib

import pytest
from click.testing import CliRunner

from hfsem import harness
from hfsem.cli import main
from hfsem.infocrit import CRITERIA

MODELS = ["model1", "model2", "model3"]
REPLICATIONS = {"true": 200, "moment": 10}

# (init_mode, master_seed) -> {file name: SHA-256}
STUDIES = {
    ("true", 7): {
        "table.txt":
            "2776615c82db27d6771bf6e802317bb85e59f0fdd0128136a9077b5b730a1829",
        "table.csv":
            "d0a25d0bd37968e9fac2e23f97fd065e7fe3bc7d8b8ecae236f7154ad6b79963",
        "replications.csv":
            "ba13e0d3623bb453caf3bb1ff572c468e5c216e615707d7c9b6cf8b9085cfee4",
    },
    ("true", 11): {
        "table.txt":
            "0b82cb69c1778e865e8fbc9b884cbcbd68a31c90f6ab40ad42e76bc24044da26",
        "table.csv":
            "82a2968a21d5534bfc5ae1e2adbf72317f7589c75bec59d906e244268333ec13",
        "replications.csv":
            "49a95bc01d15e7a731afb3b0ab9e9c03836f0c331f1a7a6f53d1ec3141375dd1",
    },
    ("true", 3): {
        "table.txt":
            "cd3e2d8772585678bd0ff7c4649f6501513f9a3a2bbfab35ec04107a6e6e1d91",
        "table.csv":
            "e9867afd8189a6513410ea18feb01b26286a496cf8d0decc97b209694bf1215b",
        "replications.csv":
            "3afa7527994bf997397ee6c985f56fcd0caa7dc12ef92f80ec186213b8ffd5da",
    },
    ("moment", 7): {
        "table.txt":
            "985d8f13e033342a666d3a55202ce675767f37279118dda32f163041dd51c6cd",
        "table.csv":
            "219b1c14b6ef83e133cdd3cf8219cf03e0932ba1eab89e9e1992860d9338ad4b",
        "replications.csv":
            "cea2bcaab2025f22e2371c1bc8455375346bc03d7cdffeffa78809bc2f7321ee",
    },
    ("moment", 11): {
        "table.txt":
            "f17fc712c33e8e2a5374f4b5ec41b1d57c533363170e4ba2a30c5b563bc0c0ed",
        "table.csv":
            "d9c703ed6106eca7807abcbf96afaaced4c32586b7bd348c064e825c5b40a1fb",
        "replications.csv":
            "8c46c3cb71a2eaafaf8aeff3fac3f56aff097aaf307ff642ba777c797d555f64",
    },
    ("moment", 3): {
        "table.txt":
            "d42a26d23494c5c36073fbb0ddca85ab4d1a6491311c4322ceebad83132ac331",
        "table.csv":
            "9ab495c21a321ed3649d90d7f05baa585b7b84860a7bb882788d3a9119ea8bb7",
        "replications.csv":
            "a05309e1064de301369ef5ba733ac7ff7525ab755e7f874f9e63581d9423e095",
    },
}
PATHS = {
    "path.csv":
        "594fa76efd18eba0db6591548649154c6c3f78600f5d6039c0736de3bd263fae",
    "latents.csv":
        "e0674a9f99ee55d5de036937e85c88627a942b501fee50f66d1af232806d394c",
}
FITS = {
    "model1":
        "c5694eaeffb496445b1c9e9fe7c63b571809e8a230b6d4fe870cffbe6a6f00f1",
    "model2":
        "a743245dc0b7d23873985cba919ed7f635efafd4a76c87e51297693ee0d0fe21",
    "model3":
        "d9934aab269619decb509ffda22391c3a67564a540ba8527608d30bc77b1b027",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_study(init_mode: str, seed: int, folder):
    """The study's table, records and ``{file name: digest}``."""
    config = harness.ExperimentConfig(
        n_values=[100, 1000], T=1.0, replications=REPLICATIONS[init_mode],
        master_seed=seed, model_spec_paths=MODELS, init_mode=init_mode)
    table, records = harness.run_experiment(config)
    paths = map(pathlib.Path, harness.write_outputs(table, records,
                                                    folder).values())
    return table, records, {path.name: sha256(path) for path in paths}


def study_summary(table, records) -> str:
    """Each spec's selection counts by criterion and n, and its iteration
    and evaluation totals over all replications."""
    model = records.columns["model"]
    lines = []
    for k, name in enumerate(table.model_ids):
        counts = {f"{c}@{n}": table.counts[c, n].get(name, 0)
                  for c in CRITERIA for n in table.n_values}
        lines.append(
            f"{name}: selected {counts}, iterations "
            f"{int(records.columns['iterations'][model == k].sum())}, "
            f"evaluations "
            f"{int(records.columns['evaluations'][model == k].sum())}")
    lines.append(f"failures {table.failures}")
    return "\n".join(lines)


def invoke(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@pytest.mark.parametrize("init_mode, seed", STUDIES,
                         ids=[f"{mode}-{seed}" for mode, seed in STUDIES])
def test_study_outputs_unchanged(init_mode, seed, tmp_path):
    table, records, digests = run_study(init_mode, seed, tmp_path)
    assert digests == STUDIES[init_mode, seed], study_summary(table, records)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """``hfsem simulate`` of the usual path, with and without latents."""
    folder = tmp_path_factory.mktemp("usual_paths")
    for name, flags in (("path.csv", []), ("latents.csv", ["--with-latents"])):
        invoke(["simulate", "--n", "20000", "--seed", "4",
                "--out", str(folder / name), *flags])
    return folder


def test_simulate_outputs_unchanged(simulated):
    assert {name: sha256(simulated / name) for name in PATHS} == PATHS


@pytest.mark.parametrize("name", FITS)
def test_fit_outputs_unchanged(simulated, name, tmp_path):
    out = tmp_path / f"{name}.json"
    invoke(["fit", "--spec", name, "--data", str(simulated / "path.csv"),
            "--T", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert sha256(out) == FITS[name], {
        key: report[key] for key in ("h_at_hat", "converged", "iterations",
                                     "evaluations")}
