import json
import pathlib

import numpy as np
import pytest

from hfsem import matkit, models
from hfsem.errors import SingularStructureError, SpecError
from hfsem.qlik import LikelihoodSurface, quad_var
from hfsem.semspec import (Fixed, Free, PatternMatrix, SemSpec,
                           check_identifiability, nested_embedding)
from tests.conftest import interior_theta


def model1_true_matrices():
    return {
        "lambda_x1": np.array([[1.0], [3.0], [4.0], [6.0]]),
        "lambda_x2": np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0],
                               [0.0, 1.0], [0.0, 2.0], [0.0, 4.0]]),
        "b": np.zeros((2, 2)),
        "gamma": np.array([[3.0], [2.0]]),
        "sigma_xixi": np.array([[9.0]]),
        "sigma_dd": np.diag([4.0, 1.0, 4.0, 9.0]),
        "sigma_ee": np.diag([25.0, 1.0, 4.0, 1.0, 9.0, 4.0]),
        "sigma_zz": np.diag([9.0, 1.0]),
    }


class TestPack:
    def test_model1_true_matrices(self, model1):
        theta = model1.pack(model1_true_matrices())
        assert np.array_equal(theta, models.THETA1_TRUE)

    def test_model2_true_matrices(self, model2):
        values = model1_true_matrices()
        # same truth; the extra loading cell stays at its true value zero
        theta = model2.pack(values)
        assert np.array_equal(theta, models.THETA2_TRUE)
        assert theta[5] == 0.0

    def test_all_fixed_spec_gives_empty_theta(self):
        patterns = {
            "lambda_x1": PatternMatrix([[Fixed(1.0)]]),
            "lambda_x2": PatternMatrix([[Fixed(1.0)]]),
            "b": PatternMatrix([[Fixed(0.0)]]),
            "gamma": PatternMatrix([[Fixed(2.0)]]),
            "sigma_xixi": PatternMatrix([[Fixed(1.0)]]),
            "sigma_dd": PatternMatrix([[Fixed(1.0)]]),
            "sigma_ee": PatternMatrix([[Fixed(1.0)]]),
            "sigma_zz": PatternMatrix([[Fixed(1.0)]]),
        }
        spec = SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns,
                       lower=[], upper=[], name="allfixed")
        assert spec.q == 0
        theta = spec.pack({k: np.asarray([[v]] if k != "lambda_x2" else [[v]])
                           for k, v in [("lambda_x1", 1.0), ("lambda_x2", 1.0),
                                        ("b", 0.0), ("gamma", 2.0),
                                        ("sigma_xixi", 1.0), ("sigma_dd", 1.0),
                                        ("sigma_ee", 1.0), ("sigma_zz", 1.0)]})
        assert theta.shape == (0,)

    def test_round_trip(self, model1):
        rng = np.random.default_rng(11)
        for _ in range(5):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            values = model1.unpack(theta)
            assert np.array_equal(model1.pack(values), theta)
            # fixed cells never altered by unpack
            assert values["lambda_x1"][0, 0] == 1.0
            assert values["lambda_x2"][0, 0] == 1.0
            assert np.array_equal(values["b"], np.zeros((2, 2)))

    def test_shape_mismatch(self, model1):
        values = model1_true_matrices()
        values["gamma"] = np.array([[3.0, 2.0]])
        with pytest.raises(SpecError):
            model1.pack(values)

    def test_sign_constraint_violation(self, model1):
        values = model1_true_matrices()
        values["lambda_x1"][1, 0] = 0.0  # nonzero-constrained cell
        with pytest.raises(SpecError):
            model1.pack(values)
        values = model1_true_matrices()
        values["sigma_xixi"][0, 0] = -1.0
        with pytest.raises(SpecError):
            model1.pack(values)

    def test_fixed_cell_alteration(self, model1):
        values = model1_true_matrices()
        values["lambda_x1"][0, 0] = 2.0
        with pytest.raises(SpecError):
            model1.pack(values)


class TestImpliedCov:
    def test_known_entries(self, model1):
        cov = model1.implied_cov(models.THETA1_TRUE)
        assert cov.sigma[0, 0] == 13.0
        assert cov.sigma[0, 1] == 27.0
        assert cov.sigma[4, 4] == 115.0

    def test_matches_hand_assembled_truth(self, model1, model2, sigma0_oracle):
        assert np.abs(model1.sigma(models.THETA1_TRUE) - sigma0_oracle).max() == 0.0
        assert np.abs(model2.sigma(models.THETA2_TRUE) - sigma0_oracle).max() == 0.0

    def test_blocks_consistent(self, model1):
        cov = model1.implied_cov(models.THETA1_TRUE)
        assert np.array_equal(cov.sigma[:4, :4], cov.block11)
        assert np.array_equal(cov.sigma[:4, 4:], cov.block12)
        assert np.array_equal(cov.sigma[4:, 4:], cov.block22)

    def test_exact_symmetry_at_random_theta(self, model2):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = interior_theta(model2, rng, around=models.THETA2_TRUE)
            sigma = model2.sigma(theta)
            assert np.array_equal(sigma, sigma.T)

    def test_zero_gamma_zero_loadings_kill_cross_block(self):
        patterns = {
            "lambda_x1": PatternMatrix([[Fixed(1.0)], [Free(0)]]),
            "lambda_x2": PatternMatrix([[Fixed(0.0)], [Fixed(0.0)]]),
            "b": PatternMatrix([[Fixed(0.0)]]),
            "gamma": PatternMatrix([[Fixed(0.0)]]),
            "sigma_xixi": PatternMatrix([[Free(1, "positive")]]),
            "sigma_dd": PatternMatrix([[Free(2, "positive"), Fixed(0.0)],
                                       [Fixed(0.0), Free(3, "positive")]]),
            "sigma_ee": PatternMatrix([[Free(4, "positive"), Fixed(0.0)],
                                       [Fixed(0.0), Free(5, "positive")]]),
            "sigma_zz": PatternMatrix([[Free(6, "positive")]]),
        }
        spec = SemSpec({"p1": 2, "p2": 2, "k1": 1, "k2": 1}, patterns,
                       lower=[-1e3] + [1e-6] * 6, upper=[1e3] + [1e4] * 6)
        cov = spec.implied_cov([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0])
        assert np.array_equal(cov.block12, np.zeros((2, 2)))

    def test_wrong_theta_length(self, model1):
        with pytest.raises(SpecError):
            model1.sigma(np.ones(5))


def make_structural_spec():
    """k2=2 with a free lower-triangular structural loading and a free
    off-diagonal factor covariance; exercises the b and symmetric
    off-diagonal Jacobian branches the bundled models never touch."""
    patterns = {
        "lambda_x1": PatternMatrix([[Fixed(1.0)], [Free(0)], [Free(1)]]),
        "lambda_x2": PatternMatrix([[Fixed(1.0), Fixed(0.0)],
                                    [Free(2), Fixed(0.0)],
                                    [Fixed(0.0), Fixed(1.0)],
                                    [Fixed(0.0), Free(3)]]),
        "b": PatternMatrix([[Fixed(0.0), Fixed(0.0)],
                            [Free(4), Fixed(0.0)]]),
        "gamma": PatternMatrix([[Free(5)], [Free(6)]]),
        "sigma_xixi": PatternMatrix([[Free(7, "positive")]]),
        "sigma_dd": PatternMatrix([
            [Free(8, "positive"), Free(9), Fixed(0.0)],
            [Free(9), Free(10, "positive"), Fixed(0.0)],
            [Fixed(0.0), Fixed(0.0), Free(11, "positive")]]),
        "sigma_ee": PatternMatrix([
            [Free(12, "positive"), Fixed(0.0), Fixed(0.0), Fixed(0.0)],
            [Fixed(0.0), Free(13, "positive"), Fixed(0.0), Fixed(0.0)],
            [Fixed(0.0), Fixed(0.0), Free(14, "positive"), Fixed(0.0)],
            [Fixed(0.0), Fixed(0.0), Fixed(0.0), Free(15, "positive")]]),
        "sigma_zz": PatternMatrix([[Free(16, "positive"), Fixed(0.0)],
                                   [Fixed(0.0), Free(17, "positive")]]),
    }
    lower = np.full(18, -1e3)
    upper = np.full(18, 1e3)
    for k in (7, 8, 10, 11, 12, 13, 14, 15, 16, 17):
        lower[k] = 1e-6
        upper[k] = 1e4
    return SemSpec({"p1": 3, "p2": 4, "k1": 1, "k2": 2}, patterns,
                   lower, upper, name="structural")


class TestJacobian:
    def test_single_parameter_identity(self, scalar_model):
        delta = scalar_model.jacobian([2.5])
        # vech of diag(theta, 1): only the (1,1) slot moves
        assert delta.shape == (3, 1)
        assert np.array_equal(delta[:, 0], [1.0, 0.0, 0.0])

    def test_model1_full_rank_at_truth(self, model1):
        delta = model1.jacobian(models.THETA1_TRUE)
        assert delta.shape == (55, 22)
        assert matkit.numeric_rank(delta) == 22

    @pytest.mark.parametrize("builder", ["model1", "model2", "model3", "structural"])
    def test_matches_finite_differences(self, builder, request):
        if builder == "structural":
            spec = make_structural_spec()
            rng = np.random.default_rng(42)
            thetas = [interior_theta(spec, rng, around=np.where(
                spec.positive_mask, 4.0, 1.5)) for _ in range(6)]
        else:
            spec = request.getfixturevalue(builder)
            rng = np.random.default_rng(42)
            base = {"model1": models.THETA1_TRUE, "model2": models.THETA2_TRUE,
                    "model3": None}[builder]
            thetas = [interior_theta(spec, rng, around=base) for _ in range(6)]
        for theta in thetas:
            delta = spec.jacobian(theta)
            fd = np.empty_like(delta)
            for j in range(spec.q):
                step = 1e-6 * (1.0 + abs(theta[j]))
                plus, minus = theta.copy(), theta.copy()
                plus[j] += step
                minus[j] -= step
                fd[:, j] = (matkit.vech(spec.sigma(plus)) -
                            matkit.vech(spec.sigma(minus))) / (2 * step)
            scale = 1.0 + np.abs(delta).max()
            assert np.abs(delta - fd).max() / scale < 1e-6

    def test_singular_structure_signal(self):
        spec = make_structural_spec()
        theta = np.ones(18)
        theta[7:] = 1.0
        # b lower cell is theta[4]; I - b singular needs b21*b12, but b12 is
        # fixed 0 here, so psi is always invertible: no error for any b21.
        spec.sigma(theta)
        # force singularity through a spec with both off-diagonal b cells free
        patterns = {
            "lambda_x1": PatternMatrix([[Fixed(1.0)]]),
            "lambda_x2": PatternMatrix([[Fixed(1.0), Fixed(0.0)],
                                        [Fixed(0.0), Fixed(1.0)]]),
            "b": PatternMatrix([[Fixed(0.0), Free(0)],
                                [Free(1), Fixed(0.0)]]),
            "gamma": PatternMatrix([[Fixed(1.0)], [Fixed(1.0)]]),
            "sigma_xixi": PatternMatrix([[Fixed(1.0)]]),
            "sigma_dd": PatternMatrix([[Fixed(1.0)]]),
            "sigma_ee": PatternMatrix([[Fixed(1.0), Fixed(0.0)],
                                       [Fixed(0.0), Fixed(1.0)]]),
            "sigma_zz": PatternMatrix([[Fixed(1.0), Fixed(0.0)],
                                       [Fixed(0.0), Fixed(1.0)]]),
        }
        spec2 = SemSpec({"p1": 1, "p2": 2, "k1": 1, "k2": 2}, patterns,
                        lower=[-1e3, -1e3], upper=[1e3, 1e3], name="loopy")
        with pytest.raises(SingularStructureError):
            spec2.sigma([1.0, 1.0])
        spec2.sigma([0.5, 0.5])  # well inside the invertible region


class TestSpecValidation:
    def test_nonzero_b_diagonal_rejected(self):
        patterns = {
            "lambda_x1": PatternMatrix([[Fixed(1.0)]]),
            "lambda_x2": PatternMatrix([[Fixed(1.0)]]),
            "b": PatternMatrix([[Fixed(0.5)]]),
            "gamma": PatternMatrix([[Fixed(1.0)]]),
            "sigma_xixi": PatternMatrix([[Fixed(1.0)]]),
            "sigma_dd": PatternMatrix([[Fixed(1.0)]]),
            "sigma_ee": PatternMatrix([[Fixed(1.0)]]),
            "sigma_zz": PatternMatrix([[Fixed(1.0)]]),
        }
        with pytest.raises(SpecError):
            SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns, [], [])

    def test_duplicate_theta_index_rejected(self):
        patterns = {
            "lambda_x1": PatternMatrix([[Free(0)]]),
            "lambda_x2": PatternMatrix([[Free(0)]]),
            "b": PatternMatrix([[Fixed(0.0)]]),
            "gamma": PatternMatrix([[Fixed(1.0)]]),
            "sigma_xixi": PatternMatrix([[Fixed(1.0)]]),
            "sigma_dd": PatternMatrix([[Fixed(1.0)]]),
            "sigma_ee": PatternMatrix([[Fixed(1.0)]]),
            "sigma_zz": PatternMatrix([[Fixed(1.0)]]),
        }
        with pytest.raises(SpecError):
            SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns,
                    [-1, -1], [1, 1])

    def test_nonpositive_variance_lower_bound_rejected(self, scalar_model):
        with pytest.raises(SpecError):
            SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1},
                    scalar_model.patterns, lower=[-1.0], upper=[10.0])

    def test_factor_dim_exceeding_observed_rejected(self, scalar_model):
        with pytest.raises(SpecError):
            SemSpec({"p1": 1, "p2": 1, "k1": 2, "k2": 1},
                    scalar_model.patterns, [1e-6], [1e4])


class TestIdentifiability:
    def test_model1_passes(self, model1):
        report = check_identifiability(model1, models.THETA1_TRUE,
                                       trials=10, seed=3)
        assert report.rank == 22
        assert report.rank_ok
        assert report.preimages_found > 0
        assert report.passed

    def test_model2_passes(self, model2):
        report = check_identifiability(model2, models.THETA2_TRUE,
                                       trials=10, seed=3)
        assert report.rank == 23
        assert report.passed

    def test_degenerate_spec_fails_rank(self, degenerate_model):
        theta = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        report = check_identifiability(degenerate_model, theta, trials=4, seed=0)
        assert not report.rank_ok
        assert not report.passed
        assert report.collinear_columns is not None
        i, j = report.collinear_columns
        d = degenerate_model.jacobian(theta)
        # the witness columns really are collinear
        assert matkit.numeric_rank(d[:, [i, j]]) == 1


class TestNestedEmbedding:
    def test_model1_in_model2(self, model1, model2):
        f, c = nested_embedding(model1, model2)
        assert f.shape == (23, 22)
        assert np.array_equal(f.T @ f, np.eye(22))
        assert np.array_equal(c, np.zeros(23))
        # the over-fitting slot is skipped by the index map
        assert f[5, :].sum() == 0.0

    def test_implied_cov_identity(self, model1, model2):
        f, c = nested_embedding(model1, model2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            s_inner = model1.sigma(theta)
            s_outer = model2.sigma(f @ theta + c)
            assert np.abs(s_inner - s_outer).max() < 1e-12

    def test_loglik_identity_on_data(self, model1, model2, quadvar_1e4):
        f, c = nested_embedding(model1, model2)
        s1 = LikelihoodSurface(model1, quadvar_1e4)
        s2 = LikelihoodSurface(model2, quadvar_1e4)
        rng = np.random.default_rng(10)
        for _ in range(20):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            assert abs(s1.value(theta) - s2.value(f @ theta + c)) <= 1e-10

    def test_self_embedding(self, model1):
        f, c = nested_embedding(model1, model1)
        assert np.array_equal(f, np.eye(22))
        assert np.array_equal(c, np.zeros(22))

    def test_dimension_mismatch_gives_none(self, model1, model3):
        assert nested_embedding(model3, model1) is None

    def test_larger_into_smaller_gives_none(self, model1, model2):
        assert nested_embedding(model2, model1) is None


class TestJson:
    def test_round_trip(self, model2, tmp_path):
        path = tmp_path / "m2.json"
        model2.to_json(path)
        loaded = SemSpec.from_json(path)
        assert loaded.to_dict() == model2.to_dict()
        assert np.array_equal(loaded.sigma(models.THETA2_TRUE),
                              model2.sigma(models.THETA2_TRUE))

    def test_builtin_names_are_file_stems(self):
        folder = pathlib.Path(models.__file__).parent / "model_files"
        stems = sorted(path.stem for path in folder.glob("*.json"))
        assert stems and models.builtin_names() == stems
        for name in stems:
            assert models.load_builtin(name).name == name

    def test_schema_version_enforced(self, model1, tmp_path):
        doc = model1.to_dict()
        doc["schema"] = "hfsem-spec-v0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecError):
            SemSpec.from_json(path)

    @pytest.mark.parametrize("field", ["dims", "bounds", "bounds.lower",
                                       "bounds.upper", "index"])
    def test_missing_field_named(self, model1, field):
        doc = model1.to_dict()
        if field == "index":
            del doc["gamma"][0][0]["free"]["index"]
        elif field.startswith("bounds."):
            del doc["bounds"][field.split(".")[1]]
        else:
            del doc[field]
        with pytest.raises(SpecError, match=field):
            SemSpec.from_dict(doc)

    def test_malformed_cell_rejected(self, model1):
        doc = model1.to_dict()
        doc["gamma"][0][0] = {"frobnicate": 1}
        with pytest.raises(SpecError):
            SemSpec.from_dict(doc)

    def test_resolve_spec_unknown(self):
        with pytest.raises(SpecError):
            models.resolve_spec("no-such-model")
