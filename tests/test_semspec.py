import contextlib
import json
import os
import pathlib
import re

import numpy as np
import pytest

import hfsem
from hfsem import matkit, models, qmle, semspec
from hfsem.errors import SingularStructureError, SpecError
from hfsem.qlik import LikelihoodSurface, QuadVar
from hfsem.qmle import check_identifiability
from hfsem.semspec import (SemSpec, jacobian_rank, moment_start,
                           nested_embedding, rank_screen)
from tests.conftest import (all_specs, cellwalk_moment_start,
                            cellwalk_nested_embedding, edited_spec, fixed,
                            free, interior_theta, make_label_switch_spec,
                            make_sign_flip_spec, make_structural_spec)

SPECS = all_specs()
SPEC_IDS = [spec.name for spec in SPECS]


def same_embedding(got, want) -> bool:
    """Both None, or the same (F, c) arrays with the same dtypes."""
    if got is None or want is None:
        return got is want
    return all(g.dtype == w.dtype and np.array_equal(g, w)
               for g, w in zip(got, want))


class TestPack:
    """How a spec lays its free cells out in theta."""

    def test_all_fixed_spec_gives_empty_theta(self):
        patterns = {
            "lambda_x1": [[fixed(1.0)]],
            "lambda_x2": [[fixed(1.0)]],
            "b": [[fixed(0.0)]],
            "gamma": [[fixed(2.0)]],
            "sigma_xixi": [[fixed(1.0)]],
            "sigma_dd": [[fixed(1.0)]],
            "sigma_ee": [[fixed(1.0)]],
            "sigma_zz": [[fixed(1.0)]],
        }
        spec = SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns,
                       lower=[], upper=[], name="allfixed")
        assert spec.q == 0
        # x1 = xi + d, x2 = 2 xi + z + e
        theta = np.empty(0)
        assert np.array_equal(spec.sigma(theta), [[2.0, 2.0], [2.0, 6.0]])
        assert spec.jacobian(theta).shape == (3, 0)

    def test_shape_mismatch(self, model1):
        patterns = dict(model1.patterns)
        patterns["gamma"] = [[model1.patterns["gamma"][0][0], fixed(2.0)]]
        dims = {"p1": model1.p1, "p2": model1.p2, "k1": model1.k1, "k2": model1.k2}
        with pytest.raises(SpecError, match="gamma"):
            SemSpec(dims, patterns, model1.lower, model1.upper)

    @staticmethod
    def _one_loading(constraint, lower):
        patterns = {
            "lambda_x1": [[fixed(1.0)], [free(0, constraint)]],
            "lambda_x2": [[fixed(1.0)]],
            "b": [[fixed(0.0)]],
            "gamma": [[fixed(1.0)]],
            "sigma_xixi": [[fixed(1.0)]],
            "sigma_dd": [[fixed(1.0), fixed(0.0)], [fixed(0.0), fixed(1.0)]],
            "sigma_ee": [[fixed(1.0)]],
            "sigma_zz": [[fixed(1.0)]],
        }
        return SemSpec({"p1": 2, "p2": 1, "k1": 1, "k2": 1}, patterns,
                       lower=[lower], upper=[10.0])

    def test_sign_constraint_violation(self):
        # "positive" on a loading puts it in the positive mask, so its box
        # must exclude zero
        with pytest.raises(SpecError, match="positive lower"):
            self._one_loading("positive", 0.0)
        assert self._one_loading("positive", 0.1).positive_mask.tolist() == [True]
        # "nonzero" is a label only: a box through zero builds, and the
        # implied covariance is defined at zero
        spec = self._one_loading("nonzero", -10.0)
        assert spec.positive_mask.tolist() == [False]
        assert spec.sigma(np.zeros(1))[1, 0] == 0.0


class TestImpliedCov:
    def test_known_entries(self, model1):
        sigma = model1.sigma(models.THETA1_TRUE)
        assert sigma[0, 0] == 13.0
        assert sigma[0, 1] == 27.0
        assert sigma[4, 4] == 115.0

    def test_matches_hand_assembled_truth(self, model1, model2, sigma0_oracle):
        assert np.abs(model1.sigma(models.THETA1_TRUE) - sigma0_oracle).max() == 0.0
        assert np.abs(model2.sigma(models.THETA2_TRUE) - sigma0_oracle).max() == 0.0

    def test_blocks_consistent(self, model1):
        # the observed blocks: L1 Phi L1' + S_dd, L1 Phi G' L2' and
        # L2 (G Phi G' + S_zz) L2' + S_ee at the truth (B = 0)
        sigma = model1.sigma(models.THETA1_TRUE)
        l1 = np.array([[1.0], [3.0], [4.0], [6.0]])
        l2 = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0],
                       [0.0, 1.0], [0.0, 2.0], [0.0, 4.0]])
        g, phi = np.array([[3.0], [2.0]]), np.array([[9.0]])
        s_dd = np.diag([4.0, 1.0, 4.0, 9.0])
        s_ee = np.diag([25.0, 1.0, 4.0, 1.0, 9.0, 4.0])
        s_zz = np.diag([9.0, 1.0])
        assert np.array_equal(sigma[:4, :4], l1 @ phi @ l1.T + s_dd)
        assert np.array_equal(sigma[:4, 4:], l1 @ phi @ g.T @ l2.T)
        assert np.array_equal(sigma[4:, 4:],
                              l2 @ (g @ phi @ g.T + s_zz) @ l2.T + s_ee)

    def test_exact_symmetry_at_random_theta(self, model2):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = interior_theta(model2, rng, around=models.THETA2_TRUE)
            sigma = model2.sigma(theta)
            assert np.array_equal(sigma, sigma.T)

    def test_zero_gamma_zero_loadings_kill_cross_block(self):
        patterns = {
            "lambda_x1": [[fixed(1.0)], [free(0)]],
            "lambda_x2": [[fixed(0.0)], [fixed(0.0)]],
            "b": [[fixed(0.0)]],
            "gamma": [[fixed(0.0)]],
            "sigma_xixi": [[free(1, "positive")]],
            "sigma_dd": [[free(2, "positive"), fixed(0.0)],
                         [fixed(0.0), free(3, "positive")]],
            "sigma_ee": [[free(4, "positive"), fixed(0.0)],
                         [fixed(0.0), free(5, "positive")]],
            "sigma_zz": [[free(6, "positive")]],
        }
        spec = SemSpec({"p1": 2, "p2": 2, "k1": 1, "k2": 1}, patterns,
                       lower=[-1e3] + [1e-6] * 6, upper=[1e3] + [1e4] * 6)
        sigma = spec.sigma([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0])
        assert np.array_equal(sigma[:2, 2:], np.zeros((2, 2)))

    def test_wrong_theta_length(self, model1):
        with pytest.raises(SpecError):
            model1.sigma(np.ones(5))


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
            "lambda_x1": [[fixed(1.0)]],
            "lambda_x2": [[fixed(1.0), fixed(0.0)],
                          [fixed(0.0), fixed(1.0)]],
            "b": [[fixed(0.0), free(0)],
                  [free(1), fixed(0.0)]],
            "gamma": [[fixed(1.0)], [fixed(1.0)]],
            "sigma_xixi": [[fixed(1.0)]],
            "sigma_dd": [[fixed(1.0)]],
            "sigma_ee": [[fixed(1.0), fixed(0.0)],
                         [fixed(0.0), fixed(1.0)]],
            "sigma_zz": [[fixed(1.0), fixed(0.0)],
                         [fixed(0.0), fixed(1.0)]],
        }
        spec2 = SemSpec({"p1": 1, "p2": 2, "k1": 1, "k2": 2}, patterns,
                        lower=[-1e3, -1e3], upper=[1e3, 1e3], name="loopy")
        with pytest.raises(SingularStructureError):
            spec2.sigma([1.0, 1.0])
        spec2.sigma([0.5, 0.5])  # well inside the invertible region


class TestSpecValidation:
    @pytest.mark.parametrize("name", ["m,1", 'm"1', "m\n1", "m\r1", 5],
                             ids=["comma", "quote", "newline", "return",
                                  "number"])
    def test_name_is_a_bare_csv_cell(self, model1, name):
        # The CSV outputs write a model name as a bare cell, where a comma
        # would shift every later column of its row.
        dims = {"p1": model1.p1, "p2": model1.p2, "k1": model1.k1, "k2": model1.k2}
        message = ("^name must be a string with no comma, double quote or "
                   f"line break, got {re.escape(repr(name))}$")
        with pytest.raises(SpecError, match=message):
            SemSpec(dims, model1.patterns, model1.lower, model1.upper, name=name)
        with pytest.raises(SpecError, match=message):
            SemSpec.from_dict({**model1.to_dict(), "name": name})

    def test_nonzero_b_diagonal_rejected(self):
        patterns = {
            "lambda_x1": [[fixed(1.0)]],
            "lambda_x2": [[fixed(1.0)]],
            "b": [[fixed(0.5)]],
            "gamma": [[fixed(1.0)]],
            "sigma_xixi": [[fixed(1.0)]],
            "sigma_dd": [[fixed(1.0)]],
            "sigma_ee": [[fixed(1.0)]],
            "sigma_zz": [[fixed(1.0)]],
        }
        with pytest.raises(SpecError):
            SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns, [], [])

    def test_singular_fixed_b_rejected(self):
        # a fixed b is checked once at construction: I - b singular here
        patterns = {
            "lambda_x1": [[fixed(1.0)]],
            "lambda_x2": [[fixed(1.0), fixed(0.0)],
                          [fixed(0.0), fixed(1.0)]],
            "b": [[fixed(0.0), fixed(1.0)],
                  [fixed(1.0), fixed(0.0)]],
            "gamma": [[fixed(1.0)], [fixed(1.0)]],
            "sigma_xixi": [[free(0, "positive")]],
            "sigma_dd": [[fixed(1.0)]],
            "sigma_ee": [[fixed(1.0), fixed(0.0)],
                         [fixed(0.0), fixed(1.0)]],
            "sigma_zz": [[fixed(1.0), fixed(0.0)],
                         [fixed(0.0), fixed(1.0)]],
        }
        with pytest.raises(SpecError, match="singular"):
            SemSpec({"p1": 1, "p2": 2, "k1": 1, "k2": 2}, patterns,
                    lower=[1e-6], upper=[1e4])

    def test_duplicate_theta_index_rejected(self):
        patterns = {
            "lambda_x1": [[free(0)]],
            "lambda_x2": [[free(0)]],
            "b": [[fixed(0.0)]],
            "gamma": [[fixed(1.0)]],
            "sigma_xixi": [[fixed(1.0)]],
            "sigma_dd": [[fixed(1.0)]],
            "sigma_ee": [[fixed(1.0)]],
            "sigma_zz": [[fixed(1.0)]],
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


    @staticmethod
    def _scalar(lower=(), upper=(), dims=None, **cells):
        """p1 = p2 = k1 = k2 = 1 patterns: every cell fixed (b at 0, the
        rest at 1) except the given ``role=cell`` ones."""
        patterns = {role: [[fixed(0.0 if role == "b" else 1.0)]]
                    for role in ("lambda_x1", "lambda_x2", "b", "gamma",
                                 "sigma_xixi", "sigma_dd", "sigma_ee", "sigma_zz")}
        patterns.update({role: [[cell]] for role, cell in cells.items()})
        return SemSpec(dims or {"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns,
                       lower, upper)

    def test_index_gap_rejected(self):
        with pytest.raises(SpecError, match=r"cover 0\.\.q-1"):
            self._scalar([-1, -1], [1, 1], lambda_x1=free(0), lambda_x2=free(2))

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None])
    def test_dimensions_must_be_integers(self, value):
        dims = {"p1": 1, "p2": 1, "k1": value, "k2": 1}
        with pytest.raises(SpecError, match="dimension 'k1' must be an integer"):
            self._scalar(dims=dims)
        assert self._scalar(dims={**dims, "k1": np.int64(1)}).k1 == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "1.0", True, None])
    def test_fixed_value_must_be_finite_number(self, value):
        with pytest.raises(SpecError,
                           match=r"^gamma\[0\]\[0\]\.fixed must be a (finite )?number"):
            self._scalar(gamma=fixed(value))

    @pytest.mark.parametrize("index", [0.9, 0.0, True, "0", None])
    def test_free_index_must_be_integer(self, index):
        with pytest.raises(SpecError,
                           match=r"^gamma\[0\]\[0\]\.free\.index must be an integer"):
            self._scalar([-1.0], [1.0], gamma=free(index))

    @pytest.mark.parametrize("lower, upper", [([-1.0, -1.0], [1.0, 1.0]),
                                              ([-1.0], [1.0, 2.0]),
                                              ([], [1.0])],
                             ids=["both-long", "upper-long", "lower-empty"])
    def test_bounds_of_the_wrong_length_rejected(self, lower, upper):
        with pytest.raises(SpecError, match=r"^bounds must have length q=1$"):
            self._scalar(lower, upper, gamma=free(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, model1, quadvar_1e4, bad):
        theta = models.THETA1_TRUE.copy()
        theta[3] = bad
        with pytest.raises(SpecError, match=r"^theta has non-finite entries$"):
            model1.sigma(theta)
        with pytest.raises(SpecError, match=r"^theta has non-finite entries$"):
            qmle.fit_multistart(model1, quadvar_1e4, 1, init=theta)

    def test_bounds_nan_rejected_infinite_allowed(self):
        spec = self._scalar([-np.inf], [np.inf], gamma=free(0))
        assert spec.sigma([2.0])[1, 1] == 6.0
        for lower, upper in (([np.nan], [1.0]), ([-1.0], [np.nan]),
                             ([np.inf], [np.inf])):
            with pytest.raises(SpecError, match="strictly below"):
                self._scalar(lower, upper, gamma=free(0))

    def test_free_off_diagonal_covariance_mirrored(self):
        # index 9 is the free sigma_dd[0, 1] = sigma_dd[1, 0] cell: Sigma is
        # linear in it, with derivative E01 + E10 in the sigma_dd block
        spec = make_structural_spec()
        theta = interior_theta(spec, np.random.default_rng(5))
        expected = np.zeros((spec.p, spec.p))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(spec.jacobian(theta)[:, 9], matkit.vech(expected))
        assert not spec.positive_mask[9]
        assert spec.positive_mask[[8, 10]].all()


class TestJacobianRank:
    """One rank test for the rank screen, the identifiability check and
    ``gamma_zero``."""

    def test_is_the_jacobian_and_its_rank(self, model1, degenerate_model):
        jac, rank, record = jacobian_rank(model1, models.THETA1_TRUE)
        assert np.array_equal(jac, model1.jacobian(models.THETA1_TRUE))
        assert np.array_equal(record.jacobian([0])[0], jac)
        assert rank == 22
        theta = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert jacobian_rank(degenerate_model, theta)[1] < degenerate_model.q

    def test_rank_screen_verdicts(self, model1, model2, model3,
                                  degenerate_model):
        assert all(map(rank_screen, (model1, model2, model3)))
        assert not rank_screen(degenerate_model)

    def test_rank_screen_skips_a_singular_draw(self, monkeypatch):
        # With b's two off-diagonal cells free (and gamma[1] fixed at 0,
        # which identifies the loop), I - b is singular where their
        # product is 1; a draw there is passed over for the next.
        spec = edited_spec(make_structural_spec(), {
            ("b", 0, 1): free(18), ("gamma", 1, 0): fixed(0.0)}, "loop")
        b = spec.to_dict()["b"]
        loop = [b[0][1]["free"]["index"], b[1][0]["free"]["index"]]
        probe, draws = semspec._probe_start, []

        def singular_first(spec, rng):
            theta = probe(spec, rng)
            if not draws:
                theta[loop] = 1.0
            draws.append(theta)
            return theta

        monkeypatch.setattr(semspec, "_probe_start", singular_first)
        assert rank_screen(spec)
        assert len(draws) == 2
        with pytest.raises(SingularStructureError):
            jacobian_rank(spec, draws[0])


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


    @pytest.mark.parametrize("seed", range(8))
    def test_sign_flip_witnessed(self, seed):
        # full rank, but negated loadings reproduce the covariance; ten
        # trials found one witness at seeds 0 and 3, two to four at the
        # other seeds
        spec = make_sign_flip_spec()
        theta = np.array([1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0])
        report = check_identifiability(spec, theta, trials=10, seed=seed)
        assert report.rank == 8 and report.rank_ok
        assert report.witnesses
        assert not report.passed
        flipped = np.concatenate([-theta[:3], theta[3:]])
        sigma0 = spec.sigma(theta)
        for witness in report.witnesses:
            assert np.abs(witness["theta"] - flipped).max() < 1e-6
            assert np.linalg.norm(spec.sigma(witness["theta"]) - sigma0) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_label_switch_witnessed(self, seed):
        # full rank, but the swapped loading columns reproduce the
        # covariance; ten trials found one witness at seeds 2 and 5, two to
        # five at the other seeds
        spec = make_label_switch_spec()
        loadings = np.array([[2.0, 0.5], [0.3, 1.5], [1.0, -0.7], [1.2, 0.4]])
        tail = np.concatenate([np.linspace(0.5, 1.5, 5), [1.0]])
        theta = np.concatenate([loadings.ravel(), tail])
        report = check_identifiability(spec, theta, trials=10, seed=seed)
        assert report.rank == spec.q == 14 and report.rank_ok
        assert report.witnesses
        assert not report.passed
        swapped = np.concatenate([loadings[:, ::-1].ravel(), tail])
        sigma0 = spec.sigma(theta)
        for witness in report.witnesses:
            assert np.abs(witness["theta"] - swapped).max() < 1e-6
            assert np.linalg.norm(spec.sigma(witness["theta"]) - sigma0) < 1e-8

    @pytest.mark.parametrize("key, bad", [
        ("trials", 0), ("trials", -3), ("trials", 2.7), ("trials", True),
        ("seed", -1), ("seed", 1.5), ("seed", "0"),
    ])
    def test_probe_arguments_checked(self, model1, key, bad):
        # A count below 1 would pass with no probe run and a fraction would
        # be truncated; each bad argument is a ValueError naming it.
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            check_identifiability(model1, models.THETA1_TRUE,
                                  **{"trials": 2, "seed": 0, key: bad})


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


    @pytest.mark.parametrize("outer", SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("inner", SPECS, ids=SPEC_IDS)
    def test_matches_cell_walk(self, inner, outer):
        assert same_embedding(nested_embedding(inner, outer),
                              cellwalk_nested_embedding(inner, outer))


class TestEmbeddingEdits:
    """Embeddings between the structural spec and edits of it: cases no
    pair of bundled models reaches.  Each agrees with the cell walk, and
    an embedding reproduces the inner covariance."""

    base = make_structural_spec()

    def embed(self, inner, outer):
        got = nested_embedding(inner, outer)
        assert same_embedding(got, cellwalk_nested_embedding(inner, outer))
        if got is not None:
            f, c = got
            rng = np.random.default_rng(4)
            for _ in range(5):
                theta = interior_theta(inner, rng)
                np.testing.assert_allclose(outer.sigma(f @ theta + c),
                                           inner.sigma(theta), rtol=1e-12)
        return got

    def test_outer_only_free_cell_takes_inner_value(self):
        # lambda_x2[2, 1] is the second factor's scale loading, fixed at 1
        freed = edited_spec(self.base, {("lambda_x2", 2, 1):
                                        {"free": {"index": 18}}}, "freed")
        f, c = self.embed(self.base, freed)
        assert np.array_equal(f, np.eye(19)[:, :18])
        assert np.array_equal(c, np.eye(19)[18])
        assert self.embed(freed, self.base) is None

    def test_fixed_values_differ(self):
        rescaled = edited_spec(self.base, {("lambda_x2", 2, 1): {"fixed": 2.0}},
                               "rescaled")
        assert self.embed(self.base, rescaled) is None
        assert self.embed(rescaled, self.base) is None

    def test_inner_free_cell_fixed_by_outer(self):
        # gamma[0, 0] is theta[5]
        pinned = edited_spec(self.base, {("gamma", 0, 0): {"fixed": 0.5}},
                             "pinned")
        assert self.embed(self.base, pinned) is None
        f, c = self.embed(pinned, self.base)
        assert not f[5].any() and c[5] == 0.5 and np.count_nonzero(c) == 1

    def test_symmetric_pair_fixed_by_inner(self):
        # sigma_dd[0, 1] and its mirror are theta[9]
        paired = edited_spec(self.base, {("sigma_dd", 0, 1): {"fixed": 0.3}},
                             "paired")
        f, c = self.embed(paired, self.base)
        assert not f[9].any() and c[9] == 0.3 and np.count_nonzero(c) == 1
        assert self.embed(self.base, paired) is None


class TestMomentStart:
    def test_one_function(self):
        assert qmle.moment_start is hfsem.moment_start is moment_start

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_matches_cell_walk(self, spec, sigma0_oracle):
        rng = np.random.default_rng(spec.q)
        targets = [sigma0_oracle] if spec.p == 10 else []
        for _ in range(5):
            # random scales, so some starts are clipped into the box
            a = rng.standard_normal((spec.p, spec.p))
            targets.append(10.0 ** rng.uniform(-3, 5)
                           * (a @ a.T + np.diag(rng.uniform(0.1, 2.0, spec.p))))
        for q_xx in targets:
            got, want = moment_start(spec, q_xx), cellwalk_moment_start(spec, q_xx)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q_xx", [np.eye(4), np.eye(12), np.ones((10, 3))],
                             ids=["4x4", "12x12", "10x3"])
    def test_q_shape_checked(self, model1, q_xx):
        # The spec's one shape rule names Q's shape and p before any
        # arithmetic, in moment_start for every entry that starts from it
        # and for a likelihood surface.
        message = (rf"^quadratic covariation is \({q_xx.shape[0]}, "
                   rf"{q_xx.shape[1]}\), model observes p=10$")
        with pytest.raises(ValueError, match=message):
            moment_start(model1, q_xx)
        with pytest.raises(ValueError, match=message):
            qmle.start_set(model1, q_xx, starts=3, seed=1)
        if q_xx.shape[0] == q_xx.shape[1]:
            with pytest.raises(ValueError, match=message):
                qmle.fit_multistart(model1, QuadVar(q_xx, n=100, T=1.0))
            with pytest.raises(ValueError, match=message):
                LikelihoodSurface(model1, QuadVar(q_xx, n=100, T=1.0))

    def test_stack_refused(self, model1, sigma0_oracle):
        with pytest.raises(ValueError, match=r"^quadratic covariation is "
                           r"\(2, 10, 10\), not one matrix$"):
            moment_start(model1, np.array([sigma0_oracle] * 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_q_refused(self, model1, sigma0_oracle, bad):
        # A non-finite Q is named, not turned into NaN starts that a fit
        # later blames on theta.
        q_xx = sigma0_oracle.copy()
        q_xx[2, 2] = bad
        message = r"^quadratic covariation Q has non-finite entries$"
        with pytest.raises(ValueError, match=message):
            moment_start(model1, q_xx)
        with pytest.raises(ValueError, match=message):
            qmle.start_set(model1, q_xx, starts=3, seed=1)


class TestCheckCovariation:
    """``SemSpec.check_covariation`` is the one shape rule of a covariance
    a spec meets: one matrix, or a stack, whose last two axes are (p, p)."""

    @pytest.mark.parametrize("shape", [(10, 10), (3, 10, 10), (0, 10, 10)])
    def test_accepted(self, model1, shape):
        model1.check_covariation(np.zeros(shape), "Q")

    @pytest.mark.parametrize("shape", [(), (10,), (10, 9), (9, 10),
                                       (2, 4, 4), (10, 10, 1)])
    def test_refused(self, model1, shape):
        message = re.escape(f"Q is {shape}, model observes p=10")
        with pytest.raises(ValueError, match=f"^{message}$"):
            model1.check_covariation(np.zeros(shape), "Q")


class TestJson:
    def test_round_trip(self, model2, tmp_path):
        path = tmp_path / "m2.json"
        model2.to_json(path)
        loaded = SemSpec.from_json(path)
        assert loaded.to_dict() == model2.to_dict()
        assert np.array_equal(loaded.sigma(models.THETA2_TRUE),
                              model2.sigma(models.THETA2_TRUE))

    def test_unknown_builtin_is_a_spec_error(self):
        with pytest.raises(SpecError, match="model9"):
            models.load_builtin("model9")

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
        match = field
        if field == "index":
            del doc["gamma"][0][0]["free"]["index"]
        elif field.startswith("bounds."):
            key = field.split(".")[1]
            del doc["bounds"][key]
            match = rf"bounds is missing fields \['{key}'\]"
        else:
            del doc[field]
        with pytest.raises(SpecError, match=match):
            SemSpec.from_dict(doc)

    def test_malformed_cell_rejected(self, model1):
        # gamma[0][0] is model1's free index 7
        for cell, message in [
                ({"frobnicate": 1}, "exactly one key"),
                ({"fixed": 1.0, "free": {"index": 7}}, "exactly one key"),
                ({"free": {"index": 7}, "note": "x"}, "exactly one key"),
                ({}, "exactly one key"),
                (7, "exactly one key"),
                ({"fixed": "nan"}, "fixed must be a number"),
                ({"fixed": "1.0"}, "fixed must be a number"),
                ({"free": 7}, r"gamma\[0\]\[0\]\.free must be an object"),
                ({"free": {"index": 7.0}}, "free.index must be an integer"),
                ({"free": {"index": 7.9}}, "free.index must be an integer"),
                ({"free": {"index": 7, "constrant": "positive"}}, "unknown keys"),
                ({"free": {"index": 7, "constraint": "positve"}}, "constraint")]:
            doc = model1.to_dict()
            doc["gamma"][0][0] = cell
            with pytest.raises(SpecError, match=message):
                SemSpec.from_dict(doc)

    @pytest.mark.parametrize("role, cells", [
        ("b", [(1, 0)]), ("sigma_dd", [(1, 0), (0, 1)]),
        ("lambda_x1", [(0, 0)])], ids=["b", "covariance-pair", "loading"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "nan"],
                             ids=["nan", "inf", "nan-text"])
    def test_nonfinite_fixed_value_rejected(self, model1, role, cells, value):
        doc = model1.to_dict()
        for i, j in cells:
            doc[role][i][j] = {"fixed": value}
        with pytest.raises(SpecError, match=r"\]\.fixed must be a (finite )?number"):
            SemSpec.from_dict(doc)

    @pytest.mark.parametrize("role, at, cell, message", [
        ("lambda_x1", (0, 0), {"fixed": True},
         r"lambda_x1\[0\]\[0\]\.fixed must be a number, got True"),
        ("lambda_x1", (0, 0), {"fixed": float("nan")},
         r"lambda_x1\[0\]\[0\]\.fixed must be a finite number, got nan"),
        ("lambda_x1", (0, 0), {"fixed": -float("inf")},
         r"lambda_x1\[0\]\[0\]\.fixed must be a finite number, got -inf"),
        ("lambda_x1", (0, 0), {"fixed": "1"},
         r"lambda_x1\[0\]\[0\]\.fixed must be a number, got '1'"),
        ("lambda_x1", (0, 0), {"fixed": None},
         r"lambda_x1\[0\]\[0\]\.fixed must be a number, got None"),
        ("gamma", (1, 0), {"free": {"index": 1.0}},
         r"gamma\[1\]\[0\]\.free\.index must be an integer of at least 0, got 1\.0"),
        ("gamma", (1, 0), {"free": {"index": -1}},
         r"gamma\[1\]\[0\]\.free\.index must be an integer of at least 0, got -1"),
        ("gamma", (1, 0), {"free": {"index": True}},
         r"gamma\[1\]\[0\]\.free\.index must be an integer of at least 0, got True"),
        ("gamma", (1, 0), {"free": {"index": "8"}},
         r"gamma\[1\]\[0\]\.free\.index must be an integer of at least 0, got '8'"),
        ("gamma", (1, 0), {"free": {"index": 8, "constraint": "big"}},
         r"gamma\[1\]\[0\]\.free\.constraint must be one of .*, got 'big'"),
        ("gamma", (1, 0), {"free": {"index": 8, "note": "x"}},
         r"gamma\[1\]\[0\]\.free has unknown keys \['note'\]"),
        ("gamma", (1, 0), {"free": {"index": 8}, "note": "x"},
         r"gamma\[1\]\[0\] must be an object with exactly one key"),
        ("gamma", (1, 0), {"fixed": 1.0, "free": {"index": 8}},
         r"gamma\[1\]\[0\] must be an object with exactly one key"),
        ("gamma", (1,), [free(8), fixed(0.0)], r"gamma\[1\] must be a list of 1 cells"),
        ("gamma", (1,), free(8), r"gamma\[1\] must be a list of 1 cells"),
        ("sigma_dd", (0, 1), {"fixed": 1.0},
         r"covariance cell sigma_dd\[1\]\[0\] must equal its mirror sigma_dd\[0\]\[1\]"),
        ("b", (1, 1), {"fixed": 0.5}, r"diagonal cell b\[1\]\[1\] must be fixed at zero")],
        ids=["fixed-bool", "fixed-nan", "fixed-inf", "fixed-text", "fixed-null",
             "index-float", "index-negative", "index-bool", "index-text",
             "constraint-unknown", "free-extra-key", "cell-extra-key",
             "cell-both-keys", "row-ragged", "row-not-list",
             "covariance-asymmetric", "b-diagonal-nonzero"])
    def test_malformed_cell_named(self, model1, role, at, cell, message):
        # Each cell is read by _doc's rules as the spec is built; the error
        # names the role and the cell (or row).
        doc = model1.to_dict()
        target = doc[role]
        for key in at[:-1]:
            target = target[key]
        target[at[-1]] = cell
        with pytest.raises(SpecError, match="^" + message):
            SemSpec.from_dict(doc)

    @pytest.mark.parametrize("where, value, message", [
        ("dims.p1", 4.5, "dimension 'p1' must be an integer"),
        ("dims.p1", True, "dimension 'p1' must be an integer"),
        ("dims.p3", 1, r"dims has unknown keys \['p3'\]"),
        ("bounds.middle", [], r"bounds has unknown keys \['middle'\]"),
        ("comment", "x", r"spec has unknown keys \['comment'\]"),
        ("gamma", 5, "pattern 'gamma' must be a list of 2 rows"),
        ("gamma", [5, 6], r"gamma\[0\] must be a list of 1 cells"),
        ("bounds.lower", ["-1000.0"] * 22, "bounds.lower must be a list of numbers"),
        ("bounds.upper", [True] * 22, "bounds.upper must be a list of numbers"),
        ("bounds.upper", 1000.0, "bounds.upper must be a list of numbers"),
        ("name", 5, "name must be a string")],
        ids=["dim-float", "dim-bool", "dims-extra", "bounds-extra", "spec-extra",
             "grid-number", "grid-row-number", "bound-text", "bound-bool",
             "bounds-number", "name-number"])
    def test_document_fields_checked(self, model1, where, value, message):
        doc = model1.to_dict()
        *parents, key = where.split(".")
        part = doc
        for parent in parents:
            part = part[parent]
        part[key] = value
        with pytest.raises(SpecError, match=message):
            SemSpec.from_dict(doc)

    def test_resolve_spec_unknown(self):
        with pytest.raises(SpecError):
            models.resolve_spec("no-such-model")

    def test_resolve_spec_rejects_non_path(self, model1, tmp_path):
        # os.path.exists takes an integer as an open file descriptor
        path = tmp_path / "m1.json"
        model1.to_json(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            for value in (fd, 1.5, None):
                with pytest.raises(SpecError, match="path or a builtin name"):
                    models.resolve_spec(value)
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)
