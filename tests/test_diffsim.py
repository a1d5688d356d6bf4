import inspect

import numpy as np
import pytest

from hfsem import diffsim
from hfsem.errors import SingularStructureError
from tests.conftest import bundled_truth_doc, oneshot_simulate_custom

CHUNK = diffsim._CHUNK_ROWS
# Path lengths on both sides of the one- and two-chunk boundaries.
CHUNK_EDGES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
               2 * CHUNK + 1]
LATENTS = ("xi", "delta", "eps", "zeta", "eta")


def scalar_xi_block():
    # the benchmark's common factor: dx = -(2x - 5)dt + 3 dW, x0 = 3
    return diffsim.OuBlock(1, [[2.0]], [5.0], [[3.0]], [3.0])


def draw_endpoints(block, n, T, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([diffsim.simulate_ou(block, n, T, rng)[-1]
                     for _ in range(count)]).squeeze()


class TestSimulateOu:
    def test_degenerate_constant_path(self):
        block = diffsim.OuBlock(2, np.zeros((2, 2)), np.zeros(2),
                                np.zeros((2, 1)), [3.0, 3.0])
        path = diffsim.simulate_ou(block, 50, 1.0, np.random.default_rng(0))
        assert np.array_equal(path, np.full((51, 2), 3.0))

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_exact_moments_match_closed_form(self, T):
        block = scalar_xi_block()
        count = 6000
        finals = draw_endpoints(block, 1, T, count, seed=123)
        mean = 2.5 + 0.5 * np.exp(-2.0 * T)
        var = 9.0 / 4.0 * (1.0 - np.exp(-4.0 * T))
        se_mean = finals.std(ddof=1) / np.sqrt(count)
        assert abs(finals.mean() - mean) < 3 * se_mean
        # variance estimator s.e. for a Gaussian sample
        se_var = finals.var(ddof=1) * np.sqrt(2.0 / (count - 1))
        assert abs(finals.var(ddof=1) - var) < 3 * se_var

    def test_exact_is_discretization_free(self):
        # same closed-form target regardless of the number of steps
        block = scalar_xi_block()
        coarse = draw_endpoints(block, 1, 1.0, 4000, seed=5)
        fine = draw_endpoints(block, 64, 1.0, 4000, seed=6)
        se = np.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / np.sqrt(4000)
        assert abs(coarse.mean() - fine.mean()) < 3 * se

    def test_non_diagonal_mean_reversion(self):
        # correlated 2-d block: exact sampler must match the closed-form
        # stationary-style covariance computed by quadrature
        b = np.array([[2.0, 0.7], [0.0, 1.5]])
        s = np.array([[1.0, 0.0], [0.3, 0.8]])
        block = diffsim.OuBlock(2, b, [0.0, 0.0], s, [0.0, 0.0])
        count = 4000
        finals = np.array([diffsim.simulate_ou(block, 1, 1.0,
                                               np.random.default_rng(10_000 + k))[-1]
                           for k in range(count)])
        import scipy.integrate
        import scipy.linalg
        q = s @ s.T

        def integrand(u):
            e = scipy.linalg.expm(-b * u)
            return e @ q @ e.T

        grid = np.linspace(0.0, 1.0, 201)
        vals = np.array([integrand(u) for u in grid])
        target = scipy.integrate.simpson(vals, x=grid, axis=0)
        emp = np.cov(finals.T)
        assert np.abs(emp - target).max() < 4 * np.abs(target).max() / np.sqrt(count)

    def test_input_validation(self):
        block = scalar_xi_block()
        with pytest.raises(ValueError):
            diffsim.simulate_ou(block, 0, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            diffsim.simulate_ou(block, 10, -1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            diffsim.OuBlock(2, np.eye(3), np.zeros(2), np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("dim", ["1", 1.0, True, 0], ids=repr)
    def test_dim_is_a_positive_integer(self, dim):
        # Unread, 1.0 and True pass here and fail in simulate_ou with a
        # bare TypeError, and "1" fails as a mean_reversion shape error.
        with pytest.raises(ValueError, match="^dim must be an integer"):
            diffsim.OuBlock(dim, [[2.0]], [5.0], [[3.0]], [3.0])

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="horizon"):
            diffsim.simulate_ou(scalar_xi_block(), 10, T,
                                np.random.default_rng(0))
        with pytest.raises(ValueError, match="horizon"):
            diffsim.simulate_true_model(10, T, seed=0)


GRID_ENTRIES = {
    "simulate_ou": lambda n: diffsim.simulate_ou(
        scalar_xi_block(), n, 1.0, np.random.default_rng(0)),
    "simulate_custom": lambda n: diffsim.simulate_custom(
        **diffsim.load_truth(diffsim.TRUE_MODEL_NAME), n=n, T=1.0, seed=0),
    "simulate_true_model": lambda n: diffsim.simulate_true_model(n, 1.0, seed=0),
}


@pytest.mark.parametrize("entry", GRID_ENTRIES)
@pytest.mark.parametrize("n", [100.5, "5", True], ids=repr)
def test_grid_size_is_an_integer(entry, n):
    # Unread, a fraction or a string fails as a bare TypeError inside
    # numpy, and True runs a one-step grid.
    with pytest.raises(ValueError, match="^n must be an integer of at least 1"):
        GRID_ENTRIES[entry](n)


class TestTrueModel:
    def test_seed_determinism(self):
        a = diffsim.simulate_true_model(500, 1.0, seed=42)
        b = diffsim.simulate_true_model(500, 1.0, seed=42)
        assert np.array_equal(a.x_obs, b.x_obs)
        assert np.array_equal(a.xi, b.xi)
        c = diffsim.simulate_true_model(500, 1.0, seed=43)
        assert not np.array_equal(a.x_obs, c.x_obs)

    def test_grid_metadata(self):
        b = diffsim.simulate_true_model(400, 2.0, seed=1)
        assert b.n == 400 and b.T == 2.0
        assert b.h * b.n == b.T
        assert b.x_obs.shape == (401, 10)

    def test_assembly_identity(self, bundle_1e4):
        tb = diffsim.load_truth("true4-6")
        x1 = bundle_1e4.xi @ tb["lambda_x1"].T + bundle_1e4.delta
        x2 = bundle_1e4.eta @ tb["lambda_x2"].T + bundle_1e4.eps
        assert np.abs(bundle_1e4.x_obs - np.hstack([x1, x2])).max() < 1e-12

    def test_eta_is_structural_solution(self, bundle_1e4):
        tb = diffsim.load_truth("true4-6")
        resid = bundle_1e4.eta - (bundle_1e4.xi @ tb["gamma"].T + bundle_1e4.zeta)
        assert np.abs(resid).max() < 1e-12

    def test_initial_values(self):
        b = diffsim.simulate_true_model(10, 1.0, seed=0)
        assert b.xi[0, 0] == 3.0
        assert np.array_equal(b.delta[0], np.zeros(4))
        assert np.array_equal(b.eps[0], np.zeros(6))
        assert np.array_equal(b.zeta[0], np.zeros(2))

    def test_wiener_streams_independent(self, bundle_1e5):
        n = bundle_1e5.n
        incs = [np.diff(bundle_1e5.xi[:, 0]),
                np.diff(bundle_1e5.delta[:, 0]),
                np.diff(bundle_1e5.eps[:, 0]),
                np.diff(bundle_1e5.zeta[:, 0])]
        bound = 4.0 / np.sqrt(n)
        for i in range(4):
            for j in range(i + 1, 4):
                corr = np.corrcoef(incs[i], incs[j])[0, 1]
                assert abs(corr) < bound

    def test_slim_mode_matches_full(self):
        full = diffsim.simulate_true_model(300, 1.0, seed=9, keep_latents=True)
        slim = diffsim.simulate_true_model(300, 1.0, seed=9, keep_latents=False)
        assert not slim.has_latents
        assert np.array_equal(full.x_obs, slim.x_obs)

    def test_quadratic_covariation_approaches_truth(self, bundle_1e5,
                                                    sigma0_oracle):
        from hfsem.qlik import quad_var
        q = quad_var(bundle_1e5.x_obs, 1.0).q_xx
        rel = np.linalg.norm(q - sigma0_oracle) / np.linalg.norm(sigma0_oracle)
        assert rel < 0.05


class TestSimulateCustom:
    def test_matches_true_model_bit_for_bit(self):
        tb = diffsim.load_truth("true4-6")
        a = diffsim.simulate_custom(**tb, n=200, T=1.0, seed=5)
        b = diffsim.simulate_true_model(200, 1.0, seed=5)
        assert np.array_equal(a.x_obs, b.x_obs)

    def test_zero_loadings_give_pure_noise_block(self):
        tb = diffsim.load_truth("true4-6")
        tb["lambda_x2"] = np.zeros((6, 2))
        out = diffsim.simulate_custom(**tb, n=100, T=1.0, seed=3)
        assert np.array_equal(out.x_obs[:, 4:], out.eps)

    def test_structural_feedback_solved_exactly(self):
        tb = diffsim.load_truth("true4-6")
        tb["b0"] = np.array([[0.0, 0.0], [0.6, 0.0]])  # strictly lower triangular
        out = diffsim.simulate_custom(**tb, n=100, T=1.0, seed=3)
        psi = np.eye(2) - tb["b0"]
        resid = out.eta @ psi.T - (out.xi @ tb["gamma"].T + out.zeta)
        assert np.abs(resid).max() < 1e-12

    def test_singular_structure_rejected(self):
        tb = diffsim.load_truth("true4-6")
        tb["b0"] = np.array([[0.0, 1.0], [1.0, 0.0]])  # I - b0 singular
        with pytest.raises(SingularStructureError):
            diffsim.simulate_custom(**tb, n=10, T=1.0, seed=0)

    def test_dimension_mismatch_rejected(self):
        tb = diffsim.load_truth("true4-6")
        tb["xi"], tb["zeta"] = tb["zeta"], tb["xi"]
        with pytest.raises(ValueError):
            diffsim.simulate_custom(**tb, n=10, T=1.0, seed=0)

    def test_grid_arguments_keyword_only(self):
        # a benchmark hook reads the grid size as kwargs["n"]
        params = inspect.signature(diffsim.simulate_custom).parameters
        for name in ("n", "T", "seed", "keep_latents"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
        tb = diffsim.load_truth("true4-6")
        with pytest.raises(TypeError):
            diffsim.simulate_custom(*tb.values(), 10, 1.0, 0)

    @pytest.mark.parametrize("name, bad", [
        ("lambda_x1", (0, 0, np.inf)),
        ("lambda_x2", (1, 0, np.nan)),
        ("gamma", (0, 0, np.nan)),
        ("b0", (1, 0, np.nan)),
    ])
    def test_non_finite_input_rejected(self, name, bad):
        tb = diffsim.load_truth("true4-6")
        row, col, value = bad
        tb[name] = np.array(tb[name], dtype=float)
        tb[name][row, col] = value
        with pytest.raises(ValueError, match=name):
            diffsim.simulate_custom(**tb, n=50, T=1.0, seed=0)


# Edits of the bundled truth that break one cross-check, and the message
# that names the key, after the reader's ``true_model.`` prefix.
BROKEN_TRUTHS = {
    "delta-vs-lambda_x1": ("lambda_x1", [[1.0], [3.0], [4.0]],
                           r"delta has dimension 4, expected 3"),
    "xi-vs-lambda_x1": ("lambda_x1", [[1.0, 0.0]] * 4,
                        r"xi has dimension 1, expected 2"),
    "gamma-shape": ("gamma", [[3.0, 1.0], [2.0, 1.0]],
                    r"gamma has shape \(2, 2\), expected \(2, 1\)"),
    "b0-shape": ("b0", [[0.0]], r"b0 has shape \(1, 1\), expected \(2, 2\)"),
    "b0-diagonal": ("b0", [[0.5, 0.0], [0.0, 0.0]],
                    r"b0 must have a zero diagonal"),
    "gamma-nan": ("gamma", [[float("nan")], [2.0]],
                  r"gamma must be a matrix of finite numbers"),
    "lambda_x2-3d": ("lambda_x2", [[[1.0]]],
                     r"lambda_x2 must be a matrix of finite numbers"),
}


class TestLoadTruth:
    """The one reader of truths, and the cross-checks it shares with
    ``simulate_custom``."""

    def test_bundled_truth_is_the_study_truth(self):
        # true4-6 as the package first wrote it, as Python literals
        expected = {
            "xi": diffsim.OuBlock(1, [[2.0]], [5.0], [[3.0]], [3.0]),
            "delta": diffsim.OuBlock(
                4, np.diag([5.0, 2.0, 1.0, 3.0]), [4.0, 2.0, 1.0, 2.0],
                np.diag([2.0, 1.0, 2.0, 3.0]), np.zeros(4)),
            "eps": diffsim.OuBlock(
                6, np.diag([1.0, 5.0, 2.0, 3.0, 2.0, 2.0]),
                [2.0, 1.0, 3.0, 2.0, 1.0, 4.0],
                np.diag([5.0, 1.0, 2.0, 1.0, 3.0, 2.0]), np.zeros(6)),
            "zeta": diffsim.OuBlock(2, np.diag([3.0, 2.0]), [1.0, 2.0],
                                    np.diag([3.0, 1.0]), np.zeros(2)),
            "lambda_x1": np.array([[1.0], [3.0], [4.0], [6.0]]),
            "lambda_x2": np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0],
                                   [0.0, 1.0], [0.0, 2.0], [0.0, 4.0]]),
            "gamma": np.array([[3.0], [2.0]]),
            "b0": np.zeros((2, 2)),
        }
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        assert list(tb) == list(expected)
        for key, want in expected.items():
            got = tb[key]
            if isinstance(want, diffsim.OuBlock):
                assert got.dim == want.dim
                pairs = [(getattr(got, f), getattr(want, f)) for f in
                         ("mean_reversion", "level", "dispersion", "init")]
            else:
                pairs = [(got, want)]
            for g, w in pairs:
                assert g.dtype == w.dtype and np.array_equal(g, w), key

    def test_document_and_name_read_alike(self):
        by_name = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        by_doc = diffsim.load_truth(bundled_truth_doc())
        assert np.array_equal(diffsim.implied_sigma(by_name),
                              diffsim.implied_sigma(by_doc))

    def test_unknown_name_lists_the_bundled_truths(self):
        with pytest.raises(ValueError, match=r"unknown true model 'true9'; "
                                             r"have \['true4-6'"):
            diffsim.load_truth("true9")

    @pytest.mark.parametrize("case", BROKEN_TRUTHS)
    def test_cross_checks_named(self, case):
        key, value, message = BROKEN_TRUTHS[case]
        doc = {**bundled_truth_doc(), key: value}
        with pytest.raises(ValueError, match=rf"^true_model\.{message}"):
            diffsim.load_truth(doc)

    @pytest.mark.parametrize("case", BROKEN_TRUTHS)
    def test_simulate_custom_runs_the_same_checks(self, case):
        key, value, message = BROKEN_TRUTHS[case]
        tb = {**diffsim.load_truth(diffsim.TRUE_MODEL_NAME), key: value}
        with pytest.raises(ValueError, match=rf"^{message}"):
            diffsim.simulate_custom(**tb, n=10, T=1.0, seed=0)

    def test_singular_structure_named(self):
        doc = {**bundled_truth_doc(), "b0": [[0.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(SingularStructureError,
                           match=r"I - true_model\.b0 is numerically singular"):
            diffsim.load_truth(doc)


class TestTransitionMemo:
    """``_exact_transition`` memoizes ``_build_transition`` per block arrays
    and step: the memoized arrays are the fresh ones, made read-only."""

    @pytest.mark.parametrize("kind, n", [("exact", 100), ("exact", 20000),
                                         ("non_diagonal", 100),
                                         ("non_diagonal", 20000)])
    def test_memoized_equals_fresh(self, kind, n, monkeypatch):
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        tb = truth_variant(kind)
        for name in LATENTS[:4]:
            memo = diffsim._exact_transition(tb[name], 1.0 / n)
            assert diffsim._exact_transition(tb[name], 1.0 / n) is memo
            for kept, fresh in zip(memo, diffsim._build_transition(tb[name],
                                                                   1.0 / n)):
                assert np.array_equal(kept, fresh)
                assert not kept.flags.writeable
        warm = diffsim.simulate_custom(**tb, n=n, T=1.0, seed=4)
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        cold = diffsim.simulate_custom(**tb, n=n, T=1.0, seed=4)
        for name in ("x_obs",) + LATENTS:
            assert np.array_equal(getattr(warm, name), getattr(cold, name)), name

    def test_keyed_on_block_arrays_and_step(self, monkeypatch):
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        block = scalar_xi_block()
        memo = diffsim._exact_transition(block, 0.01)
        # an equal block built anew shares the entry
        assert diffsim._exact_transition(scalar_xi_block(), 0.01) is memo
        moved = diffsim.OuBlock(1, [[2.0]], [6.0], [[3.0]], [3.0])
        for other in (diffsim._exact_transition(moved, 0.01),
                      diffsim._exact_transition(block, 0.02)):
            assert not np.array_equal(other[1], memo[1])
        assert len(diffsim._TRANSITIONS) == 3
        with pytest.raises(ValueError, match="read-only"):
            memo[0][0, 0] = 1.0


class TestTruthMemo:
    """``_cross_checked`` checks a truth once per process: memoized on the
    blocks' dimensions and the matrices' bytes, never for a truth that
    fails."""

    def test_checked_once_per_truth(self, monkeypatch):
        monkeypatch.setattr(diffsim, "_CHECKED", {})
        calls = []
        check = diffsim._check_truth
        monkeypatch.setattr(diffsim, "_check_truth",
                            lambda *args: calls.append(1) or check(*args))
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        warm = [diffsim.simulate_custom(**tb, n=50, T=1.0, seed=seed)
                for seed in (1, 1, 2)]
        assert len(calls) == 1
        assert np.array_equal(warm[0].x_obs, warm[1].x_obs)
        # an equal truth read anew shares the entry; an edited one does not
        diffsim.load_truth(bundled_truth_doc())
        diffsim.simulate_custom(**truth_variant("structural"), n=50, T=1.0,
                                seed=1)
        assert len(calls) == 2 and len(diffsim._CHECKED) == 2
        monkeypatch.setattr(diffsim, "_CHECKED", {})
        cold = diffsim.simulate_custom(**tb, n=50, T=1.0, seed=1)
        assert np.array_equal(cold.x_obs, warm[0].x_obs)

    def test_memoized_arrays_read_only(self, monkeypatch):
        monkeypatch.setattr(diffsim, "_CHECKED", {})
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        memo = diffsim._cross_checked(**tb)
        assert diffsim._cross_checked(**tb) is memo
        for array, want in zip(memo, (tb["lambda_x1"], tb["lambda_x2"],
                                      tb["gamma"], np.eye(2))):
            assert np.array_equal(array, want)
            assert not array.flags.writeable
            assert not np.shares_memory(array, want)

    @pytest.mark.parametrize("case", ["b0-diagonal", "gamma-nan",
                                      "delta-vs-lambda_x1"])
    def test_bad_truth_fails_every_call(self, case, monkeypatch):
        monkeypatch.setattr(diffsim, "_CHECKED", {})
        key, value, message = BROKEN_TRUTHS[case]
        tb = {**diffsim.load_truth(diffsim.TRUE_MODEL_NAME), key: value}
        assert len(diffsim._CHECKED) == 1
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"^{message}"):
                diffsim.simulate_custom(**tb, n=10, T=1.0, seed=0)
        assert len(diffsim._CHECKED) == 1

    def test_edit_in_place_is_checked(self, monkeypatch):
        # the entry is keyed on the values, not on the array objects
        monkeypatch.setattr(diffsim, "_CHECKED", {})
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        diffsim.simulate_custom(**tb, n=10, T=1.0, seed=0)
        tb["b0"][0, 0] = 0.5
        with pytest.raises(ValueError, match="b0 must have a zero diagonal"):
            diffsim.simulate_custom(**tb, n=10, T=1.0, seed=0)


def truth_variant(kind):
    """The bundled truth with one change."""
    tb = diffsim.load_truth("true4-6")
    if kind == "non_diagonal":
        # a coupled block, and dense second-block loadings so every product
        # of the assembly sums two nonzero terms
        tb["zeta"] = diffsim.OuBlock(2, [[2.0, 0.7], [0.0, 1.5]], [1.0, 2.0],
                                     [[1.0, 0.0], [0.3, 0.8]], [0.5, -0.5])
        tb["lambda_x2"] = np.array([[1.0, 0.5], [3.0, -0.2], [2.0, 0.7],
                                    [0.3, 1.0], [-0.4, 2.0], [0.6, 4.0]])
    elif kind == "structural":
        tb["b0"] = np.array([[0.0, 0.0], [0.5, 0.0]])
    return tb


def simulate_variant(tb, n, keep_latents):
    return diffsim.simulate_custom(**tb, n=n, T=1.0, seed=11,
                                   keep_latents=keep_latents)


class TestStreaming:
    """The chunked simulator against the whole-path oracle across chunk edges."""

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("kind", ["exact", "non_diagonal"])
    def test_matches_oneshot_bit_for_bit(self, kind, n):
        tb = truth_variant(kind)
        ref = oneshot_simulate_custom(tb, n, 1.0, seed=11)
        full = simulate_variant(tb, n, keep_latents=True)
        slim = simulate_variant(tb, n, keep_latents=False)
        assert np.array_equal(full.x_obs, ref["x_obs"])
        for name in LATENTS:
            assert np.array_equal(getattr(full, name), ref[name]), name
        assert not slim.has_latents
        assert np.array_equal(slim.x_obs, ref["x_obs"])

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_structural_feedback_matches_oneshot(self, n):
        # eta comes from a precomputed inverse, not from solve: not bitwise
        tb = truth_variant("structural")
        ref = oneshot_simulate_custom(tb, n, 1.0, seed=11)
        out = simulate_variant(tb, n, keep_latents=True)
        for name in ("x_obs",) + LATENTS:
            assert np.abs(getattr(out, name) - ref[name]).max() <= 1e-12, name

    def test_peak_memory_near_output_size(self):
        import tracemalloc

        tracemalloc.start()
        try:
            bundle = diffsim.simulate_true_model(200_000, 1.0, seed=1,
                                                 keep_latents=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * bundle.x_obs.nbytes
