import concurrent.futures
import dataclasses
import gc
import inspect
import pickle
import sys
import threading
import types

import numpy as np
import pytest

from hfsem import diffsim
from hfsem.errors import SingularStructureError
from tests.conftest import bundled_truth_doc, oneshot_simulate_custom

CHUNK = diffsim._CHUNK_ROWS
# Path lengths on both sides of the one- and two-chunk boundaries, and one
# of four chunks, so a chunk is solved while a drawn one waits.
CHUNK_EDGES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
               2 * CHUNK + 1, 3 * CHUNK + 5]
LATENTS = ("xi", "delta", "eps", "zeta", "eta")
BLOCK_ARRAYS = ("mean_reversion", "level", "dispersion", "init")


def scalar_xi_block():
    # the benchmark's common factor: dx = -(2x - 5)dt + 3 dW, x0 = 3
    return diffsim.OuBlock([[2.0]], [5.0], [[3.0]], [3.0])


def latent_path(name, block, n, T, seed):
    """The latent path ``name`` that ``simulate_custom`` samples from the
    bundled truth with ``block`` in that place."""
    truth = dataclasses.replace(diffsim.load_truth("true4-6"), **{name: block})
    return getattr(diffsim.simulate_custom(truth, n=n, T=T, seed=seed), name)


def scalar_residuals(path, h):
    """The one-step residuals of a path of ``scalar_xi_block`` at step
    ``h``: each row less its closed-form conditional mean given the row
    before, ``2.5 + (x - 2.5) exp(-2 h)``.  The sampler is exact, so they
    are independent draws of the transition's noise."""
    return path[1:] - (2.5 + (path[:-1] - 2.5) * np.exp(-2.0 * h))


class TestSimulateOu:
    """An OU block's law, checked on ``simulate_custom``'s latent paths.  A
    long path's one-step residuals stand for independent draws of the
    transition, so one call gives the whole sample."""

    def test_degenerate_constant_path(self):
        block = diffsim.OuBlock(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)),
                                [3.0, 3.0])
        path = latent_path("zeta", block, 50, 1.0, seed=0)
        assert np.array_equal(path, np.full((51, 2), 3.0))

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_exact_moments_match_closed_form(self, T):
        # each step of length T
        count = 6000
        path = latent_path("xi", scalar_xi_block(), count, count * T, seed=123)
        resid = scalar_residuals(path[:, 0], T)
        var = 9.0 / 4.0 * (1.0 - np.exp(-4.0 * T))
        se_mean = resid.std(ddof=1) / np.sqrt(count)
        assert abs(resid.mean()) < 3 * se_mean
        # variance estimator s.e. for a Gaussian sample
        se_var = resid.var(ddof=1) * np.sqrt(2.0 / (count - 1))
        assert abs(resid.var(ddof=1) - var) < 3 * se_var

    def test_exact_is_discretization_free(self):
        # the same one-step law at step 1 whether each step is sampled at
        # once or in 64 substeps
        block, count = scalar_xi_block(), 4000
        coarse = scalar_residuals(
            latent_path("xi", block, count, count, seed=5)[:, 0], 1.0)
        fine = scalar_residuals(
            latent_path("xi", block, 64 * count, count, seed=6)[::64, 0], 1.0)
        se = np.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / np.sqrt(count)
        assert abs(coarse.mean() - fine.mean()) < 3 * se

    def test_non_diagonal_mean_reversion(self):
        # correlated 2-d block: exact sampler must match the closed-form
        # stationary-style covariance computed by quadrature
        b = np.array([[2.0, 0.7], [0.0, 1.5]])
        s = np.array([[1.0, 0.0], [0.3, 0.8]])
        block = diffsim.OuBlock(b, [0.0, 0.0], s, [0.0, 0.0])
        count = 4000
        import scipy.integrate
        import scipy.linalg
        # steps of length 1 with a zero level: each row's conditional mean
        # is expm(-b) times the row before
        path = latent_path("zeta", block, count, count, seed=10_000)
        resid = path[1:] - path[:-1] @ scipy.linalg.expm(-b).T
        q = s @ s.T

        def integrand(u):
            e = scipy.linalg.expm(-b * u)
            return e @ q @ e.T

        grid = np.linspace(0.0, 1.0, 201)
        vals = np.array([integrand(u) for u in grid])
        target = scipy.integrate.simpson(vals, x=grid, axis=0)
        emp = np.cov(resid.T)
        assert np.abs(emp - target).max() < 4 * np.abs(target).max() / np.sqrt(count)

    def test_input_validation(self):
        truth = diffsim.load_truth("true4-6")
        with pytest.raises(ValueError):
            diffsim.simulate_custom(truth, n=0, T=1.0, seed=0)
        with pytest.raises(ValueError):
            diffsim.simulate_custom(truth, n=10, T=-1.0, seed=0)
        with pytest.raises(ValueError):
            diffsim.OuBlock(np.eye(3), np.zeros(2), np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="horizon"):
            diffsim.simulate_custom(diffsim.load_truth("true4-6"), n=10, T=T,
                                    seed=0)
        with pytest.raises(ValueError, match="horizon"):
            diffsim.simulate_true_model(10, T, seed=0)


class TestOuBlock:
    """A block is checked once, when it is built: its arrays are read-only
    float copies, its dimension is its level's, and a pickled copy is built
    anew."""

    def test_read_only_float_copies(self):
        given = {"mean_reversion": [[2]], "level": np.array([5.0]),
                 "dispersion": [[3]], "init": np.array([3.0])}
        block = diffsim.OuBlock(**given)
        for key, value in given.items():
            kept = getattr(block, key)
            assert kept.dtype == float and np.array_equal(kept, value), key
            assert not np.shares_memory(kept, np.asarray(value)), key
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.5

    def test_init_defaults_to_zeros(self):
        block = diffsim.OuBlock(np.diag([1.0, 2.0]), [3.0, 4.0], np.eye(2))
        assert block.dim == 2 and np.array_equal(block.init, np.zeros(2))
        assert not block.init.flags.writeable

    @pytest.mark.parametrize("key", BLOCK_ARRAYS + ("dim",))
    def test_fields_and_dim_refused(self, key):
        block = scalar_xi_block()
        with pytest.raises(AttributeError):
            setattr(block, key, np.zeros((3, 3)))
        assert block.dim == 1

    @pytest.mark.parametrize("key, value, message", [
        ("mean_reversion", np.eye(2), "mean_reversion must be 1x1"),
        ("level", [np.nan], "level has non-finite entries"),
        ("dispersion", [[3.0], [1.0]], "dispersion must be a 1-row matrix"),
        ("init", [3.0, 3.0], "level and init must have length 1"),
        ("level", [], "level must not be empty")],
        ids=["mean_reversion", "level", "dispersion", "init", "level-empty"])
    def test_bad_block_never_built(self, key, value, message):
        given = {k: getattr(scalar_xi_block(), k) for k in BLOCK_ARRAYS}
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                diffsim.OuBlock(**{**given, key: value})

    def test_pickle_round_trip(self):
        block = truth_variant("non_diagonal").zeta
        copy = pickle.loads(pickle.dumps(block))
        assert isinstance(copy, diffsim.OuBlock) and copy is not block
        for key in BLOCK_ARRAYS:
            assert np.array_equal(getattr(copy, key), getattr(block, key))
            assert not getattr(copy, key).flags.writeable, key
        ours, theirs = (latent_path("zeta", b, 300, 1.0, seed=3)
                        for b in (block, copy))
        assert np.array_equal(ours, theirs)


GRID_ENTRIES = {
    "simulate_custom": lambda n: diffsim.simulate_custom(
        diffsim.load_truth(diffsim.TRUE_MODEL_NAME), n=n, T=1.0, seed=0),
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
        x1 = bundle_1e4.xi @ tb.lambda_x1.T + bundle_1e4.delta
        x2 = bundle_1e4.eta @ tb.lambda_x2.T + bundle_1e4.eps
        assert np.abs(bundle_1e4.x_obs - np.hstack([x1, x2])).max() < 1e-12

    def test_eta_is_structural_solution(self, bundle_1e4):
        tb = diffsim.load_truth("true4-6")
        resid = bundle_1e4.eta - (bundle_1e4.xi @ tb.gamma.T + bundle_1e4.zeta)
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
        a = diffsim.simulate_custom(tb, n=200, T=1.0, seed=5)
        b = diffsim.simulate_true_model(200, 1.0, seed=5)
        assert np.array_equal(a.x_obs, b.x_obs)

    def test_zero_loadings_give_pure_noise_block(self):
        tb = dataclasses.replace(diffsim.load_truth("true4-6"),
                                 lambda_x2=np.zeros((6, 2)))
        out = diffsim.simulate_custom(tb, n=100, T=1.0, seed=3)
        assert np.array_equal(out.x_obs[:, 4:], out.eps)

    def test_structural_feedback_solved_exactly(self):
        tb = dataclasses.replace(diffsim.load_truth("true4-6"),  # strictly
                                 b0=[[0.0, 0.0], [0.6, 0.0]])  # lower triangular
        out = diffsim.simulate_custom(tb, n=100, T=1.0, seed=3)
        psi = np.eye(2) - tb.b0
        resid = out.eta @ psi.T - (out.xi @ tb.gamma.T + out.zeta)
        assert np.abs(resid).max() < 1e-12

    def test_singular_structure_rejected(self):
        tb = diffsim.load_truth("true4-6")
        with pytest.raises(SingularStructureError):  # I - b0 singular
            dataclasses.replace(tb, b0=[[0.0, 1.0], [1.0, 0.0]])

    def test_dimension_mismatch_rejected(self):
        tb = diffsim.load_truth("true4-6")
        with pytest.raises(ValueError):
            dataclasses.replace(tb, xi=tb.zeta, zeta=tb.xi)

    def test_truth_document_refused(self):
        # the document is read by load_truth, once, not by each simulation
        with pytest.raises(TypeError, match="as load_truth returns, not dict"):
            diffsim.simulate_custom(bundled_truth_doc(), n=10, T=1.0, seed=0)

    @pytest.mark.parametrize("keep_latents", [True, False])
    def test_path_too_large_fails_before_cutting(self, keep_latents,
                                                 monkeypatch):
        # 800 TB of x_obs, beyond the 128 TiB user address space, so the
        # allocation fails at once, before the 1.2e9 chunk bounds are built
        cuts = []
        monkeypatch.setattr(diffsim, "_chunk_bounds", cuts.append)
        with pytest.raises(MemoryError):
            diffsim.simulate_custom(diffsim.load_truth("true4-6"), n=10**13,
                                    T=1.0, seed=0, keep_latents=keep_latents)
        assert cuts == []

    def test_grid_arguments_keyword_only(self):
        # a benchmark hook reads the grid size as kwargs["n"]
        params = inspect.signature(diffsim.simulate_custom).parameters
        assert list(params) == ["truth", "n", "T", "seed", "keep_latents"]
        for name in ("n", "T", "seed", "keep_latents"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
        tb = diffsim.load_truth("true4-6")
        with pytest.raises(TypeError):
            diffsim.simulate_custom(tb, 10, 1.0, 0)

    @pytest.mark.parametrize("name, bad", [
        ("lambda_x1", (0, 0, np.inf)),
        ("lambda_x2", (1, 0, np.nan)),
        ("gamma", (0, 0, np.nan)),
        ("b0", (1, 0, np.nan)),
    ])
    def test_non_finite_input_rejected(self, name, bad):
        tb = diffsim.load_truth("true4-6")
        row, col, value = bad
        matrix = getattr(tb, name).copy()
        matrix[row, col] = value
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(tb, **{name: matrix})


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
    """The one reader of truths, and the cross-checks every ``Truth`` runs
    as it is built."""

    def test_bundled_truth_is_the_study_truth(self):
        # true4-6 as the package first wrote it, as Python literals
        expected = {
            "xi": diffsim.OuBlock([[2.0]], [5.0], [[3.0]], [3.0]),
            "delta": diffsim.OuBlock(
                np.diag([5.0, 2.0, 1.0, 3.0]), [4.0, 2.0, 1.0, 2.0],
                np.diag([2.0, 1.0, 2.0, 3.0]), np.zeros(4)),
            "eps": diffsim.OuBlock(
                np.diag([1.0, 5.0, 2.0, 3.0, 2.0, 2.0]),
                [2.0, 1.0, 3.0, 2.0, 1.0, 4.0],
                np.diag([5.0, 1.0, 2.0, 1.0, 3.0, 2.0]), np.zeros(6)),
            "zeta": diffsim.OuBlock(np.diag([3.0, 2.0]), [1.0, 2.0],
                                    np.diag([3.0, 1.0])),
            "lambda_x1": np.array([[1.0], [3.0], [4.0], [6.0]]),
            "lambda_x2": np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0],
                                   [0.0, 1.0], [0.0, 2.0], [0.0, 4.0]]),
            "gamma": np.array([[3.0], [2.0]]),
            "b0": np.zeros((2, 2)),
        }
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        assert [f.name for f in dataclasses.fields(tb) if f.init] == list(expected)
        for key, want in expected.items():
            got = getattr(tb, key)
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
        # simulate_custom takes a built Truth, which ran the checks: an
        # edited truth fails them as it is built, with the same message
        key, value, message = BROKEN_TRUTHS[case]
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        with pytest.raises(ValueError, match=rf"^true_model\.{message}"):
            dataclasses.replace(tb, **{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("dispersion", [[[3.0]]], "dispersion must be a 1-row matrix"),
        ("mean_reversion", [[[2.0]]], "mean_reversion must be 1x1"),
        ("level", [[5.0]], "level and init must have length 1"),
        ("init", [[3.0]], "level and init must have length 1")],
        ids=["dispersion-3d", "mean_reversion-3d", "level-2d", "init-2d"])
    def test_block_field_shapes_named(self, key, value, message):
        doc = bundled_truth_doc()
        doc["xi"] = {**doc["xi"], key: value}
        with pytest.raises(ValueError, match=rf"^true_model\.xi: {message}$"):
            diffsim.load_truth(doc)

    def test_singular_structure_named(self):
        doc = {**bundled_truth_doc(), "b0": [[0.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(SingularStructureError,
                           match=r"I - true_model\.b0 is numerically singular"):
            diffsim.load_truth(doc)

    def test_leaves_no_reference_cycle(self):
        # a truth's arrays are read without garbage that only the cycle
        # collector frees
        diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


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
            block = getattr(tb, name)
            memo = diffsim._exact_transition(block, 1.0 / n)
            assert diffsim._exact_transition(block, 1.0 / n) is memo
            for kept, fresh in zip(memo, diffsim._build_transition(block,
                                                                   1.0 / n)):
                assert np.array_equal(kept, fresh)
                assert not kept.flags.writeable
        warm = diffsim.simulate_custom(tb, n=n, T=1.0, seed=4)
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        cold = diffsim.simulate_custom(tb, n=n, T=1.0, seed=4)
        for name in ("x_obs",) + LATENTS:
            assert np.array_equal(getattr(warm, name), getattr(cold, name)), name

    def test_keyed_on_block_arrays_and_step(self, monkeypatch):
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        block = scalar_xi_block()
        memo = diffsim._exact_transition(block, 0.01)
        # an equal block built anew shares the entry, from integers, from a
        # pickle or with another init (which the transition does not read)
        for equal in (scalar_xi_block(), diffsim.OuBlock([[2]], 5, [[3]]),
                      pickle.loads(pickle.dumps(block))):
            assert diffsim._exact_transition(equal, 0.01) is memo
        moved = diffsim.OuBlock([[2.0]], [6.0], [[3.0]], [3.0])
        for other in (diffsim._exact_transition(moved, 0.01),
                      diffsim._exact_transition(block, 0.02)):
            assert not np.array_equal(other[1], memo[1])
        assert len(diffsim._TRANSITIONS) == 3
        with pytest.raises(ValueError, match="read-only"):
            memo[0][0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["exact", "non_diagonal"])
    def test_decay_of_a_decoupled_block(self, kind, monkeypatch):
        # the fourth entry is diag(ad) where ad is diagonal, else None
        monkeypatch.setattr(diffsim, "_TRANSITIONS", {})
        tb = truth_variant(kind)
        for name in LATENTS[:4]:
            ad, _, _, decay = diffsim._exact_transition(getattr(tb, name), 0.01)
            if kind == "non_diagonal" and name == "zeta":
                assert ad[0, 1] != 0.0 and decay is None
            else:
                assert np.array_equal(ad, np.diag(decay))
                assert not decay.flags.writeable


# Diagonal mean reversion kappa, a level and a dense dispersion: the exact
# transition has a closed form in expm1, term by term.
ORACLE_KAPPA = np.array([0.0, 0.5, 2.0, 5.0])
ORACLE_LEVEL = np.array([1.0, -2.0, 3.0, 0.5])
ORACLE_DISPERSION = np.array([[1.0, 0.2, -0.3, 0.1], [0.4, 1.5, 0.2, -0.2],
                              [-0.1, 0.3, 0.8, 0.5], [0.2, -0.4, 0.1, 1.2]])
ORACLE_STEPS = [1.0, 1e-2, 1e-3, 1e-6]


def integrated_decay(rate, h):
    """``integral_0^h exp(-rate u) du``, elementwise: h where rate is 0, so
    the first coordinate's ``bd`` is ``h * level``."""
    rate = np.asarray(rate)
    safe = np.where(rate > 0, rate, 1.0)
    return np.where(rate > 0, -np.expm1(-safe * h) / safe, h)


def closed_form_transition(h):
    """``ad`` (its diagonal), ``bd`` and ``qd`` of the oracle block."""
    k = ORACLE_KAPPA
    q = ORACLE_DISPERSION @ ORACLE_DISPERSION.T
    return (np.exp(-k * h), integrated_decay(k, h) * ORACLE_LEVEL,
            q * integrated_decay(k[:, None] + k[None, :], h))


def relative_error(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


class TestTransitionOracle:
    """``_build_transition`` on diagonal blocks against the closed form:
    ``ad = exp(-kappa h)``, ``bd = -expm1(-kappa h) / kappa * level`` and
    ``qd_ij = q_ij * -expm1(-(kappa_i + kappa_j) h) / (kappa_i + kappa_j)``,
    each term within 1e-13 relative."""

    TOL = 1e-13

    @pytest.mark.parametrize("h", ORACLE_STEPS)
    def test_matches_closed_form(self, h):
        block = diffsim.OuBlock(np.diag(ORACLE_KAPPA), ORACLE_LEVEL,
                                ORACLE_DISPERSION)
        ad, bd, noise = diffsim._build_transition(block, h)
        decay, drift, qd = closed_form_transition(h)
        assert np.array_equal(ad, np.diag(np.diag(ad)))
        assert relative_error(np.diag(ad), decay) <= self.TOL
        assert relative_error(bd, drift) <= self.TOL
        assert relative_error(noise @ noise.T, qd) <= self.TOL

    @pytest.mark.parametrize("h", ORACLE_STEPS)
    def test_one_term_off_by_1e_10_is_seen(self, h):
        # the tolerance is tight enough that a single term moved by 1e-10
        # relative, in any of the three closed forms, fails the check
        for want in closed_form_transition(h):
            for index in np.ndindex(want.shape):
                off = want.copy()
                off[index] *= 1.0 + 1e-10
                assert relative_error(off, want) > self.TOL


class TestTruth:
    """A ``Truth`` is checked once, when it is built: its matrices are
    read-only float copies, a truth that fails a check is never built, and
    a pickled copy is built anew."""

    def test_checked_once_when_built(self, monkeypatch):
        # with the checks' last step broken, a built truth still simulates
        # the same path, and no truth can be built
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        before = diffsim.simulate_custom(tb, n=50, T=1.0, seed=1)

        def broken(*args):
            raise AssertionError("checked again")

        monkeypatch.setattr(diffsim, "_invert_psi", broken)
        after = diffsim.simulate_custom(tb, n=50, T=1.0, seed=1)
        assert np.array_equal(before.x_obs, after.x_obs)
        with pytest.raises(AssertionError, match="checked again"):
            dataclasses.replace(tb)

    def test_matrices_are_read_only_copies(self):
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        given = {"lambda_x1": tb.lambda_x1.astype(int),
                 "lambda_x2": tb.lambda_x2.copy(), "gamma": tb.gamma.tolist(),
                 "b0": tb.b0.copy()}
        built = dataclasses.replace(tb, **given)
        for key, value in given.items():
            kept = getattr(built, key)
            assert kept.dtype == float and np.array_equal(kept, value), key
            assert not kept.flags.writeable, key
            assert not np.shares_memory(kept, np.asarray(value)), key
        assert np.array_equal(built.psi_inv, np.eye(2))
        assert not built.psi_inv.flags.writeable

    def test_edit_in_place_refused(self):
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        for key in ("lambda_x1", "lambda_x2", "gamma", "b0", "psi_inv"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tb, key)[0, 0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            tb.b0 = np.full((2, 2), 0.5)

    @pytest.mark.parametrize("case", ["b0-diagonal", "gamma-nan",
                                      "delta-vs-lambda_x1"])
    def test_bad_truth_never_built(self, case):
        # the constructor raises on every call, as load_truth does
        key, value, message = BROKEN_TRUTHS[case]
        tb = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        given = {f.name: getattr(tb, f.name) for f in dataclasses.fields(tb)
                 if f.init}
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"^true_model\.{message}"):
                diffsim.Truth(**{**given, key: value})

    def test_pickle_round_trip(self):
        tb = truth_variant("structural")
        copy = pickle.loads(pickle.dumps(tb))
        assert isinstance(copy, diffsim.Truth) and copy is not tb
        for key in ("lambda_x1", "lambda_x2", "gamma", "b0", "psi_inv"):
            assert np.array_equal(getattr(copy, key), getattr(tb, key)), key
            assert not getattr(copy, key).flags.writeable, key
        for name in LATENTS[:4]:
            block = getattr(copy, name)
            assert isinstance(block, diffsim.OuBlock), name
            for key in BLOCK_ARRAYS:
                assert not getattr(block, key).flags.writeable, (name, key)
        ours, theirs = (diffsim.simulate_custom(t, n=300, T=1.0, seed=2)
                        for t in (tb, copy))
        for name in ("x_obs",) + LATENTS:
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))


def truth_variant(kind):
    """The bundled truth with one change."""
    tb = diffsim.load_truth("true4-6")
    if kind == "non_diagonal":
        # a coupled block, and dense second-block loadings so every product
        # of the assembly sums two nonzero terms
        return dataclasses.replace(
            tb, zeta=diffsim.OuBlock([[2.0, 0.7], [0.0, 1.5]], [1.0, 2.0],
                                     [[1.0, 0.0], [0.3, 0.8]], [0.5, -0.5]),
            lambda_x2=[[1.0, 0.5], [3.0, -0.2], [2.0, 0.7],
                       [0.3, 1.0], [-0.4, 2.0], [0.6, 4.0]])
    if kind == "structural":
        return dataclasses.replace(tb, b0=[[0.0, 0.0], [0.5, 0.0]])
    return tb


class TestBandedSolve:
    """A decoupled block's chunk is one ``dtbsv`` solve, bit for bit the
    AR(1) filter that ``scipy.signal.lfilter`` runs per coordinate."""

    # no decay, a unit decay (no mean reversion), mean reversion from slow
    # to fast, and decays above 1 (a negative mean reversion)
    DECAYS = [0.0, 1.0, 0.999998, 0.9, 0.5, 1.01, 1.05]

    @pytest.mark.parametrize("steps", [1, 2, CHUNK - 1, CHUNK + 1])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_lfilter_bit_for_bit(self, steps, scale):
        import scipy.signal

        rng = np.random.default_rng(steps)
        decay = np.array(self.DECAYS)
        d = decay.size
        bd = scale * rng.standard_normal(d)
        x = scale * rng.standard_normal(d)      # a non-zero carried row
        z = scale * rng.standard_normal((steps, d))
        # a unit noise factor makes the drive z + bd exactly, so the solve
        # alone is compared
        transition = (np.diag(decay), bd, np.eye(d), decay)
        path = diffsim._chunk_path(transition, x, z)
        assert path.shape == (steps + 1, d)
        assert np.array_equal(path[0], x)
        u = z + bd
        for j, a in enumerate(decay):
            want, _ = scipy.signal.lfilter([1.0], [1.0, -a], u[:, j],
                                           zi=[a * x[j]])
            assert np.array_equal(path[1:, j], want), a

    @pytest.mark.parametrize("kind", ["exact", "non_diagonal"])
    def test_one_solve_per_block_and_chunk(self, kind, monkeypatch):
        # one call for all of a block's coordinates; the coupled block of
        # the non-diagonal variant makes none
        import scipy.linalg.blas

        solve, sizes = scipy.linalg.blas.dtbsv, []

        def spy(k, band, drive, **options):
            sizes.append(drive.size)
            return solve(k, band, drive, **options)

        monkeypatch.setattr(scipy.linalg.blas, "dtbsv", spy)
        tb = truth_variant(kind)
        n = 2 * CHUNK + 1
        diffsim.simulate_custom(tb, n=n, T=1.0, seed=3, keep_latents=False)
        decoupled = [block.dim for block in (getattr(tb, name)
                                             for name in LATENTS[:4])
                     if diffsim._exact_transition(block, 1.0 / n)[3]
                     is not None]
        assert len(decoupled) == (4 if kind == "exact" else 3)
        assert sizes == [d * (stop - start + 1)
                         for start, stop in diffsim._chunk_bounds(n)
                         for d in decoupled]


def simulate_variant(tb, n, keep_latents):
    return diffsim.simulate_custom(tb, n=n, T=1.0, seed=11,
                                   keep_latents=keep_latents)


class TestStreaming:
    """The chunked simulator against the whole-path oracle across chunk edges."""

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
                                   3 * CHUNK + 5, 10**6])
    def test_chunks_cut_evenly(self, n):
        # the fewest chunks of at most CHUNK steps, tiling the path's steps
        # in order, sizes differing by one at most, the longer ones first:
        # no remainder chunk
        bounds = diffsim._chunk_bounds(n)
        starts, stops = zip(*bounds)
        assert starts[0] == 0 and stops[-1] == n
        assert list(starts[1:]) == list(stops[:-1])
        assert len(bounds) == -(-n // CHUNK)
        sizes = np.subtract(stops, starts)
        assert sizes.max() <= CHUNK and sizes.max() - sizes.min() <= 1
        assert np.all(np.diff(sizes) <= 0)
        assert len(bounds) == 1 or sizes.min() > 1

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
        slim = simulate_variant(tb, n, keep_latents=False)
        for name in ("x_obs",) + LATENTS:
            assert np.abs(getattr(out, name) - ref[name]).max() <= 1e-12, name
        assert np.array_equal(slim.x_obs, out.x_obs)

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

    @pytest.mark.parametrize("n", [24_574, 200_000, 400_000])
    def test_no_chunk_array_outlives_its_pass(self, n):
        # Above x_obs, a pass holds the next chunk's normals and the
        # current chunk's solves, of at most CHUNK steps each, so the
        # bound does not grow with n: 2.5 MB here at each n.  At
        # n = 24 574 a remainder chunk would be longest (16 382 steps).
        import tracemalloc

        truth = diffsim.load_truth(diffsim.TRUE_MODEL_NAME)
        tracemalloc.start()
        try:
            bundle = diffsim.simulate_custom(truth, n=n, T=1.0, seed=1,
                                             keep_latents=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - bundle.x_obs.nbytes < 2_800_000


class HelperDrawsAll(concurrent.futures.ThreadPoolExecutor):
    """The helper draws every claim of a chunk: each task ends before
    ``submit`` returns, so the calling thread finds none left."""

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        concurrent.futures.wait([future])
        return future


class CallerDrawsAll(concurrent.futures.ThreadPoolExecutor):
    """The calling thread draws every claim of a chunk: a task is handed
    to the helper only when its result is asked for, after the calling
    thread has emptied its list."""

    def submit(self, fn, *args):
        submit = super().submit
        return types.SimpleNamespace(result=lambda: submit(fn, *args).result())


class TestDrawnAhead:
    """A path of two or more chunks shares the draws of the next chunk's
    normals between one helper thread and the calling thread: the helper
    claims blocks while the current chunk is solved, the calling thread
    draws the ones left after its pass, and both fill arrays the calling
    thread allocated.  The thread ends with the call, and a one-chunk path
    starts none.  Which thread draws a block depends on timing, so the
    tests force each extreme with the executors above."""

    N = 3 * CHUNK

    @staticmethod
    def count_starts(monkeypatch):
        starts, start = [], threading.Thread.start

        def spy(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return starts

    def test_one_thread_joined_by_the_call(self, monkeypatch):
        starts = self.count_starts(monkeypatch)
        before = threading.active_count()
        diffsim.simulate_custom(truth_variant("exact"), n=self.N, T=1.0,
                                seed=3, keep_latents=False)
        assert len(starts) == 1
        assert threading.active_count() == before

    def test_thread_joined_when_a_solve_raises(self, monkeypatch):
        solve, calls = diffsim._chunk_path, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("second solve")
            return solve(*args)

        monkeypatch.setattr(diffsim, "_chunk_path", failing)
        starts = self.count_starts(monkeypatch)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="second solve"):
            diffsim.simulate_custom(truth_variant("exact"), n=self.N, T=1.0,
                                    seed=3, keep_latents=False)
        assert len(calls) == 2 and len(starts) == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1000, CHUNK])
    def test_one_chunk_starts_no_thread(self, n, monkeypatch):
        starts = self.count_starts(monkeypatch)
        diffsim.simulate_custom(truth_variant("exact"), n=n, T=1.0, seed=3,
                                keep_latents=False)
        assert len(diffsim._chunk_bounds(n)) == 1
        assert starts == []

    def test_draws_fill_arrays_the_caller_allocates(self, monkeypatch):
        # Every draw fills an array the calling thread allocated, so the
        # helper thread allocates no normals: a thread that allocates them
        # leaves its own heap behind (2 MB of RSS on a 10**6-step path).
        # Each filled array is kept, so any made off the main thread would
        # still be traced, with the helper's bootstrap as its oldest frame.
        # Whichever thread draws the claims, each chunk's block is drawn
        # once, the path keeps its bits and a pass holds no more.
        import tracemalloc

        want = diffsim.simulate_custom(truth_variant("exact"), n=self.N,
                                       T=1.0, seed=3)
        sizes = np.diff([0] + [stop for _, stop
                               in diffsim._chunk_bounds(self.N)])
        streams, calls, kept = diffsim._block_streams, [], []

        class Spy:
            def __init__(self, block, rng):
                self.block, self.rng = block, rng

            def standard_normal(self, *args, **kwargs):
                calls.append((self.block, threading.current_thread(),
                              args, set(kwargs)))
                kept.append(self.rng.standard_normal(*args, **kwargs))
                return kept[-1]

        for pool, drawer in ((HelperDrawsAll, "helper"),
                             (CallerDrawsAll, "caller")):
            monkeypatch.setattr(diffsim, "ThreadPoolExecutor", pool)
            monkeypatch.setattr(diffsim, "_block_streams", streams)
            tracemalloc.start()
            try:
                slim = diffsim.simulate_custom(
                    truth_variant("exact"), n=self.N, T=1.0, seed=3,
                    keep_latents=False)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - slim.x_obs.nbytes < 2_800_000, drawer

            calls.clear()
            kept.clear()
            monkeypatch.setattr(
                diffsim, "_block_streams",
                lambda seed: [Spy(*pair) for pair in enumerate(streams(seed))])
            tracemalloc.start(32)
            try:
                got = diffsim.simulate_custom(truth_variant("exact"), n=self.N,
                                              T=1.0, seed=3)
                traces = tracemalloc.take_snapshot().traces
            finally:
                tracemalloc.stop()
            for name in ("x_obs",) + LATENTS:
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), (drawer, name)
            assert len(sizes) == 3 and len(calls) == 4 * len(sizes)
            assert all(args == () and keys == {"out"}
                       for _, _, args, keys in calls)
            for block in range(4):
                drawn = [z for (b, _, _, _), z in zip(calls, kept) if b == block]
                assert [len(z) for z in drawn] == list(sizes), (drawer, block)
                assert len({id(z) for z in drawn}) == len(sizes)
            # the first chunk is drawn before the helper starts
            on_main = [t is threading.main_thread() for _, t, _, _ in calls]
            assert on_main == [True] * 4 + [drawer == "caller"] * 8, drawer
            by_helper = sum(trace.size for trace in traces
                            if trace.traceback[0].filename == threading.__file__)
            assert by_helper < min(z.nbytes for z in kept), drawer

    def test_claims_drawn_once_under_fast_switching(self):
        # Three calls at once, each with its helper, six threads on two
        # cores, with the interpreter switching threads every microsecond:
        # a claim lost or drawn twice would change a path's bits or leave
        # a call waiting.
        truth = truth_variant("exact")
        seeds = range(3)
        want = [diffsim.simulate_custom(truth, n=self.N, T=1.0, seed=seed)
                for seed in seeds]
        got = {}

        def run(seed):
            for _ in range(5):
                got.setdefault(seed, []).append(diffsim.simulate_custom(
                    truth, n=self.N, T=1.0, seed=seed))

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert len(got[seed]) == 5
            for bundle in got[seed]:
                for name in ("x_obs",) + LATENTS:
                    assert np.array_equal(getattr(bundle, name),
                                          getattr(want[seed], name)), name

    def raise_in_a_draw(self, pool, monkeypatch):
        """The first draw of the path's last chunk (the largest block's,
        claimed first) raises, with the claims forced onto one thread by
        ``pool``; the thread on which it raised."""
        monkeypatch.setattr(diffsim, "ThreadPoolExecutor", pool)
        chunks = len(diffsim._chunk_bounds(self.N))
        streams, draws = diffsim._block_streams, []

        class Failing:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *, out):
                draws.append(threading.current_thread())
                if len(draws) == chunks:
                    raise FloatingPointError("last draw")
                return self.rng.standard_normal(out=out)

        def failing_streams(seed):
            rngs = streams(seed)
            return [*rngs[:2], Failing(rngs[2]), rngs[3]]

        monkeypatch.setattr(diffsim, "_block_streams", failing_streams)
        starts = self.count_starts(monkeypatch)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="last draw"):
            diffsim.simulate_custom(truth_variant("exact"), n=self.N, T=1.0,
                                    seed=3, keep_latents=False)
        assert chunks == 3 and len(draws) == chunks and len(starts) == 1
        assert threading.active_count() == before
        return draws[-1]

    def test_thread_joined_when_a_draw_raises(self, monkeypatch):
        thread = self.raise_in_a_draw(HelperDrawsAll, monkeypatch)
        assert thread is not threading.main_thread()

    def test_thread_joined_when_a_caller_draw_raises(self, monkeypatch):
        thread = self.raise_in_a_draw(CallerDrawsAll, monkeypatch)
        assert thread is threading.main_thread()
