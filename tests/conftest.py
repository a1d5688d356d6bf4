import numpy as np
import pytest

from hfsem import diffsim, models, qlik
from hfsem.semspec import Fixed, Free, PatternMatrix, SemSpec


@pytest.fixture(scope="session")
def model1():
    return models.load_builtin("model1")


@pytest.fixture(scope="session")
def model2():
    return models.load_builtin("model2")


@pytest.fixture(scope="session")
def model3():
    return models.load_builtin("model3")


@pytest.fixture(scope="session")
def sigma0_oracle():
    """The truth's covariance assembled by hand from the benchmark matrices,
    independently of the package's implied-covariance code."""
    l1 = np.array([[1.0], [3.0], [4.0], [6.0]])
    l2 = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0],
                   [0.0, 1.0], [0.0, 2.0], [0.0, 4.0]])
    g = np.array([[3.0], [2.0]])
    phi = np.array([[9.0]])
    s_dd = np.diag([4.0, 1.0, 4.0, 9.0])
    s_ee = np.diag([25.0, 1.0, 4.0, 1.0, 9.0, 4.0])
    s_zz = np.diag([9.0, 1.0])
    s11 = l1 @ phi @ l1.T + s_dd
    s12 = l1 @ phi @ g.T @ l2.T
    s22 = l2 @ (g @ phi @ g.T + s_zz) @ l2.T + s_ee
    return np.block([[s11, s12], [s12.T, s22]])


@pytest.fixture(scope="session")
def bundle_1e4():
    return diffsim.simulate_true_model(10_000, 1.0, seed=2024)


@pytest.fixture(scope="session")
def bundle_1e5():
    return diffsim.simulate_true_model(100_000, 1.0, seed=77)


@pytest.fixture(scope="session")
def quadvar_1e4(bundle_1e4):
    return qlik.quad_var(bundle_1e4.x_obs, bundle_1e4.T)


@pytest.fixture(scope="session")
def quadvar_1e5(bundle_1e5):
    return qlik.quad_var(bundle_1e5.x_obs, bundle_1e5.T)


def make_scalar_model():
    """p=2 spec whose only free parameter is the first observed variance.

    The implied covariance is diag(theta, 1): the free coordinate behaves
    exactly like the textbook one-parameter variance model, with the fixed
    unit block contributing constants only.
    """
    patterns = {
        "lambda_x1": PatternMatrix([[Fixed(0.0)]]),
        "lambda_x2": PatternMatrix([[Fixed(0.0)]]),
        "b": PatternMatrix([[Fixed(0.0)]]),
        "gamma": PatternMatrix([[Fixed(0.0)]]),
        "sigma_xixi": PatternMatrix([[Fixed(1.0)]]),
        "sigma_dd": PatternMatrix([[Free(0, "positive")]]),
        "sigma_ee": PatternMatrix([[Fixed(1.0)]]),
        "sigma_zz": PatternMatrix([[Fixed(1.0)]]),
    }
    return SemSpec({"p1": 1, "p2": 1, "k1": 1, "k2": 1}, patterns,
                   lower=[1e-6], upper=[1e4], name="scalar")


@pytest.fixture(scope="session")
def scalar_model():
    return make_scalar_model()


def make_degenerate_model():
    """Two free parameters feed the same covariance entry.

    With all loadings fixed so the single second-block factor loads only on
    the first coordinate and the factor regression is zero, the factor
    variance and the first unique variance of the second block are
    indistinguishable: their Jacobian columns are identical.
    """
    patterns = {
        "lambda_x1": PatternMatrix([[Fixed(1.0)], [Free(0)]]),
        "lambda_x2": PatternMatrix([[Fixed(1.0)], [Fixed(0.0)]]),
        "b": PatternMatrix([[Fixed(0.0)]]),
        "gamma": PatternMatrix([[Fixed(0.0)]]),
        "sigma_xixi": PatternMatrix([[Free(1, "positive")]]),
        "sigma_dd": PatternMatrix([
            [Free(2, "positive"), Fixed(0.0)],
            [Fixed(0.0), Free(3, "positive")]]),
        "sigma_ee": PatternMatrix([
            [Free(4, "positive"), Fixed(0.0)],
            [Fixed(0.0), Free(5, "positive")]]),
        "sigma_zz": PatternMatrix([[Free(6, "positive")]]),
    }
    lower = np.array([-1e3] + [1e-6] * 6)
    upper = np.array([1e3] + [1e4] * 6)
    return SemSpec({"p1": 2, "p2": 2, "k1": 1, "k2": 1}, patterns,
                   lower, upper, name="degenerate")


@pytest.fixture(scope="session")
def degenerate_model():
    return make_degenerate_model()


def make_structural_spec():
    """k2=2 with a free lower-triangular structural loading and a free
    off-diagonal unique covariance: free b and symmetric off-diagonal
    cells, which the bundled models never have."""
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


def fd_hessian(surface, theta, rel_step=1e-5):
    """Reference Hessian: symmetrized central differences of the analytic
    gradient with relative steps, 2q gradient calls."""
    theta = np.asarray(theta, dtype=float)
    q = theta.size
    hess = np.empty((q, q))
    for j in range(q):
        step = rel_step * (1.0 + abs(theta[j]))
        plus, minus = theta.copy(), theta.copy()
        plus[j] += step
        minus[j] -= step
        hess[:, j] = (surface.grad(plus) - surface.grad(minus)) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def interior_theta(spec, rng, spread=0.3, around=None):
    """A random interior point near a reference (true-value scale)."""
    if around is None:
        around = np.where(spec.positive_mask, 5.0, 2.0)
    factor = rng.uniform(1.0 - spread, 1.0 + spread, size=spec.q)
    theta = np.where(spec.positive_mask, around * factor, around + factor - 1.0)
    return np.clip(theta, spec.lower, spec.upper)
