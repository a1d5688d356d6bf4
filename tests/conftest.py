import copy
import json
import pathlib

import numpy as np
import pytest
import scipy.signal
from scipy.linalg import lapack

from hfsem import diffsim, models, qlik
from hfsem.semspec import SemSpec


def fixed(value):
    """A document cell pinned to ``value``."""
    return {"fixed": value}


def free(index, constraint="none"):
    """A document cell read from ``theta[index]``."""
    return {"free": {"index": index, "constraint": constraint}}


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


def whole_path_quad_var(x_obs, T):
    """Reference for ``qlik.quad_var``: the Gram of all n increments in one
    product, from one (n, p) array of increments."""
    dx = np.diff(np.asarray(x_obs, dtype=float), axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        q = dx.T @ dx / T
    return qlik.QuadVar(q_xx=q, n=len(dx), T=T)


def make_scalar_model():
    """p=2 spec whose only free parameter is the first observed variance.

    The implied covariance is diag(theta, 1): the free coordinate behaves
    exactly like the textbook one-parameter variance model, with the fixed
    unit block contributing constants only.
    """
    patterns = {
        "lambda_x1": [[fixed(0.0)]],
        "lambda_x2": [[fixed(0.0)]],
        "b": [[fixed(0.0)]],
        "gamma": [[fixed(0.0)]],
        "sigma_xixi": [[fixed(1.0)]],
        "sigma_dd": [[free(0, "positive")]],
        "sigma_ee": [[fixed(1.0)]],
        "sigma_zz": [[fixed(1.0)]],
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
        "lambda_x1": [[fixed(1.0)], [free(0)]],
        "lambda_x2": [[fixed(1.0)], [fixed(0.0)]],
        "b": [[fixed(0.0)]],
        "gamma": [[fixed(0.0)]],
        "sigma_xixi": [[free(1, "positive")]],
        "sigma_dd": [
            [free(2, "positive"), fixed(0.0)],
            [fixed(0.0), free(3, "positive")]],
        "sigma_ee": [
            [free(4, "positive"), fixed(0.0)],
            [fixed(0.0), free(5, "positive")]],
        "sigma_zz": [[free(6, "positive")]],
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
        "lambda_x1": [[fixed(1.0)], [free(0)], [free(1)]],
        "lambda_x2": [[fixed(1.0), fixed(0.0)],
                      [free(2), fixed(0.0)],
                      [fixed(0.0), fixed(1.0)],
                      [fixed(0.0), free(3)]],
        "b": [[fixed(0.0), fixed(0.0)],
              [free(4), fixed(0.0)]],
        "gamma": [[free(5)], [free(6)]],
        "sigma_xixi": [[free(7, "positive")]],
        "sigma_dd": [
            [free(8, "positive"), free(9), fixed(0.0)],
            [free(9), free(10, "positive"), fixed(0.0)],
            [fixed(0.0), fixed(0.0), free(11, "positive")]],
        "sigma_ee": [
            [free(12, "positive"), fixed(0.0), fixed(0.0), fixed(0.0)],
            [fixed(0.0), free(13, "positive"), fixed(0.0), fixed(0.0)],
            [fixed(0.0), fixed(0.0), free(14, "positive"), fixed(0.0)],
            [fixed(0.0), fixed(0.0), fixed(0.0), free(15, "positive")]],
        "sigma_zz": [[free(16, "positive"), fixed(0.0)],
                     [fixed(0.0), free(17, "positive")]],
    }
    lower = np.full(18, -1e3)
    upper = np.full(18, 1e3)
    for k in (7, 8, 10, 11, 12, 13, 14, 15, 16, 17):
        lower[k] = 1e-6
        upper[k] = 1e4
    return SemSpec({"p1": 3, "p2": 4, "k1": 1, "k2": 2}, patterns,
                   lower, upper, name="structural")


def make_sign_flip_spec():
    """One factor measured by three free loadings with its variance fixed
    at 1 and no factor regression (q=8): full rank, yet the loadings and
    their negatives give the same covariance, so the spec is locally but
    not globally identified."""
    patterns = {
        "lambda_x1": [[free(0)], [free(1)], [free(2)]],
        "lambda_x2": [[fixed(1.0)], [fixed(2.0)]],
        "b": [[fixed(0.0)]],
        "gamma": [[fixed(0.0)]],
        "sigma_xixi": [[fixed(1.0)]],
        "sigma_dd": [
            [free(3, "positive"), fixed(0.0), fixed(0.0)],
            [fixed(0.0), free(4, "positive"), fixed(0.0)],
            [fixed(0.0), fixed(0.0), free(5, "positive")]],
        "sigma_ee": [[free(6, "positive"), fixed(0.0)],
                     [fixed(0.0), free(7, "positive")]],
        "sigma_zz": [[fixed(1.0)]],
    }
    lower = np.array([-1e3] * 3 + [1e-6] * 5)
    upper = np.array([1e3] * 3 + [1e4] * 5)
    return SemSpec({"p1": 3, "p2": 2, "k1": 1, "k2": 1}, patterns,
                   lower, upper, name="sign_flip")


def make_label_switch_spec():
    """Two uncorrelated unit-variance factors, the first item loading 1 on
    both and the other four loading freely on both, and a one-item second
    block with no factor regression (q=14): full rank, yet swapping the two
    loading columns gives the same covariance, and no rotation keeps the
    first row at (1, 1), so the spec is locally but not globally
    identified."""
    loadings = [[fixed(1.0), fixed(1.0)]] + [
        [free(2 * i), free(2 * i + 1)] for i in range(4)]
    uniques = [[free(8 + i, "positive") if i == j else fixed(0.0)
                for j in range(5)] for i in range(5)]
    patterns = {
        "lambda_x1": loadings,
        "lambda_x2": [[fixed(1.0)]],
        "b": [[fixed(0.0)]],
        "gamma": [[fixed(0.0), fixed(0.0)]],
        "sigma_xixi": [[fixed(1.0), fixed(0.0)],
                       [fixed(0.0), fixed(1.0)]],
        "sigma_dd": uniques,
        "sigma_ee": [[free(13, "positive")]],
        "sigma_zz": [[fixed(1.0)]],
    }
    lower = np.array([-1e3] * 8 + [1e-6] * 6)
    upper = np.array([1e3] * 8 + [1e4] * 6)
    return SemSpec({"p1": 5, "p2": 1, "k1": 2, "k2": 1}, patterns,
                   lower, upper, name="label_switch")


def all_specs():
    """The bundled models and the five hand-built specs above."""
    return ([models.load_builtin(f"model{i}") for i in (1, 2, 3)]
            + [make_scalar_model(), make_degenerate_model(),
               make_structural_spec(), make_sign_flip_spec(),
               make_label_switch_spec()])


def cellwalk_moment_start(spec, q_xx):
    """Reference moment start: a rule per role, applied cell by cell."""
    p1 = spec.p1
    diag = np.diag(q_xx)
    block1 = float(diag[:p1].mean())
    block2 = float(diag[p1:].mean())
    theta = np.zeros(spec.q)
    defaults = {
        "lambda_x1": lambda i, j: 1.0,
        "lambda_x2": lambda i, j: 1.0,
        "b": lambda i, j: 0.0,
        "gamma": lambda i, j: 0.5,
        "sigma_xixi": lambda i, j: 0.5 * block1 if i == j else 0.0,
        "sigma_dd": lambda i, j: 0.5 * diag[i] if i == j else 0.0,
        "sigma_ee": lambda i, j: 0.5 * diag[p1 + i] if i == j else 0.0,
        "sigma_zz": lambda i, j: 0.5 * block2 if i == j else 0.0,
    }
    for role, rule in defaults.items():
        for i, row in enumerate(spec.patterns[role]):
            for j, cell in enumerate(row):
                if "free" in cell:
                    theta[cell["free"]["index"]] = rule(i, j)
    return np.clip(theta, spec.lower, spec.upper)


def cellwalk_nested_embedding(inner, outer):
    """Reference embedding: the two specs' cells walked side by side."""
    if (inner.p1, inner.p2, inner.k1, inner.k2) != \
            (outer.p1, outer.p2, outer.k1, outer.k2):
        return None
    if inner.q > outer.q:
        return None

    index_map, offsets = {}, {}
    for role in inner.patterns:
        for row_in, row_out in zip(inner.patterns[role], outer.patterns[role]):
            for ci, co in zip(row_in, row_out):
                if "fixed" in ci and "fixed" in co:
                    if ci["fixed"] != co["fixed"]:
                        return None
                elif "fixed" in ci:
                    prev = offsets.get(co["free"]["index"])
                    if prev is not None and prev != ci["fixed"]:
                        return None
                    offsets[co["free"]["index"]] = ci["fixed"]
                elif "free" in co:
                    prev = index_map.get(ci["free"]["index"])
                    if prev is not None and prev != co["free"]["index"]:
                        return None
                    index_map[ci["free"]["index"]] = co["free"]["index"]
                else:
                    return None  # inner free where outer is pinned

    if len(index_map) != inner.q or len(set(index_map.values())) != inner.q:
        return None
    f = np.zeros((outer.q, inner.q))
    for i_inner, i_outer in index_map.items():
        f[i_outer, i_inner] = 1.0
    c = np.zeros(outer.q)
    for i_outer, value in offsets.items():
        if i_outer in index_map.values():
            return None
        c[i_outer] = value
    return f, c


def edited_spec(spec, cells, name):
    """``spec`` with some cells replaced, each given as a JSON cell (a
    covariance cell with its mirror).  Free indices keep their order and
    close up; a free cell with an index of q or more is a new parameter,
    boxed in [-10, 10]."""
    doc = spec.to_dict()
    for (role, i, j), cell in cells.items():
        doc[role][i][j] = copy.deepcopy(cell)
        if role.startswith("sigma"):
            doc[role][j][i] = copy.deepcopy(cell)
    free = [c["free"] for role in spec.patterns for row in doc[role]
            for c in row if "free" in c]
    old = sorted({c["index"] for c in free})
    for c in free:
        c["index"] = old.index(c["index"])
    box = [(spec.lower[k], spec.upper[k]) if k < spec.q else (-10.0, 10.0)
           for k in old]
    doc["bounds"] = {"lower": [lo for lo, _ in box],
                     "upper": [hi for _, hi in box]}
    doc["name"] = name
    return SemSpec.from_dict(doc)


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


def _product_rule_parts(spec, theta):
    """Lam, P, A, C = A P A', dA for the parameters of B and y for those of
    C (dC_i = y_i + y_i') at one ``theta``, from the unit stacks."""
    theta = np.asarray(theta, dtype=float)
    k1, k = spec.k1, spec.k1 + spec.k2
    lam, beta, phi, _ = (base + np.tensordot(theta, unit, 1)
                         for base, unit in zip(spec._bases, spec._units))
    a = np.eye(k)
    a[k1:, k1:] = np.linalg.inv(np.eye(k - k1) - beta[k1:, k1:])
    a[k1:, :k1] = a[k1:, k1:] @ beta[k1:, :k1]
    c = a @ phi @ a.T
    _, d_beta, d_phi, _ = spec._units
    _, g_beta, g_phi, _ = spec._groups
    d_a = a @ d_beta[g_beta] @ a
    y = np.concatenate([d_a @ phi @ a.T, 0.5 * (a @ d_phi[g_phi] @ a.T)])
    return lam, phi, a, c, d_a, y


def stacked_d1(spec, theta):
    """Reference first derivatives: the (q, p, p) stack
    ``dSigma/dtheta_i`` by the product rule on the unit stacks, each
    parameter through the matrix it enters: ``z_i + z_i'`` with
    ``z_i = D_i C Lam'`` for a loading and ``Lam y_i Lam'`` for a parameter
    of C, and the unit stack itself for a parameter of U."""
    lam, _, _, c, _, y = _product_rule_parts(spec, theta)
    d_lam, _, _, d_u = spec._units
    g_lam, g_beta, g_phi, g_u = spec._groups
    d1 = np.empty((spec.q, spec.p, spec.p))
    z = d_lam[g_lam] @ c @ lam.T
    d1[g_lam] = z + np.swapaxes(z, -1, -2)
    z = lam @ y @ lam.T
    d1[np.concatenate([g_beta, g_phi])] = z + np.swapaxes(z, -1, -2)
    d1[g_u] = d_u[g_u]
    return d1


def stacked_information(spec, theta, sigma_inv):
    """Reference information per increment from the stack of
    :func:`stacked_d1`: ``tr(S Sigma_i S Sigma_j) / 2`` with
    ``S = sigma_inv``, each trace taken on p x p matrices, symmetrized."""
    a = sigma_inv @ stacked_d1(spec, theta)
    info = 0.5 * np.einsum("iab,jba->ij", a, a)
    return 0.5 * (info + info.T)


def stacked_d2(spec, theta):
    """Reference second derivatives: the (q, q, p, p) stack
    ``d2 Sigma/dtheta_i dtheta_j``, built block by block of the groups by
    the product rule on the unit stacks: two loadings (through C), a
    loading and a parameter of C (through dC), and two parameters of C
    (through d2C = y2 + y2')."""
    lam, phi, a, c, d_a, y = _product_rule_parts(spec, theta)
    q, k = spec.q, spec.k1 + spec.k2
    d_lam, d_beta, d_phi, _ = spec._units
    g_lam, g_beta, g_phi, _ = spec._groups
    g_c = np.concatenate([g_beta, g_phi])
    ui, uj = (slice(None), None), (None, slice(None))
    d_l, d_b, d_p = d_lam[g_lam], d_beta[g_c], d_phi[g_c]
    d_ac = np.zeros((len(g_c), k, k))
    d_ac[:len(g_beta)] = d_a
    d2_a = d_ac[uj] @ d_b[ui] @ a + a @ d_b[ui] @ d_ac[uj]
    y2 = (d2_a @ phi @ a.T + d_ac[ui] @ d_p[uj] @ a.T
          + d_ac[uj] @ d_p[ui] @ a.T
          + d_ac[ui] @ phi @ np.swapaxes(d_ac, -1, -2)[uj])
    z_ll = d_l[ui] @ c @ np.swapaxes(d_l, -1, -2)[uj]
    z_lc = d_l[ui] @ (y + np.swapaxes(y, -1, -2))[uj] @ lam.T
    z_cc = lam @ y2 @ lam.T
    d2 = np.zeros((q, q, spec.p, spec.p))
    d2[g_lam[:, None], g_lam] = z_ll + np.swapaxes(z_ll, -1, -2)
    d2[g_lam[:, None], g_c] = z_lc + np.swapaxes(z_lc, -1, -2)
    d2[g_c[:, None], g_lam] = d2[g_lam[:, None], g_c].swapaxes(0, 1)
    d2[g_c[:, None], g_c] = z_cc + np.swapaxes(z_cc, -1, -2)
    return d2


def stacked_hessian(surface, theta):
    """Reference observed Hessian from the stacks of :func:`stacked_d1`
    and :func:`stacked_d2`: ``n [tr(dM_j Sigma_i) + tr(M Sigma_ij)] / 2``
    with ``M = inv Q inv - inv``, each trace taken on p x p matrices."""
    spec, q_xx, n = surface.spec, surface.quadvar.q_xx, surface.n
    d1 = stacked_d1(spec, theta)
    inv = np.linalg.inv(spec.sigma(theta))
    r = inv @ q_xx @ inv
    a, b = inv @ d1, r @ d1
    dm = (np.einsum("iab,jba->ij", a, a) - 2.0 * np.einsum("iab,jba->ij", a, b))
    d2m = np.einsum("ijab,ab->ij", stacked_d2(spec, theta), r - inv)
    hessian = 0.5 * n * (dm + d2m)
    return 0.5 * (hessian + hessian.T)


def _oneshot_recursion(ad, u, x0):
    """x_{i+1} = ad x_i + u_i over the whole path: one scalar AR filter per
    coordinate when ``ad`` is diagonal, the step loop otherwise."""
    n, d = u.shape
    path = np.empty((n + 1, d))
    path[0] = x0
    off_diag = ad - np.diag(np.diag(ad))
    if np.abs(off_diag).max(initial=0.0) == 0.0:
        a = np.diag(ad)
        u = u.copy()
        u[0] += a * x0
        for j in range(d):
            path[1:, j] = scipy.signal.lfilter([1.0], [1.0, -a[j]], u[:, j])
    else:
        x = np.asarray(x0, dtype=float)
        for i in range(n):
            x = ad @ x + u[i]
            path[i + 1] = x
    return path


def oneshot_simulate_ou(block, n, T, rng):
    """Reference sampler: every step's normals in one (n, dim) draw, the
    whole-path exact transition product, then the recursion over all n
    steps."""
    ad, bd, noise_factor = diffsim._build_transition(block, T / n)
    u = rng.standard_normal((n, block.dim)) @ noise_factor.T + bd
    return _oneshot_recursion(ad, u, block.init)


def oneshot_simulate_custom(tb, n, T, seed):
    """Reference for ``diffsim.simulate_custom`` on a truth from
    ``diffsim.load_truth``: whole latent paths, ``eta`` by ``solve`` and one
    stacked assembly.  Returns the observed and latent arrays by name."""
    streams = diffsim._block_streams(seed)
    paths = {name: oneshot_simulate_ou(tb[name], n, T, rng)
             for name, rng in zip(("xi", "delta", "eps", "zeta"), streams)}
    b0 = np.asarray(tb["b0"], float)
    psi = np.eye(b0.shape[0]) - b0
    xi = paths["xi"]
    eta = np.linalg.solve(psi, (xi @ tb["gamma"].T + paths["zeta"]).T).T
    x_obs = np.hstack([xi @ tb["lambda_x1"].T + paths["delta"],
                       eta @ tb["lambda_x2"].T + paths["eps"]])
    return dict(paths, eta=eta, x_obs=x_obs)


def per_lane_scoring_step(info, grad, free):
    """Reference for ``qmle._scoring_step``: each lane's free block gathered
    and its 1-norm taken on its own, before the Cholesky solve (least
    squares when the block is empty, not positive definite or singular to
    working precision)."""
    steps = np.zeros_like(grad)
    for lane, keep in enumerate(free):
        block, g = info[lane][np.ix_(keep, keep)], grad[lane, keep]
        c, failed = lapack.dpotrf(block, lower=1, clean=0)
        if not failed and g.size:
            norm = np.abs(block).sum(axis=0).max()
            rcond = lapack.dpocon(c, norm, uplo="L")[0]
            if rcond > np.finfo(float).eps * g.size:
                steps[lane, keep] = lapack.dpotrs(c, g, lower=1)[0]
                continue
        steps[lane, keep] = np.linalg.lstsq(block, g, rcond=None)[0]
    return steps


def bundled_truth_doc():
    """The document of the study's bundled truth, as a dict."""
    path = (pathlib.Path(diffsim.__file__).parent / "truth_files"
            / f"{diffsim.TRUE_MODEL_NAME}.json")
    return json.loads(path.read_text())


def interior_theta(spec, rng, spread=0.3, around=None):
    """A random interior point near a reference (true-value scale)."""
    if around is None:
        around = np.where(spec.positive_mask, 5.0, 2.0)
    factor = rng.uniform(1.0 - spread, 1.0 + spread, size=spec.q)
    theta = np.where(spec.positive_mask, around * factor, around + factor - 1.0)
    return np.clip(theta, spec.lower, spec.upper)
