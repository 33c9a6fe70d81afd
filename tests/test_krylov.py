import numpy as np
import pytest
import scipy.sparse as sp

from voxstokes.krylov import (
    PcgConfig,
    jacobi_prec,
    lanczos_condition_estimate,
    pcg,
)


def spd_operator(matrix):
    return lambda v: matrix @ v


def dirichlet_laplacian_1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def test_identity_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(15)
    x0 = rng.standard_normal(15)
    res = pcg(lambda v: v, None, rhs, x0, PcgConfig(tol=1e-12))
    assert res.converged and res.iterations == 1
    # solution = x0 - r0 with r0 = x0 - rhs
    assert np.allclose(res.solution, rhs, atol=1e-14)
    assert len(res.res_prec) == res.iterations + 1
    assert len(res.res_unprec) == res.iterations + 1


def test_exact_start_converges_immediately():
    rhs = np.arange(1.0, 6.0)
    res = pcg(lambda v: 2.0 * v, None, rhs, rhs / 2.0, PcgConfig(tol=1e-12))
    assert res.converged and res.iterations == 0
    assert res.res_unprec[0] == 0.0


def test_periodic_neumann_laplacian_projected():
    n = 32
    op = lambda v: 2 * v - np.roll(v, 1) - np.roll(v, -1)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(n)  # projected inside pcg
    means = []
    hook = lambda k, alpha, x: means.append(abs(x.mean()) / max(np.linalg.norm(x), 1e-300))
    res = pcg(op, None, rhs, None,
              PcgConfig(tol=1e-11, project_nullspace=True, max_iter=500), hook)
    assert res.converged
    x = res.solution
    assert abs(x.mean()) <= 1e-12 * np.linalg.norm(x)
    assert all(m <= 1e-12 for m in means)
    consistent = rhs - rhs.mean()
    assert np.linalg.norm(op(x) - consistent) <= 1e-10 * np.linalg.norm(consistent)


def test_diagonal_system_exact_solve():
    d = np.arange(1.0, 11.0)
    rhs = np.ones(10)
    res = pcg(spd_operator(np.diag(d)), None, rhs, None, PcgConfig(tol=1e-14))
    assert res.converged and res.iterations <= 10
    assert np.allclose(res.solution, 1.0 / d, atol=1e-10)
    assert np.all(res.alpha > 0)
    assert np.all(res.beta >= 0)


def test_unpreconditioned_norm_stopping():
    d = np.linspace(1.0, 5.0, 40)
    rhs = np.ones(40)
    cfg = PcgConfig(tol=1e-9, norm_kind="unpreconditioned")
    res = pcg(spd_operator(np.diag(d)), jacobi_prec(d), rhs, None, cfg)
    assert res.converged
    assert res.res_unprec[-1] / res.res_unprec[0] < 1e-9


def test_max_iter_returns_unconverged():
    d = np.linspace(1.0, 1e4, 60)
    res = pcg(spd_operator(np.diag(d)), None, np.ones(60), None,
              PcgConfig(tol=1e-14, max_iter=3))
    assert not res.converged
    assert res.iterations == 3


def test_indefinite_operator_raises():
    d = np.array([1.0, -1.0, 2.0])
    with pytest.raises(RuntimeError, match="not SPD"):
        pcg(spd_operator(np.diag(d)), None, np.array([0.0, 1.0, 0.0]), None,
            PcgConfig(tol=1e-10))


def test_config_validation():
    with pytest.raises(ValueError, match="tol"):
        PcgConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        PcgConfig(tol=1e-3, max_iter=0)
    with pytest.raises(ValueError, match="norm_kind"):
        PcgConfig(tol=1e-3, norm_kind="energy")
    with pytest.raises(TypeError):
        pcg(lambda v: v, None, np.ones(3), None, None)


def test_record_history_off_keeps_norms():
    d = np.linspace(1.0, 3.0, 20)
    res = pcg(spd_operator(np.diag(d)), None, np.ones(20), None,
              PcgConfig(tol=1e-10, record_history=False))
    assert res.converged
    assert res.alpha.size == 0 and res.beta.size == 0
    assert len(res.res_prec) == res.iterations + 1


def test_finite_termination_small_spd():
    rng = np.random.default_rng(2)
    n = 200
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(rng.uniform(1.0, 10.0, n)) @ q.T
    a = 0.5 * (a + a.T)
    res = pcg(spd_operator(a), None, rng.standard_normal(n), None,
              PcgConfig(tol=1e-10, max_iter=n))
    assert res.converged
    assert res.iterations <= n


def test_preconditioned_residual_monotone_on_spd_instance():
    rng = np.random.default_rng(0)
    n = 80
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = q @ np.diag(rng.uniform(1.0, 10.0, n)) @ q.T
    mat = 0.5 * (mat + mat.T)
    rhs = rng.standard_normal(n)
    res = pcg(lambda v: mat @ v, jacobi_prec(np.diag(mat)), rhs, None,
              PcgConfig(tol=1e-11, max_iter=500))
    assert res.converged
    hist = res.res_prec
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-10) for i in range(len(hist) - 1))


def test_lanczos_identity_and_errors():
    lo, hi, cond = lanczos_condition_estimate([1.0, 1.0], [0.0, 0.0])
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)
    assert cond == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError, match="at least 2"):
        lanczos_condition_estimate([1.0], [0.0])


def test_lanczos_two_eigenvalues_exact():
    a = np.diag([1.0, 4.0])
    res = pcg(spd_operator(a), None, np.array([1.0, 1.0]), None,
              PcgConfig(tol=1e-14, max_iter=2))
    assert res.iterations == 2
    lo, hi, cond = lanczos_condition_estimate(res.alpha, res.beta)
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == pytest.approx(4.0, abs=1e-8)
    assert cond == pytest.approx(4.0, abs=1e-6)


def test_lanczos_matches_dense_spectrum_bounds():
    mat = dirichlet_laplacian_1d(48)
    rng = np.random.default_rng(4)
    res = pcg(lambda v: mat @ v, None, rng.standard_normal(48), None,
              PcgConfig(tol=1e-13, max_iter=200))
    lo, hi, cond = lanczos_condition_estimate(res.alpha, res.beta)
    true_eigs = np.linalg.eigvalsh(mat.toarray())
    assert lo == pytest.approx(true_eigs[0], rel=0.05)
    assert hi == pytest.approx(true_eigs[-1], rel=0.05)
    assert cond == pytest.approx(true_eigs[-1] / true_eigs[0], rel=0.05)


def test_jacobi_prec():
    ident = jacobi_prec(np.ones(4))
    v = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(ident(v), v)
    halver = jacobi_prec(np.full(4, 2.0))
    assert np.allclose(halver(v), v / 2.0)
    with pytest.raises(ValueError, match="nonpositive"):
        jacobi_prec(np.array([1.0, 0.0]))
