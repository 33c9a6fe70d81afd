"""Tests for the pressure Schur complement driver."""
import dataclasses
import json

import numpy as np
import pytest

from voxstokes import schur
from voxstokes.geometry import PackingParams, VoxelGrid, generate_packing
from voxstokes.operators import assemble
from voxstokes.schur import (
    SchurConfig,
    apply_schur,
    apply_simple_inverse,
    permeability,
    profile_config,
    schur_rhs,
    solve_schur,
)


def channel_grid(n, width):
    """Straight channel along x: a periodic band of fluid, solid elsewhere."""
    fluid = np.zeros((n, n), dtype=bool)
    lo = (n - width) // 2
    fluid[:, lo : lo + width] = True
    return VoxelGrid(fluid)


def solve_channel_k(n):
    sys = assemble(channel_grid(n, n // 2), flow_dir=0)
    rep = solve_schur(sys, profile_config("reference", "simple"))
    assert rep.converged
    return rep.k_value


@pytest.fixture(scope="module")
def packing_system():
    grid = generate_packing(PackingParams(N=2, n_c=10, n_avg=4, n_min=2, seed=11))
    return assemble(grid, flow_dir=0)


# ---------------------------------------------------------------- channel


def test_channel_permeability_matches_poiseuille():
    # plane Poiseuille flow between plates a distance w apart: k = w^3 / 12
    k = solve_channel_k(64)
    k_exact = 0.5**3 / 12.0
    assert abs(k - k_exact) / k_exact < 0.02


def test_channel_convergence_is_second_order():
    k_exact = 0.5**3 / 12.0
    errs = [abs(solve_channel_k(n) - k_exact) / k_exact for n in (16, 32)]
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_channel_rhs_vanishes():
    # the exact channel solution is divergence free with zero pressure
    # fluctuation, so g inherits only the inner solve error
    sys = assemble(channel_grid(32, 16), flow_dir=0)
    g, u_f = schur_rhs(sys, 1e-12)
    assert np.linalg.norm(g) <= 1e-8 * np.linalg.norm(u_f) / sys.h


# ------------------------------------------------- operator level checks


def test_apply_schur_symmetric(packing_system):
    sys = packing_system
    rng = np.random.default_rng(3)
    eps = 1e-10
    for _ in range(5):
        p = rng.standard_normal(sys.m_p)
        q = rng.standard_normal(sys.m_p)
        p -= p.mean()
        q -= q.mean()
        sp_, _ = apply_schur(sys, p, eps)
        sq_, _ = apply_schur(sys, q, eps)
        gap = abs(q @ sp_ - p @ sq_)
        assert gap <= 10 * eps * np.linalg.norm(p) * np.linalg.norm(q)


def test_schur_annihilates_constants(packing_system):
    sys = packing_system
    sp_, w = apply_schur(sys, np.ones(sys.m_p), 1e-12)
    assert np.all(sp_ == 0.0)
    assert np.all(w == 0.0)


def test_rhs_has_zero_mean(packing_system):
    g, _ = schur_rhs(packing_system, 1e-10)
    assert abs(g.sum()) <= 1e-10 * np.linalg.norm(g)


def test_simple_inverse_roundtrip(packing_system):
    sys = packing_system
    rng = np.random.default_rng(8)
    r = rng.standard_normal(sys.m_p)
    r -= r.mean()
    eps = 1e-10
    z = apply_simple_inverse(sys, r, eps)
    forward = sys.apply_divergence(sys.apply_gradient(z) / sys.laplacian_diag)
    assert np.linalg.norm(forward - r) <= 10 * eps * np.linalg.norm(r)


def test_simple_operator_interior_stencil():
    # on an all-fluid torus diag(A) is constant 2*dim/h^2, so the SIMPLE
    # operator reduces to the five point pressure stencil divided by 2*dim
    n = 4
    grid = VoxelGrid(np.ones((n, n), dtype=bool))
    sys = assemble(grid, flow_dir=0, require_walls=False)
    m = sys.m_p
    dense = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        dense[:, j] = sys.apply_divergence(sys.apply_gradient(e) / sys.laplacian_diag)
    hand = np.zeros((m, m))
    ids = sys.dof_map.pressure_ids
    for i in range(n):
        for j in range(n):
            row = ids[i, j]
            hand[row, row] = 1.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                hand[row, ids[(i + di) % n, (j + dj) % n]] = -0.25
    assert np.allclose(dense, hand, atol=1e-13)


# ------------------------------------------------------------ permeability


def test_permeability_uniform_flow_on_torus():
    grid = VoxelGrid(np.ones((6, 6), dtype=bool))
    sys = assemble(grid, flow_dir=0, require_walls=False)
    u = np.zeros(sys.m_u)
    lo = sys.dof_map.axis_offsets[0]
    u[lo : lo + sys.dof_map.axis_counts[0]] = 0.75
    assert permeability(sys, u) == pytest.approx(0.75, rel=1e-14)
    assert permeability(sys, np.zeros(sys.m_u)) == 0.0


def test_permeability_length_check(packing_system):
    with pytest.raises(ValueError, match="length mismatch"):
        permeability(packing_system, np.zeros(packing_system.m_u + 1))


def test_permeability_translation_invariant():
    grid = generate_packing(PackingParams(N=2, n_c=10, n_avg=4, n_min=2, seed=5))
    shift = (3, 7)
    rolled = VoxelGrid(np.roll(grid.fluid, shift, axis=(0, 1)))
    sys1 = assemble(grid, flow_dir=0)
    sys2 = assemble(rolled, flow_dir=0)
    assert sys1.m_u == sys2.m_u
    rng = np.random.default_rng(17)
    u1 = rng.standard_normal(sys1.m_u)
    u2 = np.empty(sys2.m_u)
    n = grid.n
    for a in range(2):
        coords = sys1.dof_map.velocity_coords(a)
        moved = (coords + np.asarray(shift)) % n
        ids2 = sys2.dof_map.face_ids[a][tuple(moved.T)]
        assert np.all(ids2 >= 0)
        lo = sys1.dof_map.axis_offsets[a]
        count = sys1.dof_map.axis_counts[a]
        u2[ids2] = u1[lo : lo + count]
    k1 = permeability(sys1, u1)
    k2 = permeability(sys2, u2)
    assert k1 == pytest.approx(k2, rel=1e-12)


# ------------------------------------------------------------- full solves


def test_solve_report_invariants(packing_system, tmp_path):
    sys = packing_system
    ref = solve_schur(sys, profile_config("reference", "simple"))
    assert ref.converged
    cfg = profile_config("paper2d", "simple", k_ref=ref.k_value)
    rep = solve_schur(sys, cfg)
    assert rep.converged
    n = rep.iters_outer
    assert len(rep.res_prec) == n + 1
    assert len(rep.res_unprec) == n + 1
    assert len(rep.perm_history) == n + 1
    assert rep.k_value == rep.perm_history[-1]
    assert rep.res_unprec[-1] <= 1e-3 * rep.res_unprec[0]
    assert rep.perm_err_history is not None
    assert rep.perm_err_history[-1] == pytest.approx(
        abs(rep.k_value - ref.k_value) / ref.k_value
    )
    assert rep.inner_iter_totals["velocity"] > 0
    assert rep.inner_iter_totals["preconditioner"] > 0
    assert rep.cond_est_outer is None or rep.cond_est_outer >= 1.0
    assert rep.wall_time > 0.0

    json_path = tmp_path / "report.json"
    rep.write_json(json_path)
    loaded = json.loads(json_path.read_text())
    assert loaded["k_value"] == rep.k_value
    assert loaded["iters_outer"] == n
    assert loaded["config"]["prec"] == "simple"
    assert list(loaded["config"]) == [
        "prec", "eps_S", "outer_norm", "eps_A", "eps_Shat",
        "flow_dir", "k_ref", "max_iter",
    ]
    assert len(loaded["perm_history"]) == n + 1

    csv_path = tmp_path / "report.csv"
    rep.write_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "iter,res_prec,res_unprec,k,e_k"
    assert len(lines) == n + 2
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[3]) == rep.perm_history[0]


def test_uzawa_and_simple_agree(packing_system):
    sys = packing_system
    k_u = solve_schur(sys, profile_config("paper2d", "uzawa")).k_value
    k_s = solve_schur(sys, profile_config("paper2d", "simple")).k_value
    assert k_u == pytest.approx(k_s, rel=2e-3)


def test_uzawa_largest_eigenvalue_estimate(packing_system):
    rep = solve_schur(packing_system, profile_config("paper2d", "uzawa"))
    assert rep.lambda_max_est is not None
    assert abs(rep.lambda_max_est - 1.0) <= 1e-3


def test_velocity_satisfies_momentum_equation(packing_system):
    sys = packing_system
    cfg = profile_config("paper2d", "simple")
    rep = solve_schur(sys, cfg)
    rhs = sys.force - sys.apply_gradient(rep.pressure)
    res = sys.apply_laplacian(rep.velocity) - rhs
    assert np.linalg.norm(res) <= 100 * cfg.eps_A * np.linalg.norm(rhs)


def test_solver_matches_dense_reference():
    grid = generate_packing(PackingParams(N=1, n_c=8, n_avg=4, n_min=2, seed=3))
    sys = assemble(grid, flow_dir=0)
    a = sys.matrix_laplacian().toarray()
    b = sys.matrix_divergence().toarray()
    a_inv = np.linalg.inv(a)
    s = b @ a_inv @ b.T
    g = b @ (a_inv @ sys.force)
    p = np.linalg.pinv(s, rcond=1e-12) @ g
    u = a_inv @ (sys.force - b.T @ p)
    k_dense = permeability(sys, u)
    rep = solve_schur(sys, profile_config("reference", "simple"))
    assert rep.k_value == pytest.approx(k_dense, rel=1e-5)


def test_max_iter_exhaustion_is_reported():
    grid = generate_packing(PackingParams(N=1, n_c=10, n_avg=4, n_min=2, seed=1))
    sys = assemble(grid, flow_dir=0)
    cfg = SchurConfig(
        prec="uzawa",
        eps_S=1e-9,
        outer_norm="unpreconditioned",
        eps_A=1e-13,
        eps_Shat=1e-13,
        max_iter=2,
    )
    rep = solve_schur(sys, cfg)
    assert not rep.converged
    assert rep.iters_outer == 2
    assert len(rep.perm_history) == 3
    assert np.isfinite(rep.k_value)


def test_inner_solve_failures_name_the_solve(packing_system, monkeypatch):
    sys = packing_system
    assert sys.m_u != sys.m_p
    pcg = schur.pcg

    def stop_inner_solves_of_length(length):
        def pcg_one_step(op, prec, rhs, x0, cfg, step_hook=None):
            if len(rhs) == length and not cfg.record_history:
                cfg = dataclasses.replace(cfg, max_iter=1)
            return pcg(op, prec, rhs, x0, cfg, step_hook)

        monkeypatch.setattr(schur, "pcg", pcg_one_step)

    tail = r" did not converge: relative residual \S+ after 1 iterations$"
    stop_inner_solves_of_length(sys.m_u)
    for call in (lambda: schur_rhs(sys, 1e-10),
                 lambda: solve_schur(sys, profile_config("paper2d", "uzawa"))):
        with pytest.raises(RuntimeError, match="^inner velocity solve" + tail):
            call()
    stop_inner_solves_of_length(sys.m_p)
    r = np.random.default_rng(6).standard_normal(sys.m_p)
    for call in (lambda: apply_simple_inverse(sys, r - r.mean(), 1e-10),
                 lambda: solve_schur(sys, profile_config("paper2d", "simple"))):
        with pytest.raises(RuntimeError,
                           match="^inner pressure preconditioner solve" + tail):
            call()


def test_flow_dir_mismatch(packing_system):
    with pytest.raises(ValueError, match="flow_dir"):
        solve_schur(
            packing_system,
            SchurConfig(prec="uzawa", flow_dir=1, eps_A=1e-4, eps_S=1e-2),
        )
    cfg = SchurConfig(prec="uzawa", flow_dir="x", eps_S=1e-2, eps_A=1e-4)
    rep = solve_schur(packing_system, cfg)
    assert rep.k_value > 0


def test_three_dimensional_smoke():
    grid = generate_packing(PackingParams(N=1, n_c=6, n_avg=2, n_min=2, seed=0, dim=3))
    sys = assemble(grid, flow_dir="z")
    rep = solve_schur(sys, profile_config("paper3d", "simple"))
    assert rep.converged
    assert rep.k_value > 0


# ---------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError, match="prec"):
        SchurConfig(prec="ilu")
    with pytest.raises(ValueError, match="outer_norm"):
        SchurConfig(prec="uzawa", outer_norm="energy")
    with pytest.raises(ValueError, match="eps_S"):
        SchurConfig(prec="uzawa", eps_S=0.0)
    with pytest.raises(ValueError, match="eps_A"):
        SchurConfig(prec="uzawa", eps_A=1.5)
    with pytest.raises(ValueError, match="max_iter"):
        SchurConfig(prec="uzawa", max_iter=0)
    with pytest.warns(UserWarning, match="eps_A"):
        SchurConfig(prec="uzawa", eps_S=1e-8, eps_A=1e-6)


def test_profiles():
    cfg = profile_config("paper2d", "uzawa")
    assert cfg.outer_norm == "unpreconditioned"
    assert cfg.eps_A == 1e-13
    cfg3 = profile_config("paper3d", "simple", eps_S=5e-4)
    assert cfg3.outer_norm == "preconditioned"
    assert cfg3.eps_S == 5e-4
    with pytest.raises(ValueError, match="profile"):
        profile_config("paper4d", "uzawa")
