"""Pressure Schur complement driver.

The discrete Stokes system

    [A  B^T] [u]   [f]
    [B  0  ] [p] = [0]

reduces to the pressure equation S p = g with S = B A^-1 B^T and
g = B A^-1 f. S is symmetric positive semidefinite with the constant
pressure as its only null vector on a connected fluid domain, so the
outer conjugate-gradient iteration runs with mean projection and either
the identity preconditioner (the Uzawa variant) or the diffusion-like
operator B diag(A)^-1 B^T (the SIMPLE variant).

Every application of S performs an inner velocity solve; the byproduct
w = A^-1 B^T d of the search-direction application keeps a running
velocity iterate at no extra cost, which is where the per-iteration
permeability history comes from. A final direct velocity refresh
(A u = f - B^T p) bounds the drift that inexact inner solves accumulate.
"""
from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .krylov import NORM_KINDS, PcgConfig, jacobi_prec, lanczos_condition_estimate, pcg
from .operators import StaggeredSystem, axis_index

__all__ = [
    "PRECONDITIONERS",
    "SchurConfig",
    "SolveReport",
    "TOLERANCE_PROFILES",
    "profile_config",
    "apply_schur",
    "schur_rhs",
    "apply_simple_inverse",
    "solve_schur",
    "permeability",
]

PRECONDITIONERS = ("uzawa", "simple")

# the two tolerance regimes used throughout the experiments, plus the
# tighter regime that produces reference permeabilities for error curves
TOLERANCE_PROFILES = {
    "paper3d": dict(
        eps_S=1e-3, outer_norm="preconditioned", eps_A=1e-6, eps_Shat=1e-6
    ),
    "paper2d": dict(
        eps_S=1e-3, outer_norm="unpreconditioned", eps_A=1e-13, eps_Shat=1e-13
    ),
    "reference": dict(
        eps_S=1e-5, outer_norm="unpreconditioned", eps_A=1e-8, eps_Shat=1e-8
    ),
}


@dataclass(frozen=True)
class SchurConfig:
    """Settings for one Schur complement solve."""

    prec: str
    eps_S: float = 1e-3
    outer_norm: str = "preconditioned"
    eps_A: float = 1e-6
    eps_Shat: float = 1e-6
    flow_dir: Optional[int] = None
    k_ref: Optional[float] = None
    max_iter: int = 1000

    def __post_init__(self):
        if self.prec not in PRECONDITIONERS:
            raise ValueError(
                f"prec must be one of {PRECONDITIONERS}, got {self.prec!r}"
            )
        if self.outer_norm not in NORM_KINDS:
            raise ValueError(
                f"outer_norm must be one of {NORM_KINDS}, got {self.outer_norm!r}"
            )
        for name in ("eps_S", "eps_A", "eps_Shat"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.eps_A > self.eps_S:
            warnings.warn(
                f"eps_A ({self.eps_A}) exceeds eps_S ({self.eps_S}); inner solves "
                "looser than the outer tolerance can stall outer convergence",
                stacklevel=2,
            )
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def profile_config(profile: str, prec: str, **overrides) -> SchurConfig:
    """Build a SchurConfig from a named tolerance profile."""
    try:
        base = dict(TOLERANCE_PROFILES[profile])
    except KeyError:
        raise ValueError(
            f"unknown tolerance profile {profile!r}; "
            f"choose from {sorted(TOLERANCE_PROFILES)}"
        ) from None
    base.update(overrides)
    return SchurConfig(prec=prec, **base)


@dataclass
class SolveReport:
    """Everything one solve produced.

    ``perm_history`` has ``iters_outer + 1`` entries; entry 0 belongs to
    the force-only velocity (zero initial pressure) and the final entry
    reflects the refreshed velocity, so it equals ``k_value``.
    """

    pressure: np.ndarray
    velocity: np.ndarray
    k_value: float
    iters_outer: int
    converged: bool
    res_prec: np.ndarray
    res_unprec: np.ndarray
    perm_history: np.ndarray
    perm_err_history: Optional[np.ndarray]
    cond_est_outer: Optional[float]
    lambda_min_est: Optional[float]
    lambda_max_est: Optional[float]
    inner_iter_totals: dict
    wall_time: float
    config: SchurConfig = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        out = {
            "converged": bool(self.converged),
            "k_value": float(self.k_value),
            "iters_outer": int(self.iters_outer),
            "cond_est_outer": _none_or_float(self.cond_est_outer),
            "lambda_min_est": _none_or_float(self.lambda_min_est),
            "lambda_max_est": _none_or_float(self.lambda_max_est),
            "wall_time": float(self.wall_time),
            "inner_iter_totals": {k: int(v) for k, v in self.inner_iter_totals.items()},
            "res_prec": [float(v) for v in self.res_prec],
            "res_unprec": [float(v) for v in self.res_unprec],
            "perm_history": [float(v) for v in self.perm_history],
            "perm_err_history": (
                None
                if self.perm_err_history is None
                else [float(v) for v in self.perm_err_history]
            ),
        }
        if self.config is not None:
            out["config"] = dataclasses.asdict(self.config)
        return out

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
            handle.write("\n")

    def write_csv(self, path) -> None:
        """One row per outer iteration: iter, res_prec, res_unprec, k, e_k."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("iter,res_prec,res_unprec,k,e_k\n")
            for i in range(len(self.perm_history)):
                e_k = (
                    f"{self.perm_err_history[i]:.17g}"
                    if self.perm_err_history is not None
                    else ""
                )
                handle.write(
                    f"{i},{self.res_prec[i]:.17g},{self.res_unprec[i]:.17g},"
                    f"{self.perm_history[i]:.17g},{e_k}\n"
                )


def _none_or_float(value):
    return None if value is None else float(value)


def _inner_solve(sys: StaggeredSystem, rhs, eps: float, x0=None, simple_diag=None):
    """Jacobi-preconditioned inner CG, stopping on the preconditioned residual.

    Solves A x = rhs, or with ``simple_diag`` (the diagonal of
    B diag(A)^-1 B^T) that operator on the zero-mean subspace. Returns
    (x, iterations) and raises RuntimeError when the solve does not converge.
    """
    if simple_diag is None:
        op, diag, what = sys.apply_laplacian, sys.laplacian_diag, "inner velocity solve"
    else:
        inv_diag = 1.0 / sys.laplacian_diag

        def op(p):
            return sys.apply_divergence(sys.apply_gradient(p) * inv_diag)

        diag, what = simple_diag, "inner pressure preconditioner solve"
    res = pcg(
        op,
        jacobi_prec(diag),
        rhs,
        x0,
        PcgConfig(
            tol=eps,
            norm_kind="preconditioned",
            max_iter=max(1000, 2 * len(diag)),
            project_nullspace=simple_diag is not None,
            record_history=False,
        ),
    )
    if not res.converged:
        raise RuntimeError(
            f"{what} did not converge: relative residual "
            f"{res.res_prec[-1] / res.res_prec[0]:.3e} after {res.iterations} iterations"
        )
    return res.solution, res.iterations


def apply_schur(sys: StaggeredSystem, p, eps_A: float):
    """Apply S = B A^-1 B^T. Returns (S p, w) with w = A^-1 B^T p."""
    w, _ = _inner_solve(sys, sys.apply_gradient(p), eps_A)
    return sys.apply_divergence(w), w


def schur_rhs(sys: StaggeredSystem, eps_A: float):
    """Right-hand side g = B A^-1 f. Returns (g, u_f) with u_f = A^-1 f."""
    u_f, _ = _inner_solve(sys, sys.force, eps_A)
    return sys.apply_divergence(u_f), u_f


def apply_simple_inverse(sys: StaggeredSystem, r, eps_Shat: float):
    """Solve (B diag(A)^-1 B^T) z = r on the zero-mean subspace."""
    simple_diag = sys.divergence_weighted_diagonal(1.0 / sys.laplacian_diag)
    z, _ = _inner_solve(sys, r, eps_Shat, simple_diag=simple_diag)
    return z


def permeability(sys: StaggeredSystem, u) -> float:
    """Volume-averaged velocity along the flow axis for a unit domain.

    Midpoint quadrature: every face value represents one voxel volume
    h^dim, eliminated faces contribute zero, and the domain volume is 1.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.m_u,):
        raise ValueError(
            f"velocity vector length mismatch: expected {sys.m_u}, got {u.shape}"
        )
    lo = sys.dof_map.axis_offsets[sys.flow_dir]
    count = sys.dof_map.axis_counts[sys.flow_dir]
    return sys.h**sys.grid.dim * float(u[lo : lo + count].sum())


def solve_schur(sys: StaggeredSystem, cfg: SchurConfig) -> SolveReport:
    """Run the outer preconditioned CG on the pressure system.

    The velocity iterate is maintained from the apply byproducts, the
    permeability is recorded every outer iteration, and the returned
    velocity satisfies A u = f - B^T p to the inner tolerance.
    """
    if cfg.flow_dir is not None:
        requested = axis_index(cfg.flow_dir, sys.grid.dim)
        if requested != sys.flow_dir:
            raise ValueError(
                f"config flow_dir {requested} does not match the assembled "
                f"system's flow_dir {sys.flow_dir}; reassemble the system"
            )
    t_start = time.perf_counter()
    inner_totals = {"velocity": 0, "preconditioner": 0}

    g, u_f = schur_rhs(sys, cfg.eps_A)

    last_w = [None]

    def outer_op(p):
        w, iters = _inner_solve(sys, sys.apply_gradient(p), cfg.eps_A)
        inner_totals["velocity"] += iters
        last_w[0] = w
        return sys.apply_divergence(w)

    if cfg.prec == "simple":
        simple_diag = sys.divergence_weighted_diagonal(1.0 / sys.laplacian_diag)

        def outer_prec(r):
            z, iters = _inner_solve(sys, r, cfg.eps_Shat, simple_diag=simple_diag)
            inner_totals["preconditioner"] += iters
            return z
    else:
        outer_prec = None

    u = u_f.copy()
    perm_history = [permeability(sys, u)]

    def on_step(_k, alpha, _x):
        u[:] += alpha * last_w[0]
        perm_history.append(permeability(sys, u))

    outer = pcg(
        outer_op,
        outer_prec,
        g,
        None,
        PcgConfig(
            tol=cfg.eps_S,
            norm_kind=cfg.outer_norm,
            max_iter=cfg.max_iter,
            project_nullspace=True,
        ),
        step_hook=on_step,
    )

    pressure = outer.solution
    refresh_rhs = sys.force - sys.apply_gradient(pressure)
    velocity, refresh_iters = _inner_solve(sys, refresh_rhs, cfg.eps_A, x0=u)
    inner_totals["velocity"] += refresh_iters
    k_value = permeability(sys, velocity)
    perm_history[-1] = k_value

    if outer.alpha.size >= 2:
        lo, hi, cond = lanczos_condition_estimate(outer.alpha, outer.beta)
    else:
        lo = hi = cond = None

    perm_arr = np.asarray(perm_history)
    perm_err = None
    if cfg.k_ref is not None:
        perm_err = np.abs(perm_arr - cfg.k_ref) / cfg.k_ref

    return SolveReport(
        pressure=pressure,
        velocity=velocity,
        k_value=k_value,
        iters_outer=outer.iterations,
        converged=outer.converged,
        res_prec=outer.res_prec,
        res_unprec=outer.res_unprec,
        perm_history=perm_arr,
        perm_err_history=perm_err,
        cond_est_outer=cond,
        lambda_min_est=lo,
        lambda_max_est=hi,
        inner_iter_totals=inner_totals,
        wall_time=time.perf_counter() - t_start,
        config=cfg,
    )
