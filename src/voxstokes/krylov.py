"""Preconditioned conjugate gradients with dual residual tracking.

The residual convention is r = op(x) - rhs and the iterate update is
x <- x - alpha * d, which is the natural orientation when the operator
application is itself the expensive reduction step of a larger solve.
Both the preconditioned residual norm ||z|| (z = prec(r)) and the plain
norm ||r|| are recorded every step; either can drive the stopping test.

For consistent singular systems (constant nullspace, as with periodic
pressure operators) the projection option removes the mean from the
right-hand side, the initial guess, and every preconditioned residual,
so the iteration converges to the zero-mean solution.

Extreme eigenvalues of the operator (restricted to the excited subspace)
come for free from the CG coefficients through the classical tridiagonal
connection; see lanczos_condition_estimate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "NORM_KINDS",
    "PcgConfig",
    "PcgResult",
    "pcg",
    "lanczos_condition_estimate",
    "jacobi_prec",
]

NORM_KINDS = ("preconditioned", "unpreconditioned")


@dataclass(frozen=True)
class PcgConfig:
    tol: float
    norm_kind: str = "preconditioned"
    max_iter: int = 10000
    project_nullspace: bool = False
    record_history: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(
                f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}"
            )


@dataclass(frozen=True)
class PcgResult:
    """Outcome of one pcg run.

    res_prec and res_unprec always have length iterations + 1 (entry 0 is
    the initial residual). alpha and beta are kept only when the config
    asked for history; they feed lanczos_condition_estimate.
    """

    solution: np.ndarray
    iterations: int
    alpha: np.ndarray
    beta: np.ndarray
    res_prec: np.ndarray
    res_unprec: np.ndarray
    converged: bool


def pcg(op, prec, rhs, x0=None, cfg: PcgConfig = None, step_hook=None) -> PcgResult:
    """Run preconditioned conjugate gradients.

    Parameters
    ----------
    op, prec : callables mapping a vector to a vector
        op must be symmetric positive (semi)definite on the working
        subspace; prec is the inverse action of the preconditioner and
        may be None for the identity.
    rhs : ndarray
    x0 : ndarray or None
        Initial guess, zeros when None.
    cfg : PcgConfig
    step_hook : callable(iteration, alpha, x) or None
        Invoked right after each iterate update, before the convergence
        test. The most recent op call was op(d) for the direction that
        produced alpha, which lets callers maintain derived iterates.

    Raises
    ------
    RuntimeError
        On nonpositive curvature (operator or preconditioner not SPD on
        the subspace) and on non-finite residuals.
    """
    if cfg is None:
        raise TypeError("cfg is required")
    rhs = np.array(rhs, dtype=float)
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    if x.shape != rhs.shape:
        raise ValueError(
            f"initial guess length mismatch: expected {rhs.shape}, got {x.shape}"
        )
    if prec is None:
        prec = lambda v: v

    if cfg.project_nullspace:
        rhs = rhs - rhs.mean()
        x = x - x.mean()

    use_prec_norm = cfg.norm_kind == "preconditioned"
    r = op(x) - rhs
    z = prec(r)
    if cfg.project_nullspace:
        z = z - z.mean()
    res_prec = [float(np.linalg.norm(z))]
    res_unprec = [float(np.linalg.norm(r))]
    ref = res_prec[0] if use_prec_norm else res_unprec[0]
    alphas: list = []
    betas: list = []
    iterations = 0
    converged = ref == 0.0

    if not converged:
        d = z.copy()
        rz = float(r @ z)
        for k in range(cfg.max_iter):
            if rz < 0.0:
                raise RuntimeError(
                    f"preconditioner not SPD on subspace: r'z = {rz:.3e} "
                    f"at iteration {k}"
                )
            if rz == 0.0:
                converged = True
                break
            q = op(d)
            dq = float(d @ q)
            if dq <= 0.0:
                raise RuntimeError(
                    f"operator not SPD on subspace: d'q = {dq:.3e} at iteration {k}"
                )
            alpha = rz / dq
            x -= alpha * d
            r -= alpha * q
            if step_hook is not None:
                step_hook(k, alpha, x)
            z = prec(r)
            if cfg.project_nullspace:
                z = z - z.mean()
            rz_new = float(r @ z)
            beta = rz_new / rz
            rz = rz_new
            norm_z = float(np.linalg.norm(z))
            norm_r = float(np.linalg.norm(r))
            if not (np.isfinite(norm_z) and np.isfinite(norm_r)):
                raise RuntimeError(f"non-finite residual at iteration {k + 1}")
            alphas.append(alpha)
            betas.append(beta)
            res_prec.append(norm_z)
            res_unprec.append(norm_r)
            iterations = k + 1
            current = norm_z if use_prec_norm else norm_r
            if current / ref < cfg.tol:
                converged = True
                break
            d = z + beta * d

    if not cfg.record_history:
        alphas, betas = [], []
    return PcgResult(
        solution=x,
        iterations=iterations,
        alpha=np.asarray(alphas),
        beta=np.asarray(betas),
        res_prec=np.asarray(res_prec),
        res_unprec=np.asarray(res_unprec),
        converged=converged,
    )


def lanczos_condition_estimate(alpha, beta) -> tuple[float, float, float]:
    """Extreme eigenvalue estimates from CG coefficients.

    Builds the symmetric tridiagonal matrix whose entries are
    diag[k] = 1/alpha[k] + beta[k-1]/alpha[k-1] (with beta[-1] = 0) and
    offdiag[k] = sqrt(beta[k])/alpha[k], then returns its smallest and
    largest eigenvalues and their ratio. When the solve ran on a
    consistent singular system with projection, the estimate targets the
    nonzero spectrum because the nullspace is never excited.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.size < 2:
        raise ValueError(f"need at least 2 recorded CG steps, got {alpha.size}")
    if beta.size < alpha.size - 1:
        raise ValueError("beta history shorter than alpha history")
    diag = 1.0 / alpha + np.concatenate(([0.0], beta[: alpha.size - 1] / alpha[:-1]))
    off = np.sqrt(np.maximum(beta[: alpha.size - 1], 0.0)) / alpha[:-1]
    eigs = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    lo, hi = float(eigs[0]), float(eigs[-1])
    return lo, hi, hi / lo


def jacobi_prec(diag):
    """Componentwise division by a positive diagonal."""
    diag = np.asarray(diag, dtype=float)
    if np.any(diag <= 0):
        raise ValueError("nonpositive diagonal entry in jacobi preconditioner")
    inv = 1.0 / diag
    return lambda r: r * inv

