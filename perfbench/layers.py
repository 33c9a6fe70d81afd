"""Isolated per-layer timings on one workload's assembled system.

Each function is called through the package's public API with vectors
drawn from the workload seed, and timed in batches so that a sample is
long enough for ``perf_counter`` to resolve. Nothing here is traced.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from voxstokes import apply_schur, apply_simple_inverse, profile_config

BATCH_SECONDS = 0.005


def per_call_seconds(fn, samples: int) -> list:
    """``samples`` timings of ``fn()``, each the mean over one batch."""
    start = perf_counter()
    fn()  # warm-up, also sizes the batch
    once = perf_counter() - start
    batch = max(1, int(BATCH_SECONDS / max(once, 1e-9)))
    out = []
    for _ in range(samples):
        start = perf_counter()
        for _ in range(batch):
            fn()
        out.append((perf_counter() - start) / batch)
    return out


def measure(system, profile: str, seed: int) -> dict:
    """Per-call samples in seconds, keyed by per-layer metric name."""
    rng = np.random.default_rng([seed, 1])
    u = rng.standard_normal(system.m_u)
    p = rng.standard_normal(system.m_p)
    p -= p.mean()
    inv_diag = 1.0 / system.laplacian_diag
    cfg = profile_config(profile, "simple")
    return {
        "operators.matrix_A_ms": per_call_seconds(system.matrix_laplacian, 7),
        "operators.matrix_B_ms": per_call_seconds(system.matrix_divergence, 7),
        "operators.apply_A_us": per_call_seconds(lambda: system.apply_laplacian(u), 25),
        "operators.apply_B_us": per_call_seconds(lambda: system.apply_divergence(u), 25),
        "operators.apply_Bt_us": per_call_seconds(lambda: system.apply_gradient(p), 25),
        "operators.apply_Shat_us": per_call_seconds(
            lambda: system.apply_divergence(system.apply_gradient(p) * inv_diag), 25
        ),
        "schur.apply_schur_ms": per_call_seconds(
            lambda: apply_schur(system, p, cfg.eps_A), 5
        ),
        "schur.apply_simple_inverse_ms": per_call_seconds(
            lambda: apply_simple_inverse(system, p, cfg.eps_Shat), 5
        ),
    }
