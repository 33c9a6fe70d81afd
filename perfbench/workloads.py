"""The benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one caller: a pass calls into the
package, waits for the result, and only then makes the next call. The
program sees nothing but the ``PackingParams`` built from the seed.

A pass returns its timings and the operations it attempted (solves,
sweep members, spectra). ``check`` then inspects those outputs outside
the timed region and returns the problems found per operation, the exact
counts of the pass (which must repeat bit for bit at a fixed seed) and a
few measured extras.
"""
from __future__ import annotations

import contextlib
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from voxstokes import PackingParams, analyze_spectrum, profile_config, solve_schur
from voxstokes import cli
from voxstokes.cli import SweepSpec, read_csv_rows, run_sweep
from tracing import patched

PRECS = ("uzawa", "simple")


@dataclass
class Op:
    """One attempted operation: its name, its output, or the error it raised."""

    name: str
    output: object = None
    error: str = None


@dataclass
class PassResult:
    times: dict
    ops: list


@dataclass
class Checked:
    problems: list = field(default_factory=list)  # (op index, message)
    record: dict = field(default_factory=dict)  # exact counts and k
    extras: dict = field(default_factory=dict)  # measured, not exact


def error_text(exc) -> str:
    return f"{type(exc).__name__}: " + " ".join(str(exc).split())


def no_span(_name):
    return contextlib.nullcontext()


def solve_record(report) -> dict:
    return {
        "outer": int(report.iters_outer),
        "inner_velocity": int(report.inner_iter_totals["velocity"]),
        "inner_simple": int(report.inner_iter_totals["preconditioner"]),
        "k": f"{report.k_value:.17g}",
    }


def solve_problems(system, cfg, report) -> list:
    """Convergence and the true momentum residual, from the public applies."""
    problems = []
    if not report.converged:
        problems.append(f"{cfg.prec} solve did not converge")
    force = system.force
    residual = (
        system.apply_laplacian(report.velocity)
        + system.apply_gradient(report.pressure)
        - force
    )
    rel = float(np.linalg.norm(residual) / np.linalg.norm(force))
    if not rel <= 100.0 * cfg.eps_A:
        problems.append(
            f"{cfg.prec} momentum residual {rel:.3e} exceeds 100*eps_A={100 * cfg.eps_A:g}"
        )
    return problems


def k_agreement_problem(k_uzawa, k_simple, eps_S):
    gap = abs(k_uzawa - k_simple) / abs(k_simple)
    if not gap <= eps_S:
        return f"uzawa and simple k differ by {gap:.3e} > eps_S={eps_S:g}"
    return None


def add_outer_iter_time(extras, prec, report):
    """Seconds per outer iteration, from the report's own wall time."""
    extras.setdefault(f"schur.outer_iter_ms.{prec}", []).append(
        report.wall_time / max(report.iters_outer, 1)
    )


class Workload:
    """Base: a name, the packing built from a seed, and the tolerance profile."""

    name = ""
    profile = "paper2d"

    def packing(self, seed: int, tiny: bool) -> PackingParams:
        raise NotImplementedError

    def prepare(self, params, system, root):
        """What one pass runs on, from its packing and assembled system."""
        return system

    def run_pass(self, state, span=no_span) -> PassResult:
        raise NotImplementedError

    def check(self, state, result: PassResult) -> Checked:
        raise NotImplementedError

    def cleanup(self, state) -> None:
        pass


class SolveWorkload(Workload):
    """One uzawa and one simple solve of one packing per pass."""

    def __init__(self, name, full, tiny, profile):
        self.name, self._full, self._tiny, self.profile = name, full, tiny, profile

    def packing(self, seed, tiny):
        return PackingParams(seed=seed, **(self._tiny if tiny else self._full))

    def run_pass(self, system, span=no_span):
        times, ops = {}, []
        for prec in PRECS:
            cfg = profile_config(self.profile, prec)
            start = perf_counter()
            try:
                with span("schur.solve_schur"):
                    report = solve_schur(system, cfg)
            except Exception as exc:
                ops.append(Op(prec, error=error_text(exc)))
                continue
            times[f"solve_{prec}_s"] = perf_counter() - start
            ops.append(Op(prec, (cfg, report)))
        times["pass_s"] = sum(times.values())
        return PassResult(times, ops)

    def check(self, system, result):
        out = Checked()
        k = {}
        for i, op in enumerate(result.ops):
            if op.error:
                continue
            cfg, report = op.output
            out.problems += [(i, p) for p in solve_problems(system, cfg, report)]
            out.record[op.name] = solve_record(report)
            add_outer_iter_time(out.extras, op.name, report)
            k[op.name] = (i, report.k_value, cfg.eps_S)
        if len(k) == 2:
            i, k_simple, eps_S = k["simple"]
            problem = k_agreement_problem(k["uzawa"][1], k_simple, eps_S)
            if problem:
                out.problems.append((i, problem))
        return out


class SweepWorkload(Workload):
    """One ``run_sweep`` call (jobs=1) over three n_avg values per pass.

    ``run_sweep`` computes its reports inside ``voxstokes.cli``; the pass
    keeps them by wrapping the two names cli imports (no timing), so the
    residual and agreement checks see every solve of the sweep.
    """

    name = "sweep2d"
    values = (4, 8, 12)

    def packing(self, seed, tiny):
        if tiny:
            return PackingParams(N=2, n_c=14, n_avg=4, n_min=2, seed=seed)
        # 3 x 3 cells rather than 2 x 2: with four obstacles the pass time
        # swung by 30% between seeds, with nine by 5%.
        return PackingParams(N=3, n_c=33, n_avg=4, n_min=2, seed=seed)

    def prepare(self, params, system, root):
        out_dir = os.path.join(root, ".bench_out", f"{self.name}-{os.getpid()}")
        return SweepSpec(base=params, values=self.values, profile=self.profile,
                         out_dir=out_dir)

    def run_pass(self, spec, span=no_span):
        members = {}  # n_avg -> [(system, cfg, report)]
        current = [None]
        generate, solve = cli.generate_packing, cli.solve_schur

        def keep_member(params):
            current[0] = params.n_avg
            members[params.n_avg] = []
            return generate(params)

        def keep_report(system, cfg):
            report = solve(system, cfg)
            members[current[0]].append((system, cfg, report))
            return report

        with patched(cli, "generate_packing", keep_member), \
                patched(cli, "solve_schur", keep_report):
            start = perf_counter()
            try:
                with span("cli.run_sweep"):
                    paths = run_sweep(spec, jobs=1)
                error = None
            except Exception as exc:
                error = error_text(exc)
            elapsed = perf_counter() - start
        rows = [] if error else read_csv_rows(paths["summary"])
        ops = []
        for value in spec.values:
            output = {
                "solves": members.get(value, []),
                "rows": [r for r in rows if int(r["n_avg"]) == value],
            }
            ops.append(Op(f"navg{value}", output, error))
        return PassResult({"sweep_s": elapsed, "pass_s": elapsed}, ops)

    def check(self, spec, result):
        out = Checked()
        e_final = []
        for i, op in enumerate(result.ops):
            if op.error:
                continue
            rows = op.output["rows"]
            if len(rows) != len(PRECS):
                out.problems.append((i, f"{len(rows)} summary rows, expected {len(PRECS)}"))
            for row in rows:
                if row["status"] != "ok":
                    out.problems.append((i, f"{row['prec']} status {row['status']!r}"))
                elif row["e_final"]:
                    e_final.append(float(row["e_final"]))
            member, k = {}, {}
            for system, cfg, report in op.output["solves"]:
                label = "reference" if cfg.k_ref is None else cfg.prec
                out.problems += [(i, p) for p in solve_problems(system, cfg, report)]
                member[label] = solve_record(report)
                if label != "reference":
                    add_outer_iter_time(out.extras, label, report)
                    k[label] = (report.k_value, cfg.eps_S)
            if len(k) == 2:
                problem = k_agreement_problem(k["uzawa"][0], *k["simple"])
                if problem:
                    out.problems.append((i, problem))
            out.record[op.name] = member
        if e_final:
            out.extras["k_rel_err"] = [max(e_final)]
        return out

    def cleanup(self, spec):
        shutil.rmtree(spec.out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(spec.out_dir))  # only when no other run uses it


class SpectrumWorkload(Workload):
    """The dense route: ``analyze_spectrum`` with prec none and simple."""

    name = "spectrum2d"
    spectra = ("none", "simple")

    def packing(self, seed, tiny):
        if tiny:
            return PackingParams(N=2, n_c=10, n_avg=4, n_min=2, seed=seed)
        return PackingParams(N=5, n_c=16, n_avg=4, n_min=2, seed=seed)

    def prepare(self, params, system, root):
        return system.grid

    def run_pass(self, grid, span=no_span):
        times, ops = {}, []
        for prec in self.spectra:
            start = perf_counter()
            try:
                with span("spectra.analyze_spectrum"):
                    report = analyze_spectrum(grid, prec)
            except Exception as exc:
                ops.append(Op(prec, error=error_text(exc)))
                continue
            times[f"spectrum_{prec}_s"] = perf_counter() - start
            ops.append(Op(prec, report))
        times["spectrum_s"] = times["pass_s"] = sum(times.values())
        return PassResult(times, ops)

    def check(self, grid, result):
        out = Checked()
        for i, op in enumerate(result.ops):
            if op.error:
                continue
            report = op.output
            w, tau = report.eigenvalues, report.tau_null
            if report.n_zero != 1:
                out.problems.append((i, f"{op.name}: n_zero = {report.n_zero}"))
            if w[0] < -tau:
                out.problems.append((i, f"{op.name}: eigenvalue {w[0]:.3e} < 0"))
            # S itself has its spectrum in [0, 1]; the simple pencil
            # S x = lambda B diag(A)^-1 B^T x is only nonnegative.
            if op.name == "none" and w[-1] > 1.0 + tau:
                out.problems.append((i, f"{op.name}: eigenvalue {w[-1]:.17g} > 1"))
            out.record[op.name] = {"n_zero": int(report.n_zero), "n_ev": int(report.n_ev)}
        return out


WORKLOADS = {
    wl.name: wl
    for wl in (
        SolveWorkload(
            "pore2d",
            full=dict(N=7, n_c=50, n_avg=4, n_min=2),
            tiny=dict(N=2, n_c=10, n_avg=4, n_min=2),
            profile="paper2d",
        ),
        SolveWorkload(
            "pore3d",
            full=dict(N=3, n_c=12, n_avg=4, n_min=2, dim=3),
            tiny=dict(N=2, n_c=6, n_avg=4, n_min=2, dim=3),
            profile="paper3d",
        ),
        SweepWorkload(),
        SpectrumWorkload(),
    )
}
