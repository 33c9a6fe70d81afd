"""Command line driver: geometry generation, stats, solves, spectra, sweeps.

Every subcommand writes machine-readable artifacts (JSON and CSV with a
header row, floats at 17 significant digits) so downstream plotting is a
one-liner. Operational failures exit with code 1 and a single line
starting with ``error:`` on stderr.

The ``time`` column in sweep summaries is wall-clock and therefore the
one column excluded from the byte-identical re-run guarantee; all other
numeric content is deterministic for fixed flags and seeds.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    PackingParams,
    generate_packing,
    read_grid,
    stats,
    write_grid,
)
from .krylov import NORM_KINDS
from .operators import assemble, axis_index
from .schur import (
    PRECONDITIONERS,
    SchurConfig,
    TOLERANCE_PROFILES,
    profile_config,
    solve_schur,
)
from .spectra import DENSE_CAP, analyze_spectrum, nev_formula_check

__all__ = ["main", "SweepSpec", "run_sweep", "read_csv_rows", "THRESHOLDS"]

THRESHOLDS = (1e-2, 5e-3, 1e-3)
_NORM_FLAG = dict(zip(("prec", "unprec"), NORM_KINDS))

SUMMARY_COLUMNS = (
    "n_avg", "stv_pct", "prec", "iters", "cond_est",
    "k_final", "e_final", "time", "status",
)
THRESHOLD_COLUMNS = (
    "n_avg", "threshold", "prec", "norm_kind", "iter", "e_k", "k_at_threshold",
)
CORRELATION_COLUMNS = ("n_avg", "stv_pct", "cond_S", "cond_precond")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv_rows(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def read_csv_rows(path):
    """Read back a CSV written by this tool: list of dicts keyed by header."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


# --------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: vary n_avg over a packing family."""

    base: PackingParams
    values: tuple
    precs: tuple = PRECONDITIONERS
    profile: str = "paper2d"
    out_dir: str = "."
    flow_dir: int = 0

    def __post_init__(self):
        if not self.values:
            raise ValueError("sweep needs at least one n_avg value")
        if not self.precs:
            raise ValueError("sweep needs at least one preconditioner")
        for prec in self.precs:
            if prec not in PRECONDITIONERS:
                raise ValueError(f"unknown preconditioner {prec!r}")
        if self.profile not in TOLERANCE_PROFILES:
            raise ValueError(f"unknown tolerance profile {self.profile!r}")
        for value in self.values:
            replace(self.base, n_avg=int(value))  # validates the derived config


def _threshold_rows(value, prec, cfg, report):
    res = (
        report.res_unprec
        if cfg.outer_norm == "unpreconditioned"
        else report.res_prec
    )
    rows = []
    for threshold in THRESHOLDS:
        row = {
            "n_avg": value,
            "threshold": threshold,
            "prec": prec,
            "norm_kind": cfg.outer_norm,
            "iter": None,
            "e_k": None,
            "k_at_threshold": None,
        }
        if res[0] > 0:
            hit = np.flatnonzero(res <= threshold * res[0])
            if hit.size:
                i = int(hit[0])
                row["iter"] = i
                row["k_at_threshold"] = float(report.perm_history[i])
                if report.perm_err_history is not None:
                    row["e_k"] = float(report.perm_err_history[i])
        rows.append(row)
    return rows


def _error_status(exc) -> str:
    return "error: " + " ".join(str(exc).split())


def _failed_member(value, precs, exc, stv_pct=None):
    """The rows of a member that failed before any solve could report."""
    return {
        "summary": [{"n_avg": value, "prec": prec, "status": _error_status(exc)}
                    for prec in precs],
        "thresholds": [],
        "correlation": {"n_avg": value, "stv_pct": stv_pct,
                        "cond_S": None, "cond_precond": None},
    }


def _sweep_value_worker(payload):
    """Run one n_avg member: reference solve, then each preconditioner."""
    params, value, precs, profile, flow_dir, out_dir = payload
    summary, thresholds = [], []
    correlation = {"n_avg": value, "stv_pct": None,
                   "cond_S": None, "cond_precond": None}
    try:
        grid = generate_packing(params)
        geo = stats(grid)
        correlation["stv_pct"] = geo.stv_pct
        system = assemble(grid, flow_dir)
        ref = solve_schur(system, profile_config("reference", "simple"))
        ref.write_json(os.path.join(out_dir, f"navg{value}_reference.json"))
        k_ref = ref.k_value
    except Exception as exc:  # geometry or reference failure poisons all rows
        return _failed_member(value, precs, exc, correlation["stv_pct"])

    for prec in precs:
        row = {
            "n_avg": value,
            "stv_pct": geo.stv_pct,
            "prec": prec,
            "iters": None,
            "cond_est": None,
            "k_final": None,
            "e_final": None,
            "time": None,
            "status": "ok",
        }
        try:
            cfg = profile_config(profile, prec, k_ref=k_ref)
            report = solve_schur(system, cfg)
            base = os.path.join(out_dir, f"navg{value}_{prec}")
            report.write_json(base + ".json")
            report.write_csv(base + ".csv")
            row.update(
                iters=report.iters_outer,
                cond_est=report.cond_est_outer,
                k_final=report.k_value,
                e_final=float(report.perm_err_history[-1]),
                time=report.wall_time,
            )
            if not report.converged:
                row["status"] = "not converged within max_iter"
            thresholds.extend(_threshold_rows(value, prec, cfg, report))
            if prec == "uzawa":
                correlation["cond_S"] = report.cond_est_outer
            else:
                correlation["cond_precond"] = report.cond_est_outer
        except Exception as exc:
            row["status"] = _error_status(exc)
        summary.append(row)
    return {"summary": summary, "thresholds": thresholds,
            "correlation": correlation}


def run_sweep(spec: SweepSpec, jobs: int = None) -> dict:
    """Run the sweep and write summary.csv, thresholds.csv, correlation.csv.

    Members run in a process pool (``jobs`` workers, default one per
    core); rows are assembled in deterministic config order afterward. A
    member whose worker process dies gets error rows like any other
    failed member, and members that finished keep theirs. Returns the
    paths of the three CSVs.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    payloads = [
        (replace(spec.base, n_avg=int(v)), int(v), tuple(spec.precs),
         spec.profile, spec.flow_dir, spec.out_dir)
        for v in spec.values
    ]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(int(jobs), len(payloads)))
    if jobs == 1:
        results = [_sweep_value_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_value_worker, p) for p in payloads]
            results = []
            for future, (_, value, precs, *_rest) in zip(futures, payloads):
                try:
                    results.append(future.result())
                except Exception as exc:  # the worker process died
                    results.append(_failed_member(value, precs, exc))

    summary, thresholds, correlation = [], [], []
    for res in results:
        summary.extend(res["summary"])
        thresholds.extend(res["thresholds"])
        correlation.append(res["correlation"])

    paths = {
        "summary": os.path.join(spec.out_dir, "summary.csv"),
        "thresholds": os.path.join(spec.out_dir, "thresholds.csv"),
        "correlation": os.path.join(spec.out_dir, "correlation.csv"),
    }
    write_csv_rows(paths["summary"], SUMMARY_COLUMNS, summary)
    write_csv_rows(paths["thresholds"], THRESHOLD_COLUMNS, thresholds)
    write_csv_rows(paths["correlation"], CORRELATION_COLUMNS, correlation)
    return paths


# ----------------------------------------------------------- subcommands


def _cmd_gen(args) -> int:
    params = PackingParams(
        N=args.N, n_c=args.nc, n_avg=args.navg, n_min=args.nmin,
        seed=args.seed, dim=args.dim,
    )
    grid = generate_packing(params)
    write_grid(grid, args.out)
    return 0


def _cmd_stats(args) -> int:
    grid = read_grid(args.geometry)
    geo = stats(grid)
    text = json.dumps(dataclasses.asdict(geo), indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")
    return 0


def _solve_config(args) -> SchurConfig:
    base = dict(TOLERANCE_PROFILES[args.profile]) if args.profile else {}
    if args.eps_s is not None:
        base["eps_S"] = args.eps_s
    if args.eps_a is not None:
        base["eps_A"] = args.eps_a
    if args.eps_shat is not None:
        base["eps_Shat"] = args.eps_shat
    if args.norm is not None:
        base["outer_norm"] = _NORM_FLAG[args.norm]
    return SchurConfig(
        prec=args.prec, k_ref=args.k_ref, max_iter=args.max_iter, **base
    )


def _cmd_solve(args) -> int:
    grid = read_grid(args.geometry)
    system = assemble(grid, axis_index(args.flow_dir, grid.dim))
    report = solve_schur(system, _solve_config(args))
    print(json.dumps(report.to_json_dict(), indent=2))
    if args.out:
        report.write_json(args.out + ".json")
        report.write_csv(args.out + ".csv")
    return 0


def _cmd_spectrum(args) -> int:
    grid = read_grid(args.geometry)
    report = analyze_spectrum(
        grid, prec=args.prec, eps_A=args.eps_a,
        tau_null=args.tau_null, tau_unit=args.tau_unit, cap=args.cap,
    )
    print(json.dumps(report.to_json_dict(), indent=2))
    if args.out:
        report.write_json(args.out + ".json")
        report.write_csv(args.out + ".csv")
    return 0


def _cmd_nev_check(args) -> int:
    configs = [
        PackingParams(N=n, n_c=nc, n_avg=args.navg, n_min=args.nmin, seed=0)
        for n in args.N
        for nc in args.nc
    ]
    rows = nev_formula_check(configs, seeds=args.seeds, cap=args.cap)
    columns = ("N", "n_c", "n_avg", "seed", "v_surf",
               "n_ev_measured", "n_ev_formula", "match")
    if args.out:
        write_csv_rows(args.out, columns, rows)
    writer = csv.writer(sys.stdout)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    matches = sum(1 for row in rows if row["match"])
    print(f"match {matches}/{len(rows)}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    precs = PRECONDITIONERS if args.prec == "both" else (args.prec,)
    spec = SweepSpec(
        base=PackingParams(
            N=args.N, n_c=args.nc, n_avg=args.navg[0], n_min=args.nmin,
            seed=args.seed,
        ),
        values=tuple(args.navg),
        precs=precs,
        profile=args.profile,
        out_dir=args.out,
        flow_dir=axis_index(args.flow_dir, 2),
    )
    paths = run_sweep(spec, jobs=args.jobs)
    for name in ("summary", "thresholds", "correlation"):
        print(paths[name])
    return 0


# ----------------------------------------------------------------- parser


def _add_tolerance_flags(parser):
    parser.add_argument("--eps-s", type=float, default=None,
                        help="outer relative residual tolerance")
    parser.add_argument("--eps-a", type=float, default=None,
                        help="inner velocity solve tolerance")
    parser.add_argument("--eps-shat", type=float, default=None,
                        help="inner preconditioner solve tolerance")
    parser.add_argument("--norm", choices=("prec", "unprec"), default=None,
                        help="outer stopping norm")
    parser.add_argument("--profile", choices=sorted(TOLERANCE_PROFILES),
                        default=None, help="named tolerance profile")
    parser.add_argument("--max-iter", type=int, default=1000,
                        help="outer iteration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxstokes",
        description="Stokes flow and permeability in binary voxel geometries "
                    "via the pressure Schur complement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic packing")
    gen.add_argument("--N", type=int, required=True, help="cells per axis")
    gen.add_argument("--nc", type=int, required=True, help="voxels per cell")
    gen.add_argument("--navg", type=int, required=True,
                     help="average gap width in voxels")
    gen.add_argument("--nmin", type=int, required=True,
                     help="minimum gap width in voxels")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dim", type=int, choices=(2, 3), default=2)
    gen.add_argument("-o", "--out", required=True, help="output voxel file")
    gen.set_defaults(func=_cmd_gen)

    st = sub.add_parser("stats", help="geometry statistics as JSON")
    st.add_argument("geometry", help="voxel geometry file")
    st.add_argument("-o", "--out", default=None)
    st.set_defaults(func=_cmd_stats)

    solve = sub.add_parser("solve", help="solve for flow and permeability")
    solve.add_argument("geometry")
    solve.add_argument("--prec", choices=PRECONDITIONERS, default="simple")
    solve.add_argument("--flow-dir", choices=("x", "y", "z"), default="x")
    solve.add_argument("--k-ref", type=float, default=None,
                       help="reference permeability for error curves")
    _add_tolerance_flags(solve)
    solve.add_argument("-o", "--out", default=None,
                       help="basename for report (.json and .csv)")
    solve.set_defaults(func=_cmd_solve)

    spec = sub.add_parser("spectrum", help="dense spectrum of the pressure operator")
    spec.add_argument("geometry")
    spec.add_argument("--prec", choices=("none", "simple"), default="none")
    spec.add_argument("--eps-a", type=float, default=1e-12)
    spec.add_argument("--tau-null", type=float, default=1e-10)
    spec.add_argument("--tau-unit", type=float, default=1e-6)
    spec.add_argument("--cap", type=int, default=DENSE_CAP)
    spec.add_argument("-o", "--out", default=None,
                      help="basename for report (.json and .csv)")
    spec.set_defaults(func=_cmd_spectrum)

    nev = sub.add_parser("nev-check", help="non-unit eigenvalue count vs formula")
    nev.add_argument("--N", type=int, nargs="+", default=[1, 2, 3])
    nev.add_argument("--nc", type=int, nargs="+", default=[8, 12, 16])
    nev.add_argument("--navg", type=int, default=4)
    nev.add_argument("--nmin", type=int, default=2)
    nev.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    nev.add_argument("--cap", type=int, default=DENSE_CAP)
    nev.add_argument("-o", "--out", default=None)
    nev.set_defaults(func=_cmd_nev_check)

    sweep = sub.add_parser("sweep", help="run the n_avg sweep experiment")
    sweep.add_argument("--N", type=int, default=7)
    sweep.add_argument("--nc", type=int, default=50)
    sweep.add_argument("--nmin", type=int, default=2)
    sweep.add_argument("--navg", type=int, nargs="+",
                       default=[4, 6, 8, 10, 12])
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument("--prec", choices=PRECONDITIONERS + ("both",),
                       default="both")
    sweep.add_argument("--profile", choices=sorted(TOLERANCE_PROFILES),
                       default="paper2d")
    sweep.add_argument("--flow-dir", choices=("x", "y"), default="x")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: cpu count)")
    sweep.add_argument("-o", "--out", required=True, help="output directory")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(_error_status(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
