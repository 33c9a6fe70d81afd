#!/usr/bin/env python3
"""Benchmark for voxstokes: one workload per run, outputs checked.

    python3 perfbench/run.py --workload pore2d --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. A run sets the geometry up several
times (``setup_s``), then repeats the workload's pass until ``--seconds``
have gone by (at least one pass), checking the outputs of every pass
outside its timing. ``--trace 1`` adds one traced pass and the isolated
per-layer timings after that loop.

Standard output holds a detail report (indented JSON: environment,
inputs, every metric as median, tail percentile and sample count, exact
counts, failures, span table) and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}`` with the metrics
``BENCHMARK.json`` declares for the chosen trace mode.
"""
import os
import sys

# One BLAS thread: a closed loop with one caller, and steadier timings on
# a shared two-core machine than two threads contending for it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed in blocks, one before the first pass and one after each
# pass, so that its median spans the run instead of one moment of it
SETUP_MIN_REPS = 7
SETUP_BLOCK_SECONDS = 0.3
K_RTOL = 1e-10  # k against the committed record; counts must match exactly
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


UNIT_SUFFIXES = (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MiB"),
                 ("_pct", "%"), ("_iters", "count"), ("calls", "count"),
                 ("iters", "count"))


def unit_of(name: str) -> str:
    """Unit named by a metric's suffix, e.g. ms in schur.outer_iter_ms.uzawa."""
    for part in reversed(name.split(".")):
        for suffix, unit in UNIT_SUFFIXES:
            if part.endswith(suffix):
                return unit
    return "1"


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    values = np.asarray(values, dtype=float)
    out = {"median": float(np.median(values)), "n": int(values.size),
           "tail_pct": None, "tail": None}
    for pct in TAIL_PERCENTILES:
        if values.size * (100.0 - pct) / 100.0 >= 10:
            out["tail_pct"] = pct
            out["tail"] = float(np.percentile(values, pct))
            break
    return out


def record_mismatch(record, reference, k_rtol) -> list:
    """Keys where an op's exact counts (or k beyond k_rtol) differ."""
    diffs = []
    for key, want in reference.items():
        got = record.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            diffs += [f"{key}.{d}" for d in record_mismatch(got, want, k_rtol)]
        elif key == "k" and got is not None:
            if not abs(float(got) - float(want)) <= k_rtol * abs(float(want)):
                diffs.append(f"k {got} != {want}")
        elif got != want:
            diffs.append(f"{key} {got} != {want}")
    return diffs


def schur_counts(record) -> dict:
    """The schur count metrics, summed over a pass's profile solves."""
    def solves(rec):
        for key, value in rec.items():
            if "outer" in value:
                yield key, value
            elif all(isinstance(v, dict) for v in value.values()):
                yield from solves(value)

    out = {}
    for prec in ("uzawa", "simple"):
        out[f"schur.outer_iters.{prec}"] = 0
        out[f"schur.inner_velocity_iters.{prec}"] = 0
    out["schur.inner_simple_iters"] = 0
    for label, rec in solves(record):
        if label == "reference":
            continue
        out[f"schur.outer_iters.{label}"] += rec["outer"]
        out[f"schur.inner_velocity_iters.{label}"] += rec["inner_velocity"]
        out["schur.inner_simple_iters"] += rec["inner_simple"]
    return out


class Run:
    """Attempted and failed operations, and samples, of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.samples = {}

    def add(self, name, values):
        self.samples.setdefault(name, []).extend(values)

    def absorb(self, state, result, label, reference=None, k_rtol=0.0):
        """Check one pass and count its operations; returns the check.

        With a ``reference`` record, an operation whose exact counts (or
        k, beyond ``k_rtol``) differ from it counts as failed.
        """
        checked = self.workload.check(state, result)
        bad = {i: op.error for i, op in enumerate(result.ops) if op.error}
        for i, problem in checked.problems:
            bad.setdefault(i, problem)
        for i, op in enumerate(result.ops):
            if reference is None or i in bad or op.name not in checked.record:
                continue
            diffs = record_mismatch(checked.record[op.name], reference.get(op.name, {}), k_rtol)
            if diffs:
                bad[i] = "counts differ: " + "; ".join(diffs)
        self.attempted += len(result.ops)
        self.failures += [f"{label} {result.ops[i].name}: {msg}" for i, msg in sorted(bad.items())]
        return checked


def pass_seed(seed: int, index: int) -> int:
    """Packing seed of pass ``index``: the seed itself first, then a stream.

    Pass 0 solves the seed's own packing (its counts are the recorded
    ones); later passes draw fresh packings, so a run's medians average
    over geometries instead of repeating one.
    """
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def set_up(params, api, samples):
    """One block of timed set-ups: generate, measure and assemble the geometry."""
    started, reps = perf_counter(), 0
    while reps < SETUP_MIN_REPS or perf_counter() - started < SETUP_BLOCK_SECONDS:
        reps += 1
        t0 = perf_counter()
        grid = api.generate_packing(params)
        t1 = perf_counter()
        api.stats(grid)
        t2 = perf_counter()
        system = api.assemble(grid, 0)
        t3 = perf_counter()
        samples["setup_s"].append(t3 - t0)
        samples["geometry.generate_ms"].append(t1 - t0)
        samples["geometry.stats_ms"].append(t2 - t1)
        samples["operators.assemble_ms"].append(t3 - t2)
    return system


def scaled_median(values, unit):
    return float(np.median(values)) * {"ms": 1e3, "us": 1e6}.get(unit, 1.0)


def run_workload(name, seed, seconds, trace, tiny=False):
    import voxstokes as api

    import envinfo
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    params = workload.packing(seed, tiny)
    expected = json.loads((HERE / "expected_counts.json").read_text())
    recorded = None if tiny else expected.get(str(seed), {}).get(name)

    setup_samples = {"setup_s": [], "geometry.generate_ms": [],
                     "geometry.stats_ms": [], "operators.assemble_ms": []}
    system = set_up(params, api, setup_samples)
    first = workload.prepare(params, system, str(ROOT))
    run = Run(workload)
    per_layer, spans = {}, None
    try:
        started = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() - started < seconds:
            if passes == 0:
                state = first
            else:
                more = workload.packing(pass_seed(seed, passes), tiny)
                state = workload.prepare(more, api.assemble(api.generate_packing(more), 0),
                                         str(ROOT))
            result = workload.run_pass(state)
            checked = run.absorb(state, result, f"pass {passes}",
                                 recorded if passes == 0 else None, K_RTOL)
            if passes == 0:
                counts = checked.record
            for key, value in result.times.items():
                run.add(key, [value])
            for key, values in checked.extras.items():
                run.add(key, values)
            passes += 1
            set_up(params, api, setup_samples)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                result = workload.run_pass(first, tracer.span)
            record = run.absorb(first, result, "traced pass", counts).record
            spans = tracer.summary()
            isolated = layers.measure(system, workload.profile, seed)
            per_layer = layer_metrics(spans, tracer.counters, result, record, run,
                                      {**setup_samples, **isolated})
    finally:
        workload.cleanup(first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {key: summarize(values) for key, values in run.samples.items()
                  if not key.startswith("schur.")}
    end_to_end["setup_s"] = summarize(setup_samples["setup_s"])
    end_to_end["peak_rss_mb"] = summarize([peak_rss_mb])
    failed = len(run.failures)
    end_to_end["failed_frac"] = summarize([failed / run.attempted])
    for key, metric in end_to_end.items():
        metric["unit"] = unit_of(key)

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": bool(tiny),
        "environment": envinfo.collect(str(ROOT), seed),
        "inputs": {"packing": dataclasses.asdict(params), "profile": workload.profile,
                   "m_u": system.m_u, "m_p": system.m_p,
                   "pass_seeds": [pass_seed(seed, i) for i in range(passes)]},
        "passes": passes,
        "attempted": run.attempted,
        "failed": failed,
        "failures": run.failures,
        "counts": counts,
        "counts_checked_against_record": recorded is not None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": spans,
    }


def layer_metrics(spans, counters, traced, record, run, timed):
    """Every per-layer metric this workload gives, with its unit."""
    out = {}
    for name, values in timed.items():
        if name != "setup_s":
            out[name] = scaled_median(values, unit_of(name))
    # calls are 0 where a layer does not run; self times exist only where it does
    for name in ("operators.apply_A", "operators.apply_B", "operators.apply_Bt",
                 "krylov.pcg"):
        out[f"{name}.calls"] = spans.get(name, {}).get("calls", 0)
    out["krylov.pcg.iters"] = counters["krylov.pcg.iters"]
    for name in ("operators.apply_A", "operators.apply_B", "operators.apply_Bt",
                 "krylov.pcg", "schur.solve_schur", "cli.run_sweep"):
        if name in spans:
            out[f"{name}.self_s"] = spans[name]["self_s"]
    for name in ("spectra.dense_schur", "spectra.dense_simple", "spectra.eig_sym"):
        if name in spans:
            out[f"{name}_ms"] = spans[name]["median_ms"]
    out.update(schur_counts(record))
    for name, values in run.samples.items():
        if name.startswith("schur.outer_iter_ms."):
            out[name] = scaled_median(values, "ms")
    untraced = scaled_median(run.samples["pass_s"], "s")
    out["trace.overhead_pct"] = 100.0 * (traced.times["pass_s"] - untraced) / untraced
    return {name: {"value": value, "unit": unit_of(name)} for name, value in out.items()}


def result_line(detail, spec):
    """The last stdout line: declared metrics only, with their units."""
    key = "per_layer" if detail["trace"] else "end_to_end"
    metrics = {}
    for entry in spec[key]:
        metric = detail[key][entry["name"]]
        value = metric["value"] if "value" in metric else metric["median"]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (20^2 and 12^3 packings), for --selfcheck")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload on tiny inputs and validate the output")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if not (math.isfinite(args.seconds) and args.seconds >= 0):
        parser.error("--seconds must be a nonnegative number")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(spec)
    if not (SRC / "voxstokes" / "__init__.py").is_file():
        print(f"error: no voxstokes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(detail, indent=1))
    print(json.dumps(result_line(detail, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
