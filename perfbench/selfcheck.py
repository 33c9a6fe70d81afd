"""Self-check: every workload on tiny inputs, output schema validated.

``python3 perfbench/run.py --selfcheck`` runs each workload untraced and
traced on a tiny packing (20^2 to 28^2, or 12^3) as its own process,
through the command ``BENCHMARK.json`` declares, and checks the detail
report and the result line against ``BENCHMARK.json``. It also checks that a directory holding only
the benchmark (no ``src/``) makes the command fail without a result.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180

ENV_KEYS = {"git_sha", "src_sha256", "python", "numpy", "scipy", "nproc",
            "blas_threads", "cpu_model", "cpu_caches", "seed"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SUMMARY_KEYS = {"median", "n", "tail_pct", "tail", "unit"}


def command(spec, workload, trace, *extra):
    program, *args = spec["command"]
    python = sys.executable if program.startswith("python") else program
    return [python, *args, "--workload", workload, "--seed", "42",
            "--seconds", "0", "--trace", str(trace), *extra]


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def result_problems(result, declared) -> list:
    problems = []
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed {result['failed']!r}")
    want = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(want):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(want))}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not is_number(metric["value"]):
            problems.append(f"{name}: {metric!r}")
        elif metric["unit"] != want.get(name):
            problems.append(f"{name}: unit {metric['unit']!r} != {want.get(name)!r}")
    return problems


def detail_problems(detail, trace) -> list:
    problems = []
    missing = ENV_KEYS - set(detail.get("environment", {}))
    if missing:
        problems.append(f"environment lacks {sorted(missing)}")
    for name, metric in detail.get("end_to_end", {}).items():
        if set(metric) != SUMMARY_KEYS:
            problems.append(f"end_to_end {name}: keys {sorted(metric)}")
    if trace and not detail.get("per_layer"):
        problems.append("traced run without per-layer metrics")
    if detail.get("failures"):
        problems.append(f"failures: {detail['failures']}")
    return problems


def check_run(spec, workload, trace) -> list:
    done = subprocess.run(command(spec, workload, trace, "--tiny"), cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    body, _, last = done.stdout.rstrip("\n").rpartition("\n")
    try:
        result, detail = json.loads(last), json.loads(body)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    declared = spec["per_layer" if trace else "end_to_end"]
    return result_problems(result, declared) + detail_problems(detail, trace)


def check_without_sources(spec) -> list:
    """A copy holding only BENCHMARK.json and the benchmark must fail."""
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(command(spec, spec["workloads"][0]["name"], 0), cwd=bare,
                              capture_output=True, text=True, timeout=TIMEOUT)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()  # only when no other run uses it
    if done.returncode == 0:
        return ["exit code 0 without sources"]
    if '"metrics"' in done.stdout:
        return ["printed a result without sources"]
    return []


def main(spec) -> int:
    failures = 0
    checks = [(f"{w['name']} trace={t}", lambda w=w, t=t: check_run(spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("no sources", lambda: check_without_sources(spec)))
    for label, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"selfcheck {label}: " + ("ok" if not problems else "; ".join(problems)),
              flush=True)
    print(f"selfcheck: {len(checks) - failures}/{len(checks)} ok")
    return 1 if failures else 0
