"""The environment block every benchmark result carries."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _tree_sha256(path):
    """Hash of every .py file under ``path``; names the code when git cannot."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                digest.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cpu_caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return caches
    for entry in entries:
        if not entry.startswith("index"):
            continue
        fields = {}
        for key in ("level", "type", "size"):
            with open(os.path.join(base, entry, key), encoding="utf-8") as handle:
                fields[key] = handle.read().strip()
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        caches[f"L{fields['level']}{kind}"] = fields["size"]
    return caches


def collect(root, seed) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha256(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "platform": platform.platform(),
        "seed": seed,
    }
