"""Where a result came from: interpreter, library versions, machine, the
source tree measured, the seed and the workload parameters."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads as wl

HEISENBERG_POINT_BYTES = 3 * 8  # one float64 point of the 3-d carriers


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size(text: str) -> int:
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def _caches() -> dict:
    """Cache sizes of cpu0 in bytes, keyed L1d/L1i/L2/L3."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = _size((idx / "size").read_text())
        except (OSError, ValueError):
            continue
        key = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[key] = size
    return out


def _commit():
    """The git commit, only when the checkout itself is a repository (git
    is not allowed to look in directories above it)."""
    if not (wl.ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_tree() -> dict:
    files = sorted((wl.SRC / "ngd").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_ngd_lines": lines, "src_ngd_sha256": digest.hexdigest(),
            "git_commit": _commit()}


def largest_array_bytes(workload: str, params: dict, traced: bool) -> int:
    """Computed from sizes, not measured: the biggest float array a run
    builds.  The traced run's carrier probe adds a 10^5-point cloud."""
    if workload == "analytic-batch":
        n = params["samples"]
    elif workload == "cli-report":
        n = 2 * 200  # report arrows: 200 samples x (target, source)
    else:
        n = 0  # Fraction tables, no float arrays
    if traced:
        n = max(n, 100000)
    return n * HEISENBERG_POINT_BYTES


def provenance(workload: str, seed: int, params: dict, traced: bool) -> dict:
    import numpy

    caches = _caches()
    biggest = largest_array_bytes(workload, params, traced)
    l3 = caches.get("L3")
    if l3 is None:
        residency = "unknown (no L3 size)"
    elif biggest <= l3:
        residency = "cache-resident: largest array fits in L3; no bandwidth claimed"
    else:
        residency = "exceeds L3"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "caches_bytes": caches,
        "largest_array_bytes": biggest,
        "residency": residency,
        **source_tree(),
    }
