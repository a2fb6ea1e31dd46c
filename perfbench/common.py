"""Shared helpers: statistics, provenance, process-level measurements.

Everything here runs in the benchmark's own processes; nothing touches
the program under test except through its public import surface.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Library sources the benchmark builds against.
SRC = ROOT / "src"
#: Where runs append their history and traced runs write their spans.
RESULTS = Path(__file__).resolve().parent / "results"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises ``SystemExit`` when the checkout has no sources, or when an
    installed copy elsewhere would shadow them: a benchmark that
    silently measured some other tree would be worse than none.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not {SRC}")


def child_env() -> dict:
    """Environment for a process under test: library defaults apply.

    ``REPRO_DECODER_BACKEND`` is removed so ``backend="auto"`` resolves
    exactly as it does for a user who never set it.
    """
    env = dict(os.environ)
    env.pop("REPRO_DECODER_BACKEND", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Host and memory
# ----------------------------------------------------------------------
def peak_rss_mb_self() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_copy_bandwidth(nbytes: int = 64 << 20, repeats: int = 5) -> float:
    """Bytes moved per second by ``np.copyto`` (read + write), best of N.

    The roofline floor of a layered edge update divides the bytes the
    update must move by this figure.
    """
    import numpy as np

    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * src.nbytes / best


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """SHA-1 over every library source file: identifies the tree measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> "str | None":
    """HEAD of the checkout, or None when the checkout is no git work tree
    of its own (an enclosing repository's HEAD would be someone else's)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(copy_bandwidth: float) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "source_sha1": source_digest(),
        "host": {
            "cores": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "copy_bandwidth_gbps": copy_bandwidth / 1e9,
    }


def append_history(record: dict) -> Path:
    """Append one run record to the history (never overwritten)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / "history.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def log(message: str) -> None:
    """Progress notes go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)
