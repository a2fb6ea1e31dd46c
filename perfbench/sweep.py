"""``sweep``: the offline Monte-Carlo user, closed loop, one process.

``Link.sweep`` (the serial ``SweepEngine``) runs one Eb/N0 point per
call with a fixed frame budget and the error-count stop disabled, so
the work per point does not depend on decode quality.  One *round* is
every point of every unit below; the measured phase runs whole rounds
until ``--seconds`` have passed, so every run decodes the same mix.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter, perf_counter_ns

import repro
from repro import DecoderConfig, QFormat

from common import ROOT, child_env, log, median, peak_rss_mb_self, percentile
from tracing import Tracer

#: (label, mode, fixed point?, Eb/N0 grid spanning the waterfall, frames
#: per point).  All run the ``fast`` backend explicitly, so a change of
#: the library's default backend predicts no movement here.  Batches are
#: large (150k-310k code bits per decode call).  At B=12, NR BG1 z384
#: keeps ~6.8 MiB of APP and Λ memory: beyond a 2 MiB per-core L2.
UNITS = (
    ("wimax-q8.2", "802.16e:1/2:z96", True, (1.0, 1.5, 2.0, 2.5), 128),
    ("wimax-float", "802.16e:1/2:z96", False, (1.0, 1.5, 2.0, 2.5), 64),
    ("wifi-q8.2", "802.11n:1/2:z81", True, (1.0, 1.5, 2.0, 2.5), 128),
    ("dmbt-q8.2", "DMB-T:0.6:z127", True, (1.75, 2.0, 2.25, 2.5), 40),
    ("nr-bg1-q8.2", "NR:bg1:z384", True, (1.0, 1.5, 2.0), 12),
)
#: Frames per unit of the reduced sweep checked against ``reference``.
CHECK_FRAMES = {"802.16e:1/2:z96": 8, "802.11n:1/2:z81": 8,
                "DMB-T:0.6:z127": 4, "NR:bg1:z384": 2}
SETUP_PROBES = 5


def unit_config(fixed: bool, backend: str = "fast", **overrides):
    qformat = QFormat(8, 2) if fixed else None
    return DecoderConfig(backend=backend, qformat=qformat, **overrides)


def scaled_units(tiny: bool):
    if not tiny:
        return UNITS
    return tuple(
        (label, mode, fixed, grid[:1], max(1, frames // 16))
        for label, mode, fixed, grid, frames in UNITS
    )


def run_point(mode, config, seed, ebn0, frames):
    link = repro.open(mode, config, seed=seed)
    [point] = link.sweep([ebn0], max_frames=frames,
                         min_frame_errors=frames + 1, batch_size=frames)
    return point


def setup_probe() -> None:
    """Fresh-process set-up: open every unit and decode one frame each."""
    for _, mode, fixed, grid, _ in UNITS:
        run_point(mode, unit_config(fixed), 0, grid[0], 1)
    print("ready", flush=True)


def measure_setup(probes: int, traced: bool) -> list:
    """Seconds from spawning a fresh interpreter to a warmed library."""
    samples = []
    for _ in range(probes):
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
             "--trace", str(int(traced))],
            env=child_env(), capture_output=True, text=True, timeout=170,
        )
        if out.returncode != 0 or "ready" not in out.stdout:
            raise RuntimeError(f"sweep setup probe failed:\n{out.stderr}")
        samples.append(perf_counter() - t0)
    return samples


def one_round(units, seed: int, round_index: int, record) -> None:
    for label, mode, fixed, grid, frames in units:
        config = unit_config(fixed)
        for ebn0 in grid:
            t0 = perf_counter()
            point = run_point(mode, config, seed * 100_003 + round_index, ebn0, frames)
            record(label, point, perf_counter() - t0)


def check_against_reference(seed: int, tiny: bool, inject_flip: bool = False) -> list:
    """Fixed point equals ``reference`` exactly; float keeps the fast
    kernel's documented contract (with ``fast_exact=True``, hard
    decisions and iteration counts equal the reference).

    ``inject_flip`` counts one decoded bit of the first unit as flipped,
    to show that the comparison fires.
    """
    failures = []
    for label, mode, fixed, grid, _ in UNITS:
        ebn0 = grid[len(grid) // 2]
        frames = 1 if tiny else CHECK_FRAMES[mode]
        ref = run_point(mode, unit_config(fixed, "reference"), seed, ebn0, frames)
        if fixed:
            got = run_point(mode, unit_config(fixed), seed, ebn0, frames)
            if inject_flip and not failures and label == UNITS[0][0]:
                got.bit_errors += 1
            same = got.to_dict() == ref.to_dict()
        else:
            got = run_point(mode, unit_config(fixed, fast_exact=True), seed, ebn0, frames)
            same = (got.bit_errors, got.frame_errors, got.iterations_hist) == (
                ref.bit_errors, ref.frame_errors, ref.iterations_hist)
        if not same:
            failures.append(f"{label} at {ebn0} dB differs from reference")
    return failures


def run(seed: int, seconds: float, tiny: bool, traced: bool) -> dict:
    """One measured phase; returns the end-to-end metrics and run facts."""
    setup = measure_setup(1 if (tiny or traced) else SETUP_PROBES, traced)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        out = measure(seed, seconds, scaled_units(tiny))
    finally:
        if tracer is not None:
            tracer.restore()
    out["metrics"]["setup_s"] = median(setup)
    out["setup_samples"] = setup
    out["spans"] = tracer.spans if tracer is not None else []
    return out


def measure(seed: int, seconds: float, units) -> dict:
    """A warm-up round of one frame per unit, then whole measured rounds."""
    resolved = sorted({
        repro.open(mode, unit_config(fixed)).decoder.backend.name
        for _, mode, fixed, _, _ in units
    })
    phases = {"warmup": {"sent": 0, "succeeded": 0, "failed": 0},
              "measured": {"sent": 0, "succeeded": 0, "failed": 0}}
    samples: list = []
    phase = "warmup"

    def record(label, point, wall):
        phases[phase]["sent"] += 1
        phases[phase]["succeeded"] += 1
        if phase == "measured":
            samples.append((label, point, wall))

    warm = [(label, mode, fixed, grid[:1], 1) for label, mode, fixed, grid, _ in units]
    one_round(warm, seed, 0, record)
    phase = "measured"
    t0 = perf_counter_ns()
    round_mbps = []
    while True:
        start, first = perf_counter_ns(), len(samples)
        one_round(units, seed, len(round_mbps) + 1, record)
        bits = sum(p.frames * p.info_bits_per_frame for _, p, _ in samples[first:])
        round_mbps.append(bits / ((perf_counter_ns() - start) / 1e9) / 1e6)
        if perf_counter_ns() - t0 >= seconds * 1e9:
            break
    t1 = perf_counter_ns()
    wall = (t1 - t0) / 1e9
    frames = sum(p.frames for _, p, _ in samples)
    errors = sum(p.frame_errors for _, p, _ in samples)
    latencies = [w * 1e3 for _, _, w in samples]
    metrics = {
        # Every round decodes the same work; the median round shrugs off
        # a burst of host noise.
        "info_mbps": median(round_mbps),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "fer": errors / frames,
        # Every simulated block is transmitted once.
        "harq_rounds": 1.0,
        "rss_mb": peak_rss_mb_self(),
    }
    log(f"sweep: {len(round_mbps)} rounds, {frames} frames in {wall:.1f} s, "
        f"per-unit FER {[round(p.fer, 3) for _, p, _ in samples[:len(units) * 4]]}")
    return {
        "metrics": metrics,
        "window": (t0, t1),
        "attempted": phases["measured"]["sent"],
        "failed": phases["measured"]["failed"],
        "phases": phases,
        "backend": resolved,
        "latency_samples": len(latencies),
        "latency_p99_ms": percentile(latencies, 99),
        "lateness_ms": [],
        "buffer_events": [],
        "client_records": [],
        "failures": [],
    }

