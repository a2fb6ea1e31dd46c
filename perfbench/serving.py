"""``serve`` and ``harq``: a default DecodeServer in a child process, driven
over 2 connections from one asyncio loop.

``serve`` is open loop: requests are due on a Poisson schedule whatever
the server does, and each request's latency runs from its due time.
``harq`` is closed loop: 8 stop-and-wait HARQ processes, each sending
its next redundancy version as soon as the previous answer fails.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np
import repro
from repro.channel import BPSKModulator, ChannelFrontend, make_channel
from repro.codes import get_code
from repro.encoder import make_encoder
from repro.nr import HarqSession, NRRateMatcher
from repro.service import service_default_config

from common import RESULTS, ROOT, child_env, log, median, percentile

CONNECTIONS = 2
SETUP_SPAWNS = 5
STOP_TIMEOUT_S = 60.0

#: ``serve`` traffic: (mode, share of requests, open-loop Eb/N0 set,
#: waterfall grid of the bulk FER sample).  Weighted toward short code
#: blocks, as cellular traffic is: 74% of requests are <= 832 bits,
#: which also keeps the median inside the short-block latency cluster
#: (a uniform mix puts p50 in the gap between the short and long
#: clusters, where it jumps).  Open-loop requests sit at the top of each
#: code's waterfall, where link adaptation operates (FER ~1%): a failed
#: decode runs every iteration, so lower points make the latency tail
#: hinge on a handful of seed-dependent failures.  The bulk sample spans
#: the whole waterfall (FER ~10%), so it holds enough errors for a
#: steady rate.
SERVE_MIX = (
    ("802.16e:1/2:z24", 0.33, (2.5, 3.0, 3.5, 4.0), (1.5, 2.0, 2.5, 3.0)),
    ("802.11n:1/2:z27", 0.33, (2.5, 3.0, 3.5, 4.0), (1.5, 2.0, 2.5, 3.0)),
    ("NR:bg2:z16", 0.08, (2.0, 2.5, 3.0, 3.5), (1.0, 1.5, 2.0, 2.5)),
    ("802.16e:1/2:z96", 0.11, (2.0, 2.5, 3.0, 3.5), (1.0, 1.5, 2.0, 2.5)),
    ("802.11n:1/2:z81", 0.11, (2.0, 2.5, 3.0, 3.5), (1.0, 1.5, 2.0, 2.5)),
    ("DMB-T:0.6:z127", 0.04, (2.75, 3.0, 3.25, 3.5), (1.75, 2.0, 2.25, 2.5)),
)
#: Requests per second, open loop.  Latency here swings with every stall
#: of a shared host, and queueing multiplies the swing; a light load
#: keeps it closest to the service time (see README).
SERVE_RATE = 4.0
SERVE_WARMUP_S = 3.0
LATENCY_LIMIT_MS = 500.0   # later responses miss goodput
LATENESS_BOUND_MS = 50.0   # generator p99 lateness beyond this voids a run
SAMPLED_CHECKS = 24
#: Frames of the mix decoded in bulk after the open loop.  A measured
#: phase holds only 4 x --seconds frames, too few for a steady frame
#: error rate; these make ``fer`` a precise figure for the server's
#: default decode without adding open-loop load.
QUALITY_FRAMES = 4096
#: Set-up requests decode at a high Eb/N0, in one or two iterations, so
#: set-up time does not depend on the seed's noise.
WARMUP_EBN0 = 8.0

#: ``harq`` traffic: every TB is 2 code blocks of one of these modes,
#: taken round-robin; each block is rate-matched to half the circular
#: buffer and sent in the standard rv order.
HARQ_MODES = ("NR:bg1:z16", "NR:bg1:z32", "NR:bg1:z64",
              "NR:bg2:z16", "NR:bg2:z32", "NR:bg2:z64")
HARQ_EBN0 = 3.5            # rv0 fails ~2 TBs in 3: p50 sits in the 2-round cluster
HARQ_RV_ORDER = (0, 2, 3, 1)
HARQ_PROCESSES = 8         # 4 per connection
HARQ_CODE_BLOCKS = 2
HARQ_WARMUP_S = 4.0
HARQ_SAMPLED_CHECKS = 3
#: Process ids of the set-up requests, clear of the per-TB ids.
WARMUP_PROCESS_BASE = 1 << 30


# ----------------------------------------------------------------------
# The process under test
# ----------------------------------------------------------------------
class ServerUnderTest:
    """A ``server_child.py`` process: spawned, connected, stopped."""

    def __init__(self, tag: str, traced: bool):
        self.traced = traced
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.report_path = RESULTS / f"server-{tag}.json"
        self.log_path = RESULTS / f"server-{tag}.log"
        self.proc = None
        self.clients: list = []
        self._log = None

    async def start(self) -> None:
        self.report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(ROOT / "perfbench" / "server_child.py"),
                str(self.report_path)] + (["--trace"] if self.traced else [])
        self._log = open(self.log_path, "wb")
        self.proc = await asyncio.create_subprocess_exec(
            *argv, env=child_env(), stdout=asyncio.subprocess.PIPE,
            stderr=self._log,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        if not line:
            await self.proc.wait()
            raise RuntimeError(
                f"server child exited {self.proc.returncode}:\n"
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        hello = json.loads(line)
        self.clients = [
            await repro.DecodeClient.connect("127.0.0.1", hello["port"])
            for _ in range(CONNECTIONS)
        ]
        self._wire_ids = [itertools.count() for _ in self.clients]

    def decode(self, conn: int, mode, llr, harq=None) -> "tuple[int, object]":
        """``(wire id, awaitable result)`` of one request on connection
        ``conn``.  ``DecodeClient`` numbers a connection's requests 0, 1,
        2, ... in call order; the id lets a traced run match the server's
        spans of this request."""
        return next(self._wire_ids[conn]), self.clients[conn].decode(mode, llr, harq=harq)

    def peak_rss_mb(self) -> "float | None":
        """The child's peak RSS so far (``VmHWM``), MiB; None off Linux."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    async def stop(self) -> dict:
        """Close the connections, SIGTERM the child, read its report."""
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.proc is None:
            return {}
        try:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
            raise RuntimeError("server child ignored SIGTERM; killed")
        finally:
            self._log.close()
        if self.proc.returncode != 0 or not self.report_path.exists():
            raise RuntimeError(
                f"server child exited {self.proc.returncode} without a report:\n"
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        return json.loads(self.report_path.read_text(encoding="utf-8"))

    async def kill(self) -> None:
        """Last-resort cleanup after an error: never leave the child behind."""
        for client in self.clients:
            await client.close()
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        if self._log is not None:
            self._log.close()


async def spawn_warmed(tag, traced, warm_requests) -> "tuple[ServerUnderTest, float]":
    """Spawn a server and send one warm-up request per mode; returns the
    server and the seconds from spawn until every warm-up was answered."""
    t0 = perf_counter_ns()
    server = ServerUnderTest(tag, traced)
    try:
        await server.start()
        await asyncio.gather(*(
            server.decode(i % CONNECTIONS, mode, llr, harq)[1]
            for i, (mode, llr, harq) in enumerate(warm_requests)
        ))
    except BaseException:
        await server.kill()
        raise
    return server, (perf_counter_ns() - t0) / 1e9


async def measure_setup(tag, traced, warm_requests, spawns: int):
    """``spawns`` set-ups; all but the last server are stopped again."""
    samples = []
    for i in range(spawns):
        server, seconds = await spawn_warmed(f"{tag}-{i}", traced, warm_requests)
        samples.append(seconds)
        if i < spawns - 1:
            await server.stop()
    return server, samples


def service_config(backend: str):
    """The config a defaulted request decodes with, pinned to the
    backend the server resolved."""
    return service_default_config(repro.DecoderConfig(backend=backend))


def results_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("bits", "llr", "iterations", "converged", "et_stopped")
    )


# ----------------------------------------------------------------------
# serve: open loop
# ----------------------------------------------------------------------
@dataclass
class Request:
    index: int
    phase: str
    due_ns: int
    mode: str
    info: np.ndarray
    llr: np.ndarray
    conn: int = 0
    wire_id: int = -1
    sent_ns: int = 0
    done_ns: int = 0
    result: object = None
    error: str = ""


def stratified(rng, weights, n: int) -> list:
    """``n`` draws whose counts follow ``weights`` exactly (largest
    remainder), in random order: the mix does not vary between seeds."""
    raw = [w * n for w in weights]
    counts = [int(r) for r in raw]
    for i in sorted(range(len(raw)), key=lambda i: raw[i] - counts[i],
                    reverse=True)[: n - sum(counts)]:
        counts[i] += 1
    out = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def mix_cells(column: int) -> tuple:
    """(mode, Eb/N0, share) cells of the open-loop (2) or bulk (3) grids."""
    return tuple(
        (row[0], ebn0, row[1] / len(row[column]))
        for row in SERVE_MIX for ebn0 in row[column]
    )


def serve_inputs(seed: int, seconds: float, warmup_s: float,
                 quality_frames: int) -> list:
    """The request trace: Poisson arrivals conditioned on their count
    (uniform order statistics) and exact counts per (mode, Eb/N0) cell,
    so every run offers the same load; then one bulk request per cell."""
    rng = np.random.default_rng(seed)
    links = {row[0]: repro.open(row[0]) for row in SERVE_MIX}
    cells = mix_cells(2)
    requests = []
    for phase, start, span in (("warmup", 0.0, warmup_s),
                               ("measured", warmup_s, seconds)):
        n = max(1, int(round(SERVE_RATE * span)))
        dues = np.sort(rng.uniform(start, start + span, n))
        picks = stratified(rng, [w for _, _, w in cells], n)
        for due, pick in zip(dues, picks):
            mode, ebn0, _ = cells[pick]
            info, _, llr = links[mode].channel_frames(1, ebn0, rng=rng)
            requests.append(Request(len(requests), phase, int(due * 1e9),
                                    mode, info, llr))
    for mode, ebn0, weight in mix_cells(3):
        frames = max(1, int(round(quality_frames * weight)))
        info, _, llr = links[mode].channel_frames(frames, ebn0, rng=rng)
        requests.append(Request(len(requests), "quality", 0, mode, info, llr))
    return requests


def serve_warm_requests(seed: int) -> list:
    """One high-SNR single-block request per mode."""
    rng = np.random.default_rng([seed, 1])
    return [
        (row[0], repro.open(row[0]).channel_frames(1, WARMUP_EBN0, rng=rng)[2], None)
        for row in SERVE_MIX
    ]


async def send_request(server, req) -> None:
    req.sent_ns = perf_counter_ns()
    req.wire_id, reply = server.decode(req.conn, req.mode, req.llr)
    try:
        req.result = await reply
    except Exception as exc:  # noqa: BLE001 - recorded as a failed request
        req.error = f"{type(exc).__name__}: {exc}"
    req.done_ns = perf_counter_ns()


async def drive_open_loop(server, timed) -> int:
    """Send every request at its due time; wait for every answer.
    Returns the clock reading the trace's due times count from."""
    base = perf_counter_ns() + 50_000_000
    tasks = []
    for req in timed:
        req.due_ns += base
        req.conn = req.index % CONNECTIONS
        delay = (req.due_ns - perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(send_request(server, req)))
    await asyncio.wait_for(asyncio.gather(*tasks), 120)
    return base


async def drive_bulk(server, bulk) -> None:
    """Send the bulk requests all at once, closed loop."""
    for req in bulk:
        req.conn = req.index % CONNECTIONS
    await asyncio.wait_for(
        asyncio.gather(*(send_request(server, r) for r in bulk)), 120)


def phase_counts(requests) -> dict:
    """Requests sent, answered with a result, and answered with an error."""
    out = {}
    for phase in ("warmup", "measured", "quality"):
        rs = [r for r in requests if r.phase == phase]
        out[phase] = {
            "sent": len(rs),
            "succeeded": sum(1 for r in rs if r.result is not None),
            "failed": sum(1 for r in rs if r.error),
        }
    return out


def check_serve(requests, backend, seed, inject_flip: bool) -> list:
    failures = []
    for phase, counts in phase_counts(requests).items():
        if counts["sent"] != counts["succeeded"] + counts["failed"]:
            failures.append(f"{phase}: requests unaccounted for: {counts}")
    for req in requests:
        if req.result is not None and req.result.bits.shape != req.llr.shape:
            failures.append(f"request {req.index}: answer of shape "
                            f"{req.result.bits.shape} for {req.llr.shape} LLRs")
    answered = [r for r in requests if r.phase == "measured" and r.result is not None]
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(len(answered), size=min(SAMPLED_CHECKS, len(answered)),
                       replace=False)
    config = service_config(backend)
    links = {}
    for n, i in enumerate(sorted(picks)):
        req = answered[i]
        got = req.result
        if inject_flip and n == 0:
            got.bits[0, 0] ^= 1
        link = links.setdefault(req.mode, repro.open(req.mode, config))
        if not results_equal(got, link.decode(req.llr)):
            failures.append(f"request {req.index} ({req.mode}) differs from a "
                            "direct decode under service_default_config")
    return failures


async def run_serve(seed, seconds, tiny, traced, inject_flip) -> dict:
    warmup = 0.5 if tiny else SERVE_WARMUP_S
    requests = serve_inputs(seed, seconds, warmup,
                            48 if tiny else QUALITY_FRAMES)
    spawns = 1 if (tiny or traced) else SETUP_SPAWNS
    server, setup = await measure_setup(
        "serve" + ("-traced" if traced else ""), traced,
        serve_warm_requests(seed), spawns)
    try:
        base = await drive_open_loop(
            server, [r for r in requests if r.phase != "quality"])
        t0 = base + int(warmup * 1e9)
        t1 = t0 + int(seconds * 1e9)
        # The bulk decodes allocate far more than serving does, and stay
        # out of the measured window.
        rss = server.peak_rss_mb()
        await asyncio.sleep(max(0.0, (t1 - perf_counter_ns()) / 1e9))
        await drive_bulk(server, [r for r in requests if r.phase == "quality"])
    except BaseException:
        await server.kill()
        raise
    report = await server.stop()
    backend = report["backend"]

    measured = [r for r in requests if r.phase == "measured"]
    latencies = [
        (r.done_ns - r.due_ns) / 1e6 if r.result is not None else float("inf")
        for r in measured
    ]
    good_bits = sum(
        r.info.shape[1] for r, lat in zip(measured, latencies)
        if lat <= LATENCY_LIMIT_MS and r.result.frame_errors(r.info) == 0
    )
    answered = [r for r in measured if r.result is not None]
    decoded = [r for r in requests if r.phase == "quality" and r.result is not None]
    frame_errors = sum(r.result.frame_errors(r.info) for r in decoded)
    frames = sum(r.info.shape[0] for r in decoded)
    lateness = [(r.sent_ns - r.due_ns) / 1e6 for r in measured]
    failures = check_serve(requests, backend, seed, inject_flip)
    lateness_p99 = percentile(lateness, 99)
    if lateness_p99 > LATENESS_BOUND_MS:
        failures.append(f"run invalid: generator p99 lateness {lateness_p99:.1f} ms "
                        f"> {LATENESS_BOUND_MS} ms")
    metrics = {
        "setup_s": median(setup),
        "info_mbps": good_bits / seconds / 1e6,
        "latency_p50_ms": finite(percentile(latencies, 50)),
        "latency_p90_ms": finite(percentile(latencies, 90)),
        "fer": frame_errors / max(1, frames),
        # Every serve request is one transmission of one block.
        "harq_rounds": 1.0,
        "rss_mb": rss if rss is not None else report["peak_rss_mb"],
    }
    p99 = finite(percentile(latencies, 99))
    errors = [r.error for r in requests if r.error]
    if errors:
        log(f"serve: {len(errors)} requests failed, first: {errors[0]}")
    log(f"serve: {len(measured)} requests, p99 {p99:.1f} ms, "
        f"{sum(1 for lat in latencies if lat > LATENCY_LIMIT_MS)} over "
        f"{LATENCY_LIMIT_MS:.0f} ms, backend {backend}")
    return {
        "metrics": metrics,
        "window": (t0, t1),
        "attempted": len(measured),
        "failed": sum(1 for r in measured if r.error),
        "phases": phase_counts(requests),
        "backend": [backend],
        "setup_samples": setup,
        "latency_samples": len(latencies),
        "latency_p99_ms": p99,
        "lateness_ms": lateness,
        "failures": failures,
        "spans": report["spans"],
        "buffer_events": report["buffer_events"],
        "client_records": [(r.wire_id, r.sent_ns, r.done_ns) for r in answered],
    }


def finite(value: float) -> float:
    """Failed requests enter percentiles as infinitely late; report such a
    percentile as a day, so the result line stays valid JSON."""
    return value if value != float("inf") else 86_400_000.0


# ----------------------------------------------------------------------
# harq: closed loop
# ----------------------------------------------------------------------
@dataclass
class TransportBlock:
    index: int
    mode: str
    payload: np.ndarray
    soft_bits: dict            # rv -> (CBS, e) float LLRs
    start_ns: int = 0
    end_ns: int = 0
    rounds: int = 0
    acked: bool = False
    rv0_ok: bool = False
    error: str = ""
    last: object = None
    requests: list = field(default_factory=list)   # (phase, ok, wire_id, sent, done)


class HarqTraffic:
    """Deterministic TB factory: TB ``k`` depends only on (seed, k)."""

    def __init__(self, seed: int):
        self.seed = seed
        order = np.random.default_rng(seed).permutation(len(HARQ_MODES))
        self.modes = [HARQ_MODES[i] for i in order]
        self.chain = {}
        for mode in HARQ_MODES:
            code = get_code(mode)
            matcher = NRRateMatcher(code)
            self.chain[mode] = (code, matcher, make_encoder(code), matcher.ncb // 2)

    def block(self, k: int, ebn0: float = HARQ_EBN0) -> TransportBlock:
        mode = self.modes[k % len(self.modes)]
        code, matcher, encoder, e = self.chain[mode]
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(k,)))
        payload = rng.integers(0, 2, (HARQ_CODE_BLOCKS, matcher.n_payload),
                               dtype=np.uint8)
        codewords = encoder.encode(matcher.place_fillers(payload))
        soft = {}
        for rv in HARQ_RV_ORDER:
            channel = make_channel("awgn", ebn0, matcher.n_payload / e, 1, rng=rng)
            soft[rv] = ChannelFrontend(BPSKModulator(), channel).run(
                matcher.rate_match(codewords, rv, e))
        return TransportBlock(k, mode, payload, soft)

    def decoded_payload(self, tb, result) -> np.ndarray:
        code, matcher, _, _ = self.chain[tb.mode]
        return matcher.extract_payload(result.bits[:, : code.n_info])


async def drive_harq(server, traffic, warmup_s, seconds) -> "tuple[list, int, int]":
    tbs: list = []
    ids = itertools.count()
    t0 = perf_counter_ns() + int(warmup_s * 1e9)
    t1 = t0 + int(seconds * 1e9)

    def phase(now):
        return "warmup" if now < t0 else ("measured" if now < t1 else "drain")

    async def process(p):
        conn = p % CONNECTIONS
        while perf_counter_ns() < t1:
            tb = traffic.block(next(ids))
            tbs.append(tb)
            tb.start_ns = perf_counter_ns()
            for rv in HARQ_RV_ORDER:
                tb.rounds += 1
                sent = perf_counter_ns()
                # A fresh process id per TB: the wire protocol has no
                # new-data indicator, so a reused id would combine the next
                # TB into this one's soft buffer.
                wire_id, reply = server.decode(
                    conn, tb.mode, tb.soft_bits[rv],
                    {"process": tb.index, "rv": rv})
                try:
                    result = await reply
                except Exception as exc:  # noqa: BLE001 - a failed request
                    tb.error = f"{type(exc).__name__}: {exc}"
                    tb.requests.append((phase(sent), False, wire_id, sent,
                                        perf_counter_ns()))
                    break
                tb.requests.append((phase(sent), True, wire_id, sent, perf_counter_ns()))
                tb.last = result
                # ACK when the payload decodes right: an ideal TB CRC.  The
                # decoder's own parity check is no stand-in for it: the
                # default float decoder reports rate-matched rv0 blocks as
                # converged onto a wrong codeword (see README).
                ok = bool(np.array_equal(traffic.decoded_payload(tb, result),
                                         tb.payload))
                if rv == HARQ_RV_ORDER[0]:
                    tb.rv0_ok = ok
                if ok:
                    tb.acked = True
                    break
            tb.end_ns = perf_counter_ns()

    await asyncio.wait_for(
        asyncio.gather(*(process(p) for p in range(HARQ_PROCESSES))),
        seconds + warmup_s + 150)
    return tbs, t0, t1


def harq_phase_counts(tbs) -> dict:
    out = {p: {"sent": 0, "succeeded": 0, "failed": 0} for p in ("warmup", "measured", "drain")}
    for tb in tbs:
        for phase, ok, *_ in tb.requests:
            out[phase]["sent"] += 1
            out[phase]["succeeded" if ok else "failed"] += 1
    return out


def check_harq(tbs, traffic, backend, seed, inject_flip) -> list:
    failures = []
    acked = [tb for tb in tbs if tb.acked]
    combined = [tb for tb in acked if tb.rounds > 1] or acked
    rng = np.random.default_rng(seed + 2)
    picks = sorted(rng.choice(len(combined), replace=False,
                              size=min(HARQ_SAMPLED_CHECKS, len(combined))))
    if inject_flip and picks:
        combined[picks[0]].last.bits[0, 0] ^= 1
    for tb in acked:
        # The payload is drawn again from (seed, TB index), so a delivery
        # credited to the wrong TB cannot pass.
        if not np.array_equal(traffic.decoded_payload(tb, tb.last),
                              traffic.block(tb.index).payload):
            failures.append(f"TB {tb.index} ({tb.mode}) was delivered but does "
                            "not match its payload")
    config = service_config(backend)
    for i in picks:
        tb = combined[i]
        code = traffic.chain[tb.mode][0]
        session = HarqSession(code, config)
        for rv in HARQ_RV_ORDER[: tb.rounds]:
            session.push(tb.soft_bits[rv], rv)
        if not results_equal(tb.last, session.decode()):
            failures.append(f"TB {tb.index}: combined decode over the wire differs "
                            "from a local HarqSession fed the same transmissions")
    return failures


async def run_harq(seed, seconds, tiny, traced, inject_flip) -> dict:
    traffic = HarqTraffic(seed)
    warm = []
    for i in range(len(HARQ_MODES)):
        tb = traffic.block(WARMUP_PROCESS_BASE + i, WARMUP_EBN0)
        warm.append((tb.mode, tb.soft_bits[0], {"process": tb.index, "rv": 0}))
    spawns = 1 if (tiny or traced) else SETUP_SPAWNS
    server, setup = await measure_setup(
        "harq" + ("-traced" if traced else ""), traced, warm, spawns)
    warmup_s = 1.0 if tiny else HARQ_WARMUP_S
    try:
        tbs, t0, t1 = await drive_harq(server, traffic, warmup_s, seconds)
    except BaseException:
        await server.kill()
        raise
    report = await server.stop()
    backend = report["backend"]

    in_window = [tb for tb in tbs if t0 <= tb.end_ns < t1]
    done = [tb for tb in in_window if not tb.error]
    latencies = [(tb.end_ns - tb.start_ns) / 1e6 for tb in done]
    info_bits = sum(tb.payload.size for tb in done if tb.acked)
    failures = check_harq(tbs, traffic, backend, seed, inject_flip)
    if not done:
        failures.append("no transport block completed inside the measured window")
    metrics = {
        "setup_s": median(setup),
        "info_mbps": info_bits / seconds / 1e6,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "fer": sum(1 for tb in done if not tb.rv0_ok) / max(1, len(done)),
        "harq_rounds": sum(tb.rounds for tb in done) / max(1, len(done)),
        "rss_mb": report["peak_rss_mb"],
    }
    residual = sum(1 for tb in done if not tb.acked)
    errors = [tb.error for tb in tbs if tb.error]
    if errors:
        log(f"harq: {len(errors)} TBs failed, first: {errors[0]}")
    log(f"harq: {len(done)} TBs in window, {residual} undelivered after "
        f"{len(HARQ_RV_ORDER)} rvs, backend {backend}")
    records = [(wid, sent, end) for tb in tbs
               for phase, ok, wid, sent, end in tb.requests if ok]
    return {
        "metrics": metrics,
        "window": (t0, t1),
        "attempted": len(in_window),
        "failed": len(in_window) - len(done),
        "phases": harq_phase_counts(tbs),
        "backend": [backend],
        "setup_samples": setup,
        "latency_samples": len(latencies),
        "latency_p99_ms": percentile(latencies, 99),
        "lateness_ms": [],
        "failures": failures,
        "spans": report["spans"],
        "buffer_events": report["buffer_events"],
        "client_records": records,
    }
