"""In-memory span tracing around the library's public calls.

A traced run wraps the public functions of each layer *in the process
where they run* (the benchmark itself for ``sweep``, the server child
for ``serve`` and ``harq``).  Each call records a span ``[name, start,
end, parent, request id, extra]`` with ``time.perf_counter_ns`` — on
Linux that is ``CLOCK_MONOTONIC``, shared by every process on the host,
so spans from the server child line up with the load generator's own
timestamps.  Spans stay in memory and are written out when the run
ends; :func:`layer_metrics` turns them into the per-layer numbers.

The wrappers are installed on the classes and modules themselves, so
they see every caller.  Nothing in the library is edited.
"""

from __future__ import annotations

import functools
import json
import threading
import weakref
from collections import defaultdict, deque
from time import perf_counter_ns

from common import percentile

NAME, START, END, PARENT, RID, EXTRA = range(6)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        #: ``(t_ns, delta)`` changes of the live HARQ soft-buffer count.
        self.buffer_events: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, None, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._local.stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``note(args, kwargs, result)`` may return ``(request id, extra)``
        stored on the span; it runs after the span closed, outside the
        timed interval.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span[RID], span[EXTRA] = note(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer the benchmark reports on."""
        from repro.channel.llr import ChannelFrontend
        from repro.codes.registry import get_code
        from repro.decoder.backends import FastBackend, ReferenceBackend
        from repro.decoder.layered import LayeredDecoder
        from repro.encoder import NRSystematicEncoder, SystematicQCEncoder
        from repro.nr.harq import HarqSession
        from repro.runtime.parallel import WorkerPool
        from repro.server import protocol
        from repro.service.cache import PlanCache
        from repro.service.service import DecodeService

        def decode_note(args, kwargs, result):
            decoder = args[0]
            frames = int(result.bits.shape[0])
            return None, (
                decoder.code.name, frames,
                int(result.iterations.sum()), int(result.et_stopped.sum()),
            )

        def layer_note(args, kwargs, result):
            backend, l_messages, _lam, layer_pos = args[:4]
            plan = backend.plan
            edges = int(l_messages.shape[0]) * int(plan.layer_degrees[layer_pos]) * plan.z
            return None, (edges, l_messages.dtype.itemsize)

        def submit_note(args, kwargs, result):
            mode = args[1] if len(args) > 1 else kwargs["mode"]
            llr = args[2] if len(args) > 2 else kwargs["llr"]
            code = get_code(mode).name if isinstance(mode, str) else mode.name
            frames = 1 if getattr(llr, "ndim", 2) == 1 else int(llr.shape[0])
            return None, (code, frames)

        def parse_note(args, kwargs, result):
            header, payload = args[:2]
            return result[0], (result[1], len(payload) + wire_header_bytes(header))

        def respond_note(args, kwargs, result):
            return args[0], len(result)

        self.wrap(LayeredDecoder, "decode", "decoder.decode", decode_note)
        self.wrap(LayeredDecoder, "begin_decode", "decoder.begin_decode")
        self.wrap(LayeredDecoder, "step", "decoder.step")
        self.wrap(LayeredDecoder, "finish", "decoder.finish")
        for backend in (ReferenceBackend, FastBackend):
            self.wrap(backend, "update_layer", "decoder.update_layer", layer_note)
        for encoder in (SystematicQCEncoder, NRSystematicEncoder):
            self.wrap(encoder, "random_codewords", "encoder.random_codewords")
        self.wrap(ChannelFrontend, "run", "channel.run")
        self.wrap(DecodeService, "submit", "service.submit", submit_note)
        self._wrap_cache(PlanCache)
        self._wrap_pool(WorkerPool)
        self.wrap(protocol, "parse_request", "server.parse_request", parse_note)
        self.wrap(protocol, "encode_result", "server.encode_result", respond_note)
        self.wrap(HarqSession, "push", "nr.push")
        self.wrap(HarqSession, "decoder_llrs", "nr.decoder_llrs")
        self._count_soft_buffers(HarqSession)

    def _wrap_cache(self, cache_cls) -> None:
        original = cache_cls.__dict__["get"]
        tracer = self

        @functools.wraps(original)
        def get(cache, *args, **kwargs):
            misses = cache.misses
            span = tracer._open("cache.get")
            try:
                return original(cache, *args, **kwargs)
            finally:
                tracer._close(span)
                span[EXTRA] = cache.misses != misses

        cache_cls.get = get
        self._undo.append((cache_cls, "get", original))

    def _wrap_pool(self, pool_cls) -> None:
        original = pool_cls.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        def submit(pool, fn, *args, **kwargs):
            @functools.wraps(fn)
            def task(*a, **k):
                span = tracer._open("pool.task")
                span[EXTRA] = pool.workers
                try:
                    return fn(*a, **k)
                finally:
                    tracer._close(span)

            return original(pool, task, *args, **kwargs)

        pool_cls.submit = submit
        self._undo.append((pool_cls, "submit", original))

    def _count_soft_buffers(self, session_cls) -> None:
        original = session_cls.__dict__["__init__"]
        events = self.buffer_events

        @functools.wraps(original)
        def init(session, *args, **kwargs):
            original(session, *args, **kwargs)
            events.append((perf_counter_ns(), 1))
            weakref.finalize(session, lambda: events.append((perf_counter_ns(), -1)))

        session_cls.__init__ = init
        self._undo.append((session_cls, "__init__", original))


def wire_header_bytes(header: dict) -> int:
    """Prelude plus JSON header bytes of a frame, as the protocol encodes them."""
    from repro.server import protocol

    return protocol.PRELUDE.size + len(
        json.dumps(header, separators=(",", ":")).encode("utf-8")
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _outermost(candidates, spans, prefix: str):
    """Candidates named ``prefix*`` with no ancestor of the same prefix
    (``spans`` is the full list that ``PARENT`` indexes)."""
    out = []
    for span in candidates:
        if not span[NAME].startswith(prefix):
            continue
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME].startswith(prefix):
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            out.append(span)
    return out


def self_times_ms(spans) -> dict:
    """Total and self time per span name, ms: self = duration minus the
    time its direct children cover."""
    child_ns = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        entry = totals[span[NAME]]
        entry[0] += 1
        entry[1] += duration / 1e6
        entry[2] += (duration - child_ns.get(i, 0)) / 1e6
    return {
        name: {"calls": c, "total_ms": round(t, 3), "self_ms": round(s, 3)}
        for name, (c, t, s) in sorted(totals.items())
    }


def queue_waits_ms(spans) -> list:
    """``(submit start, wait)`` from ``DecodeService.submit`` to the
    start of the decode call that took the request.

    The service batches requests of one ``(mode, config)`` group in
    arrival order, so the k-th frame a decoder call takes for a code is
    the k-th frame submitted for it; a decode call of ``B`` frames
    starts the wait clock of the next ``B`` queued frames.
    """
    queued: dict = defaultdict(deque)
    events = []
    for span in spans:
        if span[NAME] == "service.submit" and span[EXTRA] is not None:
            events.append((span[START], 0, span))
        elif span[NAME] == "decoder.decode" and span[EXTRA] is not None:
            events.append((span[START], 1, span))
    waits = []
    for start, kind, span in sorted(events, key=lambda e: (e[0], e[1])):
        if kind == 0:
            code, frames = span[EXTRA]
            queued[code].append([start, frames])
            continue
        code, frames = span[EXTRA][:2]
        pending = queued[code]
        while frames > 0 and pending:
            head = pending[0]
            waits.append((head[0], (start - head[0]) / 1e6))
            taken = min(frames, head[1])
            head[1] -= taken
            frames -= taken
            if head[1] == 0:
                pending.popleft()
    return waits


def layer_metrics(spans, buffer_events, window, copy_bandwidth: float) -> dict:
    """The per-layer metrics of one traced run.

    ``window`` is the measured phase ``(t0_ns, t1_ns)``: rates and
    distributions use spans that start inside it; plan-cache counters
    cover the whole run, because their cost lands in set-up.
    """
    t0, t1 = window
    span_s = (t1 - t0) / 1e9
    inside = [s for s in spans if t0 <= s[START] < t1 and s[END] > 0]

    def durations(name, scale):
        return [(s[END] - s[START]) / scale for s in inside if s[NAME] == name]

    def busy_share(prefix):
        top = _outermost(inside, spans, prefix)
        return sum(s[END] - s[START] for s in top) / 1e9 / span_s

    decodes = [s for s in inside if s[NAME] == "decoder.decode" and s[EXTRA]]
    frames = sum(s[EXTRA][1] for s in decodes)
    layers = [s for s in inside if s[NAME] == "decoder.update_layer" and s[EXTRA]]
    edges = sum(s[EXTRA][0] for s in layers)
    layer_ns = sum(s[END] - s[START] for s in layers)
    # A layered edge update gathers L, reads Λ, writes Λ and writes L back.
    moved = sum(s[EXTRA][0] * 4 * s[EXTRA][1] for s in layers)
    ns_per_edge = layer_ns / edges if edges else 0.0
    floor = moved / edges / copy_bandwidth * 1e9 if edges else 0.0

    order = sorted(decodes, key=lambda s: s[START])
    switches = sum(
        1 for a, b in zip(order, order[1:]) if a[EXTRA][0] != b[EXTRA][0]
    )
    # The attribution walks the whole run; keep requests submitted in
    # the window.
    waits = [w for start, w in queue_waits_ms(spans) if t0 <= start < t1]
    served = any(s[NAME] == "service.submit" for s in inside)

    pool_tasks = [s for s in inside if s[NAME] == "pool.task"]
    pool_workers = pool_tasks[0][EXTRA] if pool_tasks else 1
    cache_gets = [s for s in spans if s[NAME] == "cache.get"]
    misses = [s for s in cache_gets if s[EXTRA]]
    parses = [s for s in inside if s[NAME] == "server.parse_request"]
    responds = [s for s in inside if s[NAME] == "server.encode_result"]
    request_bytes = sum(s[EXTRA][1] for s in parses if s[EXTRA])
    response_bytes = sum(s[EXTRA] for s in responds if s[EXTRA] is not None)
    live = sum(delta for t, delta in buffer_events if t < t1)

    return {
        "decoder.busy_share": busy_share("decoder."),
        "decoder.ns_per_edge": ns_per_edge,
        "decoder.copy_floor_ns_per_edge": floor,
        "decoder.roofline_share": floor / ns_per_edge if ns_per_edge else 0.0,
        "decoder.update_layer_us_p50": percentile(durations("decoder.update_layer", 1e3), 50),
        "decoder.call_ms_p50": percentile(durations("decoder.decode", 1e6), 50),
        "decoder.frames_per_call": frames / len(decodes) if decodes else 0.0,
        "decoder.iterations_mean": (
            sum(s[EXTRA][2] for s in decodes) / frames if frames else 0.0
        ),
        "decoder.et_share": (
            sum(s[EXTRA][3] for s in decodes) / frames if frames else 0.0
        ),
        "encoder.busy_share": busy_share("encoder."),
        "channel.busy_share": busy_share("channel."),
        "service.submit_us_p50": percentile(durations("service.submit", 1e3), 50),
        "service.queue_wait_ms_p50": percentile(waits, 50),
        "service.queue_wait_ms_p99": percentile(waits, 99),
        "service.batch_frames_mean": (
            frames / len(decodes) if decodes and served else 0.0
        ),
        "service.mode_switches": float(switches if served else 0),
        "cache.hits": float(len(cache_gets) - len(misses)),
        "cache.misses": float(len(misses)),
        "cache.build_ms": sum(s[END] - s[START] for s in misses) / 1e6,
        "pool.busy_share": (
            sum(s[END] - s[START] for s in pool_tasks) / 1e9
            / span_s / pool_workers
        ),
        "server.parse_us_p50": percentile(durations("server.parse_request", 1e3), 50),
        "server.respond_us_p50": percentile(durations("server.encode_result", 1e3), 50),
        "server.bytes_per_request": (
            (request_bytes + response_bytes) / len(parses) if parses else 0.0
        ),
        "nr.combine_us_p50": percentile(durations("nr.push", 1e3), 50),
        "nr.condition_us_p50": percentile(durations("nr.decoder_llrs", 1e3), 50),
        "nr.soft_buffers_live": float(live),
    }


def server_side_ms(spans) -> dict:
    """``(request id, code) -> [(start_ns, end_ns)]``: from parsing a
    request to encoding its response, as the server saw it."""
    opened = defaultdict(list)
    for span in spans:
        if span[NAME] == "server.parse_request" and span[RID] is not None:
            opened[span[RID]].append(span)
    out = defaultdict(list)
    responds = sorted(
        (s for s in spans if s[NAME] == "server.encode_result"),
        key=lambda s: s[START],
    )
    for span in responds:
        candidates = [p for p in opened.get(span[RID], ()) if p[START] <= span[START]]
        if not candidates:
            continue
        parse = max(candidates, key=lambda p: p[START])
        opened[span[RID]].remove(parse)
        out[span[RID]].append((parse[START], span[END]))
    return out


def transport_ms(client_records, spans) -> list:
    """Client-observed minus server-side latency, per matched request.

    Request ids repeat across connections, so a client record matches
    the server interval with its id that lies inside the client's own
    send-to-receive interval.
    """
    server = server_side_ms(spans)
    out = []
    for rid, sent_ns, done_ns in client_records:
        for start, end in server.get(rid, ()):
            if sent_ns <= start and end <= done_ns:
                out.append(((done_ns - sent_ns) - (end - start)) / 1e6)
                break
    return out


__all__ = ["Tracer", "layer_metrics", "self_times_ms", "transport_ms"]
