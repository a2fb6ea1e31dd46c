"""The process under test for ``serve`` and ``harq``: a default DecodeServer.

Usage (spawned by the load generator, never by hand)::

    python3 perfbench/server_child.py REPORT_PATH [--trace]

Prints one JSON line with the bound port and the resolved decoder
backend, serves until SIGTERM (the server's own graceful drain), then
writes ``REPORT_PATH``: peak RSS, the service's metrics snapshot and,
when traced, every recorded span.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb_self, use_checkout_sources  # noqa: E402


def main(argv) -> int:
    report_path = Path(argv[0])
    traced = "--trace" in argv[1:]
    use_checkout_sources()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from repro import DecodeServer
    from repro.decoder.backends import resolve_backend_name

    server = DecodeServer()
    backend = resolve_backend_name(server.service.default_config.backend)

    async def serve():
        await server.start()
        print(json.dumps({"port": server.port, "backend": backend}), flush=True)
        await server.serve_forever()

    asyncio.run(serve())
    report = {
        "backend": backend,
        "default_config": server.service.default_config.to_dict(),
        "peak_rss_mb": peak_rss_mb_self(),
        "server_stats": dict(server.stats),
        "service": server.service.metrics_snapshot(),
        "spans": tracer.spans if tracer else [],
        "buffer_events": tracer.buffer_events if tracer else [],
    }
    tmp = report_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(report, default=str), encoding="utf-8")
    tmp.replace(report_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
