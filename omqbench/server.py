"""Launch the query service in its own process for the serve-mixed phase.

Usage::

    python3 omqbench/server.py '{"tenants": [["t0", 2000, 3], ["t1", 2000, 4]],
                                 "report": "omqbench/.out/server.json"}'

Builds a :class:`repro.server.QueryService` with two university tenants (one
ontology, so they share one plan cache) and runs :func:`repro.server.serve`,
which prints the ``repro-server listening on`` line and serves until
SIGTERM.  With ``"trace": true`` the benchmark's layer wrappers, and one
around the request handler, are installed before serving.  In every run
``GET /bench/probe`` runs the host-speed probe (``common.probe``) in this
process and answers ``{"probe_s": seconds}``; the generator calls it around
each load window, never during one.  On exit the report file receives this
process's peak RSS and, when traced, the span summary.
"""

from __future__ import annotations

import asyncio
import json
import sys

from common import peak_rss_mb, probe

PROBE_PATH = "/bench/probe"


def install_probe() -> None:
    """Answer ``GET /bench/probe`` with a host-speed probe run in this process."""
    from repro.server.http import Response
    from repro.server.service import QueryService

    handle = QueryService.handle

    async def handle_or_probe(self, request):
        if request.path == PROBE_PATH:
            return Response.json({"probe_s": probe()})
        return await handle(self, request)

    QueryService.handle = handle_or_probe


def main() -> int:
    payload = json.loads(sys.argv[1])
    tracer = None
    if payload.get("trace"):
        from tracing import Tracer, install, install_server

        tracer = Tracer()
        install(tracer)
        install_server(tracer)
    install_probe()
    from repro.server import QueryService, ServiceConfig, serve

    service = QueryService(ServiceConfig(port=0, query_timeout=60.0))
    for name, size, seed in payload["tenants"]:
        service.create_tenant(name, "university", size=size, seed=seed)
    drain = asyncio.run(serve(service))
    report = {"rss_mb": peak_rss_mb(), "drain": drain}
    if tracer is not None:
        from phases import summarize_spans

        report["trace"] = summarize_spans(tracer)
        if payload.get("spans_out"):
            tracer.dump(payload["spans_out"])
    with open(payload["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
