"""Traced service launcher: ``python traced_serve.py --spans FILE serve ...``.

Wraps the service's layer entry points with span recording, then runs
the unmodified service CLI (``repro.service.__main__.main``) in this
process, so the traced service has the same process layout as the
untraced one. Spans stay in memory and are written to ``FILE`` when the
service shuts down (SIGINT).

Each wrapper patches the name at the site that looks it up: a function
imported into ``repro.service.server`` is patched there, a method on
its class.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder  # noqa: E402

RECORDER = SpanRecorder()
clock = time.perf_counter


def wrap(owner, attr: str, name: str, annotate=None) -> None:
    """Record a span around every call of ``owner.attr`` (sync)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index, token = RECORDER.open(name, clock())
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            attrs = annotate(args, result) if annotate and result is not None else {}
            RECORDER.close(index, token, clock(), **attrs)

    setattr(owner, attr, traced)


def wrap_async(owner, attr: str, name: str, annotate=None) -> None:
    """Record a span around every await of ``owner.attr`` (coroutine)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def traced(*args, **kwargs):
        index, token = RECORDER.open(name, clock())
        attrs = annotate(args, None) if annotate else {}
        try:
            result = await original(*args, **kwargs)
            if annotate:
                attrs = annotate(args, result)
            return result
        finally:
            RECORDER.close(index, token, clock(), **attrs)

    setattr(owner, attr, traced)


def install() -> None:
    from repro.relational import kernels
    from repro.service import executor, plan_cache, server, store
    from repro.service.admission import AdmissionController, RequestShedError
    from repro.service.coalesce import SingleFlight
    from repro.service.telemetry import ServiceTelemetry

    # http: parse time starts when the request line has arrived, so a
    # keep-alive connection's idle wait is not counted as parsing.
    read_request = server.read_request

    @functools.wraps(read_request)
    async def traced_read_request(reader):
        readline = reader.readline
        opened = []

        async def first_line():
            line = await readline()
            opened.append(RECORDER.open_parse(clock()))
            return line

        reader.readline = first_line
        request = None
        try:
            request = await read_request(reader)
            return request
        finally:
            del reader.readline
            if opened:
                index, token = opened[0]
                RECORDER.close(index, token, clock(), parsed=request is not None)

    server.read_request = traced_read_request

    wrap(server, "json_response_bytes", "http.json_response_bytes",
         lambda args, body: {"bytes": len(body)})

    next_request_id = server.QueryService.next_request_id

    def traced_next_request_id(self):
        request_id = next_request_id(self)
        RECORDER.set_request(request_id)
        return request_id

    server.QueryService.next_request_id = traced_next_request_id
    wrap_async(server.QueryService, "dispatch", "server.dispatch",
               lambda args, result: {"path": args[1].path})

    wrap(plan_cache.PlanCache, "get_or_build", "plan_cache.get_or_build",
         lambda args, result: {"hit": result[1]})
    wrap(plan_cache, "decide_route", "router.decide_route")

    wrap_async(SingleFlight, "run", "coalesce.run",
               lambda args, result: {"coalesced": bool(result and result[1])})

    admit = AdmissionController.admit

    class TimedAdmit:
        def __init__(self, inner):
            self.inner = inner

        async def __aenter__(self):
            index, token = RECORDER.open("admission.wait", clock())
            shed = False
            try:
                return await self.inner.__aenter__()
            except RequestShedError:
                shed = True
                raise
            finally:
                RECORDER.close(index, token, clock(), shed=shed)

        async def __aexit__(self, *exc_info):
            return await self.inner.__aexit__(*exc_info)

    AdmissionController.admit = lambda self: TimedAdmit(admit(self))

    wrap(store.DatabaseStore, "register", "store.register")
    wrap(store, "fingerprint_payload", "store.fingerprint_payload")

    wrap(server, "evaluate_core", "executor.evaluate_core")
    wrap(executor, "canonical_answers", "executor.canonical_answers")
    wrap(executor, "run_route", "router.run_route",
         lambda args, answer: {"route": answer.decision.route, "ops": answer.ops})
    wrap(kernels.SortedTrieIndex, "__init__", "kernels.trie_build")
    wrap(server, "solve_csp", "csp.solve")
    wrap(ServiceTelemetry, "observe_request", "telemetry.observe_request")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans FILE serve [options]", file=sys.stderr)
        return 2
    spans_path, service_argv = argv[1], argv[2:]
    install()
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_argv)
    finally:
        RECORDER.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
