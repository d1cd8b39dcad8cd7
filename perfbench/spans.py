"""Spans for the traced run: an in-memory recorder and the reducer.

The recorder runs inside the traced service process (see
``traced_serve.py``): every wrapped call into a layer opens a span with
its name, the request id, the enclosing span, and start/end times from
``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, so the benchmark
process can cut the timed phase out by its own clock). Spans stay in
memory and are written once, at shutdown.

The reducer turns a span file into the per-layer metrics: a layer's
self time is its span's duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import contextvars
import json
import statistics

#: Route labels the per-route metrics are reported for.
ROUTES = ("factorized", "yannakakis", "wcoj", "treewidth-dp")

_PARENT = contextvars.ContextVar("perfbench_parent", default=-1)
_REQUEST = contextvars.ContextVar("perfbench_request", default="")
#: The connection task's last parse span, stamped once dispatch names it.
_PARSE = contextvars.ContextVar("perfbench_parse", default=-1)


class SpanRecorder:
    """Append-only span list; one per traced process."""

    def __init__(self) -> None:
        #: ``[name, request_id, parent, start, end, attrs]`` per span.
        self.spans: list[list] = []

    def open(self, name: str, start: float) -> tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append([name, _REQUEST.get(), _PARENT.get(), start, start, {}])
        return index, _PARENT.set(index)

    def close(self, index: int, token, end: float, **attrs) -> None:
        _PARENT.reset(token)
        span = self.spans[index]
        span[4] = end
        span[5].update(attrs)

    def open_parse(self, start: float) -> tuple[int, contextvars.Token]:
        """Open a parse span: its request id is not known until dispatch."""
        _REQUEST.set("")
        index, token = self.open("http.read_request", start)
        _PARSE.set(index)
        return index, token

    def set_request(self, request_id: str) -> None:
        """Stamp ``request_id`` on the request's parse span, on the open
        span chain, and on every span opened after it in this task."""
        _REQUEST.set(request_id)
        parse = _PARSE.get()
        if parse >= 0 and not self.spans[parse][1]:
            self.spans[parse][1] = request_id
        index = _PARENT.get()
        while index >= 0:
            span = self.spans[index]
            span[1] = span[1] or request_id
            index = span[2]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, _rid, parent, start, end, _attrs in spans:
        if parent >= 0:
            lo = max(start, spans[parent][3])
            hi = min(end, spans[parent][4])
            if lo < hi:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (span[4] - span[3]) - _union_length(children.get(index, []))
        for index, span in enumerate(spans)
    ]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def reduce_spans(
    spans: list[list], window: tuple[float, float], pass_ops: dict[str, int]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` from one span file.

    Only spans that start inside ``window`` (the timed phase) count.
    ``pass_ops`` holds each route's op total over one pass of the
    workload's distinct requests, the deterministic per-route count.
    Times are means per call, in ms.
    """
    lo, hi = window
    by_name: dict[str, list[tuple[list, float]]] = {}
    for span, own in zip(spans, self_times(spans)):
        if lo <= span[3] <= hi:
            by_name.setdefault(span[0], []).append((span, own))

    def select(name: str, where: dict) -> list[tuple[list, float]]:
        return [
            (span, own)
            for span, own in by_name.get(name, [])
            if all(span[5].get(key) == value for key, value in where.items())
        ]

    def durations(name: str, **where) -> list[float]:
        return [(span[4] - span[3]) * 1000.0 for span, _ in select(name, where)]

    def own_ms(name: str, **where) -> list[float]:
        return [own * 1000.0 for _, own in select(name, where)]

    def share(name: str, **where) -> float:
        total = len(by_name.get(name, []))
        return len(select(name, where)) / total if total else 0.0

    encodes = [span[5]["bytes"] for span, _ in select("http.json_response_bytes", {})]
    dispatch = own_ms("server.dispatch", path="/query") + own_ms("server.dispatch", path="/solve")
    followers = durations("coalesce.run", coalesced=True)
    builds = durations("kernels.trie_build")
    metrics = {
        "http.parse_ms": (_mean(durations("http.read_request", parsed=True)), "ms"),
        "http.encode_ms": (_mean(durations("http.json_response_bytes")), "ms"),
        "http.response_kb": (_mean(encodes) / 1024.0, "KB"),
        "server.dispatch_self_ms": (_mean(dispatch), "ms"),
        "plan_cache.ms": (_mean(durations("plan_cache.get_or_build")), "ms"),
        "plan_cache.hit_ratio": (share("plan_cache.get_or_build", hit=True), "ratio"),
        "router.decide_ms": (_mean(durations("router.decide_route")), "ms"),
        "coalesce.follower_share": (share("coalesce.run", coalesced=True), "ratio"),
        "coalesce.wait_ms": (_mean(followers), "ms"),
        "admission.wait_ms": (_mean(durations("admission.wait")), "ms"),
        "admission.shed": (float(len(durations("admission.wait", shed=True))), "count"),
        "store.register_ms": (_mean(durations("store.register")), "ms"),
        "store.fingerprint_ms": (_mean(durations("store.fingerprint_payload")), "ms"),
        "executor.evaluate_ms": (_mean(own_ms("executor.evaluate_core")), "ms"),
        "executor.canonical_ms": (_mean(durations("executor.canonical_answers")), "ms"),
    }
    for route in ROUTES:
        runs = select("router.run_route", {"route": route})
        times = [(span[4] - span[3]) * 1000.0 for span, _ in runs]
        ops = sum(span[5]["ops"] for span, _ in runs)
        metrics[f"route.{route}.ms"] = (_mean(times), "ms")
        metrics[f"route.{route}.ops"] = (float(pass_ops.get(route, 0)), "ops")
        metrics[f"route.{route}.ns_per_op"] = (
            sum(times) * 1e6 / ops if ops else 0.0,
            "ns/op",
        )
    metrics["kernels.trie_builds"] = (float(len(builds)), "count")
    metrics["kernels.trie_build_ms"] = (_mean(builds), "ms")
    metrics["csp.solve_ms"] = (_mean(durations("csp.solve")), "ms")
    metrics["telemetry.observe_ms"] = (_mean(durations("telemetry.observe_request")), "ms")
    return metrics
