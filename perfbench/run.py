"""The service benchmark: ``python3 perfbench/run.py --workload NAME``.

Boots the real query service (``python -m repro.service serve --port 0``
with its default flags) as a subprocess, drives one named workload from
this single load-generator process (one asyncio thread), checks every
answer against in-process evaluation, and prints the metrics.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

Each connection sends a fixed, seeded sequence whose length is sized
for ``--seconds`` on a 2-core host (``Workload.length``), so a run does
the same work on every commit and its percentiles have the same ranks.
Percentiles are taken over the whole timed phase's pooled sample. A
latency runs from the first byte of a request sent to the last byte of
its response received: bodies are encoded before and responses decoded
and checked after. Throughput is queries per second of the rounds the
connections had in flight, so the generator's checks between rounds do
not count.

``--trace 0`` reports the end-to-end metrics. Set-up is repeated
``SETUP_BOOTS`` times, half before and half after the timed phase, and
its median reported; the timed phase runs on the last boot before it.

The timed phase's figures are reported at the speed of a reference
host. Each CPU of a shared host changes speed by tens of percent from
one minute to the next, independently of the others, so the load
generator runs on one CPU and the service on another, and between
rounds the generator steps onto the service's CPU to time a short fixed
piece of Python (a calibration slice). Latencies are scaled by
``REFERENCE_SLICE_MS`` over the median slice, throughput inversely.
The slice runs no repository code, so a change to the service moves the
scaled figures as much as the measured ones, which the ``# context``
line gives as ``measured``. ``setup_s`` is not scaled.

``--trace 1`` reports the per-layer metrics instead: half the sequence
on an untraced boot (the reference for the tracing overhead), half on a
boot of ``traced_serve.py``, whose spans are reduced into per-layer
times.

Lines before the last describe the run (``# context``, ``# placement``);
the last line is the JSON result, whose ``correct`` is false when any
operation failed (a wrong answer, a non-2xx response, a shed, a timeout
or a dropped connection). The exit code is 1 when ``correct`` is false,
when a reported metric would rest on an empty sample (then no result
is printed) or when the checkout has no service sources, and 2 when the
service does not boot or its catalog cannot be registered.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

if __name__ == "__main__" and not (SRC / "repro" / "service").is_dir():
    sys.exit(f"perfbench: no service sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
from repro.service.client import exact_percentile  # noqa: E402
from spans import reduce_spans  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_INTERVAL_S,
    TAIL,
    WORKLOADS,
    Expectations,
    OpSequence,
    Request,
    request_body,
)

#: Boots per run; ``setup_s`` is their median.
SETUP_BOOTS = 6
#: Seconds a boot may take to print its listen banner.
BOOT_TIMEOUT_S = 60.0
#: Seconds any single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: Iterations of the fixed CPU calibration loop, and its repeats.
CALIBRATION_N = 200_000
CALIBRATION_REPEATS = 5
#: Iterations of one calibration slice and the median ms of a slice on
#: the reference host. The timed phase runs ``BATCH_SLICES`` slices
#: between two rounds at least every ``BATCH_PERIOD_S``.
SLICE_N = 500
REFERENCE_SLICE_MS = 0.2
BATCH_SLICES = 6
BATCH_PERIOD_S = 0.25

clock = time.perf_counter


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: host speed, recorded only."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        begun = clock()
        total = 0
        for i in range(CALIBRATION_N):
            total += i * i % 7
        times.append((clock() - begun) * 1000.0)
    return statistics.median(times)


def calibration_slice() -> float:
    """Ms of one short fixed piece of allocation-heavy Python (dict
    inserts, a sort, JSON encoding), the kind of work the service does;
    it runs no repository code."""
    begun = clock()
    table = {}
    for i in range(SLICE_N):
        table[(i, i * 7 % 13)] = [i, str(i)]
    json.dumps(sorted(table.items(), key=lambda item: item[0][1])[::8])
    return (clock() - begun) * 1000.0


#: The CPU of the load generator and the CPU of the service processes.
CPUS = {"loadgen": 0, "service": 0}


def place_processes() -> None:
    """Pin this process to one CPU and keep the last one for the service.

    The CPUs of a shared host change speed independently of each other,
    so the speed that scales the service's times is measured on the
    service's own CPU (see :func:`calibrate_service_cpu`).
    """
    cpus = sorted(os.sched_getaffinity(0))
    CPUS["loadgen"], CPUS["service"] = cpus[0], cpus[-1]
    os.sched_setaffinity(0, {CPUS["loadgen"]})


def calibrate_service_cpu(count: int) -> list[float]:
    """``count`` calibration slices, run on the service's CPU."""
    os.sched_setaffinity(0, {CPUS["service"]})
    try:
        return [calibration_slice() for _ in range(count)]
    finally:
        os.sched_setaffinity(0, {CPUS["loadgen"]})


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a process and its children, MB."""
    total = 0.0
    pids = [pid]
    children = Path(f"/proc/{pid}/task/{pid}/children")
    if children.exists():
        pids += [int(child) for child in children.read_text().split()]
    for each in pids:
        for line in Path(f"/proc/{each}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


class EmptySample(Exception):
    """A reported metric has no sample to rest on."""


def nonempty(sample: list, what: str) -> list:
    """``sample``, or :class:`EmptySample` when it holds nothing."""
    if not sample:
        raise EmptySample(f"no {what} sample to report")
    return sample


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


class Service:
    """One booted service subprocess."""

    def __init__(self, process, host: str, port: int, launched: float) -> None:
        self.process = process
        self.host = host
        self.port = port
        self.launched = launched

    @classmethod
    async def boot(cls, spans_path: Path | None = None) -> "Service":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.service"]
        else:
            argv = [sys.executable, str(HERE / "traced_serve.py"), "--spans", str(spans_path)]
        launched = clock()
        process = await asyncio.create_subprocess_exec(
            *argv, "serve", "--port", "0",
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        os.sched_setaffinity(process.pid, {CPUS["service"]})
        try:
            banner = await asyncio.wait_for(process.stdout.readline(), BOOT_TIMEOUT_S)
        except asyncio.TimeoutError:
            banner = b""
        text = banner.decode(errors="replace")
        if "listening on http://" not in text:
            await cls._terminate(process)
            raise RuntimeError(f"service did not boot (banner {text!r})")
        host, port = text.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        return cls(process, host, int(port), launched)

    @staticmethod
    async def _terminate(process) -> None:
        if process.returncode is None:
            process.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(process.wait(), 20.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()

    async def stop(self) -> None:
        await self._terminate(self.process)


class Connection:
    """One keep-alive HTTP connection to the service.

    Bodies are encoded before the clock starts and responses decoded
    after it stops, so a round trip is timed from the first byte sent to
    the last byte received, by the service's work and not the generator's.
    """

    def __init__(self, service: Service) -> None:
        self.host = service.host
        self.port = service.port
        self.reader = None
        self.writer = None

    async def round_trip(self, method: str, path: str, body: bytes) -> tuple:
        """``(ms, status, raw response body)``."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\nContent-Type: application/json\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        begun = clock()
        self.writer.write(head + body)
        status, raw = await read_response(self.reader)
        return (clock() - begun) * 1000.0, status, raw

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


async def read_response(reader) -> tuple[int, bytes]:
    """One ``(status, raw body)`` response off a connection."""
    status_line = await reader.readline()
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return int(status_line.split()[1]), body


#: What a broken or malformed exchange raises.
EXCHANGE_ERRORS = (ConnectionError, OSError, ValueError, IndexError, asyncio.IncompleteReadError)


async def exchange(connection: Connection, tally: Tally, method: str, path: str, body: bytes):
    """One round trip: ``(ms, status, raw body)``, or ``None`` after a
    failure, which is recorded (and the connection reopened next time)."""
    try:
        return await asyncio.wait_for(
            connection.round_trip(method, path, body), REQUEST_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        tally.record(False, "timeout")
    except EXCHANGE_ERRORS as exc:
        tally.record(False, f"connection: {type(exc).__name__}")
    connection.close()
    return None


def classify(tally: Tally, status: int, raw: bytes, check) -> dict | None:
    """Record one response; returns its payload if it succeeded."""
    if status == 503:
        tally.record(False, "shed")
        return None
    if status != 200:
        tally.record(False, f"http {status}")
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        tally.record(False, "malformed body")
        return None
    if not isinstance(payload, dict) or not check(payload):
        tally.record(False, "wrong answer")
        return None
    tally.record(True)
    return payload


def encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class Run:
    """One benchmark invocation: workload, seed, expectations, samples."""

    def __init__(self, workload, seed: int, expectations) -> None:
        self.workload = workload
        self.seed = seed
        self.expect = expectations
        self.tally = Tally()
        self.pass_ops: dict[str, int] = {}
        self._bodies: dict[tuple, bytes] = {}

    def body(self, request: Request) -> tuple[str, str, bytes]:
        """``(method, path, encoded body)`` of a request."""
        if request.kind != "register":
            method, path, payload = request_body(request, self.expect.solves)
            return method, path, encode(payload)
        # Registration bodies are large and repeat: encode each once.
        key = (request.database, request.index, request.suffix)
        if key not in self._bodies:
            self._bodies[key] = encode({
                "name": request.database + request.suffix,
                "relations": self.expect.catalogs[request.index][request.database],
            })
        return "POST", "/databases", self._bodies[key]

    async def send(self, connection: Connection, request: Request):
        """Send one request: ``(request, ms, status, raw body)``, or ``None``
        after a failure."""
        result = await exchange(connection, self.tally, *self.body(request))
        return None if result is None else (request, *result)

    def check(self, sent) -> dict | None:
        """Record the response to a sent request (see ``Expectations.check``);
        returns its payload if it succeeded."""
        if sent is None:
            return None
        request, _, status, raw = sent
        return classify(self.tally, status, raw, lambda p: self.expect.check(request, p))

    # -- set-up -------------------------------------------------------

    async def setup(self, service: Service) -> float:
        """Register the catalog and warm every distinct request once.

        Returns seconds from process launch to ready.
        """
        connection = Connection(service)
        pass_ops: dict[str, int] = {}
        try:
            for name in self.expect.catalogs[0]:
                request = Request("register", "register", name)
                if not self.check(await self.send(connection, request)):
                    raise RuntimeError(f"registration of {name} failed")
            for request in self.expect.distinct_requests():
                payload = self.check(await self.send(connection, request))
                if payload is not None and request.kind == "query":
                    route = payload["route"]
                    pass_ops[route] = pass_ops.get(route, 0) + payload["ops"]
            ready = clock()
        finally:
            connection.close()
        self.pass_ops = pass_ops
        return ready - service.launched

    # -- the timed phase ----------------------------------------------

    async def timed(self, service: Service, seconds: float) -> dict:
        """Send the workload's fixed sequence; returns the pooled samples."""
        workload = self.workload
        samples = {
            "query": [],  # (class, latency ms)
            "register": [],  # latency ms
            "healthz": [],  # latency ms from the due time
            "lag": [],  # ms the prober sent late
            "coalesced": 0,
            "plan_hits": 0,
            "plan_lookups": 0,
            "slices": [],  # calibration slice ms
            "busy_s": 0.0,  # seconds with a round in flight
        }
        sequences = [
            OpSequence(workload, self.seed, c) for c in range(workload.query_connections)
        ]
        connections = [Connection(service) for _ in sequences]
        done = asyncio.Event()

        def record(sent) -> None:
            payload = self.check(sent)
            if payload is None:
                return
            request, elapsed = sent[0], sent[1]
            if request.kind == "register":
                samples["register"].append(elapsed)
                return
            samples["query"].append((request.cls, elapsed))
            if request.kind == "query":
                samples["coalesced"] += bool(payload.get("coalesced"))
                samples["plan_hits"] += bool(payload["plan_cache"]["hit"])
                samples["plan_lookups"] += 1

        async def rounds() -> None:
            # Every connection sends its request of the round, then all
            # wait for each other, so the same requests meet on every
            # commit (and shared ones coalesce). Responses are checked
            # once the round is over, outside every timed interval.
            calibrated = float("-inf")  # a batch after the first round
            try:
                for index in range(workload.length(seconds)):
                    begun = clock()
                    sent = await asyncio.gather(*(
                        self.send(connections[seq.connection], seq.at(index))
                        for seq in sequences
                    ))
                    samples["busy_s"] += clock() - begun
                    for each in sent:
                        record(each)
                    if clock() - calibrated >= BATCH_PERIOD_S:
                        samples["slices"] += calibrate_service_cpu(BATCH_SLICES)
                        calibrated = clock()
            finally:
                done.set()

        async def prober() -> None:
            # Open loop: each probe is written at its due time on one
            # pipelined connection, whether or not earlier probes have
            # been answered; the server answers a connection's requests
            # in order, so responses match due times first in, first out.
            reader, writer = await asyncio.open_connection(service.host, service.port)
            dues: asyncio.Queue = asyncio.Queue()
            head = (
                f"GET /healthz HTTP/1.1\r\nHost: {service.host}:{service.port}\r\n"
                "Content-Length: 0\r\nConnection: keep-alive\r\n\r\n"
            ).encode("latin-1")

            async def send() -> None:
                probe = 0
                while not done.is_set():
                    due = started + probe * PROBE_INTERVAL_S
                    probe += 1
                    wait = due - clock()
                    if wait > 0:
                        try:
                            await asyncio.wait_for(done.wait(), wait)
                            break
                        except asyncio.TimeoutError:
                            pass
                    samples["lag"].append(max(0.0, clock() - due) * 1000.0)
                    writer.write(head)
                    dues.put_nowait(due)
                dues.put_nowait(None)

            async def receive() -> None:
                while (due := await dues.get()) is not None:
                    try:
                        status, raw = await asyncio.wait_for(
                            read_response(reader), REQUEST_TIMEOUT_S
                        )
                    except asyncio.TimeoutError:
                        self.tally.record(False, "timeout")
                        break
                    except EXCHANGE_ERRORS as exc:
                        self.tally.record(False, f"connection: {type(exc).__name__}")
                        break
                    elapsed = (clock() - due) * 1000.0
                    if classify(self.tally, status, raw, lambda p: p.get("status") == "ok"):
                        samples["healthz"].append(elapsed)

            try:
                await asyncio.gather(send(), receive())
            finally:
                writer.close()

        cpu_before = proc_cpu_s(service.process.pid)
        own_cpu_before = time.process_time()
        started = clock()
        try:
            await asyncio.gather(rounds(), prober())
        finally:
            for connection in connections:
                connection.close()
        ended = clock()
        samples["window"] = (started, ended)
        samples["wall_s"] = ended - started
        samples["service_cpu_s"] = proc_cpu_s(service.process.pid) - cpu_before
        samples["loadgen_cpu_s"] = time.process_time() - own_cpu_before
        samples["peak_rss_mb"] = peak_rss_mb(service.process.pid)
        return samples


def measured(samples: dict, setups: list[float]) -> dict:
    """The end-to-end metrics as measured, at the run's host speed."""
    latencies = nonempty([ms for _, ms in samples["query"]], "query")
    probes = nonempty(samples["healthz"], "/healthz")
    registers = nonempty(samples["register"], "registration")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (exact_percentile(latencies, 0.5), "ms"),
        "query_tail_ms": (exact_percentile(latencies, TAIL), "ms"),
        "throughput_rps": (len(latencies) / samples["busy_s"], "1/s"),
        "healthz_p50_ms": (exact_percentile(probes, 0.5), "ms"),
        "healthz_tail_ms": (exact_percentile(probes, TAIL), "ms"),
        "register_p50_ms": (statistics.median(registers), "ms"),
        "peak_rss_mb": (samples["peak_rss_mb"], "MB"),
    }


def speed(slices: list[float]) -> float:
    """Host speed relative to the reference host, from calibration slices."""
    return REFERENCE_SLICE_MS / statistics.median(nonempty(slices, "calibration"))


def end_to_end(samples: dict, setups: list[float]) -> dict:
    """The end-to-end metrics, the timed phase's at reference host speed:
    its times are scaled by the speed of its calibration slices, and its
    throughput inversely. ``setup_s`` is left as measured."""
    scale = speed(samples["slices"])
    metrics = measured(samples, setups)
    for name, (value, unit) in metrics.items():
        if unit == "ms":
            metrics[name] = (value * scale, unit)
        elif unit == "1/s":
            metrics[name] = (value / scale, unit)
    return metrics


def placement(run: Run, samples: dict) -> list[dict]:
    """Where each reported query percentile lands in the workload's mix.

    Classes are ordered by their median latency; class ``c`` owns the
    band of cumulative shares it covers in that order. A percentile's
    margin is its distance, in share of the sample, to the nearest edge
    between two classes; ``sampled_class`` is the class of the sample the
    percentile returns, and ``beyond`` the samples above it.
    """
    pooled = sorted(samples["query"], key=lambda item: item[1])
    by_class: dict[str, list[float]] = {}
    for cls, ms in pooled:
        by_class.setdefault(cls, []).append(ms)
    total = len(pooled)
    bands = []
    low = 0.0
    for cls, values in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        share = len(values) / total
        bands.append((cls, low, low + share, statistics.median(values)))
        low += share
    report = []
    for label, q in (("query_p50_ms", 0.5), ("query_tail_ms", TAIL)):
        rank = min(total, max(1, round(q * total)))  # exact_percentile's rank
        index = next(
            (i for i, (_, lo, hi, _) in enumerate(bands) if lo <= q < hi),
            len(bands) - 1,
        )
        cls, lo, hi, _ = bands[index]
        # Only edges between two classes count; 0 and 1 bound the sample.
        edges = ([q - lo] if index > 0 else []) + (
            [hi - q] if index < len(bands) - 1 else []
        )
        report.append(
            {
                "metric": label,
                "q": q,
                "band_class": cls,
                "margin": round(min(edges), 4) if edges else 1.0,
                "sampled_class": pooled[rank - 1][0],
                "beyond": total - rank,
            }
        )
    report.append(
        {
            "classes": [
                {"class": cls, "share": round(hi - lo, 4), "median_ms": round(median, 3)}
                for cls, lo, hi, median in bands
            ]
        }
    )
    return report


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` without leaving the
    checkout; ``unknown`` when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context_record(run: Run, args, samples: dict, calibration: tuple) -> dict:
    kinds: dict[str, int] = {}
    for cls, _ in samples["query"]:
        kinds[cls] = kinds.get(cls, 0) + 1
    return {
        "workload": run.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tail_percentile": TAIL,
        "steps_per_connection": run.workload.length(args.seconds / (1 + args.trace)),
        "requests": kinds,
        "registrations": len(samples["register"]),
        "probes": len(samples["healthz"]),
        "coalesced_share": samples["coalesced"] / max(1, samples["plan_lookups"]),
        "plan_hit_ratio": samples["plan_hits"] / max(1, samples["plan_lookups"]),
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "failed_share": run.tally.failed / max(1, run.tally.attempted),
        "failures": run.tally.reasons,
        "calibration_ms": {"before": calibration[0], "after": calibration[1]},
        "speed": samples.get("speed"),
        "measured": samples.get("measured"),
    }


async def boot_and_setup(run: Run, setups: list[float]) -> Service:
    service = await Service.boot()
    try:
        setups.append(await run.setup(service))
    except BaseException:
        await service.stop()
        raise
    return service


async def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """``--trace 0``: set up ``SETUP_BOOTS`` times, half of them before
    the timed phase (which runs on the last of those) and half after, so
    the set-up median spans the run."""
    setups: list[float] = []
    for _ in range(SETUP_BOOTS // 2 - 1):
        await (await boot_and_setup(run, setups)).stop()
    service = await boot_and_setup(run, setups)
    try:
        samples = await run.timed(service, seconds)
    finally:
        await service.stop()
    while len(setups) < SETUP_BOOTS:
        await (await boot_and_setup(run, setups)).stop()
    samples["measured"] = {
        name: value for name, (value, _) in measured(samples, setups).items()
    }
    samples["speed"] = speed(samples["slices"])
    return end_to_end(samples, setups), samples


async def trace(run: Run, seconds: float) -> tuple[dict, dict]:
    """``--trace 1``: an untraced half, then a traced half."""
    RUNS.mkdir(exist_ok=True)
    spans_path = RUNS / f"spans-{os.getpid()}.json"
    half = seconds / 2.0
    service = await Service.boot()
    try:
        await run.setup(service)
        plain = await run.timed(service, half)
    finally:
        await service.stop()
    service = await Service.boot(spans_path)
    try:
        await run.setup(service)
        traced = await run.timed(service, half)
    finally:
        await service.stop()
    try:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    finally:
        spans_path.unlink(missing_ok=True)
        if not any(RUNS.iterdir()):
            RUNS.rmdir()
    metrics = reduce_spans(spans, traced["window"], run.pass_ops)
    queries = len(nonempty(plain["query"], "untraced query"))
    plain_rps = queries / plain["busy_s"]
    traced_rps = len(nonempty(traced["query"], "traced query")) / traced["busy_s"]
    # Compare the halves at the same host speed; they ran at different times.
    plain_rps /= speed(plain["slices"])
    traced_rps /= speed(traced["slices"])
    metrics["service.cpu_ms_per_query"] = (plain["service_cpu_s"] * 1000.0 / queries, "ms")
    metrics["loadgen.cpu_share"] = (plain["loadgen_cpu_s"] / plain["wall_s"], "ratio")
    metrics["loadgen.lag_ms"] = (statistics.median(nonempty(plain["lag"], "prober lag")), "ms")
    metrics["trace.overhead_share"] = (1.0 - traced_rps / plain_rps, "ratio")
    return metrics, plain


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every booted service is stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    place_processes()
    workload = WORKLOADS[args.workload]
    before = calibrate()
    run = Run(workload, args.seed, Expectations(workload, args.seed))
    try:
        if args.trace:
            metrics, samples = asyncio.run(trace(run, args.seconds))
        else:
            metrics, samples = asyncio.run(measure(run, args.seconds))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except EmptySample as exc:
        print(f"perfbench: {exc} (failures: {run.tally.reasons})", file=sys.stderr)
        return 1
    after = calibrate()
    print("# context " + json.dumps(context_record(run, args, samples, (before, after))))
    for line in placement(run, samples):
        print("# placement " + json.dumps(line))
    correct = run.tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.tally.attempted,
                "failed": run.tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
