"""Workload definitions: seeded catalogs, request sequences, expected answers.

Everything here is a pure function of the workload, the seed and the
run length, so the same arguments yield byte-identical databases and
request sequences on every commit. A connection's sequence is a whole
number of *blocks*; each block holds every query class of the
workload's mix in its exact share, shuffled by a per-block seed. Every
run therefore sends the mix in its stated shares, which keeps each
reported percentile inside the same class of the mix from run to run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from repro.counting import CostCounter
from repro.csp.solver import solve as solve_csp
from repro.generators.agm import uniform_random_database
from repro.observability.metrics import MetricsRegistry, activate_metrics
from repro.observability.tracing import TraceContext, activate
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import execute_route
from repro.relational.semiring import get_semiring
from repro.service.executor import canonical_answers
from repro.service.server import csp_from_payload, strip_volatile
from repro.service.store import (
    database_from_payload,
    fingerprint_payload,
    relations_payload,
)

TRIANGLE = (("R1", ("a1", "a2")), ("R2", ("a1", "a3")), ("R3", ("a2", "a3")))
PATH = (("R1", ("a1", "a2")), ("R3", ("a2", "a3")))

#: Query classes: ``/query`` payloads minus the database name. The route
#: each one takes today is noted; the benchmark checks answers, not routes.
QUERY_CLASSES = {
    "tri-boolean": {"atoms": TRIANGLE, "mode": "boolean"},  # wcoj
    "path-boolean": {"atoms": PATH, "mode": "boolean"},  # yannakakis
    "tri-enumerate": {"atoms": TRIANGLE, "mode": "enumerate"},  # wcoj
    "tri-counting": {"atoms": TRIANGLE, "mode": "aggregate", "semiring": "counting"},
    "tri-minplus": {"atoms": TRIANGLE, "mode": "aggregate", "semiring": "minplus"},
    "path-counting": {"atoms": PATH, "mode": "aggregate", "semiring": "counting"},
    "path-minplus": {"atoms": PATH, "mode": "aggregate", "semiring": "minplus"},
    "path-project": {"atoms": PATH, "mode": "enumerate", "free": ("a1", "a3")},
    "path-enumerate": {"atoms": PATH, "mode": "enumerate"},  # factorized
    "tri-count": {"atoms": TRIANGLE, "mode": "count"},  # treewidth-dp
}

#: The ``/solve`` class: 3-colouring of a small seeded random graph.
SOLVE_CLASS = "csp-solve"
SOLVE_VERTICES = 12
SOLVE_EDGES = 20
SOLVE_INSTANCES = 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one seeded catalog."""

    name: str
    #: Tuples per relation and value domain of each catalog database.
    relation_size: int
    domain_size: int
    databases: int
    #: ``(class, requests per block)``; a block is one exact copy of the mix.
    mix: tuple[tuple[str, int], ...]
    #: Closed-loop query connections; they advance in lockstep rounds,
    #: one request each per round.
    query_connections: int
    #: Nominal requests per second of one connection on a 2-core host.
    #: It sizes the sequence for ``--seconds``; it is a constant, never
    #: measured at run time, so both sides of a comparison send the
    #: same sequence.
    rate: float
    #: Requests per block that every query connection sends alike, so
    #: the identical requests of a round coalesce.
    shared_per_block: int = 0
    #: Connection 0 registers a database every this many operations.
    register_every: int = 0
    #: Whether those registrations write a copy of the database, which no
    #: query reads, instead of swapping the content of the database itself.
    copies: bool = False
    #: Requests per block that use fresh variable names (never repeat).
    fresh_per_block: int = 0

    @property
    def block(self) -> int:
        return sum(weight for _, weight in self.mix)

    def length(self, seconds: float) -> int:
        """Steps per connection in a ``seconds``-long run: whole blocks,
        and whole registration cycles (each database new, identical,
        back to the boot content, identical)."""
        unit = self.block
        if self.register_every and not self.copies:
            cycle = self.register_every * 4 * self.databases
            unit = cycle * unit // math.gcd(cycle, unit)
        return unit * max(1, round(seconds * self.rate / unit))


#: The percentile reported as ``query_tail_ms`` and ``healthz_tail_ms``
#: on every workload.
TAIL = 0.95
#: Period of the open-loop ``/healthz`` prober every workload runs, s.
PROBE_INTERVAL_S = 0.02

WORKLOADS = {
    # Engine- and encode-bound reads on warm plans: four distinct
    # databases, every route but treewidth-dp. The only writes are
    # copies, every 25th operation, which no query reads. Ordered by
    # latency, the cheap classes fill the first 35% of the sample, so
    # p50 sits in the middle of tri-counting's 30% band; p95 sits inside
    # path-enumerate, the slowest 10%.
    "interactive": Workload(
        name="interactive",
        relation_size=1000,
        domain_size=125,
        databases=4,
        mix=(
            ("tri-boolean", 3),
            ("path-boolean", 3),
            (SOLVE_CLASS, 1),
            ("tri-counting", 6),
            ("tri-enumerate", 1),
            ("tri-minplus", 1),
            ("path-counting", 1),
            ("path-minplus", 1),
            ("path-project", 1),
            ("path-enumerate", 2),
        ),
        query_connections=2,
        rate=38.0,
        register_every=25,
        copies=True,
    ),
    # One query blocks the loop: a quarter cyclic count (treewidth-dp,
    # hundreds of ms), the rest cyclic aggregate(counting) (wcoj, a few
    # ms). p50 sits inside tri-counting (the first 75%), p95 inside
    # tri-count, 20% above the edge between the two. Every 10th
    # operation registers a copy of a database, which no query reads.
    "analytic": Workload(
        name="analytic",
        relation_size=1000,
        domain_size=125,
        databases=2,
        mix=(("tri-counting", 3), ("tri-count", 1)),
        query_connections=1,
        rate=14.0,
        register_every=10,
        copies=True,
    ),
    # Writes beside cheap reads: the two connections send half their
    # requests together, so identical requests coalesce; connection 0
    # re-registers a database every 10th operation; a fifth of the
    # queries use fresh variable names, overflowing the plan cache.
    "churn": Workload(
        name="churn",
        relation_size=500,
        domain_size=62,
        databases=3,
        mix=(
            ("tri-boolean", 4),
            ("path-boolean", 4),
            ("tri-counting", 8),
            ("tri-enumerate", 4),
        ),
        query_connections=2,
        rate=180.0,
        shared_per_block=10,
        register_every=10,
        fresh_per_block=4,
    ),
}


def database_names(workload: Workload) -> list[str]:
    return [f"db{index}" for index in range(workload.databases)]


def catalog(workload: Workload, seed: int, variant: int = 0) -> dict[str, list]:
    """The workload's databases as registration payloads.

    Each database's *structure* (which tuples join with which) is fixed
    per workload, database and ``variant``; the seed only relabels the
    domain values by a seeded permutation. Every seed therefore gives
    different inputs that take the same work (join sizes, degrees and
    answer counts are equal), so run-to-run spread measures the service,
    not the luck of the draw. ``variant`` 0 is the boot content; variant
    1 is the alternative content the churn workload swaps in.
    """
    payloads = {}
    for name in database_names(workload):
        database = uniform_random_database(
            JoinQuery.triangle(),
            workload.relation_size,
            workload.domain_size,
            seed=random.Random(f"structure:{workload.name}:{name}:{variant}"),
        )
        relabel = list(range(workload.domain_size))
        random.Random(f"relabel:{workload.name}:{name}:{variant}:{seed}").shuffle(relabel)
        relations = [
            {
                "name": relation["name"],
                "attributes": relation["attributes"],
                "tuples": [[relabel[v] for v in t] for t in relation["tuples"]],
            }
            for relation in relations_payload(database)
        ]
        payloads[name] = relations_payload(database_from_payload(relations))
    return payloads


def solve_payloads(seed: int) -> list[dict]:
    """3-colouring instances for the ``/solve`` class.

    As with the catalog, the graphs are fixed and the seed relabels
    their vertices.
    """
    instances = []
    for number in range(SOLVE_INSTANCES):
        rng = random.Random(f"solve:{number}")
        edges: set[tuple[int, int]] = set()
        while len(edges) < SOLVE_EDGES:
            u, v = rng.sample(range(SOLVE_VERTICES), 2)
            edges.add((min(u, v), max(u, v)))
        names = list(range(SOLVE_VERTICES))
        random.Random(f"solve:{number}:{seed}").shuffle(names)
        allowed = [[a, b] for a in range(3) for b in range(3) if a != b]
        instances.append(
            {
                "domain": [0, 1, 2],
                "constraints": [
                    {"scope": [f"v{names[u]}", f"v{names[v]}"], "allowed": allowed}
                    for u, v in sorted(edges)
                ],
                "method": "auto",
            }
        )
    return instances


def _atoms_payload(atoms, suffix: str = "") -> list[dict]:
    return [
        {"relation": relation, "attributes": [a + suffix for a in attributes]}
        for relation, attributes in atoms
    ]


def query_payload(cls: str, database: str, suffix: str = "") -> dict:
    """The ``/query`` body of one class; ``suffix`` renames every variable."""
    spec = QUERY_CLASSES[cls]
    payload = {
        "database": database,
        "atoms": _atoms_payload(spec["atoms"], suffix),
        "mode": spec["mode"],
    }
    if "free" in spec:
        payload["free"] = [a + suffix for a in spec["free"]]
    if "semiring" in spec:
        payload["semiring"] = spec["semiring"]
    return payload


@dataclass(frozen=True)
class Request:
    """One operation of a connection's sequence."""

    kind: str  # "query", "solve" or "register"
    cls: str
    database: str
    #: ``/solve`` instance index, or the registered catalog variant.
    index: int = 0
    #: Variable-name suffix of a fresh-name query, or the name suffix of
    #: a registered copy ("" otherwise).
    suffix: str = ""


class OpSequence:
    """The deterministic, unbounded operation sequence of one connection.

    Connection ``c`` walks its own seeded stream of blocks. In a workload
    with ``shared_per_block``, connections other than 0 take stream 0's
    request at that many seeded positions of each block, so identical
    requests go out together and coalesce.
    """

    def __init__(self, workload: Workload, seed: int, connection: int) -> None:
        self.workload = workload
        self.seed = seed
        self.connection = connection
        self._blocks: dict[tuple[int, int], list[Request]] = {}
        self._shared_positions: tuple[int, set[int]] = (-1, set())

    def _block(self, stream: int, number: int) -> list[Request]:
        block = self._blocks.get((stream, number))
        if block is None:
            workload = self.workload
            rng = random.Random(f"sequence:{workload.name}:{self.seed}:{stream}:{number}")
            classes = [cls for cls, weight in workload.mix for _ in range(weight)]
            rng.shuffle(classes)
            fresh = set(rng.sample(range(len(classes)), workload.fresh_per_block))
            names = database_names(workload)
            block = []
            for position, cls in enumerate(classes):
                database = names[rng.randrange(len(names))]
                if cls == SOLVE_CLASS:
                    index = rng.randrange(SOLVE_INSTANCES)
                    block.append(Request("solve", cls, "", index=index))
                    continue
                suffix = f"_s{stream}b{number}p{position}" if position in fresh else ""
                block.append(Request("query", cls, database, suffix=suffix))
            if len(self._blocks) > 4:
                self._blocks.clear()
            self._blocks[(stream, number)] = block
        return block

    def _shared(self, number: int) -> set[int]:
        if self._shared_positions[0] != number:
            rng = random.Random(f"shared:{self.workload.name}:{self.seed}:{number}")
            positions = rng.sample(range(self.workload.block), self.workload.shared_per_block)
            self._shared_positions = (number, set(positions))
        return self._shared_positions[1]

    def at(self, step: int) -> Request:
        """Operation ``step`` (0-based) of this connection."""
        workload = self.workload
        every = workload.register_every
        if every and self.connection == 0 and step % every == every - 1:
            # Registrations walk the databases in turn; unless they write
            # copies, they alternate new content (fingerprint changes)
            # with identical content.
            number = step // every
            names = database_names(workload)
            database = names[number % len(names)]
            if workload.copies:
                return Request("register", "register", database, suffix="-copy")
            rounds = number // len(names)
            variant = (rounds // 2 + 1) % 2
            return Request("register", "register", database, index=variant)
        number, position = divmod(step, workload.block)
        stream = self.connection
        if stream and position in self._shared(number):
            stream = 0
        return self._block(stream, number)[position]


def request_body(request: Request, solves: list[dict]) -> tuple[str, str, dict]:
    """``(method, path, body)`` of a query or solve request."""
    if request.kind == "solve":
        return "POST", "/solve", solves[request.index]
    return "POST", "/query", query_payload(request.cls, request.database, request.suffix)


def _json_round_trip(payload):
    return json.loads(json.dumps(payload, sort_keys=True, default=repr))


def expected_query(cls: str, database_name: str, relations: list[dict]) -> dict:
    """The volatile-stripped ``/query`` response, computed in-process.

    Evaluates through :func:`repro.relational.router.execute_route` under a
    fresh request-scoped trace and metrics registry, as the service does.
    """
    body = query_payload(cls, database_name)
    database = database_from_payload(relations)
    query = JoinQuery(
        Atom(atom["relation"], tuple(atom["attributes"])) for atom in body["atoms"]
    )
    semiring = get_semiring(body["semiring"]) if "semiring" in body else None
    registry = MetricsRegistry()
    counter = CostCounter()
    with activate(TraceContext(track="expected")), activate_metrics(registry):
        answer = execute_route(
            query,
            database,
            free=body.get("free"),
            mode=body["mode"],
            counter=counter,
            semiring=semiring,
        )
    free = list(body["free"]) if "free" in body else list(query.attributes)
    expected = {
        "database": database_name,
        "fingerprint": fingerprint_payload(relations_payload(database)),
        "mode": body["mode"],
        "free": free,
        "route": answer.decision.route,
        "reason": answer.decision.reason,
        "ops": answer.ops,
        "metrics": registry.to_payload(),
    }
    if answer.relation is not None:
        expected["answers"] = canonical_answers(answer.relation.tuples)
    if answer.count is not None:
        expected["count"] = answer.count
    if answer.nonempty is not None:
        expected["nonempty"] = answer.nonempty
    if semiring is not None:
        expected["semiring"] = semiring.name
        expected["aggregate"] = semiring.to_payload(answer.aggregate)
    return _json_round_trip(expected)


def renamed(expected: dict, suffix: str) -> dict:
    """The expected response of a fresh-name query: only ``free`` changes."""
    if not suffix:
        return expected
    return dict(expected, free=[a + suffix for a in expected["free"]])


def expected_solve(payload: dict) -> dict:
    """The ``/solve`` response minus ``request_id``, computed in-process.

    The assignment is checked against every constraint here, so a
    response equal to it satisfies them too.
    """
    instance = csp_from_payload(payload)
    registry = MetricsRegistry()
    counter = CostCounter()
    with activate(TraceContext(track="expected")), activate_metrics(registry):
        assignment = solve_csp(instance, method=payload["method"], counter=counter)
    if assignment is not None and not instance.is_solution(assignment):
        raise AssertionError("in-process solve returned a non-solution")
    return _json_round_trip(
        {
            "method": payload["method"],
            "variables": list(instance.variables),
            "satisfiable": assignment is not None,
            "assignment": (
                sorted(([v, assignment[v]] for v in assignment), key=repr)
                if assignment is not None
                else None
            ),
            "ops": counter.total,
            "metrics": registry.to_payload(),
        }
    )


class Expectations:
    """Expected responses for every (database, content, class) a run sends."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        variants = 2 if workload.register_every and not workload.copies else 1
        #: ``catalogs[variant][database]`` registration payloads.
        self.catalogs = [catalog(workload, seed, v) for v in range(variants)]
        self.fingerprints = [
            {name: fingerprint_payload(relations) for name, relations in cat.items()}
            for cat in self.catalogs
        ]
        self.solves = solve_payloads(seed)
        query_classes = sorted({cls for cls, _ in workload.mix if cls != SOLVE_CLASS})
        self.queries: dict[tuple[str, str, str], dict] = {}
        for cat in self.catalogs:
            for name, relations in cat.items():
                for cls in query_classes:
                    expected = expected_query(cls, name, relations)
                    self.queries[(name, expected["fingerprint"], cls)] = expected
        self.solve_answers = [expected_solve(payload) for payload in self.solves]

    def distinct_requests(self) -> list[Request]:
        """One request per (database, class) on the boot content: the warm pass."""
        requests = []
        for cls, _ in self.workload.mix:
            if cls == SOLVE_CLASS:
                requests.extend(
                    Request("solve", cls, "", index=i) for i in range(len(self.solves))
                )
            else:
                requests.extend(
                    Request("query", cls, name) for name in self.catalogs[0]
                )
        return requests

    def check(self, request: Request, response: dict) -> bool:
        """Whether a 200 response is exactly the expected answer."""
        if request.kind == "solve":
            stripped = {k: v for k, v in response.items() if k != "request_id"}
            return stripped == self.solve_answers[request.index]
        if request.kind == "register":
            return (
                response.get("fingerprint")
                == self.fingerprints[request.index][request.database]
            )
        key = (request.database, response.get("fingerprint"), request.cls)
        expected = self.queries.get(key)
        if expected is None:
            return False
        return strip_volatile(response) == renamed(expected, request.suffix)
