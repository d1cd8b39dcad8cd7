"""The benchmark's own tests: determinism, answer checks, spans, end to end.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from workloads import WORKLOADS, Expectations, OpSequence, request_body

ROOT = Path(__file__).resolve().parents[2]


def _sequence_bytes(workload, seed: int, steps: int = 300) -> bytes:
    solves = workloads.solve_payloads(seed)
    lines = []
    for connection in range(workload.query_connections):
        sequence = OpSequence(workload, seed, connection)
        for step in range(steps):
            request = sequence.at(step)
            if request.kind == "register":
                body = [request.database + request.suffix, request.index]
            else:
                body = request_body(request, solves)
            lines.append(json.dumps([connection, step, body], sort_keys=True))
    return "\n".join(lines).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_requests(name):
    workload = WORKLOADS[name]
    assert _sequence_bytes(workload, 7) == _sequence_bytes(workload, 7)
    assert _sequence_bytes(workload, 7) != _sequence_bytes(workload, 8)
    assert workloads.catalog(workload, 7) == workloads.catalog(workload, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_blocks_hold_the_mix_in_its_exact_shares(name):
    workload = WORKLOADS[name]
    queries = OpSequence(dataclasses.replace(workload, register_every=0), 3, 0)
    counts: dict[str, int] = {}
    for step in range(workload.block * 4):
        cls = queries.at(step).cls
        counts[cls] = counts.get(cls, 0) + 1
    assert counts == {cls: 4 * weight for cls, weight in workload.mix}
    # Registrations replace every ``register_every``-th step of connection 0.
    sequence = OpSequence(workload, 3, 0)
    steps = workload.block * workload.register_every
    kinds = [sequence.at(step).kind for step in range(steps)]
    assert kinds.count("register") == workload.block


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sequence_length_is_whole_blocks_ending_on_the_boot_content(name):
    workload = WORKLOADS[name]
    for seconds in (1, 25, 30):
        steps = workload.length(seconds)
        assert steps % workload.block == 0
        last = {}
        sequence = OpSequence(workload, 1, 0)
        for step in range(steps):
            request = sequence.at(step)
            if request.kind == "register":
                last[request.database] = request.index
        assert set(last.values()) <= {0}
        if not workload.copies:
            assert sorted(last) == workloads.database_names(workload)


def test_churn_connections_share_the_stated_positions():
    workload = WORKLOADS["churn"]
    first, second = OpSequence(workload, 5, 0), OpSequence(workload, 5, 1)
    block = workload.block
    same = sum(
        first._block(0, 0)[p] == second.at(p) for p in range(block)
    )
    assert same >= workload.shared_per_block


def _tiny(name):
    return dataclasses.replace(WORKLOADS[name], relation_size=60, domain_size=8)


def test_expectations_reject_a_wrong_answer():
    workload = _tiny("interactive")
    expect = Expectations(workload, 2)
    request = workloads.Request("query", "tri-enumerate", "db0")
    key = next(k for k in expect.queries if k[0] == "db0" and k[2] == "tri-enumerate")
    response = dict(expect.queries[key], request_id="r1", coalesced=False,
                    plan_cache={"hit": True, "key": "k"})
    assert expect.check(request, response)
    assert not expect.check(request, dict(response, answers=response["answers"][1:]))
    assert not expect.check(request, dict(response, ops=response["ops"] + 1))
    assert not expect.check(request, dict(response, fingerprint="0" * 64))


def test_fresh_names_change_only_the_free_variables():
    workload = _tiny("churn")
    expect = Expectations(workload, 4)
    relations = expect.catalogs[0]["db1"]
    for cls in ("tri-boolean", "tri-counting", "tri-enumerate", "path-boolean"):
        base = workloads.expected_query(cls, "db1", relations)
        request = workloads.Request("query", cls, "db1", suffix="_s0b1p2")
        body = workloads.query_payload(cls, "db1", "_s0b1p2")
        assert all(a.endswith("_s0b1p2") for atom in body["atoms"] for a in atom["attributes"])
        fresh = dict(workloads.renamed(base, "_s0b1p2"), request_id="r", plan_cache={})
        assert expect.check(request, fresh)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        ["parent", "r1", -1, 0.0, 10.0, {}],
        ["child", "r1", 0, 1.0, 4.0, {}],
        ["child", "r1", 0, 3.0, 5.0, {}],
        ["grandchild", "r1", 1, 2.0, 3.0, {}],
        ["late", "r1", 0, 9.0, 12.0, {}],
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 2.0, 1.0, 3.0])


def test_reducer_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = set(spans.reduce_spans([], (0.0, 1.0), {}))
    process = {
        "service.cpu_ms_per_query",
        "loadgen.cpu_share",
        "loadgen.lag_ms",
        "trace.overhead_share",
    }
    assert traced | process == {metric["name"] for metric in spec["per_layer"]}


def _run(capsys, argv) -> dict:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_configuration_runs_end_to_end(name, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "SETUP_BOOTS", 2)
    result = _run(capsys, ["--workload", name, "--seed", "3", "--seconds", "1.5"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name_, metric in result["metrics"].items():
        assert metric["value"] > 0, name_


def test_any_failed_operation_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "churn", _tiny("churn"))
    monkeypatch.setattr(run, "SETUP_BOOTS", 2)
    timed = run.Run.timed

    async def timed_with_a_failure(self, service, seconds):
        samples = await timed(self, service, seconds)
        self.tally.record(False, "http 400")
        return samples

    monkeypatch.setattr(run.Run, "timed", timed_with_a_failure)
    argv = ["--workload", "churn", "--seed", "2", "--seconds", "1"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1


def test_an_empty_sample_is_not_reported():
    samples = {"query": [("q", 1.0)], "healthz": [], "register": [2.0],
               "busy_s": 1.0, "peak_rss_mb": 50.0, "slices": [0.4]}
    with pytest.raises(run.EmptySample):
        run.end_to_end(samples, [1.0])


def test_times_are_scaled_to_the_reference_host_speed():
    # Slices at twice the reference time: the host ran at half speed.
    samples = {"query": [("q", 10.0)], "healthz": [4.0], "register": [2.0],
               "busy_s": 2.0, "peak_rss_mb": 50.0,
               "slices": [2 * run.REFERENCE_SLICE_MS] * 3}
    metrics = run.end_to_end(samples, [1.0, 3.0, 2.0])
    assert metrics["query_p50_ms"] == (pytest.approx(5.0), "ms")
    assert metrics["healthz_p50_ms"] == (pytest.approx(2.0), "ms")
    assert metrics["register_p50_ms"] == (pytest.approx(1.0), "ms")
    assert metrics["throughput_rps"] == (pytest.approx(1.0), "1/s")
    # Set-up is not scaled.
    assert metrics["setup_s"] == (2.0, "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")


def test_route_op_counts_repeat_exactly(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "analytic", _tiny("analytic"))
    argv = ["--workload", "analytic", "--seed", "5", "--seconds", "1", "--trace", "1"]
    first = _run(capsys, argv)["metrics"]
    second = _run(capsys, argv)["metrics"]
    ops = [name for name in first if name.endswith(".ops")]
    assert len(ops) == len(spans.ROUTES)
    assert {n: first[n]["value"] for n in ops} == {n: second[n]["value"] for n in ops}
    assert first["route.treewidth-dp.ops"]["value"] > 0
    assert first["route.wcoj.ops"]["value"] > 0


def test_fails_without_the_service_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
