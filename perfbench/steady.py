"""Steadiness evidence: repeat one workload and summarise every metric.

    python3 perfbench/steady.py --workload analytic --runs 10 --bounds

Runs ``run.py`` once per seed (``--first-seed``, ``--first-seed + 1``,
...), one after another, for ``run_seconds`` of ``BENCHMARK.json``
unless ``--seconds`` is given, and prints for each metric its median,
quartiles (``statistics.quantiles(values, n=4)``), range and the
interquartile spread as a share of the median. It also prints, per run,
where each reported query percentile landed in the workload's mix (see
``run.placement``), the host calibration time before and after the run
and the host speed its times were scaled by. With ``--bounds`` it
compares each spread with the metric's bound in ``BENCHMARK.json`` and
exits 1 if any spread exceeds it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"run.py failed (seed {seed}, exit {completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    notes = [line for line in lines[:-1] if line.startswith("# ")]
    return json.loads(lines[-1]), notes


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / middle if middle else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bounds", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for offset in range(args.runs):
        seed = args.first_seed + offset
        result, notes = run_once(args.workload, seed, seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        context = next(
            (json.loads(n[len("# context "):]) for n in notes if n.startswith("# context ")),
            {},
        )
        placed = [
            json.loads(n[len("# placement "):]) for n in notes if n.startswith("# placement ")
        ]
        calibration = context.get("calibration_ms", {})
        speed = context.get("speed") or 0.0
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} calibration_ms="
            f"{calibration.get('before', 0):.1f}/{calibration.get('after', 0):.1f} "
            f"speed={speed:.3f}"
        )
        print("  " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ))
        for entry in placed:
            if "metric" in entry:
                print(
                    f"  {entry['metric']} (q={entry['q']}): band {entry['band_class']} "
                    f"margin {entry['margin']}, sample from {entry['sampled_class']}, "
                    f"{entry['beyond']} beyond"
                )
            else:
                print("  classes: " + ", ".join(
                    f"{c['class']} {c['share']:.3f} @ {c['median_ms']:.2f} ms"
                    for c in entry["classes"]
                ))
        sys.stdout.flush()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_within = True
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    for name, series in values.items():
        stats = summarise(series)
        bound = bounds.get(name)
        verdict = ""
        if args.bounds and bound is not None:
            ok = stats["spread"] <= bound
            all_within = all_within and ok
            verdict = f"  bound {bound:.2f} {'ok' if ok else 'EXCEEDED'}"
        print(
            f"  {name:28s} {units[name]:6s} median {stats['median']:12.4f}  "
            f"q1 {stats['q1']:12.4f}  q3 {stats['q3']:12.4f}  "
            f"range [{stats['min']:.4f}, {stats['max']:.4f}]  "
            f"spread {stats['spread']:.3f}{verdict}"
        )
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
