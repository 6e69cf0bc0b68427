"""Run-to-run steadiness of the end-to-end metrics.

    python3 e2ebench/steadiness.py --workloads pipeline refresh serve \\
        --seeds 1-10 --out e2ebench/results/steadiness.json
    python3 e2ebench/steadiness.py --workloads pipeline refresh serve \\
        --seeds 7 --repeat 10 --out e2ebench/results/repeat-seed7.json
    python3 e2ebench/steadiness.py --compare A.json B.json

Runs ``run.py`` ``--repeat`` times per (workload, seed) with
``BENCHMARK.json``'s ``run_seconds`` and ``--trace 0``, then reports for
every end-to-end metric, ``setup_s`` included, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread — the interquartile
distance as a share of the median — next to the metric's bound.  A
spread over a third of its bound is flagged, one over the bound is
marked as such.  ``--compare`` prints, for two saved reports, how far
each median moved from the first to the second, as a share of the
first, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    doc["wall_s"] = time.perf_counter() - start
    # The printed figures above the JSON line: "<name>  <value> <unit>".
    doc["figures"] = {
        fields[0]: float(fields[1])
        for fields in (line.split() for line in lines[:-1])
        if len(fields) == 3
    }
    return doc


def summarize(values: list[float], bound: float | None = None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out.update(bound=bound, spread_over_bound=spread / bound)
    return out


def flag(ratio: float) -> str:
    """Marks a spread (or shift) by its share of the bound."""
    if ratio > 1:
        return "  OVER BOUND"
    return "  > bound/3" if ratio > 1 / 3 else ""


def compare(first_path: str, second_path: str) -> int:
    with open(first_path, encoding="utf-8") as fh:
        first = json.load(fh)
    with open(second_path, encoding="utf-8") as fh:
        second = json.load(fh)
    worst = 0.0
    print(f"{'workload':<10} {'metric':<14} {'median 1':>12} {'median 2':>12} {'shift':>8} {'bound':>6}")
    for workload, doc in first["workloads"].items():
        for name, m in doc["metrics"].items():
            other = second["workloads"][workload]["metrics"][name]
            shift = (other["median"] - m["median"]) / abs(m["median"])
            worst = max(worst, abs(shift) / m["bound"])
            print(f"{workload:<10} {name:<14} {m['median']:>12.6g} {other['median']:>12.6g} "
                  f"{shift:>+8.4f} {m['bound']:>6}{flag(abs(shift) / m['bound'])}")
    print(f"\nworst |shift| / bound: {worst:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workloads:
        parser.error("--workloads is required without --compare")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {
        "run_seconds": seconds, "seeds": seeds, "repeat": args.repeat, "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            for _ in range(args.repeat):
                doc = run_once(workload, seed, seconds)
                if not doc["correct"]:
                    raise RuntimeError(f"{workload} seed {seed}: a correctness check failed")
                runs.append(doc)
                print(f"{workload} seed {seed}: {doc['wall_s']:.1f} s wall",
                      file=sys.stderr, flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        # The measured values behind the host-scaled ones, for comparison.
        raw = {
            name: summarize([r["figures"][name] for r in runs])
            for name in ("host.slowdown", *(f"{n}.raw" for n in bounds))
            if all(name in r["figures"] for r in runs)
        }
        report["workloads"][workload] = {
            "wall_s": [r["wall_s"] for r in runs], "metrics": metrics, "measured": raw,
        }
        print(f"\n{workload} ({len(runs)} runs, {statistics.median(r['wall_s'] for r in runs):.1f} s median wall)")
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, m in metrics.items():
            worst = max(worst, m["spread_over_bound"])
            print(f"{name:<14} {m['median']:>12.6g} {m['q1']:>12.6g} {m['q3']:>12.6g} "
                  f"{m['spread']:>8.4f} {m['bound']:>6}{flag(m['spread_over_bound'])}")
        for name, m in raw.items():
            print(f"{name:<18} {m['median']:>8.6g} {m['q1']:>12.6g} {m['q3']:>12.6g} "
                  f"{m['spread']:>8.4f}  (measured, not host-scaled)")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print(f"\nworst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
