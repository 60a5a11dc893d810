"""Run the benchmark several times per workload and report each metric's spread.

    python3 bench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Each run is ``python3 bench/run.py`` with one seed and BENCHMARK.json's
run_seconds, run one after another. For every metric the report gives the
median of the runs, the first and third quartiles and the spread: the
quartile distance as a share of the median, which BENCHMARK.json's bounds
must exceed. ``--out`` also writes the runs and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall)
            doc.setdefault("provenance", next(
                (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")), None))
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload}: {len(runs)} runs, {sum(r['wall_s'] for r in runs):.0f} s")
        for name, s in summary.items():
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None and not args.trace else ""
            print(f"  {name:42s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
