"""Benchmark of the fatiguemotion CLI: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it finds the package source in ``src/`` next to
``bench/`` and works in ``.bench_work/`` at the repository root. Set-up
(the workload's inputs, built from the seed) runs several times in a
separate interpreter and is timed. This process then runs rounds of CLI
operations, closed loop with one caller, for ``--seconds`` seconds, and
checks every operation's outputs. Times are process CPU time scaled to a
reference machine speed (bench/calibration.py). With ``--trace 0`` it
reports the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` it runs each round twice, untraced and then with span wrappers
installed, and reports the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. See bench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

# BLAS threads are pinned before numpy loads (it is first imported in main):
# the LSTM matmuls are tiny, and their time moves about 2x with the OpenBLAS
# thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 150


class Rounds:
    """Runs a workload's rounds, times each operation and tallies failures.

    Operations are timed in process CPU time, which on a shared virtual
    machine leaves out the time the host hands the CPU to other guests; the
    operations are single-threaded and CPU-bound, BLAS included, so on an
    idle machine it equals their wall time. The time each check sees is
    scaled to reference speed by the calibration kernel sampled just before
    and after the operation. Wall times are kept for the printout.
    """

    def __init__(self, workload, calibration):
        self.workload = workload
        self.calibration = calibration
        self.samples = defaultdict(list)
        self.walls = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.cpu_seconds = 0.0  # calibrated
        self.count = 0

    def run(self, k: int, tracer=None) -> None:
        from workloads import CheckFailed, run_cli

        for label, argv in self.workload.ops(k):
            before = self.calibration.sample()
            self.attempted += 1
            try:
                with tracer.op(label) if tracer else nullcontext():
                    wall, cpu = time.perf_counter(), time.process_time()
                    code, output = run_cli(argv)
                    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
                factor = self.calibration.factor(before, self.calibration.sample())
                self.cpu_seconds += cpu * factor
                if code != 0:
                    raise CheckFailed(f"exit code {code}: {output.strip()[-500:]}")
                for name, value in self.workload.check(label, cpu * factor).items():
                    self.samples[name].append(value)
                self.walls[label.split(":")[0]].append(wall)
            except CheckFailed as exc:
                self.failed += 1
                print(f"FAILED {label}: {exc}", file=sys.stderr)
            except Exception:  # an operation that raises is a failed operation; keep measuring
                self.failed += 1
                print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
        self.count += 1


def repeat(seconds: float, min_rounds: int, step) -> None:
    """Calls step(0), step(1), ... while the next call is expected to end within ``seconds``."""
    start = time.perf_counter()
    durations = []
    while len(durations) < min_rounds or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)


def tail(samples):
    """(percentile, value) of the highest whole percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def assemble(metrics: dict, declared: dict) -> dict:
    """Every declared metric with its unit; a layer the workload never entered reads 0."""
    unknown = set(metrics) - set(declared)
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in declared.items()}


def setup(name: str, seed: int, work: Path) -> tuple[list, Path]:
    """Calibrated build times and the inputs, from a separate interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), name, str(seed), str(work / "setup")],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], Path(doc["inputs"])


def measure(workload, seconds: float, trace: bool, spans_path: Path, calibration):
    """Returns (metrics, attempted, failed, lines to print)."""
    if not trace:
        rounds = Rounds(workload, calibration)
        repeat(seconds, workload.min_rounds, rounds.run)
        metrics = workload.e2e(rounds.samples)
        lines = [f"calibration.kernel_ms = {calibration.kernel_ms():.6g} ms (median, n={len(calibration.samples)})"]
        for name, (unit, value) in workload.named(rounds.samples).items():
            if not isinstance(value, list):
                text = f"{name} = {value:.6g} {unit}"
            elif value:
                text = f"{name} = {statistics.median(value):.6g} {unit} (median, n={len(value)})"
                if tail(value):
                    p, v = tail(value)
                    text += f", p{p} = {v:.6g} {unit}"
            else:
                text = f"{name}: no successful operation"
            lines.append(text)
        for label, walls in rounds.walls.items():
            lines.append(f"wall.{label} = {1e3 * statistics.median(walls):.6g} ms (median, n={len(walls)})")
        return metrics, rounds.attempted, rounds.failed, lines

    from fatiguemotion import compartments
    from tracing import Tracer, layer_metrics

    # Untraced and traced rounds alternate, so that drift in the machine's
    # speed falls on both sides of the overhead comparison alike.
    plain, traced, tracer = Rounds(workload, calibration), Rounds(workload, calibration), Tracer()

    def pair(k: int) -> None:
        plain.run(k)
        tracer.install()
        try:
            traced.run(k, tracer)
        finally:
            tracer.restore()

    repeat(seconds, workload.min_rounds, pair)
    metrics = layer_metrics(tracer, traced.count, compartments.MAX_STEP)
    metrics.update(workload.layer_extras())
    metrics["trace.overhead_pct"] = 100.0 * (traced.cpu_seconds / plain.cpu_seconds - 1.0)
    metrics["calibration.kernel_ms"] = calibration.kernel_ms()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    lines = [f"spans of {traced.count} traced rounds -> {spans_path}"]
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fatiguemotion" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fatiguemotion
    from calibration import Calibration
    from workloads import WORKLOADS

    if Path(fatiguemotion.__file__).resolve().parent != SRC / "fatiguemotion":
        print(f"imported fatiguemotion from {fatiguemotion.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    trace = bool(args.trace)
    declared = declared_metrics(trace)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s, inputs = setup(args.workload, args.seed, work)
        workload = WORKLOADS[args.workload]()
        workload.start(inputs, work)
        spans_path = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        calibration = Calibration()
        metrics, attempted, failed, lines = measure(workload, args.seconds, trace, spans_path, calibration)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        metrics["setup_s"] = statistics.median(setup_s)
        # ru_maxrss is in KiB on Linux.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        result = assemble(metrics, declared)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_s)}")
    for line in lines:
        print(line)
    for name, m in result.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
