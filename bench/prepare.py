"""Build one workload's inputs from its seed, several times, and time each build.

    python3 bench/prepare.py <workload> <seed> <directory>

After one untimed warm-up build, builds repeat at least three times and
until two seconds of build time have passed, so that cheap set-ups still
give a steady median. Each build goes to
its own subdirectory of <directory>. Builds with the same seed must be
byte-identical; all but the last are removed afterwards. The last line of
standard output is a JSON object with the build times, in seconds of process
CPU time scaled to reference speed as ``run.py`` times operations (see
bench/calibration.py), and the directory that holds the kept inputs.
``run.py`` runs this in a separate interpreter so that set-up does not count
towards the peak RSS of the measuring process.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from calibration import Calibration  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def tree_digests(root: Path) -> dict:
    return {str(p.relative_to(root)): digest(p) for p in sorted(root.rglob("*")) if p.is_file()}


def prepare(workload, seed: int, directory: Path, min_builds: int = 3, min_seconds: float = 2.0,
            max_builds: int = 15, calibration=None) -> tuple[list, Path]:
    """Builds the inputs once untimed, to warm up, then at least ``min_builds``
    times and until ``min_seconds`` of build time have passed, at most
    ``max_builds`` times. With a calibration, each build time is scaled to
    reference speed by kernel samples taken just before and after it."""
    times, builds = [], []

    def build() -> None:
        d = directory / f"inputs{len(builds)}"
        d.mkdir(parents=True)
        workload.prepare(seed, d)
        builds.append(d)

    build()
    while len(times) < min_builds or (sum(times) < min_seconds and len(times) < max_builds):
        before = calibration.sample() if calibration is not None else None
        start = time.process_time()
        build()
        seconds = time.process_time() - start
        if calibration is not None:
            seconds *= calibration.factor(before, calibration.sample())
        times.append(seconds)
    first = tree_digests(builds[0])
    for d in builds[1:]:
        if tree_digests(d) != first:
            raise RuntimeError(f"seed {seed}: inputs differ between builds {builds[0]} and {d}")
    for d in builds[:-1]:
        shutil.rmtree(d)
    return times, builds[-1]


def main(argv) -> int:
    name, seed, directory = argv
    calibration = Calibration()
    times, kept = prepare(WORKLOADS[name](), int(seed), Path(directory), calibration=calibration)
    print(json.dumps({"setup_s": times, "inputs": str(kept)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
