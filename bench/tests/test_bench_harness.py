"""The benchmark's own tests, on tiny workloads.

    python3 -m pytest bench/tests -q
"""
import json
from pathlib import Path

import pytest

import prepare
import run
import tracing
from calibration import Calibration
from fatiguemotion import compartments as cc
from workloads import ApplyFatigue, DeskData, FatigueModel, TrainSurrogates

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_DATA = DeskData(trials=4, frames=40, segments=2)


def tiny_workloads():
    return [
        TrainSurrogates(TINY_DATA, layers=1, hidden=4, window=16, stride=8),
        ApplyFatigue(TINY_DATA, layers=1, hidden=4, window=16, checkpoint_stride=8,
                     mix=(40, 80, 40), frames_per_segment=20),
        FatigueModel(frames=600, bout_s=(2.0, 6.0), rest_s=(1.0, 3.0), params=cc.Cc3Params(F=0.5, R=0.05),
                     pinn_loads=2, pinn_t=20.0, pinn_frames=10, pinn_epochs=3, pinn_hidden=8),
    ]


def measured(workload, tmp_path, trace):
    _, inputs = prepare.prepare(workload, 3, tmp_path / "setup", min_builds=1, min_seconds=0.0)
    workload.start(inputs, tmp_path)
    return run.measure(workload, 0.0, trace, tmp_path / "spans.jsonl", Calibration())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_every_end_to_end_metric_is_measured_with_its_unit(workload, tmp_path):
    metrics, attempted, failed, lines = measured(workload, tmp_path, trace=False)
    assert failed == 0 and attempted > 0
    e2e = declared("end_to_end")
    assert set(metrics) | {"setup_s", "peak_rss_mb"} == set(e2e)
    assert all(value > 0 for value in metrics.values())
    result = run.assemble(metrics, e2e)
    assert {name: m["unit"] for name, m in result.items()} == e2e
    # Each named figure prints as "<name> = <value> <unit> ...".
    assert lines and all(len(line.split()) >= 4 and line.split()[1] == "=" for line in lines), lines


def test_named_figures_cover_every_workload_metric(tmp_path):
    names = set()
    for i, workload in enumerate(tiny_workloads()):
        _, _, _, lines = measured(workload, tmp_path / str(i), trace=False)
        names |= {line.split(" = ")[0] for line in lines}
    assert {
        "train.model_epoch_s", "train.test_nrmse_pct", "apply.latency_200f_p50_ms",
        "apply.latency_2000f_p50_ms", "sim.frames_per_s", "pinn.epoch_ms", "pinn.rc_nrmse_pct",
    } <= names


def test_traced_runs_report_every_per_layer_metric_and_restore_originals(tmp_path):
    originals = tracing.bindings()
    assert any(owner.__name__.endswith("pipeline") and attr == "advance"
               for owner, attr, _ in originals if not isinstance(owner, type))
    seen = set()
    for i, workload in enumerate(tiny_workloads()):
        metrics, _, failed, _ = measured(workload, tmp_path / str(i), trace=True)
        assert failed == 0
        assert set(metrics) <= set(declared("per_layer"))
        assert metrics["cli.run_self_ms"] > 0 and metrics["trace.spans"] > 0
        seen |= set(metrics)
        for owner, attr, original in originals:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is original, f"{owner.__name__}.{attr} still wrapped"
    assert seen == set(declared("per_layer"))


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("untraced run installed a wrapper")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = [(owner, attr, original) for owner, attr, original in tracing.bindings()]
    workload = tiny_workloads()[1]
    _, _, failed, _ = measured(workload, tmp_path, trace=False)
    assert failed == 0
    assert tracing.bindings() == before


def test_layer_shares_follow_the_workload(tmp_path):
    train, apply, model = (measured(w, tmp_path / w.name, trace=True)[0] for w in tiny_workloads())
    assert train["nncore.lstm_calls"] > 0 and train["compartments.advance_calls"] == 0
    assert model["nncore.lstm_calls"] == 0 and model["compartments.advance_calls"] > 0
    assert apply["pipeline.surrogate_share"] > 0 and apply["sequences.torque_to_activation_calls"] > 0


@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    _, kept = prepare.prepare(workload, 5, tmp_path / "a", min_builds=1, min_seconds=0.0)  # raises if the builds differ
    again = tmp_path / "b"
    again.mkdir()
    workload.prepare(5, again)
    assert prepare.tree_digests(again) == prepare.tree_digests(kept)
    other = tmp_path / "c"
    other.mkdir()
    workload.prepare(6, other)
    assert prepare.tree_digests(other) != prepare.tree_digests(kept)


def test_benchmark_fails_without_package_source(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "apply-fatigue", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
