"""The benchmark's three workloads: inputs, operations and output checks.

A workload builds its inputs from the seed (``prepare``), then runs rounds of
``fatiguemotion`` CLI operations through ``cli.run`` in process, one caller,
closed loop. After each operation ``check(label, seconds)`` verifies the
outputs and, from the operation's time, returns the samples the end-to-end
metrics are reduced from; a failed check raises :class:`CheckFailed`. The program always gets the same ``--seed 0``; the
workload seed only shapes the generated inputs.

Sizes are constructor arguments so that the benchmark's own tests can run
each workload at a tiny scale; the benchmark itself uses the defaults.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fatiguemotion import arm, cli
from fatiguemotion import compartments as cc
from fatiguemotion import fatigue_pinn as fp
from fatiguemotion import pipeline as pl
from fatiguemotion import sequences as sq
from fatiguemotion import surrogates as sg

PROGRAM_SEED = 0
FRAME_DT = 0.05  # s, the CLI's default frame interval
TRAIN_EPOCHS = 1
TRAIN_FRACTION = 0.8  # train-dyn's default split, reproduced to find the held-out trials
MODELS = (("id", "shoulder"), ("id", "elbow"), ("fd", "shoulder"), ("fd", "elbow"))

# Joint-specific rates (Frey-Law, Looft & Heitsman 2012) for the two arm joints.
PROFILES = (
    cc.FatigueProfile("shoulder", F=0.0182, R=0.00168),
    cc.FatigueProfile("elbow", F=cc.ELBOW.F, R=cc.ELBOW.R),
)


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def run_cli(argv) -> tuple[int, str]:
    """``cli.run`` with its console output captured; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue()


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_log(path) -> list:
    """Numeric cells of a training-log CSV, one row per history entry (epoch 0 first)."""
    lines = Path(path).read_text().splitlines()[1:]
    rows = [[float(c) for c in line.split(",") if c != ""] for line in lines]
    require(len(rows) >= 2, f"{path}: no trained epoch logged")
    values = np.array([v for row in rows for v in row])
    require(bool(np.isfinite(values).all()), f"{path}: non-finite loss")
    return rows


def mean_or_zero(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def median_or_zero(values) -> float:
    """Median of the samples; 0 when every operation of the class failed."""
    return statistics.median(values) if values else 0.0


def rate(count: float, seconds) -> float:
    """``count`` per median time of the samples; 0 without samples."""
    return count / statistics.median(seconds) if seconds else 0.0


@dataclass(frozen=True)
class DeskData:
    """The desk-scale arm dataset: trials x frames, two joints."""

    trials: int = 20
    frames: int = 200
    segments: int = 2

    def write(self, seed: int, outdir: Path) -> None:
        # Written with arm.save_dataset, not the gen-data command: gen-data
        # overwrites the dataset manifest with its run manifest, after which
        # train-dyn fails with KeyError('arm_params').
        params = arm.ArmParams()
        trials = arm.generate_dataset(params, self.trials, self.frames, FRAME_DT, seed,
                                      n_segments=self.segments)
        arm.save_dataset(trials, params, outdir, meta={"seed": seed})


@contextlib.contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _held_out_nrmse(model_path, kind: str, joint_index: int, trials) -> float:
    """Mean NRMSE (%) of one surrogate over whole held-out trials."""
    model, meta = sg.load_model(model_path)
    input_norm = sq.NormalizationParams.from_dict(meta["input_norm"])
    target_norm = sq.NormalizationParams.from_dict(meta["target_norm"])
    values = []
    for trial in trials:
        x, y = (trial.motion, trial.torque) if kind == "id" else (trial.torque, trial.motion)
        pred = model.predict_sequence(input_norm.apply(x.frames))
        pred = pred * target_norm.span[joint_index] + target_norm.lo[joint_index]
        values.append(pl.nrmse(pred, y.frames[:, joint_index]))
    return float(np.mean(values))


def regime_shares(m_a, m_r, tl) -> dict:
    """Share of frames in each controller regime, from states and the load applied."""
    m_a, m_r, tl = (np.asarray(v, dtype=float) for v in (m_a, m_r, tl))
    below = m_a < tl
    starved = m_r <= tl - m_a
    n = tl.size
    return {
        "develop": float(np.sum(below & ~starved)) / n,
        "starved": float(np.sum(below & starved)) / n,
        "relax": float(np.sum(~below)) / n,
    }


# --- train-surrogates ------------------------------------------------------------

class TrainSurrogates:
    """``train-dyn`` on the desk dataset: one surrogate per operation, cycling
    ID/FD x shoulder/elbow, DESK_SPEC, window 96, stride 2, fixed epochs."""

    name = "train-surrogates"
    min_rounds = len(MODELS)  # every surrogate trained once, for the held-out NRMSE

    def __init__(self, data: DeskData = DeskData(), layers: int = sg.DESK_SPEC.n_layers,
                 hidden: int = sg.DESK_SPEC.hidden, window: int = sg.DESK_WINDOW,
                 stride: int = sg.DESK_WINDOW_STRIDE):
        self.data_sizes = data
        self.layers, self.hidden, self.window, self.stride = layers, hidden, window, stride

    def prepare(self, seed: int, d: Path) -> None:
        self.data_sizes.write(seed, d / "data")

    def start(self, inputs: Path, work: Path) -> None:
        self.data = inputs / "data"
        self.out = work / "models"
        trials, _, _ = arm.load_dataset(self.data)
        train, self.test = sq.split_train_test(trials, TRAIN_FRACTION, PROGRAM_SEED)
        frames = self.data_sizes.frames
        per_trial = 1 if self.window >= frames else (frames - self.window) // self.stride + 1
        self.windows_per_epoch = len(train) * per_trial
        self.window_frames = min(self.window, frames)
        self.nrmse = {}

    def ops(self, k: int):
        kind, joint = MODELS[k % len(MODELS)]
        argv = ["train-dyn", "--data", self.data, "--kind", kind, "--joint", joint,
                "--layers", self.layers, "--hidden", self.hidden, "--window", self.window,
                "--window-stride", self.stride, "--epochs", TRAIN_EPOCHS,
                "--seed", PROGRAM_SEED, "--out", self.out]
        return [(f"{kind}_{joint}", argv)]

    def check(self, label: str, seconds: float) -> dict:
        epochs = len(read_log(self.out / f"{label}_log.csv")) - 1
        if label not in self.nrmse:
            kind, joint = label.split("_")
            self.nrmse[label] = _held_out_nrmse(
                self.out / f"{label}.json", kind, arm.JOINT_NAMES.index(joint), self.test)
        return {
            "model_epoch_s": seconds / epochs,
            "frames_per_s": self.windows_per_epoch * self.window_frames * epochs / seconds,
        }

    def e2e(self, samples) -> dict:
        return {
            "op_p50_ms": 1e3 * median_or_zero(samples["model_epoch_s"]),
            "frames_per_s": median_or_zero(samples["frames_per_s"]),
        }

    def named(self, samples) -> dict:
        return {
            "train.model_epoch_s": ("s", samples["model_epoch_s"]),
            "train.test_nrmse_pct": ("%", self.test_nrmse()),
        }

    def test_nrmse(self) -> float:
        return mean_or_zero(self.nrmse.values())

    def layer_extras(self) -> dict:
        return {"surrogates.test_nrmse_pct": self.test_nrmse()}


# --- apply-fatigue -------------------------------------------------------------

class ApplyFatigue:
    """``apply-fatigue --mode dynamic`` on held-out motions of two lengths."""

    name = "apply-fatigue"
    min_rounds = 2  # the second round re-runs every motion for the byte-identity check

    def __init__(self, data: DeskData = DeskData(), layers: int = sg.DESK_SPEC.n_layers,
                 hidden: int = sg.DESK_SPEC.hidden, window: int = sg.DESK_WINDOW,
                 checkpoint_stride: int = 64, mix=(200, 200, 2000, 200, 200, 2000),
                 frames_per_segment: int = 100):
        self.data_sizes = data
        self.layers, self.hidden, self.window, self.checkpoint_stride = layers, hidden, window, checkpoint_stride
        # One motion per entry, run in this order every round.
        self.lengths = list(mix)
        self.short, self.long = min(mix), max(mix)
        self.frames_per_segment = frames_per_segment

    def prepare(self, seed: int, d: Path) -> None:
        self.data_sizes.write(seed, d / "data")
        with _cwd(d):  # relative paths keep the checkpoint manifest byte-identical per seed
            code, output = run_cli([
                "train-dyn", "--data", "data", "--layers", self.layers, "--hidden", self.hidden,
                "--window", self.window, "--window-stride", self.checkpoint_stride,
                "--epochs", TRAIN_EPOCHS, "--seed", PROGRAM_SEED, "--out", "models"])
        if code != 0:
            raise RuntimeError(f"checkpoint training failed ({code}): {output}")
        params = arm.ArmParams()
        for i, n in enumerate(self.lengths):
            trial = arm.generate_dataset(params, 1, n, FRAME_DT, seed * 1000 + 500 + i,
                                         n_segments=max(2, n // self.frames_per_segment))[0]
            sq.save_sequence(trial.motion, d / f"motion{i}_{n}f.csv")
        cc.save_profiles(PROFILES, d / "profiles.json")

    def start(self, inputs: Path, work: Path) -> None:
        self.inputs, self.work = inputs, work
        self.models = inputs / "models"
        self.profiles = cc.load_profiles(inputs / "profiles.json")
        self.id_models, self.tau_max = {}, {}
        for path in sorted(self.models.glob("id_*.json")):
            model, meta = sg.load_model(path)
            self.id_models[meta["joint"]] = model
            self.tau_max[meta["joint"]] = meta["tau_max"]
            self.angle_norm = sq.NormalizationParams.from_dict(meta["input_norm"])
            self.torque_norm = sq.NormalizationParams.from_dict(meta["target_norm"])
        self.first = {}

    def motion(self, i: int) -> Path:
        return self.inputs / f"motion{i}_{self.lengths[i]}f.csv"

    def ops(self, k: int):
        return [
            (f"{self.lengths[i]}f:{i}",
             ["apply-fatigue", "--motion", self.motion(i), "--profiles", self.inputs / "profiles.json",
              "--models", self.models, "--mode", "dynamic", "--seed", PROGRAM_SEED,
              "--out", self.work / f"apply{i}"])
            for i in range(len(self.lengths))
        ]

    def _recompute(self, motion: sq.MotionSequence, doc: dict) -> None:
        """Each joint's RC_hat against compartments.simulate on the same activation trace."""
        x = self.angle_norm.apply(motion.frames)
        names = motion.joint_names
        tau = np.column_stack([self.id_models[name].predict_sequence(x) for name in names])
        tau = self.torque_norm.invert(tau)
        for name, profile in self.profiles.items():
            act = sq.torque_to_activation(tau[:, names.index(name)], self.tau_max[name])
            # The pipeline advances frame t under load act[t]; simulate stores
            # the initial state first, so its states[1:] are the pipeline's frames.
            load = cc.LoadProfile(np.append(act, act[-1]), motion.dt)
            traj = cc.simulate(None, load, profile.cc3)
            expected = 100.0 - profile.lam * traj.M_F[1:]
            error = float(np.max(np.abs(expected - np.array(doc["traces"][name]["rc_hat"]))))
            require(error <= 1e-9, f"{name}: RC_hat differs from simulate by {error:.3g}")

    def check(self, label: str, seconds: float) -> dict:
        i = int(label.split(":")[1])
        out = self.work / f"apply{i}"
        files = (out / "fatigued.csv", out / "report.json")
        doc = json.loads(files[1].read_text())
        for name, trace in doc["traces"].items():
            pools = np.array([trace["m_a"], trace["m_f"], trace["m_r"]])
            require(bool((pools >= 0).all()), f"{name}: negative pool")
            error = float(np.max(np.abs(pools.sum(axis=0) - 100.0)))
            require(error <= 1e-6, f"{name}: pools sum to 100 +- {error:.3g}")
            rc_hat = np.array(trace["rc_hat"])
            require(bool(((rc_hat >= 0) & (rc_hat <= 100)).all()), f"{name}: RC_hat outside [0, 100]")
        require(set(doc["traces"]) == set(self.profiles), "report lacks a modulated joint")
        key = digest(*files)
        if i not in self.first:
            self._recompute(sq.load_sequence(self.motion(i)), doc)
            self.first[i] = key
        require(key == self.first[i], f"motion {i}: second call wrote different bytes")
        return {f"latency_{self.lengths[i]}f_s": seconds}

    def e2e(self, samples) -> dict:
        return {
            "op_p50_ms": 1e3 * median_or_zero(samples[f"latency_{self.short}f_s"]),
            "frames_per_s": rate(self.long, samples[f"latency_{self.long}f_s"]),
        }

    def named(self, samples) -> dict:
        return {
            "apply.latency_200f_p50_ms": ("ms", [1e3 * s for s in samples[f"latency_{self.short}f_s"]]),
            "apply.latency_2000f_p50_ms": ("ms", [1e3 * s for s in samples[f"latency_{self.long}f_s"]]),
        }

    def layer_extras(self) -> dict:
        return {}


# --- fatigue-model ---------------------------------------------------------------

class FatigueModel:
    """``sim-3cc`` on a duty-cycle load trace, then supervised ``train-pinn``, both
    with ELBOW rates by default."""

    name = "fatigue-model"

    def __init__(self, frames: int = 40000, bout_s=(10.0, 60.0), rest_s=(5.0, 30.0),
                 params: cc.Cc3Params = cc.ELBOW, pinn_loads: int = 4, pinn_t: float = 200.0,
                 pinn_frames: int = 50, pinn_epochs: int = 300, pinn_hidden: int = 64):
        self.frames, self.bout_s, self.rest_s, self.params = frames, bout_s, rest_s, params
        self.pinn_loads, self.pinn_t, self.pinn_frames = pinn_loads, pinn_t, pinn_frames
        self.pinn_epochs, self.pinn_hidden = pinn_epochs, pinn_hidden
        self.min_rounds = pinn_loads  # every PINN load trained once, for the RC NRMSE

    def prepare(self, seed: int, d: Path) -> None:
        rng = np.random.default_rng(seed)
        # Work bouts at 30-90 %MVC alternate with rests at zero load: the
        # controller develops force, runs out of resting units late in long
        # heavy bouts, and relaxes at every rest.
        values, work = [], True
        while len(values) < self.frames:
            seconds = rng.uniform(*self.bout_s) if work else rng.uniform(*self.rest_s)
            level = round(float(rng.uniform(30, 90)), 3) if work else 0.0
            values += [level] * max(1, int(seconds / FRAME_DT))
            work = not work
        with open(d / "tl.csv", "w") as fh:
            fh.write("tl\n")
            fh.writelines(f"{v!r}\n" for v in values[: self.frames])
        # One constant PINN load per stratum of 30-70 %MVC.
        width = 40.0 / self.pinn_loads
        loads = [round(30.0 + width * (k + float(rng.uniform())), 3) for k in range(self.pinn_loads)]
        (d / "pinn_loads.json").write_text(json.dumps({"loads": loads}) + "\n")

    def start(self, inputs: Path, work: Path) -> None:
        self.tl_path = inputs / "tl.csv"
        self.tl = np.loadtxt(self.tl_path, skiprows=1, ndmin=1)
        self.loads = json.loads((inputs / "pinn_loads.json").read_text())["loads"]
        self.work = work
        self.sim_digest = None
        self.regimes = None
        self.rc_nrmse = {}

    def ops(self, k: int):
        ops = [("sim-3cc",
                ["sim-3cc", "--F", self.params.F, "--R", self.params.R, "--tl", f"csv:{self.tl_path}",
                 "--t", (self.tl.size - 1) * FRAME_DT, "--dt", FRAME_DT, "--seed", PROGRAM_SEED,
                 "--out", self.work / "sim"])]
        j = k % len(self.loads)
        ops.append((f"train-pinn:{j}",
                    ["train-pinn", "--F", self.params.F, "--R", self.params.R,
                     "--tl", f"const:{self.loads[j]}", "--t", self.pinn_t,
                     "--frames", self.pinn_frames, "--hidden", self.pinn_hidden,
                     "--epochs", self.pinn_epochs, "--patience", self.pinn_epochs,
                     "--seed", PROGRAM_SEED, "--out", self.work / f"pinn{j}"]))
        return ops

    def check(self, label: str, seconds: float) -> dict:
        if label == "sim-3cc":
            path = self.work / "sim" / "trajectory.csv"
            key = digest(path)
            if self.sim_digest is None:
                traj = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                require(traj.shape[0] == self.tl.size, "trajectory length differs from the load trace")
                error = float(np.max(np.abs(traj[:, 1:4].sum(axis=1) - 100.0)))
                require(error <= 1e-6, f"conservation error {error:.3g}")
                self.regimes = regime_shares(traj[:-1, 1], traj[:-1, 3], self.tl[:-1])
                require(min(self.regimes.values()) > 0, f"a controller regime is never visited: {self.regimes}")
                self.sim_digest = key
            require(key == self.sim_digest, "sim-3cc wrote different bytes for the same input")
            return {"sim_frames_per_s": self.tl.size / seconds}
        j = int(label.split(":")[1])
        out = self.work / f"pinn{j}"
        epochs = len(read_log(out / "training_log.csv")) - 1
        if j not in self.rc_nrmse:
            self.rc_nrmse[j] = self._rc_nrmse(out / "pinn_elbow.json", self.loads[j])
        return {"pinn_epoch_s": seconds / epochs}

    def _rc_nrmse(self, path, level: float) -> float:
        """NRMSE (%) of the PINN's RC = 100 - M_F against the RK4 oracle, on frames it did not train on."""
        model, _ = fp.load_model(path)
        load = cc.LoadProfile.constant(level, self.pinn_t, min(0.05, self.pinn_t / (self.pinn_frames - 1)))
        traj = cc.simulate(None, load, self.params)
        held_out = np.ones(traj.times.size, dtype=bool)
        held_out[fp.training_indices(load, self.pinn_frames)] = False
        m_f, _ = model.predict(traj.times[held_out], traj.M_A[held_out])
        return pl.nrmse(100.0 - m_f, traj.rc[held_out])

    def e2e(self, samples) -> dict:
        return {
            "op_p50_ms": 1e3 * median_or_zero(samples["pinn_epoch_s"]),
            "frames_per_s": median_or_zero(samples["sim_frames_per_s"]),
        }

    def named(self, samples) -> dict:
        return {
            "sim.frames_per_s": ("1/s", samples["sim_frames_per_s"]),
            "pinn.epoch_ms": ("ms", [1e3 * s for s in samples["pinn_epoch_s"]]),
            "pinn.rc_nrmse_pct": ("%", self.pinn_nrmse()),
        }

    def pinn_nrmse(self) -> float:
        return mean_or_zero(self.rc_nrmse.values())

    def layer_extras(self) -> dict:
        extras = {f"compartments.regime_share.{k}": v for k, v in (self.regimes or {}).items()}
        extras["fatigue_pinn.rc_nrmse_pct"] = self.pinn_nrmse()
        return extras


WORKLOADS = {w.name: w for w in (TrainSurrogates, ApplyFatigue, FatigueModel)}
