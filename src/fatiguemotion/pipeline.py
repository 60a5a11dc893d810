"""End-to-end fatigue modulation: angles -> torques -> fatigue -> angles.

The stages run sequence-level (the surrogates are bidirectional and need
whole trials): one inverse-dynamics pass over the motion, per-joint fatigue
modulation of the predicted torques, then one forward-dynamics pass over the
modulated torques. Joints without a fatigue profile pass their unmodulated
torque through to the forward model. Deviation metrics compare against the
unmodulated round trip FD(ID(q)), which isolates the fatigue effect from
surrogate error.

Each surrogate pass is one :class:`~fatiguemotion.surrogates.BiLstmBank`
call per architecture: the joint-specific ID models all read the same
angles, so they run stacked in one time loop per layer. The FD models run
the unmodulated and the modulated torques together as a batch of two, so the
baseline round trip costs no pass of its own. Inference keeps no training
caches.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compartments import FatigueProfile, LoadProfile, modulate_torque, simulate
from .errors import DataFormatError, DegenerateChannelError, ParameterError, ShapeError, create, read_json, reading
from .sequences import MotionSequence, NormalizationParams, torque_to_activation, write_table
from .surrogates import BiLstmModel, predict_models


def nrmse(pred, truth) -> float:
    """100 * RMSE / (max(truth) - min(truth)), in percent of the truth range."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or truth.size < 2:
        raise ShapeError("traces must have equal length >= 2")
    span = truth.max() - truth.min()
    if span == 0:
        raise DegenerateChannelError("truth trace is constant; NRMSE undefined")
    return float(100.0 * np.sqrt(np.mean((pred - truth) ** 2)) / span)


def r_squared(pred, truth) -> float:
    """Squared Pearson correlation between the traces."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or truth.size < 2:
        raise ShapeError("traces must have equal length >= 2")
    dp = pred - pred.mean()
    dt_ = truth - truth.mean()
    sp = np.sqrt(np.sum(dp**2))
    st = np.sqrt(np.sum(dt_**2))
    if sp == 0 or st == 0:
        raise DegenerateChannelError("constant trace; correlation undefined")
    r = np.sum(dp * dt_) / (sp * st)
    return float(r**2)


@dataclass
class PipelineConfig:
    """Trained models, normalization, and fatigue settings for one joint set.

    ``profiles`` lists the modulated joints; every joint of the motion needs
    ID/FD models so the full torque vector can be assembled. With
    ``fixed_level`` None the 3CC model runs (dynamic ``mode``); a level in
    [0, 100] holds RC_hat there on every frame (fixed ``mode``).
    ``tau_max`` (the %MVC scaling) is derived: per joint, the largest
    absolute torque seen in training, from the torque normalization bounds.
    """

    angle_norm: NormalizationParams
    torque_norm: NormalizationParams
    id_models: dict[str, BiLstmModel]
    fd_models: dict[str, BiLstmModel]
    profiles: dict[str, FatigueProfile] = field(default_factory=dict)
    fixed_level: float | None = None
    seed: int = 0
    tau_max: dict[str, float] = field(init=False)

    def __post_init__(self):
        if self.fixed_level is not None and not 0 <= self.fixed_level <= 100:
            raise ParameterError(f"fixed mode needs fixed_level in [0,100], got {self.fixed_level}")
        if self.angle_norm.joints != self.torque_norm.joints:
            raise ShapeError("angle and torque normalization joint sets differ")
        n_joints = len(self.angle_norm.joints)
        for name in self.angle_norm.joints:
            if name not in self.id_models or name not in self.fd_models:
                raise ParameterError(f"joint {name!r}: missing ID or FD model")
            for model in (self.id_models[name], self.fd_models[name]):
                if model.n_in != n_joints:
                    raise ShapeError(
                        f"joint {name!r}: models must read {n_joints} channels, got {model.n_in}")
        for name in self.profiles:
            if name not in self.angle_norm.joints:
                raise ParameterError(f"profile for unknown joint {name!r}")
        self.tau_max = {name: self.torque_norm.abs_max(name) for name in self.torque_norm.joints}

    @property
    def mode(self) -> str:
        return "dynamic" if self.fixed_level is None else "fixed"

    def config_hash(self) -> str:
        doc = {
            "joints": list(self.angle_norm.joints),
            "angle_norm": self.angle_norm.to_dict(),
            "torque_norm": self.torque_norm.to_dict(),
            "profiles": {k: v.to_dict() for k, v in sorted(self.profiles.items())},
            "mode": self.mode,
            "fixed_level": self.fixed_level,
            "tau_max": dict(sorted(self.tau_max.items())),
            "seed": self.seed,
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class JointFatigueTrace:
    """Per-frame fatigue history of one modulated joint."""

    rc_hat: np.ndarray
    m_a: np.ndarray | None = None
    m_f: np.ndarray | None = None
    m_r: np.ndarray | None = None


@dataclass
class FatigueReport:
    """Traces, deviation metrics vs the unmodulated round trip, and run metadata."""

    baseline: MotionSequence
    torques: np.ndarray            # (T, N) predicted raw torques
    modulated_torques: np.ndarray  # (T, N) after capacity scaling
    traces: dict[str, JointFatigueTrace]
    nrmse: dict[str, float]
    r2: dict[str, float]
    metadata: dict

    def save(self, path) -> None:
        # json.dump(indent=2)'s bytes, with each trace list from the C encoder, not the Python one
        pad = "\n" + " " * 8
        joints = []
        for name, tr in self.traces.items():
            lists = [f'      "{k}": [{pad}{json.dumps(v.tolist())[1:-1].replace(", ", "," + pad)}\n      ]'
                     for k in ("rc_hat", "m_a", "m_f", "m_r") if (v := getattr(tr, k)) is not None]
            joints.append(f"    {json.dumps(name)}: {{\n" + ",\n".join(lists) + "\n    }")
        traces = "{\n" + ",\n".join(joints) + "\n  }" if joints else "{}"
        head = json.dumps({"metadata": self.metadata, "nrmse": self.nrmse, "r2": self.r2}, indent=2)
        with create(path) as fh:
            fh.write(f'{head[:-2]},\n  "traces": {traces}\n}}\n')


def load_traces(path) -> dict[str, JointFatigueTrace]:
    """The per-joint traces of a saved report: RC_hat, plus all three pools
    or none (fixed mode), each a list of finite JSON numbers read as a 1-D
    float array; anything else raises DataFormatError naming the file."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("traces"), dict):
        raise DataFormatError(f"{path}: report has no 'traces' object")
    traces = {}
    for name, tr in doc["traces"].items():
        if not isinstance(tr, dict) or "rc_hat" not in tr:
            raise DataFormatError(f"{path}: trace {name!r} lacks 'rc_hat'")
        pools = [k for k in ("m_a", "m_f", "m_r") if k in tr]
        if pools and len(pools) != 3:
            raise DataFormatError(f"{path}: trace {name!r} has {pools}, needs all of m_a, m_f, m_r or none")
        # JSON numbers only (null, strings, booleans and lists are not), and
        # finite: json.load reads NaN and Infinity, and an integer may not fit
        values = [tr[k] for k in ("rc_hat", *pools)]
        with reading(f"{path}: trace {name!r}"):
            arrays = [np.array(v, dtype=float) for v in values
                      if isinstance(v, list) and all(type(e) in (int, float) for e in v)]
        if len(arrays) < len(values) or not all(np.isfinite(a).all() for a in arrays):
            raise DataFormatError(f"{path}: trace {name!r}: values must be lists of finite numbers")
        traces[name] = JointFatigueTrace(*arrays)
    return traces


def apply_fatigue(motion: MotionSequence, config: PipelineConfig):
    """Run the full chain on one motion; returns (fatigued motion, report)."""
    if motion.joint_names != config.angle_norm.joints:
        raise ShapeError(
            f"motion joints {motion.joint_names} do not match pipeline {config.angle_norm.joints}"
        )
    order = motion.joint_names
    t_len = motion.n_frames

    x = config.angle_norm.apply(motion.frames)
    # (N, T, 1) -> (T, N): one torque channel per joint-specific model
    tau_norm = predict_models([config.id_models[n] for n in order], x[:, None, :])[:, :, 0].T
    tau_raw = config.torque_norm.invert(tau_norm)

    tau_mod = tau_raw.copy()
    traces: dict[str, JointFatigueTrace] = {}
    for name, profile in config.profiles.items():
        j = order.index(name)
        if config.fixed_level is not None:
            trace = JointFatigueTrace(rc_hat=np.full(t_len, float(config.fixed_level)))
        else:
            act = torque_to_activation(tau_raw[:, j], config.tau_max[name])
            # simulate returns the rested state first and then state i advanced
            # under load i - 1, so state t + 1 is frame t under act[t]; the
            # repeated last sample is never applied, it only yields that state.
            traj = simulate(None, LoadProfile(np.append(act, act[-1]), motion.dt), profile.cc3)
            trace = JointFatigueTrace(
                rc_hat=traj.rc_lambda(profile.lam)[1:], m_a=traj.M_A[1:], m_f=traj.M_F[1:], m_r=traj.M_R[1:]
            )
        tau_mod[:, j] = modulate_torque(tau_raw[:, j], trace.rc_hat)
        traces[name] = trace

    # Batch entry 0 is the unmodulated round trip, entry 1 the fatigued motion.
    fd_in = np.stack([tau_norm, config.torque_norm.apply(tau_mod)], axis=1)
    angles_norm = predict_models([config.fd_models[n] for n in order], fd_in)
    baseline = motion.with_frames(config.angle_norm.invert(angles_norm[:, :, 0].T))
    fatigued = motion.with_frames(config.angle_norm.invert(angles_norm[:, :, 1].T))

    dev_nrmse = {}
    dev_r2 = {}
    for i, name in enumerate(order):
        dev_nrmse[name] = nrmse(fatigued.frames[:, i], baseline.frames[:, i])
        dev_r2[name] = r_squared(fatigued.frames[:, i], baseline.frames[:, i])
    metadata = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "mode": config.mode,
        "fixed_level": config.fixed_level,
        "joints": list(order),
        "modulated_joints": sorted(config.profiles),
        "n_frames": t_len,
        "dt": motion.dt,
    }
    report = FatigueReport(
        baseline=baseline,
        torques=tau_raw,
        modulated_torques=tau_mod,
        traces=traces,
        nrmse=dev_nrmse,
        r2=dev_r2,
        metadata=metadata,
    )
    return fatigued, report


def _unit_scale(*traces):
    lo = min(float(tr.min()) for tr in traces)
    hi = max(float(tr.max()) for tr in traces)
    if hi == lo:
        raise DegenerateChannelError("constant trace; cannot scale to [0,1]")
    return lo, hi


def export_curves(baseline: MotionSequence, runs, outdir) -> list[str]:
    """Per-joint baseline-vs-fatigued angle curves (scaled to [0,1] jointly) and
    compartment/capacity traces, one file set per run.

    ``runs`` is a list of (label, fatigued MotionSequence, {joint:
    JointFatigueTrace}). Every run is checked against the baseline before
    anything is written. Returns the written file names; re-export is
    byte-identical.
    """
    times = baseline.times
    for label, fatigued, traces in runs:
        if fatigued.joint_names != baseline.joint_names:
            raise ShapeError("run joint set differs from baseline")
        if fatigued.n_frames != baseline.n_frames:
            raise ShapeError("run length differs from baseline")
        for name, tr in traces.items():
            if any(v is not None and v.shape != times.shape for v in (tr.rc_hat, tr.m_a, tr.m_f, tr.m_r)):
                raise ShapeError(f"run {label!r}: trace {name!r} length differs from baseline")
    outdir = Path(outdir)
    written = []
    for label, fatigued, traces in runs:
        for i, name in enumerate(baseline.joint_names):
            base = baseline.frames[:, i]
            fat = fatigued.frames[:, i]
            lo, hi = _unit_scale(base, fat)
            fname = f"{name}_{label}_angles.csv"
            write_table(outdir / fname, "t,baseline,fatigued",
                        (times, (base - lo) / (hi - lo), (fat - lo) / (hi - lo)))
            written.append(fname)
        for name, tr in traces.items():
            if tr.m_a is not None:
                fname = f"{name}_{label}_compartments.csv"
                write_table(outdir / fname, "t,M_A,M_F,M_R,RC,RC_hat",
                            (times, tr.m_a, tr.m_f, tr.m_r, 100.0 - tr.m_f, tr.rc_hat))
            else:
                fname = f"{name}_{label}_capacity.csv"
                write_table(outdir / fname, "t,RC_hat", (times, tr.rc_hat))
            written.append(fname)
    return written
