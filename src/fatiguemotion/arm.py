"""Analytic planar 2-link arm dynamics and the synthetic trajectory generator.

Exact inverse dynamics of the standard two-link arm in a vertical plane
(angles measured from the horizontal x-axis, gravity along -y): the mass
matrix, Coriolis and gravity terms and tau = M(q) qdd + C(q, qd) + G(q).
These closed forms supply the torque ground truth of the surrogates'
training data; the learned forward-dynamics surrogate maps torques back to
angles, so the package needs no analytic forward dynamics.

All functions broadcast over leading axes: q, qd, qdd may be (2,) or
(..., 2).
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError, read_json, reading, write_json
from .sequences import (
    MotionSequence,
    load_alike,
    load_sequence,
    save_sequence,
)

JOINT_NAMES = ("shoulder", "elbow")


@dataclass(frozen=True)
class ArmParams:
    """Link masses/lengths/COM offsets/inertias of the planar 2-link arm."""

    m1: float = 1.5
    m2: float = 1.0
    l1: float = 0.3
    l2: float = 0.25
    r1: float = 0.15
    r2: float = 0.125
    I1: float = 0.02
    I2: float = 0.01
    g: float = 9.81

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "I1", "I2"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0")
        if not 0 < self.r1 <= self.l1:
            raise ParameterError("need 0 < r1 <= l1")
        if not 0 < self.r2 <= self.l2:
            raise ParameterError("need 0 < r2 <= l2")


def mass_matrix(q, params: ArmParams) -> np.ndarray:
    """Symmetric positive-definite mass matrix; depends on q2 only."""
    q = np.asarray(q, dtype=float)
    c2 = np.cos(q[..., 1])
    p = params
    a = p.I1 + p.I2 + p.m1 * p.r1**2 + p.m2 * (p.l1**2 + p.r2**2)
    b = p.m2 * p.l1 * p.r2
    d = p.I2 + p.m2 * p.r2**2
    m = np.empty(q.shape[:-1] + (2, 2))
    m[..., 0, 0] = a + 2 * b * c2
    m[..., 0, 1] = d + b * c2
    m[..., 1, 0] = d + b * c2
    m[..., 1, 1] = d
    return m


def coriolis_vector(q, qd, params: ArmParams) -> np.ndarray:
    """Combined Coriolis/centrifugal torque vector."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    b = params.m2 * params.l1 * params.r2
    s2 = np.sin(q[..., 1])
    out = np.empty(np.broadcast_shapes(q.shape, qd.shape))
    out[..., 0] = -b * s2 * (2 * qd[..., 0] + qd[..., 1]) * qd[..., 1]
    out[..., 1] = b * s2 * qd[..., 0] ** 2
    return out


def gravity_vector(q, params: ArmParams) -> np.ndarray:
    """Gravitational torque vector (vertical plane)."""
    q = np.asarray(q, dtype=float)
    p = params
    c1 = np.cos(q[..., 0])
    c12 = np.cos(q[..., 0] + q[..., 1])
    out = np.empty(q.shape)
    out[..., 0] = (p.m1 * p.r1 + p.m2 * p.l1) * p.g * c1 + p.m2 * p.r2 * p.g * c12
    out[..., 1] = p.m2 * p.r2 * p.g * c12
    return out


def inverse_dynamics(q, qd, qdd, params: ArmParams) -> np.ndarray:
    """tau = M(q) qdd + C(q, qd) + G(q), exactly."""
    qdd = np.asarray(qdd, dtype=float)
    m = mass_matrix(q, params)
    return (
        np.einsum("...ij,...j->...i", m, qdd)
        + coriolis_vector(q, qd, params)
        + gravity_vector(q, params)
    )


# --- synthetic trajectories -------------------------------------------------

# Waypoint ranges chosen so q1 + q2 stays inside (0, pi): the gravity map is
# then invertible and a torque trace determines the posture unambiguously.
WAYPOINT_LO = np.array([0.3, 0.5])
WAYPOINT_HI = np.array([0.8, 1.3])


def _quintic_rest_to_rest(q0, q1, duration, t):
    """Minimum-jerk segment: zero velocity/acceleration at both ends.

    Returns position, velocity, acceleration at times t (analytic, not FD).
    """
    x = np.clip(t / duration, 0.0, 1.0)[:, None]
    d = q1 - q0
    s = 10 * x**3 - 15 * x**4 + 6 * x**5
    ds = (30 * x**2 - 60 * x**3 + 30 * x**4) / duration
    dds = (60 * x - 180 * x**2 + 120 * x**3) / duration**2
    return q0 + d * s, d * ds, d * dds


@dataclass
class ArmTrial:
    """One generated trial: paired angle and torque sequences."""

    motion: MotionSequence  # angles, rad
    torque: MotionSequence  # torques, N*m


def generate_trajectory(n_frames: int, dt: float, rng, n_segments: int = 2):
    """Smooth random waypoint trajectory; returns (q, qd, qdd) arrays (T, 2).

    Every trial starts from the same neutral posture (the waypoint-box
    midpoint); the remaining waypoints are sampled uniformly.
    """
    waypoints = rng.uniform(WAYPOINT_LO, WAYPOINT_HI, size=(n_segments + 1, 2))
    waypoints[0] = 0.5 * (WAYPOINT_LO + WAYPOINT_HI)
    total = (n_frames - 1) * dt
    seg_dur = total / n_segments
    t = np.arange(n_frames) * dt
    seg = np.minimum((t / seg_dur).astype(int), n_segments - 1)
    q = np.empty((n_frames, 2))
    qd = np.empty((n_frames, 2))
    qdd = np.empty((n_frames, 2))
    for k in range(n_segments):
        mask = seg == k
        local = t[mask] - k * seg_dur
        q[mask], qd[mask], qdd[mask] = _quintic_rest_to_rest(
            waypoints[k], waypoints[k + 1], seg_dur, local
        )
    return q, qd, qdd


def generate_dataset(
    params: ArmParams, n_trials: int, n_frames: int, dt: float, seed: int, n_segments: int = 2
) -> list[ArmTrial]:
    """Paired (motion, torque) trials, deterministic per seed; the torques are
    the exact inverse dynamics of each trajectory's analytic derivatives."""
    if n_frames < 16:
        raise ParameterError(f"n_frames must be >= 16, got {n_frames}")
    if not 0 < dt <= 0.1:
        raise ParameterError(f"dt must be in (0, 0.1], got {dt}")
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    if n_segments < 1:
        raise ParameterError(f"n_segments must be >= 1, got {n_segments}")
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(n_trials):
        q, qd, qdd = generate_trajectory(n_frames, dt, rng, n_segments)
        tau = inverse_dynamics(q, qd, qdd, params)
        trials.append(ArmTrial(MotionSequence(JOINT_NAMES, dt, q), MotionSequence(JOINT_NAMES, dt, tau)))
    return trials


def save_trials(trials: list[ArmTrial], params: ArmParams, outdir, meta: dict | None = None) -> dict:
    """One ``<stem>_angles.csv`` and one ``<stem>_torques.csv`` per trial.

    Returns the dataset manifest listing the stems, unwritten: ``gen-data``
    writes it inside its run manifest, :func:`save_dataset` on its own.
    """
    outdir = Path(outdir)
    entries = []
    for i, trial in enumerate(trials):
        stem = f"trial{i:03d}"
        save_sequence(trial.motion, outdir / f"{stem}_angles.csv")
        save_sequence(trial.torque, outdir / f"{stem}_torques.csv")
        entries.append(stem)
    manifest = {
        "arm_params": asdict(params),
        "trials": entries,
        "n_frames": trials[0].motion.n_frames,
        "dt": trials[0].motion.dt,
    }
    if meta:
        manifest.update(meta)
    return manifest


def save_dataset(trials: list[ArmTrial], params: ArmParams, outdir, meta: dict | None = None) -> dict:
    """:func:`save_trials` plus the manifest, as ``manifest.json``; returns the manifest."""
    manifest = save_trials(trials, params, outdir, meta)
    write_json(Path(outdir) / "manifest.json", manifest, indent=2)
    return manifest


def load_dataset(datadir) -> tuple[list[ArmTrial], ArmParams, dict]:
    """(trials, arm parameters, manifest) of a :func:`save_dataset` directory;
    only each trial's angle and torque CSVs are read, one pair per stem of
    the manifest's ``trials``, a list of strings. A torque CSV whose joint
    names, frame count or dt differ from its angle CSV's raises
    DataFormatError naming both files."""
    datadir = Path(datadir)
    path = datadir / "manifest.json"
    manifest = read_json(path)
    with reading(path):
        params = ArmParams(**manifest["arm_params"])
        stems = manifest["trials"]
    if not (isinstance(stems, list) and all(isinstance(stem, str) for stem in stems)):
        raise DataFormatError(f"{path}: trials must be a list of strings")
    trials = []
    for stem in stems:
        paths = datadir / f"{stem}_angles.csv", datadir / f"{stem}_torques.csv"
        motion = load_sequence(paths[0])
        trials.append(ArmTrial(motion, load_alike(paths[1], motion, paths[0])))
    return trials, params, manifest
