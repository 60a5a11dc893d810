"""Joint-angle / joint-torque sequence data model, CSV I/O and normalization.

File schema
-----------
Line 1:  ``# dt=<seconds>``
Line 2:  comma-separated joint names (column order is preserved exactly)
Line 3+: one frame per row, decimal floats, one column per joint

Normalization parameters are persisted as JSON::

    { "joints": [...], "min": [...], "max": [...] }

All types are immutable value data after construction; every operation here
is pure, so sequences are safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataFormatError,
    DegenerateChannelError,
    ParameterError,
    ShapeError,
    SplitError,
)


@dataclass(frozen=True)
class JointId:
    """A named joint and its column position in the sequence."""

    name: str
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ParameterError(f"joint {self.name!r}: index must be >= 0")


@dataclass(frozen=True)
class MotionSequence:
    """Time-indexed per-joint angle traces in rad (the dataset stores its
    rad/s and rad/s^2 traces in the same layout)."""

    joints: tuple[JointId, ...]
    dt: float
    frames: np.ndarray  # (T, N) float64

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "joints", tuple(self.joints))
        if self.dt <= 0:
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if frames.ndim != 2:
            raise ShapeError(f"frames must be 2-D (T, N), got shape {frames.shape}")
        t, n = frames.shape
        if t < 2:
            raise ShapeError(f"need at least 2 frames, got {t}")
        if n != len(self.joints):
            raise ShapeError(f"{len(self.joints)} joints but {n} columns")
        names = [j.name for j in self.joints]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate joint names: {names}")
        for pos, j in enumerate(self.joints):
            if j.index != pos:
                raise ParameterError(f"joint {j.name!r} has index {j.index}, expected {pos}")
        if not np.isfinite(frames).all():
            raise DataFormatError("frames contain non-finite values")
        frames.setflags(write=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_joints(self) -> int:
        return self.frames.shape[1]

    @property
    def joint_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.joints)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) * self.dt

    def with_frames(self, frames: np.ndarray):
        """Same joints/dt with replaced frame data."""
        return type(self)(self.joints, self.dt, frames)


@dataclass(frozen=True)
class TorqueSequence(MotionSequence):
    """Same layout as MotionSequence; values are joint torques in N*m."""


def joints_from_names(names) -> tuple[JointId, ...]:
    return tuple(JointId(name, i) for i, name in enumerate(names))


def load_sequence(path, kind: str = "angle") -> MotionSequence:
    """Parse a motion/torque CSV. ``kind`` selects the returned type."""
    if kind not in ("angle", "torque"):
        raise ParameterError(f"kind must be 'angle' or 'torque', got {kind!r}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# dt="):
        raise DataFormatError(f"{path}: line 1 must be '# dt=<seconds>'")
    try:
        dt = float(lines[0][len("# dt="):])
    except ValueError:
        raise DataFormatError(f"{path}: line 1: cannot parse dt value") from None
    if dt <= 0:
        raise DataFormatError(f"{path}: line 1: dt must be > 0, got {dt}")
    names = [s.strip() for s in lines[1].split(",")]
    if any(not s for s in names) or len(set(names)) != len(names):
        raise DataFormatError(f"{path}: line 2: joint names must be non-empty and unique")
    n = len(names)
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n:
            raise DataFormatError(f"{path}: row {lineno}: expected {n} columns, got {len(cells)}")
        row = np.empty(n)
        for col, cell in enumerate(cells):
            try:
                row[col] = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {lineno}, column {col + 1}: non-numeric cell {cell.strip()!r}"
                ) from None
        rows.append(row)
    if len(rows) < 2:
        raise DataFormatError(f"{path}: need at least 2 frame rows, got {len(rows)}")
    cls = MotionSequence if kind == "angle" else TorqueSequence
    return cls(joints_from_names(names), dt, np.array(rows))


def save_sequence(seq: MotionSequence, path) -> None:
    """Write a sequence in the CSV schema (floats via repr, which round-trips)."""
    with open(path, "w") as fh:
        fh.write(f"# dt={float(seq.dt)!r}\n")
        fh.write(",".join(seq.joint_names) + "\n")
        for row in seq.frames:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class NormalizationParams:
    """Per-joint min/max for [0,1] min-max scaling."""

    joints: tuple[str, ...]
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != (len(self.joints),) or hi.shape != (len(self.joints),):
            raise ShapeError("min/max length must match joint count")
        for name, a, b in zip(self.joints, lo, hi):
            if not b > a:
                raise DegenerateChannelError(f"channel {name!r}: max ({b}) must exceed min ({a})")
        lo.setflags(write=False)
        hi.setflags(write=False)

    @property
    def span(self) -> np.ndarray:
        return self.hi - self.lo

    def apply(self, frames: np.ndarray) -> np.ndarray:
        """Array-level min-max map (does not clip)."""
        return (np.asarray(frames, dtype=float) - self.lo) / self.span

    def invert(self, frames: np.ndarray) -> np.ndarray:
        return np.asarray(frames, dtype=float) * self.span + self.lo

    def to_dict(self) -> dict:
        return {"joints": list(self.joints), "min": self.lo.tolist(), "max": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(tuple(d["joints"]), np.array(d["min"], dtype=float), np.array(d["max"], dtype=float))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NormalizationParams":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def fit_normalizer(seqs) -> NormalizationParams:
    """Per-joint min/max over one sequence or an iterable of sequences.

    Statistics should be fit on training data only; degenerate (constant)
    channels are rejected.
    """
    if isinstance(seqs, MotionSequence):
        seqs = [seqs]
    seqs = list(seqs)
    if not seqs:
        raise ParameterError("no sequences to fit")
    names = seqs[0].joint_names
    for s in seqs[1:]:
        if s.joint_names != names:
            raise ShapeError(f"joint sets differ: {names} vs {s.joint_names}")
    stacked = np.vstack([s.frames for s in seqs])
    return NormalizationParams(names, stacked.min(axis=0), stacked.max(axis=0))


def torque_to_activation(tau, tau_max):
    """Torque demand as %MVC: clamp(|tau| / tau_max * 100, 0, 100).

    Sign is a direction, not an effort magnitude, so |tau| is used; the
    fatigue stage re-applies the sign when modulating.
    """
    tau_max = float(tau_max)
    if not tau_max > 0:
        raise ParameterError(f"tau_max must be > 0, got {tau_max}")
    act = np.clip(np.abs(np.asarray(tau, dtype=float)) / tau_max * 100.0, 0.0, 100.0)
    return float(act) if act.ndim == 0 else act


def split_train_test(seqs, fraction: float, seed: int):
    """Deterministic trial-level split; each sequence lands in exactly one side."""
    seqs = list(seqs)
    if len(seqs) < 2:
        raise SplitError(f"need at least 2 sequences to split, got {len(seqs)}")
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must be in (0,1), got {fraction}")
    n_train = int(round(len(seqs) * fraction))
    n_train = min(max(n_train, 1), len(seqs) - 1)
    order = np.random.default_rng(seed).permutation(len(seqs))
    train = [seqs[i] for i in sorted(order[:n_train])]
    test = [seqs[i] for i in sorted(order[n_train:])]
    return train, test
