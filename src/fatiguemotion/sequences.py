"""Per-joint sequence data model, CSV I/O and normalization.

Joint angles (rad) and joint torques (N*m) share one layout: a
:class:`MotionSequence` of (T, joints) frames whose columns are named by
``joint_names``.

File schema
-----------
Line 1:  ``# dt=<seconds>``
Line 2:  comma-separated joint names (column order is preserved exactly)
Line 3+: one frame per row, decimal floats, one column per joint

Every float CSV of the package (sequences, 3CC trajectories, exported
curves, and the training logs of train-pinn and train-dyn) is written by
:func:`write_table`. Normalization parameters travel
in each surrogate checkpoint's meta as::

    { "joints": [...], "min": [...], "max": [...] }

All types are immutable value data after construction; every operation here
is pure, so sequences are safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataFormatError,
    DegenerateChannelError,
    ParameterError,
    ShapeError,
    SplitError,
    create,
    open_text,
    reading,
)

# Rows per formatting chunk of write_table: 128 to 1024 rows write a
# 40 000-row trajectory in the same time, and fewer rows hold less memory.
_CSV_CHUNK = 128


@dataclass(frozen=True)
class MotionSequence:
    """Time-indexed per-joint traces: column j of ``frames`` is joint ``joint_names[j]``."""

    joint_names: tuple[str, ...]
    dt: float
    frames: np.ndarray  # (T, N) float64

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        names = tuple(self.joint_names)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "joint_names", names)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be finite and > 0, got {self.dt}")
        if frames.ndim != 2:
            raise ShapeError(f"frames must be 2-D (T, N), got shape {frames.shape}")
        t, n = frames.shape
        if t < 2:
            raise ShapeError(f"need at least 2 frames, got {t}")
        if n != len(names):
            raise ShapeError(f"{len(names)} joints but {n} columns")
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate joint names: {list(names)}")
        if not np.isfinite(frames).all():
            raise ParameterError("frames must be finite")
        frames.setflags(write=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) * self.dt

    def with_frames(self, frames: np.ndarray) -> "MotionSequence":
        """Same joints/dt with replaced frame data."""
        return MotionSequence(self.joint_names, self.dt, frames)


def load_sequence(path) -> MotionSequence:
    """Parse a sequence CSV; a malformed file raises DataFormatError naming it."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# dt="):
        raise DataFormatError(f"{path}: line 1 must be '# dt=<seconds>'")
    with reading(f"{path}: line 1"):
        dt = float(lines[0][len("# dt="):])
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
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            col, cell = next((c, cell) for c, cell in enumerate(cells) if not _parses(cell))
            raise DataFormatError(
                f"{path}: row {lineno}, column {col + 1}: non-numeric cell {cell.strip()!r}"
            ) from None
    with reading(path):
        return MotionSequence(names, dt, np.array(rows))


def load_alike(path, ref: MotionSequence, ref_path) -> MotionSequence:
    """The sequence in ``path``; DataFormatError naming both files unless its
    joints, frame count and dt are those of ``ref``, read from ``ref_path``."""
    seq = load_sequence(path)
    layouts = [(s.joint_names, s.n_frames, s.dt) for s in (ref, seq)]
    if layouts[0] != layouts[1]:
        raise DataFormatError(f"{ref_path} and {path} differ in (joints, frames, dt): {layouts}")
    return seq


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def write_table(path, header: str, columns) -> None:
    """Write ``header`` and then one CSV row per frame of ``columns``.

    ``columns`` are equal-length float arrays, 1-D or (T, k) blocks; each
    value is written by repr, which round-trips. A chunk of _CSV_CHUNK rows
    at a time, each column becomes one list of repr strings and the rows are
    joined from those lists, so no full-length list is held. An argument
    that is the same array object as an earlier one reuses its strings.
    """
    with create(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            strings = {}  # id of an argument -> its columns' repr lists
            cells = []
            for col in columns:
                if id(col) not in strings:
                    block = col[start : start + _CSV_CHUNK]
                    values = block.T.tolist() if block.ndim == 2 else [block.tolist()]
                    strings[id(col)] = [list(map(repr, v)) for v in values]
                cells += strings[id(col)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def save_sequence(seq: MotionSequence, path) -> None:
    """Write a sequence in the CSV schema."""
    write_table(path, f"# dt={float(seq.dt)!r}\n" + ",".join(seq.joint_names), (seq.frames,))


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

    def abs_max(self, joint: str) -> float:
        """The largest absolute value of ``joint``'s channel: max(|min|, |max|)."""
        i = self.joints.index(joint)
        return float(max(abs(self.lo[i]), abs(self.hi[i])))

    def to_dict(self) -> dict:
        return {"joints": list(self.joints), "min": self.lo.tolist(), "max": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(tuple(d["joints"]), np.array(d["min"], dtype=float), np.array(d["max"], dtype=float))


def fit_normalizer(seqs) -> NormalizationParams:
    """Per-joint min/max over an iterable of sequences.

    Statistics should be fit on training data only; degenerate (constant)
    channels are rejected.
    """
    seqs = list(seqs)
    if not seqs:
        raise ParameterError("no sequences to fit")
    names = seqs[0].joint_names
    for s in seqs[1:]:
        if s.joint_names != names:
            raise ShapeError(f"joint sets differ: {names} vs {s.joint_names}")
    stacked = np.vstack([s.frames for s in seqs])
    return NormalizationParams(names, stacked.min(axis=0), stacked.max(axis=0))


def torque_to_activation(tau, tau_max) -> np.ndarray:
    """Torque demand as %MVC: clamp(|tau| / tau_max * 100, 0, 100), elementwise.

    Sign is a direction, not an effort magnitude, so |tau| is used; the
    fatigue stage re-applies the sign when modulating.
    """
    tau_max = float(tau_max)
    if not tau_max > 0:
        raise ParameterError(f"tau_max must be > 0, got {tau_max}")
    return np.clip(np.abs(np.asarray(tau, dtype=float)) / tau_max * 100.0, 0.0, 100.0)


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
