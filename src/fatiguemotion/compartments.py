"""Three-compartment muscle fatigue simulator.

Motor units of a joint are partitioned into active (M_A), fatigued (M_F) and
resting (M_R) pools, each in %MVC, summing to 100. A piecewise feedback
controller moves units between M_A and M_R to track a target load TL; active
units fatigue at rate F and fatigued units recover at rate R:

    dM_A/dt = C(t) - F*M_A
    dM_F/dt = F*M_A - R*M_F
    dM_R/dt = -C(t) + R*M_F

    C(t) = LD*(TL - M_A)   if M_A < TL and M_R >  (TL - M_A)
           LD*M_R          if M_A < TL and M_R <= (TL - M_A)
           LR*(TL - M_A)   if M_A >= TL

Residual capacity RC = 100 - M_F is the remaining torque-generating
capacity; its attenuated variant RC_hat = 100 - lam*M_F scales how strongly
fatigue reduces capacity per joint. This module is the deterministic
reference oracle for the learned fatigue network, and the one module that
holds the 3CC equations: the pipeline runs :func:`simulate`, and the PINN
residual uses :func:`controller_batch`.

The integrator, :func:`advance`, is one frame of sub-stepped RK4 written out
on Python floats: a frame is about 60 flops on three pools, and numpy's
per-call overhead on 3-element arrays, or a Python call per RK4 stage, costs
more than that arithmetic. :func:`simulate` calls it once per frame.

Everything is state-in/state-out; independent joints simulate in parallel
safely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataFormatError, NumericError, ParameterError, read_json, reading, write_json
from .sequences import write_table

# RK4 sub-step ceiling, the step at the default controller rates. The
# development/relaxation rates bound the fastest time scale, so faster rates
# shrink the step (Cc3Params.rk4_step) until LD*step and LR*step are at most
# _RATE_STEP, their product at the defaults (10/s x 0.05 s), well inside RK4's
# stability region.
MAX_STEP = 0.05
_RATE_STEP = 0.5
# The shortest sub-step a valid rate asks for: it bounds one frame's work.
# Cc3Params refuses LD or LR above _RATE_STEP / _MIN_STEP (10^4/s), far
# outside any muscle, where a longer step would leave RK4's stability region.
_MIN_STEP = MAX_STEP / 1000

_CONSERVATION_GUARD = 1e-9


@dataclass(frozen=True)
class Cc3Params:
    """Per-joint fatigue (F), recovery (R) and controller (LD, LR) rates, 1/s.

    ``rk4_step`` is the longest RK4 sub-step :func:`advance` takes with these
    rates (see :data:`MAX_STEP`). It is derived once, at construction, and is
    not a field, so ``asdict`` holds the four rates only. LD and LR are at
    most ``_RATE_STEP / _MIN_STEP`` (10^4/s), so the step is at least
    ``_MIN_STEP``.
    """

    F: float
    R: float
    LD: float = 10.0
    LR: float = 10.0

    def __post_init__(self):
        for name in ("F", "R", "LD", "LR"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")
        for name in ("LD", "LR"):
            value = getattr(self, name)
            if value > _RATE_STEP / _MIN_STEP:
                raise ParameterError(
                    f"controller rate {name} must be <= {_RATE_STEP / _MIN_STEP:g}/s, got {value}")
        fastest = max(self.LD, self.LR)
        step = MAX_STEP if fastest * MAX_STEP <= _RATE_STEP else _RATE_STEP / fastest
        object.__setattr__(self, "rk4_step", step)


# Elbow rates from the published joint-specific fatigue literature.
ELBOW = Cc3Params(F=0.00912, R=0.00094)


@dataclass(frozen=True)
class CompartmentState:
    """Motor-unit pools in %MVC; components >= 0 and sum to 100."""

    M_A: float
    M_F: float
    M_R: float

    def __post_init__(self):
        for name in ("M_A", "M_F", "M_R"):
            if getattr(self, name) < -1e-9:
                raise ParameterError(f"{name} must be >= 0")
        if abs(self.M_A + self.M_F + self.M_R - 100.0) > 1e-6:
            raise ParameterError(
                f"pools must sum to 100, got {self.M_A + self.M_F + self.M_R}"
            )

    @classmethod
    def rested(cls) -> "CompartmentState":
        return cls(0.0, 0.0, 100.0)


@dataclass(frozen=True)
class LoadProfile:
    """Sampled target-load trace TL(t) in %MVC."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be finite and > 0, got {self.dt}")
        if v.ndim != 1 or v.size == 0:
            raise ParameterError("profile must be a non-empty 1-D trace")
        if not ((v >= 0) & (v <= 100)).all():  # NaN fails both comparisons
            raise ParameterError("target load must be a number in [0, 100]")
        v.setflags(write=False)

    @staticmethod
    def frame_count(duration: float, dt: float) -> int:
        """round(duration / dt) + 1, the samples of a ``duration``-second profile; ParameterError
        unless that is a finite count of steps >= 0, and >= 1 for a positive duration."""
        if not (math.isfinite(dt) and dt > 0):
            raise ParameterError(f"dt must be finite and > 0, got {dt}")
        steps = duration / dt
        if not (math.isfinite(steps) and steps >= 0):
            raise ParameterError(f"duration must be finite and >= 0 in steps of dt {dt} s, got {duration}")
        n = int(round(steps)) + 1
        if n == 1 and duration > 0:
            raise ParameterError(f"duration {duration} s rounds to no step of dt {dt} s")
        return n

    @classmethod
    def constant(cls, tl: float, duration: float, dt: float) -> "LoadProfile":
        n = cls.frame_count(duration, dt)
        try:
            values = np.full(n, float(tl))
        except (ValueError, MemoryError) as exc:  # numpy refuses the frame count
            raise ParameterError(f"{duration} s at dt {dt} is {n} frames: {exc}") from None
        return cls(values, dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


def controller(m_a: float, m_r: float, tl: float, p: Cc3Params) -> float:
    """Flow C(t) from the resting to the active pool, %MVC/s."""
    if m_a < tl:
        if m_r > tl - m_a:
            return p.LD * (tl - m_a)
        return p.LD * m_r
    return p.LR * (tl - m_a)


def controller_batch(m_a, m_r, tl, p: Cc3Params):
    """Elementwise :func:`controller` over arrays, plus its derivative dC/dM_R."""
    below = m_a < tl
    starved = m_r <= (tl - m_a)
    c = np.where(below, np.where(starved, p.LD * m_r, p.LD * (tl - m_a)), p.LR * (tl - m_a))
    dc_dmr = np.where(below & starved, p.LD, 0.0)
    return c, dc_dmr


@dataclass(frozen=True)
class Cc3Trajectory:
    """Simulated compartment history: times (n,) and states (n, 3) as (M_A, M_F, M_R)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def M_A(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def M_F(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def M_R(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def rc(self) -> np.ndarray:
        return 100.0 - self.M_F

    def rc_lambda(self, lam: float) -> np.ndarray:
        if not 0 <= lam <= 1:
            raise ParameterError(f"lambda must be in [0,1], got {lam}")
        return 100.0 - lam * self.M_F

    def conservation_error(self) -> float:
        return float(np.abs(self.states.sum(axis=1) - 100.0).max())


def advance(state, tl: float, params: Cc3Params, dt: float) -> tuple[float, float, float]:
    """Advance the pools (M_A, M_F, M_R), any 3-sequence, over one frame interval.

    Sub-steps so that each RK4 step is <= ``params.rk4_step`` and returns the new pools
    as a tuple of floats. The four stages are written out here, with F, R and
    the step weights read once per frame: a call per stage costs more than its
    flows. :func:`controller` stays the one scalar home of C(t). A step whose
    pools overflow or all vanish raises NumericError.
    """
    n_sub = max(1, math.ceil(dt / params.rk4_step))
    step = dt / n_sub
    h, w = 0.5 * step, step / 6.0
    F, R = params.F, params.R
    m_a, m_f, m_r = state
    for _ in range(n_sub):
        c = controller(m_a, m_r, tl, params)
        a1, f1, r1 = c - F * m_a, F * m_a - R * m_f, -c + R * m_f
        x_a, x_f, x_r = m_a + h * a1, m_f + h * f1, m_r + h * r1
        c = controller(x_a, x_r, tl, params)
        a2, f2, r2 = c - F * x_a, F * x_a - R * x_f, -c + R * x_f
        x_a, x_f, x_r = m_a + h * a2, m_f + h * f2, m_r + h * r2
        c = controller(x_a, x_r, tl, params)
        a3, f3, r3 = c - F * x_a, F * x_a - R * x_f, -c + R * x_f
        x_a, x_f, x_r = m_a + step * a3, m_f + step * f3, m_r + step * r3
        c = controller(x_a, x_r, tl, params)
        a4, f4, r4 = c - F * x_a, F * x_a - R * x_f, -c + R * x_f
        m_a = m_a + w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        m_f = m_f + w * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        m_r = m_r + w * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        # Guard: pools stay non-negative and conserve the 100% total. The clamp
        # maps -0.0 to +0.0; max(x, 0.0) would keep -0.0 and change CSV bytes.
        m_a = m_a if m_a > 0.0 else 0.0
        m_f = m_f if m_f > 0.0 else 0.0
        m_r = m_r if m_r > 0.0 else 0.0
        total = m_a + m_f + m_r
        if abs(total - 100.0) > _CONSERVATION_GUARD:
            # the clamp maps NaN to 0.0: a diverged step has a zero or infinite total
            if not 0.0 < total < math.inf:
                raise NumericError(f"3CC step diverged: pools {m_a}, {m_f}, {m_r} at TL {tl}")
            scale = 100.0 / total
            m_a, m_f, m_r = m_a * scale, m_f * scale, m_r * scale
    return m_a, m_f, m_r


def simulate(initial: CompartmentState | None, load: LoadProfile, params: Cc3Params) -> Cc3Trajectory:
    """Integrate the compartments along a load profile, one state per sample.

    Samples are ``load.dt`` apart (finite and > 0, as :class:`LoadProfile`
    guarantees), and the target load is held constant across each sample
    interval. The first state is the initial state itself (all units rested
    by default). Each frame is one :func:`advance` on Python floats (see the
    module notes), written into the preallocated (n, 3) state array through a
    memoryview, which copies nothing and costs less than a numpy row write.
    """
    if initial is None:
        initial = CompartmentState.rested()
    dt = load.dt
    n = load.values.size
    states = np.empty((n, 3))
    states[0] = initial.M_A, initial.M_F, initial.M_R
    state = states[0].tolist()
    with memoryview(states.reshape(-1)) as flat:
        for k, tl in zip(range(3, 3 * n, 3), map(float, load.values[:-1])):
            state = advance(state, tl, params, dt)
            flat[k], flat[k + 1], flat[k + 2] = state
    return Cc3Trajectory(times=load.times, states=states)


def modulate_torque(tau, rc_hat):
    """Scale torque by capacity: (RC_hat / 100) * tau. Sign is preserved."""
    rc_hat = np.asarray(rc_hat, dtype=float)
    if (rc_hat < 0).any() or (rc_hat > 100).any():
        raise ParameterError("RC_hat must be in [0, 100]")
    return (rc_hat / 100.0) * np.asarray(tau, dtype=float)


@dataclass(frozen=True)
class FatigueProfile:
    """Per-joint fatigue configuration: rates plus the attenuation factor. ``cc3``,
    the rates' :class:`Cc3Params`, is built and validated once and is not a field."""

    joint: str
    F: float
    R: float
    LD: float = 10.0
    LR: float = 10.0
    lam: float = 1.0

    def __post_init__(self):
        if not 0 <= self.lam <= 1:
            raise ParameterError(f"lambda must be in [0,1], got {self.lam}")
        object.__setattr__(self, "cc3", Cc3Params(self.F, self.R, self.LD, self.LR))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FatigueProfile":
        d = dict(d)
        d["lam"] = d.pop("lambda")
        return cls(**d)


def save_profiles(profiles, path) -> None:
    """Profiles as a JSON array of {"joint", "F", "R", "LD", "LR", "lambda"}."""
    write_json(path, [p.to_dict() for p in profiles], indent=2)


_PROFILE_KEYS = {"joint", "F", "R", "LD", "LR", "lambda"}
_REQUIRED_PROFILE_KEYS = {"joint", "F", "R", "lambda"}
_NUMERIC_PROFILE_KEYS = ("F", "R", "LD", "LR", "lambda")


def load_profiles(path) -> dict[str, FatigueProfile]:
    """Profiles by joint from a JSON object or array of objects as :func:`save_profiles` writes.

    A malformed entry, an unknown or missing key, a rate or lambda that is
    not a JSON number (a bool is not) or is out of range, or a second profile
    for one joint raises DataFormatError naming the file and the entry.
    """
    raw = read_json(path)
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise DataFormatError(f"{path}: expected a profile object or an array of them")
    profiles = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise DataFormatError(f"{path}: entry {i} is not an object")
        unknown = entry.keys() - _PROFILE_KEYS
        missing = _REQUIRED_PROFILE_KEYS - entry.keys()
        if unknown:
            raise DataFormatError(f"{path}: entry {i}: unknown keys {sorted(unknown)}")
        if missing:
            raise DataFormatError(f"{path}: entry {i}: missing keys {sorted(missing)}")
        for key in _NUMERIC_PROFILE_KEYS:
            if key in entry and type(entry[key]) not in (int, float):
                raise DataFormatError(f"{path}: entry {i}: {key} must be a number, got {entry[key]!r}")
        if not isinstance(entry["joint"], str):
            raise DataFormatError(f"{path}: entry {i}: joint must be a string")
        with reading(f"{path}: entry {i}"):
            profile = FatigueProfile.from_dict(entry)
        if profile.joint in profiles:
            raise DataFormatError(f"{path}: entry {i}: second profile for joint {profile.joint!r}")
        profiles[profile.joint] = profile
    return profiles


def trajectory_to_csv(traj: Cc3Trajectory, path, lam: float = 1.0) -> None:
    """Trajectory export: t, M_A, M_F, M_R, RC, RC_lambda.

    At lam = 1, RC_lambda is RC bit for bit, so RC's array is passed for both
    columns and :func:`write_table` formats it once.
    """
    rc = traj.rc
    write_table(path, "t,M_A,M_F,M_R,RC,RC_lambda",
                (traj.times, traj.states, rc, rc if lam == 1.0 else traj.rc_lambda(lam)))
