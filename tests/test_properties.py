"""Property tests of invariants over generated inputs."""
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fatiguemotion.compartments import Cc3Params, LoadProfile, simulate  # noqa: E402
from fatiguemotion.errors import ParameterError  # noqa: E402
from fatiguemotion.sequences import (  # noqa: E402
    MotionSequence,
    load_sequence,
    save_sequence,
    torque_to_activation,
)

loads = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20)
steps = st.floats(0.0, 1.0, exclude_min=True)
rates = st.builds(
    Cc3Params,
    F=st.floats(0.0, 0.5),
    R=st.floats(0.0, 0.5),
    LD=st.floats(0.0, 20.0),
    LR=st.floats(0.0, 20.0),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=loads, dt=steps, params=rates)
def test_simulate_pools_stay_non_negative_and_sum_to_100(values, dt, params):
    traj = simulate(None, LoadProfile(np.array(values), dt), params)
    assert traj.states.shape == (len(values), 3)
    assert traj.states.min() >= 0
    assert traj.conservation_error() <= 1e-6


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True), min_size=1, max_size=4, unique=True)


@st.composite
def sequences(draw):
    joints = draw(names)
    n_frames = draw(st.integers(2, 12))
    frames = draw(arrays(np.float64, (n_frames, len(joints)), elements=finite))
    dt = draw(st.floats(0.0, 1e3, exclude_min=True))
    return MotionSequence(joints, dt, frames)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seq=sequences())
def test_sequence_csv_round_trip_is_exact(seq):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "seq.csv"
        save_sequence(seq, path)
        loaded = load_sequence(path)
    assert loaded.joint_names == seq.joint_names
    assert loaded.dt == seq.dt
    assert loaded.frames.tobytes() == seq.frames.tobytes()  # bit for bit, signed zeros too


torques = arrays(np.float64, st.integers(1, 20), elements=st.floats(-1e6, 1e6))
tau_maxes = st.floats(1e-3, 1e6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tau=torques, tau_max=tau_maxes)
def test_activation_in_range_even_and_monotone_in_magnitude(tau, tau_max):
    act = torque_to_activation(tau, tau_max)
    assert ((act >= 0) & (act <= 100)).all()
    np.testing.assert_array_equal(act, torque_to_activation(-tau, tau_max))
    order = np.argsort(np.abs(tau), kind="stable")
    assert (np.diff(act[order]) >= 0).all()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tau_max=st.floats(max_value=0.0) | st.just(float("nan")))
def test_activation_rejects_non_positive_tau_max(tau_max):
    with pytest.raises(ParameterError):
        torque_to_activation(1.0, tau_max)
