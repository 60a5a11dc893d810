"""Property tests of invariants over generated inputs."""
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fatiguemotion.cli import _load_model_dir  # noqa: E402
from fatiguemotion.compartments import Cc3Params, LoadProfile, load_profiles, simulate  # noqa: E402
from fatiguemotion.errors import DataFormatError, FatigueMotionError, NumericError, ParameterError  # noqa: E402
from fatiguemotion.sequences import (  # noqa: E402
    MotionSequence,
    NormalizationParams,
    load_sequence,
    save_sequence,
    torque_to_activation,
)
from fatiguemotion.surrogates import BiLstmModel, BiLstmSpec, model_io, save_model  # noqa: E402

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


# Any JSON value, with the integers a reader must refuse or bound: negative,
# and beyond float range.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([-1, 0, 1, 10**400])
    | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@functools.cache
def surrogate_checkpoints() -> dict:
    """The text of a tiny one-joint ID and FD checkpoint pair, by kind."""
    angles = NormalizationParams(("elbow",), [0.0], [1.0])
    torques = NormalizationParams(("elbow",), [-2.0], [2.0])
    with tempfile.TemporaryDirectory() as d:
        texts = {}
        for kind in ("id", "fd"):
            path = Path(d) / f"{kind}_elbow.json"
            model = BiLstmModel(1, BiLstmSpec(1, 2), kind=kind)
            save_model(path, model, "elbow", *model_io(kind, angles, torques), tau_max=2.0)
            texts[kind] = path.read_text()
    return texts


@settings(max_examples=150, deadline=None, derandomize=True)
@given(section=st.sampled_from(["architecture", "meta"]), field=st.data(), value=json_values)
def test_checkpoint_field_loads_or_is_refused_naming_the_file(section, field, value):
    # The ID checkpoint is read first. Refusals are exit-2 errors naming it:
    # DataFormatError, ParameterError (not a bilstm checkpoint), ShapeError
    # (the architecture claims other parameter shapes), or the FD checkpoint's
    # normalization differing from it. A joint renamed in its meta leaves the
    # ID and FD joint sets apart, which names the directory.
    texts = surrogate_checkpoints()
    doc = json.loads(texts["id"])
    doc[section][field.draw(st.sampled_from(sorted(doc[section])))] = value
    with tempfile.TemporaryDirectory() as d:
        modeldir = Path(d)
        (modeldir / "id_elbow.json").write_text(json.dumps(doc))
        (modeldir / "fd_elbow.json").write_text(texts["fd"])
        try:
            _load_model_dir(modeldir)
        except FatigueMotionError as exc:
            assert not isinstance(exc, NumericError)
            assert "id_elbow.json" in str(exc) or str(exc).startswith(f"{modeldir}: ID joints"), exc


PROFILE_ENTRY = {"joint": "elbow", "F": 0.5, "R": 0.01, "LD": 10.0, "LR": 10.0, "lambda": 0.8}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(key=st.sampled_from(sorted(PROFILE_ENTRY)), value=json_values)
def test_profile_field_loads_or_is_refused_naming_the_file(key, value):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "profiles.json"
        path.write_text(json.dumps([{**PROFILE_ENTRY, key: value}]))
        try:
            load_profiles(path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}: entry 0: "), exc
