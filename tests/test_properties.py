"""Property tests of physical invariants over generated inputs."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fatiguemotion.compartments import Cc3Params, LoadProfile, simulate  # noqa: E402

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
