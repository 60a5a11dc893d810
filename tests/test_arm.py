import numpy as np
import pytest

from fatiguemotion.arm import (
    ArmParams,
    JOINT_NAMES,
    coriolis_vector,
    generate_dataset,
    generate_trajectory,
    gravity_vector,
    inverse_dynamics,
    load_dataset,
    mass_matrix,
    save_dataset,
)
from fatiguemotion.errors import ParameterError

P = ArmParams()


def forward_dynamics(q, qd, tau, params: ArmParams) -> np.ndarray:
    """qdd = M(q)^-1 (tau - C(q, qd) - G(q)); M is always invertible."""
    tau = np.asarray(tau, dtype=float)
    rhs = tau - coriolis_vector(q, qd, params) - gravity_vector(q, params)
    return np.linalg.solve(mass_matrix(q, params), rhs[..., None])[..., 0]


def kinetic_energy(q, qd, params: ArmParams) -> np.ndarray:
    qd = np.asarray(qd, dtype=float)
    return 0.5 * np.einsum("...i,...ij,...j->...", qd, mass_matrix(q, params), qd)


@pytest.fixture(scope="module")
def lagrangian_oracle():
    """Symbolic derivation of tau(q, qd, qdd) from the Lagrangian; independent
    of the closed forms under test."""
    import sympy as sp

    q1, q2, dq1, dq2, ddq1, ddq2 = sp.symbols("q1 q2 dq1 dq2 ddq1 ddq2")
    t = sp.symbols("t")
    f1, f2 = sp.Function("f1")(t), sp.Function("f2")(t)
    m1, m2, l1, r1, r2, I1, I2, g = P.m1, P.m2, P.l1, P.r1, P.r2, P.I1, P.I2, P.g

    p1 = sp.Matrix([r1 * sp.cos(f1), r1 * sp.sin(f1)])
    p2 = sp.Matrix([l1 * sp.cos(f1) + r2 * sp.cos(f1 + f2), l1 * sp.sin(f1) + r2 * sp.sin(f1 + f2)])
    v1 = p1.diff(t)
    v2 = p2.diff(t)
    kin = (
        sp.Rational(1, 2) * m1 * (v1.T * v1)[0]
        + sp.Rational(1, 2) * I1 * f1.diff(t) ** 2
        + sp.Rational(1, 2) * m2 * (v2.T * v2)[0]
        + sp.Rational(1, 2) * I2 * (f1.diff(t) + f2.diff(t)) ** 2
    )
    pot = m1 * g * p1[1] + m2 * g * p2[1]
    lag = kin - pot
    taus = []
    for f in (f1, f2):
        tau = sp.diff(sp.diff(lag, f.diff(t)), t) - sp.diff(lag, f)
        taus.append(tau)
    subs = [
        (f1.diff(t, 2), ddq1), (f2.diff(t, 2), ddq2),
        (f1.diff(t), dq1), (f2.diff(t), dq2),
        (f1, q1), (f2, q2),
    ]
    taus = [sp.simplify(tau.subs(subs)) for tau in taus]
    return sp.lambdify((q1, q2, dq1, dq2, ddq1, ddq2), taus, "numpy")


class TestAgainstLagrangian:
    def test_inverse_dynamics_matches(self, lagrangian_oracle):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q, qd, qdd = rng.normal(size=(3, 2)) * [np.pi, 3.0]
            expected = np.array(lagrangian_oracle(q[0], q[1], qd[0], qd[1], qdd[0], qdd[1]))
            np.testing.assert_allclose(inverse_dynamics(q, qd, qdd, P), expected, rtol=1e-9)

    def test_terms_match(self, lagrangian_oracle):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q, qd, qdd = rng.normal(size=(3, 2)) * 2.0
            grav = np.array(lagrangian_oracle(q[0], q[1], 0, 0, 0, 0))
            np.testing.assert_allclose(gravity_vector(q, P), grav, rtol=1e-9)
            cor = np.array(lagrangian_oracle(q[0], q[1], qd[0], qd[1], 0, 0)) - grav
            np.testing.assert_allclose(coriolis_vector(q, qd, P), cor, rtol=1e-9, atol=1e-12)
            for j, e in enumerate(np.eye(2)):
                col = np.array(lagrangian_oracle(q[0], q[1], 0, 0, e[0], e[1])) - grav
                np.testing.assert_allclose(mass_matrix(q, P)[:, j], col, rtol=1e-9)


class TestMassMatrix:
    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-np.pi, np.pi, size=(10_000, 2))
        m = mass_matrix(q, P)
        np.testing.assert_array_equal(m[:, 0, 1], m[:, 1, 0])
        eig = np.linalg.eigvalsh(m)
        assert eig.min() > 0

    def test_independent_of_shoulder_angle(self):
        rng = np.random.default_rng(3)
        q2 = rng.uniform(-np.pi, np.pi, size=64)
        base = mass_matrix(np.stack([np.zeros(64), q2], axis=1), P)
        for q1 in rng.uniform(-np.pi, np.pi, size=8):
            m = mass_matrix(np.stack([np.full(64, q1), q2], axis=1), P)
            np.testing.assert_array_equal(m, base)


class TestDynamicsPair:
    def test_statics_pure_gravity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.normal(size=2)
            z = np.zeros(2)
            np.testing.assert_allclose(inverse_dynamics(q, z, z, P), gravity_vector(q, P), rtol=1e-12)

    def test_inertia_only(self):
        p0 = ArmParams(g=0.0)
        rng = np.random.default_rng(5)
        q, qdd = rng.normal(size=(2, 2))
        tau = inverse_dynamics(q, np.zeros(2), qdd, p0)
        np.testing.assert_allclose(tau, mass_matrix(q, p0) @ qdd, rtol=1e-12)

    def test_mutual_inverses(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            q, qd, qdd = rng.normal(size=(3, 2)) * 2.0
            tau = inverse_dynamics(q, qd, qdd, P)
            np.testing.assert_allclose(forward_dynamics(q, qd, tau, P), qdd, atol=1e-9)
            tau2 = rng.normal(size=2) * 5.0
            acc = forward_dynamics(q, qd, tau2, P)
            np.testing.assert_allclose(inverse_dynamics(q, qd, acc, P), tau2, atol=1e-9)

    def test_equilibrium(self):
        q = np.array([0.4, 0.9])
        qdd = forward_dynamics(q, np.zeros(2), gravity_vector(q, P), P)
        np.testing.assert_allclose(qdd, 0.0, atol=1e-12)

    def test_energy_conserved_unforced(self):
        # tau = 0, g = 0: kinetic energy is invariant along RK4 trajectories
        p0 = ArmParams(g=0.0)
        q = np.array([0.3, 1.1])
        qd = np.array([1.0, -2.0])
        e0 = kinetic_energy(q, qd, p0)
        h = 1e-4
        state = np.concatenate([q, qd])

        def rhs(s):
            return np.concatenate([s[2:], forward_dynamics(s[:2], s[2:], np.zeros(2), p0)])

        for _ in range(int(1.0 / h)):
            k1 = rhs(state)
            k2 = rhs(state + h / 2 * k1)
            k3 = rhs(state + h / 2 * k2)
            k4 = rhs(state + h * k3)
            state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        e1 = kinetic_energy(state[:2], state[2:], p0)
        assert abs(e1 - e0) / e0 < 1e-6


class TestDatasetGenerator:
    def test_determinism(self):
        a = generate_dataset(P, 3, 32, 0.05, seed=1)
        b = generate_dataset(P, 3, 32, 0.05, seed=1)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.motion.frames, tb.motion.frames)
            np.testing.assert_array_equal(ta.torque.frames, tb.torque.frames)

    def test_equation_of_motion_residual(self):
        # generate_dataset draws one trajectory per trial from a generator seeded once
        rng = np.random.default_rng(2)
        for trial in generate_dataset(P, 5, 64, 0.05, seed=2):
            q, qd, qdd = generate_trajectory(64, 0.05, rng)
            np.testing.assert_array_equal(q, trial.motion.frames)
            assert np.abs(inverse_dynamics(q, qd, qdd, P) - trial.torque.frames).max() < 1e-9

    def test_shapes(self):
        trials = generate_dataset(P, 20, 200, 0.05, seed=3)
        assert len(trials) == 20
        for t in trials:
            assert t.motion.frames.shape == (200, 2)
            assert t.torque.frames.shape == (200, 2)
            assert t.motion.joint_names == JOINT_NAMES

    def test_rest_to_rest(self):
        _, qd, _ = generate_trajectory(32, 0.05, np.random.default_rng(4))
        np.testing.assert_allclose(qd[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(qd[-1], 0.0, atol=1e-9)

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            generate_dataset(P, 2, 8, 0.05, seed=0)
        with pytest.raises(ParameterError):
            generate_dataset(P, 2, 32, 0.2, seed=0)
        with pytest.raises(ParameterError):
            generate_dataset(P, 2, 32, 0.0, seed=0)
        with pytest.raises(ParameterError):
            generate_dataset(P, 2, 32, 0.05, seed=0, n_segments=0)

    def test_save_load_round_trip(self, tmp_path):
        trials = generate_dataset(P, 2, 24, 0.05, seed=5)
        save_dataset(trials, P, tmp_path)
        loaded, params, manifest = load_dataset(tmp_path)
        assert params == P
        assert manifest["trials"] == ["trial000", "trial001"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "trial000_angles.csv", "trial000_torques.csv",
            "trial001_angles.csv", "trial001_torques.csv"]
        for ta, tb in zip(trials, loaded):
            np.testing.assert_array_equal(ta.motion.frames, tb.motion.frames)
            np.testing.assert_array_equal(ta.torque.frames, tb.torque.frames)

    def test_arm_params_validated(self):
        with pytest.raises(ParameterError):
            ArmParams(m1=-1.0)
        with pytest.raises(ParameterError):
            ArmParams(r1=0.5, l1=0.3)
