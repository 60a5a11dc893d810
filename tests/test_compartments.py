import dataclasses
import hashlib

import numpy as np
import pytest

from fatiguemotion import compartments as cc
from fatiguemotion.compartments import (
    MAX_STEP,
    Cc3Params,
    Cc3Trajectory,
    CompartmentState,
    ELBOW,
    FatigueProfile,
    LoadProfile,
    advance,
    controller,
    controller_batch,
    load_profiles,
    modulate_torque,
    save_profiles,
    simulate,
    trajectory_to_csv,
)
from fatiguemotion.errors import NumericError, ParameterError

FAST = Cc3Params(F=0.01, R=0.001)
RESTED = np.array([0.0, 0.0, 100.0])


class TestController:
    def test_case_developing(self):
        assert controller(10, 90, 50, Cc3Params(0, 0)) == 10 * 40

    def test_case_rest_starved(self):
        assert controller(10, 30, 50, Cc3Params(0, 0)) == 10 * 30

    def test_case_relaxing(self):
        assert controller(60, 40, 50, Cc3Params(0, 0)) == 10 * (50 - 60)

    def test_continuity_at_case_boundaries(self):
        p = Cc3Params(F=0.02, R=0.002, LD=10, LR=10)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tl = rng.uniform(0, 100)
            m_a = rng.uniform(0, tl)
            eps = 1e-9
            # boundary M_A = TL: the flow vanishes from both sides
            assert controller(tl, 50.0, tl, p) == 0.0
            assert abs(controller(tl - eps, 100.0, tl, p)) <= 1e-6
            assert abs(controller(tl + eps, 0.0, tl, p)) <= 1e-6
            # boundary M_R = TL - M_A: both developing branches agree
            gap = tl - m_a
            assert controller(m_a, gap, tl, p) == pytest.approx(p.LD * gap, abs=1e-12)
            assert controller(m_a, gap + eps, tl, p) == pytest.approx(p.LD * gap, abs=1e-6)

    def test_batch_agrees_with_scalar(self):
        p = Cc3Params(F=0.02, R=0.002, LD=7.0, LR=13.0)
        rng = np.random.default_rng(3)
        tl = rng.uniform(1, 100, size=300)
        m_a = rng.uniform(0, 100, size=300)
        m_r = rng.uniform(0, 100, size=300)
        # the two tie boundaries, exactly, and both at once
        m_a[:50] = tl[:50]
        m_r[:5] = 0.0
        below = m_a < tl
        tie = np.flatnonzero(below)[-50:]
        m_r[tie] = tl[tie] - m_a[tie]
        c, dc_dmr = controller_batch(m_a, m_r, tl, p)
        scalar = [controller(a, r, t, p) for a, r, t in zip(m_a, m_r, tl)]
        np.testing.assert_array_equal(c, scalar)
        regimes = {
            "develop": below & (m_r > tl - m_a),
            "starved": below & (m_r <= tl - m_a),
            "relax": ~below,
        }
        assert all(mask.sum() >= 20 for mask in regimes.values()), {k: v.sum() for k, v in regimes.items()}
        np.testing.assert_array_equal(dc_dmr[regimes["starved"]], p.LD)
        np.testing.assert_array_equal(dc_dmr[~regimes["starved"]], 0.0)
        # dC/dM_R against a central difference of the scalar controller,
        # where M_R is not within h of the M_R = TL - M_A boundary
        h = 1e-4
        away = np.abs(m_r - (tl - m_a)) > 10 * h
        assert away.sum() >= 200
        fd = [
            (controller(a, r + h, t, p) - controller(a, r - h, t, p)) / (2 * h)
            for a, r, t in zip(m_a[away], m_r[away], tl[away])
        ]
        np.testing.assert_allclose(dc_dmr[away], fd, rtol=0, atol=1e-6)


class TestStepRk4:
    """``advance`` over an interval dt <= MAX_STEP takes exactly one RK4 step."""

    def test_flows_sum_to_zero(self, monkeypatch):
        # With the renormalising guard off, a step's total moves only by
        # rounding: the three flows cancel exactly.
        monkeypatch.setattr(cc, "_CONSERVATION_GUARD", float("inf"))
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = rng.uniform(0, 100, size=3)
            s = advance(100 * m / m.sum(), rng.uniform(0, 100), FAST, 1e-3)
            assert min(s) > 0
            assert sum(s) == pytest.approx(100.0, abs=1e-12)

    def test_full_activation(self):
        # M_A = TL = 100: controller flow is zero, fatigue outflow is F*M_A;
        # the step's second-order term is F*dt/2 = 5e-7 of it
        dt = 1e-4
        m_a, m_f, _ = advance((100.0, 0.0, 0.0), 100, FAST, dt)
        assert m_f / dt == pytest.approx(FAST.F * 100, rel=1e-5)
        assert (m_a - 100.0) / dt == pytest.approx(-FAST.F * 100, rel=1e-5)

    def test_fatigue_recovery_balance(self):
        # F*M_A = R*M_F and C = 0 gives a stationary fatigued pool, up to
        # the step's second-order term dt^2/2 * F^2 * M_A = 2e-11
        p = Cc3Params(F=0.001, R=0.01)
        m_a, m_f = 40.0, 4.0
        tl = m_a  # relaxing branch with TL = M_A gives C = 0
        s = advance((m_a, m_f, 100 - m_a - m_f), tl, p, 1e-3)
        assert s[1] == pytest.approx(m_f, abs=1e-10)

    def test_diverging_step_raises(self):
        # a state far off the 100 % simplex: the relaxing flow LR*(TL - M_A)
        # overflows, the clamp maps NaN to 0.0 and the total is 0
        with pytest.raises(NumericError, match="diverged"):
            advance((1e308, 0.0, 0.0), 50.0, Cc3Params(F=0.01, R=0.001), 0.05)

    @pytest.mark.parametrize("name", ["LD", "LR"])
    @pytest.mark.parametrize("rate", [1e5, 1e300])
    def test_controller_rate_past_the_step_floor_is_refused(self, name, rate):
        # 1e5/s once took the floored sub-step, left RK4's stability region
        # and, under the guard's clamp, held M_A at 0 under any load
        with pytest.raises(ParameterError, match=f"controller rate {name} must be <= 10000/s"):
            Cc3Params(F=0.01, R=0.001, **{name: rate})

    @pytest.mark.parametrize("ld, lr", [(10.0, 10.0), (0.0, 0.0), (60.0, 60.0), (30.0, 5.0), (5.0, 400.0),
                                        (1e4, 1e4)])
    def test_sub_step_bounds_the_controller_rates(self, ld, lr):
        p = Cc3Params(F=0.01, R=0.001, LD=ld, LR=lr)
        assert p.rk4_step == min(MAX_STEP, 0.5 / max(ld, lr, 1e-300))
        assert max(ld, lr) * p.rk4_step <= 0.5
        assert dataclasses.asdict(p) == {"F": 0.01, "R": 0.001, "LD": ld, "LR": lr}

    @pytest.mark.parametrize("rate", [30.0, 60.0])
    def test_fast_controller_tracks_the_load(self, rate):
        # At LD*0.05 = 1.5 and 3 a fixed 0.05 s step left M_A near 0 under a 50 %MVC load.
        traj = simulate(None, LoadProfile.constant(50.0, 5.0, 0.05), Cc3Params(0.01, 0.001, rate, rate))
        assert 49.9 < traj.M_A[20:].min() <= traj.M_A.max() < 50.0

    def test_rest_fixed_point(self):
        s = advance(RESTED, 0.0, ELBOW, MAX_STEP)
        assert tuple(s) == (0.0, 0.0, 100.0)

    def test_order_four_convergence(self):
        # TL=100 keeps the controller on one branch, so the dynamics are
        # smooth; Richardson ratios over [0, 0.4] s should sit near 2^4.
        def integrate(dt, t_end=0.4):
            assert dt <= MAX_STEP
            s = RESTED
            for _ in range(int(round(t_end / dt))):
                s = advance(s, 100.0, ELBOW, dt)
            return s

        ref = integrate(0.4 / 2048)
        errs = [np.abs(np.asarray(integrate(dt)) - ref).max() for dt in (0.04, 0.02, 0.01)]
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 12 < r1 < 20, (errs, r1)
        assert 12 < r2 < 20, (errs, r2)

    def test_against_fine_euler_reference(self):
        # Independent oracle: explicit Euler at dt=1e-3 out to t=60 s. The
        # reference's own truncation error is ~1.5e-4 %MVC on the large
        # pools, so agreement is checked per component relative to scale.
        p = ELBOW
        s = np.array([0.0, 0.0, 100.0])
        dt = 1e-3
        for _ in range(60_000):
            m_a, m_f, m_r = s
            c = p.LD * m_r if (m_a < 100 and m_r <= 100 - m_a) else p.LD * (100 - m_a)
            s = s + dt * np.array([c - p.F * m_a, p.F * m_a - p.R * m_f, -c + p.R * m_f])
        state_arr = RESTED
        for _ in range(1200):
            state_arr = advance(state_arr, 100.0, p, 0.05)
        rel = np.abs(state_arr - s) / np.maximum(np.abs(s), 1e-9)
        assert rel.max() < 1e-4, (state_arr, s, rel)


class TestSimulate:
    def test_no_demand_constant(self):
        load = LoadProfile.constant(0.0, 10.0, 0.05)
        traj = simulate(None, load, ELBOW)
        np.testing.assert_array_equal(traj.states, np.tile([0.0, 0.0, 100.0], (201, 1)))

    def test_fatigue_monotone_under_load(self):
        load = LoadProfile.constant(50.0, 100.0, 0.05)
        traj = simulate(None, load, ELBOW)
        assert np.diff(traj.M_F).min() >= 0

    def test_steady_state_balance(self):
        p = ELBOW
        load = LoadProfile.constant(50.0, 10.0 / p.R, 0.5)
        traj = simulate(None, load, p)
        f_in = p.F * traj.M_A[-1]
        r_out = p.R * traj.M_F[-1]
        assert abs(f_in - r_out) < 0.01 * f_in

    def test_conservation_and_positivity(self):
        load = LoadProfile.constant(80.0, 500.0, 0.05)
        traj = simulate(None, load, Cc3Params(F=0.1, R=0.01))
        assert traj.conservation_error() < 1e-6
        assert traj.states.min() >= 0

    def test_faster_fatigue_for_larger_f(self):
        load = LoadProfile.constant(50.0, 100.0, 0.01)
        slow = simulate(None, load, Cc3Params(F=ELBOW.F, R=ELBOW.R))
        fast = simulate(None, load, Cc3Params(F=2 * ELBOW.F, R=ELBOW.R))
        assert np.all(fast.M_F[1:] > slow.M_F[1:])

    def test_rc_monotone_while_fatiguing(self):
        load = LoadProfile.constant(60.0, 50.0, 0.05)
        traj = simulate(None, load, FAST)
        assert np.diff(traj.rc).max() <= 0

    def test_one_advance_per_frame(self, monkeypatch):
        # each frame is one call of the module's advance, with dt as its fourth argument
        calls = []
        real = cc.advance

        def counting(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(cc, "advance", counting)
        load = LoadProfile(np.array([30.0, 80.0, 0.0, 50.0, 50.0, 10.0]), 0.2)
        traj = simulate(None, load, FAST)
        assert calls == [0.2] * (load.values.size - 1)
        monkeypatch.undo()
        np.testing.assert_array_equal(traj.states, simulate(None, load, FAST).states)

    def test_empty_profile_rejected(self):
        with pytest.raises(ParameterError):
            LoadProfile(np.array([]), 0.05)

    @pytest.mark.parametrize("dt", [0.0, -0.05, float("nan"), float("inf")])
    def test_profile_dt_domain(self, dt):
        with pytest.raises(ParameterError, match="finite"):
            LoadProfile(np.array([50.0, 50.0]), dt)

    def test_load_outside_domain_rejected(self):
        for tl in (120.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                LoadProfile(np.array([50.0, tl]), 0.05)

    def test_constant_duration_domain(self):
        for duration, dt in ((-1.0, 0.05), (float("nan"), 0.05), (float("inf"), 0.05),
                             (1.0, 0.0), (1.0, -0.05), (1.0, float("nan")), (1e300, 1e-300)):
            with pytest.raises(ParameterError):
                LoadProfile.constant(50.0, duration, dt)
        assert LoadProfile.constant(50.0, 0.0, 0.05).values.size == 1

    @pytest.mark.parametrize("duration, dt", [(10.0, 20.0), (0.02, 0.05), (1e-300, 0.05)])
    def test_constant_refuses_a_duration_that_rounds_to_no_step(self, duration, dt):
        # once a one-frame profile: the t = 0 state and no step at all
        with pytest.raises(ParameterError, match="no step"):
            LoadProfile.constant(50.0, duration, dt)
        assert LoadProfile.constant(50.0, 0.03, 0.05).values.size == 2

    def test_determinism(self):
        load = LoadProfile.constant(70.0, 20.0, 0.05)
        a = simulate(None, load, FAST)
        b = simulate(None, load, FAST)
        np.testing.assert_array_equal(a.states, b.states)


def noisy_duty_load(dt, seconds=60.0, seed=5):
    """3 s bouts near 90 %MVC and 1 s rests, with seeded Gaussian noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(seconds / dt)) + 1) * dt
    level = np.where((t % 4.0) < 3.0, 90.0, 0.0) + rng.normal(0.0, 4.0, t.size)
    return LoadProfile(np.clip(level, 0.0, 100.0), dt)


class TestGolden:
    """``simulate`` pinned bit for bit to digests of its (n, 3) state array."""

    @pytest.mark.parametrize("dt, digest", [
        (0.05, "30911486057399704845b0148ee720398f60370eb708971b8ec0535641cc7598"),
        (0.2, "f1100e7411cfb2d94917e56a98d9afa44b859167fcbe750a15738efab108abc7"),
    ], ids=["one-step", "four-substeps"])
    def test_noisy_load(self, dt, digest):
        load = noisy_duty_load(dt)
        traj = simulate(None, load, Cc3Params(F=0.1, R=0.02))
        m_a, m_r, tl = traj.M_A[:-1], traj.M_R[:-1], load.values[:-1]
        below = m_a < tl
        starved = m_r <= tl - m_a
        regimes = {"develop": below & ~starved, "starved": below & starved, "relax": ~below}
        assert all(mask.sum() >= 10 for mask in regimes.values()), {k: v.sum() for k, v in regimes.items()}
        assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest

    def test_clamp(self):
        # The sub-step bounds LD*step and LR*step, not F: F*dt = 3 is outside
        # RK4's accuracy range, so every loaded step overshoots M_A below zero
        # and the guard clamps it to +0.0 and renormalises the rest to 100.
        load = LoadProfile(np.array([50.0] * 10 + [0.0] * 5), 0.05)
        traj = simulate(None, load, Cc3Params(F=60.0, R=0.0))
        assert (traj.M_A == 0.0).all() and (np.diff(traj.M_F[:11]) > 0).all()
        assert np.abs(traj.states.sum(axis=1) - 100.0).max() < 1e-12
        assert not np.signbit(traj.states).any()
        assert hashlib.sha256(traj.states.tobytes()).hexdigest() == (
            "7f332b8b7d650fc9d8d11746b2052e0d43ef0856f15b9d88eaa6ac0f6c7e24ad"
        )


def one_state(m_a, m_f, m_r):
    return Cc3Trajectory(times=np.zeros(1), states=np.array([[m_a, m_f, m_r]]))


class TestResidualCapacity:
    def test_paper_worked_example(self):
        assert one_state(30, 20, 50).rc_lambda(0.6)[0] == pytest.approx(88.0, abs=1e-12)

    def test_lambda_one_is_rc(self):
        traj = one_state(30, 25, 45)
        assert traj.rc_lambda(1.0)[0] == traj.rc[0] == 75.0

    def test_lambda_zero_disables(self):
        assert one_state(0, 95, 5).rc_lambda(0.0)[0] == 100.0

    def test_lambda_domain(self):
        traj = one_state(30, 20, 50)
        with pytest.raises(ParameterError):
            traj.rc_lambda(1.5)
        with pytest.raises(ParameterError):
            traj.rc_lambda(-0.1)


class TestModulateTorque:
    def test_example(self):
        assert modulate_torque(0.5, 88.0) == pytest.approx(0.44, abs=1e-12)

    def test_identity_at_full_capacity(self):
        assert modulate_torque(-3.7, 100.0) == -3.7

    def test_sign_preserved(self):
        assert modulate_torque(-2.0, 70.0) == pytest.approx(-1.4, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            modulate_torque(1.0, 140.0)


class TestStateInvariants:
    def test_conservation_required(self):
        with pytest.raises(ParameterError):
            CompartmentState(50, 10, 10)

    def test_non_negative(self):
        with pytest.raises(ParameterError):
            CompartmentState(-5, 5, 100)


class TestProfilesAndExport:
    def test_profile_json_round_trip(self, tmp_path):
        profiles = [
            FatigueProfile("elbow", F=0.00912, R=0.00094, lam=0.6),
            FatigueProfile("shoulder", F=0.0146, R=0.0022, lam=1.0),
        ]
        save_profiles(profiles, tmp_path / "p.json")
        text = (tmp_path / "p.json").read_text()
        assert '"lambda"' in text and '"lam"' not in text
        loaded = load_profiles(tmp_path / "p.json")
        assert loaded["elbow"] == profiles[0]
        assert loaded["shoulder"].cc3 == Cc3Params(0.0146, 0.0022)

    def test_lambda_validated(self):
        with pytest.raises(ParameterError):
            FatigueProfile("elbow", F=0.01, R=0.001, lam=1.2)

    def test_rates_validated(self):
        for rates in ({"F": -0.01, "R": 0.001}, {"F": 0.01, "R": -0.001},
                      {"F": 0.01, "R": 0.001, "LD": -1.0}, {"F": 0.01, "R": 0.001, "LR": -1.0},
                      {"F": float("nan"), "R": 0.001}, {"F": 0.01, "R": float("inf")}):
            with pytest.raises(ParameterError):
                FatigueProfile("elbow", **rates)

    def test_trajectory_csv(self, tmp_path):
        load = LoadProfile.constant(50.0, 1.0, 0.05)
        traj = simulate(None, load, FAST)
        trajectory_to_csv(traj, tmp_path / "traj.csv", lam=0.5)
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,M_A,M_F,M_R,RC,RC_lambda"
        assert len(lines) == 1 + load.values.size
        row = [float(v) for v in lines[-1].split(",")]
        assert row[1] + row[2] + row[3] == pytest.approx(100.0, abs=1e-9)
        assert row[5] == pytest.approx(100.0 - 0.5 * row[2], abs=1e-12)

    def test_trajectory_csv_bytes(self, tmp_path):
        traj = simulate(None, LoadProfile(np.array([40.0, 40.0, 0.0, 60.0]), 0.5), Cc3Params(0.2, 0.05))
        trajectory_to_csv(traj, tmp_path / "traj.csv", lam=0.5)
        assert (tmp_path / "traj.csv").read_text() == (
            "t,M_A,M_F,M_R,RC,RC_lambda\n"
            "0.0,0.0,0.0,100.0,100.0,100.0\n"
            "0.5,38.975541954781896,3.124042597408732,57.90041544780939,96.87595740259127,98.43797870129563\n"
            "1.0,39.21421570750521,6.915278586929233,53.870505705565556,93.08472141307077,96.54236070653539\n"
            "1.5,0.24013531444593092,7.493424044998509,92.26644064055556,92.5065759550015,96.25328797750075\n"
        )
