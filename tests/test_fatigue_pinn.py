import json

import numpy as np
import pytest

from fatiguemotion.compartments import Cc3Params, ELBOW, LoadProfile, simulate
from fatiguemotion.errors import ParameterError, ShapeError
from fatiguemotion.fatigue_pinn import (
    N_DENSE_LAYERS,
    Pinn3ccModel,
    PinnData,
    PinnSpec,
    collocation_from_load,
    data_from_trajectory,
    training_indices,
    evaluate_breakdown,
    load_model,
    ode_residuals,
    save_model,
    supervised_loss,
    train_supervised,
    train_unsupervised,
    unsupervised_loss,
)
from fatiguemotion import fatigue_pinn
from fatiguemotion.nncore import Mlp, TrainConfig, encode_params
from fatiguemotion.pipeline import nrmse


def zero_model(spec=PinnSpec(8, "relu")):
    model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=spec)
    for p in model.params():
        p[...] = 0.0
    return model


class TestArchitecture:
    def test_hidden_width_validated(self):
        with pytest.raises(ParameterError):
            PinnSpec(0)

    def test_exactly_five_dense_layers(self):
        model = Pinn3ccModel(ELBOW, t_scale=50.0)
        assert len(model.mlp.layers) == N_DENSE_LAYERS == 5
        assert model.mlp.layers[0].n_in == 2
        assert model.mlp.layers[-1].n_out == 2

    def test_untrained_outputs_finite(self):
        model = Pinn3ccModel(ELBOW, t_scale=50.0, seed=3)
        m_f, m_r = model.predict(np.linspace(0, 50, 20), np.full(20, 40.0))
        assert np.isfinite(m_f).all() and np.isfinite(m_r).all()

    def test_t_scale_validated(self):
        with pytest.raises(ParameterError):
            Pinn3ccModel(ELBOW, t_scale=0.0)


class TestTimeDerivatives:
    def test_zero_weights_zero_derivative(self):
        model = zero_model()
        d_f, d_r = model.time_derivatives(5.0, 30.0)
        assert d_f == 0.0 and d_r == 0.0

    def test_linear_in_time_constant_derivative(self):
        model = zero_model(PinnSpec(4, "linear"))
        # wire input t straight through to both outputs with gain 1
        model.mlp.layers[0].W[0, 0] = 1.0
        model.mlp.layers[1].W[0, 0] = 1.0
        model.mlp.layers[2].W[0, 0] = 1.0
        model.mlp.layers[3].W[0, 0] = 1.0
        model.mlp.layers[4].W[:, 0] = 1.0
        t = np.array([3.0, 10.0, 77.0])
        d_f, d_r = model.time_derivatives(t, np.full(3, 20.0))
        # output = out_scale * (t / t_scale): slope 100/100 = 1
        np.testing.assert_allclose(d_f, 1.0, rtol=1e-12)
        np.testing.assert_allclose(d_r, 1.0, rtol=1e-12)

    def test_matches_finite_difference(self):
        model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=PinnSpec(16, "tanh"), seed=7)
        rng = np.random.default_rng(0)
        h = 1e-3
        for _ in range(50):
            t = rng.uniform(1, 99)
            m_a = rng.uniform(0, 100)
            d_f, d_r = model.time_derivatives(t, m_a)
            fd_f = (model.predict(t + h, m_a)[0] - model.predict(t - h, m_a)[0]) / (2 * h)
            fd_r = (model.predict(t + h, m_a)[1] - model.predict(t - h, m_a)[1]) / (2 * h)
            assert abs(d_f - fd_f) / max(abs(fd_f), 1e-6) < 1e-3
            assert abs(d_r - fd_r) / max(abs(fd_r), 1e-6) < 1e-3


class TestPhysicsResiduals:
    def test_zero_net_zero_load(self):
        model = zero_model()
        rho_f, rho_r = model.physics_residuals(0.0, 0.0, 0.0)
        assert rho_f == 0.0 and rho_r == 0.0

    def test_oracle_substitution_vanishes(self):
        # central differences of a finely simulated trajectory satisfy the
        # ODEs; restrict to t >= 5 s where the development transient is over
        load = LoadProfile.constant(50.0, 60.0, 0.001)
        traj = simulate(None, load, ELBOW)
        sl = slice(5000, 59000)
        dmf = np.gradient(traj.M_F, 0.001)[sl]
        dmr = np.gradient(traj.M_R, 0.001)[sl]
        rho_f, rho_r, _ = ode_residuals(
            ELBOW, traj.M_A[sl], load.values[sl], traj.M_F[sl], traj.M_R[sl], dmf, dmr
        )
        assert np.abs(rho_f).max() < 1e-6
        assert np.abs(rho_r).max() < 1e-6

    def test_loss_is_mean_square_nonnegative(self):
        model = Pinn3ccModel(ELBOW, t_scale=100.0, seed=1)
        data = PinnData(
            t=np.linspace(0, 100, 20), m_a=np.full(20, 50.0), tl=np.full(20, 50.0),
            m_f=np.zeros(20), m_r=np.full(20, 50.0),
        )
        breakdown, _ = supervised_loss(model, data)
        rho_f, rho_r = model.physics_residuals(data.t, data.m_a, data.tl)
        expected = float(np.mean(rho_f**2) + np.mean(rho_r**2))
        assert breakdown.physics == pytest.approx(expected, rel=1e-12)
        assert breakdown.physics >= 0


class TestLossBookkeeping:
    def make_data(self, n=30):
        load = LoadProfile.constant(50.0, 120.0, 120.0 / (n - 1))
        traj = simulate(None, load, ELBOW)
        return data_from_trajectory(traj, load), load

    def test_additivity(self):
        data, _ = self.make_data()
        model = Pinn3ccModel(ELBOW, t_scale=120.0, seed=2)
        b = evaluate_breakdown(model, data, "supervised")
        assert b.total == pytest.approx(b.data + b.physics, rel=1e-12)

    def test_breakdown_is_forward_only(self, monkeypatch):
        data, load = self.make_data()
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(8, "tanh"), seed=5)
        colloc = collocation_from_load(load, ELBOW)
        bc = (0.0, 60.0)
        supervised, _ = supervised_loss(model, data)
        unsupervised, _ = unsupervised_loss(model, colloc, bc, 0.0, 40.0)

        def no_backward(*args):
            raise AssertionError("backward pass during a forward-only evaluation")

        monkeypatch.setattr(Mlp, "backward_tangent", no_backward)
        monkeypatch.setattr(Mlp, "backward", no_backward)
        assert evaluate_breakdown(model, data, "supervised") == supervised
        assert evaluate_breakdown(model, colloc, "unsupervised", bc, 0.0, 40.0) == unsupervised

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_untrained_model_evaluated_once(self, monkeypatch, mode):
        data, load = self.make_data()
        n = len(data) if mode == "supervised" else len(collocation_from_load(load, ELBOW))
        full_data_calls = []
        loss = supervised_loss if mode == "supervised" else unsupervised_loss

        def spy(model, batch, *args, **kwargs):
            if len(batch) == n:
                full_data_calls.append(batch)
            return loss(model, batch, *args, **kwargs)

        monkeypatch.setattr(fatigue_pinn, f"{mode}_loss", spy)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(8, "relu"), seed=6)
        cfg = TrainConfig(batch_size=8, lr=1e-3, epochs=3, patience=50, seed=0)
        if mode == "supervised":
            _, history = train_supervised(model, data, cfg)
        else:
            _, history = train_unsupervised(model, load, cfg)
        assert len(full_data_calls) == 3 + 1  # one per epoch plus entry 0
        assert history[0]["train_loss"] == history[0]["L_total"]

    def test_bc_zero_when_exact(self):
        model = zero_model()
        data = PinnData(t=np.array([1.0]), m_a=np.array([0.0]), tl=np.array([0.0]))
        breakdown, _ = unsupervised_loss(model, data, bc=(0.0, 0.0), t0=0.0, m_a0=0.0)
        assert breakdown.data == 0.0

    def test_supervised_needs_targets(self):
        model = Pinn3ccModel(ELBOW, t_scale=10.0)
        data = PinnData(t=np.array([0.0, 1.0]), m_a=np.zeros(2), tl=np.zeros(2))
        with pytest.raises(ParameterError):
            supervised_loss(model, data)

    def test_supervised_gradients_match_fd(self):
        data, _ = self.make_data(n=10)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(6, "tanh"), seed=3)

        def loss_fn():
            b, grads = supervised_loss(model, data)
            return b.total, grads

        from test_nncore import fd_gradcheck

        fd_gradcheck(model.params(), loss_fn, rtol=2e-4)

    def test_unsupervised_gradients_match_fd(self):
        load = LoadProfile.constant(50.0, 120.0, 12.0)
        data = collocation_from_load(load, ELBOW)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(6, "tanh"), seed=4)

        def loss_fn():
            b, grads = unsupervised_loss(model, data, bc=(0.0, 50.0), t0=0.0, m_a0=50.0)
            return b.total, grads

        from test_nncore import fd_gradcheck

        fd_gradcheck(model.params(), loss_fn, rtol=2e-4)


class TestTraining:
    def test_supervised_learns(self):
        load = LoadProfile.constant(50.0, 100.0, 0.05)
        traj = simulate(None, load, ELBOW)
        data = data_from_trajectory(traj, load, training_indices(load, 40))
        model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=PinnSpec(32, "relu"), seed=0)
        cfg = TrainConfig(batch_size=32, lr=1e-3, epochs=400, patience=100,
                          min_delta=1e-9, seed=0)
        model, history = train_supervised(model, data, cfg)
        assert history[-1]["L_total"] < 0.05 * history[0]["L_total"]
        assert all("L_NN" in e and "L_PB" in e for e in history)

    def test_unsupervised_meets_boundary(self):
        load = LoadProfile.constant(50.0, 100.0, 2.5)
        model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=PinnSpec(32, "relu"), seed=0)
        cfg = TrainConfig(batch_size=32, lr=1e-3, epochs=1500, patience=400,
                          min_delta=1e-10, lr_decay=0.7, decay_patience=150, seed=0)
        model, history = train_unsupervised(model, load, cfg)
        m_a0 = 50.0 * ELBOW.LD / (ELBOW.LD + ELBOW.F)
        m_f0, m_r0 = model.predict(0.0, m_a0)
        assert abs(m_f0 - 0.0) < 1.0
        assert abs(m_r0 - (100.0 - m_a0)) < 1.0
        assert all("L_BC" in e and "L_PB" in e for e in history)

    def test_conservation_of_trained_predictions(self):
        load = LoadProfile.constant(50.0, 100.0, 0.05)
        traj = simulate(None, load, ELBOW)
        data = data_from_trajectory(traj, load, training_indices(load, 40))
        model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=PinnSpec(32, "relu"), seed=0)
        cfg = TrainConfig(batch_size=32, lr=1e-3, epochs=800, patience=200,
                          min_delta=1e-9, seed=0)
        model, _ = train_supervised(model, data, cfg)
        m_f, m_r = model.predict(data.t, data.m_a)
        total = data.m_a + np.clip(m_f, 0, 100) + np.clip(m_r, 0, 100)
        worst = np.abs(total - 100.0).max()
        print(f"conservation of trained predictions: worst |sum-100| = {worst:.3f} %MVC")
        assert worst < 10.0


class TestCheckpoints:
    def test_round_trip_embeds_rates(self, tmp_path):
        custom = Cc3Params(F=0.02, R=0.003, LD=8.0, LR=9.0)
        model = Pinn3ccModel(custom, t_scale=77.0, spec=PinnSpec(16, "tanh"), seed=5)
        path = tmp_path / "pinn.json"
        save_model(path, model, meta={"joint": "wrist"})
        loaded, meta = load_model(path)
        assert loaded.cc3 == custom
        assert loaded.t_scale == 77.0
        assert meta["joint"] == "wrist"
        t = np.linspace(0, 77, 9)
        m_a = np.full(9, 25.0)
        np.testing.assert_array_equal(
            np.stack(loaded.predict(t, m_a)), np.stack(model.predict(t, m_a))
        )

    @pytest.mark.parametrize("damage", ["missing", "extra", "shape"])
    def test_mismatched_params_rejected(self, tmp_path, damage):
        model = Pinn3ccModel(ELBOW, t_scale=50.0, spec=PinnSpec(8, "relu"), seed=1)
        path = tmp_path / "pinn.json"
        save_model(path, model)
        params = [p.copy() for p in model.params()]
        if damage == "missing":
            params = params[:-1]
        elif damage == "extra":
            params.append(np.zeros(3))
        else:
            params[0] = params[0].T.copy()
        doc = json.loads(path.read_text())
        doc["params"] = encode_params(params)
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            load_model(path)
