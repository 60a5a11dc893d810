import json

import numpy as np
import pytest

from fatiguemotion.compartments import Cc3Params, ELBOW, LoadProfile, simulate
from fatiguemotion.errors import DataFormatError, ParameterError, ShapeError
from fatiguemotion.fatigue_pinn import (
    LOSS_TERMS,
    N_DENSE_LAYERS,
    Pinn3ccModel,
    PinnData,
    PinnSpec,
    collocation_from_load,
    data_from_trajectory,
    training_indices,
    load_model,
    ode_residuals,
    prepare_run,
    save_model,
    supervised_loss,
    train_supervised,
    train_unsupervised,
)
from fatiguemotion import fatigue_pinn
from fatiguemotion.nncore import Mlp, TrainConfig, encode_params
from fatiguemotion.pipeline import nrmse
from test_surrogates import refuse_to_build


def boundary(t0, m_a0, m_f0, m_r0):
    """A one-sample anchor: targets (M_F, M_R) at (t0, M_A(t0))."""
    t, m_a, tl, m_f, m_r = np.array([[t0], [m_a0], [0.0], [m_f0], [m_r0]], dtype=float)
    return PinnData(t, m_a, tl, m_f=m_f, m_r=m_r)


def time_tangent(model, t, m_a):
    """(M_F, M_R) and their exact time derivative at (t, M_A), in %MVC, from
    the inputs and tangent direction that :func:`prepare_run` builds."""
    t, m_a = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                 np.atleast_1d(np.asarray(m_a, dtype=float)))
    zeros = np.zeros_like(t)
    run = prepare_run(model, PinnData(t, m_a, zeros, m_f=zeros, m_r=zeros))
    y, ydot, _ = model.mlp.forward_tangent(run.u, run.v)
    return model.out_scale * y, model.out_scale * ydot


def composed_loss(model, samples, rows, anchor=None):
    """(terms, grads) of :func:`supervised_loss` on the samples ``rows``,
    composed the way each batch once built its own: ``_inputs`` of the rows
    and the anchor's, a tangent direction of 1/t_scale in t, then
    ``forward_tangent`` and ``backward_tangent``."""
    t, m_a, tl = samples.t[rows], samples.m_a[rows], samples.tl[rows]
    n = t.size
    if anchor is None:
        targets = np.stack([samples.m_f[rows], samples.m_r[rows]], axis=-1)
    else:
        targets = np.stack([anchor.m_f, anchor.m_r], axis=-1)
        t, m_a = np.concatenate([t, anchor.t]), np.concatenate([m_a, anchor.m_a])
    u = model._inputs(t, m_a)
    v = np.zeros_like(u)
    v[:, 0] = 1.0 / model.t_scale
    y, ydot, cache = model.mlp.forward_tangent(u, v)
    m, mdot = model.out_scale * y, model.out_scale * ydot
    rho_f, rho_r, dc_dmr = ode_residuals(model.cc3, m_a[:n], tl, m[:n, 0], m[:n, 1], mdot[:n, 0], mdot[:n, 1])
    data_rows = slice(0 if anchor is None else n, None)
    err = m[data_rows] - targets
    l_pb = float(np.mean(rho_f**2) + np.mean(rho_r**2))
    l_data = float(np.mean(err[:, 0]**2) + np.mean(err[:, 1]**2))
    gy, gydot = np.zeros_like(m), np.zeros_like(mdot)
    gydot[:n, 0] = (2.0 / n) * rho_f
    gydot[:n, 1] = (2.0 / n) * rho_r
    gy[:n, 0] = gydot[:n, 0] * model.cc3.R - gydot[:n, 1] * model.cc3.R
    gy[:n, 1] = gydot[:n, 1] * dc_dmr
    gy[data_rows] += (2.0 / targets.shape[0]) * err
    grads = model.mlp.backward_tangent(cache, gy * model.out_scale, gydot * model.out_scale)
    return dict(zip(LOSS_TERMS, (l_data + l_pb, l_data, l_pb))), grads


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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_predict_is_the_tangent_pass_output(self, activation):
        model = Pinn3ccModel(ELBOW, t_scale=50.0, spec=PinnSpec(16, activation), seed=2)
        t, m_a = np.random.default_rng(1).uniform([0, 0], [50, 100], size=(40, 2)).T
        m, _ = time_tangent(model, t, m_a)
        np.testing.assert_array_equal(np.stack(model.predict(t, m_a), axis=-1), m)

    def test_t_scale_validated(self):
        for t_scale in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ParameterError):
                Pinn3ccModel(ELBOW, t_scale=t_scale)


class TestTimeDerivatives:
    def test_zero_weights_zero_derivative(self):
        model = zero_model()
        _, mdot = time_tangent(model, 5.0, 30.0)
        assert mdot.shape == (1, 2) and (mdot == 0.0).all()

    def test_linear_in_time_constant_derivative(self):
        model = zero_model(PinnSpec(4, "linear"))
        # wire input t straight through to both outputs with gain 1
        model.mlp.layers[0].W[0, 0] = 1.0
        model.mlp.layers[1].W[0, 0] = 1.0
        model.mlp.layers[2].W[0, 0] = 1.0
        model.mlp.layers[3].W[0, 0] = 1.0
        model.mlp.layers[4].W[:, 0] = 1.0
        t = np.array([3.0, 10.0, 77.0])
        _, mdot = time_tangent(model, t, np.full(3, 20.0))
        # output = out_scale * (t / t_scale): slope 100/100 = 1
        assert mdot.shape == (3, 2)
        np.testing.assert_allclose(mdot, 1.0, rtol=1e-12)

    def test_matches_finite_difference(self):
        model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=PinnSpec(16, "tanh"), seed=7)
        rng = np.random.default_rng(0)
        h = 1e-3
        t, m_a = rng.uniform([1, 0], [99, 100], size=(50, 2)).T
        _, mdot = time_tangent(model, t, m_a)
        fd = (np.stack(model.predict(t + h, m_a), axis=-1)
              - np.stack(model.predict(t - h, m_a), axis=-1)) / (2 * h)
        assert (np.abs(mdot - fd) / np.maximum(np.abs(fd), 1e-6) < 1e-3).all()


class TestPhysicsResiduals:
    def test_zero_net_zero_load(self):
        model = zero_model()
        m, mdot = time_tangent(model, 0.0, 0.0)
        rho_f, rho_r, _ = ode_residuals(ELBOW, 0.0, 0.0, m[:, 0], m[:, 1], mdot[:, 0], mdot[:, 1])
        assert (rho_f == 0.0).all() and (rho_r == 0.0).all()

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
        terms, _ = supervised_loss(model, prepare_run(model, data))
        m, mdot = time_tangent(model, data.t, data.m_a)
        rho_f, rho_r, _ = ode_residuals(ELBOW, data.m_a, data.tl, m[:, 0], m[:, 1], mdot[:, 0], mdot[:, 1])
        expected = float(np.mean(rho_f**2) + np.mean(rho_r**2))
        assert terms["L_PB"] == pytest.approx(expected, rel=1e-12)
        assert terms["L_PB"] >= 0


class TestLossBookkeeping:
    def make_data(self, n=30):
        load = LoadProfile.constant(50.0, 120.0, 120.0 / (n - 1))
        traj = simulate(None, load, ELBOW)
        return data_from_trajectory(traj, load, np.arange(n)), load

    def test_additivity(self):
        data, _ = self.make_data()
        model = Pinn3ccModel(ELBOW, t_scale=120.0, seed=2)
        terms, _ = supervised_loss(model, prepare_run(model, data), grad=False)
        assert list(terms) == list(LOSS_TERMS)
        assert terms["L_total"] == pytest.approx(terms["L_NN_or_BC"] + terms["L_PB"], rel=1e-12)

    def test_breakdown_is_forward_only(self, monkeypatch):
        data, load = self.make_data()
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(8, "tanh"), seed=5)
        own = prepare_run(model, data)
        anchored = prepare_run(model, collocation_from_load(load, ELBOW), boundary(0.0, 40.0, 0.0, 60.0))
        supervised, _ = supervised_loss(model, own)
        unsupervised, _ = supervised_loss(model, anchored)

        def no_backward(*args):
            raise AssertionError("backward pass during a forward-only evaluation")

        monkeypatch.setattr(Mlp, "backward_tangent", no_backward)
        assert supervised_loss(model, own, grad=False) == (supervised, None)
        assert supervised_loss(model, anchored, grad=False) == (unsupervised, None)

    @pytest.mark.parametrize("anchored", [False, True], ids=["own-anchor", "boundary-anchor"])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "forward-only"])
    def test_one_tangent_pass_per_call(self, monkeypatch, anchored, grad):
        data, load = self.make_data()
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(8, "tanh"), seed=5)
        batch, anchor = data, None
        if anchored:
            batch, anchor = collocation_from_load(load, ELBOW), boundary(0.0, 40.0, 0.0, 60.0)
        run = prepare_run(model, batch, anchor)
        calls = []
        for name in ("forward", "forward_tangent", "backward_tangent"):
            original = getattr(Mlp, name)
            monkeypatch.setattr(Mlp, name, lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        # a training batch's rows, or every sample as the epoch log takes them
        supervised_loss(model, run, np.arange(0, len(batch), 3) if grad else None, grad)
        assert calls == (["forward_tangent", "backward_tangent"] if grad else ["forward_tangent"])

    @pytest.mark.parametrize("anchored", [False, True], ids=["own-anchor", "boundary-anchor"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_batch_rows_match_the_composed_loss(self, anchored, activation):
        # a run's inputs are built once and each batch takes its rows: the
        # same loss terms and gradients, bit for bit, as inputs built for
        # the batch alone
        data, load = self.make_data()
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(16, activation), seed=5)
        samples, anchor = data, None
        if anchored:
            samples, anchor = collocation_from_load(load, ELBOW), boundary(0.0, 40.0, 0.0, 60.0)
        run = prepare_run(model, samples, anchor)
        for rows in (np.random.default_rng(3).permutation(len(samples))[:11], np.arange(len(samples))):
            terms, grads = supervised_loss(model, run, rows)
            want_terms, want_grads = composed_loss(model, samples, rows, anchor)
            assert terms == want_terms
            for got, want in zip(grads, want_grads, strict=True):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # every sample, the rows the epoch log takes by default
        every = np.arange(len(samples))
        assert supervised_loss(model, run, grad=False)[0] == composed_loss(model, samples, every, anchor)[0]

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_untrained_model_evaluated_once(self, monkeypatch, mode):
        data, load = self.make_data()
        n = len(data) if mode == "supervised" else len(collocation_from_load(load, ELBOW))
        full_data_calls = []

        def spy(model, run, rows=None, **kwargs):
            if (run.m_a.size if rows is None else len(rows)) == n:
                full_data_calls.append(rows)
            return supervised_loss(model, run, rows, **kwargs)

        monkeypatch.setattr(fatigue_pinn, "supervised_loss", spy)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(8, "relu"), seed=6)
        cfg = TrainConfig(batch_size=8, lr=1e-3, epochs=3, patience=50, seed=0)
        if mode == "supervised":
            _, history = train_supervised(model, data, cfg)
        else:
            _, history = train_unsupervised(model, load, cfg)
        assert len(full_data_calls) == 3 + 1  # one per epoch plus entry 0
        assert history[0]["train_loss"] == history[0]["L_total"]

    def test_empty_dataset_refused_before_entry_zero(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("the untrained model was evaluated on no samples")

        monkeypatch.setattr(fatigue_pinn, "supervised_loss", spy)
        empty = PinnData(t=np.zeros(0), m_a=np.zeros(0), tl=np.zeros(0), m_f=np.zeros(0), m_r=np.zeros(0))
        with pytest.raises(ParameterError, match="empty dataset"):
            train_supervised(Pinn3ccModel(ELBOW, t_scale=10.0), empty, TrainConfig())

    def test_bc_zero_when_exact(self):
        model = zero_model()
        data = PinnData(t=np.array([1.0]), m_a=np.array([0.0]), tl=np.array([0.0]))
        terms, _ = supervised_loss(model, prepare_run(model, data, boundary(0.0, 0.0, 0.0, 0.0)))
        assert terms["L_NN_or_BC"] == 0.0

    def test_bc_is_squared_error_at_the_boundary(self):
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(6, "tanh"), seed=4)
        data = collocation_from_load(LoadProfile.constant(50.0, 120.0, 12.0), ELBOW)
        terms, _ = supervised_loss(model, prepare_run(model, data, boundary(0.0, 40.0, 1.0, 55.0)))
        m_f0, m_r0 = model.predict([0.0], [40.0])
        assert terms["L_NN_or_BC"] == float(np.sum(np.array([m_f0[0] - 1.0, m_r0[0] - 55.0]) ** 2))

    def test_batch_as_its_own_anchor_is_the_default(self):
        data, _ = self.make_data(n=10)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(6, "tanh"), seed=3)
        default, grads = supervised_loss(model, prepare_run(model, data))
        anchored, anchored_grads = supervised_loss(model, prepare_run(model, data, data))
        assert anchored["L_NN_or_BC"] == pytest.approx(default["L_NN_or_BC"], rel=1e-12)
        assert anchored["L_PB"] == default["L_PB"]
        for g, ag in zip(grads, anchored_grads):
            np.testing.assert_allclose(ag, g, rtol=1e-10, atol=1e-12)

    def test_supervised_needs_targets(self):
        model = Pinn3ccModel(ELBOW, t_scale=10.0)
        data = PinnData(t=np.array([0.0, 1.0]), m_a=np.zeros(2), tl=np.zeros(2))
        with pytest.raises(ParameterError):
            prepare_run(model, data)

    def test_supervised_gradients_match_fd(self):
        data, _ = self.make_data(n=10)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(6, "tanh"), seed=3)

        run = prepare_run(model, data)

        def loss_fn():
            terms, grads = supervised_loss(model, run)
            return terms["L_total"], grads

        from test_nncore import fd_gradcheck

        fd_gradcheck(model.params(), loss_fn, rtol=2e-4)

    def test_unsupervised_gradients_match_fd(self):
        load = LoadProfile.constant(50.0, 120.0, 12.0)
        data = collocation_from_load(load, ELBOW)
        model = Pinn3ccModel(ELBOW, t_scale=120.0, spec=PinnSpec(6, "tanh"), seed=4)

        run = prepare_run(model, data, boundary(0.0, 50.0, 0.0, 50.0))

        def loss_fn():
            terms, grads = supervised_loss(model, run, np.arange(1, len(data)))
            return terms["L_total"], grads

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
        assert all("L_NN_or_BC" in e and "L_PB" in e for e in history)

    def test_unsupervised_meets_boundary(self):
        load = LoadProfile.constant(50.0, 100.0, 2.5)
        model = Pinn3ccModel(ELBOW, t_scale=100.0, spec=PinnSpec(32, "relu"), seed=0)
        cfg = TrainConfig(batch_size=32, lr=1e-3, epochs=1500, patience=400,
                          min_delta=1e-10, lr_decay=0.7, decay_patience=150, seed=0)
        model, history = train_unsupervised(model, load, cfg)
        m_a0 = 50.0 * ELBOW.LD / (ELBOW.LD + ELBOW.F)
        m_f0, m_r0 = model.predict([0.0], [m_a0])
        assert abs(m_f0[0] - 0.0) < 1.0
        assert abs(m_r0[0] - (100.0 - m_a0)) < 1.0
        assert all("L_NN_or_BC" in e and "L_PB" in e for e in history)

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


class TestSamples:
    def test_producers_give_float64_arrays(self, monkeypatch):
        # PinnData converts nothing: each producer hands in 1-D float64 arrays
        load = LoadProfile.constant(40.0, 10.0, 0.5)
        anchors = []
        monkeypatch.setattr(fatigue_pinn, "train_supervised",
                            lambda model, data, config, anchor: anchors.append(anchor))
        train_unsupervised(zero_model(), load, TrainConfig(epochs=1))
        collocation = collocation_from_load(load, ELBOW)
        assert collocation.m_f is None and collocation.m_r is None
        supervised = data_from_trajectory(simulate(None, load, ELBOW), load, training_indices(load, 8))
        for data in (supervised, collocation, *anchors):
            for name in ("t", "m_a", "tl", "m_f", "m_r"):
                value = getattr(data, name)
                assert value is None and data is collocation or (
                    type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == 1), name
        assert len(anchors) == 1 and len(anchors[0]) == 1


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

    @pytest.mark.parametrize("hidden", [100_000, 9])
    def test_architecture_checked_before_the_model_is_built(self, tmp_path, monkeypatch, hidden):
        # hidden 100000 would make each hidden layer's W (100000, 100000),
        # 74.5 GiB of float64; the blob's shapes are compared with the ones
        # the architecture implies first, and no model is built
        path = tmp_path / "pinn.json"
        save_model(path, Pinn3ccModel(ELBOW, t_scale=50.0, spec=PinnSpec(8, "relu")))
        doc = json.loads(path.read_text())
        doc["architecture"]["hidden"] = hidden
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(fatigue_pinn, "Pinn3ccModel", refuse_to_build)
        with pytest.raises(ShapeError, match="pinn.json"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("hidden", "4"), ("hidden", 4.0), ("hidden", True), ("seed", 1.5), ("activation", 5),
        ("t_scale", "50"), ("t_scale", None), ("cc3", [1, 2]), ("cc3", {"F": 0.01, "R": 0.001}),
        ("cc3", {"F": "0.01", "R": 0.001, "LD": 10.0, "LR": 10.0}),
        ("cc3", {"F": 0.01, "R": 0.001, "LD": 10.0, "LR": 10.0, "X": 1.0}),
        # json writes these as NaN, Infinity and -Infinity, and reads them back
        ("t_scale", float("nan")), ("t_scale", float("inf")), ("t_scale", -float("inf")), ("t_scale", 0.0),
        # the right JSON type, out of range
        ("hidden", 0), ("activation", "swish"), ("cc3", {"F": -1, "R": 0.001, "LD": 10.0, "LR": 10.0}),
        # integers beyond float range, and a seed numpy refuses
        ("cc3", {"F": 10**400, "R": 0.001, "LD": 10.0, "LR": 10.0}),
        pytest.param("t_scale", 10**400, id="t_scale-beyond-float"), ("seed", -1),
    ])
    def test_malformed_architecture_fields_rejected(self, tmp_path, monkeypatch, field, value):
        path = tmp_path / "pinn.json"
        save_model(path, Pinn3ccModel(ELBOW, t_scale=50.0, spec=PinnSpec(4, "relu")))
        doc = json.loads(path.read_text())
        doc["architecture"][field] = value
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(fatigue_pinn, "Pinn3ccModel", refuse_to_build)
        with pytest.raises(DataFormatError, match="pinn.json"):
            load_model(path)
