import json

import numpy as np
import pytest

from fatiguemotion.arm import ArmParams, generate_dataset, inverse_dynamics
from fatiguemotion.errors import ParameterError, ShapeError, UnsupportedModeError
from fatiguemotion.nncore import LstmCell, TrainConfig, encode_params, mse
from fatiguemotion.sequences import fit_normalizer
from fatiguemotion.surrogates import (
    BiLstmLayer,
    BiLstmModel,
    BiLstmSpec,
    DESK_SPEC,
    load_model,
    make_samples,
    save_model,
    train_dyn,
)

from test_nncore import fd_gradcheck


@pytest.fixture(scope="module")
def tiny_dataset():
    params = ArmParams()
    trials = generate_dataset(params, 6, 24, 0.05, seed=3)
    angle_norm = fit_normalizer([t.motion for t in trials])
    torque_norm = fit_normalizer([t.torque for t in trials])
    return params, trials, angle_norm, torque_norm


class TestBiLstmLayer:
    def test_single_frame_concat(self):
        rng = np.random.default_rng(0)
        layer = BiLstmLayer(2, 3, "linear", rng)
        x = rng.normal(size=(1, 1, 2))
        y, _ = layer.forward(x)
        fwd_h, _ = layer.fwd.forward(x)
        bwd_h, _ = layer.bwd.forward(x)
        np.testing.assert_array_equal(y[0, 0, :3], fwd_h[0, 0])
        np.testing.assert_array_equal(y[0, 0, 3:], bwd_h[0, 0])

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(1)
        layer = BiLstmLayer(2, 4, "linear", rng)
        swapped = BiLstmLayer(2, 4, "linear", rng)
        swapped.fwd, swapped.bwd = layer.bwd, layer.fwd
        x = rng.normal(size=(7, 2, 2))
        y, _ = layer.forward(x)
        y_rev, _ = swapped.forward(x[::-1])
        # forward half of the reversed input equals the reversed backward half
        np.testing.assert_allclose(y_rev[:, :, :4], y[::-1, :, 4:], rtol=1e-12)
        np.testing.assert_allclose(y_rev[:, :, 4:], y[::-1, :, :4], rtol=1e-12)

    def test_bptt_gradcheck(self):
        rng = np.random.default_rng(5)
        layer = BiLstmLayer(2, 3, "relu", rng)
        x = rng.normal(size=(6, 2, 2))
        g_out = rng.normal(size=(6, 2, 6))

        def loss_fn():
            y, cache = layer.forward(x)
            loss = float(np.sum(y * g_out))
            _, grads = layer.backward(cache, g_out)
            return loss, grads

        fd_gradcheck(layer.params(), loss_fn)


class TestBuilders:
    def test_default_architecture(self):
        model = BiLstmModel(32, 1, BiLstmSpec(), kind="id")
        assert len(model.layers) == 5
        assert model.layers[0].fwd.n_hidden == 128
        assert model.layers[0].activation == "linear"
        assert all(layer.activation == "relu" for layer in model.layers[1:])
        assert model.head.n_out == 1 and model.head.activation == "linear"
        assert model.kind == "id"

    def test_desk_config(self):
        model = BiLstmModel(2, 1, DESK_SPEC, kind="fd")
        assert len(model.layers) == 2
        assert model.layers[0].fwd.n_hidden == 32
        assert model.kind == "fd"

    def test_id_fd_symmetric(self):
        a = BiLstmModel(4, 1, DESK_SPEC, kind="id", seed=1)
        b = BiLstmModel(4, 1, DESK_SPEC, kind="fd", seed=1)
        assert [p.shape for p in a.params()] == [p.shape for p in b.params()]

    def test_disjoint_direction_parameters(self):
        model = BiLstmModel(2, 1, DESK_SPEC, kind="id")
        for layer in model.layers:
            assert not any(pf is pb for pf in layer.fwd.params() for pb in layer.bwd.params())

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            BiLstmSpec(n_layers=0, hidden=8)
        with pytest.raises(ParameterError):
            BiLstmModel(0, 1, DESK_SPEC, kind="id")
        with pytest.raises(ParameterError):
            BiLstmModel(2, 0, DESK_SPEC, kind="id")

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_closed_form_param_count(self, n_layers):
        # each direction of a layer holds Wx, Wh and b: 4h*(w + h + 1), with
        # input width w = n_in on the first layer and 2h after it; the head
        # adds 2h*n_out + n_out
        for n_in in (1, 2, 5):
            for n_out in (1, 3):
                for h in (1, 4, 7):
                    model = BiLstmModel(n_in, n_out, BiLstmSpec(n_layers, h))
                    lstm = 8 * h * (n_in + h + 1) + (n_layers - 1) * 8 * h * (3 * h + 1)
                    assert model.n_params() == lstm + 2 * h * n_out + n_out


class TestModelForward:
    def test_full_model_gradcheck(self):
        rng = np.random.default_rng(3)
        model = BiLstmModel(2, 1, BiLstmSpec(2, 4), seed=5)
        x = rng.normal(size=(8, 2, 2))
        target = rng.normal(size=(8, 2, 1))

        def loss_fn():
            y, cache = model.forward(x)
            loss, gy = mse(y, target)
            grads, _ = model.backward(cache, gy)
            return loss, grads

        fd_gradcheck(model.params(), loss_fn)

    def test_predict_deterministic(self):
        model = BiLstmModel(2, 1, DESK_SPEC, kind="id", seed=2)
        x = np.random.default_rng(0).uniform(size=(20, 2))
        np.testing.assert_array_equal(model.predict_sequence(x), model.predict_sequence(x))

    def test_constant_input_finite(self):
        model = BiLstmModel(2, 1, DESK_SPEC, kind="fd", seed=3)
        out = model.predict_sequence(np.full((16, 2), 0.5))
        assert np.isfinite(out).all() and out.shape == (16,)

    def test_width_mismatch(self):
        model = BiLstmModel(3, 1, DESK_SPEC, kind="id")
        with pytest.raises(ShapeError):
            model.predict_sequence(np.zeros((10, 2)))

    def test_empty_sequence(self):
        model = BiLstmModel(2, 1, DESK_SPEC, kind="id")
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 1, 2)))


class TestSamples:
    def test_kinds_mirror_each_other(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        id_s = make_samples(trials[:2], "id", 1, angle_norm, torque_norm)
        fd_s = make_samples(trials[:2], "fd", 1, angle_norm, torque_norm)
        for a, b, tr in zip(id_s, fd_s, trials):
            np.testing.assert_array_equal(a.x, angle_norm.apply(tr.motion.frames))
            np.testing.assert_array_equal(b.x, torque_norm.apply(tr.torque.frames))
            np.testing.assert_array_equal(a.y, b.x[:, [1]])
            np.testing.assert_array_equal(b.y, a.x[:, [1]])
            assert a.y.shape == (tr.motion.n_frames, 1)

    def test_both_kinds_carry_kinematics_and_target_scaling(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        for kind, target_norm in (("id", torque_norm), ("fd", angle_norm)):
            s = make_samples(trials[:1], kind, 0, angle_norm, torque_norm)[0]
            assert s.joint == 0
            np.testing.assert_array_equal(s.q, trials[0].motion.frames)
            np.testing.assert_array_equal(s.qddot, trials[0].qddot)
            assert (s.target_span, s.target_lo) == (target_norm.span[0], target_norm.lo[0])
            np.testing.assert_allclose(s.y[:, 0] * s.target_span + s.target_lo,
                                       (trials[0].torque if kind == "id" else trials[0].motion).frames[:, 0])

    def test_unknown_kind(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        with pytest.raises(ParameterError):
            make_samples(trials[:1], "multi", 0, angle_norm, torque_norm)


class TestTraining:
    def test_loss_decreases(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "id", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, 1, BiLstmSpec(1, 8), kind="id", seed=0)
        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=20, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg)
        assert history[-1]["train_mse"] < 0.5 * history[1]["train_mse"]

    def test_history_fields(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "fd", 1, angle_norm, torque_norm)
        model = BiLstmModel(2, 1, BiLstmSpec(1, 6), kind="fd", seed=0)
        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=5, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg)
        for entry in history:
            assert set(entry) == {"epoch", "train_loss", "train_mse"}

    def test_physics_requires_id(self, tiny_dataset):
        params, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "fd", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, 1, BiLstmSpec(1, 6), kind="fd", seed=0)
        with pytest.raises(UnsupportedModeError):
            train_dyn(model, samples, TrainConfig(epochs=1), physics=params)

    def test_physics_residual_logged(self, tiny_dataset):
        params, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "id", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, 1, BiLstmSpec(1, 6), kind="id", seed=0)
        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=3, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg, physics=params)
        assert all("physics_residual" in e for e in history[1:])

    def test_windowed_training_runs(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "id", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, 1, BiLstmSpec(1, 6), kind="id", seed=0)
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=3, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg, window=12, window_stride=3)
        assert len(history) == 4

    def test_seeded_training_reproducible(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:3], "id", 0, angle_norm, torque_norm)

        def run():
            model = BiLstmModel(2, 1, BiLstmSpec(1, 6), kind="id", seed=4)
            cfg = TrainConfig(batch_size=2, lr=0.01, epochs=6, patience=50, seed=9)
            return train_dyn(model, samples, cfg)

        m1, h1 = run()
        m2, h2 = run()
        assert [e["train_loss"] for e in h1] == [e["train_loss"] for e in h2]
        for p1, p2 in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("physics", [False, True], ids=["data", "physics"])
    def test_entry_zero_is_forward_only_in_batches(self, tiny_dataset, monkeypatch, physics):
        params, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:5], "id", 1, angle_norm, torque_norm)
        model = BiLstmModel(2, 1, BiLstmSpec(2, 5), kind="id", seed=6)
        window, stride = 10, 2
        # the full-data loss at the initial weights, all 40 windows at once
        x = np.stack([s.x[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1)
        y = np.stack([s.y[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1)
        pred = model.forward(x)[0]
        initial_mse = float(np.mean((pred - y) ** 2))
        if physics:
            eom = [inverse_dynamics(s.q, s.qdot, s.qddot, params)[:, [1]] for s in samples]
            tau_eom = np.stack([e[o : o + window] for e in eom for o in range(0, 15, stride)], axis=1)
            resid = tau_eom - (pred * samples[0].target_span + samples[0].target_lo)
            initial_residual = float(np.mean(resid**2))

        seen, backward_calls = [], []
        forward, backward = BiLstmModel.forward, BiLstmModel.backward
        monkeypatch.setattr(BiLstmModel, "forward",
                            lambda m, x: seen.append(x.shape[1]) or forward(m, x))
        monkeypatch.setattr(BiLstmModel, "backward",
                            lambda m, c, dy: backward_calls.append(1) or backward(m, c, dy))
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=2, patience=50, seed=0)
        _, history = train_dyn(model, samples, cfg, physics=params if physics else None,
                               window=window, window_stride=stride)
        assert max(seen) <= cfg.batch_size
        assert len(backward_calls) == 2 * 5  # 2 epochs x 40/8 batches, none for entry 0
        assert history[0]["train_mse"] == initial_mse
        if physics:
            assert history[0]["physics_residual"] == initial_residual
        else:
            assert history[0]["train_loss"] == initial_mse

    def test_ragged_trials_rejected(self, tiny_dataset):
        _, trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:2], "id", 0, angle_norm, torque_norm)
        samples[1].x = samples[1].x[:-1]
        model = BiLstmModel(2, 1, BiLstmSpec(1, 4), kind="id")
        with pytest.raises(ShapeError):
            train_dyn(model, samples, TrainConfig(epochs=1))

    def test_empty_dataset(self):
        model = BiLstmModel(2, 1, BiLstmSpec(1, 4), kind="id")
        with pytest.raises(ParameterError):
            train_dyn(model, [], TrainConfig())


class TestCheckpoints:
    def test_round_trip_with_metadata(self, tiny_dataset, tmp_path):
        _, trials, angle_norm, torque_norm = tiny_dataset
        model = BiLstmModel(2, 1, BiLstmSpec(1, 6), kind="id", seed=11)
        path = tmp_path / "id_elbow.json"
        save_model(path, model, joint="elbow", input_norm=angle_norm,
                   target_norm=torque_norm, tau_max=3.5)
        loaded, meta = load_model(path)
        assert meta["joint"] == "elbow"
        assert meta["tau_max"] == 3.5
        assert meta["input_norm"]["joints"] == list(angle_norm.joints)
        x = np.random.default_rng(1).uniform(size=(10, 2))
        np.testing.assert_array_equal(loaded.predict_sequence(x), model.predict_sequence(x))

    @pytest.mark.parametrize("damage", ["missing", "extra", "shape"])
    def test_mismatched_params_rejected(self, tmp_path, damage):
        model = BiLstmModel(2, 1, BiLstmSpec(2, 3), kind="id", seed=1)
        path = tmp_path / "id_elbow.json"
        save_model(path, model, joint="elbow")
        params = [p.copy() for p in model.params()]
        if damage == "missing":
            params = params[:-1]
        elif damage == "extra":
            params.append(np.zeros(3))
        else:
            params[1] = params[1].T.copy()  # first Wh, (4H, H) -> (H, 4H)
        doc = json.loads(path.read_text())
        doc["params"] = encode_params(params)
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            load_model(path)
