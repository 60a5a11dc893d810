import json
import tracemalloc
import weakref

import numpy as np
import pytest

from fatiguemotion import surrogates
from fatiguemotion.arm import ArmParams, generate_dataset
from fatiguemotion.errors import DataFormatError, ParameterError, ShapeError
from fatiguemotion.nncore import LstmCell, TrainConfig, encode_params, mse
from fatiguemotion.sequences import fit_normalizer
from fatiguemotion.surrogates import (
    BiLstmBank,
    BiLstmLayer,
    BiLstmModel,
    BiLstmSpec,
    DESK_SPEC,
    ENTRY0_CHUNK_BATCHES,
    load_model,
    make_samples,
    param_shapes,
    save_model,
    train_dyn,
)

from test_nncore import fd_gradcheck, lstm_forward

# frames per trial of tiny_dataset; a window this long trains on whole trials
TINY_FRAMES = 24


@pytest.fixture(scope="module")
def tiny_dataset():
    trials = generate_dataset(ArmParams(), 6, TINY_FRAMES, 0.05, seed=3)
    angle_norm = fit_normalizer([t.motion for t in trials])
    torque_norm = fit_normalizer([t.torque for t in trials])
    return trials, angle_norm, torque_norm


class TestBiLstmLayer:
    def test_single_frame_concat(self):
        rng = np.random.default_rng(0)
        layer = BiLstmLayer(2, 3, "linear", rng)
        x = rng.normal(size=(1, 1, 2))
        y, _ = layer.forward(x)
        fwd_h, _ = lstm_forward(layer.fwd, x)
        bwd_h, _ = lstm_forward(layer.bwd, x)
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
            _, grads = layer.backward(cache, g_out.copy())  # backward overwrites dy
            return loss, grads

        fd_gradcheck(layer.params(), loss_fn)

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cells_write_the_layer_output(self, activation, dtype):
        # the cells' cached hidden states are views of the one layer output,
        # [h_f, h_b reversed in time] bit for bit, and backward overwrites dy
        rng = np.random.default_rng(6)
        layer = BiLstmLayer(3, 4, activation, rng)
        x = rng.normal(size=(9, 5, 3)).astype(dtype)
        y, (cache_f, cache_b, out) = layer.forward(x)
        h_f, h_b = lstm_forward(layer.fwd, x)[0], lstm_forward(layer.bwd, x[::-1])[0]
        assert out.dtype == dtype and out.shape == (9, 5, 8)
        assert np.shares_memory(cache_f[3], out) and np.shares_memory(cache_b[3], out)
        assert np.array_equal(out, np.concatenate([h_f, h_b[::-1]], axis=2))
        assert (y is out) == (activation == "linear")
        assert np.array_equal(y, np.maximum(out, 0.0) if activation == "relu" else out)
        dy = rng.normal(size=out.shape).astype(dtype)
        dy_given = dy.copy()
        dx, _ = layer.backward((cache_f, cache_b, out), dy)
        masked = dy_given * (out > 0) if activation == "relu" else dy_given
        assert np.array_equal(dy, masked)
        dx_f, _ = layer.fwd.backward(lstm_forward(layer.fwd, x)[1], masked[:, :, :4])
        dx_b, _ = layer.bwd.backward(lstm_forward(layer.bwd, x[::-1])[1], masked[::-1, :, 4:])
        assert np.array_equal(dx, dx_f + dx_b[::-1])

    def test_activation_is_linear_or_relu(self):
        with pytest.raises(ParameterError, match="linear or relu"):
            BiLstmLayer(2, 3, "tanh", np.random.default_rng(0))


class TestBuilders:
    def test_default_architecture(self):
        model = BiLstmModel(32, BiLstmSpec(), kind="id")
        assert len(model.layers) == 5
        assert model.layers[0].fwd.n_hidden == 128
        assert model.layers[0].activation == "linear"
        assert all(layer.activation == "relu" for layer in model.layers[1:])
        assert model.head.n_out == 1 and isinstance(model.head, surrogates.DenseLayer)  # affine
        assert model.kind == "id"

    def test_desk_config(self):
        model = BiLstmModel(2, DESK_SPEC, kind="fd")
        assert len(model.layers) == 2
        assert model.layers[0].fwd.n_hidden == 32
        assert model.kind == "fd"

    def test_id_fd_symmetric(self):
        a = BiLstmModel(4, DESK_SPEC, kind="id", seed=1)
        b = BiLstmModel(4, DESK_SPEC, kind="fd", seed=1)
        assert [p.shape for p in a.params()] == [p.shape for p in b.params()]

    def test_disjoint_direction_parameters(self):
        model = BiLstmModel(2, DESK_SPEC, kind="id")
        for layer in model.layers:
            assert not any(pf is pb for pf in layer.fwd.params() for pb in layer.bwd.params())

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            BiLstmSpec(n_layers=0, hidden=8)
        with pytest.raises(ParameterError):
            BiLstmModel(0, DESK_SPEC, kind="id")

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_closed_form_param_count(self, n_layers):
        # each direction of a layer holds Wx, Wh and b: 4h*(w + h + 1), with
        # input width w = n_in on the first layer and 2h after it; the
        # one-output head adds 2h + 1
        for n_in in (1, 2, 5):
            for h in (1, 4, 7):
                model = BiLstmModel(n_in, BiLstmSpec(n_layers, h))
                lstm = 8 * h * (n_in + h + 1) + (n_layers - 1) * 8 * h * (3 * h + 1)
                assert sum(p.size for p in model.params()) == lstm + 2 * h + 1


class TestModelForward:
    def test_full_model_gradcheck(self):
        rng = np.random.default_rng(3)
        model = BiLstmModel(2, BiLstmSpec(2, 4), seed=5)
        x = rng.normal(size=(8, 2, 2))
        target = rng.normal(size=(8, 2))

        def loss_fn():
            y, cache = model.forward(x)
            loss, gy = mse(y, target)
            grads, _ = model.backward(cache, gy)
            return loss, grads

        fd_gradcheck(model.params(), loss_fn)

    def test_float32_matches_float64_gradients(self):
        # test_full_model_gradcheck's fixture in float32, the training dtype:
        # every cached array, gradient and dx is float32, and each gradient is
        # within a relative 1e-5 of its largest float64 value (measured <= 4e-7)
        rng = np.random.default_rng(3)
        model = BiLstmModel(2, BiLstmSpec(2, 4), seed=5)
        x = rng.normal(size=(8, 2, 2))
        target = rng.normal(size=(8, 2))
        results = {}
        for dtype in (np.float64, np.float32):
            y, cache = model.forward(x.astype(dtype))
            _, dy = mse(y, target)
            grads, dx = model.backward(cache, dy.astype(dtype))
            caches, head_cache, _ = cache
            cached = [a for cf, cb, concat in caches for a in (*cf, *cb, concat)] + list(head_cache)
            assert all(a.dtype == dtype for a in (y, dx, *cached, *grads))
            results[dtype] = grads
        assert all(p.dtype == np.float64 for p in model.params())
        for got, want in zip(results[np.float32], results[np.float64]):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_predict_deterministic(self):
        model = BiLstmModel(2, DESK_SPEC, kind="id", seed=2)
        x = np.random.default_rng(0).uniform(size=(20, 2))
        np.testing.assert_array_equal(model.predict_sequence(x), model.predict_sequence(x))

    def test_constant_input_finite(self):
        model = BiLstmModel(2, DESK_SPEC, kind="fd", seed=3)
        out = model.predict_sequence(np.full((16, 2), 0.5))
        assert np.isfinite(out).all() and out.shape == (16,)

    def test_width_mismatch(self):
        model = BiLstmModel(3, DESK_SPEC, kind="id")
        with pytest.raises(ShapeError):
            model.predict_sequence(np.zeros((10, 2)))

    def test_empty_sequence(self):
        model = BiLstmModel(2, DESK_SPEC, kind="id")
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 1, 2)))

    def test_training_batch_memory_peak(self):
        # One float32 desk training batch, as train_dyn's loss_fn runs it (T
        # 96, B 32, H 32, two layers): numpy's tracemalloc peak was 17.11 MB
        # while each layer output was a concatenation of two cached hidden-state
        # arrays and backward built float masks and fresh sums; 14.76 MB with
        # the cells writing the layer output and backward working in place.
        model = BiLstmModel(2, DESK_SPEC, kind="id", seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(96, 32, 2)).astype(np.float32)
        y = rng.uniform(size=(96, 32))

        def batch():
            pred, cache = model.forward(x)
            _, dy = mse(pred, y)
            return model.backward(cache, dy.astype(np.float32))

        batch()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            batch()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16.0e6, peak


class TestSamples:
    def test_kinds_mirror_each_other(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        id_s = make_samples(trials[:2], "id", 1, angle_norm, torque_norm)
        fd_s = make_samples(trials[:2], "fd", 1, angle_norm, torque_norm)
        for a, b, tr in zip(id_s, fd_s, trials):
            np.testing.assert_array_equal(a.x, angle_norm.apply(tr.motion.frames))
            np.testing.assert_array_equal(b.x, torque_norm.apply(tr.torque.frames))
            np.testing.assert_array_equal(a.y, b.x[:, 1])
            np.testing.assert_array_equal(b.y, a.x[:, 1])
            assert a.y.shape == (tr.motion.n_frames,)

    def test_both_kinds_carry_kinematics_and_target_scaling(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        for kind, target_norm in (("id", torque_norm), ("fd", angle_norm)):
            s = make_samples(trials[:1], kind, 0, angle_norm, torque_norm)[0]
            np.testing.assert_allclose(s.y * target_norm.span[0] + target_norm.lo[0],
                                       (trials[0].torque if kind == "id" else trials[0].motion).frames[:, 0])

    def test_unknown_kind(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        with pytest.raises(ParameterError):
            make_samples(trials[:1], "multi", 0, angle_norm, torque_norm)


class TestTraining:
    def test_loss_decreases(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "id", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, BiLstmSpec(1, 8), kind="id", seed=0)
        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=20, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg, window=TINY_FRAMES)
        assert history[-1]["train_loss"] < 0.5 * history[1]["train_loss"]

    def test_history_fields(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "fd", 1, angle_norm, torque_norm)
        model = BiLstmModel(2, BiLstmSpec(1, 6), kind="fd", seed=0)
        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=5, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg, window=TINY_FRAMES)
        for entry in history:
            assert set(entry) == {"epoch", "train_loss"}

    def test_windowed_training_runs(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:4], "id", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, BiLstmSpec(1, 6), kind="id", seed=0)
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=3, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg, window=12, window_stride=3)
        assert len(history) == 4

    def test_seeded_training_reproducible(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:3], "id", 0, angle_norm, torque_norm)

        def run():
            model = BiLstmModel(2, BiLstmSpec(1, 6), kind="id", seed=4)
            cfg = TrainConfig(batch_size=2, lr=0.01, epochs=6, patience=50, seed=9)
            return train_dyn(model, samples, cfg, window=TINY_FRAMES)

        m1, h1 = run()
        m2, h2 = run()
        assert [e["train_loss"] for e in h1] == [e["train_loss"] for e in h2]
        for p1, p2 in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p1, p2)

    def test_entry_zero_is_forward_only_in_batches(self, tiny_dataset, monkeypatch):
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:5], "id", 1, angle_norm, torque_norm)
        model = BiLstmModel(2, BiLstmSpec(2, 5), kind="id", seed=6)
        window, stride = 10, 2
        x = np.stack([s.x[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1)
        y = np.stack([s.y[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1)
        # the full-data loss at the initial weights: the float32 bank in chunks
        # of two batches (16 windows), reduced once in float64; and the float64
        # training forward over all 40 windows at once, which it matches within
        # float32 rounding (measured 8e-10 relative)
        assert ENTRY0_CHUNK_BATCHES == 2
        bank = BiLstmBank([model])
        pred = np.concatenate([bank.forward(x[:, s : s + 16].astype(np.float32))[0] for s in range(0, 40, 16)],
                              axis=1)
        initial_mse = mse(pred, y)[0]
        float64_mse = float(np.mean((model.forward(x)[0] - y) ** 2))

        seen, bank_seen, backward_calls = [], [], []
        forward, backward, bank_forward = BiLstmModel.forward, BiLstmModel.backward, BiLstmBank.forward
        monkeypatch.setattr(BiLstmModel, "forward",
                            lambda m, x: seen.append(x.shape[1]) or forward(m, x))
        monkeypatch.setattr(BiLstmModel, "backward",
                            lambda m, c, dy: backward_calls.append(1) or backward(m, c, dy))
        monkeypatch.setattr(BiLstmBank, "forward",
                            lambda b, x: bank_seen.append((x.shape[1], x.dtype)) or bank_forward(b, x))
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=2, patience=50, seed=0)
        _, history = train_dyn(model, samples, cfg, window=window, window_stride=stride)
        # entry 0: 40 float32 windows through the cache-free bank, 16 at a time
        assert bank_seen == [(16, np.dtype(np.float32))] * 2 + [(8, np.dtype(np.float32))]
        assert seen == [8] * 10 and len(backward_calls) == 2 * 5  # 2 epochs x 40/8 batches
        assert history[0]["train_loss"] == initial_mse
        assert history[0]["train_loss"] == pytest.approx(float64_mse, rel=1e-6, abs=0)

    def test_float32_batches_float64_weights_and_checkpoint(self, tiny_dataset, monkeypatch, tmp_path):
        # Training batches run forward and BPTT in float32; entry 0 is the
        # float32 bank's loss at the initial weights, reduced in float64; the
        # weights stay float64, and the checkpoint decodes to float64 arrays.
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:5], "id", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, BiLstmSpec(2, 5), kind="id", seed=7)
        window, stride, batch = 10, 2, 8
        x = np.stack([s.x[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1,
                     dtype=np.float32)
        y = np.stack([s.y[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1)
        bank, chunk = BiLstmBank([model]), ENTRY0_CHUNK_BATCHES * batch
        pred = np.concatenate([bank.forward(x[:, s : s + chunk])[0] for s in range(0, x.shape[1], chunk)], axis=1)
        bank_loss = mse(pred, y)[0]

        dtypes = []
        forward, backward = BiLstmModel.forward, BiLstmModel.backward
        monkeypatch.setattr(BiLstmModel, "forward", lambda m, x: dtypes.append(x.dtype) or forward(m, x))
        monkeypatch.setattr(BiLstmModel, "backward", lambda m, c, dy: dtypes.append(dy.dtype) or backward(m, c, dy))
        cfg = TrainConfig(batch_size=batch, lr=0.01, epochs=2, patience=50, seed=0)
        model, history = train_dyn(model, samples, cfg, window=window, window_stride=stride)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert history[0]["train_loss"] == bank_loss
        assert history[2]["train_loss"] < history[0]["train_loss"]
        assert all(p.dtype == np.float64 for p in model.params())

        save_model(tmp_path / "id_shoulder.json", model, "shoulder", angle_norm, torque_norm,
                   torque_norm.abs_max("shoulder"))
        enc = json.loads((tmp_path / "id_shoulder.json").read_text())["params"]
        assert enc["dtype"] == "float64"
        loaded, _ = load_model(tmp_path / "id_shoulder.json")
        for got, want in zip(loaded.params(), model.params()):
            assert got.dtype == np.float64 and np.array_equal(got, want)

    @pytest.mark.parametrize("hidden", [4, 32])
    def test_entry_zero_with_a_one_window_chunk(self, tiny_dataset, hidden):
        # 25 windows in chunks of two batches of 12 leave a final chunk of one
        # window. Entry 0 is the float32 bank's chunked loss exactly; at B = 1
        # the bank and BiLstmModel.forward may differ by a few float32 ulps,
        # so it matches the per-chunk float32 training forward within a
        # relative 1e-6 (measured <= 7e-12: the MSE averages the differences out).
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:5], "fd", 0, angle_norm, torque_norm)
        model = BiLstmModel(2, BiLstmSpec(2, hidden), kind="fd", seed=2)
        window, stride, batch = 10, 3, 12
        chunk = ENTRY0_CHUNK_BATCHES * batch
        x = np.stack([s.x[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1,
                     dtype=np.float32)
        y = np.stack([s.y[o : o + window] for s in samples for o in range(0, 15, stride)], axis=1)
        assert x.shape[1] % chunk == 1
        chunks = [x[:, s : s + chunk] for s in range(0, x.shape[1], chunk)]
        bank = BiLstmBank([model])
        bank_loss = mse(np.concatenate([bank.forward(c)[0] for c in chunks], axis=1), y)[0]
        expected = mse(np.concatenate([model.forward(c)[0] for c in chunks], axis=1), y)[0]
        cfg = TrainConfig(batch_size=batch, lr=0.01, epochs=1, seed=0)
        _, history = train_dyn(model, samples, cfg, window=window, window_stride=stride)
        assert history[0]["train_loss"] == bank_loss
        assert history[0]["train_loss"] == pytest.approx(expected, rel=1e-6, abs=0)

    def test_entry_zero_decides_nothing(self, tiny_dataset, monkeypatch):
        # train_loop starts its best loss at inf, so entry 0 steers no step:
        # with entry 0 forced back to a float64 bank pass, only row 0 moves
        # (epoch 5 stalls here, so the plateau decay fires too)
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:5], "id", 1, angle_norm, torque_norm)
        cfg = TrainConfig(batch_size=8, lr=0.1, epochs=8, patience=3, decay_patience=1, seed=1)

        def train():
            model = BiLstmModel(2, BiLstmSpec(2, 5), kind="id", seed=8)
            return train_dyn(model, samples, cfg, window=10, window_stride=2)

        model32, history32 = train()
        bank_dtypes, bank_forward = [], BiLstmBank.forward
        monkeypatch.setattr(BiLstmBank, "forward", lambda b, x: bank_dtypes.append(x.dtype)
                            or bank_forward(b, x.astype(np.float64)))
        model64, history64 = train()
        assert bank_dtypes == [np.dtype(np.float32)] * 3  # every entry-0 chunk (40 windows by 16), now upcast
        assert history64[0]["train_loss"] != history32[0]["train_loss"]
        assert history64[1:] == history32[1:]
        for p64, p32 in zip(model64.params(), model32.params()):
            assert np.array_equal(p64, p32)

    def test_entry_zero_is_freed_before_the_first_batch(self, tiny_dataset, monkeypatch):
        # the entry-0 bank, window stack and predictions would add to the
        # first training batch's memory peak if they outlived entry 0
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:5], "id", 0, angle_norm, torque_norm)
        refs, alive_at_batches = [], []
        bank_forward, forward = BiLstmBank.forward, BiLstmModel.forward

        def spy_bank(bank, x):
            y = bank_forward(bank, x)
            refs.extend(weakref.ref(a) for a in (bank, x.base, y))
            return y

        def spy_forward(model, x):
            alive_at_batches.append(sum(r() is not None for r in refs))
            return forward(model, x)

        monkeypatch.setattr(BiLstmBank, "forward", spy_bank)
        monkeypatch.setattr(BiLstmModel, "forward", spy_forward)
        model = BiLstmModel(2, BiLstmSpec(2, 5), kind="id", seed=3)
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=1, seed=0)
        train_dyn(model, samples, cfg, window=10, window_stride=2)
        assert len(refs) == 3 * 3  # three entry-0 chunks of 16, 16 and 8 windows
        assert alive_at_batches == [0] * 5

    def test_ragged_trials_rejected(self, tiny_dataset):
        trials, angle_norm, torque_norm = tiny_dataset
        samples = make_samples(trials[:2], "id", 0, angle_norm, torque_norm)
        samples[1].x = samples[1].x[:-1]
        model = BiLstmModel(2, BiLstmSpec(1, 4), kind="id")
        with pytest.raises(ShapeError):
            train_dyn(model, samples, TrainConfig(epochs=1), window=TINY_FRAMES)

    def test_empty_dataset(self):
        model = BiLstmModel(2, BiLstmSpec(1, 4), kind="id")
        with pytest.raises(ParameterError):
            train_dyn(model, [], TrainConfig(), window=TINY_FRAMES)


class TestCheckpoints:
    def test_round_trip_with_metadata(self, tiny_dataset, tmp_path):
        trials, angle_norm, torque_norm = tiny_dataset
        model = BiLstmModel(2, BiLstmSpec(1, 6), kind="id", seed=11)
        path = tmp_path / "id_elbow.json"
        save_model(path, model, joint="elbow", input_norm=angle_norm,
                   target_norm=torque_norm, tau_max=3.5)
        assert json.loads(path.read_text())["architecture"]["n_out"] == 1
        loaded, meta = load_model(path)
        assert meta["joint"] == "elbow"
        assert meta["tau_max"] == 3.5
        assert meta["input_norm"]["joints"] == list(angle_norm.joints)
        x = np.random.default_rng(1).uniform(size=(10, 2))
        np.testing.assert_array_equal(loaded.predict_sequence(x), model.predict_sequence(x))

    @pytest.mark.parametrize("damage", ["missing", "extra", "shape"])
    def test_mismatched_params_rejected(self, tiny_dataset, tmp_path, damage):
        _, angle_norm, torque_norm = tiny_dataset
        model = BiLstmModel(2, BiLstmSpec(2, 3), kind="id", seed=1)
        path = tmp_path / "id_elbow.json"
        save_model(path, model, "elbow", angle_norm, torque_norm, torque_norm.abs_max("elbow"))
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

    @pytest.mark.parametrize("n_in, spec", [(1, BiLstmSpec(1, 1)), (2, BiLstmSpec(2, 3)), (5, BiLstmSpec(3, 4))])
    def test_param_shapes_are_the_models(self, n_in, spec):
        assert list(param_shapes(n_in, spec)) == [p.shape for p in BiLstmModel(n_in, spec).params()]

    @pytest.mark.parametrize("field, value", [("hidden", 100_000), ("n_layers", 10**9), ("n_in", 7)])
    def test_architecture_checked_before_the_model_is_built(self, tiny_dataset, tmp_path, monkeypatch,
                                                            field, value):
        # hidden 100000 would make each first-layer Wh (400000, 100000), 298
        # GiB of float64; the blob's shapes are compared with the ones the
        # architecture implies first, and no model is built
        _, angle_norm, torque_norm = tiny_dataset
        path = tmp_path / "id_elbow.json"
        save_model(path, BiLstmModel(2, BiLstmSpec(2, 3), kind="id"), "elbow", angle_norm, torque_norm, 1.0)
        doc = json.loads(path.read_text())
        doc["architecture"][field] = value
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(surrogates, "BiLstmModel", refuse_to_build)
        with pytest.raises(ShapeError, match="id_elbow.json"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("n_layers", 0), ("hidden", -1)])
    def test_out_of_range_architecture_refused_before_the_model_is_built(self, tiny_dataset, tmp_path,
                                                                         monkeypatch, field, value):
        _, angle_norm, torque_norm = tiny_dataset
        path = tmp_path / "id_elbow.json"
        save_model(path, BiLstmModel(2, BiLstmSpec(2, 3), kind="id"), "elbow", angle_norm, torque_norm, 1.0)
        doc = json.loads(path.read_text())
        doc["architecture"][field] = value
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(surrogates, "BiLstmModel", refuse_to_build)
        with pytest.raises(DataFormatError, match="id_elbow.json"):
            load_model(path)


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a model was built before its checkpoint's shapes were checked")
