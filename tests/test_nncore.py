import numpy as np
import pytest

from fatiguemotion.errors import NumericError, ParameterError, ShapeError
from fatiguemotion.nncore import (
    Adam,
    DenseLayer,
    LstmCell,
    Mlp,
    TrainConfig,
    decode_params,
    encode_params,
    load_checkpoint,
    mse,
    save_checkpoint,
    train_loop,
)


def fd_gradcheck(params, loss_fn, h=1e-5, rtol=1e-4, floor=1e-6, max_coords=None, rng=None):
    """Compare analytic grads against central differences; returns worst rel err."""
    _, grads = loss_fn()
    worst = 0.0
    for p, g in zip(params, grads):
        coords = list(np.ndindex(p.shape))
        if max_coords is not None and len(coords) > max_coords:
            pick = rng.choice(len(coords), size=max_coords, replace=False)
            coords = [coords[i] for i in pick]
        for ix in coords:
            old = p[ix]
            p[ix] = old + h
            lp = loss_fn()[0]
            p[ix] = old - h
            lm = loss_fn()[0]
            p[ix] = old
            fd = (lp - lm) / (2 * h)
            err = abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), floor)
            worst = max(worst, err)
    assert worst < rtol, worst
    return worst


class TestDenseForward:
    def test_identity_layer(self):
        layer = DenseLayer(3, 3, "linear")
        layer.W = np.eye(3)
        layer.b = np.zeros(3)
        x = np.array([[1.0, -2.0, 0.5]])
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_relu(self):
        layer = DenseLayer(2, 2, "relu")
        layer.W = np.eye(2)
        layer.b = np.zeros(2)
        y, _ = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(y, [[0.0, 2.0]])

    def test_deterministic(self):
        a = Mlp([2, 8, 1], ["relu", "linear"], np.random.default_rng(5))
        b = Mlp([2, 8, 1], ["relu", "linear"], np.random.default_rng(5))
        x = np.random.default_rng(0).normal(size=(4, 2))
        ya, _ = a.forward(x)
        yb, _ = b.forward(x)
        np.testing.assert_array_equal(ya, yb)

    def test_shape_error_names_layer(self):
        mlp = Mlp([2, 4, 1], ["relu", "linear"], np.random.default_rng(0))
        with pytest.raises(ShapeError, match="layer 0"):
            mlp.forward(np.zeros((3, 5)))

    def test_unknown_activation(self):
        with pytest.raises(ParameterError):
            DenseLayer(2, 2, "swish")


class TestBackward:
    def test_gradcheck_random_net(self):
        rng = np.random.default_rng(3)
        mlp = Mlp([3, 8, 2], ["relu", "linear"], rng)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 2))

        def loss_fn():
            y, cache = mlp.forward(x)
            loss, gy = mse(y, target)
            grads, _ = mlp.backward(cache, gy)
            return loss, grads

        fd_gradcheck(mlp.params(), loss_fn)

    def test_zero_output_gradient(self):
        rng = np.random.default_rng(4)
        mlp = Mlp([2, 4, 2], ["tanh", "linear"], rng)
        y, cache = mlp.forward(rng.normal(size=(3, 2)))
        grads, gx = mlp.backward(cache, np.zeros_like(y))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(gx == 0)

    def test_linear_input_gradient_closed_form(self):
        rng = np.random.default_rng(5)
        layer = DenseLayer(3, 2, "linear", rng)
        x = rng.normal(size=(4, 3))
        gy = rng.normal(size=(4, 2))
        _, cache = layer.forward(x)
        _, gx = layer.backward(cache, gy)
        np.testing.assert_allclose(gx, gy @ layer.W, rtol=1e-12)


class TestTangent:
    def test_tangent_matches_input_derivative(self):
        rng = np.random.default_rng(6)
        mlp = Mlp([2, 8, 8, 2], ["tanh", "tanh", "linear"], rng)
        x = rng.normal(size=(5, 2))
        v = np.zeros_like(x)
        v[:, 0] = 1.0
        _, ydot, _ = mlp.forward_tangent(x, v)
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[:, 0] += h
        xm[:, 0] -= h
        fd = (mlp.forward(xp)[0] - mlp.forward(xm)[0]) / (2 * h)
        np.testing.assert_allclose(ydot, fd, rtol=1e-7, atol=1e-10)

    def test_backward_tangent_gradcheck(self):
        rng = np.random.default_rng(7)
        mlp = Mlp([2, 6, 6, 2], ["tanh", "tanh", "linear"], rng)
        x = rng.normal(size=(4, 2))
        v = np.zeros_like(x)
        v[:, 0] = 1.0
        t_target = rng.normal(size=(4, 2))

        def loss_fn():
            y, ydot, cache = mlp.forward_tangent(x, v)
            loss = float(np.mean(y**2) + np.mean((ydot - t_target) ** 2))
            gy = 2.0 / y.size * y
            gydot = 2.0 / ydot.size * (ydot - t_target)
            return loss, mlp.backward_tangent(cache, gy, gydot)

        fd_gradcheck(mlp.params(), loss_fn)


class TestLstmCell:
    def test_bptt_gradcheck(self):
        rng = np.random.default_rng(3)
        cell = LstmCell(2, 5, rng)
        x = rng.normal(size=(6, 3, 2))
        g_out = rng.normal(size=(6, 3, 5))

        def loss_fn():
            hs, cache = cell.forward(x)
            loss = float(np.sum(hs * g_out))
            _, grads = cell.backward(cache, g_out)
            return loss, grads

        fd_gradcheck(cell.params(), loss_fn)

    def test_input_gradient(self):
        rng = np.random.default_rng(8)
        cell = LstmCell(2, 4, rng)
        x = rng.normal(size=(5, 2, 2))
        g_out = rng.normal(size=(5, 2, 4))
        hs, cache = cell.forward(x)
        dx, _ = cell.backward(cache, g_out)
        h = 1e-6
        for ix in [(0, 0, 0), (2, 1, 1), (4, 0, 1)]:
            xp, xm = x.copy(), x.copy()
            xp[ix] += h
            xm[ix] -= h
            fd = (np.sum(cell.forward(xp)[0] * g_out) - np.sum(cell.forward(xm)[0] * g_out)) / (2 * h)
            assert abs(fd - dx[ix]) / max(abs(fd), 1e-9) < 1e-6

    def test_shape_validation(self):
        cell = LstmCell(3, 4)
        with pytest.raises(ShapeError):
            cell.forward(np.zeros((5, 2, 2)))


class TestAdam:
    def test_zero_gradient_no_update(self):
        p = np.array([1.0, -2.0])
        opt = Adam([p], lr=0.01)
        opt.step([p], [np.zeros(2)])
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = np.zeros(3)
        opt = Adam([p], lr=0.001)
        g = np.array([0.3, -40.0, 1e-3])
        opt.step([p], [g])
        # bias-corrected m/sqrt(v) has unit magnitude on the first step
        np.testing.assert_allclose(p, -0.001 * np.sign(g), rtol=1e-4)

    def test_quadratic_convergence(self):
        x = np.array([1.0])
        target = 0.3
        opt = Adam([x], lr=0.001)
        best = np.inf
        for _ in range(2000):
            opt.step([x], [2 * (x - target)])
            best = min(best, abs(float(x[0]) - target))
        assert best < 1e-3

    def test_nan_gradient_aborts(self):
        p = np.zeros(2)
        opt = Adam([p], lr=0.01)
        with pytest.raises(NumericError):
            opt.step([p], [np.array([np.nan, 0.0])])


class _QuadraticModel:
    """1-parameter model for exercising the training loop."""

    def __init__(self):
        self.w = np.array([2.0])

    def params(self):
        return [self.w]


def _plateau_loss(model, idx, grad=True):
    # loss improves until it hits a floor; gradient keeps shrinking
    loss = max(float((model.w[0] - 1.0) ** 2), 0.25)
    return loss, [np.array([2 * (model.w[0] - 1.0)])] if grad else None


class TestTrainLoop:
    def test_early_stop_on_plateau(self):
        model = _QuadraticModel()
        cfg = TrainConfig(batch_size=4, lr=0.05, epochs=1000, patience=5, seed=0)
        _, history = train_loop(model, 8, _plateau_loss, cfg)
        # loss reaches the 0.25 floor within ~10 epochs; stop within patience
        assert history[-1]["epoch"] <= 25

    def test_history_one_entry_per_epoch(self):
        model = _QuadraticModel()
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=7, patience=100, seed=0)
        _, history = train_loop(model, 8, _plateau_loss, cfg)
        assert [h["epoch"] for h in history] == list(range(8))  # entry 0 = untrained

    def test_bit_reproducible(self):
        def make():
            rng = np.random.default_rng(0)
            mlp = Mlp([2, 8, 1], ["relu", "linear"], np.random.default_rng(1))
            x = rng.normal(size=(16, 2))
            y = rng.normal(size=(16, 1))

            def loss_fn(m, idx, grad=True):
                pred, cache = m.forward(x[idx])
                loss, gy = mse(pred, y[idx])
                return loss, m.backward(cache, gy)[0] if grad else None

            cfg = TrainConfig(batch_size=4, lr=0.01, epochs=20, patience=50, seed=3)
            return train_loop(mlp, 16, loss_fn, cfg)

        m1, h1 = make()
        m2, h2 = make()
        assert [h["train_loss"] for h in h1] == [h["train_loss"] for h in h2]
        for p1, p2 in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p1, p2)

    def test_entry_zero_is_forward_only(self):
        class CountingMlp(Mlp):
            backward_calls = 0

            def backward(self, caches, gy):
                self.backward_calls += 1
                return super().backward(caches, gy)

        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 1))
        mlp = CountingMlp([3, 6, 1], ["tanh", "linear"], np.random.default_rng(2))
        initial_loss = float(np.mean((mlp.forward(x)[0] - y) ** 2))

        def loss_fn(m, idx, grad=True):
            pred, cache = m.forward(x[idx])
            loss, gy = mse(pred, y[idx])
            return loss, m.backward(cache, gy)[0] if grad else None

        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=3, patience=50, seed=0)
        _, history = train_loop(mlp, 10, loss_fn, cfg)
        assert history[0]["train_loss"] == initial_loss
        assert mlp.backward_calls == 3 * 3  # 3 epochs x 3 batches, none for entry 0

    def test_config_validated(self):
        for bad in ({"epochs": 0}, {"batch_size": 0}, {"patience": 0}, {"lr": 0.0},
                    {"lr": float("nan")}, {"lr": float("inf")}, {"lr_decay": 0.0},
                    {"lr_decay": 1.5}, {"decay_patience": -1}):
            with pytest.raises(ParameterError):
                TrainConfig(**bad)

    def test_empty_dataset(self):
        with pytest.raises(ParameterError):
            train_loop(_QuadraticModel(), 0, _plateau_loss, TrainConfig())

    def test_non_finite_loss_aborts(self):
        def bad_loss(model, idx, grad=True):
            return float("nan"), [np.zeros(1)]

        with pytest.raises(NumericError):
            train_loop(_QuadraticModel(), 4, bad_loss, TrainConfig(epochs=2))

    def test_restores_best_weights(self):
        # one batch per epoch; the loss is lowest in epoch 2, after which
        # patience runs out and the weights of epoch 2 come back
        losses = iter([1.0, 0.5, 0.1, 0.9, 0.9, 0.9, 0.9])

        def loss_fn(model, idx, grad=True):
            return next(losses, 0.9), [np.array([1.0])]

        model = _QuadraticModel()
        cfg = TrainConfig(batch_size=8, lr=0.1, epochs=6, patience=3, seed=0)
        _, history = train_loop(model, 8, loss_fn, cfg)
        assert [h["train_loss"] for h in history] == [1.0, 0.5, 0.1, 0.9, 0.9, 0.9]
        # best epoch was 2 (0.1): two optimizer steps of lr from 2.0
        assert model.w[0] == pytest.approx(2.0 - 2 * 0.1, abs=1e-7)


class TestCheckpoints:
    def test_params_round_trip(self):
        rng = np.random.default_rng(9)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5), np.array(2.5)]
        out = decode_params(encode_params(params))
        for a, b in zip(params, out):
            np.testing.assert_array_equal(np.asarray(a), b)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        mlp = Mlp([2, 4, 1], ["tanh", "linear"], rng)
        path = tmp_path / "model.json"
        save_checkpoint(path, {"sizes": [2, 4, 1]}, mlp.params(), {"note": "test"})
        doc = load_checkpoint(path)
        assert doc["architecture"]["sizes"] == [2, 4, 1]
        assert doc["meta"]["note"] == "test"
        for a, b in zip(mlp.params(), doc["params"]):
            np.testing.assert_array_equal(a, b)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParameterError):
            load_checkpoint(path)
