import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from fatiguemotion import nncore
from fatiguemotion.errors import DataFormatError, NumericError, ParameterError, ShapeError
from fatiguemotion.nncore import (
    BPTT_BLOCK,
    Adam,
    DenseLayer,
    LstmCell,
    Mlp,
    TrainConfig,
    as_float,
    decode_params,
    encode_params,
    gate_views,
    load_checkpoint,
    lstm_gates,
    mse,
    save_checkpoint,
    sigmoid_lanes_negated,
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


def lstm_forward(cell, x):
    """LstmCell.forward of x into a new (T, B, H) destination."""
    x = as_float(x)
    return cell.forward(x, np.empty((*x.shape[:2], cell.n_hidden), x.dtype))


class TestDenseForward:
    def test_identity_layer(self):
        layer = DenseLayer(3, 3, np.random.default_rng(0))
        layer.W = np.eye(3)
        layer.b = np.zeros(3)
        x = np.array([[1.0, -2.0, 0.5]])
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_relu(self):
        mlp = Mlp([2, 2], ["relu"], np.random.default_rng(0))
        mlp.layers[0].W = np.eye(2)
        mlp.layers[0].b = np.zeros(2)
        np.testing.assert_array_equal(mlp.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_deterministic(self):
        a = Mlp([2, 8, 1], ["relu", "linear"], np.random.default_rng(5))
        b = Mlp([2, 8, 1], ["relu", "linear"], np.random.default_rng(5))
        x = np.random.default_rng(0).normal(size=(4, 2))
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_unknown_activation(self):
        with pytest.raises(ParameterError, match="swish"):
            Mlp([2, 2, 2], ["relu", "swish"], np.random.default_rng(0))


class TestBackward:
    def test_zero_output_gradient(self):
        rng = np.random.default_rng(4)
        mlp = Mlp([2, 4, 2], ["tanh", "linear"], rng)
        y, ydot, cache = mlp.forward_tangent(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        grads = mlp.backward_tangent(cache, np.zeros_like(y), np.zeros_like(ydot))
        assert all(np.all(g == 0) for g in grads)

    def test_linear_input_gradient_closed_form(self):
        rng = np.random.default_rng(5)
        layer = DenseLayer(3, 2, rng)
        x = rng.normal(size=(4, 3))
        gy = rng.normal(size=(4, 2))
        _, cache = layer.forward(x)
        (gW, gb), gx = layer.backward(cache, gy)
        np.testing.assert_allclose(gx, gy @ layer.W, rtol=1e-12)
        np.testing.assert_allclose(gW, gy.T @ x, rtol=1e-12)
        np.testing.assert_allclose(gb, gy.sum(axis=0), rtol=1e-12)


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
        fd = (mlp.forward(xp) - mlp.forward(xm)) / (2 * h)
        np.testing.assert_allclose(ydot, fd, rtol=1e-7, atol=1e-10)

    def test_backward_tangent_gradcheck(self):
        _tangent_gradcheck("tanh", np.random.default_rng(7))

    def test_backward_tangent_gradcheck_relu(self):
        # relu'' is zero a.e.: the tangent's gradient flows through relu' only
        _tangent_gradcheck("relu", np.random.default_rng(3))


    @pytest.mark.parametrize("activations", [
        ["relu", "relu", "linear"], ["relu", "relu", "relu"], ["linear", "linear", "linear"],
        ["tanh", "tanh", "linear"], ["tanh", "tanh", "tanh"], ["relu", "tanh", "linear"],
    ])
    def test_bits_match_the_composed_chain_rule(self, activations):
        # row 0 is x = 0 and the biases are zero, so every layer's
        # pre-activation there is exactly 0 (relu' 0), its tangent is not
        rng = np.random.default_rng(8)
        mlp = Mlp([2, 16, 16, 2], activations, rng)
        x = rng.normal(size=(12, 2))
        x[0] = 0.0
        v = np.zeros_like(x)
        v[:, 0] = 1.0 / 120.0
        gy, gydot = rng.normal(size=(2, 12, 2))
        y, ydot, cache = mlp.forward_tangent(x, v)
        grads = mlp.backward_tangent(cache, gy, gydot)
        want_y, want_ydot, want_grads = _composed_tangent_passes(mlp, x, v, gy, gydot)
        for got, want in zip([y, ydot, *grads], [want_y, want_ydot, *want_grads], strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _composed_tangent_passes(mlp, x, v, gy, gydot):
    """Both tangent passes as the full chain rule for every activation: the
    reverse pass recomputes each layer's first and second derivatives from
    its pre-activation z and multiplies out their unit and zero factors.
    Returns (y, ydot, parameter gradients)."""
    def act(name, z):
        return {"linear": z, "relu": np.maximum(z, 0.0), "tanh": np.tanh(z)}[name]

    def act_d(name, z):
        return {"linear": np.ones_like(z), "relu": (z > 0).astype(z.dtype),
                "tanh": 1.0 - np.tanh(z) ** 2}[name]

    def act_dd(name, z):
        th = np.tanh(z)
        return np.zeros_like(z) if name in ("linear", "relu") else -2.0 * th * (1.0 - th**2)

    a = np.asarray(x, dtype=float)
    adot = np.broadcast_to(np.asarray(v, dtype=float), a.shape).copy()
    caches = []
    for layer, name in zip(mlp.layers, mlp.activations):
        z = a @ layer.W.T + layer.b
        zdot = adot @ layer.W.T
        caches.append((a, adot, z, zdot))
        a = act(name, z)
        adot = act_d(name, z) * zdot
    y, ydot = a, adot
    ga, gadot = gy, gydot
    grads = []
    for layer, name, (a_in, adot_in, z, zdot) in zip(reversed(mlp.layers), reversed(mlp.activations),
                                                     reversed(caches)):
        d = act_d(name, z)
        gz = ga * d + gadot * act_dd(name, z) * zdot
        gzdot = gadot * d
        grads = [gz.T @ a_in + gzdot.T @ adot_in, gz.sum(axis=0)] + grads
        ga = gz @ layer.W
        gadot = gzdot @ layer.W
    return y, ydot, grads


def _tangent_gradcheck(activation, rng):
    """FD gradcheck of a loss of both an Mlp's output and its input tangent."""
    mlp = Mlp([2, 6, 6, 2], [activation, activation, "linear"], rng)
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
            hs, cache = lstm_forward(cell, x)
            loss = float(np.sum(hs * g_out))
            _, grads = cell.backward(cache, g_out)
            return loss, grads

        fd_gradcheck(cell.params(), loss_fn)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_in, hdim", [(1, 1), (1, 4), (3, 1), (3, 4)])
    def test_forward_never_writes_the_parameters(self, n_in, hdim, dtype):
        # at n_in 1 (H 1) the float64 Wx^T (per-gate Wh^T) is already a
        # C-contiguous view of the parameter: forward must negate a copy
        rng = np.random.default_rng(n_in * 10 + hdim)
        cell = LstmCell(n_in, hdim, rng)
        cell.b[:] = rng.normal(size=4 * hdim)
        before = [p.copy() for p in cell.params()]
        x = rng.normal(size=(5, 2, n_in)).astype(dtype)
        first, second = lstm_forward(cell, x)[0], lstm_forward(cell, x)[0]
        assert np.array_equal(first, second)
        for got, want in zip(cell.params(), before):
            assert np.array_equal(got, want)

    def test_float32_matches_float64_gradients(self):
        # test_bptt_gradcheck's fixture in float32: the caches, gradients and
        # dx stay float32, and each array is within a relative 1e-5 of its
        # largest float64 value (float32's epsilon is 1.2e-7; measured <= 2e-7)
        rng = np.random.default_rng(3)
        cell = LstmCell(2, 5, rng)
        x = rng.normal(size=(6, 3, 2))
        g_out = rng.normal(size=(6, 3, 5))
        results = {}
        for dtype in (np.float64, np.float32):
            hs, cache = lstm_forward(cell, x.astype(dtype))
            dx, grads = cell.backward(cache, g_out.astype(dtype))
            assert all(a.dtype == dtype for a in (hs, *cache, dx, *grads))
            results[dtype] = [dx, *grads]
        assert all(p.dtype == np.float64 for p in cell.params())
        for got, want in zip(results[np.float32], results[np.float64]):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_input_gradient(self):
        rng = np.random.default_rng(8)
        cell = LstmCell(2, 4, rng)
        x = rng.normal(size=(5, 2, 2))
        g_out = rng.normal(size=(5, 2, 4))
        hs, cache = lstm_forward(cell, x)
        dx, _ = cell.backward(cache, g_out)
        h = 1e-6
        for ix in [(0, 0, 0), (2, 1, 1), (4, 0, 1)]:
            xp, xm = x.copy(), x.copy()
            xp[ix] += h
            xm[ix] -= h
            fd = (np.sum(lstm_forward(cell, xp)[0] * g_out) - np.sum(lstm_forward(cell, xm)[0] * g_out)) / (2 * h)
            assert abs(fd - dx[ix]) / max(abs(fd), 1e-9) < 1e-6

    def test_shape_validation(self):
        cell = LstmCell(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            cell.forward(np.zeros((5, 2, 2)), np.empty((5, 2, 4)))
        for hs in (np.empty((5, 2, 3)), np.empty((5, 2, 4), np.float32)):
            with pytest.raises(ShapeError, match="lstm output"):
                cell.forward(np.zeros((5, 2, 3)), hs)


def _per_lane_backward(cell, cache, dh_seq):
    """LstmCell.backward's BPTT as one chain-rule expression per gate lane and
    step, reading the lane-major gate cache: the reference the row-wise form
    must match bit for bit."""
    x, gates, cs, hs = cache
    t_len, batch, _ = x.shape
    hdim, dtype = cell.n_hidden, x.dtype
    wx, wh = cell.Wx.astype(dtype, copy=False), cell.Wh.astype(dtype, copy=False)
    dz_all = np.empty((t_len, batch, 4 * hdim), dtype)
    dh_next = np.zeros((batch, hdim), dtype)
    dc_next = np.zeros((batch, hdim), dtype)
    for t in range(t_len - 1, -1, -1):
        i, f, o, g = gates[t]
        c_prev = cs[t - 1] if t > 0 else 0.0
        tanh_c = np.tanh(cs[t])
        dh = dh_seq[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz = dz_all[t]
        dz[:, :hdim] = (dc * g) * i * (1.0 - i)
        dz[:, hdim : 2 * hdim] = (dc * c_prev) * f * (1.0 - f)
        dz[:, 2 * hdim : 3 * hdim] = (dh * tanh_c) * o * (1.0 - o)
        dz[:, 3 * hdim :] = (dc * i) * (1.0 - g**2)
        dh_next = dz @ wh
        dc_next = dc * f
    h_prev = np.concatenate([np.zeros((1, batch, hdim), dtype), hs[:-1]], axis=0)
    flat_dz = dz_all.reshape(-1, 4 * hdim)
    dWx = flat_dz.T @ x.reshape(-1, cell.n_in)
    dWh = flat_dz.T @ h_prev.reshape(-1, hdim)
    return dz_all @ wx, [dWx, dWh, flat_dz.sum(axis=0)]


def _saturating_cell(n_in, hdim, seed):
    """A cell whose bias drives lane 0 of every gate to z = 1000 and lane 1 to
    z = -1000, far past both dtypes' sigmoid clips, at every step."""
    cell = LstmCell(n_in, hdim, np.random.default_rng(seed))
    cell.b[::hdim] = 1000.0
    cell.b[1::hdim] = -1000.0
    return cell


class TestLstmCellRows:
    """The training forward and the row-wise BPTT against one expression per step and lane."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("t_len", [1, BPTT_BLOCK - 1, BPTT_BLOCK, BPTT_BLOCK + 1, 96])
    def test_backward_bits_match_the_per_lane_loop(self, t_len, batch, dtype):
        n_in, hdim = 4, 8
        rng = np.random.default_rng(t_len * 100 + batch)
        cell = _saturating_cell(n_in, hdim, t_len)
        x = rng.normal(size=(t_len, batch, n_in)).astype(dtype)
        dh_seq = rng.normal(size=(t_len, batch, hdim)).astype(dtype)
        _, cache = lstm_forward(cell, x)
        gate = cache[1]  # (T, 4, B, H): lane-major
        assert gate.shape == (t_len, 4, batch, hdim) and (gate[..., 0] == 1.0).all()
        assert (gate[:, :3, :, 1] < 1e-30).all() and (gate[:, 3, :, 1] == -1.0).all()
        dx, grads = cell.backward(cache, dh_seq)
        want_dx, want_grads = _per_lane_backward(cell, cache, dh_seq)
        for got, want in zip((dx, *grads), (want_dx, *want_grads)):
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3, 32])
    def test_forward_caches_are_the_composed_steps(self, batch, dtype):
        t_len, n_in, hdim = BPTT_BLOCK + 1, 4, 8
        cell = _saturating_cell(n_in, hdim, batch)
        x = np.random.default_rng(batch).normal(size=(t_len, batch, n_in)).astype(dtype)
        dest = np.empty((t_len, batch, hdim), dtype)
        hs, (x_cache, gates, cs, hs_cache) = cell.forward(x, dest)
        assert hs is dest and hs_cache is dest and np.array_equal(x_cache, x)
        # C-contiguous weight copies, as forward makes: at small B a transposed
        # view takes another BLAS kernel, whose bits differ in the last place
        zx = x @ np.ascontiguousarray(cell.Wx.T, dtype) + cell.b.astype(dtype)
        wh_t = np.ascontiguousarray(cell.Wh.T, dtype)
        clip = 500.0 if dtype == np.float64 else 80.0
        c = h = np.zeros((batch, hdim), dtype)
        for t in range(t_len):
            gate, c, h = _composed_gates(zx[t] + h @ wh_t, c, hdim, clip)
            lane_major = gate.reshape(batch, 4, hdim).swapaxes(0, 1)
            for got, want in zip((gates[t], cs[t], hs[t]), (lane_major, c, h)):
                assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_pre_activations_are_exactly_minus_z(self, dtype, monkeypatch):
        # forward negates the i, f and o columns of its weight copies; every
        # step's pre-activations on those lanes are then -z bit for bit, z
        # being the same products and sums on the weights as they are
        t_len, batch, n_in, hdim = BPTT_BLOCK + 1, 32, 4, 8
        rng = np.random.default_rng(11)
        cell = LstmCell(n_in, hdim, rng)
        cell.b[:] = rng.normal(size=4 * hdim)
        x = rng.normal(size=(t_len, batch, n_in)).astype(dtype)
        seen, step = [], nncore.lstm_gates
        monkeypatch.setattr(nncore, "lstm_gates",
                            lambda views, *args: seen.append((views[0].copy(), views[2].copy())) or step(views, *args))
        hs, _ = lstm_forward(cell, x)
        assert len(seen) == t_len
        zx = x @ np.ascontiguousarray(cell.Wx.T, dtype) + cell.b.astype(dtype)
        wh_t = np.ascontiguousarray(cell.Wh.reshape(4, hdim, hdim).swapaxes(1, 2), dtype)
        h = np.zeros((batch, hdim), dtype)
        for t, (z_sig, z_g) in enumerate(seen):
            z = h @ wh_t + zx[t].reshape(batch, 4, hdim).swapaxes(0, 1)
            assert z_sig.dtype == dtype and np.array_equal(z_sig, -z[:3]) and np.array_equal(z_g, z[3])
            assert (z_sig != 0).any()
            h = hs[t]


def _composed_gates(z, c, hdim, clip=500.0):
    """The LSTM step as one expression: sigmoid i/f/o lanes, tanh g lanes."""
    sig = 1.0 / (1.0 + np.exp(-np.clip(z[..., : 3 * hdim], -clip, clip)))
    g = np.tanh(z[..., 3 * hdim :])
    c_new = sig[..., :hdim] * g + sig[..., hdim : 2 * hdim] * c
    return np.concatenate([sig, g], axis=-1), c_new, sig[..., 2 * hdim :] * np.tanh(c_new)


# z lanes past both dtypes' sigmoid clips (500 and 80) and tanh's range
_SATURATING_Z = (600.0, -600.0, 1e4, -1e4, np.inf, -np.inf)


class TestLstmGates:
    # "rows" cases: z comes as (..., 4H) rows and reaches the lane-major step
    # buffer as in the bank, through one add of transposed row views
    @pytest.mark.parametrize("lead, rows, in_place, dtype", [
        pytest.param((3,), True, False, np.float64, id="B,4H"),
        pytest.param((4, 2), True, False, np.float64, id="K,B,4H"),
        pytest.param((3,), True, True, np.float64, id="B,4H-c_out-is-c"),
        pytest.param((4, 2), True, True, np.float64, id="K,B,4H-c_out-is-c"),
        pytest.param((3,), True, False, np.float32, id="B,4H-float32"),
        pytest.param((4, 2), True, True, np.float32, id="K,B,4H-c_out-is-c-float32"),
        pytest.param((3,), False, False, np.float64, id="4,B,H"),
        pytest.param((4, 2), False, True, np.float64, id="4,K,B,H-c_out-is-c"),
        pytest.param((3,), False, False, np.float32, id="4,B,H-float32"),
        pytest.param((4, 2), False, True, np.float32, id="4,K,B,H-c_out-is-c-float32"),
    ])
    def test_bits_match_the_composed_expression(self, lead, rows, in_place, dtype):
        hdim = 8
        rng = np.random.default_rng(len(lead))
        z = rng.normal(scale=4.0, size=lead + (4 * hdim,)).astype(dtype)
        # saturated lanes in every gate: i, f and o clip at +-500 (+-80 in
        # float32), g does not; the last two lanes of each gate stay finite
        for gate_lane in range(4):
            z[..., gate_lane * hdim : gate_lane * hdim + len(_SATURATING_Z)] = _SATURATING_Z
        c = rng.normal(size=lead + (hdim,)).astype(dtype)
        expected = _composed_gates(z, c, hdim, 500.0 if dtype == np.float64 else 80.0)
        # the same lanes stacked on a leading axis of 4
        z_neg = np.moveaxis(sigmoid_lanes_negated(z, dtype).reshape(lead + (4, hdim)), -2, 0)
        if rows:  # z + 0 is z, bit for bit
            zero = np.moveaxis(np.zeros(lead + (4, hdim), dtype), -2, 0)
            z_neg = np.add(z_neg, zero, out=np.empty(z_neg.shape, dtype))
        else:
            z_neg = np.ascontiguousarray(z_neg)
        # every lane of the gate buffer and of the outputs must be written
        gate, h = np.full(z_neg.shape, np.nan, dtype), np.full(c.shape, np.nan, dtype)
        c_new = c if in_place else np.full(c.shape, np.nan, dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lstm_gates(gate_views(z_neg, gate), c, c_new, h)
        gate = np.moveaxis(gate, 0, -2).reshape(lead + (4 * hdim,))
        for got, want in zip((gate, c_new, h), expected):
            assert got.dtype == dtype and np.array_equal(got, want)
        sig = gate[..., : 3 * hdim].reshape(lead + (3, hdim))
        assert (sig[..., [0, 2, 4]] == 1.0).all()  # z = 600, 1e4 and inf
        assert (gate[..., 3 * hdim + 1 : 3 * hdim + 6 : 2] == -1.0).all()  # g's z = -600, -1e4, -inf

    @pytest.mark.parametrize("lane_axis", [-1, 0])
    def test_sigmoid_lanes_negated_copies(self, lane_axis):
        # already C-contiguous and in the target dtype, a is still not written
        hdim = 2
        a = np.arange(1.0, 4 * hdim * 3 + 1).reshape((4, hdim, 3) if lane_axis == 0 else (3, 4 * hdim))
        before = a.copy()
        out = sigmoid_lanes_negated(a, np.float64, lane_axis)
        assert np.array_equal(a, before) and not np.shares_memory(out, a) and out.flags.c_contiguous
        lanes = np.moveaxis(out.reshape(3, 4, hdim), 1, 0) if lane_axis == -1 else out
        want = np.moveaxis(before.reshape(3, 4, hdim), 1, 0) if lane_axis == -1 else before
        assert np.array_equal(lanes[:3], -want[:3]) and np.array_equal(lanes[3], want[3])

    def test_float32_saturates_without_warning(self):
        # Past float32's clip of +-80 the sigmoid lanes are 1 exactly at the
        # top and 1/(1 + e^80) < 2e-35 at the bottom (exactly 0 would need
        # exp to overflow); tanh's g lanes are +-1 exactly.
        hdim = 3
        z = np.tile(np.array([1e4, -1e4], dtype=np.float32), (2, 2 * hdim))
        c = np.ones((2, hdim), dtype=np.float32)
        lanes = np.ascontiguousarray(sigmoid_lanes_negated(z, np.float32).reshape(2, 4, hdim).swapaxes(0, 1))
        gate, c_new, h = np.empty_like(lanes), np.empty_like(c), np.empty_like(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lstm_gates(gate_views(lanes, gate), c, c_new, h)
        gate = gate.swapaxes(0, 1).reshape(z.shape)
        assert gate.dtype == c_new.dtype == h.dtype == np.float32
        top, bottom = z > 0, z < 0
        sig = np.arange(4 * hdim) < 3 * hdim
        assert (gate[top & sig] == 1.0).all()
        assert ((gate[bottom & sig] > 0) & (gate[bottom & sig] < 2e-35)).all()
        assert (gate[..., ~sig] == np.sign(z[..., ~sig])).all()


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

    def test_parameter_list_must_match(self):
        p, q = np.zeros(2), np.zeros((2, 3))
        opt = Adam([p, q], lr=0.01)
        for params in ([p], [p, q, p], [q, p]):
            with pytest.raises(ShapeError):
                opt.step(params, [np.zeros_like(x) for x in params])

    def test_float32_gradients_update_float64_weights(self):
        # the flat concatenation upcasts once: float32 gradients give the same
        # step as their exact float64 values
        rng = np.random.default_rng(13)
        grads = [rng.normal(size=(3, 2)).astype(np.float32), rng.normal(size=4).astype(np.float32)]
        sides = []
        for cast in (np.float32, np.float64):
            params = [np.ones((3, 2)), np.zeros(4)]
            opt = Adam(params, lr=0.01)
            opt.step(params, [g.astype(cast) for g in grads])
            assert opt.m.dtype == opt.v.dtype == np.float64
            sides.append(params)
        for a, b in zip(*sides):
            assert a.dtype == np.float64 and np.array_equal(a, b)

    def test_steps_after_the_first_allocate_under_one_flat_vector(self):
        # the flat gradient, the moment terms and the update go into two
        # buffers the optimizer keeps; a step allocates the finiteness mask
        # (one byte a parameter) and no parameter-sized float64 array
        rng = np.random.default_rng(14)
        params = [rng.normal(size=s) for s in ((64, 2), (64,), (64, 64), (64,), (2, 64), (2,))]
        grads = [rng.normal(size=p.shape) for p in params]
        opt = Adam(params, lr=0.01)
        opt.step(params, grads)
        flat_bytes = 8 * sum(p.size for p in params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            opt.step(params, grads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < flat_bytes, (peak, flat_bytes)

    def test_golden_bits(self):
        # sha256 of mixed-shape parameters after 50 seeded steps with
        # gradients spanning nine decades, recorded with per-array moments
        rng = np.random.default_rng(12)
        shapes = [(4, 3), (3,), (2, 3, 5), (1,), (5, 1)]
        params = [rng.normal(size=s) for s in shapes]
        opt = Adam(params, lr=0.01)
        for _ in range(50):
            opt.step(params, [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes])
        assert hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest() == (
            "746d3d9087b0632412584c4d38d26e5834831e7bdffa703f1ba3bc2b76445f4f"
        )


class _QuadraticModel:
    """1-parameter model for exercising the training loop."""

    def __init__(self):
        self.w = np.array([2.0])

    def params(self):
        return [self.w]


def _plateau_loss(model, idx):
    # loss improves until it hits a floor; gradient keeps shrinking
    loss = max(float((model.w[0] - 1.0) ** 2), 0.25)
    return loss, [np.array([2 * (model.w[0] - 1.0)])]


def _mlp_mse(x, y):
    """train_loop's loss_fn for an Mlp fit to y by MSE, trained through the
    tangent pass with a zero tangent."""

    def loss_fn(m, idx):
        pred, _, cache = m.forward_tangent(x[idx], np.zeros_like(x[idx]))
        loss, gy = mse(pred, y[idx])
        return loss, m.backward_tangent(cache, gy, np.zeros_like(gy))

    return loss_fn


class TestTrainLoop:
    def test_early_stop_on_plateau(self):
        model = _QuadraticModel()
        cfg = TrainConfig(batch_size=4, lr=0.05, epochs=1000, patience=5, seed=0)
        history = train_loop(model, 8, _plateau_loss, cfg)
        # loss reaches the 0.25 floor within ~10 epochs; stop within patience
        assert history[-1]["epoch"] <= 25

    def test_history_one_entry_per_epoch(self):
        model = _QuadraticModel()
        cfg = TrainConfig(batch_size=8, lr=0.01, epochs=7, patience=100, seed=0)
        history = train_loop(model, 8, _plateau_loss, cfg)
        assert [h["epoch"] for h in history] == list(range(1, 8))  # no entry for the untrained model

    def test_bit_reproducible(self):
        def make():
            rng = np.random.default_rng(0)
            mlp = Mlp([2, 8, 1], ["relu", "linear"], np.random.default_rng(1))
            x = rng.normal(size=(16, 2))
            y = rng.normal(size=(16, 1))
            cfg = TrainConfig(batch_size=4, lr=0.01, epochs=20, patience=50, seed=3)
            return mlp, train_loop(mlp, 16, _mlp_mse(x, y), cfg)

        m1, h1 = make()
        m2, h2 = make()
        assert [h["train_loss"] for h in h1] == [h["train_loss"] for h in h2]
        for p1, p2 in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p1, p2)

    def test_loss_fn_sees_training_batches_only(self):
        # every loss_fn call is one training batch of at most batch_size
        # indices, and each epoch's batches cover every sample once
        calls = []

        def loss_fn(model, idx):
            calls.append(np.array(idx))
            return _plateau_loss(model, idx)

        cfg = TrainConfig(batch_size=4, lr=0.01, epochs=3, patience=50, seed=0)
        history = train_loop(_QuadraticModel(), 10, loss_fn, cfg)
        assert [h["epoch"] for h in history] == [1, 2, 3]
        assert [len(idx) for idx in calls] == [4, 4, 2] * 3
        for epoch in range(3):
            assert sorted(np.concatenate(calls[3 * epoch : 3 * epoch + 3])) == list(range(10))

    def test_config_validated(self):
        for bad in ({"epochs": 0}, {"batch_size": 0}, {"patience": 0}, {"lr": 0.0},
                    {"lr": float("nan")}, {"lr": float("inf")}, {"lr_decay": 0.0},
                    {"lr_decay": 1.5}, {"decay_patience": 0}, {"decay_patience": -1}):
            with pytest.raises(ParameterError):
                TrainConfig(**bad)

    def test_empty_dataset(self):
        with pytest.raises(ParameterError):
            train_loop(_QuadraticModel(), 0, _plateau_loss, TrainConfig())

    def test_non_finite_loss_aborts(self):
        def bad_loss(model, idx):
            return float("nan"), [np.zeros(1)]

        with pytest.raises(NumericError):
            train_loop(_QuadraticModel(), 4, bad_loss, TrainConfig(epochs=2))

    def test_restores_best_weights(self):
        # one batch per epoch; the loss is lowest in epoch 3, after which
        # patience runs out and the weights of epoch 3 come back
        losses = iter([1.0, 0.5, 0.1, 0.9, 0.9, 0.9, 0.9])

        def loss_fn(model, idx):
            return next(losses, 0.9), [np.array([1.0])]

        model = _QuadraticModel()
        cfg = TrainConfig(batch_size=8, lr=0.1, epochs=6, patience=3, seed=0)
        history = train_loop(model, 8, loss_fn, cfg)
        assert [h["train_loss"] for h in history] == [1.0, 0.5, 0.1, 0.9, 0.9, 0.9]
        # best epoch was 3 (0.1): three optimizer steps of lr from 2.0
        assert model.w[0] == pytest.approx(2.0 - 3 * 0.1, abs=1e-7)


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

    @pytest.mark.parametrize("dtype", ["float32", "int64", None])
    def test_non_float64_dtype_refused(self, tmp_path, dtype):
        # the blob is read as float64 whatever the field says, so any other
        # dtype is refused rather than reinterpreted
        path = tmp_path / "model.json"
        save_checkpoint(path, {}, [np.arange(4.0)])
        doc = json.loads(path.read_text())
        doc["params"]["dtype"] = dtype
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="model.json.*not float64"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParameterError):
            load_checkpoint(path)
