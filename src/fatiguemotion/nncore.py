"""Minimal differentiable-model kernel: dense stacks, LSTM cells, Adam.

Parameters are float64 numpy arrays. :class:`DenseLayer` and
:class:`LstmCell` compute in the float dtype of their input (:func:`as_float`):
a float32 input runs the forward pass, its caches and the backward pass in
float32, against a float32 copy of the weights cast once per call, and gives
float32 gradients; any other input runs in float64. :class:`Adam` upcasts
the gradients once and keeps its moments and the weights it updates in
float64, so float32 training keeps float64 master weights and checkpoints.
Gradients are exact reverse-mode, including gradients of outputs with
respect to inputs.

:class:`DenseLayer` is affine, y = x W^T + b. The dense stack :class:`Mlp`
holds one activation per layer, applies it after the layer and has one pass
per job. :meth:`Mlp.forward` is inference: it returns the output and keeps
nothing. :meth:`Mlp.forward_tangent` carries an input tangent (a
directional derivative) alongside the output and keeps the caches of
:meth:`Mlp.backward_tangent`, which gives the parameter gradients of a loss
of both the output and its tangent. That is what lets an ODE-residual loss
differentiate a network output with respect to its time input and still
train by backprop; rows whose loss does not involve the tangent get a zero
tangent gradient.

Every LSTM step runs on contiguous memory, in as few passes as the math
needs: an elementwise op on one of a (B, 4H) row's four strided (B, H) gate
lanes costs about as much as on the whole row. The training forward
(:meth:`LstmCell.forward`, gate cache included) and the inference bank
step lane-major pre-activations and gates, (4, ..., H), each lane a
contiguous block (:func:`gate_views`), from copies of the weights whose
sigmoid lanes (i, f, o) are negated by the one :func:`sigmoid_lanes_negated`:
:func:`lstm_gates` reads their pre-activations as -z, exactly, and takes the
sigmoid in four passes with a one-sided clip that keeps every bit of the
two-sided form. The BPTT (:meth:`LstmCell.backward`) works on whole
contiguous (B, 4H) gate rows, with the factors that do not depend on the
recurrence laid out per block of :data:`BPTT_BLOCK` steps from the
lane-major cache. Every product keeps its operands and their order, so the
gradients are bit for bit those of the per-lane chain rule. The training
forward makes one whole-window input projection, adds the bias into it in
place and reads it through a lane-major view; it copies its hidden states
into a destination its caller gives, so a bidirectional layer's output holds
both directions' states, and the cells' caches are views of it. A cell
trains in one (T, B, 4H) buffer, shared by liveness (Chen et al. 2016):
each step's gates go into the bytes of the projection row the step has
just read, and the BPTT writes each step's dz into the bytes of its gates,
so a backward call consumes its cache. The backward writes its input
gradient into a destination its caller may give.

:func:`train_loop` runs training batches only; a trainer logs its untrained
model's loss itself. Single-threaded training with a fixed seed is
bit-reproducible; a trained model is immutable for inference and safe to share.
"""
from __future__ import annotations

import binascii
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError, ParameterError, ShapeError, read_json, reading, write_json

CHECKPOINT_FORMAT = "fatiguemotion-checkpoint"
CHECKPOINT_VERSION = 1


# --- activations -------------------------------------------------------------

ACTIVATIONS = ("linear", "relu", "tanh")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z) if name == "tanh" else z


def _act_d(name: str, z: np.ndarray) -> np.ndarray:
    """relu' or tanh' at z; a linear layer passes its gradients through instead."""
    return (z > 0).astype(z.dtype) if name == "relu" else 1.0 - np.tanh(z) ** 2


def as_float(x) -> np.ndarray:
    """x as an array in the dtype a layer computes in: float32 stays float32,
    anything else becomes float64. Copies nothing already in that dtype."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def ensure_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericError(f"{name}: non-finite values encountered")


def glorot_uniform(n_out: int, n_in: int, rng) -> np.ndarray:
    lim = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-lim, lim, size=(n_out, n_in))


# --- dense layers -------------------------------------------------------------

class DenseLayer:
    """Affine layer y = x W^T + b, x of shape (B, n_in), in x's float dtype
    (:func:`as_float`); its forward cache is x. :class:`Mlp` applies activations."""

    def __init__(self, n_in: int, n_out: int, rng):
        self.n_in = n_in
        self.n_out = n_out
        self.W = glorot_uniform(n_out, n_in, rng)
        self.b = np.zeros(n_out)

    def params(self):
        return [self.W, self.b]

    def forward(self, x: np.ndarray):
        x = as_float(x)
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"dense layer expects width {self.n_in}, got {x.shape[-1]}")
        return x @ self.W.T.astype(x.dtype, copy=False) + self.b.astype(x.dtype, copy=False), x

    def backward(self, x, gy: np.ndarray):
        return [gy.T @ x, gy.sum(axis=0)], gy @ self.W.astype(x.dtype, copy=False)


class Mlp:
    """Stack of :class:`DenseLayer`, each followed by its activation, one of
    :data:`ACTIVATIONS`; ``sizes`` = [n_in, h1, ..., n_out]."""

    def __init__(self, sizes, activations, rng):
        if len(activations) != len(sizes) - 1 or not set(activations) <= set(ACTIVATIONS):
            raise ParameterError(f"need one activation of {ACTIVATIONS} per weight layer, got {activations}")
        self.activations = list(activations)
        self.layers = [DenseLayer(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)]

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference: the stack's output y, keeping nothing for a reverse pass.
        Same arithmetic as the y of :meth:`forward_tangent`, so the same bits."""
        for layer, name in zip(self.layers, self.activations):
            x = _act(name, layer.forward(x)[0])
        ensure_finite("mlp forward", x)
        return x

    def forward_tangent(self, x: np.ndarray, v: np.ndarray):
        """Forward pass carrying an input tangent v = dx/dalpha of x's shape,
        read and never written: returns (y, dy/dalpha, cache). The cache keeps v
        and each layer's output and activation derivative (None when linear)."""
        a, adot = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        caches = []
        for layer, name in zip(self.layers, self.activations):
            z = a @ layer.W.T
            z += layer.b
            zdot = adot @ layer.W.T
            d = None if name == "linear" else _act_d(name, z)
            a_in, adot_in = a, adot
            a = _act(name, z)
            adot = zdot if d is None else d * zdot
            caches.append((a_in, adot_in, a, d, zdot))
        ensure_finite("mlp tangent forward", a, adot)
        return a, adot, caches

    def backward_tangent(self, caches, gy: np.ndarray, gydot: np.ndarray):
        """Reverse pass through :meth:`forward_tangent`: parameter gradients of a
        loss L(y, ydot). The tangent's gradient reaches gz through the
        activation's second derivative, which only tanh has: it is zero for a
        linear layer and zero a.e. for relu. Nothing reads the stack input's gradients."""
        ga = np.asarray(gy, dtype=float)
        gadot = np.asarray(gydot, dtype=float)
        grads: list[np.ndarray] = []
        for layer, name, (a_in, adot_in, a, d, zdot) in zip(
                reversed(self.layers), reversed(self.activations), reversed(caches)):
            if d is None:
                gz, gzdot = ga, gadot
            else:
                gz = ga * d
                if name == "tanh":
                    gz += gadot * (-2.0 * a * d) * zdot  # tanh'' = -2 tanh tanh'
                gzdot = gadot * d
            gW = gz.T @ a_in + gzdot.T @ adot_in
            gb = gz.sum(axis=0)
            if layer is not self.layers[0]:
                ga, gadot = gz @ layer.W, gzdot @ layer.W
            grads = [gW, gb] + grads
        return grads


# --- LSTM cell ---------------------------------------------------------------

# Time steps whose recurrence-free BPTT factors LstmCell.backward lays out
# at once, ahead of those steps: 8-16 measured fastest at T 96, B 32, H 32;
# the whole window at once lost on cache.
BPTT_BLOCK = 8


class LstmCell:
    """Standard LSTM (input/forget/candidate/output gates) over (T, B, D) input.

    Gate pre-activations are packed as [i, f, o, g] rows of Wx/Wh so the three
    sigmoid gates evaluate in one call. The input projection for all
    timesteps is computed in one matmul; only the hidden recurrence loops
    over time. :meth:`forward` keeps the gates and cell states that BPTT
    needs, so it is the training path. Once per call it copies Wx^T
    C-contiguous (the transposed view takes a BLAS kernel 2-3x slower at B
    32) and Wh^T as a (4, H, H) stack of per-gate blocks, and negates the
    i, f and o columns of both and of b (:func:`sigmoid_lanes_negated`). It
    adds b into the (T, B, 4H) input projection in place and steps a
    lane-major (T, 4, B, H) view of it, no copy. Each step runs the
    per-gate recurrent matmul into one preallocated (4, B, H) z, adds the
    step's projection lanes, steps one fixed gate buffer and copies it into
    the bytes of the projection row z has just read: the projection buffer,
    viewed (T, 4, B, H), is the lane-major gate cache. c and h are written
    straight into row t.
    h is stepped in one contiguous (T, B, H) buffer (the step runs slower on
    strided rows) and copied once into the caller's (T, B, H) destination,
    which the cache keeps: ``surrogates.BiLstmLayer`` passes the halves of
    its layer output. Both matmuls' bits depend on the BLAS kernel their
    layout takes: with OpenBLAS 0.3.31 they equal the transposed and (H, 4H)
    forms' at the desk shapes (H 32, B >= 10), not at every B and H.
    Inference runs cells through
    ``surrogates.BiLstmBank``, which stacks many cells on a leading axis,
    keeps no caches and shares the lane-major gate step (:func:`lstm_gates`).

    :meth:`backward` computes on whole (B, 4H) rows rather than on the four
    strided (B, H) gate lanes, each of which costs about as much per
    elementwise op as a whole row (B 32, H 32: about 2 us against 0.5 us).
    Per block of :data:`BPTT_BLOCK` steps it lays out the rows that do not
    depend on dh or dc, with one transposing copy of the block's lane-major
    gates and one copy of their o and f lanes, and then writes the block's
    dz rows into the block's gate-cache bytes (:func:`_bptt_rows`); a step
    reads o and f as contiguous lanes of that copy, fills one lane buffer
    [dc, dc, dh, dc] and multiplies its dz row by it and by two factor
    rows, with the same operands in the same order as the per-lane chain
    rule, so the gradients are the per-lane form's bits in both dtypes.
    """

    def __init__(self, n_in: int, n_hidden: int, rng):
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.Wx = glorot_uniform(4 * n_hidden, n_in, rng)
        self.Wh = glorot_uniform(4 * n_hidden, n_hidden, rng)
        self.b = np.zeros(4 * n_hidden)

    def params(self):
        return [self.Wx, self.Wh, self.b]

    def forward(self, x: np.ndarray, hs: np.ndarray):
        """(hs, cache) of the (T, B, D) input x. The hidden states go to the
        caller's (T, B, H) destination ``hs``, a view of a larger array if
        need be; the cache keeps that array."""
        x = as_float(x)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"lstm expects (T, B, {self.n_in}), got {x.shape}")
        t_len, batch, _ = x.shape
        hdim, dtype = self.n_hidden, x.dtype
        _check_destination("lstm output", hs, (t_len, batch, hdim), dtype)
        zx = x @ sigmoid_lanes_negated(self.Wx.T, dtype)
        zx += sigmoid_lanes_negated(self.b, dtype)
        zx_lanes = zx.reshape(t_len, batch, 4, hdim).swapaxes(1, 2)  # (T, 4, B, H) view
        gates = zx.reshape(t_len, 4, batch, hdim)  # the same bytes, step t's once z has read them
        wh_t = sigmoid_lanes_negated(self.Wh.reshape(4, hdim, hdim).swapaxes(1, 2), dtype, lane_axis=0)
        cs = np.empty((t_len, batch, hdim), dtype)
        z, gate = np.empty((2, 4, batch, hdim), dtype)
        views = gate_views(z, gate)
        c = h = np.zeros((batch, hdim), dtype)
        steps = np.empty((t_len, batch, hdim), dtype)
        for t in range(t_len):
            np.matmul(h, wh_t, out=z)
            z += zx_lanes[t]
            lstm_gates(views, c, cs[t], steps[t])
            gates[t] = gate
            c, h = cs[t], steps[t]
        hs[...] = steps
        return hs, (x, gates, cs, hs)

    def backward(self, cache, dh_seq: np.ndarray, dx: np.ndarray | None = None):
        """BPTT: (dx, [dWx, dWh, db]) of a loss given d(loss)/d(h_t) for every
        t, in the forward pass's dtype. It consumes its cache: the gate cache
        becomes d(loss)/dz, so a cache is read by one backward call. dx goes
        to the caller's (T, B, D) destination ``dx``, a new array when none is
        given; it is written after the last read of ``dh_seq``, so it may be
        the array ``dh_seq`` views."""
        x, gates, cs, hs = cache
        t_len, batch, _ = x.shape
        hdim, dtype = self.n_hidden, x.dtype
        if dx is not None:
            _check_destination("lstm input gradient", dx, x.shape, dtype)
        wx, wh = self.Wx.astype(dtype, copy=False), self.Wh.astype(dtype, copy=False)
        dz_all = _bptt_rows(gates, cs, dh_seq, wh)
        h_prev = np.concatenate([np.zeros((1, batch, hdim), dtype), hs[:-1]], axis=0)
        flat_dz = dz_all.reshape(-1, 4 * hdim)
        dWx = flat_dz.T @ x.reshape(-1, self.n_in)
        dWh = flat_dz.T @ h_prev.reshape(-1, hdim)
        db = flat_dz.sum(axis=0)
        return np.matmul(dz_all, wx, out=dx), [dWx, dWh, db]


def _check_destination(name: str, a: np.ndarray, shape: tuple, dtype) -> None:
    if a.shape != shape or a.dtype != dtype:
        raise ShapeError(f"{name} must be {dtype} of shape {shape}, got {a.dtype} of shape {a.shape}")


def _bptt_rows(gates, cs, dh_seq, wh) -> np.ndarray:
    """d(loss)/dz of every step, (T, B, 4H), from the lane-major (T, 4, B, H)
    gate cache, the cell-state cache, d(loss)/dh_t and the recurrent weight
    Wh in the caches' dtype.

    The dz rows are written into the gate cache's bytes, block by block
    from the last, and the result is that buffer viewed (T, B, 4H): a
    block's gates are copied into r1, and its o and f lanes into ``of``,
    before its rows are written, and no other block's bytes are read. The
    block buffers are a few (BPTT_BLOCK, B, 4H) rows, freed on return.
    """
    t_len, _, batch, hdim = gates.shape
    dtype = gates.dtype
    span = min(BPTT_BLOCK, t_len)
    dz_all = gates.reshape(t_len, batch, 4 * hdim)
    # dz_all[t] starts as [g, c_prev, tanh(c), i] and is multiplied in place
    # by [dc, dc, dh, dc], by r1 = [i, f, o, 1 - g^2] and by r2 =
    # [1 - i, 1 - f, 1 - o, 1]: each lane's products in the order of the
    # per-lane chain rule, so the bits are those of the per-lane form
    r1, r2 = np.empty((2, span, batch, 4 * hdim), dtype)
    of = np.empty((span, 2, batch, hdim), dtype)  # each step's o and f lanes
    dtanh_c = np.empty((span, batch, hdim), dtype)
    lane = np.empty((batch, 4, hdim), dtype)
    lane_rows = lane.reshape(batch, 4 * hdim)
    dh, dc, dh_next, tmp = np.zeros((4, batch, hdim), dtype)
    for t0 in range((t_len - 1) // span * span, -1, -span):
        n = min(span, t_len - t0)
        gate, rows, gate_rows = gates[t0 : t0 + n], dz_all[t0 : t0 + n], r1[:n]
        lag = int(t0 == 0)  # step 0 has no previous cell state: c_prev = 0
        gate_rows.reshape(n, batch, 4, hdim)[...] = gate.swapaxes(1, 2)  # [i, f, o, g] rows
        of[:n] = gate[:, 2:0:-1]
        rows[..., :hdim] = gate_rows[..., 3 * hdim :]
        rows[:lag, :, hdim : 2 * hdim] = 0.0
        rows[lag:, :, hdim : 2 * hdim] = cs[t0 + lag - 1 : t0 + n - 1]
        tanh_c = np.tanh(cs[t0 : t0 + n], out=rows[..., 2 * hdim : 3 * hdim])
        rows[..., 3 * hdim :] = gate_rows[..., :hdim]
        np.subtract(1.0, gate_rows, out=r2[:n])
        r2[:n, :, 3 * hdim :] = 1.0
        np.subtract(1.0, np.square(gate_rows[..., 3 * hdim :], out=gate_rows[..., 3 * hdim :]),
                    out=gate_rows[..., 3 * hdim :])
        np.subtract(1.0, np.square(tanh_c, out=dtanh_c[:n]), out=dtanh_c[:n])
        for j in range(n - 1, -1, -1):
            np.add(dh_seq[t0 + j], dh_next, out=dh)
            o, f = of[j]
            dc += np.multiply(np.multiply(dh, o, out=tmp), dtanh_c[j], out=tmp)
            lane[...] = dc[:, None]
            lane[:, 2] = dh
            dz = rows[j]
            dz *= lane_rows
            dz *= r1[j]
            dz *= r2[j]
            np.matmul(dz, wh, out=dh_next)
            dc *= f
    return dz_all


# |z| bound of the sigmoid lanes: exp stays finite (float32 overflows past 88)
# and the sigmoid is 0 or 1 to the dtype's resolution beyond it.
_SIGMOID_CLIP = {np.dtype(np.float64): 500.0, np.dtype(np.float32): 80.0}


def sigmoid_lanes_negated(a: np.ndarray, dtype, lane_axis: int = -1, order: str = "C") -> np.ndarray:
    """A new ``dtype`` copy of the step weights ``a`` (a transposed Wx or Wh,
    or b, of one cell or of cells stacked on a leading axis) with its i, f
    and o lanes negated, as :func:`lstm_gates` reads those pre-activations
    as -z. The four lanes are stacked on ``lane_axis``: 0 for per-gate
    blocks (4, ...), -1 for the quarters of the last axis (the bank's row
    weights). ``order`` is numpy's memory layout of the copy: C by
    default, "K" to keep ``a``'s, as a matmul's bits depend on the BLAS
    kernel its operands' layout takes. ``a`` is never written, even where
    it is already laid out as asked. Negation is exact, and so is every sum
    and product of negated operands, so those lanes are -z bit for bit."""
    out = np.array(a, dtype=dtype, order=order)
    sig = out[:3] if lane_axis == 0 else out[..., : out.shape[-1] // 4 * 3]
    np.negative(sig, out=sig)
    return out


def gate_views(z: np.ndarray, gate: np.ndarray) -> tuple:
    """(z's and gate's i, f and o lanes, z's g lanes, gate's i, f, o and g
    lanes, the gate dtype's ``_SIGMOID_CLIP``): what :func:`lstm_gates`
    steps, from lane-major (4, ..., H) buffers z and gate, so every lane,
    and the sigmoid span of the first three, is contiguous.
    """
    return z[:3], gate[:3], z[3], gate[0], gate[1], gate[2], gate[3], _SIGMOID_CLIP[gate.dtype]


def lstm_gates(views: tuple, c: np.ndarray, c_out: np.ndarray, h_out: np.ndarray) -> None:
    """One LSTM step from the :func:`gate_views` of z and gate and cell state c (..., H).

    z's i, f and o lanes hold the negated pre-activations z' = -z (see
    :func:`sigmoid_lanes_negated`), its g lanes z itself. Writes the
    activated [i, f, o, g] gates into the gate buffer, the new c into
    ``c_out`` (which may be ``c``) and the new h into ``h_out`` (which may
    not), allocating nothing; leading axes are free. The sigmoid lanes are
    1/(1 + exp(min(z', clip))): four passes, where sigmoid(z) as
    1/(1 + exp(-clip(z, -clip, clip))) takes six. The clip's other side
    never changed a bit: below z' = -clip, 1 + exp(z') rounds to 1 as 1 +
    exp(-clip) does (clip 80 in float32, 500 in float64), so every z,
    +-inf included, gets the two-sided form's bits. Then tanh(z_g), f*c +
    i*g and tanh(c)*o, in that order, so the bits are the composed
    expression's.
    """
    z_sig, gate_sig, z_g, i, f, o, g, clip = views
    np.minimum(z_sig, clip, out=gate_sig)
    np.exp(gate_sig, out=gate_sig)
    np.add(gate_sig, 1.0, out=gate_sig)
    np.divide(1.0, gate_sig, out=gate_sig)
    np.tanh(z_g, out=g)
    np.add(np.multiply(f, c, out=c_out), np.multiply(i, g, out=h_out), out=c_out)
    np.multiply(np.tanh(c_out, out=h_out), o, out=h_out)


# --- losses -------------------------------------------------------------------

def mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient with respect to pred, both in float64."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    diff = pred - target
    return float(np.mean(diff**2)), (2.0 / diff.size) * diff


# --- optimizer ----------------------------------------------------------------

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over one flat moment buffer; updates parameter arrays in place.

    Gradients of any float dtype are upcast to float64 once, into a flat buffer kept with
    the moments and one scratch vector, where a step writes all it computes, in float64.
    """

    def __init__(self, params, lr: float = 0.001):
        self.lr = lr
        self.t = 0
        self.shapes = [p.shape for p in params]
        self.m, self.v, self._g, self._s = np.zeros((4, sum(p.size for p in params)))
        ends = np.cumsum([p.size for p in params])
        self._updates = [self._g[end - p.size:end].reshape(p.shape) for p, end in zip(params, ends)]

    def step(self, params, grads) -> None:
        if [p.shape for p in params] != self.shapes:
            raise ShapeError("parameter list does not match optimizer state")
        g, s = self._g, self._s
        np.concatenate(grads, axis=None, out=g)
        if not np.isfinite(g).all():
            raise NumericError("adam: NaN/Inf gradient, training aborted")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        self.m *= ADAM_BETA1
        self.m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
        self.v *= ADAM_BETA2
        self.v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=s), g, out=s)
        # update = lr * (m / b1t) / (sqrt(v / b2t) + eps), into g
        np.add(np.sqrt(np.divide(self.v, b2t, out=s), out=s), ADAM_EPS, out=s)
        np.divide(np.multiply(self.lr, np.divide(self.m, b1t, out=g), out=g), s, out=g)
        for p, update in zip(params, self._updates):
            p -= update


# --- training loop --------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked once at construction (ParameterError)."""

    batch_size: int = 32
    lr: float = 0.001
    epochs: int = 1000
    patience: int = 25
    min_delta: float = 1e-6
    seed: int = 0
    # Plateau schedule: multiply lr by lr_decay after every decay_patience
    # epochs without improvement; the default lr_decay of 1.0 keeps lr.
    lr_decay: float = 1.0
    decay_patience: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ParameterError(
                f"epochs, batch_size and patience must be >= 1, got {self.epochs}, "
                f"{self.batch_size} and {self.patience}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"learning rate must be finite and > 0, got {self.lr}")
        if not 0 < self.lr_decay <= 1:
            raise ParameterError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.decay_patience < 1:
            raise ParameterError(f"decay_patience must be >= 1, got {self.decay_patience}")


def train_loop(model, n_samples: int, loss_fn, config: TrainConfig, epoch_log_fn=None):
    """Seeded mini-batch Adam with early stopping and best-weight restore.

    ``loss_fn(model, idx)`` returns (loss, grads aligned with model.params())
    for the sample indices ``idx`` of one training batch, at most
    ``config.batch_size`` of them; it is called for training batches only.
    Early stopping, the plateau decay and the restored best weights all
    follow the epoch's ``train_loss``: the mean of its batch losses, each
    taken before that batch's Adam step. The weights kept as best are those
    after the last step of the epoch with the lowest ``train_loss``: weights
    at which none of that epoch's batch losses was taken.
    ``epoch_log_fn(model)`` may add extra fields to each history entry.
    Trains ``model`` in place and returns the history: one entry per epoch
    run, numbered from 1. A trainer that logs the untrained model puts its
    own entry 0 in front.
    """
    if n_samples < 1:
        raise ParameterError("empty dataset")
    params = model.params()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history = []
    best_loss = np.inf
    best_params = None
    stall = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_samples)
        batch_losses = []
        for start in range(0, n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = loss_fn(model, idx)
            if not np.isfinite(loss):
                raise NumericError(f"epoch {epoch}: non-finite training loss")
            opt.step(params, grads)
            batch_losses.append(loss)
        entry = {"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                 **(epoch_log_fn(model) if epoch_log_fn is not None else {})}
        history.append(entry)
        if entry["train_loss"] < best_loss - config.min_delta:
            best_loss = entry["train_loss"]
            best_params = [p.copy() for p in params]
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
            if stall % config.decay_patience == 0:
                opt.lr *= config.lr_decay
    if best_params is not None:
        for p, bp in zip(params, best_params):
            p[...] = bp
    return history


# --- checkpoints -----------------------------------------------------------------

def encode_params(params) -> dict:
    blob = b"".join(np.ascontiguousarray(p, dtype=np.float64).tobytes() for p in params)
    return {
        "dtype": "float64",
        "shapes": [list(p.shape) for p in params],
        "blob_b64": binascii.b2a_base64(blob, newline=False).decode("ascii"),
    }


def decode_params(enc: dict):
    if enc["dtype"] != "float64":
        raise ValueError(f"dtype {enc['dtype']!r}, not float64")
    flat = np.frombuffer(binascii.a2b_base64(enc["blob_b64"]), dtype=np.float64)
    out = []
    offset = 0
    for shape in enc["shapes"]:
        size = int(np.prod(shape)) if shape else 1
        out.append(flat[offset : offset + size].reshape(shape).copy())
        offset += size
    if offset != flat.size:
        raise ParameterError("parameter blob size does not match shapes")
    return out


def check_shapes(shapes, values, source) -> None:
    """ShapeError naming ``source`` unless the checkpoint arrays ``values``
    are one array of each shape in ``shapes``, in order. ``shapes`` is read
    at most one past the arrays, so a lazy one of an architecture too large
    to build is refused without being listed."""
    shapes = [tuple(shape) for shape in itertools.islice(shapes, len(values) + 1)]
    if len(shapes) != len(values):
        needs = len(shapes) if len(shapes) < len(values) else f"more than {len(values)}"
        raise ShapeError(f"{source}: checkpoint holds {len(values)} parameter arrays, architecture needs {needs}")
    for i, (shape, val) in enumerate(zip(shapes, values)):
        if val.shape != shape:
            raise ShapeError(f"{source}: parameter {i} has shape {val.shape}, architecture needs {shape}")


def copy_params(params, values, source) -> None:
    """Copy checkpoint arrays into a model's parameters, in place, after
    :func:`check_shapes` of the parameters' shapes."""
    check_shapes([p.shape for p in params], values, source)
    for p, val in zip(params, values):
        p[...] = val


def save_checkpoint(path, architecture: dict, params, meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": architecture,
        "meta": meta or {},
        "params": encode_params(params),
    }
    write_json(path, doc)


def load_checkpoint(path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a checkpoint must be a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ParameterError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ParameterError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    with reading(path):  # a missing key is a KeyError, and binascii.Error a ValueError
        if not (isinstance(doc["architecture"], dict) and isinstance(doc["meta"], dict)):
            raise DataFormatError(f"{path}: checkpoint architecture and meta must be objects")
        doc["params"] = decode_params(doc["params"])
    return doc
