"""Minimal differentiable-model kernel: dense stacks, LSTM cells, Adam.

Tensors are plain float64 numpy arrays. Gradients are exact reverse-mode,
including gradients of outputs with respect to inputs; the dense stack also
supports a forward input-tangent (directional derivative) whose reverse pass
yields parameter gradients of losses that contain the tangent itself. That
is what lets an ODE-residual loss differentiate a network output with
respect to its time input and still train by backprop.

Single-threaded training with a fixed seed is bit-reproducible; a trained
model is immutable for inference and safe to share.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError, ParameterError, ShapeError

CHECKPOINT_FORMAT = "fatiguemotion-checkpoint"
CHECKPOINT_VERSION = 1


# --- activations -------------------------------------------------------------

def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    raise ParameterError(f"unknown activation {name!r}")


def _act_d(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0).astype(float)
    if name == "tanh":
        return 1.0 - np.tanh(z) ** 2
    raise ParameterError(f"unknown activation {name!r}")


def _act_dd(name: str, z: np.ndarray) -> np.ndarray:
    # relu'' is zero a.e.; that is the correct gradient for piecewise-linear nets
    if name in ("linear", "relu"):
        return np.zeros_like(z)
    if name == "tanh":
        th = np.tanh(z)
        return -2.0 * th * (1.0 - th**2)
    raise ParameterError(f"unknown activation {name!r}")


def ensure_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericError(f"{name}: non-finite values encountered")


def glorot_uniform(n_out: int, n_in: int, rng) -> np.ndarray:
    lim = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-lim, lim, size=(n_out, n_in))


# --- dense layers -------------------------------------------------------------

class DenseLayer:
    """Fully connected layer y = act(x W^T + b), x of shape (B, n_in)."""

    def __init__(self, n_in: int, n_out: int, activation: str = "linear", rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        _act(activation, np.zeros(1))  # validate name
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.W = glorot_uniform(n_out, n_in, rng)
        self.b = np.zeros(n_out)

    def params(self):
        return [self.W, self.b]

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"dense layer expects width {self.n_in}, got {x.shape[-1]}")
        z = x @ self.W.T + self.b
        return _act(self.activation, z), (x, z)

    def backward(self, cache, gy: np.ndarray):
        x, z = cache
        gz = gy * _act_d(self.activation, z)
        gW = gz.T @ x
        gb = gz.sum(axis=0)
        gx = gz @ self.W
        return [gW, gb], gx


class Mlp:
    """Stack of dense layers; ``sizes`` = [n_in, h1, ..., n_out]."""

    def __init__(self, sizes, activations, rng=None):
        if len(activations) != len(sizes) - 1:
            raise ParameterError("need one activation per weight layer")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.sizes = list(sizes)
        self.layers = [
            DenseLayer(sizes[i], sizes[i + 1], activations[i], rng) for i in range(len(sizes) - 1)
        ]

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray):
        caches = []
        for i, layer in enumerate(self.layers):
            try:
                x, c = layer.forward(x)
            except ShapeError as exc:
                raise ShapeError(f"layer {i}: {exc}") from None
            caches.append(c)
        ensure_finite("mlp forward", x)
        return x, caches

    def backward(self, caches, gy: np.ndarray):
        grads: list[np.ndarray] = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            layer_grads, gy = layer.backward(cache, gy)
            grads = layer_grads + grads
        return grads, gy

    def forward_tangent(self, x: np.ndarray, v: np.ndarray):
        """Forward pass carrying an input tangent: returns (y, dy/dalpha, cache)
        where the tangent direction satisfies dx/dalpha = v."""
        a = np.asarray(x, dtype=float)
        adot = np.broadcast_to(np.asarray(v, dtype=float), a.shape).copy()
        caches = []
        for layer in self.layers:
            z = a @ layer.W.T + layer.b
            zdot = adot @ layer.W.T
            caches.append((a, adot, z, zdot))
            a = _act(layer.activation, z)
            adot = _act_d(layer.activation, z) * zdot
        ensure_finite("mlp tangent forward", a, adot)
        return a, adot, caches

    def backward_tangent(self, caches, gy: np.ndarray, gydot: np.ndarray):
        """Reverse pass through :meth:`forward_tangent`: parameter gradients of a
        loss L(y, ydot). Needs the activation's second derivative, which is
        zero a.e. for relu."""
        ga = np.asarray(gy, dtype=float)
        gadot = np.asarray(gydot, dtype=float)
        grads: list[np.ndarray] = []
        for layer, (a_in, adot_in, z, zdot) in zip(reversed(self.layers), reversed(caches)):
            d = _act_d(layer.activation, z)
            dd = _act_dd(layer.activation, z)
            gz = ga * d + gadot * dd * zdot
            gzdot = gadot * d
            gW = gz.T @ a_in + gzdot.T @ adot_in
            gb = gz.sum(axis=0)
            ga = gz @ layer.W
            gadot = gzdot @ layer.W
            grads = [gW, gb] + grads
        return grads


# --- LSTM cell ---------------------------------------------------------------

class LstmCell:
    """Standard LSTM (input/forget/candidate/output gates) over (T, B, D) input.

    Gate pre-activations are packed as [i, f, o, g] rows of Wx/Wh so the three
    sigmoid gates evaluate in one call. The input projection for all
    timesteps is computed in one matmul; only the hidden recurrence loops
    over time. :meth:`forward` keeps the gates and cell states that BPTT
    needs, so it is the training path. Inference runs cells through
    ``surrogates.BiLstmBank``, which stacks many cells on a leading axis,
    keeps no caches and shares the per-step gate math (:func:`lstm_gates`).
    """

    def __init__(self, n_in: int, n_hidden: int, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.Wx = glorot_uniform(4 * n_hidden, n_in, rng)
        self.Wh = glorot_uniform(4 * n_hidden, n_hidden, rng)
        self.b = np.zeros(4 * n_hidden)

    def params(self):
        return [self.Wx, self.Wh, self.b]

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"lstm expects (T, B, {self.n_in}), got {x.shape}")
        t_len, batch, _ = x.shape
        hdim = self.n_hidden
        zx = x @ self.Wx.T + self.b
        gates = np.empty((t_len, batch, 4 * hdim))
        cs = np.empty((t_len, batch, hdim))
        hs = np.empty((t_len, batch, hdim))
        h = np.zeros((batch, hdim))
        c = np.zeros((batch, hdim))
        for t in range(t_len):
            z = zx[t] + h @ self.Wh.T
            c, h = lstm_gates(z, c, gates[t], hdim)
            cs[t] = c
            hs[t] = h
        return hs, (x, gates, cs, hs)

    def backward(self, cache, dh_seq: np.ndarray):
        """BPTT: gradients of a loss given d(loss)/d(h_t) for every t."""
        x, gates, cs, hs = cache
        t_len, batch, _ = x.shape
        hdim = self.n_hidden
        dz_all = np.empty((t_len, batch, 4 * hdim))
        dh_next = np.zeros((batch, hdim))
        dc_next = np.zeros((batch, hdim))
        for t in range(t_len - 1, -1, -1):
            gate = gates[t]
            i = gate[:, :hdim]
            f = gate[:, hdim : 2 * hdim]
            o = gate[:, 2 * hdim : 3 * hdim]
            g = gate[:, 3 * hdim :]
            c_prev = cs[t - 1] if t > 0 else 0.0
            tanh_c = np.tanh(cs[t])
            dh = dh_seq[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            dz = dz_all[t]
            dz[:, :hdim] = (dc * g) * i * (1.0 - i)
            dz[:, hdim : 2 * hdim] = (dc * c_prev) * f * (1.0 - f)
            dz[:, 2 * hdim : 3 * hdim] = (dh * tanh_c) * o * (1.0 - o)
            dz[:, 3 * hdim :] = (dc * i) * (1.0 - g**2)
            dh_next = dz @ self.Wh
            dc_next = dc * f
        h_prev = np.concatenate([np.zeros((1, batch, hdim)), hs[:-1]], axis=0)
        flat_dz = dz_all.reshape(-1, 4 * hdim)
        dWx = flat_dz.T @ x.reshape(-1, self.n_in)
        dWh = flat_dz.T @ h_prev.reshape(-1, hdim)
        db = flat_dz.sum(axis=0)
        dx = dz_all @ self.Wx
        return dx, [dWx, dWh, db]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def lstm_gates(z: np.ndarray, c: np.ndarray, gate: np.ndarray, hdim: int):
    """One LSTM step from pre-activations z (..., 4H) and cell state c (..., H).

    Writes the activated [i, f, o, g] gates into ``gate`` and returns the new
    (c, h). Leading axes are free, so one call steps a single cell (B, 4H) or
    a stack of cells (K, B, 4H) alike.
    """
    gate[..., : 3 * hdim] = _sigmoid(z[..., : 3 * hdim])
    gate[..., 3 * hdim :] = np.tanh(z[..., 3 * hdim :])
    c = gate[..., :hdim] * gate[..., 3 * hdim :] + gate[..., hdim : 2 * hdim] * c
    h = gate[..., 2 * hdim : 3 * hdim] * np.tanh(c)
    return c, h


# --- losses -------------------------------------------------------------------

def mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient with respect to pred."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    diff = pred - target
    return float(np.mean(diff**2)), (2.0 / diff.size) * diff


# --- optimizer ----------------------------------------------------------------

class Adam:
    """Adam with bias correction; updates parameter arrays in place."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        if len(params) != len(self.m):
            raise ShapeError("parameter list does not match optimizer state")
        for g in grads:
            if not np.isfinite(g).all():
                raise NumericError("adam: NaN/Inf gradient, training aborted")
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


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
    # Optional plateau schedule: multiply lr by lr_decay after decay_patience
    # epochs without improvement (0 disables).
    lr_decay: float = 1.0
    decay_patience: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ParameterError(
                f"epochs, batch_size and patience must be >= 1, got {self.epochs}, "
                f"{self.batch_size} and {self.patience}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"learning rate must be finite and > 0, got {self.lr}")
        if not 0 < self.lr_decay <= 1:
            raise ParameterError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.decay_patience < 0:
            raise ParameterError(f"decay_patience must be >= 0, got {self.decay_patience}")


def train_loop(model, n_samples: int, loss_fn, config: TrainConfig, epoch_log_fn=None):
    """Seeded mini-batch Adam with early stopping and best-weight restore.

    ``loss_fn(model, idx, grad=True)`` returns (loss, grads aligned with
    model.params()) for the sample indices ``idx``; with ``grad=False`` it
    returns (loss, None) from a forward-only pass, which runs no backward and
    keeps no more in memory than a training batch needs. Early stopping, the
    plateau decay and the restored best weights all follow the epoch's mean
    training loss. ``epoch_log_fn(model)`` may add extra fields to each
    history entry. Returns (model, history); history has one entry per epoch,
    plus entry 0: the loss over all ``n_samples`` at the initial weights,
    computed forward-only (no gradients).
    """
    if n_samples < 1:
        raise ParameterError("empty dataset")
    params = model.params()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    def evaluate() -> dict:
        return epoch_log_fn(model) if epoch_log_fn is not None else {}

    initial_loss, _ = loss_fn(model, np.arange(n_samples), grad=False)
    history = [{"epoch": 0, "train_loss": float(initial_loss), **evaluate()}]
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
        entry = {"epoch": epoch, "train_loss": float(np.mean(batch_losses)), **evaluate()}
        history.append(entry)
        if entry["train_loss"] < best_loss - config.min_delta:
            best_loss = entry["train_loss"]
            best_params = [p.copy() for p in params]
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
            if config.decay_patience > 0 and stall % config.decay_patience == 0:
                opt.lr *= config.lr_decay
    if best_params is not None:
        for p, bp in zip(params, best_params):
            p[...] = bp
    return model, history


# --- checkpoints -----------------------------------------------------------------

def encode_params(params) -> dict:
    blob = b"".join(np.ascontiguousarray(p, dtype=np.float64).tobytes() for p in params)
    return {
        "dtype": "float64",
        "shapes": [list(p.shape) for p in params],
        "blob_b64": base64.b64encode(blob).decode("ascii"),
    }


def decode_params(enc: dict):
    flat = np.frombuffer(base64.b64decode(enc["blob_b64"]), dtype=np.float64)
    out = []
    offset = 0
    for shape in enc["shapes"]:
        size = int(np.prod(shape)) if shape else 1
        out.append(flat[offset : offset + size].reshape(shape).copy())
        offset += size
    if offset != flat.size:
        raise ParameterError("parameter blob size does not match shapes")
    return out


def assign_params(params, values, source) -> None:
    """Copy checkpoint arrays into a model's parameters, in place.

    The checkpoint must hold exactly one array per parameter, each of the
    parameter's shape; anything else raises ShapeError naming ``source``.
    """
    if len(values) != len(params):
        raise ShapeError(
            f"{source}: checkpoint holds {len(values)} parameter arrays, architecture needs {len(params)}"
        )
    for i, (p, val) in enumerate(zip(params, values)):
        if p.shape != val.shape:
            raise ShapeError(
                f"{source}: parameter {i} has shape {val.shape}, architecture needs {p.shape}"
            )
        p[...] = val


def save_checkpoint(path, architecture: dict, params, meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": architecture,
        "meta": meta or {},
        "params": encode_params(params),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ParameterError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ParameterError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    missing = [k for k in ("architecture", "meta", "params") if k not in doc]
    if missing:
        raise DataFormatError(f"{path}: checkpoint lacks {', '.join(missing)}")
    doc["params"] = decode_params(doc["params"])
    return doc


def architecture_fields(path, arch: dict, keys) -> list:
    """Values of ``keys`` in a checkpoint's architecture, in order; a missing
    key raises DataFormatError naming ``path``."""
    missing = [k for k in keys if k not in arch]
    if missing:
        raise DataFormatError(f"{path}: checkpoint architecture lacks {', '.join(missing)}")
    return [arch[k] for k in keys]
