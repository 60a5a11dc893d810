"""Joint-specific bidirectional LSTM surrogates for inverse/forward dynamics.

The inverse-dynamics (ID) model reads all joint-angle channels and predicts
one joint's torque per frame; the forward-dynamics (FD) model reads all
torque channels and predicts one joint's angle. Both kinds are one
:class:`BiLstmModel` with one output, (T, B, n_in) -> (T, B), built, fed
(:func:`make_samples`) and trained (:func:`train_dyn`) the same way. Both
use the same stack: bidirectional LSTM layers whose per-frame output is the
concatenation of the forward and backward hidden states (linear on the
first layer, relu on the rest), closed by a linear dense head.

Training runs one model at a time through :meth:`BiLstmModel.forward`, which
keeps the gate and cell-state caches BPTT needs. Each layer's two cells
write their hidden states into the layer output, whose halves are their
caches, and :meth:`BiLstmModel.backward` works in place on the gradients it
makes: each layer's backward overwrites the ``dy`` it is given
(:class:`BiLstmLayer`). Inference and the initial loss :func:`train_dyn`
logs run through :class:`BiLstmBank`: the forward and backward cells of N
models of one architecture are stacked on a leading axis of size K = 2N, so
one Python loop over time per layer steps every model and both directions
with one batched matmul, whose (K, B, 4H) rows each step adds to its
projection's into lane-major (4, K, B, H) gate lanes. The bank
keeps no caches and allocates nothing per step; per :data:`BANK_CHUNK`
steps it projects the input, and per :data:`BANK_CHUNK` rows of h (steps
times batch) it stages h and copies it in bulk into one (N, T, B, 2H) layer
output. Its result is (N, T, B); :meth:`BiLstmModel.predict_sequence` is
the N = 1, B = 1 case.

Inputs and targets are min-max normalized to [0,1], and training minimizes
the per-frame MSE of the normalized target.

Training is mixed-precision (Micikevicius et al. 2018): :func:`train_dyn`
feeds every forward pass float32 windows, so the training forward, its
caches and BPTT run in float32 (see :mod:`nncore`), and so does the bank's
forward-only pass behind the initial loss it logs. The MSE and its
reduction, Adam, the master weights and the checkpoints stay float64.
:func:`train_dyn` takes the initial loss itself, before any training batch,
in bank passes over chunks of :data:`ENTRY0_CHUNK_BATCHES` training
batches: fewer, larger passes, within a training batch's memory peak. All
inference is float64: the bank computes in its input's float dtype, and
``apply-fatigue`` and :meth:`BiLstmModel.predict_sequence` feed it float64,
as the gradchecks feed the models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .errors import DataFormatError, ParameterError, ShapeError, reading
from .nncore import DenseLayer, LstmCell, TrainConfig, gate_views, lstm_gates, sigmoid_lanes_negated
from .sequences import NormalizationParams


@dataclass(frozen=True)
class BiLstmSpec:
    """Architecture knobs: layer count and per-direction hidden width."""

    n_layers: int = 5
    hidden: int = 128

    def __post_init__(self):
        if self.n_layers < 1 or self.hidden < 1:
            raise ParameterError("n_layers and hidden must be >= 1")


DESK_SPEC = BiLstmSpec(n_layers=2, hidden=32)

# Training recipe validated for the desk-scale oracle dataset (20 trials x
# 200 frames): windowed slices defeat whole-trial memorization, and the
# plateau decay settles Adam once the loss stops improving.
DESK_WINDOW = 96
DESK_WINDOW_STRIDE = 2

# Training batches per chunk of train_dyn's entry-0 bank passes:
# chunks of two (64 windows at the desk batch size) took a desk pass 0.76 of
# the time one-batch chunks took, at a tracemalloc peak of 11.9 MB against a
# training batch's 14.8 MB (float32, T 96, 848 windows, one BLAS thread).
ENTRY0_CHUNK_BATCHES = 2

# Time steps the inference bank projects at once, and rows of h (steps times
# batch, at least one step) it stages at once: it bounds the bank's
# (K, chunk * B, 4H) projection buffer and (steps, K, B, H) hidden-state stage.
BANK_CHUNK = 128


def desk_train_config(epochs: int, lr: float) -> TrainConfig:
    return TrainConfig(
        batch_size=32,
        lr=lr,
        epochs=epochs,
        patience=8,
        min_delta=1e-7,
        lr_decay=0.6,
        decay_patience=3,
    )


class BiLstmLayer:
    """One bidirectional layer: forward cell runs t=1..T, backward cell t=T..1;
    per-frame output is act([h_fwd_t ; h_bwd_t]), act linear or relu.

    :meth:`forward` allocates the (T, B, 2H) layer output once: the forward
    cell writes its hidden states into the first half and the backward cell
    into the second half, reversed in time, so the cells' caches are views
    of it. A linear layer returns that array; a relu layer returns a new
    one and caches the pre-activation. :meth:`backward` overwrites ``dy``:
    a relu layer masks it in place with ``out > 0`` (a linear layer passes
    it through, dy * 1.0 being dy), and the backward cell's dx is added into
    the forward cell's.
    """

    def __init__(self, n_in: int, n_hidden: int, activation: str, rng):
        if activation not in ("linear", "relu"):
            raise ParameterError(f"a bidirectional layer is linear or relu, got {activation!r}")
        self.fwd = LstmCell(n_in, n_hidden, rng)
        self.bwd = LstmCell(n_in, n_hidden, rng)
        self.activation = activation
        self.n_out = 2 * n_hidden

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def forward(self, x: np.ndarray):
        x = nncore.as_float(x)
        h = self.fwd.n_hidden
        out = np.empty((*x.shape[:2], 2 * h), x.dtype)
        _, cache_f = self.fwd.forward(x, out[:, :, :h])
        _, cache_b = self.bwd.forward(x[::-1], out[::-1, :, h:])
        y = out if self.activation == "linear" else np.maximum(out, 0.0)
        return y, (cache_f, cache_b, out)

    def backward(self, cache, dy: np.ndarray):
        cache_f, cache_b, out = cache
        if self.activation == "relu":
            np.multiply(dy, out > 0, out=dy)
        h = self.fwd.n_hidden
        dx, grads_f = self.fwd.backward(cache_f, dy[:, :, :h])
        dx_b, grads_b = self.bwd.backward(cache_b, dy[::-1, :, h:])
        dx += dx_b[::-1]
        return dx, grads_f + grads_b


class BiLstmModel:
    """Stacked bidirectional layers plus a per-frame linear head with one output."""

    def __init__(self, n_in: int, spec: BiLstmSpec, kind: str | None = None, seed: int = 0):
        if n_in < 1:
            raise ParameterError(f"n_in must be >= 1, got {n_in}")
        rng = np.random.default_rng(seed)
        self.n_in = n_in
        self.spec = spec
        self.kind = kind
        self.seed = seed
        self.layers = []
        width = n_in
        for i in range(spec.n_layers):
            act = "linear" if i == 0 else "relu"
            layer = BiLstmLayer(width, spec.hidden, act, rng)
            self.layers.append(layer)
            width = layer.n_out
        self.head = DenseLayer(width, 1, rng)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.head.params())
        return out

    def forward(self, x: np.ndarray):
        """x: (T, B, n_in) -> (T, B) with cache for backprop, in x's
        float dtype (:func:`nncore.as_float`)."""
        x = nncore.as_float(x)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"model expects (T, B, {self.n_in}), got {x.shape}")
        if x.shape[0] < 1:
            raise ShapeError("empty sequence")
        caches = []
        for layer in self.layers:
            x, c = layer.forward(x)
            caches.append(c)
        t_len, batch, width = x.shape
        y_flat, head_cache = self.head.forward(x.reshape(t_len * batch, width))
        nncore.ensure_finite("bilstm forward", y_flat)
        return y_flat.reshape(t_len, batch), (caches, head_cache, (t_len, batch, width))

    def backward(self, cache, dy: np.ndarray):
        caches, head_cache, (t_len, batch, width) = cache
        head_grads, dflat = self.head.backward(head_cache, dy.reshape(t_len * batch, 1))
        dx = dflat.reshape(t_len, batch, width)
        grads = head_grads
        for layer, c in zip(reversed(self.layers), reversed(caches)):
            dx, layer_grads = layer.backward(c, dx)
            grads = layer_grads + grads
        return grads, dx

    def predict_sequence(self, frames: np.ndarray) -> np.ndarray:
        """Normalized (T, n_in) frames -> (T,) trace."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 2 or frames.shape[1] != self.n_in:
            raise ShapeError(f"expected (T, {self.n_in}) frames, got {frames.shape}")
        return BiLstmBank([self]).forward(frames[:, None, :])[0, :, 0]


def _architecture(model: BiLstmModel) -> tuple[int, int, int]:
    """(n_in, n_layers, hidden): models with equal tuples can share a bank."""
    return (model.n_in, model.spec.n_layers, model.spec.hidden)


class BiLstmBank:
    """N models of one architecture stacked for cache-free inference.

    Per layer, the Wx, Wh and b of the N forward cells and then the N
    backward cells are stacked on a leading axis of size K = 2N. One loop
    over time steps all K cells with one batched matmul of the (K, B, H)
    hidden states into (K, B, 4H) rows; one add of the transposed views of
    those rows and of the step's projection fills lane-major (4, K, B, H)
    gates, so :func:`nncore.lstm_gates` steps contiguous lanes, the sigmoid
    over i, f and o only, with the row-wise step's bits. c is updated in
    place and each h written to a stage of :data:`BANK_CHUNK` rows (steps
    times B, at least one step; 131 KB in float64 at K = 4, H = 32) that the
    next step's matmul reads. Each time the stage fills, two bulk copies
    move the forward rows to the layer output's first half and the backward
    rows, reversed, to its second half at the mirrored steps; a stage
    bounded in rows stays in cache at any B.
    The weights are copied at construction, so a bank reflects its models'
    parameters at that moment; the i, f and o columns of the copies are
    negated once (:func:`nncore.sigmoid_lanes_negated`), as
    :func:`nncore.lstm_gates` reads those pre-activations as -z.

    The bank computes in its input's float dtype (:func:`nncore.as_float`):
    the float64 weights are cast once per layer per call, a no-op for
    float64. :func:`train_dyn`'s initial loss feeds it float32 windows; all
    inference feeds it float64. Its batched matmul may take another BLAS
    kernel than :meth:`BiLstmModel.forward`, so at small B the two differ
    by a few ulps of the dtype.
    """

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ParameterError("a bank needs at least one model")
        arch = _architecture(models[0])
        if any(_architecture(m) != arch for m in models):
            raise ShapeError("bank models must share (n_in, n_layers, hidden)")
        self.n_models = len(models)
        self.n_in, _, self.hidden = arch
        self.layers = []
        for i, layer in enumerate(models[0].layers):
            cells = [m.layers[i].fwd for m in models] + [m.layers[i].bwd for m in models]
            # np.stack keeps each transposed weight's layout, and the bank's
            # batched matmuls take the BLAS kernels that layout gives
            wx_t = np.stack([cell.Wx.T for cell in cells])       # (K, width, 4H)
            wh_t = np.stack([cell.Wh.T for cell in cells])       # (K, H, 4H)
            b = np.stack([cell.b for cell in cells])[:, None, :]  # (K, 1, 4H)
            self.layers.append((*(sigmoid_lanes_negated(w, np.float64, order="K") for w in (wx_t, wh_t, b)),
                                layer.activation))
        self.head_w_t = np.stack([m.head.W.T for m in models])  # (N, 2H, 1)
        self.head_b = np.stack([m.head.b for m in models])[:, None, :]  # (N, 1, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x: (T, B, n_in), shared by every model -> (N, T, B), one trace per model."""
        x = nncore.as_float(x)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"bank expects (T, B, {self.n_in}), got {x.shape}")
        if x.shape[0] < 1:
            raise ShapeError("empty sequence")
        dtype = x.dtype
        out = x
        for wx_t, wh_t, b, activation in self.layers:
            out = self._layer(out, *(w.astype(dtype, copy=False) for w in (wx_t, wh_t, b)))
            if activation == "relu":  # else linear, the first layer
                np.maximum(out, 0.0, out=out)
        n, t_len, batch, width = out.shape
        y = (np.matmul(out.reshape(n, t_len * batch, width), self.head_w_t.astype(dtype, copy=False))
             + self.head_b.astype(dtype, copy=False))
        nncore.ensure_finite("bilstm bank forward", y)
        return y.reshape(n, t_len, batch)

    def _layer(self, inp, wx_t, wh_t, b) -> np.ndarray:
        """One bidirectional layer for all N models: (N, T, B, 2H).

        ``inp`` is the shared (T, B, width) model input on the first layer
        and the previous layer's (N, T, B, 2H) output after it; the weights
        are already in its dtype, and so is every buffer and the output.
        """
        n, hdim, dtype = self.n_models, self.hidden, inp.dtype
        k = 2 * n
        *lead, t_len, batch, width = inp.shape  # lead: [] for the shared input, [N] after
        out = np.empty((n, t_len, batch, 2 * hdim), dtype)
        chunk = min(BANK_CHUNK, t_len)
        staged = min(chunk, max(1, BANK_CHUNK // batch))  # steps per stage fill
        zx = np.empty((k, chunk * batch, 4 * hdim), dtype)
        z = np.empty((k, batch, 4 * hdim), dtype)
        # (chunk, 4, K, B, H) and (4, K, B, H) lane-major views of the row buffers
        zx_lanes = zx.reshape(k, chunk, batch, 4, hdim).transpose(1, 3, 0, 2, 4)
        z_lanes = z.reshape(k, batch, 4, hdim).transpose(2, 0, 1, 3)
        lanes = np.empty((4, k, batch, hdim), dtype)
        views = gate_views(lanes, np.empty_like(lanes))
        stage = np.empty((staged, k, batch, hdim), dtype)
        h, c = np.zeros((2, k, batch, hdim), dtype)
        for s0 in range(0, t_len, chunk):
            s1 = min(s0 + chunk, t_len)
            rows = (s1 - s0) * batch
            # Forward cells read steps s0..s1-1, backward cells the mirrored
            # steps T-1-s0 down to T-s1.
            x_f = inp[..., s0:s1, :, :].reshape(*lead, rows, width)
            x_b = inp[..., t_len - s1 : t_len - s0, :, :][..., ::-1, :, :].reshape(*lead, rows, width)
            np.matmul(x_f, wx_t[:n], out=zx[:n, :rows])
            np.matmul(x_b, wx_t[n:], out=zx[n:, :rows])
            zx[:, :rows] += b
            for a0 in range(s0, s1, staged):
                a1 = min(a0 + staged, s1)
                m = a1 - a0
                for j in range(m):
                    np.matmul(h, wh_t, out=z)
                    np.add(z_lanes, zx_lanes[a0 - s0 + j], out=lanes)
                    h = stage[j]
                    lstm_gates(views, c, c, h)
                out[:, a0:a1, :, :hdim] = stage[:m, :n].swapaxes(0, 1)
                out[:, t_len - a1 : t_len - a0, :, hdim:] = stage[m - 1 :: -1, n:].swapaxes(0, 1)
        return out


def predict_models(models, x: np.ndarray) -> np.ndarray:
    """Every model on the shared input x (T, B, n_in) -> (N, T, B).

    Models of one architecture share a bank, so a mixed set runs one bank
    per architecture.
    """
    models = list(models)
    if not models:
        raise ParameterError("no models to run")
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(models):
        groups.setdefault(_architecture(m), []).append(i)
    parts = [(idx, BiLstmBank([models[i] for i in idx]).forward(x)) for idx in groups.values()]
    out = np.empty((len(models),) + parts[0][1].shape[1:])
    for idx, y in parts:
        out[idx] = y
    return out


# --- training ---------------------------------------------------------------

@dataclass
class SurrogateSample:
    """One trial for one joint-specific model: normalized input and target."""

    x: np.ndarray  # (T, n_joints) normalized input
    y: np.ndarray  # (T,) normalized target channel


def model_io(kind: str, angles, torques):
    """(input, target) of a surrogate kind: angles -> torques for ID, the reverse for FD."""
    if kind == "id":
        return angles, torques
    if kind == "fd":
        return torques, angles
    raise ParameterError(f"kind must be 'id' or 'fd', got {kind!r}")


def make_samples(trials, kind: str, joint_index: int, angle_norm: NormalizationParams,
                 torque_norm: NormalizationParams) -> list[SurrogateSample]:
    """Training samples of the ``kind`` model for one joint: every channel in,
    the joint's channel out, both normalized."""
    input_norm, target_norm = model_io(kind, angle_norm, torque_norm)
    samples = []
    for tr in trials:
        x, y = model_io(kind, tr.motion, tr.torque)
        samples.append(SurrogateSample(x=input_norm.apply(x.frames),
                                       y=target_norm.apply(y.frames)[:, joint_index]))
    return samples


def window_offsets(t_len: int, window: int, window_stride: int) -> tuple[int, list[int]]:
    """(window length, start offsets) of the training slices of one t_len-frame
    trial; a window at least t_len long is the whole trial. A stride below 1
    is refused at any trial length."""
    if window_stride < 1:
        raise ParameterError(f"window stride must be >= 1, got {window_stride}")
    if window >= t_len:
        return t_len, [0]
    if window < 2:
        raise ParameterError(f"window must be >= 2, got {window}")
    return window, list(range(0, t_len - window + 1, window_stride))


def train_dyn(model: BiLstmModel, train_samples, config: TrainConfig,
              window: int, window_stride: int = 1):
    """Minimize the per-frame MSE of the normalized target.

    Training samples are ``window``-frame slices taken every ``window_stride``
    frames of every trial, or whole trials no longer than ``window``
    (inference still runs whole sequences): the small-data regime's guard
    against whole-trial memorization. Early stopping and best-weight restore
    follow the training loss. Each training batch runs forward and BPTT in
    float32; its MSE, the gradient of that MSE (cast to float32 for BPTT) and
    the weight update are float64. Returns (model, history); history entries
    carry epoch and train_loss, the MSE. Entry 0 holds it for the untrained
    model over every window: the float64 MSE, reduced once, of float32 bank
    passes over chunks of :data:`ENTRY0_CHUNK_BATCHES` training batches,
    freed before :func:`nncore.train_loop` runs the first. It steers nothing
    (early stopping starts from an infinite best loss), so the weights and
    later entries do not depend on it.
    """
    if not train_samples:
        raise ParameterError("empty dataset")
    train_samples = list(train_samples)
    if any(s.x.shape[0] != train_samples[0].x.shape[0] for s in train_samples):
        raise ShapeError("all training trials must share the same length")

    window, offsets = window_offsets(train_samples[0].x.shape[0], window, window_stride)
    table = [(i, off) for i in range(len(train_samples)) for off in offsets]
    xs = np.stack([s.x for s in train_samples], axis=0)
    ys = np.stack([s.y for s in train_samples], axis=0)

    def windows(idx):  # float32 inputs (T, n, n_in) and float64 targets (T, n)
        rows = [table[k] for k in idx]
        return (np.stack([xs[i, off : off + window] for i, off in rows], axis=1, dtype=np.float32),
                np.stack([ys[i, off : off + window] for i, off in rows], axis=1))

    def loss_fn(m, idx):
        x, y = windows(idx)
        pred, cache = m.forward(x)
        loss, dy = nncore.mse(pred, y)
        grads, _ = m.backward(cache, dy.astype(np.float32))
        return loss, grads

    def initial_loss():  # its windows, bank and predictions are freed on return
        x, y = windows(range(len(table)))
        bank, step = BiLstmBank([model]), ENTRY0_CHUNK_BATCHES * config.batch_size
        pred = np.concatenate([bank.forward(x[:, s : s + step])[0] for s in range(0, len(table), step)], axis=1)
        return nncore.mse(pred, y)[0]

    entry0 = {"epoch": 0, "train_loss": initial_loss()}
    return model, [entry0, *nncore.train_loop(model, len(table), loss_fn, config)]


# --- checkpoints --------------------------------------------------------------

def save_model(path, model: BiLstmModel, joint: str, input_norm: NormalizationParams,
               target_norm: NormalizationParams, tau_max: float) -> None:
    """A checkpoint of ``model`` and its meta; the architecture records ``"n_out": 1``."""
    meta = {"joint": joint, "input_norm": input_norm.to_dict(),
            "target_norm": target_norm.to_dict(), "tau_max": tau_max}
    architecture = {
        "model": "bilstm",
        "kind": model.kind,
        "n_in": model.n_in,
        "n_out": 1,
        "n_layers": model.spec.n_layers,
        "hidden": model.spec.hidden,
        "seed": model.seed,
    }
    nncore.save_checkpoint(path, architecture, model.params(), meta)


def param_shapes(n_in: int, spec: BiLstmSpec):
    """The shapes of ``BiLstmModel(n_in, spec).params()``, in order, lazily:
    each layer's forward and backward cell's Wx, Wh and b, then the head's W and b."""
    width, h4 = n_in, 4 * spec.hidden
    for _ in range(spec.n_layers):
        yield from [(h4, width), (h4, spec.hidden), (h4,)] * 2
        width = 2 * spec.hidden
    yield from [(1, width), (1,)]


def load_model(path) -> tuple[BiLstmModel, dict]:
    doc = nncore.load_checkpoint(path)
    arch = doc["architecture"]
    if arch.get("model") != "bilstm":
        raise ParameterError(f"{path}: not a bilstm checkpoint")
    with reading(path):
        n_in, n_out, n_layers, hidden = (arch[k] for k in ("n_in", "n_out", "n_layers", "hidden"))
    seed = arch.get("seed", 0)
    if not (all(type(v) is int for v in (n_in, n_layers, hidden, seed))
            and min(n_in, n_layers, hidden) >= 1 and seed >= 0):
        raise DataFormatError(f"{path}: n_in, n_layers and hidden must be integers >= 1, seed an integer >= 0")
    if type(n_out) is not int or n_out != 1:
        raise DataFormatError(f"{path}: a surrogate has one output, got n_out {n_out!r}")
    spec = BiLstmSpec(n_layers, hidden)
    # before the model is built: the architecture may claim more than memory holds
    nncore.check_shapes(param_shapes(n_in, spec), doc["params"], path)
    model = BiLstmModel(n_in, spec, kind=arch.get("kind"), seed=seed)
    nncore.copy_params(model.params(), doc["params"], path)
    return model, doc["meta"]
