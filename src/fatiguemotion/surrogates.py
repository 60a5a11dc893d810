"""Joint-specific bidirectional LSTM surrogates for inverse/forward dynamics.

The inverse-dynamics (ID) model reads all joint-angle channels and predicts
one joint's torque per frame; the forward-dynamics (FD) model reads all
torque channels and predicts one joint's angle. Both kinds are one
:class:`BiLstmModel` with a single output, built, fed (:func:`make_samples`)
and trained (:func:`train_dyn`) the same way. Both use the same stack:
bidirectional LSTM layers whose per-frame output is the concatenation of the
forward and backward hidden states (linear on the first layer, relu on the
rest), closed by a linear dense head.

Training runs one model at a time through :meth:`BiLstmModel.forward`, which
keeps the gate and cell-state caches BPTT needs. Inference runs through
:class:`BiLstmBank`: the forward and backward cells of N models of one
architecture are stacked on a leading axis of size K = 2N, so one Python loop
over time per layer steps every joint-specific model and both directions with
one batched matmul. The bank keeps no caches; it projects the input in
chunks of :data:`BANK_CHUNK` steps and writes each layer into one
preallocated (N, T, B, 2H) output. :meth:`BiLstmModel.predict_sequence` is
the N = 1 case.

Inputs and targets are min-max normalized to [0,1]. The optional physics
term for ID training penalizes the squared equation-of-motion residual of
the prediction mapped back to N*m, using exact analytic
velocities/accelerations from the trajectory generator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arm as armdyn
from . import nncore
from .errors import ParameterError, ShapeError, UnsupportedModeError
from .nncore import DenseLayer, LstmCell, TrainConfig, _act, _act_d, lstm_gates
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

# Time steps whose input projection the inference bank computes at once: it
# bounds the (K, chunk * B, 4H) projection buffer for long sequences.
BANK_CHUNK = 128


def desk_train_config(seed: int = 0, epochs: int = 30) -> TrainConfig:
    return TrainConfig(
        batch_size=32,
        lr=2e-3,
        epochs=epochs,
        patience=8,
        min_delta=1e-7,
        seed=seed,
        lr_decay=0.6,
        decay_patience=3,
    )


class BiLstmLayer:
    """One bidirectional layer: forward cell runs t=1..T, backward cell t=T..1;
    per-frame output is act([h_fwd_t ; h_bwd_t])."""

    def __init__(self, n_in: int, n_hidden: int, activation: str, rng):
        self.fwd = LstmCell(n_in, n_hidden, rng)
        self.bwd = LstmCell(n_in, n_hidden, rng)
        self.activation = activation
        self.n_in = n_in
        self.n_out = 2 * n_hidden

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def forward(self, x: np.ndarray):
        h_f, cache_f = self.fwd.forward(x)
        h_b_rev, cache_b = self.bwd.forward(x[::-1])
        concat = np.concatenate([h_f, h_b_rev[::-1]], axis=2)
        return _act(self.activation, concat), (cache_f, cache_b, concat)

    def backward(self, cache, dy: np.ndarray):
        cache_f, cache_b, concat = cache
        dconcat = dy * _act_d(self.activation, concat)
        h = self.fwd.n_hidden
        dx_f, grads_f = self.fwd.backward(cache_f, dconcat[:, :, :h])
        dx_b, grads_b = self.bwd.backward(cache_b, dconcat[::-1, :, h:])
        return dx_f + dx_b[::-1], grads_f + grads_b


class BiLstmModel:
    """Stacked bidirectional layers plus a per-frame linear head."""

    def __init__(self, n_in: int, n_out: int, spec: BiLstmSpec, kind: str | None = None, seed: int = 0):
        if n_in < 1 or n_out < 1:
            raise ParameterError(f"n_in and n_out must be >= 1, got {n_in} and {n_out}")
        rng = np.random.default_rng(seed)
        self.n_in = n_in
        self.n_out = n_out
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
        self.head = DenseLayer(width, n_out, "linear", rng)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.head.params())
        return out

    def n_params(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, x: np.ndarray):
        """x: (T, B, n_in) -> (T, B, n_out) with cache for backprop."""
        x = np.asarray(x, dtype=float)
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
        return y_flat.reshape(t_len, batch, self.n_out), (caches, head_cache, (t_len, batch, width))

    def backward(self, cache, dy: np.ndarray):
        caches, head_cache, (t_len, batch, width) = cache
        head_grads, dflat = self.head.backward(head_cache, dy.reshape(t_len * batch, self.n_out))
        dx = dflat.reshape(t_len, batch, width)
        grads = head_grads
        for layer, c in zip(reversed(self.layers), reversed(caches)):
            dx, layer_grads = layer.backward(c, dx)
            grads = layer_grads + grads
        return grads, dx

    def predict_sequence(self, frames: np.ndarray) -> np.ndarray:
        """Normalized (T, n_in) frames -> (T,) trace (or (T, n_out) if wider)."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 2 or frames.shape[1] != self.n_in:
            raise ShapeError(f"expected (T, {self.n_in}) frames, got {frames.shape}")
        y = BiLstmBank([self]).forward(frames[:, None, :])[0, :, 0, :]
        return y[:, 0] if self.n_out == 1 else y


def _architecture(model: BiLstmModel) -> tuple[int, int, int, int]:
    """(n_in, n_out, n_layers, hidden): models with equal tuples can share a bank."""
    return (model.n_in, model.n_out, model.spec.n_layers, model.spec.hidden)


class BiLstmBank:
    """N models of one architecture stacked for cache-free inference.

    Per layer, the Wx, Wh and b of the N forward cells and then the N
    backward cells are stacked on a leading axis of size K = 2N. One loop
    over time steps all K cells with one batched matmul of the (K, B, H)
    hidden states. Backward cells read the input through a reversed slice
    and write their state straight into the second half of the layer output
    at the mirrored time index. The weights are copied at construction, so
    a bank reflects its models' parameters at that moment.
    """

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ParameterError("a bank needs at least one model")
        arch = _architecture(models[0])
        if any(_architecture(m) != arch for m in models):
            raise ShapeError("bank models must share (n_in, n_out, n_layers, hidden)")
        self.n_models = len(models)
        self.n_in, self.n_out, _, self.hidden = arch
        self.layers = []
        for i, layer in enumerate(models[0].layers):
            cells = [m.layers[i].fwd for m in models] + [m.layers[i].bwd for m in models]
            wx_t = np.stack([cell.Wx.T for cell in cells])       # (K, width, 4H)
            wh_t = np.stack([cell.Wh.T for cell in cells])       # (K, H, 4H)
            b = np.stack([cell.b for cell in cells])[:, None, :]  # (K, 1, 4H)
            self.layers.append((wx_t, wh_t, b, layer.activation))
        self.head_w_t = np.stack([m.head.W.T for m in models])  # (N, 2H, n_out)
        self.head_b = np.stack([m.head.b for m in models])[:, None, :]  # (N, 1, n_out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x: (T, B, n_in), shared by every model -> (N, T, B, n_out)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"bank expects (T, B, {self.n_in}), got {x.shape}")
        if x.shape[0] < 1:
            raise ShapeError("empty sequence")
        out = x
        for wx_t, wh_t, b, activation in self.layers:
            out = self._layer(out, wx_t, wh_t, b)
            if activation == "relu":
                np.maximum(out, 0.0, out=out)
            else:
                out = _act(activation, out)
        n, t_len, batch, width = out.shape
        y = np.matmul(out.reshape(n, t_len * batch, width), self.head_w_t) + self.head_b
        nncore.ensure_finite("bilstm bank forward", y)
        return y.reshape(n, t_len, batch, self.n_out)

    def _layer(self, inp, wx_t, wh_t, b) -> np.ndarray:
        """One bidirectional layer for all N models: (N, T, B, 2H).

        ``inp`` is the shared (T, B, width) model input on the first layer
        and the previous layer's (N, T, B, 2H) output after it.
        """
        n, hdim = self.n_models, self.hidden
        k = 2 * n
        *lead, t_len, batch, width = inp.shape  # lead: [] for the shared input, [N] after
        out = np.empty((n, t_len, batch, 2 * hdim))
        chunk = min(BANK_CHUNK, t_len)
        zx = np.empty((k, chunk * batch, 4 * hdim))
        z = np.empty((k, batch, 4 * hdim))
        gate = np.empty((k, batch, 4 * hdim))
        h = np.zeros((k, batch, hdim))
        c = np.zeros((k, batch, hdim))
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
            for j in range(s1 - s0):
                t = s0 + j
                np.matmul(h, wh_t, out=z)
                z += zx[:, j * batch : (j + 1) * batch]
                c, h = lstm_gates(z, c, gate, hdim)
                out[:, t, :, :hdim] = h[:n]
                out[:, t_len - 1 - t, :, hdim:] = h[n:]
        return out


def predict_models(models, x: np.ndarray) -> np.ndarray:
    """Every model on the shared input x (T, B, n_in) -> (N, T, B, n_out).

    Models of one architecture share a bank, so a mixed set runs one bank
    per architecture. All models must have the same n_out.
    """
    models = list(models)
    if not models:
        raise ParameterError("no models to run")
    if len({m.n_out for m in models}) != 1:
        raise ShapeError("models must share n_out to be predicted together")
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
    """One trial for one joint-specific model: normalized input and target,
    raw kinematics and the target's denormalization for the physics term."""

    x: np.ndarray      # (T, n_joints) normalized input
    y: np.ndarray      # (T, 1) normalized target channel
    q: np.ndarray      # (T, 2) rad
    qdot: np.ndarray   # (T, 2) rad/s
    qddot: np.ndarray  # (T, 2) rad/s^2
    joint: int         # index of the target joint
    target_span: float
    target_lo: float


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
    j = joint_index
    samples = []
    for tr in trials:
        x, y = model_io(kind, tr.motion, tr.torque)
        samples.append(
            SurrogateSample(
                x=input_norm.apply(x.frames),
                y=target_norm.apply(y.frames)[:, [j]],
                q=tr.motion.frames,
                qdot=tr.qdot,
                qddot=tr.qddot,
                joint=j,
                target_span=target_norm.span[j],
                target_lo=target_norm.lo[j],
            )
        )
    return samples


def train_dyn(model: BiLstmModel, train_samples, config: TrainConfig,
              physics: armdyn.ArmParams | None = None,
              window: int | None = None, window_stride: int = 1):
    """Minimize per-frame MSE (plus the optional equation-of-motion term for ID).

    With ``window`` set, training samples are fixed-length slices taken every
    ``window_stride`` frames of every trial (inference still runs whole
    sequences); this is the small-data regime's guard against whole-trial
    memorization. Early stopping and best-weight restore follow the training
    loss. Returns (model, history); history entries carry train_loss,
    train_mse and, with physics on, the mean squared residual in (N*m)^2.
    Entry 0 holds them for the untrained model over every window: a
    forward-only pass, run through :meth:`BiLstmModel.forward` in chunks of
    ``config.batch_size`` windows and reduced once, with no BPTT.
    """
    if physics is not None and model.kind != "id":
        raise UnsupportedModeError("physics loss applies to inverse-dynamics models only")
    if not train_samples:
        raise ParameterError("empty dataset")
    train_samples = list(train_samples)
    if any(s.x.shape[0] != train_samples[0].x.shape[0] for s in train_samples):
        raise ShapeError("all training trials must share the same length")
    if physics is not None:
        eom = [armdyn.inverse_dynamics(s.q, s.qdot, s.qddot, physics) for s in train_samples]

    t_len = train_samples[0].x.shape[0]
    if window is None or window >= t_len:
        table = [(i, 0) for i in range(len(train_samples))]
        window = t_len
    else:
        if window < 2 or window_stride < 1:
            raise ParameterError("window must be >= 2 and stride >= 1")
        table = [
            (i, off)
            for i in range(len(train_samples))
            for off in range(0, t_len - window + 1, window_stride)
        ]
    xs = np.stack([s.x for s in train_samples], axis=0)
    ys = np.stack([s.y for s in train_samples], axis=0)

    split = {"mse": [], "physics": []}  # per-batch components for the history log

    def loss_fn(m, idx, grad=True):
        rows = [table[k] for k in idx]
        x = np.stack([xs[i, off : off + window] for i, off in rows], axis=1)
        y = np.stack([ys[i, off : off + window] for i, off in rows], axis=1)
        if grad:
            pred, cache = m.forward(x)
        else:
            # Batch-sized chunks bound the forward caches; the loss below is
            # still reduced once over every window.
            step = config.batch_size
            pred = np.concatenate(
                [m.forward(x[:, s : s + step])[0] for s in range(0, len(rows), step)], axis=1)
        loss, dy = nncore.mse(pred, y)
        split["mse"].append(loss)
        if physics is not None:
            span = train_samples[0].target_span
            lo = train_samples[0].target_lo
            j = train_samples[0].joint
            tau_pred = pred * span + lo
            tau_eom = np.stack([eom[i][off : off + window, [j]] for i, off in rows], axis=1)
            resid = tau_eom - tau_pred
            split["physics"].append(float(np.mean(resid**2)))
            # Equal-weighted mean of the data term and the residual rescaled
            # by the torque span: keeps the composite on the data-loss scale
            # so the plateau schedule behaves identically with physics on or
            # off. The logged residual stays in (N*m)^2.
            loss = 0.5 * (loss + float(np.mean((resid / span) ** 2)))
            dy = 0.5 * (dy + (2.0 / resid.size) * (-resid / span))
        if not grad:
            return loss, None
        grads, _ = m.backward(cache, dy)
        return loss, grads

    def epoch_log(_m):
        entry = {"train_mse": float(np.mean(split["mse"]))}
        if physics is not None:
            entry["physics_residual"] = float(np.mean(split["physics"]))
        split["mse"].clear()
        split["physics"].clear()
        return entry

    return nncore.train_loop(model, len(table), loss_fn, config, epoch_log_fn=epoch_log)


# --- checkpoints --------------------------------------------------------------

def save_model(path, model: BiLstmModel, joint: str | None = None,
               input_norm: NormalizationParams | None = None,
               target_norm: NormalizationParams | None = None,
               tau_max: float | None = None, extra_meta: dict | None = None) -> None:
    meta = dict(extra_meta or {})
    if joint is not None:
        meta["joint"] = joint
    if input_norm is not None:
        meta["input_norm"] = input_norm.to_dict()
    if target_norm is not None:
        meta["target_norm"] = target_norm.to_dict()
    if tau_max is not None:
        meta["tau_max"] = tau_max
    architecture = {
        "model": "bilstm",
        "kind": model.kind,
        "n_in": model.n_in,
        "n_out": model.n_out,
        "n_layers": model.spec.n_layers,
        "hidden": model.spec.hidden,
        "seed": model.seed,
    }
    nncore.save_checkpoint(path, architecture, model.params(), meta)


def load_model(path) -> tuple[BiLstmModel, dict]:
    doc = nncore.load_checkpoint(path)
    arch = doc["architecture"]
    if arch.get("model") != "bilstm":
        raise ParameterError(f"{path}: not a bilstm checkpoint")
    n_in, n_out, n_layers, hidden = nncore.architecture_fields(
        path, arch, ("n_in", "n_out", "n_layers", "hidden"))
    model = BiLstmModel(n_in, n_out, BiLstmSpec(n_layers, hidden),
                        kind=arch.get("kind"), seed=arch.get("seed", 0))
    nncore.assign_params(model.params(), doc["params"], path)
    return model, doc["meta"]
