"""Physics-informed fatigue network: (t, M_A) -> (M_F, M_R).

A five-layer dense stack predicts the fatigued and resting pools from the
current time and active pool. Training minimizes one objective, a data term
plus the squared residuals of the compartment ODEs,

    rho_F = dM_F/dt - F*M_A + R*M_F
    rho_R = dM_R/dt + C(t) - R*M_F

where dM/dt is the exact derivative of the network with respect to its time
input (the forward-mode tangent of :meth:`Mlp.forward_tangent`, M_A held
fixed) and C(t) is the compartment controller evaluated with the input M_A
and the *predicted* M_R. The data term is the mean squared error of
(M_F, M_R) against an ``anchor``'s targets. Supervised training anchors each
batch at its own simulated pools; unsupervised (forward-problem) training
anchors the collocation points at the one t=0 boundary sample and learns
the rest from the residuals alone. A run's inputs, time tangent and targets
are built once (:func:`prepare_run`); a batch loss is one tangent and one
reverse pass over its rows. Inference runs the cache-free :meth:`Mlp.forward`.

Inputs are scaled to [0,1] (t by the trajectory duration, M_A by 100) and
outputs are rescaled to %MVC; losses are computed in %MVC units.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import nncore
from .compartments import Cc3Params, Cc3Trajectory, LoadProfile, controller_batch
from .errors import DataFormatError, ParameterError, reading
from .nncore import Mlp, TrainConfig

N_DENSE_LAYERS = 5

# The loss terms, named as training_log.csv's columns: the total, the data
# term (L_NN when the batch is its own anchor, L_BC at a boundary anchor)
# and the physics term.
LOSS_TERMS = ("L_total", "L_NN_or_BC", "L_PB")

# Seconds at the start of a profile that :func:`training_indices` skips.
SETTLE_S = 1.0


@dataclass(frozen=True)
class PinnSpec:
    """Width/activation of the five-layer stack; tanh gives smooth t-derivatives."""

    hidden: int = 64
    activation: str = "relu"

    def __post_init__(self):
        if self.hidden < 1 or self.activation not in nncore.ACTIVATIONS:
            raise ParameterError(f"need hidden >= 1 and an activation of {nncore.ACTIVATIONS}, "
                                 f"got {self.hidden} and {self.activation!r}")


def layer_sizes(hidden: int) -> list[int]:
    """Widths of the stack, input (t, M_A) to output (M_F, M_R)."""
    return [2] + [hidden] * (N_DENSE_LAYERS - 1) + [2]


class Pinn3ccModel:
    """Five fully connected layers, input (t, M_A), output (M_F, M_R) in %MVC."""

    def __init__(self, cc3: Cc3Params, t_scale: float, spec: PinnSpec = PinnSpec(), seed: int = 0):
        if not (np.isfinite(t_scale) and t_scale > 0):
            raise ParameterError(f"t_scale must be finite and > 0, got {t_scale}")
        acts = [spec.activation] * (N_DENSE_LAYERS - 1) + ["linear"]
        self.mlp = Mlp(layer_sizes(spec.hidden), acts, np.random.default_rng(seed))
        self.cc3 = cc3
        self.t_scale = float(t_scale)
        self.a_scale = 100.0
        self.out_scale = 100.0
        self.spec = spec
        self.seed = seed

    def params(self):
        return self.mlp.params()

    def _inputs(self, t, m_a) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        m_a = np.atleast_1d(np.asarray(m_a, dtype=float))
        t, m_a = np.broadcast_arrays(t, m_a)
        return np.stack([t / self.t_scale, m_a / self.a_scale], axis=-1)

    def predict(self, t, m_a):
        """(M_F, M_R) arrays, one entry per sample; consumers clamp to [0,100]
        before use."""
        out = self.out_scale * self.mlp.forward(self._inputs(t, m_a))
        return out[:, 0], out[:, 1]


def ode_residuals(p: Cc3Params, m_a, tl, m_f, m_r, mdot_f, mdot_r):
    """(rho_F, rho_R, dC/dM_R) of the compartment ODEs over arrays of samples."""
    c, dc_dmr = controller_batch(m_a, m_r, tl, p)
    rho_f = mdot_f - p.F * m_a + p.R * m_f
    rho_r = mdot_r + c - p.R * m_f
    return rho_f, rho_r, dc_dmr


@dataclass
class PinnData:
    """Training samples: times, active pool, target load, optional pool
    targets, each a 1-D float64 array of one entry per sample (not converted)."""

    t: np.ndarray
    m_a: np.ndarray
    tl: np.ndarray
    m_f: np.ndarray | None = None
    m_r: np.ndarray | None = None

    def __len__(self) -> int:
        return self.t.size


def data_from_trajectory(traj: Cc3Trajectory, load: LoadProfile, indices) -> PinnData:
    """Supervised samples at the sample ``indices`` of a simulated trajectory."""
    return PinnData(
        t=traj.times[indices],
        m_a=traj.M_A[indices],
        tl=load.values[indices],
        m_f=traj.M_F[indices],
        m_r=traj.M_R[indices],
    )


def training_indices(load: LoadProfile, n_frames: int) -> np.ndarray:
    """Evenly spaced sample indices over the profile, skipping the first
    :data:`SETTLE_S` seconds. The controller's development transient (rate
    LD) lives below the sampling grid and would otherwise plant one huge,
    unfittable residual at t=0."""
    n = load.values.size
    i0 = int(np.ceil(SETTLE_S / load.dt))
    i0 = max(0, min(i0, n - n_frames))
    return np.linspace(i0, n - 1, n_frames).astype(int)


def collocation_from_load(load: LoadProfile, cc3: Cc3Params) -> PinnData:
    """Unsupervised collocation points derived from the load profile alone.

    The active pool is set to the controller's tracking fixed point
    M_A = TL * LD / (LD + F) (the solution of dM_A/dt = 0 while resting units
    remain), so the controller inflow C = LD*(TL - M_A) = F*M_A carries the
    correct transfer rate into the resting-pool residual.
    """
    m_a = load.values * (cc3.LD / (cc3.LD + cc3.F)) if cc3.LD > 0 else load.values.copy()
    return PinnData(t=load.times, m_a=m_a, tl=load.values.copy())


# A run's samples in the model's scaling (prepare_run): inputs u (t, M_A) and
# tangent direction v = du/dt, (N + K, 2), the N samples' rows then the K
# anchor_rows (None: no anchor); the samples' m_a and tl; the data term's targets.
PinnRun = namedtuple("PinnRun", "u v m_a tl targets anchor_rows")


def prepare_run(model: Pinn3ccModel, data: PinnData, anchor: PinnData | None = None) -> PinnRun:
    """The :class:`PinnRun` of ``data`` anchored at ``anchor`` (by default ``data`` itself)."""
    targets = data if anchor is None else anchor
    if targets.m_f is None or targets.m_r is None:
        raise ParameterError("the data term needs M_F and M_R targets")
    t, m_a = data.t, data.m_a
    if anchor is not None:
        t, m_a = np.concatenate([t, anchor.t]), np.concatenate([m_a, anchor.m_a])
    u = model._inputs(t, m_a)
    v = np.zeros_like(u)
    v[:, 0] = 1.0 / model.t_scale  # dt/dt in the scaled input, M_A held fixed
    anchor_rows = None if anchor is None else np.arange(len(data), u.shape[0])
    return PinnRun(u, v, data.m_a, data.tl, np.stack([targets.m_f, targets.m_r], axis=-1), anchor_rows)


def supervised_loss(model: Pinn3ccModel, run: PinnRun, rows=None, grad: bool = True):
    """(terms, grads): each :data:`LOSS_TERMS` name mapped to its float, L =
    L_data + L_PB, L_data and L_PB, and the gradients of L for all stack
    parameters (None when ``grad`` is False: a forward-only pass, no backward).

    L_PB is the mean squared ODE residual over the samples ``rows`` of
    ``run`` (by default all). L_data is the mean squared error of (M_F, M_R)
    against the targets of those samples (L_NN) or of every anchor row (e.g.
    the t=0 boundary, L_BC). One tangent pass gives every output and one
    reverse pass every gradient; the anchor rows take part in the data term
    only, so their tangent gradient is zero.
    """
    anchored = run.anchor_rows is not None
    if rows is None:
        rows = np.arange(run.m_a.size)
    uv_rows = np.concatenate([rows, run.anchor_rows]) if anchored else rows
    u, v, m_a, tl = run.u[uv_rows], run.v[uv_rows], run.m_a[rows], run.tl[rows]
    targets = run.targets if anchored else run.targets[rows]
    n = m_a.size
    y, ydot, cache = model.mlp.forward_tangent(u, v)
    m, mdot = model.out_scale * y, model.out_scale * ydot
    rho_f, rho_r, dc_dmr = ode_residuals(model.cc3, m_a, tl, m[:n, 0], m[:n, 1], mdot[:n, 0], mdot[:n, 1])
    # each mean is np.mean's own sum and division, without its wrapper
    l_pb = float((rho_f**2).sum() / n + (rho_r**2).sum() / n)
    data_rows = slice(n if anchored else 0, None)
    err = m[data_rows] - targets
    n_data = targets.shape[0]
    l_data = float((err[:, 0]**2).sum() / n_data + (err[:, 1]**2).sum() / n_data)
    terms = dict(zip(LOSS_TERMS, (l_data + l_pb, l_data, l_pb)))
    if not grad:
        return terms, None
    gy, gydot = g = np.zeros((2, *m.shape))
    a_f = np.multiply(2.0 / n, rho_f, out=gydot[:n, 0])
    a_r = np.multiply(2.0 / n, rho_r, out=gydot[:n, 1])
    np.subtract(a_f * model.cc3.R, a_r * model.cc3.R, out=gy[:n, 0])
    np.multiply(a_r, dc_dmr, out=gy[:n, 1])
    gy[data_rows] += (2.0 / n_data) * err
    g *= model.out_scale
    return terms, model.mlp.backward_tangent(cache, gy, gydot)


def train_supervised(model: Pinn3ccModel, data: PinnData, config: TrainConfig, anchor: PinnData | None = None):
    """Adam on L_data + L_PB over one :func:`prepare_run` (``anchor`` is the
    same for every batch). Returns (model, history); each entry holds the
    :data:`LOSS_TERMS` of a forward-only :func:`supervised_loss` over all of
    ``data``: entry 0 for the untrained model (train_loss its L_total), then
    one after each epoch."""
    if len(data) < 1:
        raise ParameterError("empty dataset")
    run = prepare_run(model, data, anchor)

    def loss_fn(m, idx):
        terms, grads = supervised_loss(m, run, idx)
        return terms["L_total"], grads

    def epoch_log(m):
        return supervised_loss(m, run, grad=False)[0]

    initial = epoch_log(model)
    history = nncore.train_loop(model, len(data), loss_fn, config, epoch_log_fn=epoch_log)
    return model, [{"epoch": 0, "train_loss": initial["L_total"], **initial}, *history]


def train_unsupervised(model: Pinn3ccModel, load: LoadProfile, config: TrainConfig):
    """Forward-problem training: :func:`train_supervised` on collocation
    points, anchored at the t=0 boundary M_F(0)=0, M_R(0)=100-M_A(0)."""
    data = collocation_from_load(load, model.cc3)
    m_a0 = data.m_a[:1]
    anchor = PinnData(data.t[:1], m_a0, data.tl[:1], m_f=np.zeros(1), m_r=100.0 - m_a0)
    return train_supervised(model, data, config, anchor)


# --- checkpoints ---------------------------------------------------------------

def save_model(path, model: Pinn3ccModel, meta: dict | None = None) -> None:
    architecture = {
        "model": "pinn3cc",
        "hidden": model.spec.hidden,
        "activation": model.spec.activation,
        "t_scale": model.t_scale,
        "seed": model.seed,
        "cc3": {"F": model.cc3.F, "R": model.cc3.R, "LD": model.cc3.LD, "LR": model.cc3.LR},
    }
    nncore.save_checkpoint(path, architecture, model.params(), meta)


def load_model(path) -> tuple[Pinn3ccModel, dict]:
    doc = nncore.load_checkpoint(path)
    arch = doc["architecture"]
    if arch.get("model") != "pinn3cc":
        raise ParameterError(f"{path}: not a pinn3cc checkpoint")
    seed = arch.get("seed", 0)
    rates = ("F", "R", "LD", "LR")
    with reading(path):  # math.isfinite raises OverflowError for an integer beyond float range
        cc3, t_scale, hidden, activation = (arch[k] for k in ("cc3", "t_scale", "hidden", "activation"))
        if not (type(hidden) is int and type(seed) is int and seed >= 0 and isinstance(activation, str)
                and isinstance(cc3, dict) and sorted(cc3) == sorted(rates)
                and all(type(v) in (int, float) for v in (t_scale, *cc3.values()))
                and math.isfinite(t_scale) and t_scale > 0):
            raise DataFormatError(f"{path}: hidden must be an integer, seed an integer >= 0, activation "
                                  f"a string, t_scale a finite number > 0 and cc3 an object of the "
                                  f"numbers {', '.join(rates)}")
        spec, cc3 = PinnSpec(hidden, activation), Cc3Params(**cc3)
    sizes = layer_sizes(hidden)
    # before the model is built: the architecture may claim more than memory holds
    nncore.check_shapes([s for n_in, n_out in zip(sizes, sizes[1:]) for s in ((n_out, n_in), (n_out,))],
                        doc["params"], path)
    model = Pinn3ccModel(cc3, t_scale, spec, seed=seed)
    nncore.copy_params(model.params(), doc["params"], path)
    return model, doc["meta"]
