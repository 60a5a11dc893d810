"""Physics-informed fatigue network: (t, M_A) -> (M_F, M_R).

A five-layer dense stack predicts the fatigued and resting pools from the
current time and active pool. Training minimizes a data term plus the
squared residuals of the compartment ODEs,

    rho_F = dM_F/dt - F*M_A + R*M_F
    rho_R = dM_R/dt + C(t) - R*M_F

where dM/dt is the exact derivative of the network with respect to its time
input (reverse mode through the stack, M_A held fixed) and C(t) is the
compartment controller evaluated with the input M_A and the *predicted*
M_R. Supervised mode adds a mean-squared data term on (M_F, M_R); the
unsupervised (forward-problem) mode replaces it with a boundary-condition
penalty at t=0 and learns from the residuals alone.

Inputs are scaled to [0,1] (t by the trajectory duration, M_A by 100) and
outputs are rescaled to %MVC; losses are computed in %MVC units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .compartments import Cc3Params, Cc3Trajectory, LoadProfile, controller_batch
from .errors import ParameterError
from .nncore import Mlp, TrainConfig

N_DENSE_LAYERS = 5


@dataclass(frozen=True)
class PinnSpec:
    """Width/activation of the five-layer stack; tanh gives smooth t-derivatives."""

    hidden: int = 64
    activation: str = "relu"

    def __post_init__(self):
        if self.hidden < 1:
            raise ParameterError(f"hidden must be >= 1, got {self.hidden}")


class Pinn3ccModel:
    """Five fully connected layers, input (t, M_A), output (M_F, M_R) in %MVC."""

    def __init__(self, cc3: Cc3Params, t_scale: float, spec: PinnSpec = PinnSpec(), seed: int = 0):
        if t_scale <= 0:
            raise ParameterError("t_scale must be > 0")
        sizes = [2] + [spec.hidden] * (N_DENSE_LAYERS - 1) + [2]
        acts = [spec.activation] * (N_DENSE_LAYERS - 1) + ["linear"]
        self.mlp = Mlp(sizes, acts, np.random.default_rng(seed))
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
        """(M_F, M_R) estimates; consumers clamp to [0,100] before use."""
        y, _ = self.mlp.forward(self._inputs(t, m_a))
        out = self.out_scale * y
        if np.ndim(t) == 0 and np.ndim(m_a) == 0:
            return float(out[0, 0]), float(out[0, 1])
        return out[:, 0], out[:, 1]

    def _forward_time_tangent(self, t, m_a):
        """Forward pass plus exact d(output)/dt with the M_A input held fixed."""
        u = self._inputs(t, m_a)
        v = np.zeros_like(u)
        v[..., 0] = 1.0 / self.t_scale
        y, ydot, cache = self.mlp.forward_tangent(u, v)
        return self.out_scale * y, self.out_scale * ydot, cache

    def time_derivatives(self, t, m_a):
        """(dM_F/dt, dM_R/dt) by reverse-mode differentiation through the stack."""
        _, mdot, _ = self._forward_time_tangent(t, m_a)
        if np.ndim(t) == 0 and np.ndim(m_a) == 0:
            return float(mdot[0, 0]), float(mdot[0, 1])
        return mdot[:, 0], mdot[:, 1]

    def physics_residuals(self, t, m_a, tl):
        """(rho_F, rho_R) of the compartment ODEs at the given samples."""
        m, mdot, _ = self._forward_time_tangent(t, m_a)
        m_a_arr = np.broadcast_to(np.atleast_1d(np.asarray(m_a, dtype=float)), m[:, 0].shape)
        tl_arr = np.broadcast_to(np.atleast_1d(np.asarray(tl, dtype=float)), m[:, 0].shape)
        rho_f, rho_r, _ = ode_residuals(self.cc3, m_a_arr, tl_arr, m[:, 0], m[:, 1], mdot[:, 0], mdot[:, 1])
        if np.ndim(t) == 0 and np.ndim(m_a) == 0:
            return float(rho_f[0]), float(rho_r[0])
        return rho_f, rho_r


def ode_residuals(p: Cc3Params, m_a, tl, m_f, m_r, mdot_f, mdot_r):
    """(rho_F, rho_R, dC/dM_R) of the compartment ODEs over arrays of samples."""
    c, dc_dmr = controller_batch(m_a, m_r, tl, p)
    rho_f = mdot_f - p.F * m_a + p.R * m_f
    rho_r = mdot_r + c - p.R * m_f
    return rho_f, rho_r, dc_dmr


@dataclass
class PinnData:
    """Training samples: times, active pool, target load, optional pool targets."""

    t: np.ndarray
    m_a: np.ndarray
    tl: np.ndarray
    m_f: np.ndarray | None = None
    m_r: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.m_a = np.asarray(self.m_a, dtype=float)
        self.tl = np.asarray(self.tl, dtype=float)
        if self.m_f is not None:
            self.m_f = np.asarray(self.m_f, dtype=float)
        if self.m_r is not None:
            self.m_r = np.asarray(self.m_r, dtype=float)

    def __len__(self) -> int:
        return self.t.size

    def subset(self, idx) -> "PinnData":
        return PinnData(
            self.t[idx],
            self.m_a[idx],
            self.tl[idx],
            None if self.m_f is None else self.m_f[idx],
            None if self.m_r is None else self.m_r[idx],
        )


def data_from_trajectory(traj: Cc3Trajectory, load: LoadProfile, indices=None) -> PinnData:
    """Supervised samples along a simulated trajectory (optionally subsampled)."""
    idx = np.arange(traj.times.size) if indices is None else np.asarray(indices)
    return PinnData(
        t=traj.times[idx],
        m_a=traj.M_A[idx],
        tl=load.values[idx],
        m_f=traj.M_F[idx],
        m_r=traj.M_R[idx],
    )


def training_indices(load: LoadProfile, n_frames: int, settle: float = 1.0) -> np.ndarray:
    """Evenly spaced sample indices over the profile, skipping the first
    ``settle`` seconds. The controller's development transient (rate LD)
    lives below the sampling grid and would otherwise plant one huge,
    unfittable residual at t=0."""
    n = load.values.size
    i0 = int(np.ceil(settle / load.dt))
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


@dataclass
class PinnLossBreakdown:
    total: float
    data: float  # L_NN in supervised mode, L_BC in unsupervised mode
    physics: float


def _physics_loss_and_grads(model: Pinn3ccModel, batch: PinnData):
    """L_PB over the batch plus output/tangent gradient contributions."""
    m, mdot, cache = model._forward_time_tangent(batch.t, batch.m_a)
    rho_f, rho_r, dc_dmr = ode_residuals(
        model.cc3, batch.m_a, batch.tl, m[:, 0], m[:, 1], mdot[:, 0], mdot[:, 1]
    )
    n = batch.t.size
    loss = float(np.mean(rho_f**2) + np.mean(rho_r**2))
    gy = np.zeros_like(m)
    gydot = np.zeros_like(mdot)
    a_f = (2.0 / n) * rho_f
    a_r = (2.0 / n) * rho_r
    gydot[:, 0] = a_f
    gydot[:, 1] = a_r
    gy[:, 0] = a_f * model.cc3.R - a_r * model.cc3.R
    gy[:, 1] = a_r * dc_dmr
    return loss, m, cache, gy, gydot


def supervised_loss(model: Pinn3ccModel, batch: PinnData, grad: bool = True):
    """L = L_NN + L_PB and gradients for all stack parameters (None when
    ``grad`` is False: a forward-only pass, no backward)."""
    if batch.m_f is None or batch.m_r is None:
        raise ParameterError("supervised training needs M_F and M_R targets")
    l_pb, m, cache, gy, gydot = _physics_loss_and_grads(model, batch)
    n = batch.t.size
    err_f = m[:, 0] - batch.m_f
    err_r = m[:, 1] - batch.m_r
    l_nn = float(np.mean(err_f**2) + np.mean(err_r**2))
    breakdown = PinnLossBreakdown(l_nn + l_pb, l_nn, l_pb)
    if not grad:
        return breakdown, None
    gy[:, 0] += (2.0 / n) * err_f
    gy[:, 1] += (2.0 / n) * err_r
    grads = model.mlp.backward_tangent(cache, gy * model.out_scale, gydot * model.out_scale)
    return breakdown, grads


def unsupervised_loss(model: Pinn3ccModel, batch: PinnData, bc: tuple[float, float], t0: float, m_a0: float,
                      grad: bool = True):
    """L = L_BC + L_PB; the boundary term pins (M_F, M_R) at t=t0. Gradients
    are None when ``grad`` is False (forward-only, no backward)."""
    l_pb, _, cache, gy, gydot = _physics_loss_and_grads(model, batch)
    y0, bc_cache = model.mlp.forward(model._inputs(t0, m_a0))
    m0 = model.out_scale * y0
    err = np.array([[m0[0, 0] - bc[0], m0[0, 1] - bc[1]]])
    l_bc = float(np.sum(err**2))
    breakdown = PinnLossBreakdown(l_bc + l_pb, l_bc, l_pb)
    if not grad:
        return breakdown, None
    grads = model.mlp.backward_tangent(cache, gy * model.out_scale, gydot * model.out_scale)
    bc_grads, _ = model.mlp.backward(bc_cache, 2.0 * err * model.out_scale)
    grads = [g + bg for g, bg in zip(grads, bc_grads)]
    return breakdown, grads


def evaluate_breakdown(model: Pinn3ccModel, data: PinnData, mode: str = "supervised",
                       bc: tuple[float, float] | None = None, t0: float = 0.0,
                       m_a0: float = 0.0) -> PinnLossBreakdown:
    """The loss breakdown over all of ``data`` at the current weights, from
    the forward-only mode of :func:`supervised_loss` or
    :func:`unsupervised_loss`: no gradients are computed."""
    if mode == "supervised":
        breakdown, _ = supervised_loss(model, data, grad=False)
    else:
        breakdown, _ = unsupervised_loss(model, data, bc, t0, m_a0, grad=False)
    return breakdown


def train_supervised(model: Pinn3ccModel, data: PinnData, config: TrainConfig):
    """Adam on L_NN + L_PB; history logs both components over all of ``data``
    after each epoch, forward-only. Entry 0 (untrained model) reuses the
    breakdown of train_loop's forward-only entry-0 pass, so the untrained
    model is evaluated once."""
    initial = []  # breakdown of train_loop's forward-only entry-0 call

    def loss_fn(m, idx, grad=True):
        breakdown, grads = supervised_loss(m, data.subset(idx), grad)
        if not grad:
            initial.append(breakdown)
        return breakdown.total, grads

    def epoch_log(m):
        b = initial.pop() if initial else evaluate_breakdown(m, data, "supervised")
        return {"L_total": b.total, "L_NN": b.data, "L_PB": b.physics}

    return nncore.train_loop(model, len(data), loss_fn, config, epoch_log_fn=epoch_log)


def train_unsupervised(model: Pinn3ccModel, load: LoadProfile, config: TrainConfig,
                       bc: tuple[float, float] | None = None):
    """Forward-problem training: residuals at collocation points plus the t=0
    boundary term. Default boundary: M_F(0)=0, M_R(0)=100-M_A(0). The history
    is logged as in :func:`train_supervised`."""
    data = collocation_from_load(load, model.cc3)
    m_a0 = float(data.m_a[0])
    if bc is None:
        bc = (0.0, 100.0 - m_a0)
    t0 = float(data.t[0])
    initial = []

    def loss_fn(m, idx, grad=True):
        breakdown, grads = unsupervised_loss(m, data.subset(idx), bc, t0, m_a0, grad)
        if not grad:
            initial.append(breakdown)
        return breakdown.total, grads

    def epoch_log(m):
        b = initial.pop() if initial else evaluate_breakdown(m, data, "unsupervised", bc, t0, m_a0)
        return {"L_total": b.total, "L_BC": b.data, "L_PB": b.physics}

    return nncore.train_loop(model, len(data), loss_fn, config, epoch_log_fn=epoch_log)


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
    cc3, t_scale, hidden, activation = nncore.architecture_fields(
        path, arch, ("cc3", "t_scale", "hidden", "activation"))
    model = Pinn3ccModel(Cc3Params(**cc3), t_scale, PinnSpec(hidden, activation), seed=arch.get("seed", 0))
    nncore.assign_params(model.params(), doc["params"], path)
    return model, doc["meta"]
