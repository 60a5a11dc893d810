"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the ``fatiguemotion``
package from the outside; the package itself carries no tracing code. Each
wrapped call inside an operation records one span: name, start, end, parent
span, operation id and a few shape attributes. Spans stay in memory until the
run ends. Nothing is patched unless :meth:`Tracer.install` is called, and
:meth:`Tracer.restore` puts every original object back.

A module that imports a function by name (``pipeline`` imports ``advance``
and ``torque_to_activation`` from their home modules) calls its own binding,
so every binding of the original object inside the package is patched, not
only the one in the defining module.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "fatiguemotion"


def _lstm_fwd_attrs(args, kwargs, result):
    cell, x = args[0], args[1]
    return {"T": x.shape[0], "B": x.shape[1], "H": cell.n_hidden}


def _lstm_bwd_attrs(args, kwargs, result):
    cell, x = args[0], args[1][0]
    return {"T": x.shape[0], "B": x.shape[1], "H": cell.n_hidden}


def _path_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _train_dyn_attrs(args, kwargs, result):
    samples = args[1]
    t_len = samples[0].x.shape[0]
    window = kwargs.get("window")
    stride = kwargs.get("window_stride", 1)
    per_trial = 1 if window is None or window >= t_len else (t_len - window) // stride + 1
    windows = len(samples) * per_trial
    return {"windows": windows, "trained": windows * (len(result[1]) - 1)}


# (module, attribute path, span name, attribute function)
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("nncore", "LstmCell.forward", "nncore.lstm_fwd", _lstm_fwd_attrs),
    ("nncore", "LstmCell.backward", "nncore.lstm_bwd", _lstm_bwd_attrs),
    ("nncore", "Adam.step", "nncore.adam_step", None),
    ("nncore", "DenseLayer.forward", "nncore.dense", None),
    ("nncore", "DenseLayer.backward", "nncore.dense", None),
    ("nncore", "Mlp.forward_tangent", "nncore.mlp_tangent", None),
    ("nncore", "Mlp.backward_tangent", "nncore.mlp_tangent", None),
    ("nncore", "load_checkpoint", "nncore.checkpoint_decode", lambda a, k, r: _path_bytes(a[0])),
    ("nncore", "save_checkpoint", "nncore.checkpoint_encode", lambda a, k, r: _path_bytes(a[0])),
    ("surrogates", "BiLstmLayer.forward", "surrogates.bilstm_fwd", None),
    ("surrogates", "BiLstmLayer.backward", "surrogates.bilstm_bwd", None),
    ("surrogates", "BiLstmModel.predict_sequence", "surrogates.predict",
     lambda a, k, r: {"frames": len(a[1])}),
    ("surrogates", "train_dyn", "surrogates.train_dyn", _train_dyn_attrs),
    ("compartments", "advance", "compartments.advance", lambda a, k, r: {"dt": a[3]}),
    ("compartments", "simulate", "compartments.simulate",
     lambda a, k, r: {"frames": r.times.size}),
    ("compartments", "trajectory_to_csv", "compartments.csv_export",
     lambda a, k, r: {"rows": a[0].times.size}),
    ("fatigue_pinn", "supervised_loss", "fatigue_pinn.supervised_loss", None),
    ("fatigue_pinn", "train_supervised", "fatigue_pinn.train_supervised",
     lambda a, k, r: {"epochs": len(r[1]) - 1}),
    ("sequences", "load_sequence", "sequences.load_sequence",
     lambda a, k, r: {**_path_bytes(a[0]), "rows": r.n_frames}),
    ("sequences", "save_sequence", "sequences.save_sequence",
     lambda a, k, r: {**_path_bytes(a[1]), "rows": a[0].n_frames}),
    ("sequences", "torque_to_activation", "sequences.torque_to_activation", None),
    ("pipeline", "apply_fatigue", "pipeline.apply_fatigue", None),
    ("pipeline", "FatigueReport.save", "pipeline.report_save", None),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original object) for a dotted attribute path."""
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def bindings(targets=TARGETS):
    """Every (owner, attribute) that holds a traced original, with that original.

    Methods have one binding, their class. A function also counts as bound
    in each package module that imported it by name.
    """
    out = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module_name, path, _, _ in targets:
        owner, attr, original = _resolve(module_name, path)
        if isinstance(owner, type):
            out.append((owner, attr, original))
            continue
        for module in modules:
            for name, value in vars(module).items():
                if value is original:
                    out.append((module, name, original))
    return out


class Tracer:
    """Records spans of wrapped package calls made inside :meth:`op` blocks."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent index, op id, attrs)
        self.ops = []     # (op id, label, start, end)
        self._stack = []
        self._op_id = None
        self._patched = []

    def _wrap(self, original, name, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op_id, None)
            if attrs_fn is not None:
                spans[index] = spans[index][:5] + (attrs_fn(args, kwargs, result),)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        by_original = {}
        for module_name, path, name, attrs_fn in targets:
            _, _, original = _resolve(module_name, path)
            by_original[id(original)] = (name, attrs_fn)
        for owner, attr, original in bindings(targets):
            name, attrs_fn = by_original[id(original)]
            setattr(owner, attr, self._wrap(original, name, attrs_fn))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, label: str):
        """One benchmark operation; wrapped calls inside it become its spans."""
        op_id = len(self.ops)
        start = time.perf_counter()
        self._op_id = op_id
        try:
            yield
        finally:
            self._op_id = None
            self.ops.append((op_id, label, start, time.perf_counter()))

    def write(self, path) -> None:
        """Operations, then spans, as JSON lines."""
        with open(path, "w") as fh:
            for op_id, label, start, end in self.ops:
                fh.write(json.dumps({"op": op_id, "label": label, "start": start, "end": end}) + "\n")
            for i, (name, start, end, parent, op_id, attrs) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                if attrs:
                    doc["attrs"] = attrs
                fh.write(json.dumps(doc) + "\n")


# --- reduction to per-layer metrics -------------------------------------------

def layer_metrics(tracer: Tracer, rounds: int, max_step: float) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Totals are per round. Self time is a span's duration minus the time its
    direct child spans cover. ``max_step`` is the fatigue integrator's RK4
    sub-step ceiling, from which sub-step counts are computed.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    pipeline_children = defaultdict(float)
    compartments_top = 0.0
    sim_ops = {op_id for op_id, label, _, _ in tracer.ops if label == "sim-3cc"}
    compartments_in_sim = 0.0
    lstm_flops = 0.0
    lstm_steps = 0
    for i, (name, start, end, parent, op_id, attrs) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child_time[i]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            attr[f"{name}.{key}"] += value
        if name in ("nncore.lstm_fwd", "nncore.lstm_bwd"):
            # The per-step recurrence matmul: h @ Wh.T forward, dz @ Wh in
            # BPTT, each 2*B*H*4H flops. Batched input projections and weight
            # gradients sit outside the time loop and are not counted.
            lstm_flops += 8.0 * attrs["B"] * attrs["H"] ** 2 * attrs["T"]
            lstm_steps += attrs["T"]
        if name == "compartments.advance":
            attr["rk4_substeps"] += max(1, math.ceil(attrs["dt"] / max_step))
        parent_name = spans[parent][0] if parent is not None else None
        if parent_name == "pipeline.apply_fatigue":
            pipeline_children[name] += dur
        if name.startswith("compartments.") and not (parent_name or "").startswith("compartments."):
            compartments_top += dur
            if op_id in sim_ops:
                compartments_in_sim += dur
    op_time = sum(end - start for _, _, start, end in tracer.ops)
    sim_time = sum(end - start for op_id, _, start, end in tracer.ops if op_id in sim_ops)
    lstm_time = total["nncore.lstm_fwd"] + total["nncore.lstm_bwd"]
    apply_time = total["pipeline.apply_fatigue"]

    def per_round(x):
        return x / rounds

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    return {
        "nncore.lstm_fwd_us_per_step": ratio(total["nncore.lstm_fwd"], attr["nncore.lstm_fwd.T"], 1e6),
        "nncore.lstm_bwd_us_per_step": ratio(total["nncore.lstm_bwd"], attr["nncore.lstm_bwd.T"], 1e6),
        "nncore.lstm_calls": per_round(calls["nncore.lstm_fwd"] + calls["nncore.lstm_bwd"]),
        "nncore.lstm_flops_per_step_computed": ratio(lstm_flops, lstm_steps),
        "nncore.lstm_gflops_computed": ratio(lstm_flops, lstm_time, 1e-9),
        "nncore.lstm_share": ratio(lstm_time, op_time),
        "nncore.adam_step_ms": per_round(total["nncore.adam_step"]) * 1e3,
        "nncore.dense_ms": per_round(total["nncore.dense"]) * 1e3,
        "nncore.mlp_tangent_ms": per_round(total["nncore.mlp_tangent"]) * 1e3,
        "nncore.checkpoint_decode_ms": per_round(total["nncore.checkpoint_decode"]) * 1e3,
        "nncore.checkpoint_encode_ms": per_round(total["nncore.checkpoint_encode"]) * 1e3,
        "nncore.checkpoint_bytes": per_round(
            attr["nncore.checkpoint_decode.bytes"] + attr["nncore.checkpoint_encode.bytes"]),
        "surrogates.bilstm_fwd_self_ms": per_round(self_time["surrogates.bilstm_fwd"]) * 1e3,
        "surrogates.bilstm_bwd_self_ms": per_round(self_time["surrogates.bilstm_bwd"]) * 1e3,
        "surrogates.predict_ms_per_kframe": ratio(
            total["surrogates.predict"], attr["surrogates.predict.frames"], 1e6),
        "surrogates.train_dyn_self_s": per_round(self_time["surrogates.train_dyn"]),
        "surrogates.windows_per_epoch_computed": ratio(
            attr["surrogates.train_dyn.windows"], calls["surrogates.train_dyn"]),
        "surrogates.windows_trained": per_round(attr["surrogates.train_dyn.trained"]),
        "compartments.advance_us_per_joint_frame": ratio(
            total["compartments.advance"], calls["compartments.advance"], 1e6),
        "compartments.advance_calls": per_round(calls["compartments.advance"]),
        "compartments.simulate_us_per_frame": ratio(
            total["compartments.simulate"], attr["compartments.simulate.frames"], 1e6),
        "compartments.rk4_substeps_computed": per_round(attr["rk4_substeps"]),
        "compartments.csv_export_us_per_row": ratio(
            total["compartments.csv_export"], attr["compartments.csv_export.rows"], 1e6),
        "compartments.csv_rows": per_round(attr["compartments.csv_export.rows"]),
        "compartments.share": ratio(compartments_top, op_time),
        "compartments.sim3cc_share": ratio(compartments_in_sim, sim_time),
        "fatigue_pinn.supervised_loss_self_ms": per_round(self_time["fatigue_pinn.supervised_loss"]) * 1e3,
        "fatigue_pinn.epochs_run": per_round(attr["fatigue_pinn.train_supervised.epochs"]),
        "sequences.load_sequence_ms": per_round(total["sequences.load_sequence"]) * 1e3,
        "sequences.save_sequence_ms": per_round(total["sequences.save_sequence"]) * 1e3,
        "sequences.csv_bytes": per_round(
            attr["sequences.load_sequence.bytes"] + attr["sequences.save_sequence.bytes"]),
        "sequences.csv_rows": per_round(
            attr["sequences.load_sequence.rows"] + attr["sequences.save_sequence.rows"]),
        "sequences.torque_to_activation_calls": per_round(calls["sequences.torque_to_activation"]),
        "pipeline.apply_fatigue_self_ms": per_round(self_time["pipeline.apply_fatigue"]) * 1e3,
        "pipeline.surrogate_share": ratio(pipeline_children["surrogates.predict"], apply_time),
        "pipeline.fatigue_share": ratio(
            pipeline_children["compartments.advance"]
            + pipeline_children["sequences.torque_to_activation"], apply_time),
        "pipeline.report_save_ms": per_round(total["pipeline.report_save"]) * 1e3,
        "cli.run_self_ms": per_round(self_time["cli.run"]) * 1e3,
        "trace.spans": per_round(len(spans)),
    }
