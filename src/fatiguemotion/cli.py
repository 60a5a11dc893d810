"""Command-line entry point.

Subcommands: gen-data, sim-3cc, train-pinn, train-dyn, apply-fatigue, eval,
export-curves. After a command succeeds, :func:`run` writes manifest.json
into its --out directory so the run can be reproduced: the command, argv,
seed, package version and ``config`` (every other parsed option, plus what
the command derived from its inputs) with its sha256 ``config_hash``. A directory appears with the first file
written into it, so a command that fails before writing leaves no --out.
Exit codes: 0 success, 1 usage, 2 data error (an allocation numpy refuses
included), 3 numeric error. A data error in a file the command reads names
that file (see :mod:`fatiguemotion.errors`).
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import arm as armdyn
from . import compartments as cc
from . import fatigue_pinn as fp
from . import pipeline as pl
from . import sequences as sq
from . import surrogates as sg
from .errors import DataFormatError, FatigueMotionError, NumericError, ParameterError, open_text, reading, write_json
from .nncore import TrainConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_manifest(args, argv, facts: dict) -> None:
    """gen-data's facts are its dataset manifest: train-dyn reads those keys
    at the top level, so they stay there instead of in ``config``."""
    base = {}
    if args.command == "gen-data":
        base, facts = facts, {}
    config = {k: v for k, v in vars(args).items() if k not in ("fn", "command", "seed", "out")}
    config.update(facts)
    outdir = Path(args.out)
    doc = {
        **base,
        "command": args.command,
        "argv": list(argv),
        "seed": args.seed,
        "config": config,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "package_version": __version__,
    }
    write_json(outdir / "manifest.json", doc, indent=2, sort_keys=True)
    print(f"seed={args.seed} config_hash={doc['config_hash'][:12]} -> {outdir}")


def _parse_load(spec: str, duration: float, dt: float) -> cc.LoadProfile:
    """A const:<value> load of ``duration`` seconds, or a csv:<path> load whose
    samples at ``dt`` must span exactly ``duration`` seconds."""
    if spec.startswith("const:"):
        try:
            level = float(spec[len("const:"):])
        except ValueError:
            raise ParameterError(f"cannot parse load spec {spec!r}: not a number") from None
        return cc.LoadProfile.constant(level, duration, dt)
    if spec.startswith("csv:"):
        path = spec[len("csv:"):]
        values = []
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                # float() strips the whitespace str.strip() does; only lines it rejects are tested
                try:
                    values.append(float(line))
                except ValueError:
                    line = line.strip()
                    if line and line.lower() not in ("tl", "target_load"):
                        raise DataFormatError(f"{path}:{lineno}: target load {line!r} is not a number") from None
        n = cc.LoadProfile.frame_count(duration, dt)  # checks --t and --dt, which the file does not hold
        with reading(path):
            load = cc.LoadProfile(np.array(values), dt)
        if n != load.values.size:
            raise ParameterError(f"{path}: {load.values.size} target-load samples at dt={dt} "
                                 f"span {(load.values.size - 1) * dt} s, not --t {duration} s")
        return load
    raise ParameterError(f"cannot parse load spec {spec!r} (use const:<value> or csv:<path>)")


# --- subcommands ----------------------------------------------------------------

def _cmd_gen_data(args) -> dict:
    params = armdyn.ArmParams()
    trials = armdyn.generate_dataset(
        params, args.trials, args.frames, args.dt, args.seed, n_segments=args.segments
    )
    return armdyn.save_trials(trials, params, Path(args.out), meta={"seed": args.seed})


def _cmd_sim_3cc(args) -> None:
    if not 0 <= args.lam <= 1:
        raise ParameterError(f"--lambda must be in [0,1], got {args.lam}")
    params = cc.Cc3Params(args.F, args.R, args.LD, args.LR)
    load = _parse_load(args.tl, args.t, args.dt)
    traj = cc.simulate(None, load, params)
    cc.trajectory_to_csv(traj, Path(args.out) / "trajectory.csv", lam=args.lam)


def _cmd_train_pinn(args) -> dict:
    rates = {k: getattr(args, k) for k in dataclasses.asdict(cc.ELBOW) if getattr(args, k) is not None}
    if args.profiles:
        if rates:
            raise ParameterError(f"--profiles sets the rates; drop {', '.join('--' + k for k in rates)}")
        profile = cc.load_profiles(args.profiles).get(args.joint)
        if profile is None:
            raise ParameterError(f"no profile for joint {args.joint!r} in {args.profiles}")
        params = profile.cc3
    else:
        params = dataclasses.replace(cc.ELBOW, **rates)
    if args.frames < 2:
        raise ParameterError(f"--frames must be >= 2, got {args.frames}")
    # Supervised data come from a simulation at the fine step; unsupervised
    # collocation points are the frames themselves.
    dt = args.t / (args.frames - 1)
    load = _parse_load(args.tl, args.t, dt if args.unsupervised else min(cc.MAX_STEP, dt))
    model = fp.Pinn3ccModel(
        params, t_scale=args.t, spec=fp.PinnSpec(args.hidden, args.activation), seed=args.seed
    )
    cfg = TrainConfig(
        batch_size=32, lr=args.lr, epochs=args.epochs, patience=args.patience,
        min_delta=1e-10, seed=args.seed, lr_decay=0.7, decay_patience=max(args.patience // 3, 1),
    )
    if args.unsupervised:
        model, history = fp.train_unsupervised(model, load, cfg)
    else:
        traj = cc.simulate(None, load, params)
        idx = fp.training_indices(load, args.frames)
        data = fp.data_from_trajectory(traj, load, idx)
        model, history = fp.train_supervised(model, data, cfg)
    outdir = Path(args.out)
    fp.save_model(outdir / f"pinn_{args.joint}.json", model, meta={"joint": args.joint})
    sq.write_table(outdir / "training_log.csv", ",".join(["epoch", *fp.LOSS_TERMS]), (
        np.array([e["epoch"] for e in history]), np.array([[e[k] for k in fp.LOSS_TERMS] for e in history])))
    cc3 = dataclasses.asdict(params)
    return {**cc3, "cc3": cc3}  # the trained rates replace unset --F/--R/--LD/--LR


# train-dyn seeds model j of a kind with seed * 100 + offset + j.
_SEED_OFFSET = {"id": 10, "fd": 20}


def _cmd_train_dyn(args) -> dict:
    trials, _, _ = armdyn.load_dataset(args.data)
    train_trials, _ = sq.split_train_test(trials, args.train_fraction, args.seed)
    angle_norm = sq.fit_normalizer([t.motion for t in train_trials])
    torque_norm = sq.fit_normalizer([t.torque for t in train_trials])
    joint_names = trials[0].motion.joint_names
    joints = list(joint_names) if args.joint == "all" else [args.joint]
    kinds = ["id", "fd"] if args.kind == "both" else [args.kind]
    # Everything is checked before anything is written; each model gets its own seed.
    for joint in joints:
        if joint not in joint_names:
            raise ParameterError(f"joint {joint!r} not in dataset ({joint_names})")
    jobs = [(joint, joint_names.index(joint), kind) for joint in joints for kind in kinds]
    spec = sg.BiLstmSpec(args.layers, args.hidden)
    base_cfg = sg.desk_train_config(args.epochs, args.lr)
    outdir = Path(args.out)
    n = len(joint_names)
    for joint, j, kind in jobs:
        samples = sg.make_samples(train_trials, kind, j, angle_norm, torque_norm)
        model = sg.BiLstmModel(n, spec, kind=kind, seed=args.seed * 100 + _SEED_OFFSET[kind] + j)
        cfg = dataclasses.replace(base_cfg, seed=args.seed * 10 + j)
        model, history = sg.train_dyn(model, samples, cfg, window=args.window,
                                      window_stride=args.window_stride)
        stem = f"{kind}_{joint}"
        input_norm, target_norm = sg.model_io(kind, angle_norm, torque_norm)
        sg.save_model(
            outdir / f"{stem}.json", model, joint=joint,
            input_norm=input_norm, target_norm=target_norm, tau_max=torque_norm.abs_max(joint),
        )
        sq.write_table(outdir / f"{stem}_log.csv", "epoch,train_mse", (
            np.array([e["epoch"] for e in history]), np.array([e["train_loss"] for e in history])))
        print(f"trained {stem}: {len(history) - 1} epochs")
    return {"joints": joints}


def _load_model_dir(modeldir: Path):
    """ID and FD checkpoints of one train-dyn run.

    Every checkpoint must carry the same normalization (angles in and
    torques out for ID, the reverse for FD), and the ID and FD sets must
    cover the same joints, once each; otherwise DataFormatError.
    """
    models = {"id": {}, "fd": {}}
    reference = None  # (first checkpoint path, its (angle, torque) normalization)
    for kind in ("id", "fd"):
        for path in sorted(modeldir.glob(f"{kind}_*.json")):
            model, meta = sg.load_model(path)
            with reading(path):
                joint, inp, tgt = meta["joint"], meta["input_norm"], meta["target_norm"]
            if not isinstance(joint, str):
                raise DataFormatError(f"{path}: checkpoint meta joint must be a string")
            if joint in models[kind]:
                raise DataFormatError(f"{path}: second {kind.upper()} checkpoint for joint {joint!r}")
            norms = sg.model_io(kind, inp, tgt)
            if reference is None:
                reference = (path, norms)
            elif norms != reference[1]:
                raise DataFormatError(f"{path}: normalization differs from {reference[0].name}")
            models[kind][joint] = model
    id_models, fd_models = models["id"], models["fd"]
    if not id_models or not fd_models:
        raise DataFormatError(f"{modeldir}: no id_*/fd_* checkpoints found")
    if set(id_models) != set(fd_models):
        raise DataFormatError(
            f"{modeldir}: ID joints {sorted(id_models)} differ from FD joints {sorted(fd_models)}"
        )
    with reading(reference[0]):
        angle_norm, torque_norm = (sq.NormalizationParams.from_dict(d) for d in reference[1])
    return id_models, fd_models, angle_norm, torque_norm


def _cmd_apply_fatigue(args) -> dict:
    motion = sq.load_sequence(args.motion)
    profiles = cc.load_profiles(args.profiles)
    id_models, fd_models, angle_norm, torque_norm = _load_model_dir(Path(args.models))
    level = None
    if args.mode != "dynamic":
        if not args.mode.startswith("fixed:"):
            raise ParameterError(f"mode must be 'dynamic' or 'fixed:<level>', got {args.mode!r}")
        try:
            level = float(args.mode[len("fixed:"):])
        except ValueError:
            raise ParameterError(f"cannot parse mode {args.mode!r}: level is not a number") from None
    config = pl.PipelineConfig(
        angle_norm, torque_norm, id_models, fd_models, profiles, fixed_level=level, seed=args.seed,
    )
    fatigued, report = pl.apply_fatigue(motion, config)
    outdir = Path(args.out)
    sq.save_sequence(fatigued, outdir / "fatigued.csv")
    sq.save_sequence(report.baseline, outdir / "baseline.csv")
    report.save(outdir / "report.json")
    return {"pipeline_hash": report.metadata["config_hash"]}


def _cmd_eval(args) -> None:
    truth = sq.load_sequence(args.truth)
    pred = sq.load_alike(args.pred, truth, args.truth)
    metrics = {}
    for i, name in enumerate(truth.joint_names):
        metrics[name] = {
            "nrmse": pl.nrmse(pred.frames[:, i], truth.frames[:, i]),
            "r2": pl.r_squared(pred.frames[:, i], truth.frames[:, i]),
        }
        print(f"{name}: NRMSE={metrics[name]['nrmse']:.4f}% R2={metrics[name]['r2']:.5f}")
    if args.out:
        write_json(Path(args.out) / "metrics.json", metrics, indent=2, sort_keys=True)


def _cmd_export_curves(args) -> dict:
    """Each run's label names its files, so labels must be non-empty, distinct
    and free of path separators; all are checked before anything is read."""
    specs = {}
    for spec in args.run:
        label, sep, rundir = spec.partition("=")
        if not sep:
            raise ParameterError(f"--run wants label=apply-fatigue-dir, got {spec!r}")
        if not label or "/" in label or os.sep in label:
            raise ParameterError(f"--run label must be non-empty with no path separator, got {label!r}")
        if label in specs:
            raise ParameterError(f"--run label {label!r} given twice")
        specs[label] = Path(rundir)
    baseline = sq.load_sequence(args.baseline)
    runs = [(label, sq.load_alike(rundir / "fatigued.csv", baseline, args.baseline),
             pl.load_traces(rundir / "report.json")) for label, rundir in specs.items()]
    return {"files": pl.export_curves(baseline, runs, Path(args.out))}


# --- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: its actions, groups
    and formatters reference each other, so a parser per :func:`run` call
    left some 500 objects a call for the cyclic garbage collector."""
    parser = _Parser(prog="fatiguemotion", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-data", parents=[common], help="generate the 2-link oracle dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--segments", type=int, default=2)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("sim-3cc", parents=[common], help="simulate the three-compartment fatigue model")
    p.add_argument("--F", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--LD", type=float, default=cc.Cc3Params.LD)
    p.add_argument("--LR", type=float, default=cc.Cc3Params.LR)
    p.add_argument("--tl", default="const:100", help="const:<value> or csv:<path>")
    p.add_argument("--t", type=float, required=True, help="duration in seconds")
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sim_3cc)

    p = sub.add_parser("train-pinn", parents=[common], help="train the fatigue network on simulated pools")
    p.add_argument("--joint", default="elbow")
    for rate, default in dataclasses.asdict(cc.ELBOW).items():
        p.add_argument(f"--{rate}", type=float, help=f"default {default} (elbow)")
    p.add_argument("--profiles", help="fatigue profile JSON with the rates (no --F/--R/--LD/--LR)")
    p.add_argument("--tl", default="const:50")
    p.add_argument("--t", type=float, default=200.0)
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--hidden", type=int, default=fp.PinnSpec.hidden)
    p.add_argument("--activation", choices=("relu", "tanh"), default=fp.PinnSpec.activation)
    p.add_argument("--epochs", type=int, default=3000)
    p.add_argument("--patience", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--unsupervised", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_pinn)

    p = sub.add_parser("train-dyn", parents=[common], help="train inverse/forward dynamics surrogates")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--kind", choices=("id", "fd", "both"), default="both")
    p.add_argument("--joint", default="all")
    p.add_argument("--layers", type=int, default=sg.DESK_SPEC.n_layers)
    p.add_argument("--hidden", type=int, default=sg.DESK_SPEC.hidden)
    p.add_argument("--epochs", type=int, default=45)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--window", type=int, default=sg.DESK_WINDOW)
    p.add_argument("--window-stride", type=int, default=sg.DESK_WINDOW_STRIDE)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_dyn)

    p = sub.add_parser("apply-fatigue", parents=[common], help="run the full fatigue pipeline on a motion")
    p.add_argument("--motion", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--models", required=True, help="train-dyn output directory")
    p.add_argument("--mode", default="dynamic", help="dynamic or fixed:<level>")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_apply_fatigue)

    p = sub.add_parser("eval", parents=[common], help="NRMSE/R2 between two sequence CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("export-curves", parents=[common], help="per-joint normalized curve CSVs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--run", action="append", required=True, help="label=apply-fatigue-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_curves)
    return parser


@functools.cache
def _keep_heap() -> None:
    """Keep freed memory on the heap between training batches. By default
    glibc trims the ~15 MB a desk training batch frees from the top of the
    heap and faults it back in on the next batch. Both thresholds are set:
    setting the trim threshold alone also freezes the mmap threshold at
    128 KiB, so every large array is mapped and unmapped instead. Does
    nothing where ``mallopt`` is missing (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB come from the heap
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: up to 256 MiB freed at its top stays


def run(argv) -> int:
    _keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        facts = args.fn(args)
        if args.out:
            _write_manifest(args, argv, facts or {})
        return 0
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (FatigueMotionError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
