"""Command-line entry point.

Subcommands: gen-data, sim-3cc, train-pinn, train-dyn, apply-fatigue, eval,
export-curves. Every artifact directory receives a manifest.json holding the
command line, seed, resolved configuration and its hash, so any run can be
reproduced. Exit codes: 0 success, 1 usage, 2 data error, 3 numeric error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
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
from .errors import DataFormatError, FatigueMotionError, NumericError, ParameterError
from .nncore import TrainConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_manifest(outdir: Path, command: str, argv, seed: int, config: dict,
                    base: dict | None = None) -> None:
    """Write the run manifest; keys of ``base`` (a dataset manifest) are kept."""
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        **(base or {}),
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "package_version": __version__,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"seed={seed} config_hash={doc['config_hash'][:12]} -> {outdir}")


def _parse_load(spec: str, duration: float, dt: float) -> cc.LoadProfile:
    if spec.startswith("const:"):
        try:
            level = float(spec[len("const:"):])
        except ValueError:
            raise ParameterError(f"cannot parse load spec {spec!r}: not a number") from None
        return cc.LoadProfile.constant(level, duration, dt)
    if spec.startswith("csv:"):
        path = spec[len("csv:"):]
        values = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.lower() in ("tl", "target_load"):
                    continue
                try:
                    values.append(float(line))
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: target load {line!r} is not a number") from None
        return cc.LoadProfile(np.array(values), dt)
    raise ParameterError(f"cannot parse load spec {spec!r} (use const:<value> or csv:<path>)")


# --- subcommands ----------------------------------------------------------------

def _cmd_gen_data(args, argv) -> int:
    params = armdyn.ArmParams()
    trials = armdyn.generate_dataset(
        params, args.trials, args.frames, args.dt, args.seed, n_segments=args.segments
    )
    outdir = Path(args.out)
    dataset = armdyn.save_dataset(trials, params, outdir, meta={"seed": args.seed})
    config = {
        "trials": args.trials, "frames": args.frames, "dt": args.dt,
        "segments": args.segments, "arm_params": params.to_dict(),
    }
    # One manifest: the dataset keys train-dyn reads plus the run record.
    _write_manifest(outdir, "gen-data", argv, args.seed, config, base=dataset)
    return 0


def _cmd_sim_3cc(args, argv) -> int:
    params = cc.Cc3Params(args.F, args.R, args.LD, args.LR)
    load = _parse_load(args.tl, args.t, args.dt)
    traj = cc.simulate(None, load, params)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cc.trajectory_to_csv(traj, outdir / "trajectory.csv", lam=args.lam)
    config = {
        "F": args.F, "R": args.R, "LD": args.LD, "LR": args.LR,
        "tl": args.tl, "t": args.t, "dt": args.dt, "lambda": args.lam,
    }
    _write_manifest(outdir, "sim-3cc", argv, args.seed, config)
    return 0


def _cmd_train_pinn(args, argv) -> int:
    if args.profiles:
        profile = cc.load_profiles(args.profiles).get(args.joint)
        if profile is None:
            raise ParameterError(f"no profile for joint {args.joint!r} in {args.profiles}")
        params = profile.cc3
    else:
        params = cc.Cc3Params(args.F, args.R, args.LD, args.LR)
    if args.frames < 2:
        raise ParameterError(f"--frames must be >= 2, got {args.frames}")
    fine_dt = min(0.05, args.t / max(args.frames - 1, 1))
    load_fine = _parse_load(args.tl, args.t, fine_dt)
    colloc_dt = args.t / (args.frames - 1)
    load = _parse_load(args.tl, args.t, colloc_dt)
    model = fp.Pinn3ccModel(
        params, t_scale=args.t, spec=fp.PinnSpec(args.hidden, args.activation), seed=args.seed
    )
    cfg = TrainConfig(
        batch_size=32, lr=args.lr, epochs=args.epochs, patience=args.patience,
        min_delta=1e-10, seed=args.seed, lr_decay=0.7, decay_patience=max(args.patience // 3, 1),
    )
    if args.unsupervised:
        model, history = fp.train_unsupervised(model, load, cfg)
        data_key = "L_BC"
    else:
        traj = cc.simulate(None, load_fine, params)
        idx = fp.training_indices(load_fine, args.frames)
        data = fp.data_from_trajectory(traj, load_fine, idx)
        model, history = fp.train_supervised(model, data, cfg)
        data_key = "L_NN"
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fp.save_model(outdir / f"pinn_{args.joint}.json", model, meta={"joint": args.joint})
    with open(outdir / "training_log.csv", "w") as fh:
        fh.write("epoch,L_total,L_NN_or_BC,L_PB\n")
        for entry in history:
            fh.write(f"{entry['epoch']},{entry['L_total']!r},{entry[data_key]!r},{entry['L_PB']!r}\n")
    config = {
        "joint": args.joint, "cc3": {"F": params.F, "R": params.R, "LD": params.LD, "LR": params.LR},
        "tl": args.tl, "t": args.t, "frames": args.frames, "hidden": args.hidden,
        "activation": args.activation, "epochs": args.epochs, "lr": args.lr,
        "unsupervised": args.unsupervised,
    }
    _write_manifest(outdir, "train-pinn", argv, args.seed, config)
    return 0


# train-dyn seeds model j of a kind with seed * 100 + offset + j.
_SEED_OFFSET = {"id": 10, "fd": 20}


def _cmd_train_dyn(args, argv) -> int:
    trials, arm_params, manifest = armdyn.load_dataset(args.data)
    train_trials, _ = sq.split_train_test(trials, args.train_fraction, args.seed)
    angle_norm = sq.fit_normalizer([t.motion for t in train_trials])
    torque_norm = sq.fit_normalizer([t.torque for t in train_trials])
    joint_names = trials[0].motion.joint_names
    joints = list(joint_names) if args.joint == "all" else [args.joint]
    kinds = ["id", "fd"] if args.kind == "both" else [args.kind]
    spec = sg.BiLstmSpec(args.layers, args.hidden)
    # Checked before anything is written; each model gets its own seed.
    base_cfg = dataclasses.replace(sg.desk_train_config(epochs=args.epochs), lr=args.lr)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    angle_norm.save(outdir / "angle_norm.json")
    torque_norm.save(outdir / "torque_norm.json")
    n = len(joint_names)
    for joint in joints:
        if joint not in joint_names:
            raise ParameterError(f"joint {joint!r} not in dataset ({joint_names})")
        j = joint_names.index(joint)
        for kind in kinds:
            samples = sg.make_samples(train_trials, kind, j, angle_norm, torque_norm)
            model = sg.BiLstmModel(n, 1, spec, kind=kind, seed=args.seed * 100 + _SEED_OFFSET[kind] + j)
            cfg = dataclasses.replace(base_cfg, seed=args.seed * 10 + j)
            physics = arm_params if (args.physics and kind == "id") else None
            model, history = sg.train_dyn(
                model, samples, cfg, physics=physics,
                window=args.window, window_stride=args.window_stride,
            )
            stem = f"{kind}_{joint}"
            input_norm, target_norm = sg.model_io(kind, angle_norm, torque_norm)
            tau_max = float(max(abs(torque_norm.lo[j]), abs(torque_norm.hi[j])))
            sg.save_model(
                outdir / f"{stem}.json", model, joint=joint,
                input_norm=input_norm, target_norm=target_norm, tau_max=tau_max,
            )
            with open(outdir / f"{stem}_log.csv", "w") as fh:
                fh.write("epoch,train_mse" + (",physics_residual" if physics else "") + "\n")
                for e in history:
                    cells = [str(e["epoch"]), repr(e["train_mse"])]
                    if physics:
                        cells.append(repr(e["physics_residual"]))
                    fh.write(",".join(cells) + "\n")
            print(f"trained {stem}: {len(history) - 1} epochs")
    config = {
        "data": str(args.data), "kind": args.kind, "joints": joints,
        "layers": args.layers, "hidden": args.hidden, "epochs": args.epochs, "lr": args.lr,
        "window": args.window, "window_stride": args.window_stride,
        "physics": args.physics, "train_fraction": args.train_fraction,
    }
    _write_manifest(outdir, "train-dyn", argv, args.seed, config)
    return 0


def _load_model_dir(modeldir: Path):
    """ID and FD checkpoints of one train-dyn run.

    Every checkpoint must carry the same normalization (angles in and
    torques out for ID, the reverse for FD), and the ID and FD sets must
    cover the same joints, once each; otherwise DataFormatError.
    """
    models = {"id": {}, "fd": {}}
    tau_max = {}
    reference = None  # (first checkpoint path, its (angle, torque) normalization)
    for kind in ("id", "fd"):
        for path in sorted(modeldir.glob(f"{kind}_*.json")):
            model, meta = sg.load_model(path)
            try:
                joint = meta["joint"]
                inp, tgt = meta["input_norm"], meta["target_norm"]
            except KeyError as exc:
                raise DataFormatError(f"{path}: checkpoint meta lacks {exc}") from None
            if joint in models[kind]:
                raise DataFormatError(f"{path}: second {kind.upper()} checkpoint for joint {joint!r}")
            norms = (inp, tgt) if kind == "id" else (tgt, inp)
            if reference is None:
                reference = (path, norms)
            elif norms != reference[1]:
                raise DataFormatError(f"{path}: normalization differs from {reference[0].name}")
            models[kind][joint] = model
            if kind == "id":
                tau_max[joint] = meta.get("tau_max")
    id_models, fd_models = models["id"], models["fd"]
    if not id_models or not fd_models:
        raise DataFormatError(f"{modeldir}: no id_*/fd_* checkpoints found")
    if set(id_models) != set(fd_models):
        raise DataFormatError(
            f"{modeldir}: ID joints {sorted(id_models)} differ from FD joints {sorted(fd_models)}"
        )
    angle_norm, torque_norm = (sq.NormalizationParams.from_dict(d) for d in reference[1])
    return id_models, fd_models, angle_norm, torque_norm, tau_max


def _cmd_apply_fatigue(args, argv) -> int:
    motion = sq.load_sequence(args.motion, kind="angle")
    profiles = cc.load_profiles(args.profiles)
    id_models, fd_models, angle_norm, torque_norm, tau_max = _load_model_dir(Path(args.models))
    if args.mode == "dynamic":
        mode, level = "dynamic", None
    elif args.mode.startswith("fixed:"):
        try:
            mode, level = "fixed", float(args.mode[len("fixed:"):])
        except ValueError:
            raise ParameterError(f"cannot parse mode {args.mode!r}: level is not a number") from None
    else:
        raise ParameterError(f"mode must be 'dynamic' or 'fixed:<level>', got {args.mode!r}")
    config = pl.PipelineConfig(
        angle_norm, torque_norm, id_models, fd_models, profiles,
        mode=mode, fixed_level=level,
        tau_max={k: v for k, v in tau_max.items() if v is not None} or None,
        seed=args.seed,
    )
    fatigued, report = pl.apply_fatigue(motion, config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sq.save_sequence(fatigued, outdir / "fatigued.csv")
    sq.save_sequence(report.baseline, outdir / "baseline.csv")
    report.save(outdir / "report.json")
    _write_manifest(outdir, "apply-fatigue", argv, args.seed, {
        "motion": str(args.motion), "profiles": str(args.profiles),
        "models": str(args.models), "mode": args.mode,
        "pipeline_hash": config.config_hash(),
    })
    return 0


def _cmd_eval(args, argv) -> int:
    pred = sq.load_sequence(args.pred, kind="angle")
    truth = sq.load_sequence(args.truth, kind="angle")
    if pred.joint_names != truth.joint_names:
        raise DataFormatError("joint sets differ between pred and truth")
    metrics = {}
    for i, name in enumerate(truth.joint_names):
        metrics[name] = {
            "nrmse": pl.nrmse(pred.frames[:, i], truth.frames[:, i]),
            "r2": pl.r_squared(pred.frames[:, i], truth.frames[:, i]),
        }
        print(f"{name}: NRMSE={metrics[name]['nrmse']:.4f}% R2={metrics[name]['r2']:.5f}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "metrics.json", "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(outdir, "eval", argv, args.seed,
                        {"pred": str(args.pred), "truth": str(args.truth)})
    return 0


def _cmd_export_curves(args, argv) -> int:
    baseline = sq.load_sequence(args.baseline, kind="angle")
    runs = []
    for spec in args.run:
        if "=" not in spec:
            raise ParameterError(f"--run wants label=apply-fatigue-dir, got {spec!r}")
        label, rundir = spec.split("=", 1)
        rundir = Path(rundir)
        fatigued = sq.load_sequence(rundir / "fatigued.csv", kind="angle")
        runs.append((label, fatigued, pl.load_traces(rundir / "report.json")))
    outdir = Path(args.out)
    written = pl.export_curves(baseline, runs, outdir)
    _write_manifest(outdir, "export-curves", argv, args.seed,
                    {"baseline": str(args.baseline), "runs": list(args.run), "files": written})
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="fatiguemotion", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="generate the 2-link oracle dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--segments", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("sim-3cc", help="simulate the three-compartment fatigue model")
    p.add_argument("--F", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--LD", type=float, default=10.0)
    p.add_argument("--LR", type=float, default=10.0)
    p.add_argument("--tl", default="const:100", help="const:<value> or csv:<path>")
    p.add_argument("--t", type=float, required=True, help="duration in seconds")
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sim_3cc)

    p = sub.add_parser("train-pinn", help="train the fatigue network on simulated pools")
    p.add_argument("--joint", default="elbow")
    p.add_argument("--F", type=float, default=cc.ELBOW.F)
    p.add_argument("--R", type=float, default=cc.ELBOW.R)
    p.add_argument("--LD", type=float, default=10.0)
    p.add_argument("--LR", type=float, default=10.0)
    p.add_argument("--profiles", help="fatigue profile JSON overriding --F/--R")
    p.add_argument("--tl", default="const:50")
    p.add_argument("--t", type=float, default=200.0)
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--epochs", type=int, default=3000)
    p.add_argument("--patience", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--unsupervised", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_pinn)

    p = sub.add_parser("train-dyn", help="train inverse/forward dynamics surrogates")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--kind", choices=("id", "fd", "both"), default="both")
    p.add_argument("--joint", default="all")
    p.add_argument("--layers", type=int, default=sg.DESK_SPEC.n_layers)
    p.add_argument("--hidden", type=int, default=sg.DESK_SPEC.hidden)
    p.add_argument("--epochs", type=int, default=45)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--window", type=int, default=sg.DESK_WINDOW)
    p.add_argument("--window-stride", type=int, default=sg.DESK_WINDOW_STRIDE)
    p.add_argument("--physics", action="store_true")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_dyn)

    p = sub.add_parser("apply-fatigue", help="run the full fatigue pipeline on a motion")
    p.add_argument("--motion", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--models", required=True, help="train-dyn output directory")
    p.add_argument("--mode", default="dynamic", help="dynamic or fixed:<level>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_apply_fatigue)

    p = sub.add_parser("eval", help="NRMSE/R2 between two sequence CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("export-curves", help="per-joint normalized curve CSVs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--run", action="append", required=True, help="label=apply-fatigue-dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_curves)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, argv)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (FatigueMotionError, FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
