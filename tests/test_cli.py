import binascii
import builtins
import hashlib
import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from fatiguemotion import arm, fatigue_pinn, nncore, surrogates
from fatiguemotion import compartments as cc
from fatiguemotion.cli import _parse_load, build_parser, main, run
from fatiguemotion.errors import DataFormatError, NumericError
from fatiguemotion.surrogates import BANK_CHUNK

from test_surrogates import refuse_to_build

TINY_DYN = ["--layers", "1", "--hidden", "4", "--epochs", "1", "--window", "20",
            "--window-stride", "10", "--seed", "0"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """gen-data -> train-dyn on a tiny dataset; returns the work directory."""
    d = tmp_path_factory.mktemp("chain")
    assert run(["gen-data", "--out", str(d / "data"), "--trials", "4", "--frames", "40",
                "--seed", "1"]) == 0
    assert run(["train-dyn", "--data", str(d / "data"), "--out", str(d / "models"), *TINY_DYN]) == 0
    cc.save_profiles([cc.FatigueProfile("elbow", F=0.5, R=0.01, lam=0.8)], d / "profiles.json")
    return d


def _apply(d, models, out, *extra, profiles=None, motion=None):
    return run(["apply-fatigue", "--motion", str(motion or d / "data" / "trial000_angles.csv"),
                "--profiles", str(profiles or d / "profiles.json"), "--models", str(models),
                "--out", str(out), *extra])


class TestChain:
    def test_gen_data_writes_its_manifest_once(self, tmp_path, monkeypatch):
        writes = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if Path(file).name == "manifest.json" and "w" in mode:
                writes.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert run(["gen-data", "--out", str(tmp_path / "data"), "--trials", "2", "--frames", "20"]) == 0
        assert len(writes) == 1

    def test_gen_data_manifest_keeps_dataset_keys(self, trained):
        doc = json.loads((trained / "data" / "manifest.json").read_text())
        assert {"arm_params", "trials", "command", "config_hash"} <= set(doc)
        assert doc["command"] == "gen-data"
        assert "arm_params" not in doc["config"]  # kept once, at the top level

    def test_apply_eval_export(self, trained, tmp_path):
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        for name in ("fatigued.csv", "baseline.csv", "report.json", "manifest.json"):
            assert (tmp_path / "apply" / name).is_file()
        assert run(["eval", "--pred", str(tmp_path / "apply" / "fatigued.csv"),
                    "--truth", str(tmp_path / "apply" / "baseline.csv"),
                    "--out", str(tmp_path / "eval")]) == 0
        assert (tmp_path / "eval" / "metrics.json").is_file()
        assert run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"),
                    "--run", f"tired={tmp_path / 'apply'}", "--out", str(tmp_path / "curves")]) == 0
        assert (tmp_path / "curves" / "elbow_tired_compartments.csv").is_file()

    def test_apply_rerun_byte_identical(self, trained, tmp_path):
        for out in ("a", "b"):
            assert _apply(trained, trained / "models", tmp_path / out) == 0
        for name in ("fatigued.csv", "baseline.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fixed_mode(self, trained, tmp_path):
        assert _apply(trained, trained / "models", tmp_path / "fixed", "--mode", "fixed:70") == 0
        for mode in ("fixed:abc", "fixed:150", "fixed:nan", "tired"):
            assert _apply(trained, trained / "models", tmp_path / "bad", "--mode", mode) == 2
            assert not (tmp_path / "bad").exists()

    def test_mixed_architectures_accepted(self, trained, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        assert run(["train-dyn", "--data", str(trained / "data"), "--out", str(tmp_path / "wide"),
                    "--kind", "id", "--joint", "elbow", *TINY_DYN[:2], "--hidden", "6",
                    *TINY_DYN[4:]]) == 0
        shutil.copy(tmp_path / "wide" / "id_elbow.json", models / "id_elbow.json")
        assert _apply(trained, models, tmp_path / "apply") == 0


# train-pinn's rates when neither --F/--R/--LD/--LR nor --profiles sets them
TRAIN_PINN_RATES = {"F": cc.ELBOW.F, "R": cc.ELBOW.R, "LD": cc.ELBOW.LD, "LR": cc.ELBOW.LR}


def _manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestManifest:
    """run writes each manifest from the parsed arguments."""

    COMMANDS = {
        "gen-data": lambda d, tmp: ["gen-data", "--trials", "2", "--frames", "20", "--segments", "1",
                                    "--seed", "4"],
        "sim-3cc": lambda d, tmp: ["sim-3cc", "--F", "0.02", "--R", "0.002", "--t", "2", "--lambda", "0.7"],
        "train-pinn": lambda d, tmp: ["train-pinn", *TINY_PINN, "--epochs", "2", "--patience", "5"],
        "train-dyn": lambda d, tmp: ["train-dyn", "--data", d / "data", *TINY_DYN, "--kind", "id",
                                     "--joint", "elbow"],
        "apply-fatigue": lambda d, tmp: ["apply-fatigue", "--motion", d / "data" / "trial000_angles.csv",
                                         "--profiles", d / "profiles.json", "--models", d / "models",
                                         "--mode", "fixed:70"],
        "eval": lambda d, tmp: ["eval", "--pred", d / "data" / "trial001_angles.csv",
                                "--truth", d / "data" / "trial000_angles.csv"],
        "export-curves": lambda d, tmp: ["export-curves", "--baseline", tmp / "apply" / "baseline.csv",
                                         "--run", f"tired={tmp / 'apply'}"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_holds_every_parsed_argument(self, trained, tmp_path, command):
        if command == "export-curves":
            assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        argv = [str(a) for a in self.COMMANDS[command](trained, tmp_path)] + ["--out", str(tmp_path / "out")]
        assert run(argv) == 0
        parsed = vars(build_parser().parse_args(argv))
        doc = _manifest(tmp_path / "out")
        assert (doc["command"], doc["argv"], doc["seed"]) == (command, argv, parsed["seed"])
        for key, value in parsed.items():
            if key not in ("fn", "command", "seed", "out"):
                if command == "train-pinn" and key in TRAIN_PINN_RATES:
                    # an unset rate is recorded as the elbow default it trained with
                    value = TRAIN_PINN_RATES[key] if value is None else value
                assert doc["config"][key] == value, key

    def test_train_pinn_patience_changes_hash(self, tmp_path):
        hashes = set()
        for patience in ("1", "100"):
            out = tmp_path / patience
            assert run(["train-pinn", *TINY_PINN, "--epochs", "2", "--patience", patience,
                        "--out", str(out)]) == 0
            hashes.add(_manifest(out)["config_hash"])
        assert len(hashes) == 2

    def test_train_pinn_profiles(self, tmp_path):
        cc.save_profiles([cc.FatigueProfile("shoulder", F=0.3, R=0.02, LD=8.0, LR=12.0, lam=0.9)],
                         tmp_path / "profiles.json")
        argv = ["train-pinn", *TINY_PINN, "--epochs", "2", "--profiles", str(tmp_path / "profiles.json")]
        assert run([*argv, "--joint", "shoulder", "--out", str(tmp_path / "out")]) == 0
        rates = {"F": 0.3, "R": 0.02, "LD": 8.0, "LR": 12.0}
        checkpoint = json.loads((tmp_path / "out" / "pinn_shoulder.json").read_text())
        assert checkpoint["architecture"]["cc3"] == rates
        config = _manifest(tmp_path / "out")["config"]
        assert config["cc3"] == rates
        assert {k: config[k] for k in rates} == rates  # not the unused elbow defaults
        assert run([*argv, "--joint", "elbow", "--out", str(tmp_path / "missing")]) == 2
        assert not (tmp_path / "missing").exists()

    def test_train_pinn_profiles_exclude_explicit_rates(self, tmp_path, capsys):
        cc.save_profiles([cc.FatigueProfile("elbow", F=0.3, R=0.02)], tmp_path / "profiles.json")
        code = run(["train-pinn", *TINY_PINN, "--epochs", "2", "--profiles", str(tmp_path / "profiles.json"),
                    "--F", "0.5", "--LR", "3", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--F, --LR" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_pinn_default_config_hash(self, tmp_path):
        # recorded when --F/--R/--LD/--LR defaulted to the elbow rates in the parser
        assert run(["train-pinn", *TINY_PINN, "--epochs", "2", "--patience", "5",
                    "--out", str(tmp_path / "out")]) == 0
        doc = _manifest(tmp_path / "out")
        assert {k: doc["config"][k] for k in TRAIN_PINN_RATES} == TRAIN_PINN_RATES
        assert doc["config_hash"] == "c4d0a3b69f0fcd00ffc54575672263c418e0c82dc2025b31d4e9660e6d468cce"

    @pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--no-such-flag"], 1)],
                             ids=["version", "unknown-flag"])
    def test_main_exits_with_run_code(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr("sys.argv", ["fatiguemotion", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code


class TestModelDirectoryChecks:
    def _copy(self, trained, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        return models

    def test_normalization_disagreement(self, trained, tmp_path):
        models = self._copy(trained, tmp_path)
        path = models / "fd_elbow.json"
        doc = json.loads(path.read_text())
        doc["meta"]["input_norm"]["max"][0] += 1.0
        path.write_text(json.dumps(doc))
        assert _apply(trained, models, tmp_path / "out") == 2

    def test_joint_set_disagreement(self, trained, tmp_path):
        models = self._copy(trained, tmp_path)
        (models / "fd_shoulder.json").unlink()
        assert _apply(trained, models, tmp_path / "out") == 2

    def test_truncated_checkpoint(self, trained, tmp_path):
        models = self._copy(trained, tmp_path)
        path = models / "id_shoulder.json"
        doc = json.loads(path.read_text())
        doc["params"] = nncore.encode_params(nncore.decode_params(doc["params"])[:-1])
        path.write_text(json.dumps(doc))
        assert _apply(trained, models, tmp_path / "out") == 2


ELBOW_ENTRY = {"joint": "elbow", "F": 0.5, "R": 0.01, "LD": 10.0, "LR": 10.0, "lambda": 0.8}


class TestProfileFiles:
    @pytest.mark.parametrize("doc", [
        [{k: v for k, v in ELBOW_ENTRY.items() if k != "lambda"}],
        [{**ELBOW_ENTRY, "lam": 0.8}],
        [ELBOW_ENTRY, 3],
        [ELBOW_ENTRY, {**ELBOW_ENTRY, "lambda": 0.5}],
        [{**ELBOW_ENTRY, "F": "fast"}],
        [{**ELBOW_ENTRY, "joint": ["elbow"]}],
        "elbow",
        [{**ELBOW_ENTRY, "F": True}],
        [{**ELBOW_ENTRY, "lambda": "1"}],
        [{**ELBOW_ENTRY, "R": None}],
        [{**ELBOW_ENTRY, "LD": 10**400}],
        [{**ELBOW_ENTRY, "F": -1}],
        [{**ELBOW_ENTRY, "F": float("nan")}],
        [{**ELBOW_ENTRY, "lambda": 2}],
        [{**ELBOW_ENTRY, "LD": 1e5}],
        # bytes are the file itself: json.dumps refuses an integer of more than 4300 digits
        b'[{"joint": "elbow", "F": 1' + b"0" * 5000 + b', "R": 0.01, "lambda": 0.8}]',
    ], ids=["missing-lambda", "unknown-key", "non-object-entry", "repeated-joint",
            "non-numeric-rate", "non-string-joint", "not-a-list", "rate-true", "lambda-string",
            "rate-null", "rate-beyond-float", "rate-negative", "rate-nan", "lambda-2", "LD-past-the-step-floor",
            "integer-of-5001-digits"])
    def test_malformed_file(self, trained, tmp_path, capsys, doc):
        path = tmp_path / "profiles.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        assert _apply(trained, trained / "models", tmp_path / "out", profiles=path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and "Traceback" not in err
        if isinstance(doc, list):  # the message names the entry it refuses
            assert err.startswith(f"data error: {path}: entry {len(doc) - 1}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("F", True), ("lambda", "1"), ("R", None), ("LR", [1.0])],
                             ids=["rate-true", "lambda-string", "rate-null", "rate-list"])
    def test_non_number_names_entry_and_key(self, tmp_path, key, value):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([ELBOW_ENTRY, {**ELBOW_ENTRY, "joint": "shoulder", key: value}]))
        with pytest.raises(DataFormatError, match=rf"profiles\.json: entry 1: {key} must be a number, got "):
            cc.load_profiles(path)

    def test_negative_rate_in_fixed_mode(self, trained, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([{**ELBOW_ENTRY, "F": -0.5}]))
        assert _apply(trained, trained / "models", tmp_path / "out", "--mode", "fixed:70",
                      profiles=path) == 2


class TestUserErrors:
    def test_sim_3cc_frame_count_numpy_refuses(self, tmp_path, capsys):
        # 1e21 frames: numpy refuses the array's shape before allocating anything
        code = run(["sim-3cc", "--F", "0.02", "--R", "0.002", "--t", "1e12", "--dt", "1e-9",
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "frames" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, module, name", [
        (["train-pinn", "--frames", "12", "--t", "20", "--epochs", "1"], fatigue_pinn, "Pinn3ccModel"),
        (["gen-data", "--trials", "1", "--frames", "40"], arm, "generate_dataset"),
    ], ids=["train-pinn", "gen-data"])
    def test_allocation_numpy_refuses(self, tmp_path, capsys, monkeypatch, argv, module, name):
        # e.g. train-pinn --hidden 2000000 or gen-data --frames 100000000000;
        # the constructor raises as numpy would, so nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(module, name, refuse)
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "data error: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_non_numeric_load_csv(self, tmp_path, capsys):
        (tmp_path / "tl.csv").write_text("tl\n10\nabc\n")
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1",
                    "--tl", f"csv:{tmp_path / 'tl.csv'}", "--out", str(tmp_path / "out")])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["tl\n10\nnan\n30\n40\n", "tl\n10\n20\n30\nnan\n", "tl\n10\n140\n30\n40\n"],
                             ids=["nan-row", "nan-last-row", "beyond-100"])
    def test_nan_load_csv(self, tmp_path, capsys, rows):
        (tmp_path / "tl.csv").write_text(rows)
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "0.15", "--dt", "0.05",
                    "--tl", f"csv:{tmp_path / 'tl.csv'}", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'tl.csv'}: target load")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "0.15", "--dt", "0.05"],
        ["train-pinn", "--frames", "12", "--hidden", "4", "--t", "20", "--epochs", "2"],
    ], ids=["sim-3cc", "train-pinn"])
    def test_nan_constant_load(self, tmp_path, command):
        assert run([*command, "--tl", "const:nan", "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def _reader_case(self, trained, tmp_path, kind):
        """(path, argv) of a command that reads a copy of ``kind`` of file;
        argv lacks --out."""
        w = tmp_path / "w"
        shutil.copytree(trained, w)
        (w / "tl.csv").write_text("tl\n10\n20\n")
        apply = ["apply-fatigue", "--motion", w / "data" / "trial000_angles.csv",
                 "--profiles", w / "profiles.json", "--models", w / "models"]
        if kind == "report-json":
            assert run([str(a) for a in apply] + ["--out", str(w / "apply")]) == 0
        path, argv = {
            "sequence-csv": (w / "data" / "trial001_angles.csv",
                             ["eval", "--pred", w / "data" / "trial001_angles.csv",
                              "--truth", w / "data" / "trial000_angles.csv"]),
            "load-csv": (w / "tl.csv", ["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1",
                                        "--tl", f"csv:{w / 'tl.csv'}"]),
            "profiles-json": (w / "profiles.json", apply),
            "checkpoint": (w / "models" / "id_elbow.json", apply),
            "dataset-manifest": (w / "data" / "manifest.json", ["train-dyn", "--data", w / "data", *TINY_DYN]),
            "report-json": (w / "apply" / "report.json",
                            ["export-curves", "--baseline", w / "apply" / "baseline.csv",
                             "--run", f"tired={w / 'apply'}"]),
        }[kind]
        return path, [str(a) for a in argv]

    def _exits_naming(self, path, argv, tmp_path, capsys):
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["sequence-csv", "load-csv", "profiles-json", "checkpoint",
                                      "dataset-manifest", "report-json"])
    def test_non_utf8_byte(self, trained, tmp_path, capsys, kind):
        # 0xff, a byte no UTF-8 text holds, in each kind of file the CLI reads
        path, argv = self._reader_case(trained, tmp_path, kind)
        data = path.read_bytes()
        if path.suffix == ".json":  # the first string value starts with it
            data = data.replace(b': "', b': "\xff', 1)
        else:  # the first cell of the last row is it
            head, _, last = data.rstrip(b"\n").rpartition(b"\n")
            data = head + b"\n\xff" + last[1:] + b"\n"
        assert b"\xff" in data
        path.write_bytes(data)
        self._exits_naming(path, argv, tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["profiles-json", "checkpoint", "dataset-manifest", "report-json"])
    def test_malformed_json(self, trained, tmp_path, capsys, kind):
        # the file ends inside its first object
        path, argv = self._reader_case(trained, tmp_path, kind)
        text = path.read_text()
        path.write_text(text[: text.index(",")])
        self._exits_naming(path, argv, tmp_path, capsys)

    def test_dataset_manifest_trials_not_a_list_of_strings(self, trained, tmp_path, capsys):
        # a string once read as the stems "t", "r", "i", ... and failed on t_angles.csv
        path, argv = self._reader_case(trained, tmp_path, "dataset-manifest")
        for trials in ("trial000", ["trial000", 1]):
            path.write_text(json.dumps({**json.loads(path.read_text()), "trials": trials}))
            self._exits_naming(path, argv, tmp_path, capsys)

    @pytest.mark.parametrize("rate", ["1e5", "1e300"])
    def test_sim_3cc_refuses_controller_rates_past_the_step_floor(self, tmp_path, capsys, rate):
        # at 1e5/s sim-3cc once exited 0 with M_A = 0.0 on every row
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--LD", rate, "--LR", rate,
                    "--tl", "const:50", "--t", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "controller rate LD must be <= 10000/s" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lam", ["2", "-0.1", "nan"])
    def test_sim_3cc_lambda_checked_before_simulating(self, tmp_path, capsys, monkeypatch, lam):
        monkeypatch.setattr(cc, "simulate", lambda *a: pytest.fail("simulated with a bad --lambda"))
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1", "--lambda", lam,
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--lambda must be in [0,1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels, message", [
        (["", "tired"], "non-empty"),
        (["x", "x"], "given twice"),
        (["../x"], "path separator"),
        (["a/b"], "path separator"),
    ], ids=["empty", "duplicate", "parent-dir", "sub-dir"])
    def test_export_curves_run_labels(self, trained, tmp_path, capsys, labels, message):
        # a run's label names its files: it must be usable as part of one file name
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        runs = [arg for label in labels for arg in ("--run", f"{label}={tmp_path / 'apply'}")]
        code = run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"), *runs,
                    "--out", str(tmp_path / "curves")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curves").exists()

    def test_non_numeric_constant_load(self, tmp_path):
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1",
                    "--tl", "const:abc", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("segments", ["0", "-1"])
    def test_gen_data_bad_segments(self, tmp_path, capsys, segments):
        code = run(["gen-data", "--trials", "1", "--frames", "20", "--segments", segments,
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "n_segments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_pinn_single_frame(self, tmp_path):
        code = run(["train-pinn", "--frames", "1", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("t, dt", [("-1", "0.05"), ("nan", "0.05"), ("1", "0"), ("1e300", "1e-300")],
                             ids=["negative-duration", "nan-duration", "zero-dt", "steps-beyond-float"])
    def test_sim_3cc_bad_duration(self, tmp_path, t, dt):
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", t, "--dt", dt,
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_sim_3cc_duration_under_half_a_step(self, tmp_path, capsys):
        # 10 s at dt 20 once wrote a trajectory.csv holding only the t = 0 row
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "10", "--dt", "20",
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_sim_3cc_non_finite_dt(self, tmp_path, dt):
        (tmp_path / "tl.csv").write_text("tl\n10\n20\n")
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1", "--dt", dt,
                    "--tl", f"csv:{tmp_path / 'tl.csv'}", "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["dynamic", "fixed:70"])
    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_apply_fatigue_non_finite_dt(self, trained, tmp_path, capsys, dt, mode):
        rows = (trained / "data" / "trial000_angles.csv").read_text().split("\n", 1)[1]
        motion = tmp_path / "motion.csv"
        motion.write_text(f"# dt={dt}\n{rows}")
        assert _apply(trained, trained / "models", tmp_path / "out", "--mode", mode, motion=motion) == 2
        assert "motion.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sim_3cc_nan_rate(self, tmp_path):
        code = run(["sim-3cc", "--F", "nan", "--R", "0.001", "--t", "1", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_train_pinn_zero_duration(self, tmp_path):
        code = run(["train-pinn", "--t", "0", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_sim_3cc_load_csv_must_span_duration(self, tmp_path, capsys):
        (tmp_path / "tl.csv").write_text("tl\n10\n20\n30\n")  # 0.4 s at dt 0.2
        argv = ["sim-3cc", "--F", "0.01", "--R", "0.001", "--dt", "0.2", "--tl", f"csv:{tmp_path / 'tl.csv'}"]
        assert run([*argv, "--t", "1", "--out", str(tmp_path / "out")]) == 2
        assert "tl.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert run([*argv, "--t", "0.4", "--out", str(tmp_path / "ok")]) == 0
        assert len((tmp_path / "ok" / "trajectory.csv").read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("t", ["0.05", "-0.05"], ids=["under-half-a-step", "negative"])
    def test_sim_3cc_load_csv_refuses_a_duration_const_refuses(self, tmp_path, capsys, t):
        # a one-sample csv: load once exited 0 and wrote the t = 0 row only
        (tmp_path / "tl.csv").write_text("30\n")
        argv = ["sim-3cc", "--F", "0.01", "--R", "0.001", "--dt", "0.2", "--t", t]
        for tl in (f"csv:{tmp_path / 'tl.csv'}", "const:30"):
            assert run([*argv, "--tl", tl, "--out", str(tmp_path / "out")]) == 2
            assert "data error: duration" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


class TestLoadCsv:
    """csv: loads skip blank lines and tl/target_load headers wherever they stand."""

    @pytest.mark.parametrize("content", [
        b"tl\n10\n\n20.5\n\n\n30\n",
        b"tl\n10\nTARGET_LOAD\n20.5\nTl\n30\n",
        b"  TL \n\t10 \n 20.5\n  \n30\t\n",
        b"target_load\r\n10\r\n\r\n20.5\r\n30",
    ], ids=["blank-lines", "header-between-values", "whitespace", "crlf"])
    def test_same_profile(self, tmp_path, content):
        (tmp_path / "tl.csv").write_bytes(content)
        load = _parse_load(f"csv:{tmp_path / 'tl.csv'}", 0.4, 0.2)
        assert load.values.tolist() == [10.0, 20.5, 30.0]
        assert load.dt == 0.2

    def test_non_number_names_its_line(self, tmp_path):
        (tmp_path / "tl.csv").write_bytes(b"tl\r\n 10 \r\n\r\n 1O \r\n30\r\n")
        with pytest.raises(DataFormatError, match=r"tl\.csv:4: target load '1O' is not a number"):
            _parse_load(f"csv:{tmp_path / 'tl.csv'}", 0.4, 0.2)


class TestMalformedArtefacts:
    """A file of the wrong schema exits 2 with a message naming it."""

    def _edit_json(self, path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    def test_dataset_manifest_without_arm_params(self, trained, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(trained / "data", data)
        self._edit_json(data / "manifest.json", lambda doc: doc.pop("arm_params"))
        code = run(["train-dyn", "--data", str(data), "--out", str(tmp_path / "models"), *TINY_DYN])
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["architecture"].pop("n_in"),
        lambda doc: doc.pop("meta"),
        lambda doc: doc["params"].update(blob_b64="\u00e9" + doc["params"]["blob_b64"][1:]),
        lambda doc: doc["params"].update(blob_b64=doc["params"]["blob_b64"][:-1]),
        lambda doc: doc["params"].pop("blob_b64"),
        lambda doc: doc["params"].pop("shapes"),
        lambda doc: doc.update(params=[]),
        lambda doc: doc["params"].update(blob_b64=binascii.b2a_base64(
            binascii.a2b_base64(doc["params"]["blob_b64"])[:-1], newline=False).decode("ascii")),
        lambda doc: doc.update(architecture=[]),
        lambda doc: doc["architecture"].update(n_layers="1"),
        lambda doc: doc.update(meta=[]),
        lambda doc: doc["architecture"].update(seed="1"),
        "[]",
        lambda doc: [doc["meta"][k].pop("joints") for k in ("input_norm", "target_norm")],
        lambda doc: doc["architecture"].update(n_out=2),
        lambda doc: doc["architecture"].update(n_layers=0),
        lambda doc: doc["architecture"].update(hidden=-1),
        lambda doc: doc["architecture"].update(seed=-1),
        lambda doc: doc["meta"].update(joint=[doc["meta"]["joint"]]),
        lambda doc: doc["meta"].update(joint=1),
    ], ids=["architecture-without-n_in", "no-meta", "non-base64-character", "truncated-padding",
            "no-blob", "no-shapes", "params-not-an-object", "blob-not-whole-floats",
            "architecture-not-an-object", "n_layers-a-string", "meta-not-an-object", "seed-a-string",
            "not-an-object", "normalization-without-joints", "n_out-2", "n_layers-0", "hidden-negative",
            "seed-negative", "joint-a-list", "joint-a-number"])
    def test_malformed_checkpoint(self, trained, tmp_path, capsys, edit):
        # Every checkpoint gets the edit (a string replaces the whole file),
        # so a normalization they all share gets as far as its decode;
        # id_elbow.json is the first checkpoint read.
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        for path in (*models.glob("id_*.json"), *models.glob("fd_*.json")):
            if isinstance(edit, str):
                path.write_text(edit)
            else:
                self._edit_json(path, edit)
        assert _apply(trained, models, tmp_path / "out") == 2
        assert "id_elbow.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("traces"),
        lambda doc: doc["traces"]["elbow"].pop("rc_hat"),
        lambda doc: [doc["traces"]["elbow"].pop(k) for k in ("m_f", "m_r")],
        lambda doc: doc["traces"]["elbow"].update(rc_hat=["x"] * len(doc["traces"]["elbow"]["rc_hat"])),
        lambda doc: doc["traces"]["elbow"].update(m_a=[[v] * (i % 2 + 1) for i, v in
                                                       enumerate(doc["traces"]["elbow"]["m_a"])]),
        lambda doc: doc["traces"]["elbow"]["rc_hat"].__setitem__(3, None),
        lambda doc: doc["traces"]["elbow"]["rc_hat"].__setitem__(3, "1.5"),
        lambda doc: doc["traces"]["elbow"]["m_f"].__setitem__(3, float("nan")),
        lambda doc: doc["traces"]["elbow"]["rc_hat"].__setitem__(3, True),
        lambda doc: doc["traces"]["elbow"]["rc_hat"].__setitem__(3, 10**400),
        b"1" + b"0" * 5000,
    ], ids=["no-traces", "no-rc-hat", "m_a-without-m_f-m_r", "rc-hat-strings", "m_a-ragged",
            "rc-hat-null", "rc-hat-numeric-string", "m_f-nan", "rc-hat-bool", "rc-hat-beyond-float",
            "rc-hat-integer-of-5001-digits"])
    def test_malformed_report(self, trained, tmp_path, capsys, edit):
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        path = tmp_path / "apply" / "report.json"
        if isinstance(edit, bytes):  # the first RC_hat value: json.dumps refuses a 5001-digit integer
            path.write_bytes(path.read_bytes().replace(b'"rc_hat": [', b'"rc_hat": [' + edit + b",", 1))
        else:
            self._edit_json(path, edit)
        code = run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"),
                    "--run", f"tired={tmp_path / 'apply'}", "--out", str(tmp_path / "curves")])
        assert code == 2
        assert "report.json" in capsys.readouterr().err
        assert not (tmp_path / "curves").exists()

    @pytest.mark.parametrize("edit", [
        lambda lines: [lines[0], "sh,el", *lines[2:]],
        lambda lines: lines[:-1],
        lambda lines: ["# dt=0.025", *lines[1:]],
    ], ids=["joint-names", "one-row-short", "dt"])
    def test_torques_disagree_with_angles(self, trained, tmp_path, capsys, edit):
        data = tmp_path / "data"
        shutil.copytree(trained / "data", data)
        path = data / "trial002_torques.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = run(["train-dyn", "--data", str(data), "--out", str(tmp_path / "models"), *TINY_DYN])
        assert code == 2
        err = capsys.readouterr().err
        assert "trial002_torques.csv" in err and "trial002_angles.csv" in err
        assert not (tmp_path / "models").exists()

    def test_checkpoint_claiming_a_huge_architecture(self, trained, tmp_path, capsys, monkeypatch):
        # hidden 100000 would take 298 GiB to build: the checkpoint's shapes
        # are refused first (exit 2), and no model is built
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        self._edit_json(models / "id_elbow.json", lambda doc: doc["architecture"].update(hidden=100_000))
        monkeypatch.setattr(surrogates, "BiLstmModel", refuse_to_build)
        assert _apply(trained, models, tmp_path / "out") == 2
        assert "id_elbow.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_without_tau_max(self, trained, tmp_path):
        # tau_max is derived from the torque normalization, which every
        # checkpoint carries; the value train-dyn writes is not read.
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        self._edit_json(models / "id_elbow.json", lambda doc: doc["meta"].pop("tau_max"))
        assert _apply(trained, trained / "models", tmp_path / "intact") == 0
        assert _apply(trained, models, tmp_path / "edited") == 0
        for name in ("fatigued.csv", "baseline.csv", "report.json"):
            assert (tmp_path / "edited" / name).read_bytes() == (tmp_path / "intact" / name).read_bytes()

    def test_report_trace_shorter_than_motion(self, trained, tmp_path, capsys):
        # the bad run comes second: no file of the first is written either
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        shutil.copytree(tmp_path / "apply", tmp_path / "short")
        self._edit_json(tmp_path / "short" / "report.json",
                        lambda doc: doc["traces"]["elbow"]["rc_hat"].pop())
        code = run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"),
                    "--run", f"intact={tmp_path / 'apply'}", "--run", f"tired={tmp_path / 'short'}",
                    "--out", str(tmp_path / "curves")])
        assert code == 2
        assert "run 'tired'" in capsys.readouterr().err
        assert not (tmp_path / "curves").exists()

    @pytest.mark.parametrize("edit", [
        lambda lines: ["# dt=0.025", *lines[1:]],
        lambda lines: lines[:-1],
    ], ids=["dt", "one-row-short"])
    def test_eval_refuses_a_pred_of_another_layout(self, trained, tmp_path, capsys, edit):
        truth = trained / "data" / "trial000_angles.csv"
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(edit(truth.read_text().splitlines())) + "\n")
        code = run(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert "pred.csv" in err and "trial000_angles.csv" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("edit", [
        lambda lines: ["# dt=0.025", *lines[1:]],
        lambda lines: lines[:-1],
    ], ids=["dt", "one-row-short"])
    def test_export_curves_refuses_a_run_of_another_layout(self, trained, tmp_path, capsys, edit):
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        shutil.copytree(tmp_path / "apply", tmp_path / "other")
        path = tmp_path / "other" / "fatigued.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"),
                    "--run", f"intact={tmp_path / 'apply'}", "--run", f"tired={tmp_path / 'other'}",
                    "--out", str(tmp_path / "curves")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "apply" / "baseline.csv") in err and str(path) in err
        assert not (tmp_path / "curves").exists()


TINY_PINN = ["--frames", "12", "--hidden", "4", "--t", "20", "--seed", "2"]


class TestTrainingSettings:
    """Settings that cannot train exit 2 before anything is written."""

    @pytest.mark.parametrize("extra", [
        ["--epochs", "0"], ["--epochs", "-3"], ["--lr", "-1"], ["--lr", "nan"],
        ["--joint", "knee"], ["--window", "20", "--window-stride", "0"],
        ["--window", "96", "--window-stride", "0"],
    ], ids=["zero-epochs", "negative-epochs", "negative-lr", "nan-lr", "unknown-joint", "zero-stride",
            "zero-stride-window-beyond-trial"])
    def test_train_dyn(self, trained, tmp_path, capsys, extra):
        code = run(["train-dyn", "--data", str(trained / "data"), "--out", str(tmp_path / "out"),
                    *TINY_DYN, *extra])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_dyn_numeric_error_leaves_no_out(self, trained, tmp_path, capsys, monkeypatch):
        # training diverges after every check passed: exit 3, and --out, made with
        # the first file written into it, never appears
        def diverge(*args, **kwargs):
            raise NumericError("non-finite loss")

        monkeypatch.setattr(surrogates, "train_dyn", diverge)
        code = run(["train-dyn", "--data", str(trained / "data"), "--out", str(tmp_path / "out"), *TINY_DYN])
        assert code == 3
        assert capsys.readouterr().err == "numeric error: non-finite loss\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        ["--epochs", "0"], ["--lr", "-1"], ["--patience", "0"], ["--hidden", "0"],
    ], ids=["zero-epochs", "negative-lr", "zero-patience", "zero-hidden"])
    def test_train_pinn(self, tmp_path, capsys, extra):
        code = run(["train-pinn", *TINY_PINN, "--epochs", "2", "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# TINY_PINN's load at each mode's step: supervised 0.05 s (401 samples over
# 20 s), unsupervised 20/11 s (12 samples, one per frame).
PINN_LOAD_ROWS = {"supervised": 401, "unsupervised": 12}

# sha256 of the checkpoints and logs of TestModelCommands.test_train_dyn_golden_bytes
# (numpy 2.4 with OpenBLAS 0.3.31 on x86-64). The training batches run in
# float32. Row 0 of each log is the float64 MSE of the float32 bank's forward
# pass over every window; it steers nothing, so the weights and rows 1+ do not
# depend on it.
TRAIN_DYN_DIGESTS = {
    "id_shoulder.json": "72bc63459af755dc607b65392f2d6ac7d9270e04fd3489f806ef7ca1899d8f7c",
    "id_shoulder_log.csv": "b4f65b0fb86e8bec4af4113aa7f54586ee53a0b4a3d73bc11b70667a37bc3dfc",
    "id_elbow.json": "27ed49fffb3be724005576dd1f2f7a25fc11399cc24acfc0546e3b8411e0757b",
    "id_elbow_log.csv": "d810176e5865882d54f8fb6442f039dd8dadd94dce05cb7913bb93fb296722d0",
    "fd_shoulder.json": "f3ab9ed289b348092b0ca6731c01eab3e22d80a822951a9026dca53944c5b823",
    "fd_shoulder_log.csv": "97626d26cd2e0f5b71cecd718cfa0df3e99b6cd261c768a6fece6dee270db715",
    "fd_elbow.json": "3fd6c46833b5f4940549bd94c378837178ba4a3b626c5889cb51e8e47390654f",
    "fd_elbow_log.csv": "6dca6554b7c2a5aba6134f86db3e0445f1f4d10fbfa1e58d73c702374958ee98",
}


# sha256 of the checkpoint and log of TestModelCommands.test_train_pinn_golden_bytes
# for each mode (numpy 2.4 with OpenBLAS 0.3.31 on x86-64).
TRAIN_PINN_DIGESTS = {
    "supervised/pinn_elbow.json": "11c2b2c99364a3c8d951e54d64febe910c82a21ac16bcde2ff7e9d57acabf0d7",
    "supervised/training_log.csv": "a7d2591b2974f72a8f8161fc848b77e91eade30b3b547770a3d0beb27b4f6962",
    "unsupervised/pinn_elbow.json": "8b78e5486b8482686df9a05e676b6fd1e626baee693103fb5586f8c8fc515a6e",
    "unsupervised/training_log.csv": "8d8d706984053b92945451665d114b7e7b65f06cb31596d795a853a40cdb091a",
}

# sha256 of the outputs of TestModelCommands.test_apply_fatigue_golden_bytes
# (numpy 2.4 with OpenBLAS 0.3.31 on x86-64), on the checkpoints the `trained`
# fixture trains in float32; inference itself runs in float64.
APPLY_FATIGUE_DIGESTS = {
    "dynamic/fatigued.csv": "555789976ad3261e71cda7955ce2756917f03c3e26c04d74b61b6ebe96b4ab12",
    "dynamic/baseline.csv": "47ac4023d92362ef481a5194a0123f4ee022487f41e328332c98e4b4750103db",
    "dynamic/report.json": "d75d3925bc05cffc30809727bc948e524cd0e4163af48707c68179b9a317aae0",
    "fixed/fatigued.csv": "25c70a7b1d3091f9dc564ed8df04d5af9079dbf7a2f5f0f5d291f8e09e01d108",
    "fixed/baseline.csv": "47ac4023d92362ef481a5194a0123f4ee022487f41e328332c98e4b4750103db",
    "fixed/report.json": "8588ada8bfce98e1c9ee75b07ed6a96c3400561c68d14ff605ecce87f243163a",
}


class TestModelCommands:
    def test_apply_fatigue_golden_bytes(self, trained, tmp_path):
        # BANK_CHUNK + 1 frames take the bank through two input-projection
        # chunks, at B = 1 in the ID pass and B = 2 in the FD pass; both
        # joints are modulated.
        assert run(["gen-data", "--out", str(tmp_path / "motion"), "--trials", "1",
                    "--frames", str(BANK_CHUNK + 1), "--seed", "2"]) == 0
        profiles = tmp_path / "profiles.json"
        cc.save_profiles([cc.FatigueProfile("shoulder", F=0.3, R=0.02, lam=0.7),
                          cc.FatigueProfile("elbow", F=0.5, R=0.01, lam=0.8)], profiles)
        for label, mode in (("dynamic", "dynamic"), ("fixed", "fixed:70")):
            assert _apply(trained, trained / "models", tmp_path / label, "--mode", mode, profiles=profiles,
                          motion=tmp_path / "motion" / "trial000_angles.csv") == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in APPLY_FATIGUE_DIGESTS}
        assert digests == APPLY_FATIGUE_DIGESTS

    def test_train_dyn_golden_bytes(self, trained, tmp_path):
        # both kinds, both joints, 18 windows of 20 frames, 3 epochs
        assert run(["train-dyn", "--data", str(trained / "data"), "--out", str(tmp_path / "m"),
                    *TINY_DYN, "--epochs", "3", "--window-stride", "4"]) == 0
        assert (tmp_path / "m" / "id_elbow_log.csv").read_text().splitlines()[0] == "epoch,train_mse"
        digests = {name: hashlib.sha256((tmp_path / "m" / name).read_bytes()).hexdigest()
                   for name in TRAIN_DYN_DIGESTS}
        assert digests == TRAIN_DYN_DIGESTS

    def test_train_pinn_golden_bytes(self, tmp_path):
        # supervised runs all 40 epochs; unsupervised stops early, at epoch 24
        for mode, extra in (("supervised", []), ("unsupervised", ["--unsupervised", "--activation", "tanh"])):
            assert run(["train-pinn", *TINY_PINN, "--epochs", "40", "--patience", "9",
                        "--out", str(tmp_path / mode), *extra]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in TRAIN_PINN_DIGESTS}
        assert digests == TRAIN_PINN_DIGESTS

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_train_pinn_load_csv_must_span_duration(self, tmp_path, mode):
        extra = ["--unsupervised"] if mode == "unsupervised" else []
        for rows in PINN_LOAD_ROWS.values():
            path = tmp_path / f"tl{rows}.csv"
            path.write_text("tl\n" + "40\n" * rows)
            out = tmp_path / f"out{rows}"
            code = run(["train-pinn", *TINY_PINN, "--epochs", "2", "--tl", f"csv:{path}",
                        "--out", str(out), *extra])
            if rows == PINN_LOAD_ROWS[mode]:
                assert code == 0
            else:
                assert code == 2
                assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--unsupervised"]], ids=["supervised", "unsupervised"])
    def test_train_pinn(self, tmp_path, extra):
        for out in ("a", "b"):
            assert run(["train-pinn", *TINY_PINN, "--epochs", "4", "--patience", "10",
                        "--out", str(tmp_path / out), *extra]) == 0
        log = (tmp_path / "a" / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,L_total,L_NN_or_BC,L_PB"
        assert [row.split(",")[0] for row in log[1:]] == ["0", "1", "2", "3", "4"]
        for name in ("pinn_elbow.json", "training_log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sim_3cc_default_lambda_golden_bytes(self, tmp_path):
        # At the default lambda RC_lambda is RC, and trajectory_to_csv passes
        # one array for both columns. 3077 rows are 24 chunks of 128 rows
        # plus 5, and 3 of 1024 plus 5; the bouts at 90 %MVC and the rests
        # visit all three controller regimes. Digest recorded before the
        # writer formatted column by column.
        tl = ([90.0] * 600 + [0.0] * 200) * 4
        (tmp_path / "tl.csv").write_text("tl\n" + "".join(f"{v!r}\n" for v in tl[:3077]))
        assert run(["sim-3cc", "--F", "0.05", "--R", "0.005", "--tl", f"csv:{tmp_path / 'tl.csv'}",
                    "--t", "153.8", "--out", str(tmp_path / "sim")]) == 0
        data = (tmp_path / "sim" / "trajectory.csv").read_bytes()
        assert len(data.splitlines()) == 1 + 3077
        assert hashlib.sha256(data).hexdigest() == \
            "72742f0ffde3a7501dbe8bca8d3c2b606617285734d7e2924ff853edb1c7828c"

    def test_sim_3cc(self, tmp_path):
        for out in ("a", "b"):
            assert run(["sim-3cc", "--F", "0.02", "--R", "0.002", "--tl", "const:60", "--t", "30",
                        "--out", str(tmp_path / out)]) == 0
        rows = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 601  # header plus t = 0, 0.05, ..., 30
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's mallopt")
def test_training_batches_keep_the_heap(tmp_path):
    # A desk float32 training batch frees ~15 MB; under glibc's default
    # policy the next batch faults it back in (some 3700 minor faults).
    # Any run sets the policy for the rest of the process.
    resource = pytest.importorskip("resource")
    assert run(["sim-3cc", "--F", "0.02", "--R", "0.002", "--t", "1", "--out", str(tmp_path)]) == 0
    rng = np.random.default_rng(0)
    model = surrogates.BiLstmModel(2, surrogates.DESK_SPEC)
    x = rng.normal(size=(surrogates.DESK_WINDOW, 32, 2)).astype(np.float32)
    y = rng.normal(size=(surrogates.DESK_WINDOW, 32))
    opt = nncore.Adam(model.params())

    def batch():  # as train_dyn's loss function: the caches are freed on return
        pred, cache = model.forward(x)
        return model.backward(cache, nncore.mse(pred, y)[1].astype(np.float32))[0]

    faults = []
    for _ in range(5):
        opt.step(model.params(), batch())
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    assert faults[-1] - faults[0] <= 100, np.diff(faults)
