import json
import shutil

import pytest

from fatiguemotion import compartments as cc
from fatiguemotion import nncore
from fatiguemotion.cli import run

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


def _apply(d, models, out, *extra, profiles=None):
    return run(["apply-fatigue", "--motion", str(d / "data" / "trial000_angles.csv"),
                "--profiles", str(profiles or d / "profiles.json"), "--models", str(models),
                "--out", str(out), *extra])


class TestChain:
    def test_gen_data_manifest_keeps_dataset_keys(self, trained):
        doc = json.loads((trained / "data" / "manifest.json").read_text())
        assert {"arm_params", "trials", "command", "config_hash"} <= set(doc)
        assert doc["command"] == "gen-data"

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
        assert _apply(trained, trained / "models", tmp_path / "bad", "--mode", "fixed:abc") == 2

    def test_mixed_architectures_accepted(self, trained, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        assert run(["train-dyn", "--data", str(trained / "data"), "--out", str(tmp_path / "wide"),
                    "--kind", "id", "--joint", "elbow", *TINY_DYN[:2], "--hidden", "6",
                    *TINY_DYN[4:]]) == 0
        shutil.copy(tmp_path / "wide" / "id_elbow.json", models / "id_elbow.json")
        assert _apply(trained, models, tmp_path / "apply") == 0


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
    ], ids=["missing-lambda", "unknown-key", "non-object-entry", "repeated-joint",
            "non-numeric-rate", "non-string-joint", "not-a-list"])
    def test_malformed_file(self, trained, tmp_path, capsys, doc):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(doc))
        assert _apply(trained, trained / "models", tmp_path / "out", profiles=path) == 2
        assert "data error" in capsys.readouterr().err

    def test_negative_rate_in_fixed_mode(self, trained, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([{**ELBOW_ENTRY, "F": -0.5}]))
        assert _apply(trained, trained / "models", tmp_path / "out", "--mode", "fixed:70",
                      profiles=path) == 2


class TestUserErrors:
    def test_non_numeric_load_csv(self, tmp_path, capsys):
        (tmp_path / "tl.csv").write_text("tl\n10\nabc\n")
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1",
                    "--tl", f"csv:{tmp_path / 'tl.csv'}", "--out", str(tmp_path / "out")])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_non_numeric_constant_load(self, tmp_path):
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", "1",
                    "--tl", "const:abc", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_train_pinn_single_frame(self, tmp_path):
        code = run(["train-pinn", "--frames", "1", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("t, dt", [("-1", "0.05"), ("nan", "0.05"), ("1", "0")],
                             ids=["negative-duration", "nan-duration", "zero-dt"])
    def test_sim_3cc_bad_duration(self, tmp_path, t, dt):
        code = run(["sim-3cc", "--F", "0.01", "--R", "0.001", "--t", t, "--dt", dt,
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_sim_3cc_nan_rate(self, tmp_path):
        code = run(["sim-3cc", "--F", "nan", "--R", "0.001", "--t", "1", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_train_pinn_zero_duration(self, tmp_path):
        code = run(["train-pinn", "--t", "0", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert code == 2


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
    ], ids=["architecture-without-n_in", "no-meta"])
    def test_malformed_checkpoint(self, trained, tmp_path, capsys, edit):
        models = tmp_path / "models"
        shutil.copytree(trained / "models", models)
        self._edit_json(models / "id_elbow.json", edit)
        assert _apply(trained, models, tmp_path / "out") == 2
        assert "id_elbow.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("traces"),
        lambda doc: doc["traces"]["elbow"].pop("rc_hat"),
        lambda doc: [doc["traces"]["elbow"].pop(k) for k in ("m_f", "m_r")],
    ], ids=["no-traces", "no-rc-hat", "m_a-without-m_f-m_r"])
    def test_malformed_report(self, trained, tmp_path, capsys, edit):
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        self._edit_json(tmp_path / "apply" / "report.json", edit)
        code = run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"),
                    "--run", f"tired={tmp_path / 'apply'}", "--out", str(tmp_path / "curves")])
        assert code == 2
        assert "report.json" in capsys.readouterr().err

    def test_report_trace_shorter_than_motion(self, trained, tmp_path, capsys):
        assert _apply(trained, trained / "models", tmp_path / "apply") == 0
        self._edit_json(tmp_path / "apply" / "report.json",
                        lambda doc: doc["traces"]["elbow"]["rc_hat"].pop())
        code = run(["export-curves", "--baseline", str(tmp_path / "apply" / "baseline.csv"),
                    "--run", f"tired={tmp_path / 'apply'}", "--out", str(tmp_path / "curves")])
        assert code == 2
        assert "run 'tired'" in capsys.readouterr().err


TINY_PINN = ["--frames", "12", "--hidden", "4", "--t", "20", "--seed", "2"]


class TestTrainingSettings:
    """Settings that cannot train exit 2 before anything is written."""

    @pytest.mark.parametrize("extra", [
        ["--epochs", "0"], ["--epochs", "-3"], ["--lr", "-1"], ["--lr", "nan"],
    ], ids=["zero-epochs", "negative-epochs", "negative-lr", "nan-lr"])
    def test_train_dyn(self, trained, tmp_path, capsys, extra):
        code = run(["train-dyn", "--data", str(trained / "data"), "--out", str(tmp_path / "out"),
                    *TINY_DYN, *extra])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        ["--epochs", "0"], ["--lr", "-1"], ["--patience", "0"], ["--hidden", "0"],
    ], ids=["zero-epochs", "negative-lr", "zero-patience", "zero-hidden"])
    def test_train_pinn(self, tmp_path, capsys, extra):
        code = run(["train-pinn", *TINY_PINN, "--epochs", "2", "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestModelCommands:
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

    def test_sim_3cc(self, tmp_path):
        for out in ("a", "b"):
            assert run(["sim-3cc", "--F", "0.02", "--R", "0.002", "--tl", "const:60", "--t", "30",
                        "--out", str(tmp_path / out)]) == 0
        rows = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 601  # header plus t = 0, 0.05, ..., 30
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()
