import hashlib
import warnings

import numpy as np
import pytest

from fatiguemotion import compartments as cc
from fatiguemotion.arm import ArmParams, generate_dataset
from fatiguemotion.errors import ShapeError
from fatiguemotion.nncore import lstm_gates
from fatiguemotion.pipeline import (
    FatigueReport,
    JointFatigueTrace,
    PipelineConfig,
    apply_fatigue,
    export_curves,
)
from fatiguemotion.sequences import (
    MotionSequence,
    fit_normalizer,
    load_sequence,
    save_sequence,
    torque_to_activation,
)
from fatiguemotion.surrogates import (
    BANK_CHUNK,
    BiLstmBank,
    BiLstmModel,
    BiLstmSpec,
    predict_models,
)


def _models(n_models, n_layers, n_in=3, hidden=4, seed=0):
    """Untrained models with non-zero biases, so every parameter matters."""
    rng = np.random.default_rng(seed)
    models = [BiLstmModel(n_in, BiLstmSpec(n_layers, hidden), seed=seed + i) for i in range(n_models)]
    for model in models:
        for p in model.params():
            if p.ndim == 1:
                p[:] = rng.normal(scale=0.5, size=p.shape)
    return models


def _reference(models, x):
    """Per-model training-path forward, stacked like the bank output."""
    return np.stack([m.forward(x)[0] for m in models])


def _row_layout_layer(bank, inp, wx_t, wh_t, b):
    """BiLstmBank._layer as it stepped (K, B, 4H) gate rows: each step added
    its projection rows into z in place and ran lstm_gates on strided views
    of the rows, the sigmoid over all four lanes (the g lanes' result then
    overwritten by their tanh). The oracle of the lane-major step."""
    n, hdim, dtype = bank.n_models, bank.hidden, inp.dtype
    k = 2 * n
    *lead, t_len, batch, width = inp.shape
    out = np.empty((n, t_len, batch, 2 * hdim), dtype)
    chunk = min(BANK_CHUNK, t_len)
    staged = min(chunk, max(1, BANK_CHUNK // batch))
    zx = np.empty((k, chunk * batch, 4 * hdim), dtype)
    z, gate = np.empty((2, k, batch, 4 * hdim), dtype)
    views = (z, gate, z[..., 3 * hdim :], gate[..., :hdim], gate[..., hdim : 2 * hdim],
             gate[..., 2 * hdim : 3 * hdim], gate[..., 3 * hdim :], 500.0 if dtype == np.float64 else 80.0)
    stage = np.empty((staged, k, batch, hdim), dtype)
    h, c = np.zeros((2, k, batch, hdim), dtype)
    for s0 in range(0, t_len, chunk):
        s1 = min(s0 + chunk, t_len)
        rows = (s1 - s0) * batch
        x_f = inp[..., s0:s1, :, :].reshape(*lead, rows, width)
        x_b = inp[..., t_len - s1 : t_len - s0, :, :][..., ::-1, :, :].reshape(*lead, rows, width)
        np.matmul(x_f, wx_t[:n], out=zx[:n, :rows])
        np.matmul(x_b, wx_t[n:], out=zx[n:, :rows])
        zx[:, :rows] += b
        for a0 in range(s0, s1, staged):
            a1 = min(a0 + staged, s1)
            m = a1 - a0
            zx_a = zx[:, (a0 - s0) * batch :]
            for j in range(m):
                np.matmul(h, wh_t, out=z)
                z += zx_a[:, j * batch : (j + 1) * batch]
                h = stage[j]
                lstm_gates(views, c, c, h)
            out[:, a0:a1, :, :hdim] = stage[:m, :n].swapaxes(0, 1)
            out[:, t_len - a1 : t_len - a0, :, hdim:] = stage[m - 1 :: -1, n:].swapaxes(0, 1)
    return out


class TestBank:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("t_len", [1, BANK_CHUNK - 1, BANK_CHUNK + 1, 2 * BANK_CHUNK + 5])
    @pytest.mark.parametrize("batch", [1, 2, 13, 32, 64])
    def test_bits_match_the_row_layout_step(self, batch, t_len, dtype, monkeypatch):
        hdim = 32
        models = _models(2, 2, hidden=hdim)
        # the bias drives lane 0 of every gate of every cell to z near 1000 and
        # lane 1 to z near -1000, past both dtypes' sigmoid clips
        for model in models:
            for layer in model.layers:
                for cell in (layer.fwd, layer.bwd):
                    cell.b[::hdim], cell.b[1::hdim] = 1000.0, -1000.0
        x = np.random.default_rng(batch * 1000 + t_len).normal(size=(t_len, batch, 3)).astype(dtype)
        bank = BiLstmBank(models)
        y = bank.forward(x)
        monkeypatch.setattr(BiLstmBank, "_layer", _row_layout_layer)
        want = bank.forward(x)
        assert y.dtype == want.dtype == dtype and np.array_equal(y, want)

    @pytest.mark.parametrize("n_layers", [1, 3])
    @pytest.mark.parametrize("batch", [1, 2, 13])  # 13: 9-step stage fills, the last one of a chunk short
    @pytest.mark.parametrize("n_models", [1, 2, 3])
    def test_matches_per_model_forward(self, n_models, batch, n_layers):
        models = _models(n_models, n_layers)
        bank = BiLstmBank(models)
        rng = np.random.default_rng(n_models * 10 + batch)
        for t_len in (1, BANK_CHUNK - 1, BANK_CHUNK, BANK_CHUNK + 1, 2000):
            x = rng.normal(size=(t_len, batch, 3))
            y = bank.forward(x)
            assert y.shape == (n_models, t_len, batch)
            np.testing.assert_allclose(y, _reference(models, x), rtol=0, atol=1e-12)

    # sha256 of BiLstmBank.forward(x).tobytes() for two 2-layer H=32 models
    # over three projection chunks (numpy 2.4 with OpenBLAS 0.3.31 on x86-64).
    BANK_DIGESTS = {
        1: "8de5a59e78d245aef1c8629355c7b91e0206e6786a69e10294fdb27f0f690fbd",
        2: "3aa4f133d54906d25eeb1c5eb39ae61a2c8b374b88d66c8bbaceed196ecb9af0",
    }

    @pytest.mark.parametrize("batch", [1, 2])
    def test_golden_bytes(self, batch):
        bank = BiLstmBank(_models(2, 2, hidden=32))
        x = np.random.default_rng(batch).normal(size=(2 * BANK_CHUNK + 5, batch, 3))
        assert hashlib.sha256(bank.forward(x).tobytes()).hexdigest() == self.BANK_DIGESTS[batch]

    @pytest.mark.parametrize("t_len, batch", [(50, 1), (BANK_CHUNK + 7, 1), (96, 32), (2 * BANK_CHUNK + 5, 32)],
                             ids=["B1", "B1-ragged-chunk", "B32", "B32-ragged-chunk"])
    def test_float32_input_runs_in_float32(self, t_len, batch):
        # the bank computes in its input's dtype; on the same float32 input it
        # is within 1e-5 of the largest training-forward output (measured <=
        # 1.2e-7 at B = 1, where the batched matmul may take another BLAS
        # kernel, and equal at B = 32)
        models = _models(2, 2, hidden=32)
        x = np.random.default_rng(batch).normal(size=(t_len, batch, 3)).astype(np.float32)
        y = BiLstmBank(models).forward(x)
        ref = _reference(models, x)
        assert y.dtype == ref.dtype == np.float32
        assert np.abs(y - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_other_inputs_run_in_float64(self):
        models = _models(2, 1)
        bank = BiLstmBank(models)
        x = np.random.default_rng(4).normal(size=(20, 2, 3))
        y = bank.forward(x)
        assert y.dtype == np.float64
        half = x.astype(np.float16)
        np.testing.assert_array_equal(bank.forward(half), bank.forward(half.astype(np.float64)))
        assert bank.forward(x.astype(np.float32)).dtype == np.float32
        # a float32 call casts copies: the bank's weights stay float64
        assert all(w.dtype == np.float64 for *ws, _ in bank.layers for w in ws)
        np.testing.assert_array_equal(bank.forward(x), y)

    def test_float32_saturating_input_raises_no_warning(self):
        # |z| ~ 1e4 on the first layer: past float32 exp's overflow at 88, so
        # only the float32 sigmoid clip keeps the step free of RuntimeWarning
        models = _models(2, 2, hidden=8)
        x = np.random.default_rng(3).choice([-1e4, 1e4], size=(40, 2, 3)).astype(np.float32)
        wx_t, _, b, _ = BiLstmBank(models).layers[0]
        assert np.abs(x.reshape(-1, 3) @ wx_t + b).max() > 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = BiLstmBank(models).forward(x)
        assert y.dtype == np.float32 and np.isfinite(y).all()

    def test_predict_sequence_is_the_single_model_bank(self):
        (model,) = _models(1, 2)
        frames = np.random.default_rng(1).normal(size=(50, 3))
        expected = model.forward(frames[:, None, :])[0][:, 0]
        np.testing.assert_allclose(model.predict_sequence(frames), expected, rtol=0, atol=1e-12)

    def test_mixed_architectures_run_one_bank_each(self):
        models = _models(2, 1) + [BiLstmModel(3, BiLstmSpec(2, 6), seed=9)] + _models(1, 1, seed=5)
        x = np.random.default_rng(2).normal(size=(40, 2, 3))
        np.testing.assert_allclose(predict_models(models, x), _reference(models, x), rtol=0, atol=1e-12)

    def test_bank_rejects_mixed_architectures(self):
        with pytest.raises(ShapeError):
            BiLstmBank(_models(1, 1) + _models(1, 2))

    def test_width_checked(self):
        with pytest.raises(ShapeError):
            BiLstmBank(_models(2, 1)).forward(np.zeros((5, 1, 2)))


@pytest.fixture(scope="module")
def chain():
    """A two-joint motion and a config of untrained surrogates."""
    trial = generate_dataset(ArmParams(), 1, 150, 0.05, seed=4)[0]
    angle_norm = fit_normalizer([trial.motion])
    torque_norm = fit_normalizer([trial.torque])
    id_models = {name: BiLstmModel(2, BiLstmSpec(2, 5), kind="id", seed=i) for i, name in enumerate(trial.motion.joint_names)}
    fd_models = {name: BiLstmModel(2, BiLstmSpec(2, 5), kind="fd", seed=10 + i) for i, name in enumerate(trial.motion.joint_names)}
    profiles = {
        "shoulder": cc.FatigueProfile("shoulder", F=0.3, R=0.02, lam=0.7),
        "elbow": cc.FatigueProfile("elbow", F=0.5, R=0.01),
    }
    config = PipelineConfig(angle_norm, torque_norm, id_models, fd_models, profiles)
    return trial.motion, config


class TestApplyFatigue:
    def test_rc_hat_matches_simulate(self, chain):
        motion, config = chain
        _, report = apply_fatigue(motion, config)
        order = motion.joint_names
        for name, profile in config.profiles.items():
            act = torque_to_activation(report.torques[:, order.index(name)], config.tau_max[name])
            # frame t is advanced under load act[t]; simulate stores the rested state first
            traj = cc.simulate(None, cc.LoadProfile(np.append(act, act[-1]), motion.dt), profile.cc3)
            expected = 100.0 - profile.lam * traj.M_F[1:]
            np.testing.assert_allclose(report.traces[name].rc_hat, expected, rtol=0, atol=1e-9)
            assert report.traces[name].rc_hat.min() < 99.0  # fatigue actually acted

    def test_surrogate_passes_match_per_model_path(self, chain):
        motion, config = chain
        fatigued, report = apply_fatigue(motion, config)
        order = motion.joint_names

        def run(models, x):
            return np.column_stack([models[n].forward(x[:, None, :])[0][:, 0] for n in order])

        tau_norm = run(config.id_models, config.angle_norm.apply(motion.frames))
        np.testing.assert_allclose(report.torques, config.torque_norm.invert(tau_norm), rtol=0, atol=1e-9)
        baseline = config.angle_norm.invert(run(config.fd_models, tau_norm))
        np.testing.assert_allclose(report.baseline.frames, baseline, rtol=0, atol=1e-12)
        modulated = config.angle_norm.invert(
            run(config.fd_models, config.torque_norm.apply(report.modulated_torques)))
        np.testing.assert_allclose(fatigued.frames, modulated, rtol=0, atol=1e-12)

    def test_second_call_byte_identical(self, chain, tmp_path):
        motion, config = chain
        for run in ("a", "b"):
            fatigued, report = apply_fatigue(motion, config)
            (tmp_path / run).mkdir()
            save_sequence(fatigued, tmp_path / run / "fatigued.csv")
            report.save(tmp_path / run / "report.json")
        for name in ("fatigued.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fixed_mode_scales_torque(self, chain):
        motion, dynamic = chain
        config = PipelineConfig(dynamic.angle_norm, dynamic.torque_norm, dynamic.id_models,
                                dynamic.fd_models, dynamic.profiles, fixed_level=60.0)
        _, report = apply_fatigue(motion, config)
        np.testing.assert_allclose(report.modulated_torques, 0.6 * report.torques, rtol=1e-15)
        assert (report.traces["elbow"].rc_hat == 60.0).all()
        assert (report.metadata["mode"], dynamic.mode) == ("fixed", "dynamic")

    def test_model_width_checked(self, chain):
        _, config = chain
        fd_models = dict(config.fd_models, elbow=BiLstmModel(3, BiLstmSpec(1, 4), kind="fd"))
        with pytest.raises(ShapeError):
            PipelineConfig(config.angle_norm, config.torque_norm, config.id_models, fd_models)

    def test_motion_joints_checked(self, chain):
        motion, config = chain
        renamed = MotionSequence(("hip", "knee"), motion.dt, motion.frames)
        with pytest.raises(ShapeError):
            apply_fatigue(renamed, config)


class TestReportSave:
    def test_golden_bytes(self, tmp_path):
        # Digest recorded with json.dump(doc, indent=2) writing the whole
        # report: a dynamic report with two joints (one without pools), a
        # fixed-mode report and one without traces. -0.0, 0.1, 1e-300, NaN,
        # inf and a non-ASCII joint name keep their encoding.
        n = 700
        m_a = np.arange(n) / 7.0
        m_a[:5] = (-0.0, 0.1, 1e-300, np.nan, np.inf)
        m_f = np.arange(n) / 11.0
        names = ("shoulder", "ellb\u00f6gen")
        frames = np.zeros((n, 2))
        metadata = {"config_hash": "0" * 64, "seed": 3, "mode": "dynamic", "fixed_level": None,
                    "joints": list(names), "modulated_joints": sorted(names), "n_frames": n, "dt": 0.05}
        reports = {
            "dynamic": {names[1]: JointFatigueTrace(100.0 - 0.8 * m_f, m_a, m_f, 100.0 - m_a - m_f),
                        names[0]: JointFatigueTrace(100.0 - m_a)},
            "fixed": {name: JointFatigueTrace(np.full(n, 70.0)) for name in names},
            "none": {},
        }
        digest = hashlib.sha256()
        for label, traces in reports.items():
            report = FatigueReport(
                baseline=MotionSequence(names, 0.05, frames), torques=frames, modulated_torques=frames,
                traces=traces, nrmse={names[0]: 1.0 / 3.0, names[1]: 0.0},
                r2={names[0]: 1.0, names[1]: 2.0 / 3.0}, metadata=dict(metadata, mode=label))
            report.save(tmp_path / f"{label}.json")
            digest.update((tmp_path / f"{label}.json").read_bytes())
        assert digest.hexdigest() == "1f64fc4ac0980c7435b9f6aff5a20d4a1f8fdfd0368da9e4cb28c295f9cf23f3"


class TestExportCurves:
    def test_golden_bytes(self, tmp_path):
        # Digest recorded before export_curves moved onto write_table: 1500
        # rows span several formatting chunks, one run has the pools and one only
        # the capacity, and -0.0, 0.1 and 1e-300 keep their repr. The
        # sequences come from load_sequence and with_frames, whose signatures
        # the move left as they were.
        n = 1500
        frames = np.arange(2 * n, dtype=float).reshape(n, 2) / 7.0 - 50.0
        frames[0] = (-0.0, 0.1)
        frames[1] = (1e-300, -1e-300)
        (tmp_path / "t.csv").write_text("# dt=0.1\nshoulder,elbow\n0,0\n0,0\n")
        baseline = load_sequence(tmp_path / "t.csv").with_frames(frames)
        fatigued = baseline.with_frames(frames * 0.75 + 1.0 / 3.0)
        m_a = np.arange(n) / 30.0
        m_a[:3] = (-0.0, 0.1, 1e-300)
        m_f = np.arange(n) / 60.0
        dynamic = {"elbow": JointFatigueTrace(100.0 - 0.8 * m_f, m_a, m_f, 100.0 - m_a - m_f)}
        fixed = {"elbow": JointFatigueTrace(np.full(n, 70.0)), "shoulder": JointFatigueTrace(100.0 - m_a)}
        out = tmp_path / "curves"
        written = export_curves(baseline, [("dyn", fatigued, dynamic), ("fix", fatigued, fixed)], out)
        assert written == ["shoulder_dyn_angles.csv", "elbow_dyn_angles.csv", "elbow_dyn_compartments.csv",
                           "shoulder_fix_angles.csv", "elbow_fix_angles.csv", "elbow_fix_capacity.csv",
                           "shoulder_fix_capacity.csv"]
        digest = hashlib.sha256()
        for name in written:
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
        assert digest.hexdigest() == "8835e5d0cb6177370394ca6b300d0a1dd2125419070ace3b2f1cc23a380f6e6d"
