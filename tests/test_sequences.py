import hashlib
import json
import re

import numpy as np
import pytest

from fatiguemotion.errors import (
    DataFormatError,
    DegenerateChannelError,
    ParameterError,
    ShapeError,
    SplitError,
)
from fatiguemotion.sequences import (
    _CSV_CHUNK,
    MotionSequence,
    NormalizationParams,
    fit_normalizer,
    load_sequence,
    save_sequence,
    split_train_test,
    torque_to_activation,
    write_table,
)


def write(path, text):
    path.write_text(text)
    return path


WELL_FORMED = "# dt=0.01\nshoulder,elbow\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"


def make_seq(frames, names=("a", "b"), dt=0.01):
    return MotionSequence(names, dt, np.asarray(frames, dtype=float))


class TestLoadSave:
    def test_well_formed(self, tmp_path):
        seq = load_sequence(write(tmp_path / "m.csv", WELL_FORMED))
        assert seq.n_frames == 3
        assert seq.frames.shape == (3, 2)
        assert seq.dt == 0.01
        assert seq.joint_names == ("shoulder", "elbow")

    def test_column_order_preserved(self, tmp_path):
        text = "# dt=0.5\nzeta,alpha,mid\n1,2,3\n4,5,6\n"
        seq = load_sequence(write(tmp_path / "m.csv", text))
        assert seq.joint_names == ("zeta", "alpha", "mid")
        assert seq.frames[0].tolist() == [1.0, 2.0, 3.0]

    def test_ragged_row(self, tmp_path):
        text = "# dt=0.01\na,b\n1,2\n3\n5,6\n"
        with pytest.raises(DataFormatError, match="row 4"):
            load_sequence(write(tmp_path / "m.csv", text))

    def test_non_numeric_cell(self, tmp_path):
        text = "# dt=0.01\na,b\n1,2\n3,oops\n"
        with pytest.raises(DataFormatError, match="row 4, column 2"):
            load_sequence(write(tmp_path / "m.csv", text))

    def test_first_non_numeric_cell_is_named(self, tmp_path):
        # the row parses in one pass; on a failure it is scanned again for
        # the first cell that is not a float
        text = "# dt=0.01\na,b,c\n1,2,3\n 4 ,x,y\n"
        with pytest.raises(DataFormatError, match=r"row 4, column 2: non-numeric cell 'x'$"):
            load_sequence(write(tmp_path / "m.csv", text))

    def test_bad_dt(self, tmp_path):
        with pytest.raises(DataFormatError, match="dt"):
            load_sequence(write(tmp_path / "m.csv", "# dt=-1\na,b\n1,2\n3,4\n"))
        with pytest.raises(DataFormatError):
            load_sequence(write(tmp_path / "m.csv", "nope\na,b\n1,2\n3,4\n"))
        for dt in ("nan", "inf"):
            with pytest.raises(DataFormatError, match="finite"):
                load_sequence(write(tmp_path / "m.csv", f"# dt={dt}\na,b\n1,2\n3,4\n"))

    @pytest.mark.parametrize("rows", ["1,2\nnan,4\n", "1,inf\n3,4\n", "1,2\n"],
                             ids=["nan-cell", "inf-cell", "one-row"])
    def test_rows_that_build_no_sequence_name_the_file(self, tmp_path, rows):
        path = write(tmp_path / "m.csv", f"# dt=0.01\na,b\n{rows}")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: "):
            load_sequence(path)

    def test_round_trip(self, tmp_path):
        first = tmp_path / "first.csv"
        rng = np.random.default_rng(3)
        seq = make_seq(rng.normal(size=(5, 2)))
        save_sequence(seq, first)
        loaded = load_sequence(first)
        assert loaded.dt == seq.dt
        np.testing.assert_array_equal(loaded.frames, seq.frames)
        second = tmp_path / "second.csv"
        save_sequence(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_golden_bytes(self, tmp_path):
        # Digest recorded before save_sequence moved onto write_table: 2100
        # rows span several formatting chunks, and -0.0, 0.1 and 1e-300 keep
        # their repr. The sequence comes from load_sequence and with_frames,
        # whose signatures the move left as they were.
        frames = np.arange(4200, dtype=float).reshape(2100, 2) / 7.0 - 50.0
        frames[0] = (-0.0, 0.1)
        frames[1] = (1e-300, -1e-300)
        template = load_sequence(write(tmp_path / "t.csv", "# dt=0.1\nshoulder,elbow\n0,0\n0,0\n"))
        save_sequence(template.with_frames(frames), tmp_path / "s.csv")
        digest = hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest()
        assert digest == "8d8b76513942f8b97e171c6e9c2811b30882ad71a292c01ff7baad7f04177031"

    @pytest.mark.parametrize("t", [1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 3 * _CSV_CHUNK + 5],
                             ids=["one-row", "chunk-1", "chunk", "chunk+1", "3-chunks+5"])
    def test_write_table_bytes_match_a_row_wise_reference(self, tmp_path, t):
        # A 1-D column, a (T, 3) block and the 1-D column again, the same
        # array object, against one repr per value of each row.
        special = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
        rng = np.random.default_rng(t)
        column = rng.normal(size=t) * 10.0 ** rng.integers(-20, 20, size=t)
        block = rng.normal(size=(t, 3))
        column[: len(special)] = special[:t]
        block[: len(special), 1] = special[:t]
        write_table(tmp_path / "w.csv", "a,b0,b1,b2,a", (column, block, column))
        rows = ["a,b0,b1,b2,a"] + [",".join(map(repr, [c, *b, c]))
                                   for c, b in zip(column.tolist(), block.tolist())]
        assert (tmp_path / "w.csv").read_text() == "\n".join(rows) + "\n"


class TestSequenceInvariants:
    def test_too_short(self):
        with pytest.raises(ShapeError):
            make_seq([[1.0, 2.0]])

    def test_duplicate_names(self):
        with pytest.raises(ParameterError):
            make_seq([[1, 2], [3, 4]], names=("a", "a"))

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_dt(self, dt):
        with pytest.raises(ParameterError, match="finite"):
            make_seq([[1, 2], [3, 4]], dt=dt)

    def test_joint_count_matches_columns(self):
        with pytest.raises(ShapeError):
            make_seq([[1, 2, 3], [4, 5, 6]])

    def test_frames_read_only(self):
        seq = make_seq([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            seq.frames[0, 0] = 9.0


class TestNormalization:
    def test_linear_map(self):
        seq = make_seq([[2.0, 1.0], [4.0, 2.0], [6.0, 3.0]])
        params = fit_normalizer([seq])
        normed = params.apply(seq.frames)
        np.testing.assert_allclose(normed[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(normed[:, 1], [0.0, 0.5, 1.0])

    def test_inverse_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            seq = make_seq(rng.normal(scale=rng.uniform(0.1, 50), size=(12, 2)))
            params = fit_normalizer([seq])
            back = params.invert(params.apply(seq.frames))
            np.testing.assert_allclose(back, seq.frames, rtol=1e-12, atol=0)

    def test_degenerate_channel(self):
        seq = make_seq([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.raises(DegenerateChannelError, match="'a'"):
            fit_normalizer([seq])

    def test_fit_over_multiple_sequences(self):
        a = make_seq([[0.0, 0.0], [1.0, 1.0]])
        b = make_seq([[2.0, -1.0], [3.0, 0.5]])
        params = fit_normalizer([a, b])
        np.testing.assert_array_equal(params.lo, [0.0, -1.0])
        np.testing.assert_array_equal(params.hi, [3.0, 1.0])

    def test_json_round_trip(self):
        params = NormalizationParams(("a", "b"), np.array([-1.0, 2.0]), np.array([1.5, 4.0]))
        loaded = NormalizationParams.from_dict(json.loads(json.dumps(params.to_dict())))
        assert loaded.joints == params.joints
        np.testing.assert_array_equal(loaded.lo, params.lo)
        np.testing.assert_array_equal(loaded.hi, params.hi)

    def test_abs_max(self):
        params = NormalizationParams(("a", "b"), np.array([-3.0, 2.0]), np.array([1.5, 4.0]))
        assert (params.abs_max("a"), params.abs_max("b")) == (3.0, 4.0)
        assert type(params.abs_max("a")) is float


class TestActivation:
    def test_examples(self):
        act = torque_to_activation(np.array([0.0, -25.0, 80.0]), 50.0)
        np.testing.assert_array_equal(act, [0.0, 50.0, 100.0])

    def test_domain(self):
        with pytest.raises(ParameterError):
            torque_to_activation(1.0, 0.0)
        with pytest.raises(ParameterError):
            torque_to_activation(1.0, -2.0)

    def test_range_and_evenness(self):
        rng = np.random.default_rng(7)
        tau = rng.normal(scale=100, size=500)
        act = torque_to_activation(tau, 40.0)
        assert np.all(act >= 0) and np.all(act <= 100)
        np.testing.assert_array_equal(act, torque_to_activation(-tau, 40.0))


class TestSplit:
    def make_pool(self, n):
        rng = np.random.default_rng(0)
        return [make_seq(rng.normal(size=(4, 2))) for _ in range(n)]

    def test_sizes_and_determinism(self):
        pool = self.make_pool(10)
        train1, test1 = split_train_test(pool, 0.8, seed=7)
        train2, test2 = split_train_test(pool, 0.8, seed=7)
        assert len(train1) == 8 and len(test1) == 2
        assert [id(s) for s in train1] == [id(s) for s in train2]
        assert [id(s) for s in test1] == [id(s) for s in test2]

    def test_partition(self):
        pool = self.make_pool(10)
        train, test = split_train_test(pool, 0.8, seed=3)
        ids = {id(s) for s in train} | {id(s) for s in test}
        assert len(ids) == 10 and len(train) + len(test) == 10

    def test_other_seed_same_sizes(self):
        pool = self.make_pool(10)
        train, test = split_train_test(pool, 0.8, seed=8)
        assert len(train) == 8 and len(test) == 2

    def test_too_few(self):
        with pytest.raises(SplitError):
            split_train_test(self.make_pool(1), 0.8, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            split_train_test(self.make_pool(4), 1.0, seed=0)
