import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofuzzy.core import (
    MAX_FEATURES,
    ConfigError,
    DataError,
    RunningStandardizer,
    Sample,
    StreamConfig,
    chunks,
    onehot,
)


def make_samples(n, u=2):
    return [Sample(np.full(u, float(i)), label=1) for i in range(n)]


class TestRunningStandardizer:
    def test_first_sample_is_all_zeros(self):
        s = RunningStandardizer(3)
        out = s.fit_transform(np.array([5.0, -2.0, 0.3]))
        assert np.all(out == 0.0)

    def test_constant_stream_stays_zero(self):
        s = RunningStandardizer(2)
        for _ in range(10):
            out = s.fit_transform(np.array([5.0, 5.0]))
            assert np.all(out == 0.0)

    def test_matches_batch_statistics_oracle(self):
        # stream {1, 3} seen, then standardize(3): expected value from a
        # batch mean/std (ddof=1) over the full prefix {1, 3, 3}
        s = RunningStandardizer(1)
        s.fit_transform(np.array([1.0]))
        s.fit_transform(np.array([3.0]))
        out = s.fit_transform(np.array([3.0]))
        prefix = np.array([1.0, 3.0, 3.0])
        expected = (3.0 - prefix.mean()) / prefix.std(ddof=1)
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        s = RunningStandardizer(3)
        with pytest.raises(DataError):
            s.fit_transform(np.array([1.0, 2.0]))
        # both take one vector (u,) or a block (N, u)
        for bad in ([[1.0, 2.0, 3.0], [1.0, 2.0]], np.zeros((2, 2)), np.zeros((1, 2, 3))):
            for step in (s.transform, s.fit_transform):
                with pytest.raises(DataError):
                    step(bad)
        assert s.count == 0
        with pytest.raises(DataError, match="^row 1 of the chunk: expected numeric"):
            s.fit_transform([np.zeros(3), np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_without_update(self, bad):
        s = RunningStandardizer(2)
        s.fit_transform(np.array([1.0, 2.0]))
        before = s.snapshot()
        for step in (s.fit_transform, s.transform):
            with pytest.raises(DataError):
                step(np.array([0.5, bad]))
        with pytest.raises(DataError, match="row 1 of the block"):
            s.transform(np.array([[0.5, 0.5], [0.5, bad]]))
        assert s.snapshot() == before

    def test_the_first_nonfinite_row_is_named(self):
        s = RunningStandardizer(2)
        s.fit_transform(np.array([[1.0, 2.0], [3.0, -1.0]]))
        x = np.ones((6, 2))
        x[2, 1], x[4, 0] = np.inf, np.nan
        with pytest.raises(DataError, match="^row 2 of the block: feature values must be finite$"
                           ) as exc:
            s.transform(x)
        assert exc.value.row == 2
        with pytest.raises(DataError, match="^feature values must be finite$") as exc:
            s.transform(x[4])
        assert exc.value.row is None

    def test_overflow_rejected_without_update(self):
        s = RunningStandardizer(2)
        for v in ([1.0, 2.0], [3.0, -1.0]):
            s.fit_transform(np.array(v))
        before = s.snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow"):
                s.fit_transform(np.array([1e200, 0.0]))
        assert s.snapshot() == before

    def test_chunk_equals_row_by_row(self):
        # rows 0-1 have count < 2 and stay unscaled; feature 1 is constant,
        # so its std is 0 and it is divided by STD_FLOOR
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3)) * [1.0, 0.0, 1e3] + [0.0, 7.0, 5.0]
        x[25:, 1] += 1e-9  # a step below the floor's scale
        rows, block = RunningStandardizer(3), RunningStandardizer(3)
        expected = [rows.fit_transform(v) for v in x[:13]]
        got = [block.fit_transform(x[:1]), block.fit_transform(x[1:13])]
        assert np.array_equal(np.vstack(got), expected)
        expected = [rows.fit_transform(v) for v in x[13:]]
        assert np.array_equal(block.fit_transform(x[13:]), expected)
        assert block.snapshot() == rows.snapshot()
        assert np.all(np.vstack(expected)[:12, 1] == 0.0)
        assert np.all(np.abs(np.vstack(expected)[12:, 1]) > 0.0)

    def test_failing_chunk_row_is_named_and_absorbs_nothing(self):
        s = RunningStandardizer(2)
        s.fit_transform(np.array([[1.0, 2.0], [3.0, -1.0]]))
        before = s.snapshot()
        x = np.ones((5, 2))
        x[3, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^row 3 of the chunk: .*overflow"):
                s.fit_transform(x)
        x[3, 0] = np.nan
        with pytest.raises(DataError, match="^row 3 of the chunk: .*finite"):
            s.fit_transform(x)
        assert s.snapshot() == before

    @pytest.mark.parametrize("bad_row", [0, 1])
    def test_fresh_learner_names_the_huge_row(self, bad_row):
        """A fresh learner's first value overflows only with its second,
        so the one of the larger magnitude is named."""
        x = np.ones((4, 2))
        x[bad_row, 0] = -1e200
        with pytest.raises(DataError, match=f"^row {bad_row} of the chunk: .*overflow"):
            RunningStandardizer(2).fit_transform(x)

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2,
                max_size=2,
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_running_stats_match_batch(self, rows):
        s = RunningStandardizer(2)
        for row in rows:
            s.fit_transform(np.array(row))
        batch = np.array(rows)
        assert np.allclose(s.mean, batch.mean(axis=0), rtol=1e-9, atol=1e-9)
        assert np.allclose(
            s.var, batch.var(axis=0, ddof=1), rtol=1e-9, atol=1e-9
        )

    def test_transform_does_not_update(self):
        s = RunningStandardizer(1)
        s.fit_transform(np.array([1.0]))
        s.fit_transform(np.array([3.0]))
        count = s.count
        s.transform(np.array([100.0]))
        assert s.count == count

    def test_snapshot_roundtrip(self):
        s = RunningStandardizer(2)
        for v in ([1.0, 2.0], [3.0, -1.0], [0.5, 0.5]):
            s.fit_transform(np.array(v))
        s2 = RunningStandardizer.from_snapshot(s.snapshot())
        x = np.array([0.7, 1.3])
        assert np.array_equal(s.transform(x), s2.transform(x))



class TestSample:
    def test_label_can_be_set_but_no_other_attribute(self):
        s = Sample(np.zeros(2), 1)
        s.label = 2
        assert s.label == 2
        with pytest.raises(AttributeError):
            s.weight = 0.5


class TestChunks:
    def test_even_split(self):
        out = list(chunks(make_samples(10), 5))
        assert [len(c) for c in out] == [5, 5]
        assert [c.index for c in out] == [0, 1]

    def test_partial_final_chunk(self):
        out = list(chunks(make_samples(11), 5))
        assert [len(c) for c in out] == [5, 5, 1]

    def test_empty_source(self):
        assert list(chunks([], 5)) == []

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            list(chunks(make_samples(3), 0))

    @pytest.mark.parametrize("n", [0, 4, 10, 11])
    def test_generator_gives_the_list_chunks(self, n):
        """A one-pass generator is cut exactly as the list of the same
        samples, the final partial chunk included."""
        samples = make_samples(n)
        want = [(c.index, c.samples) for c in chunks(samples, 5)]
        assert [(c.index, c.samples) for c in chunks((s for s in samples), 5)] == want
        assert [len(c) for _, c in want] == [5] * (n // 5) + [n % 5] * (n % 5 > 0)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=9))
    def test_preserves_count_and_order(self, n, p):
        samples = make_samples(n)
        flat = [s for c in chunks(samples, p) for s in c.samples]
        assert len(flat) == n
        assert all(a is b for a, b in zip(flat, samples))


class TestStreamConfig:
    def test_ofs_b_defaults_to_all_features(self):
        cfg = StreamConfig(n_features=4, n_classes=2)
        assert cfg.ofs_b == 4

    def test_ofs_b_range(self):
        with pytest.raises(ConfigError):
            StreamConfig(n_features=3, n_classes=2, ofs_b=5)

    def test_n_features_bound(self):
        """The novelty gate has a chi-square threshold for at most 64
        active features, so a wider stream is a configuration error."""
        assert MAX_FEATURES == 64
        assert StreamConfig(n_features=MAX_FEATURES, n_classes=2).ofs_b == 64
        with pytest.raises(ConfigError, match="^n_features must be <= 64$"):
            StreamConfig(n_features=MAX_FEATURES + 1, n_classes=2)


class TestOnehot:
    def test_encodes_one_based_labels(self):
        assert np.array_equal(onehot(1, 3), [1.0, 0.0, 0.0])
        assert np.array_equal(onehot(3, 3), [0.0, 0.0, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            onehot(0, 2)
        with pytest.raises(DataError):
            onehot(3, 2)
