import hashlib
import itertools

import numpy as np
import pytest

from evofuzzy.core import ConfigError, DataError, Sample
from evofuzzy.datagen import (
    _BLOCK,
    HyperplaneConfig,
    SeaConfig,
    _margin,
    csv_dims,
    csv_line,
    gen_hyperplane,
    gen_sea,
    load_csv,
    write_csv,
)


def sea_label(theta: float, x) -> int:
    """Class 2 when the first two features sum below the threshold."""
    return 2 if x[0] + x[1] < theta else 1


def hyperplane_label(w, w0: float, x) -> int:
    """Class 1 strictly above the hyperplane, class 2 on or below it."""
    return 1 if _margin(w, x) > w0 else 2


class TestSeaLabelRule:
    def test_below_threshold_is_class_two(self):
        assert sea_label(4.0, [1.0, 2.0, 0.0]) == 2  # sum 3 < 4

    def test_at_or_above_threshold_is_class_one(self):
        assert sea_label(7.0, [5.0, 5.0, 9.9]) == 1  # sum 10 >= 7
        assert sea_label(7.0, [3.0, 4.0, 0.0]) == 1  # boundary: not below


class TestGenSea:
    def test_labels_follow_rule_without_noise(self):
        cfg = SeaConfig(n_total=2000, seed=3, thresholds=(4.0,))
        for s in gen_sea(cfg):
            assert s.label == sea_label(4.0, s.x)
            assert np.all((0.0 <= s.x) & (s.x <= 10.0))
            assert len(s.x) == 3

    def test_default_stream_counting_oracle(self):
        cfg = SeaConfig(seed=1)
        samples = list(gen_sea(cfg))
        assert len(samples) == 100_000
        share = sum(1 for s in samples if s.label == 2) / len(samples)
        assert 0.22 <= share <= 0.28
        # threshold switches exactly at 25k, 50k, 75k
        segment = 25_000
        for k, theta in enumerate(cfg.thresholds):
            block = samples[k * segment : (k + 1) * segment]
            assert all(s.label == sea_label(theta, s.x) for s in block)

    def test_seed_determinism(self):
        a = list(itertools.islice(gen_sea(SeaConfig(seed=9)), 1000))
        b = list(itertools.islice(gen_sea(SeaConfig(seed=9)), 1000))
        assert all(np.array_equal(x.x, y.x) and x.label == y.label for x, y in zip(a, b))

    def test_noise_flips_labels(self):
        clean = list(itertools.islice(gen_sea(SeaConfig(seed=5)), 3000))
        noisy = list(
            itertools.islice(gen_sea(SeaConfig(seed=5, noise_frac=0.2)), 3000)
        )
        flips = sum(1 for c, n in zip(clean, noisy) if c.label != n.label)
        assert 0.1 < flips / 3000 < 0.3


class TestHyperplaneLabelRule:
    def test_above_plane_positive(self):
        assert hyperplane_label([1.0, 1.0, 0.0, 0.0], 1.0, [0.9, 0.9, 0.0, 0.0]) == 1

    def test_on_plane_is_negative(self):
        # strict inequality for the positive class
        assert hyperplane_label([1.0, 1.0], 1.0, [0.5, 0.5]) == 2


class TestGenHyperplane:
    def test_pre_drift_labels_follow_first_concept(self):
        w = (0.5, 0.5, 0.5, 0.5)
        cfg = HyperplaneConfig(
            n_total=5000, drift_start=4000, seed=2, w_before=w, w_after=(1, 0, 0, 0), w0=1.0
        )
        for s in itertools.islice(gen_hyperplane(cfg), 4000):
            assert s.label == hyperplane_label(w, 1.0, s.x)

    def test_agreement_decays_across_ramp(self):
        cfg = HyperplaneConfig(n_total=60_000, drift_start=20_000, seed=4)
        samples = list(gen_hyperplane(cfg))
        rng = np.random.default_rng(cfg.seed)
        wb = rng.uniform(0.1, 1.0, size=cfg.n_features)
        wb /= np.linalg.norm(wb)
        w0 = 0.5 * wb.sum()

        def agreement(block):
            return np.mean([s.label == hyperplane_label(wb, w0, s.x) for s in block])

        pre = agreement(samples[:20_000])
        ramp_w = int(cfg.ramp_frac * cfg.n_total)
        mid = agreement(samples[20_000 + ramp_w // 3 : 20_000 + 2 * ramp_w // 3])
        post = agreement(samples[20_000 + ramp_w :])
        assert pre == 1.0
        assert pre > mid > post

    def test_seed_determinism(self):
        a = list(itertools.islice(gen_hyperplane(HyperplaneConfig(seed=6)), 500))
        b = list(itertools.islice(gen_hyperplane(HyperplaneConfig(seed=6)), 500))
        assert all(np.array_equal(x.x, y.x) and x.label == y.label for x, y in zip(a, b))

    def test_drift_start_validated(self):
        with pytest.raises(ConfigError):
            HyperplaneConfig(n_total=100, drift_start=100)

    @pytest.mark.parametrize("n_total, drift_start", [(120_000, 40_000), (2000, 666)])
    def test_drift_start_defaults_to_a_third_of_the_stream(self, n_total, drift_start):
        assert HyperplaneConfig(n_total=n_total).drift_start == drift_start


# SHA-256 of each stream's stacked features (little-endian float64) then
# its labels (little-endian int64).  A change of values, of the order of
# RNG calls or of a label changes the digest.
PINNED = {
    "sea-default": (
        lambda: gen_sea(SeaConfig(n_total=20_000)),
        "a29ff8089e19b48a1e6ecb7257c4c30495170f0107eed53d90c50b549745214e",
    ),
    "sea-noise": (
        lambda: gen_sea(SeaConfig(n_total=20_000, noise_frac=0.1, seed=4)),
        "77e4752d3ca1c423a2158f36e069dea3da0c02c45120d046dadeae8ea10af298",
    ),
    "sea-axis": (
        lambda: gen_sea(SeaConfig(n_total=25_000, thresholds=(4.0,), seed=7)),
        "1c08b95b7d41a722bce6ed9c9243c15bb88b64aa328fd048c3e6171a8505881f",
    ),
    "hyperplane-default": (
        lambda: gen_hyperplane(HyperplaneConfig(n_total=20_000)),
        "2dfb1c6eb447696adb79df82517e602a830d916487d50abe11ce00b8fdb688bc",
    ),
    "hyperplane-6-noise": (
        lambda: gen_hyperplane(
            HyperplaneConfig(n_total=20_000, n_features=6, noise_frac=0.1, seed=2)
        ),
        "599ff4748fa6696a6bcdd42481c90ad69633a6d96843f9a63330df7f76552492",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_stream_is_pinned(name):
    stream, digest = PINNED[name]
    samples = list(stream())
    h = hashlib.sha256(np.stack([s.x for s in samples]).astype("<f8").tobytes())
    h.update(np.array([s.label for s in samples], dtype="<i8").tobytes())
    assert h.hexdigest() == digest



# -- per-sample oracles ---------------------------------------------------------
#
# The generators as they read one sample at a time: a block of candidates
# is drawn when the previous one runs out, and every per-sample draw is
# one rng.random() call at its place in the stream.  The block-at-a-time
# generators must give the same rows, labels and RNG call order.


def sea_oracle(cfg, crossings=None):
    """Per-sample gen_sea; appends to crossings each sample whose forced
    search ran off the end of a block."""
    rng = np.random.default_rng(cfg.seed)
    segment = max(cfg.n_total // len(cfg.thresholds), 1)
    buf = np.empty((0, cfg.n_features))
    pos = 0
    n2 = 0
    for i in range(cfg.n_total):
        theta = cfg.thresholds[min(i // segment, len(cfg.thresholds) - 1)]
        force_minority = i > 0 and n2 / i < cfg.minority_frac
        searched = 0
        while True:
            if pos >= len(buf):
                if searched and crossings is not None:
                    crossings.append(i)
                buf = rng.uniform(0.0, 10.0, size=(_BLOCK, cfg.n_features))
                pos = 0
            x = buf[pos]
            pos += 1
            searched += 1
            label = sea_label(theta, x)
            if not force_minority or label == 2:
                break
        if label == 2:
            n2 += 1
        if cfg.noise_frac > 0.0 and rng.random() < cfg.noise_frac:
            label = 3 - label
        yield Sample(x.copy(), label)


def hyperplane_oracle(cfg):
    """Per-sample gen_hyperplane."""
    rng = np.random.default_rng(cfg.seed)
    wb = rng.uniform(0.1, 1.0, size=cfg.n_features)
    wb = wb / np.linalg.norm(wb)
    wa = rng.uniform(0.1, 1.0, size=cfg.n_features)
    wa = wa / np.linalg.norm(wa)
    w0 = 0.5 * float(wb.sum())
    ramp = max(int(cfg.ramp_frac * cfg.n_total), 1)
    buf = np.empty((0, cfg.n_features))
    pos = 0
    for i in range(cfg.n_total):
        if pos >= len(buf):
            buf = rng.uniform(0.0, 1.0, size=(_BLOCK, cfg.n_features))
            pos = 0
        x = buf[pos]
        pos += 1
        if i < cfg.drift_start:
            w = wb
        else:
            mix_p = min((i - cfg.drift_start) / ramp, 1.0)
            w = wa if rng.random() < mix_p else wb
        label = hyperplane_label(w, w0, x)
        if cfg.noise_frac > 0.0 and rng.random() < cfg.noise_frac:
            label = 3 - label
        yield Sample(x.copy(), label)


def assert_same_stream(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.x.tobytes() == w.x.tobytes(), f"x differs at sample {k}"
        assert g.label == w.label and type(g.label) is int, f"label differs at sample {k}"


SEA_THRESHOLDS = (4.0, 7.0, 3.0, 8.0)  # 9,000 samples: switches at 2,250, 4,500, 6,750


class TestGeneratorsMatchPerSampleOracles:
    @pytest.mark.parametrize("n_total", [1, 4095, 4096, 4097, 9000])
    @pytest.mark.parametrize("minority_frac", [0.25, 0.9])
    @pytest.mark.parametrize("noise_frac", [0.0, 0.1])
    def test_sea(self, n_total, minority_frac, noise_frac):
        for seed, n_features in [(0, 2), (5, 3), (11, 6)]:
            cfg = SeaConfig(n_total=n_total, thresholds=SEA_THRESHOLDS, seed=seed,
                            minority_frac=minority_frac, noise_frac=noise_frac,
                            n_features=n_features)
            assert_same_stream(gen_sea(cfg), sea_oracle(cfg))

    def test_sea_forced_searches_cross_block_edges(self):
        cfg = SeaConfig(n_total=9000, thresholds=SEA_THRESHOLDS, seed=2, minority_frac=0.9)
        crossings = []
        assert_same_stream(gen_sea(cfg), sea_oracle(cfg, crossings))
        assert len(crossings) >= 5

    # a hyperplane stream needs 0 < drift_start < n_total, so it has at
    # least 2 samples; drift starts before, at and after a block edge
    @pytest.mark.parametrize(
        "n_total, drift_start",
        [(2, 1), (4095, 1365), (4095, 4094), (4096, 4095), (4097, 4096),
         (9000, 3000), (9000, 4095), (9000, 4096), (9000, 4097), (9000, 8193)],
    )
    @pytest.mark.parametrize("noise_frac", [0.0, 0.1])
    def test_hyperplane(self, n_total, drift_start, noise_frac):
        for n_features in (2, 4, 6):
            cfg = HyperplaneConfig(n_total=n_total, n_features=n_features,
                                   drift_start=drift_start, ramp_frac=0.3,
                                   noise_frac=noise_frac, seed=n_total % 7 + n_features)
            assert_same_stream(gen_hyperplane(cfg), hyperplane_oracle(cfg))


class CountingRng:
    """A Generator that counts the values it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.uniform_calls = 0
        self.values = 0

    def uniform(self, low, high, size):
        self.uniform_calls += 1
        self.values += int(np.prod(size))
        return self.rng.uniform(low, high, size)

    def random(self, size=None):
        self.values += 1 if size is None else int(np.prod(size))
        return self.rng.random(size)


class TestLaziness:
    @pytest.mark.parametrize("noise_frac", [0.0, 0.1])
    def test_first_samples_of_a_huge_stream_need_one_block(self, monkeypatch, noise_frac):
        made = []
        real = np.random.default_rng

        def counting_rng(seed):
            made.append(CountingRng(real(seed)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        streams = {
            "sea": (gen_sea(SeaConfig(n_total=10**9, noise_frac=noise_frac)), 3, 0),
            "hyperplane": (gen_hyperplane(HyperplaneConfig(n_total=10**9,
                                                           noise_frac=noise_frac)), 4, 8),
        }
        for name, (stream, u, weights) in streams.items():
            first = list(itertools.islice(stream, 10))
            rng = made[-1]
            assert len(first) == 10, name
            # the weights, then one block of rows and at most two draws a row
            assert rng.uniform_calls == 1 + (weights > 0) * 2, name
            assert rng.values <= weights + _BLOCK * (u + 2), name
            # each x is a row view of the block, not a copy of its own
            assert first[0].x.base is not None and first[0].x.base is first[9].x.base, name


class TestCsv:
    def test_small_file_roundtrip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,class\n0.5,1.5,1\n2.0,3.0,2\n1.0,1.0,1\n")
        samples = list(load_csv(path))
        assert len(samples) == 3
        assert [s.label for s in samples] == [1, 2, 1]
        assert np.array_equal(samples[0].x, [0.5, 1.5])
        assert csv_dims(path) == (2, 2)

    def test_csv_line_counts_the_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x1,class\n0.5,1\n\n2.0,2\n\n\n1.0,1\n")
        assert [csv_line(path, k) for k in range(3)] == [2, 4, 7]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,class\n0.5,1.5,1\n2.0,2\n")
        with pytest.raises(DataError, match=":3:"):
            list(load_csv(path))

    def test_unknown_class_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,class\n0.5,7\n")
        with pytest.raises(DataError, match="unknown class"):
            list(load_csv(path, n_classes=2))

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,class\noops,1\n")
        with pytest.raises(DataError, match=":2:"):
            list(load_csv(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,class\n0.5,1.5,1\n2.0,{bad},2\n")
        with pytest.raises(DataError, match=":3: non-finite"):
            list(load_csv(path))

    def test_header_contract_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,target\n1.0,2.0,1\n")
        with pytest.raises(DataError, match="class"):
            list(load_csv(path))

    def test_generated_stream_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "sea.csv"
        original = list(itertools.islice(gen_sea(SeaConfig(seed=11)), 1000))
        n = write_csv(original, path)
        assert n == 1000
        loaded = list(load_csv(path))
        assert [s.label for s in loaded] == [s.label for s in original]
        for a, b in zip(original, loaded):
            assert np.array_equal(a.x, b.x)  # repr round trip is bit exact

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            list(load_csv(path))
