"""Tests for the signal pipeline: decimation, windows, features, CSV."""

import dataclasses
import os
import re
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiag.data
from qdiag.data import (
    AMPLITUDE_JITTER,
    CHUNK,
    FORK_SIZE,
    LABELS,
    SHAFT_AMPLITUDE,
    Dataset,
    RawSignal,
    Segment,
    SynthConfig,
    apply_normalizer,
    downsample,
    extract_features,
    fit_normalizer,
    load_features_csv,
    load_signals_csv,
    save_features_csv,
    save_signals_csv,
    segment_signal,
    signals_to_dataset,
    split,
    synth_generate,
)


def make_signal(samples, rate=48828.0, label="baseline", load=270.0) -> RawSignal:
    return RawSignal(np.asarray(samples, dtype=np.float64), rate, label, load)


# --- decimation -----------------------------------------------------------


def test_downsample_keeps_every_second_sample():
    signal = make_signal(np.arange(10.0), rate=97656.0)
    out = downsample(signal, 48828.0)
    assert out.sample_rate_hz == 48828.0
    assert np.array_equal(out.samples, [0.0, 2.0, 4.0, 6.0, 8.0])
    assert out.label == signal.label and out.load_lbs == signal.load_lbs


def test_downsample_identity_when_rates_match():
    signal = make_signal(np.arange(7.0), rate=48828.0)
    out = downsample(signal, 48828.0)
    assert np.array_equal(out.samples, signal.samples)
    assert out.sample_rate_hz == 48828.0


def test_downsample_rejects_non_integer_ratio():
    signal = make_signal(np.arange(100.0), rate=48828.0)
    with pytest.raises(ValueError, match="integer multiple"):
        downsample(signal, 20000.0)
    with pytest.raises(ValueError, match="positive"):
        downsample(signal, 0.0)
    # A ratio that overflows to inf cannot round; it is refused all the same.
    fast = make_signal(np.arange(100.0), rate=97656.0)
    with pytest.raises(ValueError, match=re.escape(
        "sample rate 97656.0 is not an integer multiple of target rate 1e-308 (ratio inf)"
    )):
        downsample(fast, 1e-308)


def test_downsample_large_factor():
    signal = make_signal(np.arange(12.0), rate=12000.0)
    out = downsample(signal, 3000.0)
    assert np.array_equal(out.samples, [0.0, 4.0, 8.0])


# --- windowing ------------------------------------------------------------


def test_segment_count_and_starts():
    signal = make_signal(np.arange(8000.0))
    segs = segment_signal(signal, length=4000, overlap=200)
    assert len(segs) == 2
    assert np.array_equal(segs[0].samples, np.arange(0.0, 4000.0))
    assert np.array_equal(segs[1].samples, np.arange(3800.0, 7800.0))


def test_consecutive_segments_share_the_overlap():
    signal = make_signal(np.arange(12000.0))
    segs = segment_signal(signal, length=4000, overlap=200)
    for a, b in zip(segs, segs[1:]):
        assert np.array_equal(a.samples[-200:], b.samples[:200])


def test_segment_exact_fit_and_short_signal():
    assert len(segment_signal(make_signal(np.zeros(4000)), 4000, 200)) == 1
    with pytest.raises(ValueError, match="shorter"):
        segment_signal(make_signal(np.zeros(3999)), 4000, 200)


def test_segment_parameter_validation():
    signal = make_signal(np.zeros(100))
    with pytest.raises(ValueError, match="length > overlap"):
        segment_signal(signal, length=10, overlap=10)
    with pytest.raises(ValueError, match="length > overlap"):
        segment_signal(signal, length=10, overlap=-1)


def test_segment_count_formula_against_enumeration():
    # Count must equal the number of window starts that fit entirely.
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(50, 2000))
        length = int(rng.integers(10, 50))
        overlap = int(rng.integers(0, length - 1))
        stride = length - overlap
        expected = len([s for s in range(0, n, stride) if s + length <= n])
        if expected == 0:
            continue
        segs = segment_signal(make_signal(np.zeros(n)), length, overlap)
        assert len(segs) == expected


# --- features -------------------------------------------------------------


def test_features_of_a_constant_window():
    fv = extract_features(Segment(np.full(1000, 0.5), "baseline"))
    assert fv.mean == 0.5
    assert fv.variance == 0.0
    assert fv.max_amplitude == 0.5
    assert fv.peak_to_peak == 0.0
    assert fv.rms == 0.5


def test_features_of_an_alternating_window():
    fv = extract_features(Segment(np.array([1.0, -1.0, 1.0, -1.0]), "outer_ring"))
    assert fv.mean == 0.0
    assert fv.variance == 1.0
    assert fv.max_amplitude == 1.0
    assert fv.peak_to_peak == 2.0
    assert fv.rms == 1.0
    assert fv.label == "outer_ring"


def test_sine_rms_is_amplitude_over_sqrt2():
    # Whole periods on a uniform grid make mean(sin^2) exactly 1/2.
    t = np.arange(1000) / 1000.0
    fv = extract_features(Segment(1.7 * np.sin(2.0 * np.pi * 5.0 * t), "baseline"))
    assert abs(fv.rms - 1.7 / np.sqrt(2.0)) < 1e-12
    assert abs(fv.peak_to_peak - 2.0 * fv.max_amplitude) < 1e-9


def test_rms_squared_equals_variance_plus_mean_squared():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.1, 4.0), size=500)
        fv = extract_features(Segment(x, "baseline"))
        assert abs(fv.rms**2 - (fv.variance + fv.mean**2)) < 1e-12


def test_empty_segment_rejected():
    with pytest.raises(ValueError, match="empty"):
        extract_features(Segment(np.array([]), "baseline"))


@pytest.mark.filterwarnings("error")  # an overflow must not warn, only raise
@pytest.mark.parametrize("big", [1e200, -1e308])
def test_features_that_overflow_are_rejected(big):
    x = np.zeros(8)
    x[3] = big
    with pytest.raises(ValueError, match="samples too large for finite features"):
        extract_features(Segment(x, "baseline"))


def test_signals_to_dataset_counts_and_skips():
    long = make_signal(np.random.default_rng(0).normal(size=8000))
    short = make_signal(np.zeros(100), label="outer_ring")
    dataset, skipped = signals_to_dataset(
        [long, short, long], target_rate_hz=48828.0, length=4000, overlap=200
    )
    assert skipped == [1]
    assert len(dataset) == 4  # two windows per long record
    with pytest.raises(ValueError, match="single segment"):
        signals_to_dataset([short], target_rate_hz=48828.0)


# --- normalization --------------------------------------------------------


def test_normalizer_maps_fit_range_to_unit_interval():
    params = fit_normalizer(np.array([[2.0, 10.0], [4.0, 30.0]]))
    out = apply_normalizer(params, np.array([[2.0, 10.0], [3.0, 20.0], [4.0, 30.0]]))
    assert np.allclose(out, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], atol=1e-15)


def test_normalizer_clamps_out_of_range():
    params = fit_normalizer(np.array([[0.0], [1.0]]))
    out = apply_normalizer(params, np.array([[-5.0], [0.25], [9.0]]))
    assert np.allclose(out, [[0.0], [0.25], [1.0]], atol=1e-15)


def test_normalizer_degenerate_feature_maps_to_half():
    params = fit_normalizer(np.array([[3.0, 1.0], [3.0, 2.0]]))
    out = apply_normalizer(params, np.array([[3.0, 1.5], [99.0, 1.0]]))
    assert np.allclose(out[:, 0], 0.5)
    assert np.allclose(out[:, 1], [0.5, 0.0])
    # A bound overwritten with NaN in place leaves no positive span: 0.5 too.
    params.minimum[1] = np.nan
    with np.errstate(all="raise"):
        out = apply_normalizer(params, np.array([[3.0, 1.5], [99.0, 1.0]]))
    assert np.array_equal(out, np.full((2, 2), 0.5))


@pytest.mark.filterwarnings("error")  # overflow must neither warn nor leak out
def test_normalizer_span_is_finite_and_far_values_clamp_quietly():
    with pytest.raises(ValueError, match="span max - min must be finite"):
        fit_normalizer(np.array([[-1e308, 0.0], [1e308, 1.0]]))
    params = fit_normalizer(np.array([[0.0, -1e308], [1e-3, 0.0]]))
    out = apply_normalizer(params, np.array([[1e308, 1e308], [-1e308, -1e308]]))
    assert np.array_equal(out, [[1.0, 1.0], [0.0, 0.0]])
    # Values past the float range are refused, not clamped.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^features contain non-finite values$"):
            apply_normalizer(params, np.array([[0.0, 0.0], [bad, 0.0]]))


def test_normalizer_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        fit_normalizer(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))


def test_normalizer_attains_both_ends_on_training_data():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(40, 5)) * rng.uniform(0.5, 10.0, size=5)
    out = apply_normalizer(fit_normalizer(rows), rows)
    assert np.allclose(out.min(axis=0), 0.0, atol=1e-15)
    assert np.allclose(out.max(axis=0), 1.0, atol=1e-15)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_normalizer_feature_count_mismatch():
    params = fit_normalizer(np.zeros((2, 5)) + [[0.0] * 5, [1.0] * 5])
    with pytest.raises(ValueError, match="expected 5"):
        apply_normalizer(params, np.zeros((3, 4)))
    for shape in ((3, 4), (4,), (2, 3, 5)):
        with pytest.raises(ValueError, match=rf"^expected 5 features per row, "
                                             rf"got shape {re.escape(str(shape))}$"):
            apply_normalizer(params, np.zeros(shape))


# --- splitting ------------------------------------------------------------


def make_dataset(per_class=100, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(3 * per_class, 5))
    labels = np.repeat(np.arange(3), per_class)
    return Dataset(features, labels)


@pytest.mark.parametrize(
    "labels, message",
    [
        ([1.7, 0.2, 2.9], "labels must be integers, got dtype float64"),
        ([0, 1, 3], "label 3 out of range for 3 classes"),
        ([0, -1, 2], "label -1 out of range for 3 classes"),
    ],
    ids=["float", "too-large", "negative"],
)
def test_dataset_refuses_labels_outside_the_label_set(labels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.zeros((3, 5)), labels)


def test_split_is_stratified_eighty_twenty():
    dataset = make_dataset(per_class=100)
    out = split(dataset, train_fraction=0.8, seed=0)
    train_x, train_y = out.train
    test_x, test_y = out.test
    assert train_x.shape == (240, 5) and test_x.shape == (60, 5)
    assert np.array_equal(np.bincount(train_y), [80, 80, 80])
    assert np.array_equal(np.bincount(test_y), [20, 20, 20])


def test_split_same_seed_same_mask():
    dataset = make_dataset(per_class=50)
    a = split(dataset, 0.8, seed=7)
    b = split(dataset, 0.8, seed=7)
    c = split(dataset, 0.8, seed=8)
    assert np.array_equal(a.train_mask, b.train_mask)
    assert not np.array_equal(a.train_mask, c.train_mask)


def test_split_rounds_train_share_up_but_keeps_a_test_side():
    dataset = make_dataset(per_class=5)
    out = split(dataset, train_fraction=0.5, seed=0)
    assert np.array_equal(np.bincount(out.train[1]), [3, 3, 3])
    tiny = make_dataset(per_class=2)
    out = split(tiny, train_fraction=0.99, seed=0)
    assert np.array_equal(np.bincount(out.train[1]), [1, 1, 1])
    assert np.array_equal(np.bincount(out.test[1]), [1, 1, 1])


def test_split_fraction_bounds():
    dataset = make_dataset(per_class=10)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            split(dataset, train_fraction=bad)


def test_split_requires_every_class():
    rng = np.random.default_rng(0)
    dataset = Dataset(rng.normal(size=(20, 5)), np.repeat([0, 1], 10))
    with pytest.raises(ValueError, match="inner_ring"):
        split(dataset, 0.8, seed=0)


# --- synthetic rig --------------------------------------------------------


def small_config(**overrides) -> SynthConfig:
    base = dict(
        signals_per_class=2,
        duration_s=0.4,
        sample_rate_hz=20000.0,
        noise_std=0.05,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_synth_is_seeded_and_ordered():
    config = small_config()
    a = synth_generate(config, seed=5)
    b = synth_generate(config, seed=5)
    c = synth_generate(config, seed=6)
    assert len(a) == 6
    assert [s.label for s in a] == ["baseline"] * 2 + ["outer_ring"] * 2 + ["inner_ring"] * 2
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)
    assert not np.array_equal(a[0].samples, c[0].samples)


def test_synth_clean_baseline_is_a_pure_sine():
    # 25 Hz at 20 kHz gives 800 samples per period, so 0.4 s is 10 whole
    # periods and the rms comes out at amplitude / sqrt(2) exactly.  The
    # grid rarely samples the exact crest; the miss is O((w*dt)^2 / 8).
    config = small_config(noise_std=0.0)
    signal = synth_generate(config, seed=0)[0]
    fv = extract_features(Segment(signal.samples, signal.label))
    assert abs(fv.rms * np.sqrt(2.0) - fv.max_amplitude) < 1e-4
    # The amplitude is jittered once per record, within the rig's bounds.
    assert (
        SHAFT_AMPLITUDE * (1 - AMPLITUDE_JITTER)
        <= fv.max_amplitude
        <= SHAFT_AMPLITUDE * (1 + AMPLITUDE_JITTER)
    )


def test_synth_fault_classes_hit_harder():
    config = small_config()
    signals = synth_generate(config, seed=3)
    peak = {label: [] for label in LABELS}
    for s in signals:
        peak[s.label].append(float(np.max(np.abs(s.samples))))
    assert max(peak["baseline"]) < min(peak["outer_ring"])
    assert max(peak["outer_ring"]) < min(peak["inner_ring"])


def test_synth_config_validation():
    with pytest.raises(ValueError, match="signals_per_class"):
        synth_generate(SynthConfig(signals_per_class=0))
    with pytest.raises(ValueError, match="noise_std"):
        synth_generate(small_config(noise_std=-1.0))
    with pytest.raises(ValueError, match="duration_s"):
        synth_generate(small_config(duration_s=0.0))
    with pytest.raises(ValueError, match="num_classes"):
        synth_generate(SynthConfig(num_classes=4))
    with pytest.raises(ValueError, match=r"^duration_s 1e-09 at sample_rate_hz 97656\.0 "
                                         r"gives no sample$"):
        synth_generate(SynthConfig(duration_s=1e-9))
    with pytest.raises(ValueError, match=r"^duration_s 1e\+200 at sample_rate_hz 1e\+200 "
                                         r"gives an infinite sample count$"):
        SynthConfig(duration_s=1e200, sample_rate_hz=1e200)


def test_synth_config_is_frozen():
    config = SynthConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.duration_s = 0.0


def test_synth_default_record_geometry():
    config = SynthConfig(signals_per_class=1)
    signal = synth_generate(config, seed=0)[0]
    assert signal.samples.size == 585936  # 6 s at 97656 Hz
    assert signal.sample_rate_hz == 97656.0


# --- CSV bridges ----------------------------------------------------------


def test_signals_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    signals = [
        make_signal(rng.normal(size=50), rate=97656.0, label="baseline", load=270.0),
        make_signal(rng.normal(size=30), rate=48828.0, label="inner_ring", load=25.0),
    ]
    path = tmp_path / "signals.csv"
    save_signals_csv(signals, path)
    loaded = load_signals_csv(path)
    assert len(loaded) == 2
    for orig, back in zip(signals, loaded):
        assert back.label == orig.label
        assert back.load_lbs == orig.load_lbs
        assert back.sample_rate_hz == orig.sample_rate_hz
        assert np.array_equal(back.samples, orig.samples)  # repr() is exact


def test_signals_csv_loose_blank_lines_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    signals = [
        make_signal(rng.normal(size=7), rate=97656.0, label="outer_ring", load=270.0),
        make_signal(rng.normal(size=5), rate=48828.0, label="baseline", load=0.0),
        make_signal(rng.normal(size=3), rate=48828.0, label="inner_ring", load=25.0),
    ]
    path = tmp_path / "signals.csv"
    save_signals_csv(signals, path)
    # Leading blank lines, several blank lines (one of spaces) between blocks,
    # and no newline after the last sample.
    text = "\n\n" + path.read_text().replace("\n\n", "\n\n  \n\n").rstrip("\n")
    path.write_text(text)
    loaded = load_signals_csv(path)
    assert len(loaded) == 3
    for orig, back in zip(signals, loaded):
        assert (back.label, back.load_lbs, back.sample_rate_hz) == (
            orig.label, orig.load_lbs, orig.sample_rate_hz)
        assert np.array_equal(back.samples, orig.samples)


def test_signals_csv_error_positions(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("baseline,270.0,48828.0\n1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 3") as info:
        load_signals_csv(path)
    assert str(info.value).startswith(f"{path}: line 3: sample is not a number")
    assert str(info.value).count(str(path)) == 1
    path.write_text("gearbox,270.0,48828.0\n1.0\n")
    with pytest.raises(ValueError, match="line 1.*gearbox"):
        load_signals_csv(path)
    path.write_text("baseline,270.0\n1.0\n")
    with pytest.raises(ValueError, match="3 fields"):
        load_signals_csv(path)
    path.write_text("baseline,270.0,48828.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="one sample"):
        load_signals_csv(path)
    path.write_text("baseline,270.0,48828.0\n")
    with pytest.raises(ValueError, match="no samples"):
        load_signals_csv(path)
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no signal blocks"):
        load_signals_csv(path)
    path.write_bytes(b"baseline,270.0,48828.0\n1.0\n2.0\xe9\n")
    with pytest.raises(ValueError, match="not ASCII text") as info:
        load_signals_csv(path)
    assert str(info.value) == f"{path}: not ASCII text"


# Signal text is written and parsed CHUNK sample lines at a time; these
# files put their defects and block ends at and around the chunk edges.
HEADER = "baseline,270.0,97656.0"
BAD_SAMPLES = {
    "inf": "sample must be finite, got 'inf'",
    "nan": "sample must be finite, got 'nan'",
    "abc": "sample is not a number: 'abc'",
    "1.0,2.0": "expected one sample value, got '1.0,2.0'",
}


def sample_lines(n, seed=0):
    return [repr(v) + "\n" for v in np.random.default_rng(seed).normal(size=n).tolist()]


@pytest.mark.parametrize("line_no", [7, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 19])
@pytest.mark.parametrize("bad", list(BAD_SAMPLES))
def test_signals_csv_bad_sample_names_its_line_at_chunk_edges(tmp_path, bad, line_no):
    lines = [HEADER + "\n"] + sample_lines(2 * CHUNK + 30)
    lines[line_no - 1] = bad + "\n"
    path = tmp_path / "bad.csv"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        load_signals_csv(path)
    assert str(info.value) == f"{path}: line {line_no}: {BAD_SAMPLES[bad]}"


@pytest.mark.parametrize("blank_no", [CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("separator", ["\n", "  \n", "\n\n"], ids=["blank", "spaces", "two"])
def test_signals_csv_block_ends_at_chunk_edges(tmp_path, separator, blank_no):
    first, second = sample_lines(blank_no - 2, seed=1), sample_lines(CHUNK + 3, seed=2)
    path = tmp_path / "two.csv"
    path.write_text("".join([HEADER + "\n", *first, separator,
                             "inner_ring,0.0,48828.0\n", *second]))
    a, b = load_signals_csv(path)
    assert (a.label, b.label, b.sample_rate_hz) == ("baseline", "inner_ring", 48828.0)
    assert a.samples.tolist() == [float(v) for v in first]
    assert b.samples.tolist() == [float(v) for v in second]


def test_signals_csv_blank_block_ends_stay_off_the_line_loop(tmp_path, monkeypatch):
    """Short records and chunks that hold a block end parse each sample once,
    in numpy: the per-line parse only sees the two numbers of each header."""
    blocks = [sample_lines(n, seed=n) for n in (1000, 5, CHUNK + 7, 3000, 1)]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(HEADER + "\n" + "".join(b) for b in blocks))
    parse_float, calls = qdiag.data._parse_float, []
    monkeypatch.setattr(qdiag.data, "_parse_float",
                        lambda *args: calls.append(args[2]) or parse_float(*args))
    signals = load_signals_csv(path)
    assert calls == ["load_lbs", "sample_rate_hz"] * len(blocks)
    for block, signal in zip(blocks, signals):
        assert signal.samples.tolist() == [float(v) for v in block]


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_signals_csv_line_endings_at_chunk_edges(tmp_path, count, newline, final_newline):
    values = [v.strip() for v in sample_lines(count, seed=3)]
    text = newline.join([HEADER, *values]) + (newline if final_newline else "")
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("ascii"))
    (signal,) = load_signals_csv(path)
    assert signal.samples.tolist() == [float(v) for v in values]


def test_signals_csv_round_trip_is_bit_exact_across_chunks(tmp_path):
    extremes = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.0, -0.0, 1.7e308, -1.7e308]
    first = np.random.default_rng(4).normal(size=2 * CHUNK + 5)
    for at in (0, CHUNK - 3, 2 * CHUNK - 2):
        first[at : at + len(extremes)] = extremes
    signals = [make_signal(first, rate=97656.0), make_signal(extremes, label="outer_ring")]
    path = tmp_path / "signals.csv"
    save_signals_csv(signals, path)
    reference = "\n".join(
        f"{s.label},{s.load_lbs!r},{s.sample_rate_hz!r}\n"
        + "".join(f"{v!r}\n" for v in s.samples.tolist())
        for s in signals
    )
    assert path.read_text() == reference
    for orig, back in zip(signals, load_signals_csv(path)):
        assert back.samples.tobytes() == orig.samples.tobytes()


def test_signals_csv_writer_refuses_non_finite_samples(tmp_path):
    path = tmp_path / "signals.csv"
    samples = np.zeros(CHUNK + 10)
    samples[CHUNK + 2] = -np.inf
    signals = [make_signal(np.ones(5)), make_signal(samples, label="inner_ring")]
    with pytest.raises(ValueError) as info:
        save_signals_csv(signals, path)
    assert str(info.value) == (
        f"record 2 (inner_ring): sample {CHUNK + 3} must be finite, got -inf"
    )
    assert not path.exists()


# With several usable CPUs the writer forks one child per CPU (at most one per
# chunk); the children format chunks round-robin and the caller writes them.
def per_sample_reference(signals):
    return "\n".join(
        f"{s.label},{s.load_lbs!r},{s.sample_rate_hz!r}\n"
        + "".join(f"{v!r}\n" for v in s.samples.tolist())
        for s in signals
    )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """The pids the writer or the reader forks.  The test fails after 60 s
    instead of hanging, and a child it left running is then killed and reaped."""
    fork, pids = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])

    def expire(signum, frame):
        pytest.fail("still running after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running: not reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped, as it should be
            pass


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "sizes", [[5], [CHUNK], [2 * CHUNK + 5], [CHUNK + 1, 3, 2 * CHUNK + 7, 10]],
    ids=["short", "one_chunk", "three_chunks", "seven_chunks_in_four"])
def test_pooled_signals_csv_writer_matches_the_per_sample_reference(
        tmp_path, monkeypatch, forked, cpus, sizes):
    rng = np.random.default_rng(len(sizes))
    signals = [make_signal(rng.normal(size=n), label=LABELS[k % len(LABELS)], load=float(k))
               for k, n in enumerate(sizes)]
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
    path = tmp_path / "signals.csv"
    save_signals_csv(signals, path)
    assert path.read_text() == per_sample_reference(signals)
    workers = min(cpus, sum(-(-n // CHUNK) for n in sizes))
    assert len(forked) == (workers if workers > 1 else 0)  # one chunk or CPU: no fork
    assert_no_child_left()


def fail_on_short_chunks(monkeypatch):
    """Make the chunk formatter raise for every chunk shorter than CHUNK."""
    chunk_text = qdiag.data._chunk_text

    def failing(samples):
        if samples.size < CHUNK:
            raise RuntimeError("formatter failed")
        return chunk_text(samples)
    monkeypatch.setattr(qdiag.data, "_chunk_text", failing)


def test_pooled_writer_failure_is_one_oserror_and_leaves_no_child(
        tmp_path, monkeypatch, forked):
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: 2)
    fail_on_short_chunks(monkeypatch)
    signals = [make_signal(np.ones(3 * CHUNK)),
               make_signal(np.ones(CHUNK + 9), label="inner_ring")]
    with pytest.raises(OSError) as info:
        save_signals_csv(signals, tmp_path / "signals.csv")
    assert str(info.value) == "record 2: the child process formatting it ended early"
    assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_pooled_writer_that_cannot_write_ends_its_children(monkeypatch, forked):
    """The caller fails while children still hold unsent text: closing the
    pipes ends them, and each is waited for."""
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: 2)
    with pytest.raises(OSError) as info:
        save_signals_csv([make_signal(np.ones(6 * CHUNK))], "/dev/full")
    assert "No space left on device" in str(info.value)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_writer_that_fails_removes_its_partial_file(tmp_path, monkeypatch, forked, cpus):
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
    fail_on_short_chunks(monkeypatch)
    path = tmp_path / "partial.csv"
    with pytest.raises(OSError if cpus > 1 else RuntimeError):
        save_signals_csv([make_signal(np.ones(CHUNK + 9))], path)
    assert not path.exists()
    assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_writer_that_fails_never_removes_a_device(monkeypatch, forked):
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: 2)
    with pytest.raises(OSError):
        save_signals_csv([make_signal(np.ones(3 * CHUNK))], "/dev/full")
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


# With several usable CPUs, and a file of FORK_SIZE bytes or more or a pipe, the
# reader's fast walk sends each chunk's sample text to one of W forked children;
# any doubt reads the file again with the line loop, which these tests call directly.
def serial_records(path):
    return qdiag.data._read_lines(path)


def assert_same_records(got, want):
    assert [(s.label, s.load_lbs, s.sample_rate_hz) for s in got] == [
        (s.label, s.load_lbs, s.sample_rate_hz) for s in want]
    assert [s.samples.tobytes() for s in got] == [s.samples.tobytes() for s in want]


def write_records(path, sizes, newline="\n"):
    """Records of the given sizes, 1 to 3 blank lines between them."""
    blocks = [f"{LABELS[k % 3]},{float(k)!r},97656.0\n" + "".join(sample_lines(n, seed=k))
              for k, n in enumerate(sizes)]
    text = "".join(b + "\n" * (k % 3 + 1) for k, b in enumerate(blocks[:-1])) + blocks[-1]
    path.write_bytes(text.replace("\n", newline).encode("ascii"))


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "sizes", [[5], [CHUNK], [2 * CHUNK + 5], [CHUNK + 1, 3, 2 * CHUNK + 7, 10],
              [2 * CHUNK, CHUNK - 1, 4, 4 * CHUNK + 3]],
    ids=["short", "one_chunk", "three_chunks", "seven_chunks_in_four", "exact_and_odd"])
def test_pooled_reader_matches_the_serial_loop(tmp_path, monkeypatch, forked, cpus, sizes,
                                               newline):
    path = tmp_path / "signals.csv"
    write_records(path, sizes, newline)
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
    signals = load_signals_csv(path)
    assert [s.samples.size for s in signals] == sizes
    assert_same_records(signals, serial_records(path))
    full_chunk = max(sizes) >= CHUNK  # else the file is shorter than one chunk
    assert len(forked) == (cpus if cpus > 1 and full_chunk else 0)
    assert_no_child_left()


def assert_forks_by_cpus(path, monkeypatch, forked, forks):
    """`path` reads as the line loop reads it, forking `forks(cpus)` children."""
    want = serial_records(path)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
        before = len(forked)
        assert_same_records(load_signals_csv(path), want)
        assert len(forked) - before == forks(cpus)
        assert_no_child_left()


def test_reader_forks_by_file_size_not_by_line_count(tmp_path, monkeypatch, forked):
    """A file of FORK_SIZE bytes goes to the children though it holds fewer than
    CHUNK lines; one of more than CHUNK short lines is parsed in-process."""
    path = tmp_path / "short_blocks.csv"
    write_records(path, [1500] * 42)
    assert path.stat().st_size >= FORK_SIZE
    assert path.read_bytes().count(b"\n") < CHUNK
    assert_forks_by_cpus(path, monkeypatch, forked, lambda cpus: cpus if cpus > 1 else 0)
    path = tmp_path / "short_lines.csv"
    path.write_text(HEADER + "\n" + "".join(f"{k % 10}\n" for k in range(2 * CHUNK)))
    assert path.stat().st_size < FORK_SIZE
    assert_forks_by_cpus(path, monkeypatch, forked, lambda cpus: 0)


def test_reader_forks_for_a_pipe_of_unknown_size(tmp_path, monkeypatch, forked):
    path = tmp_path / "signals.csv"
    write_records(path, [5, 3])
    want = serial_records(path)
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: 2)
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
        assert_same_records(load_signals_csv(f"/dev/fd/{cat.stdout.fileno()}"), want)
    assert len(forked) == 2
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("blank_no", [CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2,
                                      2 * CHUNK + 1, 2 * CHUNK + 2])
def test_pooled_reader_doubts_a_block_end_of_spaces(tmp_path, monkeypatch, forked, cpus,
                                                    blank_no):
    first, second = sample_lines(blank_no - 2, seed=1), sample_lines(CHUNK + 3, seed=2)
    path = tmp_path / "two.csv"
    path.write_text("".join([HEADER + "\n", *first, "  \n", "inner_ring,0.0,48828.0\n",
                             *second]))
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
    a, b = load_signals_csv(path)
    assert (a.label, b.label, b.sample_rate_hz) == ("baseline", "inner_ring", 48828.0)
    assert a.samples.tolist() == [float(v) for v in first]
    assert b.samples.tolist() == [float(v) for v in second]
    assert len(forked) == (cpus if cpus > 1 else 0)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("bad", ["abc", "inf", "nan", "1.0,2.0", "1.0\xe9"])
def test_pooled_reader_doubt_keeps_the_serial_message(tmp_path, monkeypatch, forked, cpus,
                                                      bad):
    """A defect in the second chunk; the first chunk goes to a child."""
    lines = [HEADER + "\n"] + sample_lines(3 * CHUNK)
    lines[CHUNK + 2000] = bad + "\n"  # past the text decoded with the first chunk
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(lines).encode("latin-1"))
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError) as info:
        load_signals_csv(path)
    message = ("not ASCII text" if bad.endswith("\xe9")
               else f"line {CHUNK + 2001}: {BAD_SAMPLES[bad]}")
    assert str(info.value) == f"{path}: {message}"
    assert len(forked) == cpus
    assert_no_child_left()


@pytest.mark.parametrize("later", ["1.0\xe9\n", "\n"], ids=["non_ascii", "blank_in_record"])
def test_pooled_reader_reports_the_first_defect_not_the_walks(tmp_path, monkeypatch, forked,
                                                              later):
    """The walk fails in chunk 2 (a non-ASCII byte, or a sample read as a header
    after a stray blank line) while chunk 1's doubt is still unread; the
    serial loop stops at chunk 1's bad sample."""
    lines = [HEADER + "\n"] + sample_lines(3 * CHUNK)
    lines[9], lines[CHUNK + 2000] = "abc\n", later
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(lines).encode("latin-1"))
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError) as info:
        load_signals_csv(path)
    assert str(info.value) == f"{path}: line 10: sample is not a number: 'abc'"
    assert_no_child_left()


def make_second_child_die(monkeypatch, forked, when):
    """The second forked child `os._exit`s before it answers: at once, or after
    taking its first message."""
    serve = qdiag.data._serve

    def dying(work, source, answers, inherited):
        if len(forked) == 2:  # the second child: the fixture's list ends in its 0
            if when == "after_one_text":
                qdiag.data._receive(source)
            os._exit(1)
        serve(work, source, answers, inherited)
    monkeypatch.setattr(qdiag.data, "_serve", dying)
    monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("when", ["at_once", "after_one_text"])
def test_pooled_reader_child_that_dies_changes_nothing(tmp_path, monkeypatch, forked, when):
    path = tmp_path / "signals.csv"
    write_records(path, [CHUNK + 1, 3, 3 * CHUNK + 7, 10])
    make_second_child_die(monkeypatch, forked, when)
    assert_same_records(load_signals_csv(path), serial_records(path))
    assert len(forked) == 2
    assert_no_child_left()


@pytest.mark.parametrize("when", ["at_once", "after_one_text"])
def test_pooled_writer_child_that_dies_is_one_oserror(tmp_path, monkeypatch, forked, when):
    """Of the three chunks, the second child owns the second: record 1's last."""
    make_second_child_die(monkeypatch, forked, when)
    path = tmp_path / "signals.csv"
    signals = [make_signal(np.ones(CHUNK + 9)), make_signal(np.ones(CHUNK), label="inner_ring")]
    with pytest.raises(OSError) as info:
        save_signals_csv(signals, path)
    assert str(info.value) == "record 1: the child process formatting it ended early"
    assert not path.exists()
    assert len(forked) == 2
    assert_no_child_left()


# A seeded fuzz of small edits to valid files: the fast walk, pooled or not,
# returns the line loop's records or falls back to its exact message.
FUZZ_SIZES = [[5, 7], [CHUNK + 3, 5], [CHUNK - 1, CHUNK + 2], [2 * CHUNK, 4]]
FUZZ_LINES = ["abc", "nan", "inf", "1,2", " 1.5 ", "  ", "\t", "", "1_0", "+2", "0x10",
              HEADER, "1e400", "1.0\xe9", "\x0c"]


def records_or_message(read, path):
    try:
        return read(path)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("case", range(40))
def test_fast_reader_matches_the_line_loop(tmp_path, monkeypatch, forked, case):
    rng = np.random.default_rng(1000 + case)
    sizes = FUZZ_SIZES[rng.integers(len(FUZZ_SIZES))]
    separator, newline = rng.choice(["", "  ", "\t"]), rng.choice(["\n", "\r\n"])
    first, second = (sample_lines(n, seed=case + k) for k, n in enumerate(sizes))
    lines = [v.rstrip("\n") for v in [HEADER, *first, separator, "inner_ring,0.0,48828.0",
                                        *second]]
    for at in rng.choice(len(lines), size=rng.integers(1, 3), replace=False):
        lines[at] = FUZZ_LINES[rng.integers(len(FUZZ_LINES))]
    text = newline.join(lines) + (newline if rng.integers(2) else "")
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode("latin-1"))
    want = records_or_message(qdiag.data._read_lines, path)
    for cpus in (1, 2):
        monkeypatch.setattr(qdiag.data, "_usable_cpus", lambda: cpus)
        got = records_or_message(load_signals_csv, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_records(got, want)
        assert_no_child_left()


SYNTH_SCRIPT = """
import os, sys
import qdiag.cli, qdiag.data
qdiag.data._usable_cpus = lambda: 2
if sys.argv[1] == "fail":
    chunk_text = qdiag.data._chunk_text
    def failing(samples):
        if samples.size < qdiag.data.CHUNK:
            raise RuntimeError("formatter failed")
        return chunk_text(samples)
    qdiag.data._chunk_text = failing
print("printed once")  # not flushed: stdout to a pipe is block-buffered
rc = qdiag.cli.main(["synth", "--per-class", "1", "--duration", "1", "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
sys.exit(rc)
"""


@pytest.mark.parametrize("mode", ["succeed", "fail"])
def test_pooled_synth_flushes_stdout_once_and_fails_with_one_error_line(tmp_path, mode):
    src = str(Path(qdiag.data.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "signals.csv"
    run = subprocess.run([sys.executable, "-c", SYNTH_SCRIPT, mode, str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    if mode == "succeed":
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == f"printed once\nwrote 3 signal block(s) to {out}\nno child left\n"
        assert len(load_signals_csv(out)) == 3
    else:
        assert run.returncode == 1
        assert run.stderr == "error: record 1: the child process formatting it ended early\n"
        assert run.stdout == "printed once\nno child left\n"


@pytest.mark.parametrize("text", ["1_0", " 1.5 ", "\t2", "1e400", "nan", "0x10"])
def test_numpy_parses_sample_text_like_float(text):
    """The chunk parse and the line loop must accept the same text."""
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(ValueError):
            np.array([text], dtype=np.float64)
        return
    parsed = np.array([text], dtype=np.float64)
    assert parsed.tobytes() == np.array([expected]).tobytes()


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    dataset = Dataset(rng.normal(size=(25, 5)) * 1e3, rng.integers(0, 3, size=25))
    path = tmp_path / "features.csv"
    save_features_csv(dataset, path)
    loaded = load_features_csv(path)
    assert np.array_equal(loaded.features, dataset.features)  # 17 digits round-trip
    assert np.array_equal(loaded.labels, dataset.labels)


def test_features_csv_error_positions(tmp_path):
    header = "mean,variance,max_amplitude,peak_to_peak,rms,label"
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="line 1") as info:
        load_features_csv(path)
    assert str(info.value).startswith(f"{path}: line 1: expected header")
    assert str(info.value).count(str(path)) == 1
    path.write_text(header + "\n1,2,3,4,baseline\n")
    with pytest.raises(ValueError, match="line 2"):
        load_features_csv(path)
    path.write_text(header + "\n1,2,3,4,5,cage_fault\n")
    with pytest.raises(ValueError, match="cage_fault"):
        load_features_csv(path)
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match="no feature rows"):
        load_features_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="line 1: expected header"):
        load_features_csv(path)
    path.write_bytes(header.encode() + b"\n1,2,3,4,5,baseline\n1,2,3,4,5,\xc3\xa9\n")
    with pytest.raises(ValueError, match="not ASCII text") as info:
        load_features_csv(path)
    assert str(info.value) == f"{path}: not ASCII text"


def test_features_csv_one_parse_matches_the_line_loop(tmp_path, monkeypatch):
    """Blank lines keep the file on the one numpy parse; padded cells send it
    through the line loop; both give the same bits."""
    rng = np.random.default_rng(5)
    dataset = Dataset(rng.normal(size=(40, 5)) * 1e3, rng.integers(0, 3, size=40))
    path = tmp_path / "features.csv"
    save_features_csv(dataset, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    clean = [header, "\n", *rows[:7], "  \n", "\n", *rows[7:], "\n"]
    padded = [header, *(row.replace(",", " , ") for row in clean[1:])]
    parse_float, calls = qdiag.data._parse_float, []
    monkeypatch.setattr(qdiag.data, "_parse_float",
                        lambda *args: calls.append(args[1]) or parse_float(*args))
    path.write_text("".join(clean))
    fast = load_features_csv(path)
    assert calls == []
    path.write_text("".join(padded))
    slow = load_features_csv(path)
    assert len(calls) == 5 * len(rows)
    for loaded in (fast, slow):
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert loaded.labels.tobytes() == dataset.labels.tobytes()


@pytest.mark.parametrize("row, message", [
    ("1,2,3,4,baseline", "line 3: expected 5 feature columns plus a label, got 5 field(s)"),
    ("1,2,3,4,5,6,baseline", "line 3: expected 5 feature columns plus a label, got 7 field(s)"),
    ("1,2,x,4,5,baseline", "line 3: max_amplitude is not a number: 'x'"),
    ("1,2,3,inf,5,baseline", "line 3: peak_to_peak must be finite, got 'inf'"),
    ("1,2,3,4,5, cage ", "line 3: unknown label 'cage'"),
])
def test_features_csv_rows_off_the_one_parse_keep_their_messages(tmp_path, row, message):
    path = tmp_path / "features.csv"
    path.write_text("mean,variance,max_amplitude,peak_to_peak,rms,label\n"
                    f"1,2,3,4,5,baseline\n{row}\n1,2,3,4,5,inner_ring\n")
    with pytest.raises(ValueError) as info:
        load_features_csv(path)
    assert str(info.value).startswith(f"{path}: {message}")
