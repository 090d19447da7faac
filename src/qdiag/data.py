"""Vibration-signal pipeline: ingest, downsample, segment, featurize, split.

A raw record is an acceleration trace with a sample rate and a class label
(baseline, outer_ring, inner_ring).  The pipeline decimates every record to
one common rate, slices it into fixed-length windows with a small overlap,
and reduces each window to five time-domain features: mean, population
variance, max absolute amplitude, peak-to-peak, and rms.  Min-max
normalization is fit on training data only and clamps at application time.

There is also a seeded synthetic generator that mimics a bearing test rig
well enough for the three classes to be separable by those features, so the
full training pipeline can run without any proprietary recordings.  Real
data comes in through a plain CSV bridge documented in the README.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
from array import array
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from .nn import _check_labels

LABELS = ("baseline", "outer_ring", "inner_ring")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}
# Two-letter display names used in confusion-matrix output.
SHORT_LABELS = {"baseline": "ND", "outer_ring": "OR", "inner_ring": "IR"}

FEATURE_NAMES = ("mean", "variance", "max_amplitude", "peak_to_peak", "rms")
NUM_FEATURES = len(FEATURE_NAMES)

DEFAULT_SEGMENT_LENGTH = 4000
DEFAULT_SEGMENT_OVERLAP = 200
DEFAULT_TARGET_RATE_HZ = 48828.0

FEATURE_CSV_HEADER = "mean,variance,max_amplitude,peak_to_peak,rms,label"


@dataclass
class RawSignal:
    """One vibration record: samples at a fixed rate, plus metadata."""

    samples: np.ndarray
    sample_rate_hz: float
    label: str
    load_lbs: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D array")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.label not in LABEL_TO_INDEX:
            raise ValueError(f"unknown label {self.label!r}, expected one of {LABELS}")


@dataclass(frozen=True)
class Segment:
    """Fixed-length window cut from one record, carrying its label."""

    samples: np.ndarray
    label: str


@dataclass(frozen=True)
class FeatureVector:
    """The five time-domain features of one segment."""

    mean: float
    variance: float
    max_amplitude: float
    peak_to_peak: float
    rms: float
    label: str

    def values(self) -> np.ndarray:
        return np.array(
            [self.mean, self.variance, self.max_amplitude, self.peak_to_peak, self.rms]
        )


@dataclass
class NormalizerParams:
    """Per-feature min/max bounds, fit on training data only."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ValueError("min and max must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.minimum)) and np.all(np.isfinite(self.maximum))):
            raise ValueError("per-feature min and max must be finite")
        if np.any(self.maximum < self.minimum):
            raise ValueError("per-feature max must be >= min")
        with np.errstate(over="ignore"):
            span = self.maximum - self.minimum
        if not np.all(np.isfinite(span)):
            raise ValueError("per-feature span max - min must be finite")

    @property
    def num_features(self) -> int:
        return self.minimum.size


@dataclass
class Dataset:
    """Feature matrix with integer labels and an optional train/test split."""

    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        # The label rule of the loss, checked before the cast.
        self.labels = _check_labels(self.labels, len(self.features), len(LABELS)).astype(np.int64)
        if self.train_mask is not None:
            self.train_mask = np.asarray(self.train_mask, dtype=bool)
            if self.train_mask.shape != self.labels.shape:
                raise ValueError("train mask must align with labels")

    def __len__(self) -> int:
        return self.features.shape[0]

    def _masked(self, want_train: bool) -> tuple[np.ndarray, np.ndarray]:
        if self.train_mask is None:
            raise ValueError("dataset has no train/test split yet")
        pick = self.train_mask if want_train else ~self.train_mask
        return self.features[pick], self.labels[pick]

    @property
    def train(self) -> tuple[np.ndarray, np.ndarray]:
        return self._masked(True)

    @property
    def test(self) -> tuple[np.ndarray, np.ndarray]:
        return self._masked(False)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(LABELS))


def check_target_rate(target_rate_hz: float) -> None:
    """`downsample`'s rule for its target rate, for checking a flag early."""
    if not target_rate_hz > 0:
        raise ValueError(f"target rate must be positive, got {target_rate_hz}")


def check_window(length: int, overlap: int) -> None:
    """`segment_signal`'s rule for its window, for checking flags early."""
    if not (length > overlap >= 0):
        raise ValueError(f"need length > overlap >= 0, got {length}, {overlap}")


def downsample(signal: RawSignal, target_rate_hz: float) -> RawSignal:
    """Decimate to the target rate by keeping every k-th sample.

    No anti-alias filter is applied; this is deliberate plain decimation.
    The source rate must be an integer multiple of the target rate.
    """
    check_target_rate(target_rate_hz)
    ratio = signal.sample_rate_hz / target_rate_hz
    k = round(ratio) if math.isfinite(ratio) else 0  # inf cannot round
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(
            f"sample rate {signal.sample_rate_hz} is not an integer multiple "
            f"of target rate {target_rate_hz} (ratio {ratio})"
        )
    if k == 1:
        return signal
    return replace(signal, samples=signal.samples[::k], sample_rate_hz=target_rate_hz)


def segment_signal(
    signal: RawSignal,
    length: int = DEFAULT_SEGMENT_LENGTH,
    overlap: int = DEFAULT_SEGMENT_OVERLAP,
) -> list[Segment]:
    """Slice into windows of `length` samples, consecutive ones sharing
    `overlap` samples; the trailing remainder is discarded."""
    check_window(length, overlap)
    n = signal.samples.size
    if n < length:
        raise ValueError(f"signal of {n} samples is shorter than a {length} window")
    stride = length - overlap
    count = (n - length) // stride + 1
    return [
        Segment(signal.samples[i * stride : i * stride + length], signal.label)
        for i in range(count)
    ]


def extract_features(seg: Segment) -> FeatureVector:
    """The five time-domain features of one window.

    Variance is the population variance, which makes rms^2 = variance +
    mean^2 an exact identity (handy as a pipeline cross-check).
    """
    x = np.asarray(seg.samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot featurize an empty segment")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        mean = float(np.mean(x))
        values = (mean, float(np.mean((x - mean) ** 2)), float(np.max(np.abs(x))),
                  float(np.max(x) - np.min(x)), float(np.sqrt(np.mean(x * x))))
    if not all(map(math.isfinite, values)):
        raise ValueError("samples too large for finite features")
    return FeatureVector(*values, label=seg.label)


def dataset_from_features(feature_vectors: list[FeatureVector]) -> Dataset:
    if not feature_vectors:
        raise ValueError("no feature vectors to assemble")
    rows = np.stack([fv.values() for fv in feature_vectors])
    labels = np.array([LABEL_TO_INDEX[fv.label] for fv in feature_vectors])
    return Dataset(rows, labels)


def signals_to_dataset(
    signals: list[RawSignal],
    target_rate_hz: float = DEFAULT_TARGET_RATE_HZ,
    length: int = DEFAULT_SEGMENT_LENGTH,
    overlap: int = DEFAULT_SEGMENT_OVERLAP,
) -> tuple[Dataset, list[int]]:
    """Run downsample -> segment -> featurize over a batch of records.

    Records too short to yield a single window are skipped, and their
    indices are returned so the caller can warn about them.  Dataset row
    order follows input order, never anything rate- or thread-dependent.
    """
    features: list[FeatureVector] = []
    skipped: list[int] = []
    for i, signal in enumerate(signals):
        reduced = downsample(signal, target_rate_hz)
        if reduced.samples.size < length:
            skipped.append(i)
            continue
        features.extend(extract_features(s) for s in segment_signal(reduced, length, overlap))
    if not features:
        raise ValueError("no signal was long enough to produce a single segment")
    return dataset_from_features(features), skipped


def fit_normalizer(features: np.ndarray) -> NormalizerParams:
    """Per-feature min/max over the given (training) rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError(
            f"normalizer needs at least 2 samples, got shape {features.shape}"
        )
    return NormalizerParams(features.min(axis=0), features.max(axis=0))


def apply_normalizer(params: NormalizerParams, features: np.ndarray) -> np.ndarray:
    """Clamp to the fit range, then min-max scale: monotone rounding keeps [0, 1].

    The one check of raw feature rows: finite, and as wide as the fit.  A
    degenerate feature (max == min during fit) maps to 0.5 everywhere.
    """
    rows = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if rows.ndim != 2 or rows.shape[1] != params.num_features:
        raise ValueError(f"expected {params.num_features} features per row, "
                         f"got shape {np.shape(features)}")
    if not np.isfinite(rows).all():
        raise ValueError("features contain non-finite values")
    # (1, n) bounds meet a one-row input shape for shape, a cheaper numpy loop.
    lo, hi = params.minimum[None, :], params.maximum[None, :]
    span = hi - lo
    scaled = np.maximum(rows, lo)
    np.minimum(scaled, hi, out=scaled)
    scaled -= lo
    return np.divide(scaled, span, out=np.full_like(scaled, 0.5), where=span > 0.0)


def split(dataset: Dataset, train_fraction: float = 0.8, seed: int = 0) -> Dataset:
    """Stratified seeded split; per class the train share rounds up."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    counts = dataset.class_counts()
    for c, count in enumerate(counts):
        if count < 2:
            raise ValueError(
                f"class {LABELS[c]!r} has {count} sample(s), need at least 2 to split"
            )
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(dataset), dtype=bool)
    for c in range(len(LABELS)):
        idx = np.flatnonzero(dataset.labels == c)
        rng.shuffle(idx)
        # ceil rounds the train share up; the epsilon keeps float fuzz in
        # fraction * count from tipping an exact integer over the edge.
        n_train = math.ceil(train_fraction * idx.size - 1e-9)
        if n_train == idx.size:  # rounding up must not empty the test side
            n_train -= 1
        mask[idx[:n_train]] = True
    return Dataset(dataset.features, dataset.labels, mask)


# The fixed synthetic rig: a shaft tone plus, for the fault classes, a
# ringing impulse train at the outer- or inner-ring fault frequency.
LOAD_LBS = 270.0
SHAFT_HZ = 25.0
SHAFT_AMPLITUDE = 1.0
AMPLITUDE_JITTER = 0.1  # relative, per signal and per impulse
OUTER_FAULT_HZ = 81.0
INNER_FAULT_HZ = 118.0
OUTER_IMPULSE_AMPLITUDE = 1.2
INNER_IMPULSE_AMPLITUDE = 2.2
INNER_MODULATION_DEPTH = 0.5
RING_HZ = 2500.0
RING_DECAY_S = 0.001


@dataclass(frozen=True)
class SynthConfig:
    """Size and noise of a synthetic batch; defaults give three separable
    classes.  The rig itself is fixed by the module constants above."""

    signals_per_class: int = 6
    num_classes: int = 3
    duration_s: float = 6.0
    sample_rate_hz: float = 97656.0
    noise_std: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.signals_per_class < 1:
            raise ValueError("signals_per_class must be at least 1")
        if not 1 <= self.num_classes <= len(LABELS):
            raise ValueError(f"num_classes must be in [1, {len(LABELS)}]")
        for name in ("duration_s", "sample_rate_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        count = self.duration_s * self.sample_rate_hz
        if not 0.5 < count < math.inf:  # rounds to no sample, or overflows
            gives = "no sample" if count <= 0.5 else "an infinite sample count"
            raise ValueError(f"duration_s {self.duration_s} at sample_rate_hz "
                             f"{self.sample_rate_hz} gives {gives}")


def _ring_kernel(config: SynthConfig) -> np.ndarray:
    """Exponentially decaying burst excited by each fault impact."""
    n = max(int(round(8.0 * RING_DECAY_S * config.sample_rate_hz)), 2)
    t = np.arange(n) / config.sample_rate_hz
    return np.exp(-t / RING_DECAY_S) * np.sin(2.0 * np.pi * RING_HZ * t)


def _add_impulses(
    out: np.ndarray,
    config: SynthConfig,
    rng: np.random.Generator,
    fault_hz: float,
    amplitude: float,
    modulation_depth: float,
    shaft_phase: float,
) -> None:
    """Add a jittered impulse train with ringing, in place."""
    kernel = _ring_kernel(config)
    period = 1.0 / fault_hz
    times = np.arange(0.5 * period, config.duration_s, period)
    times = times + rng.uniform(-0.1, 0.1, size=times.size) * period
    heights = amplitude * (
        1.0 + AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0, size=times.size)
    )
    if modulation_depth > 0.0:
        # Impulse strength follows the load zone once per shaft revolution.
        heights = heights * (
            1.0 + modulation_depth * np.sin(2.0 * np.pi * SHAFT_HZ * times + shaft_phase)
        )
    n = out.size
    for t, h in zip(times, heights):
        start = int(round(t * config.sample_rate_hz))
        if start >= n:
            continue
        stop = min(start + kernel.size, n)
        out[start:stop] += h * kernel[: stop - start]


def _synth_one(config: SynthConfig, rng: np.random.Generator, label: str) -> RawSignal:
    n = int(round(config.duration_s * config.sample_rate_hz))
    t = np.arange(n) / config.sample_rate_hz
    shaft_phase = rng.uniform(0.0, 2.0 * np.pi)
    amplitude = SHAFT_AMPLITUDE * (1.0 + AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0))
    out = amplitude * np.sin(2.0 * np.pi * SHAFT_HZ * t + shaft_phase)
    if config.noise_std > 0.0:
        out = out + rng.normal(0.0, config.noise_std, size=n)
    if label == "outer_ring":
        _add_impulses(
            out, config, rng, OUTER_FAULT_HZ, OUTER_IMPULSE_AMPLITUDE, 0.0, shaft_phase
        )
    elif label == "inner_ring":
        _add_impulses(
            out, config, rng, INNER_FAULT_HZ,
            INNER_IMPULSE_AMPLITUDE, INNER_MODULATION_DEPTH, shaft_phase,
        )
    return RawSignal(out, config.sample_rate_hz, label, LOAD_LBS)


def synth_generate(config: SynthConfig, seed: int = 0) -> list[RawSignal]:
    """Seeded synthetic records, `signals_per_class` per class in label order."""
    rng = np.random.default_rng(seed)
    signals = []
    for label in LABELS[: config.num_classes]:
        for _ in range(config.signals_per_class):
            signals.append(_synth_one(config, rng, label))
    return signals


# ---------------------------------------------------------------------------
# CSV bridge formats.  Signals: one block per record, block line 1 holding
# `<label>,<load_lbs>,<sample_rate_hz>`, then one sample per line, blocks
# separated by a blank line.  Features: fixed header, one row per sample,
# floats with 17 significant digits so the round-trip is bit-exact.
# ---------------------------------------------------------------------------

# Sample lines written or parsed at a time: the signal text held in memory.
CHUNK = 65536
TEXT_SLICE = 4096  # sample lines joined at a time on their way to a parsing child
# Signal bytes from which the reader forks.  On 2 vCPUs, forked parsing lost to the
# in-process parse on every file shape timed below this size, and a file of many
# short blocks broke even at it.
FORK_SIZE = 1_200_000
FEATURE_BLOCK = 64  # feature lines parsed at a time, which bounds the cells held


@contextmanager
def open_input(path):
    """qdiag's only read-mode `open`: ASCII text, for the block that parses it.

    A `ValueError` raised in the block leaves it prefixed `<path>: `.  A
    non-ASCII byte is "not ASCII text"; the decoder's position would count
    from its read chunk, not from the start of the file.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not ASCII text") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _chunk_text(samples: np.ndarray) -> str:
    """Sample lines of one chunk: each value's shortest round-trip repr."""
    return "\n".join(map(repr, samples.tolist())) + "\n"


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _send(pipe, parts: list) -> None:
    """One message down a pipe: its size as 8 little-endian bytes, then `parts`."""
    size = sum(memoryview(part).nbytes for part in parts)
    pipe.writelines([size.to_bytes(8, "little"), *parts])
    pipe.flush()


def _receive(pipe) -> bytearray | None:
    """The next message, read into a fresh buffer; None if the pipe ends short."""
    if len(head := pipe.read(8)) < 8:
        return None
    data = bytearray(int.from_bytes(head, "little"))
    return data if pipe.readinto(data) == len(data) else None


def _serve(work, source, answers, inherited: list) -> None:
    """A forked child's life: answer each message from `source` with `work(message)`
    down `answers`.  A raise ends it unanswered."""
    try:
        for pipe in inherited:  # else a child could block on a pipe the parent closed
            pipe.close()
        while (message := _receive(source)) is not None:
            _send(answers, [work(message)])
    finally:
        os._exit(0)  # flushes no inherited buffer and returns to no caller


def _ordered(work, messages, workers: int):
    """`(tag, work(message))` for each `(tag, parts)` of `messages`, in message
    order, a message being its `parts` joined: in-process with W = 1, else in W
    children forked at the first message.  Child k takes messages k, k + W, ...;
    its last answer is read before its next message is sent and yielded after, so
    no two full pipes wait on each other and the child works while the caller
    handles.  A child that ended without an answer gives None.  Closing the
    generator, or a raise in it, closes every pipe and waits for every child."""
    if workers == 1:
        for tag, parts in messages:
            yield tag, work(b"".join(parts))
        return
    pids, pipes, waiting, sent = [], [], [], 0
    try:
        for tag, parts in messages:
            while len(pids) < workers:
                (r, w), (r2, w2) = os.pipe(), os.pipe()
                pipes += [open(w, "wb"), open(r2, "rb")]
                with open(r, "rb") as source, open(w2, "wb") as answers:
                    if (pid := os.fork()) == 0:
                        _serve(work, source, answers, pipes)
                pids.append(pid)
            k, sent, ready = sent % workers, sent + 1, []
            if len(waiting) == workers:  # child k's last answer
                done, pipe = waiting.pop(0)
                ready.append((done, _receive(pipe)))
            with suppress(BrokenPipeError):  # a child that ended reads short, as None
                _send(pipes[2 * k], parts)
            del parts  # sent: not held while the caller handles and the next is made
            waiting.append((tag, pipes[2 * k + 1]))
            if ready:  # popped: not held while the next answer is read
                yield ready.pop()
        for tag, pipe in waiting:
            yield tag, _receive(pipe)
    finally:
        for pipe in pipes:  # a closed pipe ends its child
            with suppress(OSError):
                pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def save_signals_csv(signals: list[RawSignal], path) -> None:
    if not signals:
        raise ValueError("no signals to save")
    for i, signal in enumerate(signals, start=1):
        bad = np.flatnonzero(~np.isfinite(signal.samples))
        if bad.size:
            raise ValueError(f"record {i} ({signal.label}): sample {bad[0] + 1} must be "
                             f"finite, got {float(signal.samples[bad[0]])!r}")
    chunks = [(i, start, s.samples[start : start + CHUNK]) for i, s in enumerate(signals)
              for start in range(0, s.samples.size, CHUNK)]
    # Each chunk is made contiguous as it is sent: a strided view cannot go down a pipe.
    texts = _ordered(lambda data: _chunk_text(np.frombuffer(data)).encode("ascii"),
                     (((i, start), [np.ascontiguousarray(c)]) for i, start, c in chunks),
                     min(_usable_cpus(), len(chunks)))
    fh = open(path, "wb")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # never remove a device
    try:
        with fh, closing(texts):
            for (i, start), text in texts:
                if text is None:
                    raise OSError(f"record {i + 1}: the child process formatting it ended early")
                if start == 0:  # a record begins: a blank line, then its header
                    s, gap = signals[i], "\n" if i else ""
                    header = f"{gap}{s.label},{s.load_lbs!r},{s.sample_rate_hz!r}\n"
                    fh.write(header.encode("ascii"))
                fh.write(text)
                del text  # not held while the next chunk is made and read
    except BaseException:
        if regular:  # a failed write leaves no partial file
            with suppress(OSError):
                os.remove(path)
        raise


def _parse_float(text: str, line_no: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {line_no}: {what} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}: {what} must be finite, got {text!r}")
    return value


def _parse_label(text: str, line_no: int) -> str:
    label = text.strip()
    if label not in LABEL_TO_INDEX:
        raise ValueError(f"line {line_no}: unknown label {label!r}, expected one of {LABELS}")
    return label


def _parse_header(line: str, line_no: int) -> tuple[float, str, float]:
    """A stripped block header as `RawSignal`'s (sample_rate_hz, label, load_lbs)."""
    parts = line.split(",")
    if len(parts) != 3:
        raise ValueError(f"line {line_no}: block header needs 3 fields "
                         f"(label,load_lbs,sample_rate_hz), got {len(parts)}")
    label = _parse_label(parts[0], line_no)
    load = _parse_float(parts[1], line_no, "load_lbs")
    rate = _parse_float(parts[2], line_no, "sample_rate_hz")
    if rate <= 0:
        raise ValueError(f"line {line_no}: sample rate must be positive")
    return rate, label, load


def _parse_samples(lines: list[str]) -> np.ndarray:
    """One numpy parse, bit-exact against `float()`; a non-finite value is a doubt."""
    values = np.array(lines, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("a sample is not finite")
    return values


def _parse_text(data: bytearray) -> np.ndarray:
    """A parsing child's work: sample text in, its float64 values out."""
    lines = data.decode("ascii").split("\n")  # at "\n" alone, like the file iterator
    return _parse_samples(lines if lines[-1] else lines[:-1])


def load_signals_csv(path) -> list[RawSignal]:
    """Signal records, read by the fast walk.  Any doubt in it (a `ValueError` or
    an `OSError`) reads the file again with `_read_lines`, which words every error."""
    with suppress(ValueError, OSError):
        return _read_fast(path)
    return _read_lines(path)


def _chunks(fh):
    """The fast walk: each block's sample lines, CHUNK at a time, as `(record,
    chunk, end)` with the samples in `chunk[:end]` and `record`, the block's
    header, given with its last chunk only.  A block ends only at a line that is
    exactly "\\n" or at the end of the file."""
    lines = fh
    while (line := next(lines, None)) is not None:
        if line == "\n":
            continue
        record, end = _parse_header(line.strip(), 0), CHUNK  # the line loop words any error
        while end == CHUNK:  # a short chunk ends the block
            chunk = list(itertools.islice(lines, CHUNK))
            end = chunk.index("\n") if "\n" in chunk else len(chunk)
            yield (record if end < CHUNK else None), chunk, end
            if end < len(chunk):  # chunk[end] is the blank line that ends the block
                # The rest is shorter than a chunk, so the next block's
                # first chunk drains it before it reads on from the file.
                lines = itertools.chain(chunk[end + 1 :], fh)


def _read_fast(path) -> list[RawSignal]:
    """Each chunk's samples take one numpy parse: here, or in the children of
    one ordered map when several CPUs are usable and the input is a file of
    FORK_SIZE bytes or more, or of unknown size (a pipe)."""
    signals: list[RawSignal] = []
    with open_input(path) as fh:
        walk = _chunks(fh)
        st = os.fstat(fh.fileno())
        large = st.st_size >= FORK_SIZE or not stat.S_ISREG(st.st_mode)
        workers = _usable_cpus() if large else 1
        if workers == 1:
            parsed = ((record, _parse_samples(chunk[:end])) for record, chunk, end in walk)
        else:
            texts = ((record, ["".join(chunk[i : min(i + TEXT_SLICE, end)]).encode("ascii")
                               for i in range(0, end, TEXT_SLICE)])  # no joined str
                     for record, chunk, end in walk)
            parsed = _ordered(_parse_text, texts, workers)
        pieces = []
        with closing(parsed):
            for record, values in parsed:
                if values is None:
                    raise ValueError("a child refused its sample text or died")
                pieces.append(np.frombuffer(values))
                if record is not None:  # the block's last chunk ends the record
                    signals.append(RawSignal(np.concatenate(pieces), *record))
                    pieces = []
        if not signals:
            raise ValueError("no signal blocks found")
        return signals


def _read_lines(path) -> list[RawSignal]:
    """The reference reader, one line at a time, and the one that words every
    error.  A whitespace-only line or the end of the file ends a block."""
    signals: list[RawSignal] = []
    with open_input(path) as fh:
        header_no = 0
        for line_no, raw in enumerate(itertools.chain(fh, [""]), start=1):
            line = raw.strip()
            if not header_no:
                if line:
                    header_no, record = line_no, _parse_header(line, line_no)
                    samples = array("d")  # 8 bytes a sample, not a float object
            elif not line:
                if not samples:
                    raise ValueError(f"line {header_no}: signal block has no samples")
                signals.append(RawSignal(np.array(samples), *record))
                header_no = 0
            elif "," in line:
                raise ValueError(f"line {line_no}: expected one sample value, got {line!r}")
            else:
                samples.append(_parse_float(line, line_no, "sample"))
        if not signals:
            raise ValueError("no signal blocks found")
        return signals


def save_features_csv(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(FEATURE_CSV_HEADER + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            cells = [f"{v:.17g}" for v in row]
            cells.append(LABELS[label])
            fh.write(",".join(cells) + "\n")


def load_features_csv(path) -> Dataset:
    with open_input(path) as fh:
        header = fh.readline().strip()
        if header != FEATURE_CSV_HEADER:
            raise ValueError(f"line 1: expected header {FEATURE_CSV_HEADER!r}, got {header!r}")
        lines, blocks, labels = fh.readlines(), [], []
        try:  # one numpy parse per block; any doubt sends the file through the line loop
            for start in range(0, len(lines), FEATURE_BLOCK):
                block = lines[start : start + FEATURE_BLOCK]
                cells = [line.split(",") for line in block if line.strip()]
                labels += [LABEL_TO_INDEX[row[-1].rstrip("\n")] for row in cells]
                blocks.append(np.array([row[:-1] for row in cells], dtype=np.float64))
                if blocks[-1].shape[1:] != (NUM_FEATURES,) or not np.isfinite(blocks[-1]).all():
                    raise ValueError  # wrong widths, non-finite cells, or only blank lines
            return Dataset(np.concatenate(blocks), np.array(labels))  # no rows: ValueError
        except (KeyError, ValueError):  # also a padded or unknown label, or bad text
            pass
        rows, labels = [], []
        for line_no, raw in enumerate(lines, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != NUM_FEATURES + 1:
                raise ValueError(
                    f"line {line_no}: expected {NUM_FEATURES} feature columns "
                    f"plus a label, got {len(parts)} field(s)"
                )
            rows.append([_parse_float(c, line_no, n) for c, n in zip(parts, FEATURE_NAMES)])
            labels.append(LABEL_TO_INDEX[_parse_label(parts[-1], line_no)])
        if not rows:
            raise ValueError("no feature rows found")
        return Dataset(np.array(rows), np.array(labels))
