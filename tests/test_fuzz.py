"""Seeded fuzz of the failure contract at the input and flag boundaries.

Each input case damages one valid input (a checkpoint, a feature CSV or a
signal CSV) with one seeded mutation and runs the commands that read it.
Each flag case gives one numeric flag of a tiny valid command one odd value.
Exit 1 must come with exactly one stderr line, `error: ...` (naming the
damaged file, for an input case) and no output left behind; exit 0 must come
with finite output.  Warnings are errors here, so a numpy warning cannot
slip out as an extra stderr line.
"""

import contextlib
import io
import json
import re
import shutil

import numpy as np
import pytest

from qdiag.cli import main
from qdiag.data import (
    Dataset,
    RawSignal,
    fit_normalizer,
    load_features_csv,
    load_signals_csv,
    save_features_csv,
    save_signals_csv,
)
from qdiag.hybrid import new_hybrid_model, save_checkpoint

CASES_PER_INPUT = 80
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# Cells a damaged CSV may hold: non-finite, extreme, boolean or wrongly typed.
CSV_CELLS = [b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"5e-324", b"True",
             b"false", b"", b"abc", b"[1.0]", b"0x1p3"]
# The same for JSON: `json.dumps` writes NaN and Infinity by default.
JSON_VALUES = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324,
               True, False, None, "1.0", {}, [], [0.5, [0.5]], 10**400, -1, 0]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # how argparse ends a flag error
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


# --- mutations of the file's bytes, for every input -------------------------


def truncate(data, rng):
    return data[: rng.integers(len(data))]


def cut_at_line(data, rng):
    """Whole lines only, so a feature CSV keeps parsing but may lose classes."""
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    return data[: ends[rng.integers(len(ends))]]


def non_ascii_byte(data, rng):
    at = rng.integers(len(data) + 1)
    return data[:at] + bytes([rng.integers(128, 256)]) + data[at:]


def _replace_number(data, rng, make):
    numbers = list(NUMBER.finditer(data))
    m = numbers[rng.integers(len(numbers))]
    return data[: m.start()] + make(m.group()) + data[m.end():]


def odd_cell(data, rng):
    return _replace_number(data, rng, lambda _: CSV_CELLS[rng.integers(len(CSV_CELLS))])


def deep_nesting(data, rng):
    depth = [1, 40, 100_000][rng.integers(3)]
    return _replace_number(data, rng, lambda n: b"[" * depth + n + b"]" * depth)


# --- mutations of CSV lines ---------------------------------------------------


def _edit_line(data, rng, edit):
    lines = data.split(b"\n")
    full = [i for i, line in enumerate(lines) if line.strip()]
    i = full[rng.integers(len(full))]
    lines[i:i + 1] = edit(lines[i])
    return b"\n".join(lines)


def drop_cell(data, rng):
    def edit(line):
        cells = line.split(b",")
        del cells[rng.integers(len(cells))]
        return [b",".join(cells)]
    return _edit_line(data, rng, edit)


def ragged_row(data, rng):
    return _edit_line(data, rng, lambda line: [line + b",0.5"])


def drop_line(data, rng):
    return _edit_line(data, rng, lambda line: [])


def blank_line(data, rng):
    return _edit_line(data, rng, lambda line: [line, b""])


CSV_MUTATIONS = [truncate, cut_at_line, non_ascii_byte, odd_cell, deep_nesting,
                 drop_cell, ragged_row, drop_line, blank_line]


# --- mutations of the checkpoint's JSON document -------------------------------


def _slots(node):
    """Every (container, key) pair below `node`, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)) and node[key]:
            yield from _slots(node[key])


def _edit_doc(data, rng, edit):
    doc = json.loads(data)
    slots = list(_slots(doc))
    edit(*slots[rng.integers(len(slots))])
    return json.dumps(doc).encode()


def drop_field(data, rng):
    def edit(container, key):
        del container[key]
    return _edit_doc(data, rng, edit)


def wrong_value(data, rng):
    def edit(container, key):
        container[key] = JSON_VALUES[rng.integers(len(JSON_VALUES))]
    return _edit_doc(data, rng, edit)


def ragged_list(data, rng):
    def edit(container, key):
        target = container[key] if isinstance(container[key], list) else container
        if isinstance(target, list) and target and rng.integers(2):
            target.pop()
        elif isinstance(target, list):
            target.append(0.5)
    return _edit_doc(data, rng, edit)


CHECKPOINT_MUTATIONS = [truncate, non_ascii_byte, odd_cell, deep_nesting,
                        drop_field, wrong_value, ragged_list]


# --- valid inputs and the commands that read them ---------------------------------


def write_inputs(tmp_path):
    rng = np.random.default_rng(7)
    features = rng.uniform(0.0, 2.0, size=(12, 5))
    labels = np.repeat(np.arange(3), 4)
    paths = {name: tmp_path / name for name in ("features.csv", "model.json", "signals.csv")}
    save_features_csv(Dataset(features, labels), paths["features.csv"])
    save_checkpoint(new_hybrid_model(fit_normalizer(features), seed=7), paths["model.json"])
    signals = [RawSignal(rng.normal(size=64), 2000.0, label, 270.0)
               for label in ("baseline", "outer_ring", "inner_ring")]
    save_signals_csv(signals, paths["signals.csv"])
    return paths


def finite_output(argv, out_path, out):
    if argv[0] == "synth":
        return all(np.all(np.isfinite(s.samples)) for s in load_signals_csv(out_path))
    if argv[0] == "features":
        return bool(np.all(np.isfinite(load_features_csv(out_path).features)))
    if argv[0] == "train":
        rows = [line.split(",")[1:] for line in
                (out_path / "metrics.csv").read_text().splitlines()[1:]]
        return bool(np.all(np.isfinite(np.array(rows, dtype=float))))
    if argv[0] == "predict":
        rows = [line.split(",")[1:4] for line in out.splitlines()[1:]]
        return bool(rows) and bool(np.all(np.isfinite(np.array(rows, dtype=float))))
    return bool(out) and not re.search(r"nan|inf", out, re.IGNORECASE)


def breach(argv, bad, out_path):
    """What is wrong with running `argv` on the mutated file `bad`, or None."""
    try:
        rc, out, err = run_cli(argv)
        lines = err.splitlines()
        if rc == 1:
            one_line = len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
            return None if one_line else f"rc 1 with stderr {lines}"
        if rc != 0 or not all(
            line.startswith(("warning:", "accuracy against labels")) for line in lines
        ):
            return f"rc {rc} with stderr {lines}"
        return None if finite_output(argv, out_path, out) else "non-finite output"
    except Exception as e:  # a traceback from main is a breach too
        return repr(e)


def run_cases(tmp_path, target, seed):
    paths = write_inputs(tmp_path)
    mutations = CHECKPOINT_MUTATIONS if target == "model.json" else CSV_MUTATIONS
    valid = paths[target].read_bytes()
    bad = tmp_path / f"mutated-{target}"
    out_path = tmp_path / "out.csv"
    rng = np.random.default_rng(seed)
    problems = []
    train_dir = tmp_path / "train-out"
    for case in range(CASES_PER_INPUT):
        mutate = mutations[rng.integers(len(mutations))]
        bad.write_bytes(mutate(valid, rng))
        command = ["eval", "predict"][case % 2]
        if target == "signals.csv":
            runs = [(["features", "--in", str(bad), "--out", str(out_path),
                      "--target-rate", "1000", "--length", "16", "--overlap", "4"], out_path)]
        elif target == "model.json":
            runs = [([command, "--model", str(bad), "--in", str(paths["features.csv"])], None)]
        else:
            runs = [([command, "--model", str(paths["model.json"]), "--in", str(bad)], None),
                    (["train", "--in", str(bad), "--out", str(train_dir),
                      "--runs", "1", "--epochs", "1"], train_dir)]
        for argv, out in runs:
            out_path.unlink(missing_ok=True)
            shutil.rmtree(train_dir, ignore_errors=True)
            problem = breach(argv, bad, out)
            if problem:
                problems.append(f"case {case} ({mutate.__name__}, {argv[0]}): {problem}")
    return problems


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, target", enumerate(["model.json", "features.csv", "signals.csv"]))
def test_mutated_input_fails_cleanly_or_gives_finite_output(tmp_path, seed, target):
    problems = run_cases(tmp_path, target, seed)
    assert not problems, "\n".join(problems)


# --- odd values for every numeric flag ---------------------------------------------

BIG_INT = "12345678901234567890"
FLAG_VALUES = ["", "abc", "0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", BIG_INT]
NUMERIC_FLAGS = {
    "synth": ["--seed", "--per-class", "--duration", "--rate", "--noise"],
    "features": ["--target-rate", "--length", "--overlap"],
    "train": ["--seed", "--lr", "--epochs", "--batch", "--runs", "--train-frac"],
    "gradcheck": ["--seed"],
}
# Valid values that would only cost time or memory, so they are not run: that
# many records, a finite but huge duration x rate at the base command's 0.1 s
# and 2 kHz, or that many training runs.
SKIPPED_FLAG_VALUES = {
    ("synth", "--per-class", BIG_INT),
    ("synth", "--duration", BIG_INT),
    ("synth", "--rate", BIG_INT),
    ("synth", "--rate", "1e308"),
    ("train", "--runs", BIG_INT),
}


def base_flags(paths, out_path):
    """A tiny valid command per subcommand, as flag -> value."""
    return {
        "synth": {"--out": out_path, "--seed": "0", "--per-class": "1",
                  "--duration": "0.1", "--rate": "2000", "--noise": "0.1"},
        "features": {"--in": paths["signals.csv"], "--out": out_path,
                     "--target-rate": "1000", "--length": "16", "--overlap": "4"},
        "train": {"--in": paths["features.csv"], "--out": out_path, "--seed": "0",
                  "--lr": "0.01", "--epochs": "1", "--batch": "4", "--runs": "1",
                  "--train-frac": "0.8"},
        "gradcheck": {"--seed": "0"},
    }


def flag_breach(argv, out_path):
    """What is wrong with running `argv`, or None."""
    try:
        rc, out, err = run_cli(argv)
        lines = err.splitlines()
        if rc == 1:
            if len(lines) != 1 or not lines[0].startswith("error: "):
                return f"rc 1 with stderr {lines}"
            return f"rc 1 but {out_path} was left behind" if out_path.exists() else None
        if rc != 0 or not all(line.startswith("warning:") for line in lines):
            return f"rc {rc} with stderr {lines}"
        return None if finite_output(argv, out_path, out) else "non-finite output"
    except Exception as e:  # a traceback from main is a breach too
        return repr(e)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", list(NUMERIC_FLAGS))
def test_odd_flag_values_fail_cleanly_or_give_finite_output(tmp_path, command):
    paths = write_inputs(tmp_path)
    out_path = tmp_path / f"out-{command}"
    base = base_flags(paths, out_path)[command]
    problems = []
    for flag in NUMERIC_FLAGS[command]:
        for value in FLAG_VALUES:
            if (command, flag, value) in SKIPPED_FLAG_VALUES:
                continue
            # `--flag=value`, so that argparse reads "-inf" as a value, not a flag.
            argv = [command] + [f"{k}={value}" if k == flag else f"{k}={v}"
                                for k, v in base.items()]
            shutil.rmtree(out_path, ignore_errors=True)
            out_path.unlink(missing_ok=True)
            problem = flag_breach(argv, out_path)
            if problem:
                problems.append(f"{command} {flag}={value!r}: {problem}")
    assert not problems, "\n".join(problems)
