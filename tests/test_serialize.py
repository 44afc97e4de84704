"""Round trips for the signal/operator file formats."""

import csv
import json

import numpy as np
import pytest

from gaborinv.serialize import (
    OPERATOR_MAGIC,
    dump_json,
    load_operator_binary,
    load_operator_csv,
    load_signal_csv,
    save_csv,
    save_operator_binary,
    save_operator_csv,
    save_signal_csv,
)

RNG = np.random.default_rng(5)


def test_signal_csv_round_trip(tmp_path):
    sig = RNG.normal(size=17) + 1j * RNG.normal(size=17)
    p = tmp_path / "sig.csv"
    save_signal_csv(p, sig)
    header = p.read_text().splitlines()[0]
    assert header == "index,real,imag"
    assert np.array_equal(load_signal_csv(p), sig)


def test_operator_csv_round_trip(tmp_path):
    A = RNG.normal(size=(6, 9)) + 1j * RNG.normal(size=(6, 9))
    p = tmp_path / "op.csv"
    save_operator_csv(p, A)
    assert np.array_equal(load_operator_csv(p), A)


def test_operator_binary_round_trip(tmp_path):
    A = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    p = tmp_path / "op.gab"
    save_operator_binary(p, A)
    raw = p.read_bytes()
    assert raw[:8] == OPERATOR_MAGIC
    assert len(raw) == 8 + 16 + 8 * 8 * 2 * 8
    assert np.array_equal(load_operator_binary(p), A)


def test_binary_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.gab"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_operator_binary(p)


def test_csv_cells_are_float_reprs(tmp_path):
    rows = [[0, np.float64(0.1) + np.float64(0.2), 1e-300], [1, float("inf"), -2.5]]
    p = tmp_path / "table.csv"
    save_csv(p, ["k", "x", "y"], rows)
    with open(p, newline="") as fh:
        header, *read = list(csv.reader(fh))
    assert header == ["k", "x", "y"]
    assert read == [[repr(v) if isinstance(v, int) else repr(float(v)) for v in r] for r in rows]
    assert [[float(c) for c in r] for r in read] == rows


def test_dump_json_is_deterministic(tmp_path):
    payload = {"b": [1.5, 2.25, np.float64(0.1)], "a": {"z": np.int64(1), "y": None}}
    t1 = dump_json(tmp_path / "one.json", payload)
    t2 = dump_json(tmp_path / "two.json", payload)
    assert t1 == t2
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    assert json.loads(t1) == {"b": [1.5, 2.25, 0.1], "a": {"z": 1, "y": None}}
