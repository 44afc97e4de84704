"""File formats: signal CSV, operator CSV, the GABOROP1 binary dump, JSON.

Signal CSV columns: index, real, imag.  Operator CSV: dense rows of
interleaved re, im columns.  Every CSV goes through save_csv, whose float
cells are Python float reprs.  The binary dump is the 8-byte magic
"GABOROP1", two little-endian uint64 dimensions, then row-major float64
little-endian interleaved re/im.

JSON writing is deterministic (sorted keys, fixed indentation) so that
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

OPERATOR_MAGIC = b"GABOROP1"

PathLike = Union[str, Path]

__all__ = [
    "save_csv",
    "save_signal_csv",
    "load_signal_csv",
    "save_operator_csv",
    "load_operator_csv",
    "save_operator_binary",
    "load_operator_binary",
    "dump_json",
]


def save_csv(path: PathLike, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Header (no line when empty), then rows; a float or numpy scalar cell is its repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)


def save_signal_csv(path: PathLike, signal: np.ndarray) -> None:
    rows = ([i, v.real, v.imag] for i, v in enumerate(map(complex, signal)))
    save_csv(path, ["index", "real", "imag"], rows)


def load_signal_csv(path: PathLike) -> np.ndarray:
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = []
    for i, r in enumerate(rows[1:], start=2):
        try:
            data.append((int(r[0]), float(r[1]), float(r[2])))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: row {i} needs index, real, imag, got {r}") from exc
    data.sort()
    if [k for k, _, _ in data] != list(range(len(data))):
        raise ValueError(f"{path}: the indices must be 0..{len(data) - 1}, each once")
    return np.array([re + 1j * im for _, re, im in data])


def save_operator_csv(path: PathLike, A: np.ndarray) -> None:
    """Dense CSV with interleaved re/im columns per matrix entry."""
    rows = ([x for v in map(complex, row) for x in (v.real, v.imag)] for row in A)
    save_csv(path, (), rows)


def load_operator_csv(path: PathLike) -> np.ndarray:
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = []
    for row in rows:
        vals = [float(row[2 * i]) + 1j * float(row[2 * i + 1]) for i in range(len(row) // 2)]
        out.append(vals)
    return np.array(out)


def save_operator_binary(path: PathLike, A: np.ndarray) -> None:
    import numpy as np

    A = np.ascontiguousarray(A, dtype=complex)
    inter = np.empty(A.shape + (2,), dtype="<f8")
    inter[..., 0] = A.real
    inter[..., 1] = A.imag
    with open(path, "wb") as fh:
        fh.write(OPERATOR_MAGIC)
        fh.write(struct.pack("<QQ", A.shape[0], A.shape[1]))
        fh.write(inter.tobytes())


def load_operator_binary(path: PathLike) -> np.ndarray:
    import numpy as np

    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != OPERATOR_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {OPERATOR_MAGIC!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(rows, cols, 2)
    return raw[..., 0] + 1j * raw[..., 1]


def _json_default(o):
    import numpy as np  # a numpy scalar is the one non-JSON type written

    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def dump_json(path: PathLike, payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    Path(path).write_text(text)
    return text
