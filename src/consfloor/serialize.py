"""Deterministic file formats: JSON and CSV writers with fixed layout.

JSON is the standard library's, indented by two spaces; its floats are
written in Python's shortest round-trip form (repr).  CSV floats carry
17 significant digits ('%.16e'), enough to single out one float64.
Either way re-reading a file reproduces the original float64 bit
patterns exactly, and identical inputs produce byte-identical files.
CSVs use '.' decimals, ',' separators and a header row, independent of
locale.

A CSV is written in blocks of _BLOCK_ROWS rows: each column's slice
becomes a Python list, its rows are formatted and the block's text is
encoded, and the encoded blocks are joined once into the bytes that are
written and returned.  Only one block's lists and strings are alive at
a time, so the transient is the encoded blocks plus their join: about
twice the file size at any node count.

A CSV is read by checking its first line against the expected header
and handing the rest of the open file to one np.loadtxt call, which
parses it in chunks, with a structured dtype: float64 fields, and a
Python-object field for the text column so that no label is cut to a
fixed width.  loadtxt's C parser rounds each number correctly, as
float() does, so the round trip stays bit-exact (signed zeros,
subnormals and the largest finite floats included).  Empty lines are
skipped; a row with the wrong number of cells (a line of spaces
included) or a cell that is not a number raises ConfigError naming the
file, the first such line (counted from 1 at the header, blank lines
included) and its fault, found by rescanning the file once loadtxt has
failed.  A header-only file gives empty columns.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .dual_solver import DualGrid
from .errors import ConfigError
from .params import ProblemSpec
from .policy import PolicyTable

__all__ = [
    "json_dumps",
    "write_json",
    "write_dual_csv",
    "read_dual_csv",
    "write_policy_csv",
    "read_policy_csv",
    "sha256_bytes",
    "sha256_file",
]


def json_dumps(obj) -> str:
    """Indented JSON text with a final newline; non-finite floats raise
    ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, obj) -> bytes:
    data = json_dumps(obj).encode("utf-8")
    Path(path).write_bytes(data)
    return data


_DUAL_COLUMNS = ("y", "v", "v_y", "v_yy")
_POLICY_COLUMNS = ("x", "V", "V_x", "V_xx", "c_star", "pi_star", "region")

# rows formatted and encoded at once; bounds the Python objects alive
_BLOCK_ROWS = 1024


def _write_csv(path: str | Path, obj, names: tuple[str, ...], n_float_cols: int) -> bytes:
    """Write the columns `names` of obj, one row per node, and return the
    bytes; the first n_float_cols are floats written as '%.16e', the rest
    as text."""
    fmt = ",".join(["%.16e"] * n_float_cols + ["%s"] * (len(names) - n_float_cols)) + "\n"
    cols = [getattr(obj, name) for name in names]
    blocks = [(",".join(names) + "\n").encode("utf-8")]
    for lo in range(0, len(cols[0]), _BLOCK_ROWS):
        rows = zip(*(col[lo:lo + _BLOCK_ROWS].tolist() for col in cols))
        blocks.append("".join([fmt % row for row in rows]).encode("utf-8"))
    data = b"".join(blocks)
    Path(path).write_bytes(data)
    return data


def write_dual_csv(path: str | Path, grid: DualGrid) -> bytes:
    return _write_csv(path, grid, _DUAL_COLUMNS, 4)


def read_dual_csv(path: str | Path) -> dict[str, np.ndarray]:
    return _read_csv(path, _DUAL_COLUMNS, 4)


def write_policy_csv(path: str | Path, table: PolicyTable) -> bytes:
    return _write_csv(path, table, _POLICY_COLUMNS, 6)


def read_policy_csv(path: str | Path, spec: ProblemSpec,
                    x_star_list=()) -> PolicyTable:
    """Rebuild a PolicyTable from file without revalidating invariants
    (verification checks are the place corrupted data should surface)."""
    return PolicyTable(spec=spec, **_read_csv(path, _POLICY_COLUMNS, 6),
                       x_star_list=tuple(x_star_list))


def _read_csv(path: str | Path, names: tuple[str, ...],
              n_float_cols: int) -> dict[str, np.ndarray]:
    """Columns `names` of the file, the first n_float_cols as contiguous
    float64 arrays and the rest as str arrays; the inverse of _write_csv."""
    dtype = [(name, np.float64 if i < n_float_cols else object)
             for i, name in enumerate(names)]
    with open(path, encoding="utf-8") as f:
        if tuple(f.readline().rstrip("\n").split(",")) != names:
            raise ConfigError(f"{path}: expected header {','.join(names)}")
        try:
            with warnings.catch_warnings():
                # a header-only file reads as empty columns, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(f, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            fault = _first_fault(path, len(names), n_float_cols) or exc
            raise ConfigError(f"{path}: {fault}") from None
    return {name: np.ascontiguousarray(rows[name]) if i < n_float_cols
            else rows[name].astype(str) for i, name in enumerate(names)}


def _first_fault(path: str | Path, n_cols: int, n_float_cols: int) -> str | None:
    """The first data line of the file that loadtxt rejects, as
    'line N: fault' with N counted from 1 at the header and blank lines
    counted; None if no line is found at fault."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            cells = line.rstrip("\n").split(",")
            if lineno == 1 or cells == [""]:
                continue
            if len(cells) != n_cols:
                return f"line {lineno}: expected {n_cols} cells, found {len(cells)}"
            for i, cell in enumerate(cells[:n_float_cols], 1):
                if not _is_number(cell):
                    return f"line {lineno}: cell {i} ({cell!r}) is not a number"
    return None


def _is_number(cell: str) -> bool:
    """Whether loadtxt reads cell as a float64: float()'s grammar less
    its digit-group underscores and non-ASCII digits."""
    if "_" in cell or not cell.isascii():
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())
