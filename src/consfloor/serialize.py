"""Deterministic file formats: JSON and CSV writers with fixed layout.

JSON is the standard library's, indented by two spaces; its floats are
written in Python's shortest round-trip form (repr).  CSV floats carry
17 significant digits ('%.16e').  Either way re-reading a file
reproduces the original float64 bit patterns exactly, and identical
inputs produce byte-identical files.  CSVs use '.' decimals, ','
separators and a header row, independent of locale.
"""

from __future__ import annotations

import hashlib
import json
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


def _write_csv(path: str | Path, obj, names: tuple[str, ...], n_float_cols: int) -> bytes:
    """Write the columns `names` of obj, one row per node, and return the
    bytes; the first n_float_cols are floats written as '%.16e', the rest
    as text."""
    fmt = ",".join(["%.16e"] * n_float_cols + ["%s"] * (len(names) - n_float_cols))
    rows = zip(*(getattr(obj, name).tolist() for name in names))
    lines = [",".join(names)] + [fmt % row for row in rows]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    Path(path).write_bytes(data)
    return data


def write_dual_csv(path: str | Path, grid: DualGrid) -> bytes:
    return _write_csv(path, grid, _DUAL_COLUMNS, 4)


def read_dual_csv(path: str | Path) -> dict[str, np.ndarray]:
    cols = _read_csv(path, _DUAL_COLUMNS)
    return {name: np.asarray(vals, dtype=float) for name, vals in cols.items()}


def write_policy_csv(path: str | Path, table: PolicyTable) -> bytes:
    return _write_csv(path, table, _POLICY_COLUMNS, 6)


def read_policy_csv(path: str | Path, spec: ProblemSpec,
                    x_star_list=()) -> PolicyTable:
    """Rebuild a PolicyTable from file without revalidating invariants
    (verification checks are the place corrupted data should surface)."""
    cols = _read_csv(path, _POLICY_COLUMNS)
    return PolicyTable(
        spec=spec,
        x=np.asarray(cols["x"], dtype=float),
        V=np.asarray(cols["V"], dtype=float),
        V_x=np.asarray(cols["V_x"], dtype=float),
        V_xx=np.asarray(cols["V_xx"], dtype=float),
        c_star=np.asarray(cols["c_star"], dtype=float),
        pi_star=np.asarray(cols["pi_star"], dtype=float),
        region=np.asarray(cols["region"]),
        x_star_list=tuple(x_star_list),
    )


def _read_csv(path: str | Path, expected_header: tuple[str, ...]) -> dict[str, list]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != expected_header:
        raise ConfigError(f"{path}: expected header {','.join(expected_header)}")
    cols: dict[str, list] = {name: [] for name in expected_header}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(expected_header):
            raise ConfigError(f"{path}: malformed row {ln!r}")
        for name, part in zip(expected_header, parts):
            cols[name].append(part if name == "region" else float(part))
    return cols


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())
