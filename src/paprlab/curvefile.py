"""Delimited curve files with a self-describing comment header.

Every file starts with `# key = value` metadata lines, followed by one CSV
header line and the data rows sorted by the x column.  Float formatting uses
repr, so files are byte-reproducible and values round-trip exactly.  This
module writes what it is given: the harness supplies the build identifier
and the config hash, in the meta lines and in the JSON summary.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["write_curve", "write_summary", "read_curve"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # NumPy 2 reprs np.float64(x) as 'np.float64(x)'
    return str(value)


def write_curve(path, meta: dict, columns: list[str], rows: list[tuple]) -> Path:
    """Write metadata, a header line and pre-sorted rows to a curve file."""
    path = Path(path)
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} does not match {len(columns)} columns")
        lines.append(",".join(_fmt(v) for v in row))
    return _replace(path, "\n".join(lines) + "\n")


def write_summary(path, payload: dict) -> Path:
    """Write one JSON summary record for a run (sorted keys, no timestamps)."""
    return _replace(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _replace(path, text: str) -> Path:
    """Write text to <path>.tmp and rename it over path, so an interrupted
    write leaves the previous file whole.  Not synced, unlike a checkpoint:
    an eval output costs a run to redo, not hours."""
    path = Path(path)
    tmp = Path(f"{os.fspath(path)}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def read_curve(path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a curve file back into (meta, columns, raw string rows)."""
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, columns, rows
