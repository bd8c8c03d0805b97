"""Deterministic on-disk artifacts: CSV traces and the run manifest.

All CSVs are plain text, `\n` newlines, no locale formatting; reals carry 17
significant digits so re-runs are byte-identical.  Every writer returns the
SHA-256 digest of the bytes it wrote, and the manifest lists every output file
with that digest.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = [
    "TOOL_VERSION",
    "write_trace_csv",
    "write_cousin_csv",
    "write_walk_csv",
    "write_path_csv",
    "write_hitting_csv",
    "write_deterministic_csv",
    "write_sweep_csv",
    "write_json",
    "write_manifest",
]

TOOL_VERSION = "critwin 0.1.0"


def _write_text(path, text: str) -> str:
    """Write ``text`` as UTF-8 in one write; returns the SHA-256 of its bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _write_columns(path, header: str, fmt: str, *columns) -> str:
    """The header, then `fmt % row` for each row of the columns; returns the digest.

    Values are formatted as Python numbers (`.tolist()`): `%d` gives the text
    of `int(x)` and `%.17g` that of `format(float(x), ".17g")`.
    """
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return _write_text(path, "\n".join([header, *(fmt % row for row in rows), ""]))


def write_trace_csv(path, Z, C) -> str:
    """Height-profile trace: one `h,Z,C` row per height."""
    return _write_columns(path, "h,Z,C", "%d,%d,%d", np.arange(len(Z)), Z, C)


def write_cousin_csv(path, csn, K) -> str:
    """Cousin series: `j,csn,K` with K(j) the cumulative sum below j."""
    return _write_columns(path, "j,csn,K", "%d,%d,%d", np.arange(len(csn)), csn, K)


def write_walk_csv(path, X) -> str:
    return _write_columns(path, "i,X", "%d,%d", np.arange(len(X)), X)


def write_path_csv(path, dt, Z, C) -> str:
    """Continuum path: `t,Z,C` with 17-significant-digit reals."""
    return _write_columns(path, "t,Z,C", "%.17g,%.17g,%.17g", np.arange(len(Z)) * dt, Z, C)


def write_hitting_csv(path, times, truncated) -> str:
    return _write_columns(
        path, "replicate,T,truncated", "%d,%.17g,%d", np.arange(len(times)), times, truncated
    )


def write_deterministic_csv(path, t, f, c, z, K) -> str:
    """Deterministic curves on a grid: `t,f,c,z,K`."""
    return _write_columns(path, "t,f,c,z,K", "%.17g,%.17g,%.17g,%.17g,%.17g", t, f, c, z, K)


def write_sweep_csv(path, sweep) -> str:
    return _write_columns(path, "n,quantity,sup_value", "%d,%s,%.17g", *zip(*sweep.rows()))


def write_json(path, payload: dict) -> str:
    """``payload`` as 2-space-indented JSON with sorted keys; returns the digest."""
    return _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir, command: str, config: dict, outputs: dict, duration_s: float) -> Path:
    """Manifest JSON naming every output with its digest; returns its path.

    ``outputs`` maps each output's file name to the digest its writer returned.
    """
    path = Path(out_dir) / "manifest.json"
    write_json(path, {
        "tool": TOOL_VERSION,
        "command": command,
        "config": config,
        "duration_s": duration_s,
        "outputs": outputs,
    })
    return path
