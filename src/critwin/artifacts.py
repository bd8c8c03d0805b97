"""Deterministic on-disk artifacts: CSV traces and the run manifest.

All CSVs are plain text, `\n` newlines, no locale formatting; reals carry 17
significant digits so re-runs are byte-identical.  The manifest lists every
output file with its SHA-256 digest.
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
    "sha256_file",
    "write_manifest",
]

TOOL_VERSION = "critwin 0.1.0"


def _write_columns(path, header: str, fmt: str, *columns) -> None:
    """The header, then `fmt % row` for each row of the columns, in one write.

    Values are formatted as Python numbers (`.tolist()`): `%d` gives the text
    of `int(x)` and `%.17g` that of `format(float(x), ".17g")`.
    """
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    text = "\n".join([header, *(fmt % row for row in rows)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_trace_csv(path, Z, C) -> None:
    """Height-profile trace: one `h,Z,C` row per height."""
    _write_columns(path, "h,Z,C", "%d,%d,%d", np.arange(len(Z)), Z, C)


def write_cousin_csv(path, csn, K) -> None:
    """Cousin series: `j,csn,K` with K(j) the cumulative sum below j."""
    _write_columns(path, "j,csn,K", "%d,%d,%d", np.arange(len(csn)), csn, K)


def write_walk_csv(path, X) -> None:
    _write_columns(path, "i,X", "%d,%d", np.arange(len(X)), X)


def write_path_csv(path, dt, Z, C) -> None:
    """Continuum path: `t,Z,C` with 17-significant-digit reals."""
    _write_columns(path, "t,Z,C", "%.17g,%.17g,%.17g", np.arange(len(Z)) * dt, Z, C)


def write_hitting_csv(path, times, truncated) -> None:
    _write_columns(
        path, "replicate,T,truncated", "%d,%.17g,%d", np.arange(len(times)), times, truncated
    )


def write_deterministic_csv(path, t_grid, limit) -> None:
    """Deterministic curves on a grid: `t,f,c,z,K`."""
    curves = ([float(g(t)) for t in t_grid] for g in (limit.f, limit.c, limit.z, limit.k_limit))
    _write_columns(path, "t,f,c,z,K", "%.17g,%.17g,%.17g,%.17g,%.17g", t_grid, *curves)


def write_sweep_csv(path, sweep) -> None:
    _write_columns(path, "n,quantity,sup_value", "%d,%s,%.17g", *zip(*sweep.rows()))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir, command: str, config: dict, outputs, duration_s: float) -> Path:
    """Manifest JSON naming every output with its digest; returns its path."""
    out_dir = Path(out_dir)
    manifest = {
        "tool": TOOL_VERSION,
        "command": command,
        "config": config,
        "duration_s": duration_s,
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
