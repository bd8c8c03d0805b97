"""Deterministic on-disk artifacts: CSV traces and the run manifest.

All CSVs are plain text, `\n` newlines, no locale formatting; reals carry 17
significant digits so re-runs are byte-identical.  Every writer returns the
SHA-256 digest of the bytes it wrote, and the manifest lists every output file
with that digest.
"""
from __future__ import annotations

import hashlib
import itertools
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


# Rows per block of `_write_columns`: each block is formatted, hashed and
# written before the next, so a file's text is never held whole.
_ROWS = 4096


def _write_pieces(path, pieces) -> str:
    """Write each text of ``pieces`` as UTF-8 in turn; returns the SHA-256 of all the bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            data = piece.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_columns(path, header: str, fmt: str, *columns) -> str:
    """The header, then `fmt % row` for each row of the columns; returns the digest.

    Each line ends in a newline, and the rows stop at the shortest column's
    end.  Values are formatted as Python numbers (`.tolist()`): `%d` gives
    the text of `int(x)` and `%.17g` that of `format(float(x), ".17g")`.
    """
    columns = [np.asarray(col) for col in columns]
    size = min((len(col) for col in columns), default=0)
    line = fmt + "\n"
    blocks = (zip(*(col[lo : lo + _ROWS].tolist() for col in columns))
              for lo in range(0, size, _ROWS))
    texts = ("".join([line % row for row in rows]) for rows in blocks)
    return _write_pieces(path, itertools.chain([header + "\n"], texts))


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
    return _write_pieces(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


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
