"""Result bundles: machine-readable summaries, CSV series and binary
field snapshots.

Snapshot layout (all little-endian):
    magic   8 bytes  b"SGNSNAP1"
    uint32  d, K, n, n_modes, n_slots
    float64 period[d]
    int64   mode table: n_modes rows of (k[0..d-1], p)
    float64 amplitudes: n_slots rows of (re, im), in storage-slot order
            (slots follow the mode order of their canonical representatives)

Every number a bundle emits is a pure function of (config hash, seed); no
timestamps are written, so byte-identical reruns are byte-identical bundles.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .spectral import Basis, SpectralField

_MAGIC = b"SGNSNAP1"


class ResultBundle:
    """One output directory: summary.json plus CSV tables and snapshots."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.summary: dict = {}

    def write_summary(self):
        path = self.out_dir / "summary.json"
        path.write_text(json.dumps(self.summary, sort_keys=True, indent=2) + "\n")
        return path

    def add_table(self, name: str, header, rows):
        path = self.out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        return path

    def snapshot_path(self, name: str) -> Path:
        snaps = self.out_dir / "snapshots"
        snaps.mkdir(exist_ok=True)
        return snaps / f"{name}.bin"


def _fmt(v):
    # np.float64 is a float whose repr names its type; write the plain number
    if isinstance(v, float):
        return repr(float(v))
    return v


def _mode_table(basis: Basis) -> np.ndarray:
    """(k, p) of every real mode, in mode order, as (n_modes, d + 1) int64."""
    return np.column_stack([basis.mode_k, basis.mode_p]).astype("<i8")


def write_snapshot(path, u: SpectralField, n: int | None = None):
    basis = u.basis
    d, K = basis.domain.d, basis.domain.K
    n = basis.n_modes if n is None else n
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<5I", d, K, n, basis.n_modes, basis.n_slots))
        fh.write(np.asarray(basis.domain.period, dtype="<f8").tobytes())
        fh.write(_mode_table(basis).tobytes())
        amps = np.empty((basis.n_slots, 2), dtype="<f8")
        amps[:, 0] = u.coeffs.real
        amps[:, 1] = u.coeffs.imag
        fh.write(amps.tobytes())


def read_snapshot(path, basis: Basis) -> tuple:
    """Read a snapshot against a compatible basis; returns (field, n)."""
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError(f"{path} is not a snapshot file")
    d, K, n, n_modes, n_slots = struct.unpack_from("<5I", raw, 8)
    off = 8 + 20
    period = np.frombuffer(raw, dtype="<f8", count=d, offset=off)
    off += 8 * d
    if (d, K) != (basis.domain.d, basis.domain.K):
        raise ValueError(f"snapshot domain (d={d}, K={K}) does not match the basis")
    if not np.allclose(period, basis.domain.period):
        raise ValueError("snapshot period does not match the basis")
    if (n_modes, n_slots) != (basis.n_modes, basis.n_slots):
        raise ValueError("snapshot mode table size does not match the basis")
    table = np.frombuffer(raw, dtype="<i8", count=n_modes * (d + 1), offset=off).reshape(
        n_modes, d + 1
    )
    off += 8 * n_modes * (d + 1)
    if not np.array_equal(table, _mode_table(basis)):
        raise ValueError("snapshot mode table does not match the basis ordering")
    amps = np.frombuffer(raw, dtype="<f8", count=n_slots * 2, offset=off).reshape(n_slots, 2)
    coeffs = amps[:, 0] + 1j * amps[:, 1]
    return SpectralField(basis, coeffs.copy()), int(n)
