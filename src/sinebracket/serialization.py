"""File formats: CSV state and diagnostics, JSON reports, run metadata.

All writers are byte-deterministic for a fixed input: rows follow the
canonical grid order, floats are rendered with ``repr`` (shortest
round-trip form), and line endings are pinned to ``\\n``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .algebra import ViolationTable
from .dynamics import DiagnosticsRecord
from .errors import ValidationError
from .grid import ModeField, build_grid

__all__ = [
    "save_mode_field",
    "load_mode_field",
    "save_physical_field",
    "load_physical_field",
    "save_diagnostics",
    "load_diagnostics",
    "save_violations",
    "load_generic_constants",
    "write_json",
    "config_hash",
    "write_metadata",
]

MODE_FIELD_HEADER = ("i1", "i2", "re", "im")
DIAGNOSTICS_HEADER = ("time", "H", "E", "drift_H", "drift_E")
VIOLATIONS_HEADER = (
    "i1", "i2", "j1", "j2", "k1", "k2", "l1", "l2", "p1", "p2", "q1", "q2", "residual",
)


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


def save_mode_field(path, field: ModeField) -> None:
    """One row per retained mode, canonical row-major order."""
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MODE_FIELD_HEADER)
        for idx, v in enumerate(field.grid):
            z = field.coeffs[idx]
            writer.writerow([v.i1, v.i2, repr(float(z.real)), repr(float(z.imag))])


def load_mode_field(path) -> ModeField:
    """Rebuild a mode field; the row order must be canonical."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != MODE_FIELD_HEADER:
            raise ValidationError(f"unexpected mode-field header {header!r} in {path}")
        rows = [row for row in reader if row]
    size = len(rows)
    n = round((size + 1) ** 0.5)
    if n % 2 == 0 or n * n - 1 != size:
        raise ValidationError(f"{path}: {size} rows is not a full odd-n mode set")
    grid = build_grid(n)
    coeffs = np.empty(size, dtype=np.complex128)
    for idx, row in enumerate(rows):
        i1, i2 = int(row[0]), int(row[1])
        expected = grid.vector_at(idx)
        if (i1, i2) != (expected.i1, expected.i2):
            raise ValidationError(
                f"{path}: row {idx} holds mode ({i1}, {i2}), expected {tuple(expected)}"
            )
        coeffs[idx] = complex(float(row[2]), float(row[3]))
    return ModeField(grid, coeffs)


def save_physical_field(path, values: np.ndarray) -> None:
    """Headerless n x n grid of samples, one spatial row per line."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"physical field must be square, got shape {values.shape}")
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in values:
            writer.writerow([repr(float(x)) for x in row])


def load_physical_field(path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    values = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"{path}: expected a square sample grid, got {values.shape}")
    return values


def save_diagnostics(path, records: Sequence[DiagnosticsRecord]) -> None:
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DIAGNOSTICS_HEADER)
        for r in records:
            writer.writerow(
                [
                    repr(float(r.time)),
                    repr(float(r.energy)),
                    repr(float(r.enstrophy)),
                    repr(float(r.drift_energy)),
                    repr(float(r.drift_enstrophy)),
                ]
            )


def load_diagnostics(path) -> list[DiagnosticsRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != DIAGNOSTICS_HEADER:
            raise ValidationError(f"unexpected diagnostics header {header!r} in {path}")
        return [
            DiagnosticsRecord(*(float(x) for x in row)) for row in reader if row
        ]


#: Rows joined into one string per write in :func:`save_violations`.
_VIOLATION_BLOCK = 1 << 16


def save_violations(path, violations: ViolationTable) -> None:
    """Flat index-tuple rows; order follows the scan's enumeration.

    Each triple's text ``"c1,...,c6,"`` and each distinct residual's
    ``repr`` are built once; rows are joined from them block by block.
    """
    members = np.asarray(violations.members, dtype=np.int64)
    if members.ndim != 2 or members.shape[1] != 2:
        raise ValueError("the violation CSV holds wave-vector tuples, not plain basis labels")
    member_text = ["".join(f"{c}," for c in row) for row in members.tolist()]
    prefix = np.array(
        ["".join(member_text[c] for c in t) for t in violations.triples.tolist()], dtype=object
    )
    values, which = np.unique(violations.residual, return_inverse=True)
    suffix = np.array([repr(x) + "\n" for x in values.tolist()], dtype=object)
    first, second = violations.first, violations.second
    with _open_write(path) as fh:
        fh.write(",".join(VIOLATIONS_HEADER) + "\n")
        for start in range(0, len(violations), _VIOLATION_BLOCK):
            block = slice(start, start + _VIOLATION_BLOCK)
            rows = prefix[first[block]] + prefix[second[block]] + suffix[which[block]]
            fh.write("".join(rows.tolist()))


def load_generic_constants(path) -> np.ndarray:
    """Dense alpha_ij^k from sparse (i, j, k, value) rows, zero elsewhere.

    Indices are 0-based basis labels; the dimension is one past the
    largest index seen.
    """
    entries: list[tuple[int, int, int, float]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if row[0].strip().lower() in ("i", "i1"):  # optional header
                continue
            if len(row) != 4:
                raise ValidationError(f"{path}: expected i,j,k,value rows, got {row!r}")
            entries.append((int(row[0]), int(row[1]), int(row[2]), float(row[3])))
    if not entries:
        raise ValidationError(f"{path}: no structure constants found")
    dim = 1 + max(max(i, j, k) for i, j, k, _ in entries)
    alpha = np.zeros((dim, dim, dim))
    for i, j, k, value in entries:
        if min(i, j, k) < 0:
            raise ValidationError(f"{path}: negative basis index in ({i}, {j}, {k})")
        alpha[i, j, k] = value
    return alpha


# ---------------------------------------------------------------------------
# JSON reports and run metadata
# ---------------------------------------------------------------------------


def _json_ready(obj):
    if isinstance(obj, Mapping):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(x) for x in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload) -> None:
    with _open_write(path) as fh:
        json.dump(_json_ready(payload), fh, indent=2)
        fh.write("\n")


def config_hash(config: Mapping) -> str:
    """sha256 over the canonical JSON rendering of a configuration."""
    canonical = json.dumps(_json_ready(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_metadata(output_path, config: Mapping, seed: int) -> Path:
    """Sidecar ``<file>.meta.json`` tying an artifact to its provenance."""
    from . import __version__

    side = Path(str(output_path) + ".meta.json")
    write_json(side, {"version": __version__, "config_hash": config_hash(config), "seed": int(seed)})
    return side
