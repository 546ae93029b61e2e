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
from .verify import CheckReport

__all__ = [
    "save_mode_field",
    "load_mode_field",
    "save_physical_field",
    "load_physical_field",
    "save_diagnostics",
    "load_diagnostics",
    "save_violations",
    "load_generic_constants",
    "load_wave_vector_pairs",
    "save_convergence_table",
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


def _write_rows(fh, header, rows) -> None:
    """The header line, if any, then one line per row of ints and floats (``None`` empty)."""
    if header:
        fh.write(",".join(header) + "\n")
    fh.writelines(",".join("" if x is None else repr(x) for x in row) + "\n" for row in rows)


def _read_rows(path, header: Sequence[str], what: str) -> list[list[str]]:
    """Non-empty rows, each ``len(header)`` wide; a row starting ``i`` or ``i1`` is a header."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("i", "i1"):
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}: expected {','.join(header)} rows, got {row!r}")
            rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: no {what} found")
    return rows


def save_mode_field(path, field: ModeField) -> None:
    """One row per retained mode, canonical row-major order."""
    z = field.coeffs
    rows = zip(*field.grid.vectors.T.tolist(), z.real.tolist(), z.imag.tolist())
    with _open_write(path) as fh:
        _write_rows(fh, MODE_FIELD_HEADER, rows)


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
        _write_rows(fh, None, values.tolist())


def load_physical_field(path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    values = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"{path}: expected a square sample grid, got {values.shape}")
    return values


def save_diagnostics(path, records: Sequence[DiagnosticsRecord]) -> None:
    rows = ((r.time, r.energy, r.enstrophy, r.drift_energy, r.drift_enstrophy) for r in records)
    with _open_write(path) as fh:
        _write_rows(fh, DIAGNOSTICS_HEADER, (map(float, row) for row in rows))


def load_diagnostics(path) -> list[DiagnosticsRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != DIAGNOSTICS_HEADER:
            raise ValidationError(f"unexpected diagnostics header {header!r} in {path}")
        return [DiagnosticsRecord(*map(float, row)) for row in reader if row]


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
        _write_rows(fh, VIOLATIONS_HEADER, ())
        for start in range(0, len(violations), _VIOLATION_BLOCK):
            block = slice(start, start + _VIOLATION_BLOCK)
            rows = prefix[first[block]] + prefix[second[block]] + suffix[which[block]]
            fh.write("".join(rows.tolist()))


def load_generic_constants(path) -> np.ndarray:
    """Dense alpha_ij^k from sparse (i, j, k, value) rows, zero elsewhere.

    Indices are 0-based basis labels; the dimension is one past the
    largest index seen.
    """
    entries = [
        (int(i), int(j), int(k), float(value))
        for i, j, k, value in _read_rows(path, ("i", "j", "k", "value"), "structure constants")
    ]
    dim = 1 + max(max(i, j, k) for i, j, k, _ in entries)
    alpha = np.zeros((dim, dim, dim))
    for i, j, k, value in entries:
        if min(i, j, k) < 0:
            raise ValidationError(f"{path}: negative basis index in ({i}, {j}, {k})")
        alpha[i, j, k] = value
    return alpha


def load_wave_vector_pairs(path) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Wave-vector pairs ((i1, i2), (j1, j2)) from i1,i2,j1,j2 rows."""
    rows = _read_rows(path, ("i1", "i2", "j1", "j2"), "wave-vector pairs")
    return [((int(i1), int(i2)), (int(j1), int(j2))) for i1, i2, j1, j2 in rows]


def save_convergence_table(path, report: CheckReport) -> None:
    """Per pair: error and bracket difference at each n, exponent (empty if collinear)."""
    sizes = report.params["n_list"]
    header = (
        ["i1", "i2", "j1", "j2"]
        + [f"err_{n}" for n in sizes]
        + [f"bracket_diff_{n}" for n in sizes]
        + ["exponent"]
    )
    rows = (
        [*row["pair"][0], *row["pair"][1]]
        + [row["errors"][str(n)] for n in sizes]
        + [row["bracket_diffs"][str(n)] for n in sizes]
        + [row["exponent"]]
        for row in report.params["pairs"]
    )
    with _open_write(path) as fh:
        _write_rows(fh, header, rows)


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
