"""File formats: CSV state and diagnostics, JSON reports, run metadata.

All writers are byte-deterministic for a fixed input: rows follow the
canonical grid order, floats are rendered with ``repr`` (shortest
round-trip form), and line endings are pinned to ``\\n``.  JSON is strict:
a NaN or an infinity is refused, never written as ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .algebra import GENERIC_DIMENSION_CAP
from .dynamics import DiagnosticsRecord
from .errors import ValidationError
from .grid import ModeField

__all__ = [
    "save_mode_field",
    "load_physical_field",
    "save_diagnostics",
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


def _open_write(path, buffering: int = -1):
    return open(path, "w", encoding="utf-8", newline="", buffering=buffering)


def _write_rows(fh, header, rows) -> None:
    """The header line, if any, then one line per row, a tuple of ints, floats and strings.

    Every row goes through one template ``"%s,...,%s\\n"`` as wide as the
    first: ``str`` of an int or a float is its ``repr`` (for a float the
    shortest round-trip form), and a string is written as it is.
    """
    if header:
        fh.write(",".join(header) + "\n")
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        line = ",".join(["%s"] * len(first)) + "\n"
        fh.write(line % first)
        fh.writelines(line % row for row in rows)


def _read_rows(path, header: Sequence[str], parse, what: str, optional: bool = False) -> list:
    """``parse(row)`` for each non-empty row of the CSV file ``path``.

    The file opens with the ``header`` line, unless ``header`` is empty or
    ``optional``: then the first non-empty row, and no later one, is a
    header and skipped when its first cell is ``i`` or ``i1``.  Every row
    is as wide as the header, or as the first row when there is none.  A
    row that is not, a row that ``parse`` refuses with ``ValueError``, and a
    file without rows raise :class:`ValidationError` naming the file (and
    the line).
    """
    rows, width = [], len(header)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if header and not optional:
            found = tuple(next(reader, ()))
            if found != tuple(header):
                raise ValidationError(f"{path}: header {found!r}, expected {','.join(header)}")
        for row in reader:
            if not row:
                continue
            if optional:
                optional = False
                if row[0].strip().lower() in ("i", "i1"):
                    continue
            width = width or len(row)
            try:
                if len(row) != width:
                    raise ValueError(f"expected {','.join(header) or width} columns, got {row!r}")
                rows.append(parse(row))
            except ValueError as exc:
                raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: no {what} found")
    return rows


def save_mode_field(path, field: ModeField) -> None:
    """One row per retained mode, canonical row-major order."""
    z = field.coeffs
    rows = zip(*field.grid.vectors.T.tolist(), z.real.tolist(), z.imag.tolist())
    with _open_write(path) as fh:
        _write_rows(fh, MODE_FIELD_HEADER, rows)


def load_physical_field(path) -> np.ndarray:
    values = np.array(_read_rows(path, (), lambda r: [float(x) for x in r], "samples"))
    if values.shape[0] != values.shape[1]:
        raise ValidationError(f"{path}: expected a square sample grid, got {values.shape}")
    return values


def save_diagnostics(path, records: Sequence[DiagnosticsRecord]) -> None:
    rows = (
        (float(r.time), float(r.energy), float(r.enstrophy), float(r.drift_energy),
         float(r.drift_enstrophy))
        for r in records
    )
    with _open_write(path) as fh:
        _write_rows(fh, DIAGNOSTICS_HEADER, rows)


#: Rows whose tail texts :func:`save_violations` gathers at a time.
_VIOLATION_BLOCK = 1 << 16
#: Bytes that :func:`save_violations` gathers per write to the file, many runs of rows each.
_VIOLATION_BUFFER = 1 << 20


def save_violations(path, violations) -> None:
    """Flat index-tuple rows of a scan's ``ViolationTable``, in its enumeration order.

    Each triple's text ``"c1,...,c6,"`` and the ``repr`` of each of the V
    distinct residuals (by bit pattern, so -0.0 keeps its sign) are built
    once.  The tail text (second triple, residual, newline) of each code
    ``second * V + which`` that occurs is built once, found by a dense
    lookup over the T * V codes.  Each run of rows sharing a first triple
    is written as ``head`` and then ``head.join(tails)``, two writes, so the
    run's text is not copied once more; a buffer of ``_VIOLATION_BUFFER``
    bytes gathers many runs into one write to the file.
    """
    members = np.asarray(violations.members, dtype=np.int64)
    if members.ndim != 2 or members.shape[1] != 2:
        raise ValueError("the violation CSV holds wave-vector tuples, not plain basis labels")
    member_text = ["".join(f"{c}," for c in row) for row in members.tolist()]
    prefix = ["".join(member_text[c] for c in t) for t in violations.triples.tolist()]
    bits = violations.residual.view(np.int64)
    # distinct bit patterns by a sort (np.unique hashes integers, which is slower);
    # the mask is cut to the table's length so that an empty table stays empty
    values = np.sort(bits)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))[: len(values)]]
    v = len(values)
    codes = violations.second * np.int64(v) + np.searchsorted(values, bits)
    occurring = np.flatnonzero(np.bincount(codes, minlength=len(prefix) * v))
    lookup = np.zeros(len(prefix) * v, dtype=np.int32)
    lookup[occurring] = np.arange(len(occurring))
    suffix = [repr(x) + "\n" for x in values.view(np.float64).tolist()]
    tails = np.array([prefix[c // v] + suffix[c % v] for c in occurring.tolist()], dtype=object)
    with _open_write(path, _VIOLATION_BUFFER) as fh:
        _write_rows(fh, VIOLATIONS_HEADER, ())
        for start in range(0, len(violations), _VIOLATION_BLOCK):
            block = slice(start, start + _VIOLATION_BLOCK)
            first = violations.first[block]
            rows = tails[lookup[codes[block]]].tolist()
            cuts = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), len(rows)]
            heads = [prefix[a] for a in first[cuts[:-1]].tolist()]
            for h, lo, hi in zip(heads, cuts, cuts[1:]):
                fh.write(h)
                fh.write(h.join(rows[lo:hi]))


def _structure_constant(row) -> tuple[int, int, int, float]:
    i, j, k = map(int, row[:3])
    if min(i, j, k) < 0:
        raise ValueError(f"negative basis index in ({i}, {j}, {k})")
    if max(i, j, k) >= GENERIC_DIMENSION_CAP:
        raise ValueError(f"basis index in ({i}, {j}, {k}) is past the cap {GENERIC_DIMENSION_CAP}")
    return i, j, k, float(row[3])


def load_generic_constants(path) -> np.ndarray:
    """Dense alpha_ij^k from sparse (i, j, k, value) rows, zero elsewhere.

    Indices are 0-based basis labels, each refused on its line unless below
    ``GENERIC_DIMENSION_CAP``; the dimension is one past the largest seen.
    """
    entries = _read_rows(
        path, ("i", "j", "k", "value"), _structure_constant, "structure constants", optional=True
    )
    dim = 1 + max(max(i, j, k) for i, j, k, _ in entries)
    alpha = np.zeros((dim, dim, dim))
    for i, j, k, value in entries:
        alpha[i, j, k] = value
    return alpha


def load_wave_vector_pairs(path) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Wave-vector pairs ((i1, i2), (j1, j2)) from i1,i2,j1,j2 rows."""
    return _read_rows(
        path,
        ("i1", "i2", "j1", "j2"),
        lambda r: ((int(r[0]), int(r[1])), (int(r[2]), int(r[3]))),
        "wave-vector pairs",
        optional=True,
    )


def save_convergence_table(path, report) -> None:
    """Per pair of the study's report: error and bracket diff per n, exponent (empty if collinear)."""
    sizes = report.params["n_list"]
    header = (
        ["i1", "i2", "j1", "j2"]
        + [f"err_{n}" for n in sizes]
        + [f"bracket_diff_{n}" for n in sizes]
        + ["exponent"]
    )
    rows = (
        (*row["pair"][0], *row["pair"][1])
        + tuple(row["errors"][str(n)] for n in sizes)
        + tuple(row["bracket_diffs"][str(n)] for n in sizes)
        + ("" if row["exponent"] is None else row["exponent"],)
        for row in report.params["pairs"]
    )
    with _open_write(path) as fh:
        _write_rows(fh, header, rows)


# ---------------------------------------------------------------------------
# JSON reports and run metadata
# ---------------------------------------------------------------------------


def _json_default(obj):
    """numpy arrays and scalars as plain lists and values; the ``default`` of ``json``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, payload) -> None:
    """``payload`` as strict JSON: a NaN or an infinity raises ``ValueError`` before any file opens."""
    text = json.dumps(payload, indent=2, default=_json_default, allow_nan=False)
    with _open_write(path) as fh:
        fh.write(text + "\n")


def config_hash(config: Mapping) -> str:
    """sha256 over the canonical JSON rendering of a configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=_json_default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_metadata(output_path, config: Mapping, seed: int) -> Path:
    """Sidecar ``<file>.meta.json`` tying an artifact to its provenance."""
    from . import __version__

    side = Path(str(output_path) + ".meta.json")
    write_json(side, {"version": __version__, "config_hash": config_hash(config), "seed": int(seed)})
    return side
