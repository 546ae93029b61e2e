"""CSV and JSON round trips, canonical-order enforcement, metadata sidecars."""

import csv
import hashlib
import json

import numpy as np
import pytest

import sinebracket
from sinebracket.algebra import DenseNambuTensor, SineNambuTensor, scan_gen_jacobi
from sinebracket.dynamics import DiagnosticsRecord, random_shell_field
from sinebracket.errors import ValidationError
from sinebracket.verify import CheckReport
from sinebracket.grid import ModeField, build_grid
from sinebracket.serialization import (
    config_hash,
    load_diagnostics,
    load_generic_constants,
    load_mode_field,
    load_physical_field,
    load_wave_vector_pairs,
    save_convergence_table,
    save_diagnostics,
    save_mode_field,
    save_physical_field,
    save_violations,
    write_json,
    write_metadata,
)


def _field(n=5, seed=0):
    grid = build_grid(n)
    return random_shell_field(grid, seed=seed, shell_max=8.0, amplitude=1.3)


# ---------------------------------------------------------------------------
# mode fields
# ---------------------------------------------------------------------------


def test_mode_field_roundtrip_is_exact(tmp_path):
    field = _field()
    path = tmp_path / "field.csv"
    save_mode_field(path, field)
    loaded = load_mode_field(path)
    assert loaded.grid.n == 5
    assert np.array_equal(loaded.coeffs, field.coeffs)  # repr() round trip


def test_mode_field_rewrite_is_byte_identical(tmp_path):
    field = _field(seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_mode_field(a, field)
    save_mode_field(b, field)
    assert a.read_bytes() == b.read_bytes()


def test_mode_field_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    save_mode_field(path, _field())
    lines = path.read_text().splitlines()
    lines[0] = "k1,k2,re,im"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        load_mode_field(path)


def test_mode_field_rejects_shuffled_rows(tmp_path):
    path = tmp_path / "swapped.csv"
    save_mode_field(path, _field())
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        load_mode_field(path)


def test_mode_field_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "short.csv"
    save_mode_field(path, _field())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # 23 rows: no odd n gives that
    with pytest.raises(ValidationError):
        load_mode_field(path)


# ---------------------------------------------------------------------------
# physical fields and diagnostics
# ---------------------------------------------------------------------------


def test_physical_field_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.normal(size=(7, 7))
    path = tmp_path / "phys.csv"
    save_physical_field(path, values)
    assert np.array_equal(load_physical_field(path), values)


def test_physical_field_rejects_non_square(tmp_path):
    with pytest.raises(ValidationError):
        save_physical_field(tmp_path / "x.csv", np.zeros((3, 4)))
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    with pytest.raises(ValidationError):
        load_physical_field(path)


def test_diagnostics_roundtrip(tmp_path):
    records = [
        DiagnosticsRecord(0.0, 1.25, 2.5, 0.0, 0.0),
        DiagnosticsRecord(0.1, 1.25 + 1e-12, 2.5, 8e-13, 1.7e-15),
    ]
    path = tmp_path / "diag.csv"
    save_diagnostics(path, records)
    assert path.read_text().splitlines()[0] == "time,H,E,drift_H,drift_E"
    assert load_diagnostics(path) == records


def test_diagnostics_rejects_foreign_header(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("t,energy\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        load_diagnostics(path)


# ---------------------------------------------------------------------------
# violations and generic constants
# ---------------------------------------------------------------------------


def test_violations_csv_layout(tmp_path):
    violations = scan_gen_jacobi(SineNambuTensor(build_grid(5)))[:50]
    path = tmp_path / "violations.csv"
    save_violations(path, violations)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(
        ("i1", "i2", "j1", "j2", "k1", "k2", "l1", "l2", "p1", "p2", "q1", "q2", "residual")
    )
    assert len(rows) == 51
    first = violations[0]
    flat = [c for vec in first.indices for c in vec]
    assert [int(x) for x in rows[1][:12]] == flat
    assert float(rows[1][12]) == first.residual
    dense = scan_gen_jacobi(DenseNambuTensor(np.zeros((2, 2, 2))))
    with pytest.raises(ValueError):
        save_violations(path, dense)


def test_load_generic_constants_sparse_to_dense(tmp_path):
    path = tmp_path / "constants.csv"
    path.write_text("i,j,k,value\n0,1,2,1.0\n1,0,2,-1.0\n")
    alpha = load_generic_constants(path)
    assert alpha.shape == (3, 3, 3)
    assert alpha[0, 1, 2] == 1.0 and alpha[1, 0, 2] == -1.0
    assert np.count_nonzero(alpha) == 2


def test_load_generic_constants_header_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("0,1,2,0.5\n")
    alpha = load_generic_constants(path)
    assert alpha[0, 1, 2] == 0.5


def test_load_generic_constants_rejects_bad_rows(tmp_path):
    arity = tmp_path / "arity.csv"
    arity.write_text("0,1,2\n")
    with pytest.raises(ValidationError):
        load_generic_constants(arity)
    negative = tmp_path / "negative.csv"
    negative.write_text("0,-1,2,1.0\n")
    with pytest.raises(ValidationError):
        load_generic_constants(negative)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError):
        load_generic_constants(empty)


def test_load_wave_vector_pairs(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("i1,i2,j1,j2\n1,0,0,1\n\n-1,2,2,1\n")
    assert load_wave_vector_pairs(path) == [((1, 0), (0, 1)), ((-1, 2), (2, 1))]
    path.write_text("1,0,0\n")
    with pytest.raises(ValidationError, match="i1,i2,j1,j2"):
        load_wave_vector_pairs(path)
    path.write_text("i1,i2,j1,j2\n")
    with pytest.raises(ValidationError, match="no wave-vector pairs"):
        load_wave_vector_pairs(path)


# ---------------------------------------------------------------------------
# pinned bytes of every CSV writer, on literal inputs
# ---------------------------------------------------------------------------


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_mode_field_bytes_are_pinned(tmp_path):
    field = ModeField.from_modes(
        build_grid(3),
        {(1, 0): complex(-0.0, 1e-300), (0, 1): complex(1 / 3, -2.5), (1, -1): complex(1e300, 0.0)},
    )
    path = tmp_path / "state.csv"
    save_mode_field(path, field)
    assert _sha256(path) == "f9123fc054c77b51c8aa3b346ccba38884c4876095cb364769108fd9793af405"


def test_diagnostics_bytes_are_pinned(tmp_path):
    records = [
        DiagnosticsRecord(0.0, 1.25, 2.5, 0.0, 0.0),
        DiagnosticsRecord(0.001, 1 / 3, 2.5000000000000004, 1e-300, 5e-324),
        DiagnosticsRecord(-0.002, 123456789.0, 1e22, 2.220446049250313e-16, -0.0),
    ]
    path = tmp_path / "diagnostics.csv"
    save_diagnostics(path, records)
    assert _sha256(path) == "c05eb1d2de8ee73323f81077c241c81254d370456e13d5ae1c789b2693b7cef4"


def test_physical_field_bytes_are_pinned(tmp_path):
    values = np.array([[0.0, -0.0, 1 / 3], [1e-300, -2.5, 1e16], [3.0, 0.1, -7.25]])
    path = tmp_path / "samples.csv"
    save_physical_field(path, values)
    assert _sha256(path) == "519397b711dfe89b9721c780828718f080d3aad713b5a8749cbfb6b4997c509b"


def test_convergence_table_bytes_are_pinned(tmp_path):
    def row(pair, errors, diffs, exponent):
        return {
            "pair": pair,
            "collinear": exponent is None,
            "errors": dict(zip(("11", "21"), errors)),
            "bracket_diffs": dict(zip(("11", "21"), diffs)),
            "exponent": exponent,
        }

    pairs = [
        row([[1, 0], [0, 1]], (0.0123, 1 / 3000), (1e-17, 0.0), 1.9999999999999998),
        row([[1, 1], [-1, 2]], (5e-324, -0.0), (2.5, 1e300), 2.0),
        row([[1, 0], [2, 0]], (0.0, 0.0), (0.0, 0.0), None),  # collinear: no exponent
    ]
    report = CheckReport(
        "convergence", {"n_list": [11, 21], "seed": 7, "pairs": pairs}, 0.0, 0.2, True, 0.0
    )
    path = tmp_path / "convergence.csv"
    save_convergence_table(path, report)
    assert path.read_text().splitlines()[-1] == "1,0,2,0,0.0,0.0,0.0,0.0,"
    assert _sha256(path) == "826871fc0b5c01779db4a7e4f7c61f98193f17ea06b7f73eebb53af6cf334997"


# ---------------------------------------------------------------------------
# JSON, hashing, metadata
# ---------------------------------------------------------------------------


def test_write_json_coerces_numpy_scalars(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"a": np.float64(1.5), "b": np.int64(2), "c": np.arange(3)})
    payload = json.loads(path.read_text())
    assert payload == {"a": 1.5, "b": 2, "c": [0, 1, 2]}
    assert path.read_text().endswith("\n")


def test_config_hash_is_order_insensitive():
    a = config_hash({"n": 7, "dt": 1e-3, "scheme": "rk4"})
    b = config_hash({"scheme": "rk4", "n": 7, "dt": 1e-3})
    c = config_hash({"scheme": "rk4", "n": 9, "dt": 1e-3})
    assert a == b
    assert a != c
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")


def test_write_metadata_sidecar(tmp_path):
    artifact = tmp_path / "final_state.csv"
    artifact.write_text("stub\n")
    side = write_metadata(artifact, {"n": 5, "seed": 3}, seed=3)
    assert side == tmp_path / "final_state.csv.meta.json"
    payload = json.loads(side.read_text())
    assert payload["version"] == sinebracket.__version__
    assert payload["seed"] == 3
    assert payload["config_hash"] == config_hash({"n": 5, "seed": 3})
