import dataclasses
import os

import numpy as np
import pytest

from saddle_raar import (ParameterSchedule, StoppingRule, artifacts, build_gaussian_ensemble, initial_state,
                         project_torus, random_lift, run)
from saddle_raar.analysis import DiagnosticsRecord, _projected_row
from saddle_raar.artifacts import (
    aligned_real_image,
    load_solver_state,
    magnitude_image,
    save_solver_state,
    trace_writer,
    write_csv,
    write_json,
    write_pgm,
)
from saddle_raar.operators import complex_to_interleaved, interleaved_to_complex
from conftest import random_complex


def test_interleaved_roundtrip():
    rng = np.random.default_rng(0)
    v = random_complex(rng, 13)
    back = interleaved_to_complex(complex_to_interleaved(v))
    assert np.array_equal(v, back)


def test_interleaved_roundtrip_keeps_signed_zeros_and_non_finite_parts():
    v = np.array([complex(-0.0, 1.0), complex(1.0, np.inf), complex(np.nan, 0.0)])
    back = interleaved_to_complex(complex_to_interleaved(v))
    assert back.dtype == np.complex128
    assert back.view(np.uint64).tobytes() == v.view(np.uint64).tobytes()


def test_interleaved_of_odd_length_is_rejected():
    with pytest.raises(ValueError):
        interleaved_to_complex([1.0, 2.0, 3.0])


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 2), (3, 4)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8") == "a,b\n1,2\n3,4\n"


def test_trace_csv_header(tmp_path, dense_small):
    E, _, b = dense_small
    rng = np.random.default_rng(1)
    z = project_torus(random_complex(rng, E.N), b)
    lam = random_complex(rng, E.N)
    rec = _projected_row(E, b, z, lam, 0.9, k=0)
    path = tmp_path / "trace.csv"
    with trace_writer(path) as keep:
        keep(rec)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,beta_or_rho,residual,deriv_norm,t_ratio,objective_F,wall_ns"
    assert len(lines) == 2


@pytest.mark.parametrize("count", [0, 1, 8, 9, 17])
def test_trace_writer_gives_the_bytes_of_one_csv_write(tmp_path, monkeypatch, count):
    # a buffer of 8 rows: these counts write nothing but the header, part of a batch,
    # exactly one batch, and one or two batches and a part
    monkeypatch.setattr(artifacts, "TRACE_BUFFER_ROWS", 8)
    appends = []
    append_csv = artifacts.append_csv
    monkeypatch.setattr(artifacts, "append_csv", lambda fh, rows: appends.append(1) or append_csv(fh, rows))
    records = [DiagnosticsRecord(k, 0.9 - k / 64, 1 / (k + 3), -0.0 if k % 2 else 1e-300, float(k) ** 3.5, -k / 7.0,
                                 10**k) for k in range(count)]
    with trace_writer(tmp_path / "trace.csv") as keep:
        for rec in records:
            keep(rec)
    write_csv(tmp_path / "ref.csv", DiagnosticsRecord.csv_header, [r.csv_row() for r in records])
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(appends) == 2 + count // 8  # the header, each full batch and the rest at the close
    assert sorted(os.listdir(tmp_path)) == ["ref.csv", "trace.csv"]


def test_trace_writer_leaves_nothing_when_the_run_raises(tmp_path, monkeypatch, dense_small):
    monkeypatch.setattr(artifacts, "TRACE_BUFFER_ROWS", 8)
    E, _, b = dense_small
    seen = []

    def interrupt(k, w):
        if k == 12:  # rows 0..7 went to the temp file, 8..11 are held
            seen.extend(os.listdir(tmp_path))
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        with trace_writer(tmp_path / "trace.csv") as keep:
            run(E, b, "raar", ParameterSchedule.constant(0.9), random_lift(E.N, seed=2), 50,
                StoppingRule(fixed_budget=True), on_iterate=interrupt, on_record=keep)
    assert len(seen) == 1 and seen[0].startswith(".tmp-") and seen[0].endswith("~")
    assert os.listdir(tmp_path) == []


def test_trace_writer_makes_nothing_before_its_first_row(tmp_path):
    with pytest.raises(ValueError):
        with trace_writer(tmp_path / "out" / "trace.csv"):
            raise ValueError("rejected")
    assert os.listdir(tmp_path) == []


def test_json_is_stable(tmp_path):
    path = tmp_path / "o.json"
    write_json(path, {"b": np.float64(2.0), "a": np.arange(3)})
    assert path.read_text() == '{\n  "a": [\n    0,\n    1,\n    2\n  ],\n  "b": 2.0\n}\n'


def test_pgm_format(tmp_path):
    img = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = tmp_path / "i.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    header = b"P5\n4 3\n255\n"
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(3, 4)
    assert pixels[0, 0] == 0
    assert pixels[-1, -1] == 255


def test_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))


def test_image_helpers():
    rng = np.random.default_rng(2)
    x0 = random_complex(rng, 16)
    mag = magnitude_image(x0, (4, 4))
    assert mag.shape == (4, 4)
    # an exact reconstruction up to global phase de-phases to the magnitudes
    aligned = aligned_real_image(np.exp(0.7j) * x0, x0, (4, 4))
    assert np.allclose(aligned, np.abs(x0).reshape(4, 4), atol=1e-12)


@pytest.mark.parametrize("algo", ["raar", "admm", "drs"])
def test_state_roundtrip(tmp_path, algo):
    E = build_gaussian_ensemble(4, 10, seed=3)
    rng = np.random.default_rng(4)
    b = np.abs(E.apply_adjoint(random_complex(rng, 4)))
    state = initial_state(E, b, algo, random_complex(rng, 10))
    for f in dataclasses.fields(state):  # distinct fields, none of them the start's copy of another
        setattr(state, f.name, random_complex(rng, 10))
    path = tmp_path / "state.json"
    save_solver_state(path, E, b, state, algo=algo, param=0.9, k=42)
    doc = load_solver_state(path)
    assert doc["algo"] == algo
    assert doc["param"] == 0.9
    assert doc["k"] == 42
    assert np.array_equal(doc["b"], b)
    assert type(doc["state"]) is type(state)
    assert [f.name for f in dataclasses.fields(doc["state"])] == [f.name for f in dataclasses.fields(state)]
    for f in dataclasses.fields(state):
        saved, loaded = getattr(state, f.name), getattr(doc["state"], f.name)
        assert loaded.dtype == np.complex128
        assert np.array_equal(loaded.view(np.uint64), saved.view(np.uint64)), f.name  # bitwise
    x = random_complex(rng, 4)
    assert np.array_equal(doc["ensemble"].apply_adjoint(x), E.apply_adjoint(x))
