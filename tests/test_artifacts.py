import numpy as np
import pytest

from saddle_raar import build_gaussian_ensemble, diagnostics, project_torus
from saddle_raar.artifacts import (
    aligned_real_image,
    complex_to_interleaved,
    interleaved_to_complex,
    load_solver_state,
    magnitude_image,
    save_solver_state,
    write_csv,
    write_json,
    write_pgm,
    write_trace_csv,
)
from conftest import random_complex


def test_interleaved_roundtrip():
    rng = np.random.default_rng(0)
    v = random_complex(rng, 13)
    back = interleaved_to_complex(complex_to_interleaved(v))
    assert np.array_equal(v, back)


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
    rec = diagnostics(E, b, z, lam, 0.9, k=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [rec])
    lines = path.read_text().splitlines()
    assert lines[0] == "k,beta_or_rho,residual,deriv_norm,t_ratio,objective_F,wall_ns"
    assert len(lines) == 2


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


def test_state_roundtrip(tmp_path):
    E = build_gaussian_ensemble(4, 10, seed=3)
    rng = np.random.default_rng(4)
    b = np.abs(E.apply_adjoint(random_complex(rng, 4)))
    w = random_complex(rng, 10)
    path = tmp_path / "state.json"
    save_solver_state(path, E, b, w, algo="raar", param=0.9, k=42)
    doc = load_solver_state(path)
    assert doc["algo"] == "raar"
    assert doc["param"] == 0.9
    assert doc["k"] == 42
    assert np.array_equal(doc["b"], b)
    assert np.array_equal(doc["w"], w)
    x = random_complex(rng, 4)
    assert np.array_equal(doc["ensemble"].apply_adjoint(x), E.apply_adjoint(x))
