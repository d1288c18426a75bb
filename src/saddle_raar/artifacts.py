"""On-disk artifacts: CSV traces, JSON summaries, PGM images, solver states.

All writes are atomic (write to a temp file in the target directory, then
rename).  CSV files have a header row, stable column order, UTF-8 text
and LF line endings.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .analysis import DiagnosticsRecord, global_phase
from .operators import complex_to_interleaved, ensemble_from_descriptor, interleaved_to_complex, unit_phase

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "write_json",
    "write_csv",
    "write_trace_csv",
    "write_pgm",
    "magnitude_image",
    "aligned_real_image",
    "complex_to_interleaved",
    "interleaved_to_complex",
    "save_solver_state",
    "load_solver_state",
]


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


class _ArrayEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, cls=_ArrayEncoder) + "\n")


def write_csv(path, header, rows) -> None:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trace_csv(path, records: list[DiagnosticsRecord]) -> None:
    write_csv(path, DiagnosticsRecord.csv_header, (r.csv_row() for r in records))


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D real array as binary 8-bit grayscale PGM.

    Values are mapped linearly from [min, max] to 0..255; a constant image
    maps to zero.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM images must be 2-D")
    lo, hi = float(img.min()), float(img.max())
    span = hi - lo
    scaled = np.zeros_like(img) if span == 0 else (img - lo) / span
    pixels = np.round(scaled * 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())


def magnitude_image(vec: np.ndarray, grid) -> np.ndarray:
    return np.abs(np.asarray(vec).reshape(grid))


def aligned_real_image(vec: np.ndarray, reference: np.ndarray, grid) -> np.ndarray:
    """Real part of ``vec`` after removing the reference phases.

    De-phases entrywise by the reference's phases, then removes the
    remaining global phase against the reference magnitudes; for an exact
    reconstruction this recovers the magnitude image.
    """
    vec = np.asarray(vec, dtype=np.complex128).ravel()
    reference = np.asarray(reference, dtype=np.complex128).ravel()
    dephased = vec * np.conj(unit_phase(reference))
    alpha = global_phase(dephased, np.abs(reference))
    return np.real(np.conj(alpha) * dephased).reshape(grid)


# ---------------------------------------------------------------------------
# Solver state files
# ---------------------------------------------------------------------------


def save_solver_state(path, ensemble, b, w, algo: str, param: float, k: int) -> None:
    """Persist a converged/final state with everything needed to certify it."""
    doc = {
        "algo": algo,
        "param": float(param),
        "k": int(k),
        "ensemble": ensemble.descriptor(),
        "b": np.asarray(b, dtype=np.float64).tolist(),
        "w_re_im": complex_to_interleaved(w),
    }
    write_json(path, doc)


def load_solver_state(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["ensemble"] = ensemble_from_descriptor(doc["ensemble"])
    doc["b"] = np.asarray(doc["b"], dtype=np.float64)
    doc["w"] = interleaved_to_complex(doc.pop("w_re_im"))
    return doc
