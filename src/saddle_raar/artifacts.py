"""On-disk artifacts: CSV traces, JSON summaries, PGM images, solver states.

All writes are atomic (write to a temp file in the target directory, then
rename); every file gets mode ``0o666`` less the umask.  CSV files have a
header row, stable column order, UTF-8 text and LF line endings.  A trace
is written as its rows come, in batches, through ``trace_writer``.  A state
file keeps each field of a solver state, which its form's check and
curvature read back.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import fields

import numpy as np

from .analysis import DiagnosticsRecord, global_phase
from .operators import complex_to_interleaved, ensemble_from_descriptor, interleaved_to_complex, unit_phase
from .solvers import _form

__all__ = [
    "TRACE_BUFFER_ROWS", "atomic_write_bytes", "atomic_write_text", "write_json", "write_csv", "append_csv",
    "trace_writer", "write_pgm", "magnitude_image", "aligned_real_image", "save_solver_state", "load_solver_state",
]

# Rows a trace writer holds before it appends them to its file: about 1.2 MB of
# records, which holds a default ``solve`` trace (2,001 rows) whole.
TRACE_BUFFER_ROWS = 4096


def _temp_file(path):
    """``(binary file, name)``: a new ``.tmp-*~`` file beside ``path``, made with mode ``0o666`` less the umask."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        with contextlib.suppress(FileExistsError):
            return open(tmp, "xb"), tmp


def atomic_write_bytes(path, data: bytes) -> None:
    fh, tmp = _temp_file(path)
    try:
        with fh:
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


def _csv_bytes(rows) -> bytes:
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows).encode("utf-8")


def write_csv(path, header, rows) -> None:
    atomic_write_bytes(path, _csv_bytes(itertools.chain((header,), rows)))


def append_csv(fh, rows) -> None:
    """Format ``rows`` as CSV lines and append them to the binary file ``fh`` in one write."""
    fh.write(_csv_bytes(rows))


@contextlib.contextmanager
def trace_writer(path):
    """A trace CSV written as its rows come; the context gives the sink that takes each record.

    The sink holds up to ``TRACE_BUFFER_ROWS`` records, then appends them to a temp file
    beside ``path`` through ``append_csv``; a clean exit appends the rest and renames the
    file to ``path``, whose bytes are those of ``write_csv(path, DiagnosticsRecord.csv_header,
    rows)``.  The temp file is made at the first append, so an exit before any row on an
    exception makes nothing.  An exception drops the held rows and the temp file and propagates.
    """
    rows, fh, tmp = [], None, None

    def flush():
        nonlocal fh, tmp
        if fh is None:
            fh, tmp = _temp_file(path)
            append_csv(fh, (DiagnosticsRecord.csv_header,))
        append_csv(fh, (r.csv_row() for r in rows))
        rows.clear()

    def keep(record):
        rows.append(record)
        if len(rows) >= TRACE_BUFFER_ROWS:
            flush()

    try:
        yield keep
        flush()
        fh.close()
        os.replace(tmp, path)
        fh = None
    finally:
        if fh is not None:
            fh.close()
            os.unlink(tmp)


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


def save_solver_state(path, ensemble, b, state, algo: str, param: float, k: int) -> None:
    """Persist a final ``state`` of ``algo`` with everything needed to certify it: each field, interleaved."""
    doc = {
        "algo": algo,
        "param": float(param),
        "k": int(k),
        "ensemble": ensemble.descriptor(),
        "b": np.asarray(b, dtype=np.float64).tolist(),
        "state": {f.name: complex_to_interleaved(getattr(state, f.name)) for f in fields(state)},
    }
    write_json(path, doc)


def load_solver_state(path) -> dict:
    """Read a state file, with ``doc["state"]`` rebuilt as its form's state.

    An unknown ``algo``, a ``param`` that is not a number, or a state field
    that is missing or not a list of ``2 N`` numbers raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = _form(doc["algo"]).state
    if type(doc["param"]) not in (int, float):
        raise ValueError(f"need a numeric param, got {doc['param']!r}")
    doc["ensemble"] = E = ensemble_from_descriptor(doc["ensemble"])
    doc["b"] = np.asarray(doc["b"], dtype=np.float64)
    saved = doc.get("state") if isinstance(doc.get("state"), dict) else {}
    state = {f.name: saved.get(f.name) for f in fields(kind)}
    if not all(isinstance(v, list) and len(v) == 2 * E.N for v in state.values()):
        raise ValueError(f"need {doc['algo']} state fields {', '.join(state)}, each a list of {2 * E.N} numbers")
    doc["state"] = kind(**{name: interleaved_to_complex(v) for name, v in state.items()})
    return doc
