"""Check that two source trees give the same CLI outputs, byte for byte.

Usage::

    python tools/compare_outputs.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are checkouts of this repository.  The script runs
a fixed set of ``saddle-raar`` invocations against each tree's ``src`` with
one BLAS thread, keeps each run's files together with its exit code,
stdout and stderr, drops the ``wall_ns`` column of the trace CSVs (it is a
clock reading) and compares the two output trees file by file.  It prints
every file that differs or exists on one side only, and exits 0 only when
there is none.  Standard library only; a full comparison takes about
twenty seconds on two cores.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile

GAUSS = ["--n", "16", "--N", "64", "--seed", "1"]
CDP = ["--ensemble", "cdp", "--grid", "16x16", "--max-iters", "300"]

# (name, arguments); "{name}" in an argument is that earlier run's output directory
RUNS = [
    ("solve-raar", ["solve", "--algo", "raar", *GAUSS]),
    ("solve-admm", ["solve", "--algo", "admm", "--beta", "0.8", *GAUSS]),
    ("solve-drs", ["solve", "--algo", "drs", *GAUSS]),
    ("solve-null", ["solve", "--init", "null", *GAUSS]),
    # 5,001 rows, more than a trace writer holds before it appends to its file, and a stride
    ("solve-long", ["solve", "--fixed-budget", "--max-iters", "5000", *GAUSS]),
    ("solve-stride", ["solve", "--record-every", "7", *GAUSS]),
    ("solve-cdp-random", ["solve", *CDP]),
    ("solve-cdp-null", ["solve", *CDP, "--init", "null"]),
    ("solve-bad-dims", ["solve", "--n", "16", "--N", "8"]),
    ("sweep-paired", ["sweep", "--n", "12", "--trials", "3", "--max-iters", "200", "--seed", "1"]),
    ("sweep-full-grid", ["sweep", "--full-grid", "--n", "12", "--trials", "1", "--max-iters", "100"]),
    # case d is the noisy random-start case
    *((f"cdp-{case}", ["cdp", "--case", case, "--grid", "16x16"]) for case in "abcd"),
    ("certify-raar", ["certify", "--cross-section", "--state", "{solve-raar}/state.json"]),
    # admm certifies its lift; drs takes the tangent solve with no pencil
    ("certify-admm", ["certify", "--cross-section", "--state", "{solve-admm}/state.json"]),
    ("certify-drs", ["certify", "--cross-section", "--state", "{solve-drs}/state.json"]),
    # the dense CDP certificate with its relaxation pencil (N = 2048), and the dense spectral gap
    ("certify-cdp", ["certify", "--cross-section", "--state", "{solve-cdp-random}/state.json"]),
    ("gap", ["gap", "--grid", "8x8", "--seeds", "3"]),
]

ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_all(tree: str, root: str) -> None:
    """Run every invocation of ``RUNS`` against ``tree/src``, each into ``root/<name>``."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    dirs = {name: os.path.join(root, name) for name, _ in RUNS}
    for name, args in RUNS:
        out = dirs[name]
        os.makedirs(out)
        args = [a.format(**dirs) for a in args]
        proc = subprocess.run([sys.executable, "-m", "saddle_raar.cli", *args, "--out", out],
                              env=env, capture_output=True, text=True)
        for stream, text in (("exit_code", f"{proc.returncode}\n"), ("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(out, f"_{stream}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)


def comparable(path: str) -> bytes:
    """The file's bytes, with a trace CSV's ``wall_ns`` column dropped."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".csv"):
        return data
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or "wall_ns" not in rows[0]:
        return data
    col = rows[0].index("wall_ns")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(row[:col] + row[col + 1:] for row in rows)
    return buf.getvalue().encode("utf-8")


def files_under(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}


def compare(parent_root: str, change_root: str) -> list:
    """One line per file that differs or exists on one side only."""
    ours, theirs = files_under(parent_root), files_under(change_root)
    problems = [f"only in PARENT: {p}" for p in sorted(ours - theirs)]
    problems += [f"only in CHANGE: {p}" for p in sorted(theirs - ours)]
    problems += [f"differs: {p}" for p in sorted(ours & theirs)
                 if comparable(os.path.join(parent_root, p)) != comparable(os.path.join(change_root, p))]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout whose outputs are the reference")
    parser.add_argument("change", help="checkout to compare against it")
    ns = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        roots = [os.path.join(tmp, side) for side in ("parent", "change")]
        for tree, root in zip((ns.parent, ns.change), roots):
            run_all(tree, root)
        problems = compare(*roots)
        count = len(files_under(roots[0]) | files_under(roots[1]))
    for line in problems:
        print(line)
    print(f"{count} files from {len(RUNS)} runs: "
          + (f"{len(problems)} not identical" if problems else "all identical (trace wall_ns dropped)"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
