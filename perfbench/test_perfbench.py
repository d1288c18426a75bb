"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Takes about two minutes: each workload runs once untraced and once or
twice traced, with ``--seconds 1`` (one batch per half).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = (
    "solvers.applies_per_iter",
    "solvers.step.projections",
    "solvers.iterations",
    "initializers.null_vector.calls",
)


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    argv = [sys.executable, script, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", NAMES)
def test_short_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_runs_emit_every_per_layer_metric_and_counts_repeat(workload):
    first = result_of(bench(workload, 1))
    assert first["correct"] and first["failed"] == 0
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units("per_layer")
    if workload == "certify-gap":
        assert first["metrics"]["solvers.iterations"]["value"] == 0
        return
    second = result_of(bench(workload, 1))
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["solvers.iterations"]["value"] > 0


def test_injected_failing_operation_is_counted(monkeypatch, capsys):
    from saddle_raar import analysis

    real = analysis.spectral_gap

    def gap_at_one_for_mask_seed_3(E, x0, grid=None, seed=0):
        found = real(E, x0, grid=grid, seed=seed)
        return dataclasses.replace(found, lambda2=1.0) if E.seed == 3 else found

    monkeypatch.setattr(analysis, "spectral_gap", gap_at_one_for_mask_seed_3)
    workload = workloads.make("certify-gap", 0)
    batch = workload.run_batch(0)
    assert (batch.ops, batch.failed, batch.succeeded) == (20, 1, 19)
    _metrics, report = run.end_to_end(workload, [(batch, 10**9)], [0.5])
    assert report["failed_frac"] == 1 / 20

    args = run.parse_args(["--workload", "certify-gap", "--seconds", "1"], SPEC)
    result = run.run_one(args, SPEC)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 20
    assert "FAILED" in capsys.readouterr().err


def test_without_the_library_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(NAMES[0], 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_removed_function_makes_its_metrics_absent():
    tracer = tracing.Tracer()
    absent = tracing.absent_metrics(tracer.names - {"initializers.null_vector"})
    assert absent == sorted(m for m in tracing.SOURCES if m.startswith("initializers.null_vector"))
    assert tracing.absent_metrics(tracer.names) == []


def test_self_times_and_ratios_from_synthetic_spans():
    # run [0, 100) holds a k = 0 diagnostics record with two applies, then one
    # step with a projection whose apply and adjoint take 10 ns each
    spans = [
        (0, -1, "solvers.run", 0, 100),
        (1, 0, "analysis.diagnostics", 0, 20),
        (2, 1, "operators.apply", 0, 5),
        (3, 1, "operators.apply", 5, 10),
        (4, 0, "solvers.raar_step", 30, 80),
        (5, 4, "operators.project_range", 40, 70),
        (6, 5, "operators.apply", 40, 50),
        (7, 5, "operators.apply_adjoint", 50, 60),
    ]
    m = tracing.per_layer(spans, wall_ns=200)
    assert m["solvers.iterations"] == 1
    assert m["solvers.applies_per_iter"] == 1.0
    assert m["solvers.step.projections"] == 1.0
    assert m["solvers.run.self_s"] == pytest.approx((100 - 20 - 50) / 1e9)
    assert m["operators.apply.calls"] == 3
    assert m["analysis.diagnostics.share"] == pytest.approx(0.1)
    assert m["initializers.null_vector.calls"] == 0
