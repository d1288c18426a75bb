import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from saddle_raar import (
    ParameterSchedule,
    StoppingRule,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    null_vector,
    poisson_data,
    project_torus,
    raar_step,
    random_lift,
    reconstruct,
    run,
)
from saddle_raar import experiments
from saddle_raar.experiments import (
    InvalidDataError,
    cdp_case_run,
    cdp_case_suite,
    cdp_instance,
    gaussian_success_sweep,
    paired_success_cells,
    _run_success_trial,
    _sample_magnitudes,
)


@pytest.fixture(scope="module")
def rpp_cdp():
    phantom = build_rpp((32, 32), seed=4)
    E = build_cdp_ensemble((32, 32), seed=5)
    return phantom, E


class TestPoissonData:
    def test_deterministic(self, rpp_cdp):
        phantom, E = rpp_cdp
        a = poisson_data(phantom, E, 0.18, seed=3)
        b = poisson_data(phantom, E, 0.18, seed=3)
        assert np.array_equal(a.b, b.b)
        assert a.kappa == b.kappa

    def test_large_count_limit(self, rpp_cdp):
        phantom, E = rpp_cdp
        clean = np.abs(E.apply_adjoint(phantom.values))
        noisy = _sample_magnitudes(clean, 1e9, [0, 0])
        level = np.linalg.norm(noisy - clean) / np.linalg.norm(noisy)
        assert level < 1e-3

    def test_target_level_calibration(self, rpp_cdp):
        phantom, E = rpp_cdp
        data = poisson_data(phantom, E, 0.18, seed=7)
        assert 0.171 <= data.realized_level <= 0.189
        clean = np.abs(E.apply_adjoint(phantom.values))
        assert data.realized_level == pytest.approx(
            np.linalg.norm(data.b - clean) / np.linalg.norm(data.b)
        )

    def test_a_failed_calibration_tests_each_probe_it_draws(self, rpp_cdp, monkeypatch):
        phantom, E = rpp_cdp
        clean = np.abs(E.apply_adjoint(phantom.values))
        levels = []

        def sampled(*args):
            b = _sample_magnitudes(*args)
            levels.append(float(np.linalg.norm(b - clean) / np.linalg.norm(b)))
            return b

        monkeypatch.setattr(experiments, "NOISE_MAX_PROBES", 3)
        monkeypatch.setattr(experiments, "NOISE_REL_WINDOW", -1.0)  # a window no probe meets
        monkeypatch.setattr(experiments, "_sample_magnitudes", sampled)
        with pytest.raises(InvalidDataError) as info:
            poisson_data(phantom, E, 0.18, seed=5)
        assert len(levels) == 3
        assert str(info.value) == f"could not reach noise level 0.18 within 3 probes (last {levels[-1]})"

    def test_unreachable_levels_rejected(self, rpp_cdp):
        phantom, E = rpp_cdp
        with pytest.raises(InvalidDataError):
            poisson_data(phantom, E, 0.0, seed=0)
        with pytest.raises(InvalidDataError):
            poisson_data(phantom, E, 1.0, seed=0)


class TestSuccessSweep:
    def test_summary_determinism(self):
        kwargs = dict(n=20, ratios=(3.0,), betas=(0.8,), rhos=(0.25,), trials=4,
                      seed=11, max_iters=400)
        a = gaussian_success_sweep(**kwargs)
        b = gaussian_success_sweep(**kwargs)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
        # the document is every field, with each cell's three tallies added
        doc = a.to_json_dict()
        assert set(doc) == {f.name for f in dataclasses.fields(a)}
        for cell, c in zip(doc["cells"], a.cells, strict=True):
            assert set(cell) == {"algo", "ratio", "param", "outcomes", "successes", "trials", "success_rate"}
            assert (cell["successes"], cell["trials"], cell["success_rate"]) == (c.successes, c.trials, c.success_rate)
            assert cell["outcomes"] == [dataclasses.asdict(o) for o in c.outcomes]

    def test_monotone_trend_smoke(self):
        # hardest cell (low ratio, half relaxation) vs easiest cell
        sweep = gaussian_success_sweep(
            n=40, ratios=(3.0, 5.0), betas=(0.5, 10.0 / 11.0), rhos=(), trials=10,
            seed=2, max_iters=1500,
        )
        hard = sweep.cell("raar", 3.0, 0.5)
        easy = sweep.cell("raar", 5.0, 10.0 / 11.0)
        assert hard.success_rate < easy.success_rate

    def test_successful_trials_certify(self):
        sweep = gaussian_success_sweep(
            n=30, ratios=(4.0,), betas=(0.9,), rhos=(1.0 / 9.0,), trials=6,
            seed=5, max_iters=2000,
        )
        outcomes = [o for c in sweep.cells for o in c.outcomes]
        assert any(o.success for o in outcomes)
        assert all(o.fixed_point_pass for o in outcomes if o.success)

    def test_csv_rows_schema(self):
        sweep = gaussian_success_sweep(
            n=12, ratios=(3.0,), betas=(0.8,), rhos=(0.5,), trials=2, seed=0,
            max_iters=200,
        )
        rows = sweep.to_rows()
        assert len(rows) == 2
        assert all(len(r) == 4 for r in rows)
        assert {r[2] for r in rows} == {"drs", "raar"}

    def test_unsorted_grids_give_sorted_cells_seeded_by_grid_index(self):
        n, trials, seed, max_iters, threshold = 8, 2, 3, 60, 1e-5
        ratios, betas, rhos = (4.0, 3.0), (0.9, 0.5), (1.0, 0.25)
        sweep = gaussian_success_sweep(n=n, ratios=ratios, betas=betas, rhos=rhos, trials=trials,
                                       seed=seed, max_iters=max_iters, success_threshold=threshold)
        assert [(c.algo, c.ratio, c.param) for c in sweep.cells] == [
            (algo, ratio, param)
            for algo, grid in (("drs", (0.25, 1.0)), ("raar", (0.5, 0.9)))
            for ratio in (3.0, 4.0)
            for param in grid
        ]
        for c in sweep.cells:
            idx = (betas if c.algo == "raar" else rhos).index(c.param)
            expected = [_run_success_trial(n, c.ratio, c.algo, c.param, idx, trial, seed, max_iters, threshold)
                        for trial in range(trials)]
            assert c.outcomes == expected

    def test_trials_match_runs_that_keep_every_row(self, monkeypatch):
        # a trial keeps only its first and final rows; its outcome is that of
        # a run that keeps them all
        kwargs = dict(n=20, ratio=4.0, beta=0.9, trials=3, seed=1, max_iters=1000)
        strided = [c.outcomes for c in paired_success_cells(**kwargs).cells]
        run = experiments.run
        monkeypatch.setattr(experiments, "run", lambda *args, record_every: run(*args, record_every=1))
        assert [c.outcomes for c in paired_success_cells(**kwargs).cells] == strided
        assert any(o.iterations < 1000 for outcomes in strided for o in outcomes)

    def test_a_paired_cell_loads_no_scipy(self):
        # a fresh interpreter, so that no other test has loaded scipy yet: the Gaussian builds
        # orthonormalize through numpy's own LAPACK
        probe = ("import sys\nfrom saddle_raar.experiments import paired_success_cells\n"
                 "paired_success_cells(n=16, ratio=4.0, trials=2)\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestCdpCases:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            cdp_instance("e", (16, 16), 0)

    def test_noiseless_random_init_successes_behave(self):
        # large starting values reconstruct from a random start; their
        # dual gradient collapses and the basin indicator stays positive
        inst = cdp_instance("b", (32, 32), 0)
        for start in (0.95, 0.9):
            p = cdp_case_run(inst, start)
            assert p.final_residual <= 1e-5
            assert p.final_deriv_norm <= 1e-8
            assert p.tail_t_ratio_positive

    def test_noisy_random_init_small_start_stagnates(self):
        inst = cdp_instance("d", (32, 32), 0)
        ref = cdp_case_run(inst, 0.95)
        for start in (0.7, 0.6):
            p = cdp_case_run(inst, start)
            assert p.final_residual >= ref.final_residual

    @staticmethod
    def _reconstruction_at(inst, schedule, k_snap):
        # case a's start and path, stepped with the public raar_step
        E, b = inst.ensemble, inst.b
        nv = null_vector(E, b, weak_fraction=0.5, seed=inst.init_seed)
        w = E.apply_adjoint(nv.x * np.linalg.norm(b))
        for k in range(1, k_snap + 1):
            w = raar_step(E, b, w, schedule.value_at(k))
        z = project_torus(w, b)
        return reconstruct(E, z, w - z)

    def test_snapshot_and_trace_shape(self):
        inst = cdp_instance("a", (16, 16), 1)
        rows = []
        p = cdp_case_run(inst, 0.9, total_iters=60, hold_iters=30,
                         settle_iters=10, on_record=rows.append)
        assert len(rows) == 61
        assert rows[-1].k == 60
        assert p.x_snapshot.shape == (inst.ensemble.n,)
        assert rows[35].param < 0.9
        assert p.tail_t_ratio_positive == all(r.t_ratio > 0 for r in rows[-100:])
        assert (p.final_residual, p.final_deriv_norm) == (rows[-1].residual, rows[-1].deriv_norm)
        schedule = ParameterSchedule(((1, 0.9), (30, 0.9), (50, 0.5), (60, 0.5)))
        np.testing.assert_array_equal(p.x_snapshot, self._reconstruction_at(inst, schedule, 30))

    def test_snapshot_is_the_last_iterate_when_the_hold_outlasts_the_run(self):
        inst = cdp_instance("a", (16, 16), 1)
        for hold in (40, 55):
            rows = []
            p = cdp_case_run(inst, 0.9, total_iters=40, hold_iters=hold,
                             settle_iters=10, on_record=rows.append)
            assert [r.param for r in rows] == [0.9] * 41
            np.testing.assert_array_equal(p.x_snapshot, p.x_final)
            expected = self._reconstruction_at(inst, ParameterSchedule.constant(0.9), 40)
            np.testing.assert_array_equal(p.x_snapshot, expected)

    def test_path_and_noise_summaries_hold_every_scalar_field(self):
        inst = cdp_instance("c", (16, 16), 1)
        p = cdp_case_run(inst, 0.9, total_iters=6, hold_iters=3, settle_iters=1)
        for result, arrays in ((p, {"x_final", "x_snapshot"}), (inst.noise, {"b"})):
            summary = result.summary()
            names = {f.name for f in dataclasses.fields(result)}
            assert set(summary) == names - arrays
            for name in names - arrays:
                assert summary[name] is getattr(result, name), name

    def test_a_path_without_a_hold_declines_from_the_start(self):
        inst = cdp_instance("a", (16, 16), 1)
        rows = []
        p = cdp_case_run(inst, 0.9, total_iters=20, hold_iters=0, settle_iters=5, on_record=rows.append)
        assert len(rows) == 21
        assert rows[0].param < 0.9  # the first step's value
        assert rows[-1].param == 0.5
        np.testing.assert_array_equal(p.x_snapshot, self._reconstruction_at(inst, ParameterSchedule.constant(0.9), 0))

    @pytest.mark.parametrize("name", ["hold_iters", "settle_iters"])
    def test_negative_path_lengths_are_rejected_before_the_run(self, monkeypatch, name):
        monkeypatch.setattr(experiments, "run", lambda *a, **kw: pytest.fail("run started"))
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, got -1"):
            cdp_case_run(cdp_instance("b", (16, 16), 1), 0.9, total_iters=20, **{name: -1})

    @pytest.mark.parametrize("name", ["hold_iters", "settle_iters"])
    def test_fractional_path_lengths_are_rejected_before_the_run(self, monkeypatch, name):
        # 2.5 once ran: the schedule truncated it to 2, and k == 2.5 never held for the snapshot
        monkeypatch.setattr(experiments, "run", lambda *a, **kw: pytest.fail("run started"))
        with pytest.raises(TypeError, match=f"{name} must be an integer, got 2.5"):
            cdp_case_run(cdp_instance("b", (16, 16), 1), 0.9, total_iters=20, **{name: 2.5})

    @pytest.mark.parametrize("case, calls", [("a", 1), ("b", 0)])
    def test_suite_computes_the_null_vector_once(self, monkeypatch, case, calls):
        import saddle_raar.experiments as experiments

        seen = []
        monkeypatch.setattr(experiments, "null_vector", lambda *a, **kw: seen.append(1) or null_vector(*a, **kw))
        suite = cdp_case_suite(case, (16, 16), 1, total_iters=6, hold_iters=3, settle_iters=1)
        assert len(seen) == calls
        assert len(suite.paths) == 5
        assert (suite.instance.null_init is None) == (calls == 0)

    def test_cdp_command_computes_the_null_vector_once(self, monkeypatch, tmp_path):
        import saddle_raar.cli as cli
        import saddle_raar.experiments as experiments

        seen = []
        monkeypatch.setattr(experiments, "null_vector", lambda *a, **kw: seen.append(1) or null_vector(*a, **kw))
        code = cli.main(["cdp", "--case", "a", "--grid", "16x16", "--seed", "1", "--total-iters", "6",
                         "--hold-iters", "3", "--settle-iters", "1", "--out", str(tmp_path / "cdp")])
        assert code == 0 and len(seen) == 1
        assert (tmp_path / "cdp" / "init_magnitude.pgm").exists()

    def test_path_projects_onto_the_torus_once_per_iteration(self, monkeypatch):
        # one projection for the start's record, one per step and one for the
        # snapshot; the final estimate reads the pair the run already holds
        import sys

        from saddle_raar import operators

        inst = cdp_instance("a", (16, 16), 1)
        real, calls = operators.project_torus, []

        def counted(w, b, out=None):
            calls.append(1)
            return real(w, b, out=out)

        for name, module in list(sys.modules.items()):
            if name.startswith("saddle_raar") and getattr(module, "project_torus", None) is real:
                monkeypatch.setattr(module, "project_torus", counted)
        cdp_case_run(inst, 0.9, total_iters=40, hold_iters=20, settle_iters=10)
        assert len(calls) == 42

    def test_memory_does_not_grow_with_iterations(self):
        inst = cdp_instance("a", (16, 16), 1)
        peaks = {}
        for total in (60, 120):
            tracemalloc.start()
            cdp_case_run(inst, 0.9, total_iters=total, hold_iters=total // 2,
                         settle_iters=total // 6)
            peaks[total] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[120] <= 1.2 * peaks[60], peaks


def test_run_memory_does_not_grow_with_iterations():
    # a stride-1 run without a sink holds its final row only, whatever its budget
    E = build_gaussian_ensemble(4, 16, seed=1)
    b = np.abs(E.apply_adjoint(random_lift(4, 2)))
    peaks = {}
    for iters in (2000, 20000):
        tracemalloc.start()
        run(E, b, "raar", ParameterSchedule.constant(0.9), random_lift(16, 3), iters, StoppingRule(fixed_budget=True))
        peaks[iters] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[20000] <= 1.2 * peaks[2000], peaks
