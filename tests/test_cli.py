import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import saddle_raar
from saddle_raar.analysis import _RANGES, _checked_param
from saddle_raar.artifacts import load_solver_state
from saddle_raar.cli import _OPTIONS, RunConfig, UsageError, execute, main, parse_config

_MISSING = object()  # a state-file field the test deletes


class TestParsing:
    def test_solve_flags(self):
        cfg = parse_config(
            ["solve", "--algo", "raar", "--beta", "0.9", "--n", "16", "--N", "64", "--seed", "1"]
        )
        assert cfg.subcommand == "solve"
        assert cfg.options["algo"] == "raar"
        assert cfg.options["beta"] == 0.9
        assert cfg.options["n"] == 16
        assert cfg.options["N"] == 64
        assert cfg.options["seed"] == 1

    def test_beta_range_error_names_contract(self):
        with pytest.raises(UsageError, match=r"\(0, 1\]"):
            parse_config(["solve", "--beta", "1.5"])

    def test_rho_range_error(self):
        with pytest.raises(UsageError):
            parse_config(["solve", "--rho", "-2"])

    def test_file_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"beta": 0.8}))
        only_file = parse_config(["solve", "--config", str(cfg_file)])
        assert only_file.options["beta"] == 0.8
        overridden = parse_config(["solve", "--config", str(cfg_file), "--beta", "0.9"])
        assert overridden.options["beta"] == 0.9

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"betta": 0.8}))
        with pytest.raises(UsageError, match="betta"):
            parse_config(["solve", "--config", str(cfg_file)])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config(["solve", "--does-not-exist", "1"])

    def test_effective_config_round_trip(self, tmp_path):
        cfg = parse_config(["sweep", "--trials", "7", "--beta", "0.8"])
        dump = tmp_path / "eff.json"
        dump.write_text(cfg.to_json())
        again = parse_config(["sweep", "--config", str(dump)])
        assert cfg == again

    def test_config_subcommand_mismatch(self, tmp_path):
        cfg = parse_config(["sweep"])
        dump = tmp_path / "eff.json"
        dump.write_text(cfg.to_json())
        with pytest.raises(UsageError, match="for subcommand 'sweep', not 'solve'"):
            parse_config(["solve", "--config", str(dump)])

    def test_main_exit_codes_for_usage(self, capsys):
        assert main(["solve", "--beta", "2.0"]) == 1
        assert "0, 1]" in capsys.readouterr().err

    def test_config_values_are_coerced_and_checked(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"n": "12"}))
        assert parse_config(["solve", "--config", str(cfg_file)]).options["n"] == 12
        for doc, message in (({"n": "x"}, "argument --n: invalid int value: 'x'"),
                             ({"algo": "foo"}, "argument --algo: invalid choice: 'foo' (choose from 'raar', 'admm', 'drs')")):
            cfg_file.write_text(json.dumps(doc))
            assert main(["solve", "--config", str(cfg_file)]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"strict": "false"}, {"fixed-budget": "no"}, {"n": True}, {"n": False},
                                     {"grid": [16, 16]}])
    def test_config_values_must_suit_their_option_kind(self, tmp_path, capsys, doc):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert f"key {next(iter(doc))!r} takes" in err and str(cfg_file) in err

    def test_config_numbers_are_parsed_as_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"n": 12.7}))
        assert main(["solve", "--config", str(cfg_file)]) == 1
        assert "argument --n: invalid int value: '12.7'" in capsys.readouterr().err
        cfg_file.write_text(json.dumps({"strict": True, "fixed-budget": False, "rho": -2}))
        assert main(["solve", "--config", str(cfg_file)]) == 1
        assert "argument --rho: must lie in (0, inf), got -2.0" in capsys.readouterr().err

    def test_config_null_keeps_the_default(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"seed": None, "out": None, "strict": True}))
        cfg = parse_config(["solve", "--config", str(cfg_file)])
        assert cfg.options["seed"] == 0 and cfg.options["out"] == "out" and cfg.options["strict"]

    def test_config_with_null_seed_and_out_runs_reproducibly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        states = []
        for run in ("a", "b"):
            cfg_file = tmp_path / f"{run}.json"
            cfg_file.write_text(json.dumps({"seed": None, "n": 8, "N": 32, "out": run}))
            assert main(["solve", "--config", str(cfg_file)]) == 0
            states.append((tmp_path / run / "state.json").read_bytes())
        assert states[0] == states[1]
        (tmp_path / "c.json").write_text(json.dumps({"out": None, "n": 8, "N": 32}))
        assert main(["solve", "--config", str(tmp_path / "c.json")]) == 0
        assert (tmp_path / "out" / "state.json").read_bytes() == states[0]

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--ratio", "-1"], "--ratio"),
        (["sweep", "--ratio", "0.5", "--n", "4"], "--ratio"),
        (["sweep", "--ratio", "inf"], "--ratio"),
        (["solve", "--rho", "inf"], "--rho"),
        (["sweep", "--success-threshold", "0"], "--success-threshold"),
        (["certify", "--tol", "-1"], "--tol"),
        (["solve", "--residual-tol", "inf"], "--residual-tol"),
        (["solve", "--deriv-tol", "nan"], "--deriv-tol"),
    ])
    def test_numeric_ranges_are_checked_before_any_output(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"argument {flag}: must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("residual-tol", float("inf")), ("deriv-tol", float("nan")),
                                            ("residual-tol", "-inf")])
    def test_nonfinite_stopping_tolerance_in_a_config_file_is_rejected(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: value, "out": str(out)}))  # inf and nan as JSON's Infinity, NaN
        assert main(["solve", "--config", str(cfg_file)]) == 1
        assert f"argument --{key}: must lie in (-inf, inf), got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_finite_stopping_tolerances_keep_their_meaning(self, tmp_path):
        # a nonpositive deriv-tol switches that test off, and a zero residual-tol never fires
        cfg = parse_config(["solve", "--residual-tol", "0", "--deriv-tol", "-1"])
        assert (cfg.options["residual-tol"], cfg.options["deriv-tol"]) == (0.0, -1.0)
        out = tmp_path / "out"
        assert main(["solve", "--n", "4", "--N", "16", "--max-iters", "50", "--residual-tol", "0",
                     "--deriv-tol", "-1", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["stop_reason"], summary["iterations"], summary["converged"]) == ("max_iters", 50, False)

    @pytest.mark.parametrize("sub", ["solve", "sweep", "cdp", "gap"])
    def test_negative_seed_is_rejected_before_any_output(self, tmp_path, capsys, sub):
        out = tmp_path / "out"
        assert main([sub, "--seed", "-1", "--out", str(out)]) == 1
        assert "argument --seed: must be nonnegative, got -1" in capsys.readouterr().err
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"seed": -1, "out": str(out)}))
        assert main([sub, "--config", str(cfg_file)]) == 1
        assert "argument --seed: must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_print_effective_config(self, capsys):
        assert main(["solve", "--beta", "0.7", "--print-effective-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subcommand"] == "solve"
        assert doc["beta"] == 0.7


# One valid value of each option, by name; sweep's beta range (0, 1) also suits solve's (0, 1].
_WORD = st.text("abcxyz0189._", min_size=1, max_size=6)
_FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
_COUNT = st.integers(1, 10**6)
_VALID = {
    "out": _WORD, "grid": _WORD, "state": _WORD, "seed": st.integers(0, 2**64),
    "beta": _FRACTION, "weak-fraction": _FRACTION, "noise-level": _FRACTION,
    "rho": _POSITIVE, "residual-tol": _POSITIVE, "deriv-tol": _POSITIVE,
    "success-threshold": _POSITIVE, "tol": _POSITIVE, "ratio": st.floats(1.0, 1e6),
    "n": _COUNT, "N": _COUNT, "masks": _COUNT, "record-every": _COUNT, "trials": _COUNT,
    "total-iters": _COUNT, "hold-iters": _COUNT, "seeds": _COUNT,
    "max-iters": st.integers(1, 10**6), "settle-iters": st.integers(0, 10**6),
}


def _drawn_options(sub):
    return st.fixed_dictionaries({}, optional={
        name: st.booleans() if typ is bool else st.sampled_from(typ) if isinstance(typ, tuple) else _VALID[name]
        for name, typ, _d, _h in _OPTIONS[sub]
    })


def _as_flags(options):
    flags = []
    for name, value in options.items():
        if value is True:
            flags.append(f"--{name}")
        elif value is not False:
            flags += [f"--{name}", str(value)]
    return flags


@pytest.mark.parametrize("sub", list(_OPTIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_file_resolves_like_the_flags(sub, data):
    options = data.draw(_drawn_options(sub))
    from_flags = parse_config([sub, *_as_flags(options)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(options, fh)
        assert parse_config([sub, "--config", path]) == from_flags
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(from_flags.to_json())
        again = parse_config([sub, "--config", path])
    assert again == from_flags and again.to_json() == from_flags.to_json()


# (subcommand, flag, form whose step parameter the flag sets); sweep's beta is paired with a penalty
_PARAM_FLAGS = [("solve", "--beta", "raar"), ("sweep", "--beta", "admm"), ("solve", "--rho", "drs")]


@pytest.mark.parametrize("sub, flag, algo", _PARAM_FLAGS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(value=st.floats())
@example(value=0.0)
@example(value=-0.0)
@example(value=5e-324)
@example(value=math.nextafter(1.0, 0.0))
@example(value=1.0)
@example(value=math.nextafter(1.0, 2.0))
@example(value=sys.float_info.max)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=math.nan)
def test_a_step_parameter_flag_accepts_exactly_its_forms_range(sub, flag, algo, value):
    try:
        _checked_param(algo, value)
        accepted = True
    except ValueError:
        accepted = False
    try:
        parsed = parse_config([sub, f"{flag}={value!r}"]).options[flag[2:]]
    except UsageError as exc:
        assert not accepted
        assert str(exc) == f"argument {flag}: must lie in {_RANGES[algo][1]}, got {value}"
    else:
        assert accepted and parsed == value


class TestSolveCommand:
    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["solve", "--algo", "raar", "--beta", "0.9", "--n", "16", "--N", "64",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,beta_or_rho,residual,deriv_norm,t_ratio,objective_F,wall_ns"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algo"] == "raar"
        assert summary["converged"]
        assert summary["final_residual"] <= 1e-9
        doc = load_solver_state(out / "state.json")
        assert doc["param"] == 0.9

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["solve", "--beta", "0.9", "--n", "16", "--N", "64", "--seed", "1",
             "--max-iters", "3", "--strict", "--out", str(out)]
        )
        assert code == 2

    def test_admm_solve(self, tmp_path):
        out = tmp_path / "admm"
        code = main(
            ["solve", "--algo", "admm", "--beta", "0.85", "--n", "16", "--N", "64",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        assert summary["certificate"]["certified"]

    def test_admm_rejects_unit_beta(self, tmp_path, capsys):
        assert main(["solve", "--algo", "admm", "--beta", "1", "--out", str(tmp_path / "s")]) == 1
        assert "--beta must lie in (0, 1) for admm" in capsys.readouterr().err

    def test_admm_rejects_unit_beta_before_building_the_ensemble(self, tmp_path, capsys, monkeypatch):
        import saddle_raar.experiments as experiments

        monkeypatch.setattr(experiments, "build_gaussian_ensemble", lambda *a, **kw: pytest.fail("ensemble built"))
        assert main(["solve", "--algo", "admm", "--beta", "1", "--out", str(tmp_path / "s")]) == 1
        assert "error: --beta must lie in (0, 1) for admm, got 1.0" in capsys.readouterr().err

    def test_drs_solve(self, tmp_path):
        out = tmp_path / "drs"
        code = main(
            ["solve", "--algo", "drs", "--rho", "0.25", "--n", "16", "--N", "64",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        res = summary["certificate"]["fixed_point_residuals"]
        assert max(res.values()) <= 1e-6

    def test_cdp_solve_writes_images(self, tmp_path):
        out = tmp_path / "img"
        code = main(
            ["solve", "--ensemble", "cdp", "--grid", "16x16", "--init", "null",
             "--beta", "0.9", "--seed", "3", "--max-iters", "400", "--out", str(out)]
        )
        assert code == 0
        assert (out / "reconstruction_magnitude.pgm").read_bytes().startswith(b"P5\n16 16\n")
        assert (out / "reconstruction_aligned_real.pgm").exists()


class TestCertifyCommand:
    def test_summary_keys(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(
            ["solve", "--beta", "0.9", "--n", "16", "--N", "64", "--seed", "1",
             "--out", str(run_dir)]
        ) == 0
        out = tmp_path / "cert"
        code = main(
            ["certify", "--state", str(run_dir / "state.json"), "--cross-section",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        for key in ("phase_residual", "hessian_min_eig", "beta_interval"):
            assert key in doc
        assert doc["certified"]
        assert doc["hessian_min_eig"] is not None
        # the certificate's own summary, as solve writes it under "certificate"
        solve_cert = json.loads((run_dir / "summary.json").read_text())["certificate"]
        assert set(doc) == set(solve_cert) | {"hessian_min_eig", "cross_section"}
        assert {"tol", "c_imag_norm"} <= set(doc)
        assert doc["tol"] == 1e-8

    def test_missing_state_is_usage_error(self, tmp_path):
        assert main(["certify", "--out", str(tmp_path)]) == 1
        assert main(["certify", "--state", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("field, value", [
        ("n", 4.0), ("param", "0.9"), ("algo", "gd"),
        pytest.param("w_re_im", None, id="old-w_re_im-file"),
        pytest.param("w", _MISSING, id="missing-state-field"),
        pytest.param("w", [0.0] * 30, id="state-field-of-wrong-length"),
        pytest.param("w", 1.0, id="state-field-not-a-list"),
        pytest.param("w", "0.0", id="state-field-a-string"),
        pytest.param("ensemble", None, id="ensemble-null"),
        pytest.param("padded", [32], id="cdp-padded-of-one-entry"),
    ])
    def test_state_with_a_bad_field_is_usage_error(self, tmp_path, capsys, field, value):
        from saddle_raar import RaarState, build_cdp_ensemble, build_gaussian_ensemble, random_lift
        from saddle_raar.artifacts import save_solver_state

        E = build_cdp_ensemble((4, 4), seed=0) if field == "padded" else build_gaussian_ensemble(4, 16, seed=0)
        path = tmp_path / "state.json"
        save_solver_state(path, E, [1.0] * E.N, RaarState(w=random_lift(E.N, 0)), "raar", 0.9, 0)
        doc = json.loads(path.read_text())
        target = {"n": doc["ensemble"], "padded": doc["ensemble"], "w": doc["state"]}.get(field, doc)
        if field == "w_re_im":  # the layout that kept one lift instead of the state's fields
            doc["w_re_im"] = doc.pop("state")["w"]
        elif value is _MISSING:
            del target[field]
        else:
            target[field] = value
        path.write_text(json.dumps(doc))
        assert main(["certify", "--state", str(path), "--out", str(tmp_path / "cert")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot load state file {path}: ")
        assert not (tmp_path / "cert").exists()

    @pytest.mark.parametrize("algo, param, contract", [
        ("raar", 7.0, "beta must lie in (0, 1]"), ("raar", -0.5, "beta must lie in (0, 1]"),
        ("raar", math.nan, "beta must lie in (0, 1]"), ("admm", 1.0, "beta must lie in (0, 1)"),
        ("admm", 0.0, "beta must lie in (0, 1)"), ("drs", 0.0, "rho must lie in (0, inf)"),
        ("drs", -2.0, "rho must lie in (0, inf)"), ("drs", math.inf, "rho must lie in (0, inf)"),
        ("drs", math.nan, "rho must lie in (0, inf)"),
    ])
    def test_param_outside_its_forms_range_is_rejected(self, tmp_path, capsys, monkeypatch, algo, param, contract):
        from saddle_raar import GaussianEnsemble, build_gaussian_ensemble, initial_state, random_lift
        from saddle_raar.artifacts import save_solver_state

        E = build_gaussian_ensemble(4, 16, seed=0)
        b = [1.0] * E.N
        path = tmp_path / "state.json"
        save_solver_state(path, E, b, initial_state(E, b, algo, random_lift(E.N, 0)), algo, param, 0)

        def no_operator(*args):
            raise AssertionError("an operator was applied")

        for name in ("apply", "apply_adjoint", "project_range", "project_complement"):
            monkeypatch.setattr(GaussianEnsemble, name, no_operator)
        for flags in ([], ["--cross-section"]):
            assert main(["certify", "--state", str(path), *flags, "--out", str(tmp_path / "cert")]) == 1
            assert capsys.readouterr().err == f"error: {contract}, got {param}\n"
            assert not (tmp_path / "cert").exists()

    @pytest.mark.parametrize("algo", ["raar", "admm", "drs"])
    def test_certify_reads_a_state_through_the_form_that_wrote_it(self, tmp_path, algo):
        from saddle_raar.artifacts import _ArrayEncoder
        from saddle_raar.solvers import curvature

        run_dir, out = tmp_path / "run", tmp_path / "cert"
        assert main(["solve", "--algo", algo, "--n", "16", "--N", "64", "--seed", "1", "--out", str(run_dir)]) == 0
        assert main(["certify", "--state", str(run_dir / "state.json"), "--cross-section", "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        cross, min_eig = doc.pop("cross_section"), doc.pop("hessian_min_eig")
        # the certificate solve wrote for this state, and the form's own curvature called directly
        assert doc == json.loads((run_dir / "summary.json").read_text())["certificate"]
        state = load_solver_state(run_dir / "state.json")
        direct = curvature(state["ensemble"], state["b"], algo, state["state"], state["param"])
        assert json.dumps(cross, sort_keys=True) == json.dumps(direct.summary(), sort_keys=True, cls=_ArrayEncoder)
        assert min_eig == direct.hessian_min_eig
        assert (cross["rho"] == 0.25) if algo == "drs" else (cross["beta"] == 0.9)

    def test_certify_tol_decides_a_drs_verdict(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["solve", "--algo", "drs", "--n", "16", "--N", "64", "--seed", "1", "--out", str(run_dir)]) == 0
        residuals = json.loads((run_dir / "summary.json").read_text())["certificate"]["fixed_point_residuals"]
        met = max(residuals.values()) / float(np.linalg.norm(load_solver_state(run_dir / "state.json")["b"]))
        for tol, certified in ((1e-30, False), (2.0 * met, True)):
            out = tmp_path / f"cert-{tol}"
            assert main(["certify", "--state", str(run_dir / "state.json"), "--tol", repr(tol), "--out", str(out)]) == 0
            doc = json.loads((out / "summary.json").read_text())
            assert doc["certified"] is certified
            assert doc["fixed_point_residuals"] == residuals


class TestGapCommand:
    def test_gap_values_below_one(self, tmp_path):
        out = tmp_path / "gap"
        code = main(["gap", "--grid", "8x8", "--masks", "2", "--seeds", "20", "--out", str(out)])
        assert code == 0
        lines = (out / "gap.csv").read_text().splitlines()
        assert lines[0] == "seed,lambda2,sigma_top,hypothesis_met"
        assert len(lines) == 21
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v < 1.0 for v in values)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_below_one"]

    @pytest.mark.parametrize("nan_seed", [0, 1, 2])
    def test_an_unconverged_seed_certifies_nothing(self, tmp_path, monkeypatch, nan_seed):
        # an unconverged matrix-free gap is NaN: it reaches the max and min wherever it falls
        from saddle_raar import analysis

        gap = analysis.spectral_gap
        calls = []

        def gap_with_a_nan(*args, **kwargs):
            calls.append(None)
            result = gap(*args, **kwargs)
            if len(calls) - 1 == nan_seed:
                result = dataclasses.replace(result, lambda2=math.nan, sigma_top=math.nan, converged=False)
            return result

        monkeypatch.setattr(analysis, "spectral_gap", gap_with_a_nan)
        assert main(["gap", "--grid", "8x8", "--seeds", "3", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert math.isnan(summary["lambda2_max"]) and math.isnan(summary["lambda2_min"])
        assert summary["all_below_one"] is False
        assert (tmp_path / "gap.csv").read_text().splitlines()[1 + nan_seed].split(",")[1] == "nan"


class TestSweepCommand:
    def test_paired_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--n", "20", "--ratio", "4.0", "--beta", "0.9", "--trials", "3",
             "--max-iters", "600", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "ratio,param,algo,success_rate"
        assert len(lines) == 3
        detail = json.loads((out / "sweep.json").read_text())
        assert {c["algo"] for c in detail["cells"]} == {"raar", "drs"}

    def test_paired_sweep_rejects_unit_beta_before_any_output(self, tmp_path, capsys):
        # the paired penalty rho = (1 - beta)/beta needs beta < 1
        out = tmp_path / "sweep"
        assert main(["sweep", "--beta", "1", "--out", str(out)]) == 1
        assert "argument --beta: must lie in (0, 1), got 1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_full_grid_sweep_cells(self, tmp_path):
        from saddle_raar.experiments import BETA_GRID, RATIO_GRID, RHO_GRID

        out = tmp_path / "sweep"
        assert main(["sweep", "--full-grid", "--n", "4", "--trials", "1", "--max-iters", "50",
                     "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 100
        cells = json.loads((out / "sweep.json").read_text())["cells"]
        expected = [(algo, ratio, param) for algo, grid in (("drs", RHO_GRID), ("raar", BETA_GRID))
                    for ratio in sorted(RATIO_GRID) for param in sorted(grid)]
        assert [(c["algo"], c["ratio"], c["param"]) for c in cells] == expected


class TestCdpCommand:
    def test_small_case_a(self, tmp_path):
        out = tmp_path / "cdp"
        code = main(
            ["cdp", "--case", "a", "--grid", "16x16", "--seed", "1",
             "--total-iters", "80", "--hold-iters", "40", "--settle-iters", "10",
             "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["paths"]) == 5
        assert summary["noise"] is None
        assert (out / "phantom_magnitude.pgm").exists()
        assert (out / "init_magnitude.pgm").exists()
        assert (out / "init_aligned_real.pgm").exists()
        for start in ("0p95", "0p90", "0p80", "0p70", "0p60"):
            assert (out / f"trace_beta{start}.csv").exists()
            assert (out / f"snapshot_beta{start}.pgm").exists()
            assert (out / f"snapshot_beta{start}_magnitude.pgm").exists()
            assert (out / f"final_beta{start}.pgm").exists()
            assert (out / f"final_beta{start}_magnitude.pgm").exists()

    def test_noisy_case_reports_its_noise(self, tmp_path):
        out = tmp_path / "cdp"
        assert main(["cdp", "--case", "c", "--grid", "16x16", "--total-iters", "20", "--hold-iters", "10",
                     "--settle-iters", "5", "--out", str(out)]) == 0
        noise = json.loads((out / "summary.json").read_text())["noise"]
        assert set(noise) == {"kappa", "realized_level", "target_level"}
        assert noise["target_level"] == 0.18
        assert noise["realized_level"] == pytest.approx(0.18, rel=0.05)

    def test_grid_parse_error(self):
        assert main(["cdp", "--grid", "banana"]) == 1


def test_execute_rejects_bad_dims():
    cfg = parse_config(["solve", "--n", "16", "--N", "8"])
    with pytest.raises(UsageError):
        execute(cfg)


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "admm", "--beta", "1"],
    ["solve", "--n", "16", "--N", "8"],
    ["cdp", "--grid", "0x0"],
])
def test_rejected_run_creates_nothing(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_outputs_take_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        for name, argv in (("solve", ["solve", "--n", "8", "--N", "32", "--max-iters", "50"]),
                           ("solve-cdp", ["solve", "--ensemble", "cdp", "--grid", "16x16", "--max-iters", "20"]),
                           ("cdp", ["cdp", "--case", "a", "--grid", "16x16", "--total-iters", "6", "--hold-iters", "3",
                                    "--settle-iters", "1"])):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
    finally:
        os.umask(old)
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert {p.name for p in files} >= {"trace.csv", "summary.json", "state.json", "reconstruction_magnitude.pgm",
                                        "trace_beta0p95.csv", "final_beta0p60.pgm", "init_aligned_real.pgm"}
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in files} == {p.name: "0o644" for p in files}


def test_runconfig_json_shape():
    cfg = parse_config(["gap"])
    doc = json.loads(cfg.to_json())
    assert doc["subcommand"] == "gap"
    assert "seeds" in doc
    assert isinstance(cfg, RunConfig)


def test_domain_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--ensemble", "cdp", "--grid", "16x16", "--masks", "1",
                 "--out", str(tmp_path)]) == 1
    assert "mask" in capsys.readouterr().err


_SCIPY_PROBE = """
import sys
from saddle_raar import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
for name, argv in [
    ("raar", ["solve", "--algo", "raar", "--n", "16", "--N", "64"]),
    ("drs", ["solve", "--algo", "drs", "--n", "16", "--N", "64"]),
    ("cdp", ["cdp", "--case", "a", "--grid", "16x16", "--total-iters", "20", "--hold-iters", "10",
             "--settle-iters", "5"]),
    ("gap", ["gap", "--grid", "8x8", "--seeds", "2"]),
]:
    assert cli.main(argv + ["--out", f"{out}/{name}"]) == 0, name
    assert scipy_modules() == [], (name, scipy_modules())
assert cli.main(["certify", "--state", f"{out}/raar/state.json", "--cross-section", "--out", f"{out}/cert"]) == 0
assert "scipy.linalg" in scipy_modules()
"""


def test_only_the_eigen_solves_load_scipy(tmp_path):
    # a fresh interpreter, so that no other test has loaded scipy yet
    src = os.path.dirname(os.path.dirname(os.path.abspath(saddle_raar.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
