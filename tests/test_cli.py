import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_raar.artifacts import load_solver_state
from saddle_raar.cli import _CHOICES, _OPTIONS, RunConfig, UsageError, execute, main, parse_config


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
        with pytest.raises(UsageError):
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
    ])
    def test_numeric_ranges_are_checked_before_any_output(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"argument {flag}: must lie in" in capsys.readouterr().err
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
} | {name: st.sampled_from(values) for name, values in _CHOICES.items()}


def _drawn_options(sub):
    return st.fixed_dictionaries({}, optional={
        name: st.booleans() if typ is bool else _VALID[name] for name, typ, _d, _h in _OPTIONS[sub]
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
