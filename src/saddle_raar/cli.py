"""Command-line front end: config parsing, orchestration, artifact emission.

Subcommands: ``solve`` (single run), ``sweep`` (Gaussian success rates),
``cdp`` (coded-diffraction case suites), ``certify`` (fixed-point and
cross-section certificates on a saved state), ``gap`` (spectral gaps over
mask seeds).  Options come from flags, optionally seeded by a JSON config
file (flags override the file; unknown file keys are rejected).

Exit codes: 0 success, 1 usage error, 2 solver non-convergence in strict
mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, artifacts, experiments
from .initializers import null_vector, random_lift
from .operators import build_cdp_ensemble, build_gaussian_ensemble, build_rpp, project_torus
from .solvers import (
    ParameterSchedule,
    StoppingRule,
    beta_from_rho,
    drs_fixed_point_residuals,
    initial_state,
    reconstruct,
    run,
)

__all__ = ["RunConfig", "UsageError", "parse_config", "execute", "main"]


class UsageError(ValueError):
    """Bad flags, bad config file, or out-of-range values (exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: subcommand plus a flat option mapping."""

    subcommand: str
    options: dict
    print_effective_config: bool = field(compare=False, default=False)

    def to_json(self) -> str:
        doc = {"subcommand": self.subcommand, **self.options}
        return json.dumps(doc, indent=2, sort_keys=True)


def _check_beta(v):
    if not 0.0 < v <= 1.0:
        raise UsageError(f"--beta must lie in (0, 1], got {v}")


def _check_rho(v):
    if v <= 0.0:
        raise UsageError(f"--rho must lie in (0, inf), got {v}")


def _check_positive_int(flag):
    def check(v):
        if v < 1:
            raise UsageError(f"--{flag} must be a positive integer, got {v}")

    return check


def _check_fraction(flag):
    def check(v):
        if not 0.0 < v < 1.0:
            raise UsageError(f"--{flag} must lie in (0, 1), got {v}")

    return check


def _check_nonneg(flag):
    def check(v):
        if v < 0:
            raise UsageError(f"--{flag} must be nonnegative, got {v}")

    return check


# (name, type, default, help, validator-or-None); booleans are flags with
# None default so file/flag precedence can be resolved.
_COMMON = [
    ("out", str, "out", "output directory", None),
    ("seed", int, 0, "base random seed", None),
]

_OPTIONS = {
    "solve": _COMMON
    + [
        ("algo", str, "raar", "solver: raar | admm | drs", None),
        ("beta", float, 0.9, "relaxation parameter in (0, 1]", _check_beta),
        ("rho", float, 0.25, "splitting penalty in (0, inf)", _check_rho),
        ("ensemble", str, "gaussian", "measurement kind: gaussian | cdp", None),
        ("n", int, 16, "object dimension (gaussian)", _check_positive_int("n")),
        ("N", int, 64, "measurement dimension (gaussian)", _check_positive_int("N")),
        ("grid", str, "16x16", "object grid rows x cols (cdp)", None),
        ("masks", int, 2, "number of diffraction masks (cdp)", _check_positive_int("masks")),
        ("init", str, "random", "initializer: random | null", None),
        ("weak-fraction", float, 0.5, "weak-set fraction of the spectral initializer", _check_fraction("weak-fraction")),
        ("max-iters", int, 2000, "iteration budget", _check_nonneg("max-iters")),
        ("residual-tol", float, 1e-10, "relative residual stopping tolerance", None),
        ("deriv-tol", float, 1e-10, "dual-gradient stopping tolerance", None),
        ("fixed-budget", bool, False, "disable stopping rules", None),
        ("record-every", int, 1, "trace recording stride", _check_positive_int("record-every")),
        ("strict", bool, False, "exit 2 if the run does not converge", None),
    ],
    "sweep": _COMMON
    + [
        ("full-grid", bool, False, "run the full ratio/parameter grid", None),
        ("n", int, 100, "object dimension", _check_positive_int("n")),
        ("ratio", float, 4.0, "measurement ratio N/n (paired mode)", None),
        ("beta", float, 0.9, "relaxation value (paired mode)", _check_beta),
        ("trials", int, 40, "trials per cell", _check_positive_int("trials")),
        ("max-iters", int, 2000, "iteration budget per trial", _check_positive_int("max-iters")),
        ("success-threshold", float, 1e-5, "relative residual defining success", None),
    ],
    "cdp": _COMMON
    + [
        ("case", str, "a", "experiment case: a | b | c | d", None),
        ("grid", str, "32x32", "phantom grid rows x cols", None),
        ("noise-level", float, 0.18, "target relative noise level (cases c, d)", _check_fraction("noise-level")),
        ("total-iters", int, 600, "iterations per path", _check_positive_int("total-iters")),
        ("hold-iters", int, 300, "constant-parameter prefix length", _check_positive_int("hold-iters")),
        ("settle-iters", int, experiments.TERMINAL_SETTLE_ITERS, "terminal hold at the final value", _check_nonneg("settle-iters")),
        ("weak-fraction", float, 0.5, "weak-set fraction of the spectral initializer", _check_fraction("weak-fraction")),
    ],
    "certify": [
        ("out", str, "out", "output directory", None),
        ("state", str, None, "state JSON produced by solve", None),
        ("tol", float, 1e-8, "certificate tolerance (relative)", None),
        ("cross-section", bool, False, "also compute the tangent Hessian certificate", None),
    ],
    "gap": _COMMON
    + [
        ("grid", str, "8x8", "object grid rows x cols", None),
        ("masks", int, 2, "number of diffraction masks", _check_positive_int("masks")),
        ("seeds", int, 20, "number of mask seeds to test", _check_positive_int("seeds")),
    ],
}

_CHOICES = {
    "algo": ("raar", "admm", "drs"),
    "ensemble": ("gaussian", "cdp"),
    "init": ("random", "null"),
    "case": ("a", "b", "c", "d"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="saddle-raar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in _OPTIONS.items():
        p = sub.add_parser(name, add_help=True)
        p.error = parser.error
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument(
            "--print-effective-config",
            action="store_true",
            default=False,
            help="print the resolved configuration as JSON and exit",
        )
        for flag, typ, _default, help_text, _check in opts:
            kwargs = {"help": help_text, "default": None}
            if typ is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs["type"] = typ
                if flag in _CHOICES:
                    kwargs["choices"] = _CHOICES[flag]
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), **kwargs)
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve flags and optional config file into a RunConfig.

    Precedence: command-line flags over config-file values over defaults.
    Unknown config-file keys are rejected.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    sub = ns.subcommand
    opts = _OPTIONS[sub]
    resolved = {flag: default for flag, _t, default, _h, _c in opts}

    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        known = {flag for flag, *_ in opts}
        for key, value in file_values.items():
            if key == "subcommand":
                if value != sub:
                    raise UsageError(f"config file is for subcommand {value!r}, not {sub!r}")
                continue
            if key not in known:
                raise UsageError(f"unknown config key {key!r} for subcommand {sub!r}")
            resolved[key] = value

    for flag, typ, _default, _help, _check in opts:
        flag_value = getattr(ns, flag.replace("-", "_"))
        if typ is bool:
            if flag_value:
                resolved[flag] = True
            resolved[flag] = bool(resolved[flag])
        elif flag_value is not None:
            resolved[flag] = flag_value

    for flag, typ, _default, _help, check in opts:
        value = resolved[flag]
        if value is None:
            continue
        if typ is not bool and not isinstance(value, typ):
            try:
                resolved[flag] = typ(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"--{flag} expects {typ.__name__}, got {value!r}") from exc
        if flag in _CHOICES and resolved[flag] not in _CHOICES[flag]:
            raise UsageError(f"--{flag} must be one of {_CHOICES[flag]}, got {resolved[flag]!r}")
        if check is not None:
            check(resolved[flag])

    return RunConfig(
        subcommand=sub,
        options=resolved,
        print_effective_config=bool(ns.print_effective_config),
    )


def _parse_grid(text: str):
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise UsageError(f"grid must look like 32x32, got {text!r}") from exc


def _outdir(cfg) -> str:
    path = cfg.options["out"]
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _execute_solve(cfg: RunConfig) -> int:
    o = cfg.options
    out = _outdir(cfg)
    seed = o["seed"]
    seeds = np.random.SeedSequence(seed).generate_state(4)
    if o["ensemble"] == "gaussian":
        if o["N"] < o["n"]:
            raise UsageError(f"need N >= n, got n={o['n']}, N={o['N']}")
        E = build_gaussian_ensemble(o["n"], o["N"], seed=int(seeds[0]))
        rng = np.random.default_rng(int(seeds[1]))
        x0 = rng.standard_normal(E.n) + 1j * rng.standard_normal(E.n)
    else:
        grid = _parse_grid(o["grid"])
        E = build_cdp_ensemble(grid, seed=int(seeds[0]), n_masks=o["masks"])
        x0 = build_rpp(grid, seed=int(seeds[1])).values
    b = np.abs(E.apply_adjoint(x0))

    algo = o["algo"]
    param = o["rho"] if algo == "drs" else o["beta"]
    if algo == "admm" and not 0.0 < o["beta"] < 1.0:
        raise UsageError(f"--beta must lie in (0, 1) for admm, got {o['beta']}")

    if o["init"] == "null":
        nv = null_vector(E, b, weak_fraction=o["weak-fraction"], seed=int(seeds[2]))
        w0 = E.apply_adjoint(nv.x * np.linalg.norm(b))
    else:
        w0 = random_lift(E.N, int(seeds[2]))
    init = initial_state(E, b, algo, w0, param)

    stop = StoppingRule(
        residual_tol=o["residual-tol"],
        deriv_tol=o["deriv-tol"],
        fixed_budget=o["fixed-budget"],
    )
    result = run(
        E,
        b,
        algo,
        ParameterSchedule.constant(param),
        init,
        max_iters=o["max-iters"],
        stop=stop,
        record_every=o["record-every"],
    )
    artifacts.write_trace_csv(os.path.join(out, "trace.csv"), result.records)

    if algo == "drs":
        x = reconstruct(E, result.z, result.lam, param)
        w_final = result.z + result.lam / param
        resids = drs_fixed_point_residuals(E, b, result.state)
        cert_doc = {
            "fixed_point_residuals": {
                "range_dual": resids[0],
                "complement_primal": resids[1],
                "torus_gap": resids[2],
            }
        }
    else:
        w_final = result.state.w if algo == "raar" else result.state.lift
        z = project_torus(w_final, b)
        x = reconstruct(E, z, w_final - z)
        cert = analysis.certify_fixed_point(E, b, w_final, min(param, 1.0 - 1e-12))
        cert_doc = cert.summary()

    converged = result.stop_reason in ("residual", "deriv_norm")
    summary = {
        "algo": algo,
        "param": param,
        "iterations": result.final_record.k,
        "stop_reason": result.stop_reason,
        "final_residual": result.final_record.residual,
        "final_deriv_norm": result.final_record.deriv_norm,
        "final_t_ratio": result.final_record.t_ratio,
        "objective": result.final_record.objective,
        "aligned_error_vs_source": analysis.aligned_error(x, x0),
        "converged": converged,
        "certificate": cert_doc,
    }
    artifacts.write_json(os.path.join(out, "summary.json"), summary)
    artifacts.save_solver_state(
        os.path.join(out, "state.json"), E, b, w_final, algo, param, result.final_record.k
    )
    if o["ensemble"] == "cdp":
        grid = _parse_grid(o["grid"])
        artifacts.write_pgm(
            os.path.join(out, "reconstruction_magnitude.pgm"),
            artifacts.magnitude_image(x, grid),
        )
        artifacts.write_pgm(
            os.path.join(out, "reconstruction_aligned_real.pgm"),
            artifacts.aligned_real_image(x, x0, grid),
        )
    if o["strict"] and not converged:
        return 2
    return 0


def _execute_sweep(cfg: RunConfig) -> int:
    o = cfg.options
    out = _outdir(cfg)
    if o["full-grid"]:
        sweep = experiments.gaussian_success_sweep(
            n=o["n"],
            trials=o["trials"],
            seed=o["seed"],
            max_iters=o["max-iters"],
            success_threshold=o["success-threshold"],
        )
    else:
        sweep = experiments.paired_success_cells(
            n=o["n"],
            ratio=o["ratio"],
            beta=o["beta"],
            trials=o["trials"],
            seed=o["seed"],
            max_iters=o["max-iters"],
            success_threshold=o["success-threshold"],
        )
    artifacts.write_csv(
        os.path.join(out, "sweep.csv"),
        ("ratio", "param", "algo", "success_rate"),
        sweep.to_rows(),
    )
    artifacts.write_json(os.path.join(out, "sweep.json"), sweep.to_json_dict())
    return 0


def _execute_cdp(cfg: RunConfig) -> int:
    o = cfg.options
    out = _outdir(cfg)
    grid = _parse_grid(o["grid"])
    suite = experiments.cdp_case_suite(
        o["case"],
        grid=grid,
        seed=o["seed"],
        total_iters=o["total-iters"],
        hold_iters=o["hold-iters"],
        settle_iters=o["settle-iters"],
        noise_target=o["noise-level"],
        weak_fraction=o["weak-fraction"],
    )
    x0 = suite.instance.phantom.values
    artifacts.write_pgm(
        os.path.join(out, "phantom_magnitude.pgm"),
        artifacts.magnitude_image(x0, grid),
    )
    nv = suite.instance.null_init
    if nv is not None:
        # the spectral initializer the paths start from, for inspection
        artifacts.write_pgm(
            os.path.join(out, "init_magnitude.pgm"),
            artifacts.magnitude_image(nv.x, grid),
        )
        artifacts.write_pgm(
            os.path.join(out, "init_aligned_real.pgm"),
            artifacts.aligned_real_image(nv.x, x0, grid),
        )
    path_docs = []
    for p in suite.paths:
        tag = f"{p.beta_start:.2f}".replace(".", "p")
        artifacts.write_trace_csv(os.path.join(out, f"trace_beta{tag}.csv"), p.records)
        for stem, x in ((f"snapshot_beta{tag}", p.x_snapshot), (f"final_beta{tag}", p.x_final)):
            artifacts.write_pgm(os.path.join(out, f"{stem}.pgm"), artifacts.aligned_real_image(x, x0, grid))
            artifacts.write_pgm(os.path.join(out, f"{stem}_magnitude.pgm"), artifacts.magnitude_image(x, grid))
        path_docs.append(
            {
                "beta_start": p.beta_start,
                "final_residual": p.final_residual,
                "final_deriv_norm": p.final_deriv_norm,
                "aligned_error": p.aligned_error,
                "tail_t_ratio_positive": bool(np.all(p.tail_t_ratios > 0)),
            }
        )
    noise = suite.instance.noise
    summary = {
        "case": o["case"],
        "grid": list(grid),
        "seed": o["seed"],
        "noise": None
        if noise is None
        else {
            "kappa": noise.kappa,
            "realized_level": noise.realized_level,
            "target_level": noise.target_level,
        },
        "paths": path_docs,
        "pairwise_correlations": suite.correlations.tolist(),
        "min_pairwise_correlation": suite.pairwise_min_correlation(),
    }
    artifacts.write_json(os.path.join(out, "summary.json"), summary)
    return 0


def _execute_certify(cfg: RunConfig) -> int:
    o = cfg.options
    out = _outdir(cfg)
    if not o["state"]:
        raise UsageError("certify requires --state pointing to a solve state file")
    try:
        doc = artifacts.load_solver_state(o["state"])
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise UsageError(f"cannot load state file {o['state']}: {exc}") from exc
    E, b, w = doc["ensemble"], doc["b"], doc["w"]
    param = doc["param"]
    beta = param if doc["algo"] != "drs" else beta_from_rho(param)
    beta = min(max(beta, 1e-12), 1.0 - 1e-12)
    cert = analysis.certify_fixed_point(E, b, w, beta, tol=o["tol"])
    summary = cert.summary() | {"hessian_min_eig": None}
    if o["cross-section"]:
        z = project_torus(w, b)
        saddle = analysis.certify_cross_section_minimizer(E, z, w - z, beta=beta)
        summary |= {"hessian_min_eig": saddle.hessian_min_eig, "cross_section": saddle.summary()}
    artifacts.write_json(os.path.join(out, "summary.json"), summary)
    return 0


def _execute_gap(cfg: RunConfig) -> int:
    o = cfg.options
    out = _outdir(cfg)
    grid = _parse_grid(o["grid"])
    rng = np.random.default_rng(o["seed"])
    x0 = np.exp(2j * np.pi * rng.random(grid)).reshape(-1)
    rows = []
    lambdas = []
    for mask_seed in range(o["seeds"]):
        E = build_cdp_ensemble(grid, seed=mask_seed, n_masks=o["masks"])
        result = analysis.spectral_gap(E, x0, grid=grid)
        rows.append(
            (mask_seed, repr(result.lambda2), repr(result.sigma_top), result.hypothesis_met)
        )
        lambdas.append(result.lambda2)
    artifacts.write_csv(
        os.path.join(out, "gap.csv"), ("seed", "lambda2", "sigma_top", "hypothesis_met"), rows
    )
    artifacts.write_json(
        os.path.join(out, "summary.json"),
        {
            "grid": list(grid),
            "masks": o["masks"],
            "seeds": o["seeds"],
            "lambda2_max": max(lambdas),
            "lambda2_min": min(lambdas),
            "all_below_one": bool(max(lambdas) < 1.0),
        },
    )
    return 0


_RUNNERS = {
    "solve": _execute_solve,
    "sweep": _execute_sweep,
    "cdp": _execute_cdp,
    "certify": _execute_certify,
    "gap": _execute_gap,
}


def execute(cfg: RunConfig) -> int:
    """Run a resolved configuration; returns the process exit code."""
    return _RUNNERS[cfg.subcommand](cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.print_effective_config:
        print(cfg.to_json())
        return 0
    try:
        return execute(cfg)
    except ValueError as exc:
        # UsageError and the domain errors (dimension, mask, data) all
        # signal a bad invocation rather than a crash
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
