"""Command-line front end: config parsing, orchestration, artifact emission.

Subcommands: ``solve`` (single run), ``sweep`` (Gaussian success rates),
``cdp`` (coded-diffraction case suites), ``certify`` (fixed-point and
cross-section certificates on a saved state), ``gap`` (spectral gaps over
mask seeds).  Options come from flags, optionally seeded by a JSON config
file parsed as flags (flags override the file; unknown keys are rejected).

Exit codes: 0 success, 1 usage error, 2 solver non-convergence in strict
mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, artifacts, experiments
from .initializers import null_vector, random_lift
from .operators import build_cdp_ensemble, build_gaussian_ensemble, build_rpp, project_torus
from .solvers import ParameterSchedule, StoppingRule, finish, run

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


def _checked(typ, contract, ok):
    """An argparse type: convert with ``typ``, then reject values outside ``contract``."""

    def convert(text):
        value = typ(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {contract}, got {value}")
        return value

    convert.__name__ = typ.__name__  # argparse names it in "invalid int value"
    return convert


_BETA = _checked(float, "lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
_FRACTION = _checked(float, "lie in (0, 1)", lambda v: 0.0 < v < 1.0)
_POSITIVE = _checked(float, "lie in (0, inf)", lambda v: 0.0 < v < math.inf)
_RATIO = _checked(float, "lie in [1, inf)", lambda v: 1.0 <= v < math.inf)
_COUNT = _checked(int, "be a positive integer", lambda v: v >= 1)
_NONNEG = _checked(int, "be nonnegative", lambda v: v >= 0)

# (name, type, default, help); a bool option is a bare flag that defaults to False.
_COMMON = [
    ("out", str, "out", "output directory"),
    ("seed", int, 0, "base random seed"),
]

_OPTIONS = {
    "solve": _COMMON
    + [
        ("algo", str, "raar", "solver: raar | admm | drs"),
        ("beta", _BETA, 0.9, "relaxation parameter in (0, 1]"),
        ("rho", _POSITIVE, 0.25, "splitting penalty in (0, inf)"),
        ("ensemble", str, "gaussian", "measurement kind: gaussian | cdp"),
        ("n", _COUNT, 16, "object dimension (gaussian)"),
        ("N", _COUNT, 64, "measurement dimension (gaussian)"),
        ("grid", str, "16x16", "object grid rows x cols (cdp)"),
        ("masks", _COUNT, 2, "number of diffraction masks (cdp)"),
        ("init", str, "random", "initializer: random | null"),
        ("weak-fraction", _FRACTION, 0.5, "weak-set fraction of the spectral initializer"),
        ("max-iters", _NONNEG, 2000, "iteration budget"),
        ("residual-tol", float, 1e-10, "relative residual stopping tolerance"),
        ("deriv-tol", float, 1e-10, "dual-gradient stopping tolerance"),
        ("fixed-budget", bool, False, "disable stopping rules"),
        ("record-every", _COUNT, 1, "trace recording stride"),
        ("strict", bool, False, "exit 2 if the run does not converge"),
    ],
    "sweep": _COMMON
    + [
        ("full-grid", bool, False, "run the full ratio/parameter grid"),
        ("n", _COUNT, 100, "object dimension"),
        ("ratio", _RATIO, 4.0, "measurement ratio N/n (paired mode)"),
        ("beta", _FRACTION, 0.9, "relaxation value (paired mode)"),
        ("trials", _COUNT, 40, "trials per cell"),
        ("max-iters", _COUNT, 2000, "iteration budget per trial"),
        ("success-threshold", _POSITIVE, 1e-5, "relative residual defining success"),
    ],
    "cdp": _COMMON
    + [
        ("case", str, "a", "experiment case: a | b | c | d"),
        ("grid", str, "32x32", "phantom grid rows x cols"),
        ("noise-level", _FRACTION, 0.18, "target relative noise level (cases c, d)"),
        ("total-iters", _COUNT, 600, "iterations per path"),
        ("hold-iters", _COUNT, 300, "constant-parameter prefix length"),
        ("settle-iters", _NONNEG, experiments.TERMINAL_SETTLE_ITERS, "terminal hold at the final value"),
        ("weak-fraction", _FRACTION, 0.5, "weak-set fraction of the spectral initializer"),
    ],
    "certify": [
        ("out", str, "out", "output directory"),
        ("state", str, None, "state JSON produced by solve"),
        ("tol", _POSITIVE, 1e-8, "certificate tolerance (relative)"),
        ("cross-section", bool, False, "also compute the tangent Hessian certificate"),
    ],
    "gap": _COMMON
    + [
        ("grid", str, "8x8", "object grid rows x cols"),
        ("masks", _COUNT, 2, "number of diffraction masks"),
        ("seeds", _COUNT, 20, "number of mask seeds to test"),
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
        for flag, typ, default, help_text in opts:
            if typ is bool:
                p.add_argument(f"--{flag}", action="store_true", help=help_text)
            else:
                p.add_argument(f"--{flag}", type=typ, default=default, choices=_CHOICES.get(flag), help=help_text)
    return parser


def _config_flags(path, sub) -> list:
    """The flags a JSON config file stands for: ``"k": v`` is ``--k=v``, ``true`` a bare ``--k``.

    ``false`` and ``null`` stand for no flag, so the option keeps its default.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise UsageError("config file must hold a JSON object")
    is_bool = {name: typ is bool for name, typ, _d, _h in _OPTIONS[sub]}
    flags = []
    for key, value in file_values.items():
        if key == "subcommand":
            if value != sub:
                raise UsageError(f"config file is for subcommand {value!r}, not {sub!r}")
            continue
        if key not in is_bool:
            raise UsageError(f"unknown config key {key!r} for subcommand {sub!r}")
        if value is None or (value is False and is_bool[key]):
            continue
        if isinstance(value, bool) != is_bool[key] or isinstance(value, (list, dict)):
            kind = "true or false" if is_bool[key] else "a number or a string"
            raise UsageError(f"config file {path}: key {key!r} takes {kind}, got {json.dumps(value)}")
        flags.append(f"--{key}" if value is True else f"--{key}={value}")
    return flags


def parse_config(argv) -> RunConfig:
    """Resolve flags and optional config file into a RunConfig.

    The file's values are turned into flags and parsed ahead of the command
    line's, so flags override the file and the file gets the flags' checks.
    Unknown config-file keys are rejected.
    """
    argv = list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    sub = ns.subcommand
    if ns.config is not None:
        flags = _config_flags(ns.config, sub)
        try:
            ns = parser.parse_args([sub, *flags, *argv[argv.index(sub) + 1 :]])
        except UsageError as exc:
            raise UsageError(f"config file {ns.config}: {exc}") from exc
    return RunConfig(
        subcommand=sub,
        options={flag: getattr(ns, flag.replace("-", "_")) for flag, *_ in _OPTIONS[sub]},
        print_effective_config=ns.print_effective_config,
    )


def _parse_grid(text: str):
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise UsageError(f"grid must look like 32x32, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _execute_solve(cfg: RunConfig) -> int:
    o = cfg.options
    out = o["out"]
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
        w0,
        max_iters=o["max-iters"],
        stop=stop,
        record_every=o["record-every"],
    )
    artifacts.write_trace_csv(os.path.join(out, "trace.csv"), result.records)

    done = finish(E, b, algo, result, param)

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
        "aligned_error_vs_source": analysis.aligned_error(done.x, x0),
        "converged": converged,
        "certificate": done.certificate,
    }
    artifacts.write_json(os.path.join(out, "summary.json"), summary)
    artifacts.save_solver_state(
        os.path.join(out, "state.json"), E, b, done.lift, algo, param, result.final_record.k
    )
    if o["ensemble"] == "cdp":
        grid = _parse_grid(o["grid"])
        artifacts.write_pgm(
            os.path.join(out, "reconstruction_magnitude.pgm"),
            artifacts.magnitude_image(done.x, grid),
        )
        artifacts.write_pgm(
            os.path.join(out, "reconstruction_aligned_real.pgm"),
            artifacts.aligned_real_image(done.x, x0, grid),
        )
    if o["strict"] and not converged:
        return 2
    return 0


def _execute_sweep(cfg: RunConfig) -> int:
    o = cfg.options
    out = o["out"]
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
    out = o["out"]
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
    out = o["out"]
    if not o["state"]:
        raise UsageError("certify requires --state pointing to a solve state file")
    try:
        doc = artifacts.load_solver_state(o["state"])
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise UsageError(f"cannot load state file {o['state']}: {exc}") from exc
    E, b, w = doc["ensemble"], doc["b"], doc["w"]
    param = doc["param"]
    beta = param if doc["algo"] != "drs" else analysis.beta_from_rho(param)
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
    out = o["out"]
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
