"""Command-line runner: JSON config in, CSV/JSON artifacts out.

Commands: spectrum, solve-linear, solve-nonlinear, constants, sequence.
Config parsing is strict (unknown keys are fatal).  Exit codes: 0 on
success, 2 when a solvability/contraction hypothesis is violated, 1 on
any internal or configuration error.  Failures emit a machine-readable
JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog, sequences
from .errors import HypothesisError
from .kernels import stability_constant
from .linear import solve_linear
from .nonlinear import Nonlinearity, fixed_point_solve
from .sequences import SequenceKind, builtin_sequences, run_kernel_sequence, run_linear_sequence
from .spectral import (
    h2_norm,
    make_grid,
    read_gridfunction_csv,
    write_gridfunction_csv,
)
from .symbols import ShiftParams, symbol, symbol_modulus_sq


@dataclass(frozen=True)
class RunConfig:
    command: str
    options: dict
    output_dir: Path
    seed: int


class ConfigError(ValueError):
    pass


# key -> (type check, required)
_NUMBER = (int, float)


def _is_function_spec(v):
    if isinstance(v, str):
        return v.endswith(".csv")
    if isinstance(v, dict):
        return set(v) <= {"name", "params"} and "name" in v
    return False


_COMMON_GRID = {
    "a": ("number", True),
    "h": ("number", True),
    "L": ("number", True),
    "N": ("integer", True),
}

_CONFIG_KEYS = {
    "spectrum": {
        "a": ("number", True),
        "h": ("number", True),
        "p_min": ("number", True),
        "p_max": ("number", True),
        "num_points": ("integer", True),
    },
    "solve-linear": {
        **_COMMON_GRID,
        "f": ("function", True),
        "tol_orth": ("number", False),
    },
    "solve-nonlinear": {
        **_COMMON_GRID,
        "G": ("function", True),
        "F": ("nonlinearity", True),
        "tol_h2": ("number", False),
        "max_iter": ("integer", False),
        "v0": ("v0", False),
        "tol_orth": ("number", False),
    },
    "constants": {
        **_COMMON_GRID,
        "G": ("function", True),
        "tol_orth": ("number", False),
    },
    "sequence": {
        **_COMMON_GRID,
        "kind": ("kind", True),
        "base": ("function", True),
        "generator": ("generator", True),
        "M": ("integer", False),
        "epsilon": ("number", False),
        "F": ("nonlinearity", False),
        "tol_orth": ("number", False),
        "tol_h2": ("number", False),
    },
}


def _check_type(key, value, kind):
    if kind == "number":
        if not isinstance(value, _NUMBER) or isinstance(value, bool):
            raise ConfigError(f"field {key!r} must be a number, got {value!r}")
    elif kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    elif kind == "function":
        if not _is_function_spec(value):
            raise ConfigError(
                f"field {key!r} must be a builtin spec {{'name', 'params'?}} or a .csv path"
            )
    elif kind == "nonlinearity":
        if not isinstance(value, dict) or "name" not in value or not set(value) <= {
            "name",
            "params",
            "l",
            "k",
        }:
            raise ConfigError(
                f"field {key!r} must be {{'name', 'params'?, 'l'?, 'k'?}}, got {value!r}"
            )
    elif kind == "v0":
        if value != "zero" and not (isinstance(value, str) and value.endswith(".csv")):
            raise ConfigError(f"field {key!r} must be 'zero' or a .csv path")
    elif kind == "kind":
        if value not in ("rhs", "kernel"):
            raise ConfigError(f"field {key!r} must be 'rhs' or 'kernel'")
    elif kind == "generator":
        if not isinstance(value, dict) or "name" not in value or not set(value) <= {
            "name",
            "perturbation",
        }:
            raise ConfigError(f"field {key!r} must be {{'name', 'perturbation'?}}")


def _finite_float(text):
    # json.load accepts NaN, Infinity and overflowing literals such as 1e999
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def parse_config(path, command: str, output_dir, seed: int) -> RunConfig:
    """Load and strictly validate a command config."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno} column {exc.colno}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    keys = _CONFIG_KEYS[command]
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    for key, (kind, required) in keys.items():
        if key not in raw:
            if required:
                raise ConfigError(f"missing required field {key!r}")
            continue
        _check_type(key, raw[key], kind)
    if "h" in raw and raw["h"] == 0:
        raise ConfigError("field 'h' must be nonzero")
    if "a" in raw and raw["a"] <= 0:
        raise ConfigError("field 'a' must be positive")
    for key in ("tol_orth", "tol_h2", "epsilon", "max_iter"):
        if key in raw and raw[key] <= 0:
            raise ConfigError(f"field {key!r} must be positive")
    if command == "sequence":
        if raw["kind"] == "kernel" and "epsilon" not in raw:
            raise ConfigError("kernel sequences require 'epsilon'")
        if raw["kind"] == "kernel" and "F" not in raw:
            raise ConfigError("kernel sequences require 'F'")
    return RunConfig(command=command, options=raw, output_dir=Path(output_dir), seed=seed)


def _load_function(spec, grid):
    if isinstance(spec, str):
        path = Path(spec)
        if not path.exists():
            raise ConfigError(f"input CSV not found: {spec}")
        return read_gridfunction_csv(path, grid)
    return catalog.builtin_function(spec["name"], grid, spec.get("params"))


def _load_nonlinearity(spec, grid) -> Nonlinearity:
    F = catalog.builtin_nonlinearity(spec["name"], grid, spec.get("params"))
    if "l" in spec or "k" in spec:
        F = Nonlinearity(
            eval=F.eval,
            k=float(spec.get("k", F.k)),
            envelope=F.envelope,
            l=float(spec.get("l", F.l)),
        )
    return F


def _complex_pair(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _classification_json(cls):
    return {"kind": cls.kind.value, "n": cls.n, "alpha": cls.alpha}


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _kernel_report_json(rep):
    return {
        "finite": rep.finite,
        "N": rep.N,
        "sup1": rep.sup1,
        "sup2": rep.sup2,
        "Ghat_plus": _complex_pair(rep.Ghat_plus),
        "Ghat_minus": _complex_pair(rep.Ghat_minus),
        "l1_norm_G": rep.l1_norm_G,
        "weighted_l1_G": rep.weighted_l1_G,
        "tail_sup": rep.tail_sup,
        "classification": _classification_json(rep.classification),
    }


def _cmd_spectrum(cfg: RunConfig):
    o = cfg.options
    params = ShiftParams(float(o["a"]), float(o["h"]))
    if o["num_points"] < 2:
        raise ConfigError("num_points must be at least 2")
    p = np.linspace(float(o["p_min"]), float(o["p_max"]), o["num_points"])
    lam = symbol(p, params)
    mod2 = symbol_modulus_sq(p, params)
    out = cfg.output_dir / "spectrum.csv"
    with open(out, "w") as fh:
        fh.write("p,re_lambda,im_lambda,mod_sq\n")
        row = "{:.17g},{:.17g},{:.17g},{:.17g}\n".format
        fh.writelines(map(row, p.tolist(), lam.real.tolist(), lam.imag.tolist(), mod2.tolist()))
    print(f"spectrum: {o['num_points']} samples on [{o['p_min']}, {o['p_max']}] -> {out}")
    return 0


def _cmd_solve_linear(cfg: RunConfig):
    o = cfg.options
    params = ShiftParams(float(o["a"]), float(o["h"]))
    grid = make_grid(float(o["L"]), int(o["N"]))
    f = _load_function(o["f"], grid)
    tol = float(o.get("tol_orth", 1e-8))
    result = solve_linear(f, params, tol_orth=tol)
    write_gridfunction_csv(result.u, cfg.output_dir / "solution.csv")
    rep = result.solvability
    payload = {
        "command": "solve-linear",
        "seed": cfg.seed,
        "solvable": rep.solvable,
        "fhat_plus": _complex_pair(rep.fhat_plus),
        "fhat_minus": _complex_pair(rep.fhat_minus),
        "residual_l2": result.residual_l2,
        "h2_norm": result.h2_norm_u,
        "weighted_l1": rep.weighted_l1,
        "tolerance_used": rep.tolerance_used,
        "classification": _classification_json(rep.classification),
    }
    _write_json(payload, cfg.output_dir / "report.json")
    print(
        f"solve-linear: solvable={rep.solvable} residual_l2={result.residual_l2:.3e} "
        f"-> {cfg.output_dir / 'solution.csv'}"
    )
    return 0


def _cmd_constants(cfg: RunConfig):
    o = cfg.options
    params = ShiftParams(float(o["a"]), float(o["h"]))
    grid = make_grid(float(o["L"]), int(o["N"]))
    G = _load_function(o["G"], grid)
    rep = stability_constant(G, params, tol_orth=float(o.get("tol_orth", 1e-8)))
    payload = {"command": "constants", "seed": cfg.seed, **_kernel_report_json(rep)}
    _write_json(payload, cfg.output_dir / "kernel_report.json")
    n_str = "infinite" if not rep.finite else f"{rep.N:.6g}"
    print(f"constants: finite={rep.finite} N={n_str} -> {cfg.output_dir / 'kernel_report.json'}")
    return 0


def _cmd_solve_nonlinear(cfg: RunConfig):
    o = cfg.options
    params = ShiftParams(float(o["a"]), float(o["h"]))
    grid = make_grid(float(o["L"]), int(o["N"]))
    G = _load_function(o["G"], grid)
    F = _load_nonlinearity(o["F"], grid)
    v0 = o.get("v0", "zero")
    v0_fn = None if v0 == "zero" else read_gridfunction_csv(Path(v0), grid)
    result = fixed_point_solve(
        G,
        F,
        params,
        v0=v0_fn,
        tol_h2=float(o.get("tol_h2", 1e-10)),
        max_iter=o.get("max_iter"),
        tol_orth=float(o.get("tol_orth", 1e-8)),
    )
    write_gridfunction_csv(result.u, cfg.output_dir / "solution.csv")
    payload = {
        "command": "solve-nonlinear",
        "seed": cfg.seed,
        "iterations": result.iterations,
        "iteration_bound": result.iteration_bound,
        "step_norms": result.step_norms,
        "observed_ratio": result.observed_ratio,
        "q_bound": result.q_bound,
        "residual_l2": result.residual_l2,
        "residual_tail_bound": result.residual_tail_bound,
        "nontrivial": result.nontrivial,
        "h2_norm": h2_norm(result.u),
        "stability": _kernel_report_json(result.stability),
    }
    _write_json(payload, cfg.output_dir / "fixed_point.json")
    print(
        f"solve-nonlinear: converged in {result.iterations} iterations "
        f"residual_l2={result.residual_l2:.3e} -> {cfg.output_dir / 'solution.csv'}"
    )
    return 0


def _cmd_sequence(cfg: RunConfig):
    o = cfg.options
    params = ShiftParams(float(o["a"]), float(o["h"]))
    grid = make_grid(float(o["L"]), int(o["N"]))
    base = _load_function(o["base"], grid)
    gen = o["generator"]
    kind = SequenceKind.RHS if o["kind"] == "rhs" else SequenceKind.KERNEL
    perturbation = (
        _load_function(gen["perturbation"], grid) if "perturbation" in gen else None
    )
    spec = builtin_sequences(
        gen["name"],
        kind=kind,
        base=base,
        M=int(o.get("M", 12)),
        perturbation=perturbation,
        shift_params=params,
        epsilon=float(o["epsilon"]) if "epsilon" in o else None,
    )
    tol_orth = float(o.get("tol_orth", 1e-8))
    if kind is SequenceKind.RHS:
        table = run_linear_sequence(spec, params, tol_orth=tol_orth)
    else:
        F = _load_nonlinearity(o["F"], grid)
        table = run_kernel_sequence(
            spec, F, params, tol_orth=tol_orth, tol_h2=float(o.get("tol_h2", 1e-10))
        )
    sequences.write_table_csv(table, cfg.output_dir / "table.csv")
    payload = {
        "command": "sequence",
        "seed": cfg.seed,
        "kind": table.kind.value,
        "M": spec.M,
        "epsilon": table.epsilon,
        "alpha": table.alpha,
        "N_limit": table.N_limit,
        "q_limit": table.q_limit,
        "checks": table.checks,
        "rows": [
            {
                "m": r.m,
                "input_gap": r.input_gap,
                "weighted_gap": r.weighted_gap,
                "solution_gap_h2": r.solution_gap_h2,
                "solution_gap_l2": r.solution_gap_l2,
                "d2_gap": r.d2_gap,
                "multiplier_gap": r.multiplier_gap,
                "multiplier_gap_p2": r.multiplier_gap_p2,
                "N_m": r.N_m,
            }
            for r in table.rows
        ],
    }
    _write_json(payload, cfg.output_dir / "summary.json")
    all_ok = all(table.checks.values())
    print(
        f"sequence: M={spec.M} checks={'all pass' if all_ok else 'FAILURES'} "
        f"-> {cfg.output_dir / 'table.csv'}"
    )
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "solve-linear": _cmd_solve_linear,
    "solve-nonlinear": _cmd_solve_nonlinear,
    "constants": _cmd_constants,
    "sequence": _cmd_sequence,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[cfg.command](cfg)


def _error_json(exc):
    details = {}
    report = getattr(exc, "report", None)
    if report is not None:
        for attr, key in (
            ("fhat_plus", "fhat_plus"),
            ("fhat_minus", "fhat_minus"),
            ("Ghat_plus", "Ghat_plus"),
            ("Ghat_minus", "Ghat_minus"),
        ):
            if hasattr(report, attr):
                details[key] = _complex_pair(getattr(report, attr))
        if hasattr(report, "tolerance_used"):
            details["tolerance_used"] = report.tolerance_used
    return {"error": {"type": type(exc).__name__, "message": str(exc), "details": details}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftspec",
        description="Spectral solvers for the shifted-argument equation "
        "-u'' - a*u(x-h) = f and the nonlocal equation "
        "u'' + a*u(x-h) + G*F(u) = 0 on a periodic box.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", default=".", help="output directory (default: cwd)")
    common.add_argument("--seed", type=int, default=0, help="recorded in every JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.command, args.out, args.seed)
        return run(cfg)
    except HypothesisError as exc:
        json.dump(_error_json(exc), sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # config, IO, and internal faults
        json.dump(_error_json(exc), sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
