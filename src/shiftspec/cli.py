"""Command-line runner: JSON config in, CSV/JSON artifacts out.

Commands: spectrum, solve-linear, solve-nonlinear, constants, sequence.
Config parsing is strict (unknown keys are fatal).  Exit codes: 0 on
success, 2 when a solvability/contraction hypothesis is violated, 1 on
any internal or configuration error.  Failures emit a machine-readable
JSON error object as the last line of stderr (Python warnings may come
before it).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog, sequences
from .errors import HypothesisError
from .kernels import stability_constant
from .linear import solve_linear
from .nonlinear import Nonlinearity, fixed_point_solve
from .sequences import SequenceKind, builtin_sequences, run_kernel_sequence, run_linear_sequence
from .spectral import (
    MAX_POINTS,
    grid_spacing,
    h2_norm,
    l2_norm,
    make_grid,
    read_gridfunction_csv,
    write_gridfunction_csv,
)
from .symbols import ShiftParams, classify, symbol, symbol_modulus_sq
from .textio import write_float_rows


# a validated config: options hold each top-level number as a float
@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    options: dict
    output_dir: Path
    seed: int
    params: ShiftParams


class ConfigError(ValueError):
    pass


_NUMBER = (int, float)

# spec kind -> (optional keys beside the required string 'name' and their
# kinds, the shape named in errors)
_SPECS = {
    "function": ({"params": "object"}, "a builtin spec {'name', 'params'?} or a .csv path"),
    "nonlinearity": (
        {"params": "object", "l": "constant", "k": "constant"},
        "{'name', 'params'?, 'l'?, 'k'?}",
    ),
    "generator": ({"perturbation": "function"}, "{'name', 'perturbation'?}"),
}

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
        # compared, not math.isfinite'd: a JSON int may exceed the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(
                f"field {key!r} must be within the float range, got a "
                f"{len(str(abs(value)))}-digit integer"
            )
    elif kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    elif kind == "constant":
        _check_type(key, value, "number")
        if value < 0:
            raise ConfigError(f"field {key!r} must be finite and non-negative, got {value!r}")
    elif kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"field {key!r} must be a string, got {value!r}")
    elif kind == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"field {key!r} must be an object, got {value!r}")
    elif kind == "function" and isinstance(value, str):
        if not value.endswith(".csv"):
            raise ConfigError(f"field {key!r} must be {_SPECS[kind][1]}, got {value!r}")
    elif kind in _SPECS:
        fields, shape = _SPECS[kind]
        if not (isinstance(value, dict) and "name" in value and set(value) <= {"name", *fields}):
            raise ConfigError(f"field {key!r} must be {shape}, got {value!r}")
        for sub, sub_kind in {"name": "string", **fields}.items():
            if sub in value:
                _check_type(f"{key}.{sub}", value[sub], sub_kind)
        if kind == "generator":
            _check_generator(key, value)
        else:
            _check_builtin(key, value, kind)
    elif kind == "offset":
        # the catalog reads a bare name as {'name': name}
        _check_type(key, {"name": value} if isinstance(value, str) else value, "function")
    elif kind == "v0":
        if value != "zero" and not (isinstance(value, str) and value.endswith(".csv")):
            raise ConfigError(f"field {key!r} must be 'zero' or a .csv path")
    elif kind == "kind":
        if value not in ("rhs", "kernel"):
            raise ConfigError(f"field {key!r} must be 'rhs' or 'kernel'")


def _check_builtin(key, spec, kind):
    # a catalog builtin's name and params: numbers, but a nonlinearity's
    # offset is a function spec
    known = catalog.builtin_parameters(kind)
    name = spec["name"]
    if name not in known:
        raise ConfigError(f"field '{key}.name' must be one of {sorted(known)}, got {name!r}")
    for param, value in spec.get("params", {}).items():
        if param not in known[name]:
            raise ConfigError(
                f"field '{key}.params' has unknown key {param!r}; "
                f"{name} takes {sorted(known[name])}"
            )
        _check_type(f"{key}.params.{param}", value, "offset" if param == "offset" else "number")


def _check_generator(key, spec):
    name = spec["name"]
    if name not in sequences.BUILTIN_SEQUENCES:
        raise ConfigError(
            f"field '{key}.name' must be one of {list(sequences.BUILTIN_SEQUENCES)}, got {name!r}"
        )
    if name == "add" and "perturbation" not in spec:
        raise ConfigError(f"field '{key}.perturbation' is required by the 'add' generator")


def _finite_float(text):
    # json.load accepts NaN, Infinity and overflowing literals such as 1e999
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def _shift_fields(o):
    return f"field 'a' = {o['a']} and field 'h' = {o['h']}"


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
    for key in ("tol_orth", "tol_h2", "epsilon", "max_iter", "M"):
        if key in raw and raw[key] <= 0:
            raise ConfigError(f"field {key!r} must be positive")
    points = raw.get("num_points", 2)
    if points < 2:
        raise ConfigError("num_points must be at least 2")
    # one config field sizes every array of a run, and M the number of a
    # sequence's solves: bound them before any allocation or solve (the
    # grid_spacing guard below bounds N)
    if points > MAX_POINTS:
        raise ConfigError(f"field 'num_points' must be at most 2**24 = {MAX_POINTS}, got {points}")
    if raw.get("M", 0) > sequences.MAX_MEMBERS:
        raise ConfigError(f"field 'M' must be at most {sequences.MAX_MEMBERS}, got {raw['M']}")
    if "L" in raw:
        try:
            grid_spacing(float(raw["L"]), raw["N"])
        except ValueError as exc:
            raise ConfigError(f"field 'N' = {raw['N']} and field 'L' = {raw['L']}: {exc}") from None
    try:
        params = ShiftParams(float(raw["a"]), float(raw["h"]))
    except ValueError as exc:
        raise ConfigError(f"{_shift_fields(raw)}: {exc}") from None
    if command == "spectrum" and raw["p_min"] > raw["p_max"]:
        raise ConfigError(
            f"field 'p_min' = {raw['p_min']} must not exceed 'p_max' = {raw['p_max']}"
        )
    if command == "sequence":
        if raw["kind"] == "kernel" and "epsilon" not in raw:
            raise ConfigError("kernel sequences require 'epsilon'")
        if raw["kind"] == "kernel" and "F" not in raw:
            raise ConfigError("kernel sequences require 'F'")
        if raw["kind"] == "kernel" and raw["epsilon"] >= 1:
            raise ConfigError("field 'epsilon' must be below 1 for kernel sequences")
    options = {k: float(v) if keys[k][0] == "number" else v for k, v in raw.items()}
    return RunConfig(command, options, Path(output_dir), seed, params)


@contextlib.contextmanager
def _building(key):
    """Turn a failure to load config field ``key`` (a CSV that cannot be
    read or does not hold finite samples on the grid, a builtin parameter
    out of range, samples that overflow) into a ConfigError naming the
    field.  numpy's overflow warnings are not printed: GridFunction
    rejects the samples they would announce."""
    try:
        with np.errstate(all="ignore"):
            yield
    except (ValueError, ArithmeticError, OSError) as exc:
        raise ConfigError(f"field {key!r} cannot be built: {exc}") from exc


def _load_function(key, spec, grid):
    with _building(key):
        if isinstance(spec, str):
            u = read_gridfunction_csv(spec, grid)
        else:
            u = catalog.builtin_function(spec["name"], grid, spec.get("params"))
        _require_finite_l2(u)
        return u


def _require_finite_l2(u):
    # every solve path sums squares of the samples and of their transform
    # (Parseval), so samples whose squares overflow cannot be solved for
    if not math.isfinite(l2_norm(u)):
        raise ValueError("the L2 norm of the samples overflows float64")


def _load_real(key, spec, grid):
    # a kernel or start of the fixed-point map: F is only defined on real
    # iterates, so a complex input would fail at the map's second step
    u = _load_function(key, spec, grid)
    if not u.is_real:
        raise ConfigError(f"field {key!r} must be real-valued for the fixed-point map")
    return u


def _load_nonlinearity(key, spec, grid) -> Nonlinearity:
    with _building(key):
        F = catalog.builtin_nonlinearity(spec["name"], grid, spec.get("params"))
        _require_finite_l2(F.envelope)
        declared = {c: float(spec[c]) for c in ("l", "k") if c in spec}
        declared = {c: v for c, v in declared.items() if v != getattr(F, c)}
        # replace re-runs the spot check, on constants the builtin does not have
        return dataclasses.replace(F, **declared) if declared else F


def _given(o, *keys):
    """The keys the config sets, as keyword arguments: an absent one takes the library default."""
    return {k: o[k] for k in keys if k in o}


# Result fields the JSON reports leave out: u is written to its own CSV,
# and ghat_sup (max|G_hat|) only serves the kernel sequences' multiplier gaps.
_NOT_REPORTED = ("u", "ghat_sup")

# Report fields that an orthogonality failure shows on stderr
_ERROR_DETAILS = ("fhat_plus", "fhat_minus", "Ghat_plus", "Ghat_minus", "tolerance_used")


def _to_json(obj):
    """JSON data of a result object: dataclass fields by name (bar
    _NOT_REPORTED), enums by value, complex numbers as [re, im], lists
    and dicts item by item."""
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _to_json(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in _NOT_REPORTED
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_to_json(v) for v in obj]
    return obj


def _output(cfg: RunConfig, name):
    """Path of output file name; the output directory is made on the first
    write, so a rejected run leaves none behind."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir / name


def _write_report(cfg: RunConfig, name, result, **extra):
    payload = {"command": cfg.command, "seed": cfg.seed, **_to_json(result), **extra}
    with open(_output(cfg, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_spectrum(cfg: RunConfig):
    o = cfg.options
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.linspace(o["p_min"], o["p_max"], o["num_points"])
        lam = symbol(p, cfg.params)
        columns = (p, lam.real, lam.imag, symbol_modulus_sq(p, cfg.params))
    if not all(np.isfinite(c).all() for c in columns):
        raise ConfigError(
            f"fields 'a', 'h', 'p_min' and 'p_max': lambda(p) or |lambda(p)|^2 overflows "
            f"float64 on [{o['p_min']}, {o['p_max']}] at a = {o['a']}, h = {o['h']}"
        )
    out = _output(cfg, "spectrum.csv")
    with open(out, "wb") as fh:
        fh.write(b"p,re_lambda,im_lambda,mod_sq\n")
        write_float_rows(fh, columns, b"\n")
    print(f"spectrum: {o['num_points']} samples on [{o['p_min']}, {o['p_max']}] -> {out}")
    return 0


def _cmd_solve_linear(cfg: RunConfig):
    o = cfg.options
    f = _load_function("f", o["f"], make_grid(o["L"], o["N"]))
    result = solve_linear(f, cfg.params, **_given(o, "tol_orth"))
    write_gridfunction_csv(result.u, _output(cfg, "solution.csv"))
    rep = result.solvability
    _write_report(cfg, "report.json", rep, residual_l2=result.residual_l2, h2_norm=result.h2_norm_u)
    print(
        f"solve-linear: solvable={rep.solvable} residual_l2={result.residual_l2:.3e} "
        f"-> {cfg.output_dir / 'solution.csv'}"
    )
    return 0


def _cmd_constants(cfg: RunConfig):
    o = cfg.options
    G = _load_function("G", o["G"], make_grid(o["L"], o["N"]))
    rep = stability_constant(G, cfg.params, **_given(o, "tol_orth"))
    _write_report(cfg, "kernel_report.json", rep)
    n_str = "infinite" if not rep.finite else f"{rep.N:.6g}"
    print(f"constants: finite={rep.finite} N={n_str} -> {cfg.output_dir / 'kernel_report.json'}")
    return 0


def _cmd_solve_nonlinear(cfg: RunConfig):
    o = cfg.options
    grid = make_grid(o["L"], o["N"])
    G = _load_real("G", o["G"], grid)
    F = _load_nonlinearity("F", o["F"], grid)
    kwargs = _given(o, "tol_h2", "max_iter", "tol_orth")
    if o.get("v0", "zero") != "zero":
        kwargs["v0"] = _load_real("v0", o["v0"], grid)
    result = fixed_point_solve(G, F, cfg.params, **kwargs)
    write_gridfunction_csv(result.u, _output(cfg, "solution.csv"))
    _write_report(cfg, "fixed_point.json", result, h2_norm=h2_norm(result.u))
    print(
        f"solve-nonlinear: converged in {result.iterations} iterations "
        f"residual_l2={result.residual_l2:.3e} -> {cfg.output_dir / 'solution.csv'}"
    )
    return 0


def _cmd_sequence(cfg: RunConfig):
    o = cfg.options
    grid = make_grid(o["L"], o["N"])
    gen = o["generator"]
    kind = SequenceKind.RHS if o["kind"] == "rhs" else SequenceKind.KERNEL
    # a kernel sequence's inputs are the kernels of fixed-point solves
    load = _load_function if kind is SequenceKind.RHS else _load_real
    base = load("base", o["base"], grid)
    perturbation = (
        load("generator.perturbation", gen["perturbation"], grid) if "perturbation" in gen else None
    )
    spec = builtin_sequences(
        gen["name"],
        kind=kind,
        base=base,
        perturbation=perturbation,
        shift_params=cfg.params,
        **_given(o, "M", "epsilon"),
    )
    if kind is SequenceKind.RHS:
        table = run_linear_sequence(spec, cfg.params, **_given(o, "tol_orth"))
    else:
        F = _load_nonlinearity("F", o["F"], grid)
        table = run_kernel_sequence(spec, F, cfg.params, **_given(o, "tol_orth", "tol_h2"))
    sequences.write_table_csv(table, _output(cfg, "table.csv"))
    _write_report(cfg, "summary.json", table, M=spec.M)
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
    if cfg.command != "spectrum":
        # classified once, first (memoized) and before any grid: classify
        # refuses an (a, h) before it samples anything
        try:
            classify(cfg.params)
        except ValueError as exc:
            raise ConfigError(f"{_shift_fields(cfg.options)} cannot be classified: {exc}") from None
    return _COMMANDS[cfg.command](cfg)


def _error_json(exc):
    report = _to_json(exc.report) if isinstance(exc, HypothesisError) else None
    details = {k: v for k, v in (report or {}).items() if k in _ERROR_DETAILS}
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
    except Exception as exc:  # a violated hypothesis, or config, IO and internal faults
        json.dump(_error_json(exc), sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, HypothesisError) else 1


if __name__ == "__main__":
    sys.exit(main())
