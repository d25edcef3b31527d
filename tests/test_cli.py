import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from shiftspec import cli, sequences
from shiftspec.cli import ConfigError, main, parse_config
from shiftspec.linear import resonant_aligned_half_length
from shiftspec.nonlinear import Nonlinearity
from shiftspec.spectral import GridFunction, make_grid, read_gridfunction_csv, write_gridfunction_csv
from shiftspec.symbols import ShiftParams, symbol, symbol_modulus_sq
from shiftspec.catalog import builtin_function


def schema(name):
    path = resources.files("shiftspec") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


LINEAR_CFG = {
    "a": 1.0,
    "h": 1.0,
    "L": 40.0,
    "N": 1024,
    "f": {"name": "gaussian", "params": {"sigma": 1.0}},
}


def test_parse_config_minimal(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, LINEAR_CFG), "solve-linear", tmp_path, 0)
    assert cfg.command == "solve-linear"
    assert cfg.options["N"] == 1024


def test_parse_config_h_zero(tmp_path):
    bad = dict(LINEAR_CFG, h=0)
    with pytest.raises(ConfigError, match="'h' must be nonzero"):
        parse_config(write_cfg(tmp_path, bad), "solve-linear", tmp_path, 0)


def test_parse_config_unknown_key(tmp_path):
    bad = dict(LINEAR_CFG, foo=1)
    with pytest.raises(ConfigError, match="foo"):
        parse_config(write_cfg(tmp_path, bad), "solve-linear", tmp_path, 0)


def test_parse_config_missing_field(tmp_path):
    bad = {k: v for k, v in LINEAR_CFG.items() if k != "f"}
    with pytest.raises(ConfigError, match="'f'"):
        parse_config(write_cfg(tmp_path, bad), "solve-linear", tmp_path, 0)


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": 1.0,,}')
    with pytest.raises(ConfigError, match="line"):
        parse_config(str(path), "solve-linear", tmp_path, 0)


def test_spectrum_run(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"a": 1.0, "h": np.pi, "p_min": -4.0, "p_max": 4.0, "num_points": 801},
    )
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "p,re_lambda,im_lambda,mod_sq"
    at_one = [r for r in rows[1:] if float(r.split(",")[0]) == 1.0]
    assert len(at_one) == 1
    assert float(at_one[0].split(",")[3]) == pytest.approx(4.0, abs=1e-12)


def test_spectrum_of_a_single_frequency_runs(tmp_path):
    # p_min may equal p_max: every sample is the same frequency
    cfg = write_cfg(tmp_path, {"a": 1.0, "h": 1.0, "p_min": 1.5, "p_max": 1.5, "num_points": 3})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert len(rows) == 4 and rows[1] == rows[2] == rows[3]
    assert float(rows[1].split(",")[0]) == 1.5


def test_config_number_at_the_float_maximum_is_accepted(tmp_path):
    # the float range is closed: its largest value is a number like any other
    top = sys.float_info.max
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, tol_orth=top))
    assert parse_config(cfg, "solve-linear", tmp_path, 0).options["tol_orth"] == top
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, tol_orth=int(top)))
    assert parse_config(cfg, "solve-linear", tmp_path, 0).options["tol_orth"] == top


def _spectrum_reference(config):
    p = np.linspace(config["p_min"], config["p_max"], config["num_points"])
    params = ShiftParams(config["a"], config["h"])
    with np.errstate(over="ignore", invalid="ignore"):
        lam, mod2 = symbol(p, params), symbol_modulus_sq(p, params)
    rows = zip(p.tolist(), lam.real.tolist(), lam.imag.tolist(), mod2.tolist())
    return b"p,re_lambda,im_lambda,mod_sq\n" + b"".join(b"%.17g,%.17g,%.17g,%.17g\n" % r for r in rows)


@pytest.mark.parametrize(
    "config",
    [{"a": 1.0, "h": np.pi, "p_min": -4.0, "p_max": 4.0, "num_points": 801}],
    ids=["band"],
)
def test_spectrum_csv_bytes_match_percent_g17(tmp_path, config):
    cfg = write_cfg(tmp_path, config)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    got = (tmp_path / "spectrum.csv").read_bytes()
    assert got == _spectrum_reference(config)


def test_solve_linear_run_and_schema(tmp_path):
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    out = tmp_path / "out"
    assert main(["solve-linear", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, schema("solve_report"))
    assert report["solvable"] is True
    assert report["seed"] == 7
    u = read_gridfunction_csv(out / "solution.csv")
    assert u.grid == make_grid(40.0, 1024)


def test_solve_linear_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["solve-linear", "--config", cfg, "--out", str(out1)])
    main(["solve-linear", "--config", cfg, "--out", str(out2)])
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_main_runs_many_times_in_one_process_on_one_parser(tmp_path, capsys):
    # main builds its parser once per process; a run that fails, and one
    # that argparse refuses, leave nothing behind for the next run
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    bad = write_cfg(tmp_path, dict(LINEAR_CFG, N=1023), name="bad.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve-linear", "--config", cfg, "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["solve-linear", "--config", bad, "--out", str(tmp_path / "b")]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    jsonschema.validate(err, schema("error"))
    assert err["error"]["type"] == "ConfigError"
    with pytest.raises(SystemExit) as exc:
        main(["solve-linear", "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert main(["solve-linear", "--config", cfg, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and "solution.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert not (tmp_path / "b").exists() and not (tmp_path / "c").exists()


def test_solve_linear_resonant_exit_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"a": 1.0, "h": 2 * np.pi, "L": 40.0, "N": 1024, "f": {"name": "gaussian"}},
    )
    rc = main(["solve-linear", "--config", cfg, "--out", str(tmp_path / "r")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error"))
    assert err["error"]["type"] == "ResonantNotSolvable"
    assert err["error"]["details"]["fhat_plus"][0] == pytest.approx(np.exp(-0.5), abs=1e-9)


def test_solve_linear_csv_input(tmp_path):
    grid = make_grid(40.0, 1024)
    f = builtin_function("hermite_gaussian", grid)
    fpath = tmp_path / "f.csv"
    write_gridfunction_csv(f, fpath)
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, f=str(fpath)))
    assert main(["solve-linear", "--config", cfg, "--out", str(tmp_path / "csvout")]) == 0


def test_constants_run_and_schema(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "G": {"name": "gaussian", "params": {"amplitude": 0.3}},
        },
    )
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "kernel_report.json").read_text())
    jsonschema.validate(report, schema("kernel_report"))
    assert report["finite"] is True
    assert report["N"] > 0


def test_constants_resonant_not_finite(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"a": 1.0, "h": 2 * np.pi, "L": 40.0, "N": 1024, "G": {"name": "gaussian"}},
    )
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "kernel_report.json").read_text())
    jsonschema.validate(report, schema("kernel_report"))
    assert report["finite"] is False
    assert report["N"] is None


def test_solve_nonlinear_run_and_schema(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "G": {"name": "gaussian", "params": {"amplitude": 0.3}},
            "F": {
                "name": "tanh",
                "l": 0.1,
                "k": 0.1,
                "params": {
                    "slope": 0.1,
                    "offset": {"name": "gaussian", "params": {"sigma": 0.7071067811865476}},
                },
            },
            "tol_h2": 1e-10,
        },
    )
    out = tmp_path / "out"
    assert main(["solve-nonlinear", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "fixed_point.json").read_text())
    jsonschema.validate(report, schema("fixed_point_report"))
    assert report["q_bound"] < 1
    assert report["residual_l2"] <= 1e-8
    assert report["nontrivial"] is True
    assert len(report["step_norms"]) == report["iterations"]


def test_solve_nonlinear_contraction_failure_exit_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "G": {"name": "gaussian", "params": {"amplitude": 0.3}},
            "F": {"name": "tanh", "params": {"slope": 20.0}},
        },
    )
    rc = main(["solve-nonlinear", "--config", cfg, "--out", str(tmp_path / "c")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ContractionHypothesisFailed"


def test_sequence_run_constant_and_schema(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "kind": "rhs",
            "base": {"name": "gaussian"},
            "generator": {"name": "add", "perturbation": {"name": "zero"}},
            "M": 5,
        },
    )
    out = tmp_path / "out"
    assert main(["sequence", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, schema("sequence_summary"))
    assert all(summary["checks"].values())
    assert all(r["input_gap"] == 0 for r in summary["rows"])
    rows = (out / "table.csv").read_text().splitlines()
    assert rows[0] == "m,input_gap,weighted_gap,solution_gap_h2,multiplier_gap,N_m"
    assert len(rows) == 6


def test_sequence_kernel_run(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "kind": "kernel",
            "base": {"name": "gaussian", "params": {"amplitude": 0.2}},
            "generator": {"name": "scale"},
            "M": 4,
            "epsilon": 0.5,
            "F": {"name": "tanh", "params": {"slope": 0.1, "offset": {"name": "gaussian"}}},
        },
    )
    out = tmp_path / "out"
    assert main(["sequence", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, schema("sequence_summary"))
    assert summary["q_limit"] <= 0.5
    assert all(r["N_m"] is not None for r in summary["rows"])


def test_sequence_q_limit_is_the_limit_solve_q_bound(tmp_path):
    # the README kernel and tanh F at a = 0.8, h = 0.9: both commands take
    # q = 2*sqrt(pi)*N*l from one product, which (2*sqrt(pi)*l)*N misses
    # here in the last bit
    G = {"name": "gaussian", "params": {"amplitude": 0.3}}
    F = {
        "name": "tanh",
        "l": 0.1,
        "k": 0.1,
        "params": {
            "slope": 0.1,
            "offset": {"name": "gaussian", "params": {"sigma": 0.7071067811865476}},
        },
    }
    box = {"a": 0.8, "h": 0.9, "L": 40.0, "N": 4096, "F": F}
    sequence = dict(box, kind="kernel", base=G, generator={"name": "scale"}, M=12, epsilon=0.1)
    fixed = write_cfg(tmp_path, dict(box, G=G), "fixed.json")
    assert main(["sequence", "--config", write_cfg(tmp_path, sequence), "--out", str(tmp_path / "s")]) == 0
    assert main(["solve-nonlinear", "--config", fixed, "--out", str(tmp_path / "f")]) == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    report = json.loads((tmp_path / "f" / "fixed_point.json").read_text())
    assert summary["N_limit"] == report["stability"]["N"]
    assert summary["q_limit"] == report["q_bound"]
    assert report["q_bound"] != 2.0 * np.sqrt(np.pi) * 0.1 * report["stability"]["N"]


def test_solve_nonlinear_v0_from_csv(tmp_path):
    grid = make_grid(40.0, 1024)
    v0 = builtin_function("gaussian", grid, {"amplitude": 0.5})
    v0_path = tmp_path / "v0.csv"
    write_gridfunction_csv(v0, v0_path)
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "G": {"name": "gaussian", "params": {"amplitude": 0.3}},
            "F": {"name": "tanh", "params": {"slope": 0.1, "offset": {"name": "gaussian"}}},
            "v0": str(v0_path),
        },
    )
    out = tmp_path / "out"
    assert main(["solve-nonlinear", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "fixed_point.json").read_text())
    assert report["residual_l2"] <= 1e-8


def test_sequence_resonant_truncate(tmp_path):
    from shiftspec.linear import resonant_aligned_half_length

    L = resonant_aligned_half_length(1.0, 40.0)
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 2 * np.pi,
            "L": L,
            "N": 1024,
            "kind": "rhs",
            "base": {"name": "hermite_gaussian"},
            "generator": {"name": "truncate"},
            "M": 6,
            "tol_orth": 1e-6,
        },
    )
    out = tmp_path / "out"
    assert main(["sequence", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, schema("sequence_summary"))
    gaps = [r["solution_gap_h2"] for r in summary["rows"]]
    assert gaps[-1] < gaps[0]


def test_csv_input_grid_mismatch(tmp_path, capsys):
    other = make_grid(20.0, 512)
    f = builtin_function("gaussian", other)
    fpath = tmp_path / "f.csv"
    write_gridfunction_csv(f, fpath)
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, f=str(fpath)))
    rc = main(["solve-linear", "--config", cfg, "--out", str(tmp_path / "mm")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "grid" in err["error"]["message"]


def test_missing_config_file_exit_1(tmp_path, capsys):
    rc = main(["solve-linear", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error"))


def test_kernel_sequence_missing_epsilon(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "a": 1.0,
            "h": 1.0,
            "L": 40.0,
            "N": 1024,
            "kind": "kernel",
            "base": {"name": "gaussian"},
            "generator": {"name": "scale"},
            "F": {"name": "tanh", "params": {"slope": 0.1}},
        },
    )
    rc = main(["sequence", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "epsilon" in err["error"]["message"]



SEQUENCE_CFG = {
    "a": 1.0,
    "h": 1.0,
    "L": 40.0,
    "N": 1024,
    "kind": "rhs",
    "base": {"name": "gaussian"},
    "generator": {"name": "scale"},
}

NONLINEAR_CFG = {
    "a": 1.0,
    "h": 1.0,
    "L": 40.0,
    "N": 1024,
    "G": {"name": "gaussian", "params": {"amplitude": 0.3}},
    "F": {"name": "tanh", "params": {"slope": 0.1, "offset": "gaussian"}},
}

KERNEL_SEQUENCE_CFG = dict(SEQUENCE_CFG, kind="kernel", F=NONLINEAR_CFG["F"], epsilon=0.5)


KIND_RULE = "field 'kind' must be 'rhs' or 'kernel'"
V0_RULE = "field 'v0' must be 'zero' or a .csv path"


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sequence", dict(SEQUENCE_CFG, kind="bogus"), KIND_RULE),
        ("sequence", dict(SEQUENCE_CFG, kind=1), KIND_RULE),
        ("solve-nonlinear", dict(NONLINEAR_CFG, v0="start.txt"), V0_RULE),
        ("solve-nonlinear", dict(NONLINEAR_CFG, v0=5), V0_RULE),
    ],
    ids=["kind-name", "kind-number", "v0-not-csv", "v0-number"],
)
def test_enumerated_fields_are_refused_by_their_rule(tmp_path, command, config, message):
    # the field's own rule names the values it takes, whatever the value's type
    with pytest.raises(ConfigError, match=message):
        parse_config(write_cfg(tmp_path, config), command, tmp_path, 0)


def _percent_g17_csv(u):
    # reference solution.csv: '%.17g' per value, a real u's im field the literal 0
    x, v = u.grid.x.tolist(), u.values.tolist()
    if u.is_real:
        rows = (b"%.17g,%.17g,0\r\n" % r for r in zip(x, v))
    else:
        rows = (b"%.17g,%.17g,%.17g\r\n" % (xj, vj.real, vj.imag) for xj, vj in zip(x, v))
    return b"x,re,im\r\n" + b"".join(rows)


@pytest.mark.parametrize("case", ["real", "resonant", "complex-csv", "nonlinear"])
def test_solution_csv_bytes_match_percent_g17(tmp_path, monkeypatch, case):
    written = []

    def capture(u, path):
        written.append(u)
        write_gridfunction_csv(u, path)

    monkeypatch.setattr(cli, "write_gridfunction_csv", capture)
    command, config = "solve-linear", dict(LINEAR_CFG)
    if case == "resonant":
        L = resonant_aligned_half_length(1.0, 40.0)
        f = {"name": "hermite_gaussian", "params": {"scale": 1.0}}
        config.update(h=2 * np.pi, L=L, f=f)
    elif case == "complex-csv":
        grid = make_grid(40.0, 1024)
        f = builtin_function("gaussian", grid)
        config["f"] = str(tmp_path / "f.csv")
        write_gridfunction_csv(GridFunction(grid, f.values * np.exp(1j * grid.x)), config["f"])
    elif case == "nonlinear":
        command, config = "solve-nonlinear", NONLINEAR_CFG
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)]) == 0
    [u] = written
    assert u.is_real == (case != "complex-csv")
    assert (out / "solution.csv").read_bytes() == _percent_g17_csv(u)


@pytest.mark.parametrize(
    "command, base, field, value",
    [
        ("spectrum", {"a": 1.0, "h": 1.0, "p_max": 4.0, "num_points": 9}, "p_min", np.nan),
        # resonant and orthogonal: a NaN tolerance used to read as a violation
        ("solve-linear", dict(LINEAR_CFG, h=2 * np.pi, f={"name": "hermite_gaussian"}),
         "tol_orth", np.nan),
        ("constants", {"a": 1.0, "h": 1.0, "L": 40.0, "N": 1024, "G": {"name": "gaussian"}},
         "tol_orth", np.inf),
        ("solve-nonlinear", NONLINEAR_CFG, "tol_h2", np.nan),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "params": {"slope": np.nan}}),
        ("solve-nonlinear", NONLINEAR_CFG, "max_iter", 0),
        # p**2 overflows float64: rejected with no numpy warning, nothing written
        ("spectrum", {"a": 1.0, "h": 1.0, "p_min": -4.0, "num_points": 9}, "p_max", 1e200),
        ("spectrum", {"a": 1.0, "h": 1.0, "p_min": -4.0, "p_max": 4.0}, "num_points", 1),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "l": True}),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "l": "0.1"}),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "l": None}),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "k": -1.0}),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "k": 10**400}),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "params": [0.1]}),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": ["tanh"]}),
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": [1]}),
        ("solve-linear", LINEAR_CFG, "f", {"name": 5}),
        ("sequence", SEQUENCE_CFG, "generator", {"name": "add", "perturbation": 5}),
        ("sequence", SEQUENCE_CFG, "generator", {"name": 1}),
        ("sequence", SEQUENCE_CFG, "M", 0),
        # JSON ints beyond the float range
        pytest.param("solve-linear", LINEAR_CFG, "a", 10**400, id="solve-linear-a-10**400"),
        pytest.param(
            "constants", {"a": 1.0, "h": 1.0, "N": 1024, "G": {"name": "gaussian"}}, "L",
            -(10**400), id="constants-L--10**400",
        ),
        pytest.param(
            "solve-nonlinear", NONLINEAR_CFG, "tol_h2", 10**400, id="solve-nonlinear-tol_h2-10**400"
        ),
        pytest.param(
            "spectrum", {"a": 1.0, "h": 1.0, "p_min": -4.0, "num_points": 9}, "p_max", 10**400,
            id="spectrum-p_max-10**400",
        ),
        # a kernel sequence's contraction slack lies in (0, 1)
        ("sequence", KERNEL_SEQUENCE_CFG, "epsilon", 1.5),
        ("sequence", KERNEL_SEQUENCE_CFG, "epsilon", 1),
        # an empty interval
        ("spectrum", {"a": 1.0, "h": 1.0, "p_max": -4.0, "num_points": 9}, "p_min", 4.0),
        # |lambda|^2 at machine zero: no gap alpha to classify with
        ("solve-linear", LINEAR_CFG, "h", -1e-308),
        ("constants", {"h": 0.4, "L": 40.0, "N": 64, "G": {"name": "gaussian"}}, "a", 1e-308),
        # lambda overflows on the range through a
        ("spectrum", {"h": 1.0, "p_min": -4.0, "p_max": 4.0, "num_points": 9}, "a", 1e308),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_number_not_finite_or_out_of_range_exit_1(
    tmp_path, capsys, command, base, field, value
):
    cfg = write_cfg(tmp_path, dict(base, **{field: value}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, base, field, value, named",
    [
        ("solve-linear", LINEAR_CFG, "f", {"name": "gauss"}, "f.name"),
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"sigma": "1"}},
         "f.params.sigma"),
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"width": 1.0}},
         "f.params"),
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"sigma": 10**400}},
         "f.params.sigma"),
        ("constants", {"a": 1.0, "h": 1.0, "L": 40.0, "N": 1024}, "G",
         {"name": "zero", "params": {"amplitude": 1.0}}, "G.params"),
        ("solve-nonlinear", NONLINEAR_CFG, "G", {"name": "gaussian", "params": {"amplitude": True}},
         "G.params.amplitude"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "cubic"}, "F.name"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "params": {"offset": 0.5}},
         "F.params.offset"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "params": {"offset": None}},
         "F.params.offset"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "params": {"offset": "gauss"}},
         "F.params.offset.name"),
        ("solve-nonlinear", NONLINEAR_CFG, "F",
         {"name": "constant", "params": {"offset": {"name": "gaussian", "params": {"s": 1.0}}}},
         "F.params.offset.params"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "zero", "params": {"slope": 0.1}},
         "F.params"),
        ("sequence", SEQUENCE_CFG, "base", {"name": "gaussian", "params": {"center": [0.0]}},
         "base.params.center"),
        ("sequence", SEQUENCE_CFG, "generator",
         {"name": "add", "perturbation": {"name": "sine_packet", "params": {"freq": "2"}}},
         "generator.perturbation.params.freq"),
        ("sequence", SEQUENCE_CFG, "generator", {"name": "shift"}, "generator.name"),
        ("sequence", SEQUENCE_CFG, "generator", {"name": "add"}, "generator.perturbation"),
        # parameters the builtin itself refuses, or whose samples overflow
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"sigma": 0}}, "f"),
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"sigma": 1e300}}, "f"),
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"sigma": 1e-300}}, "f"),
        ("solve-linear", LINEAR_CFG, "f", {"name": "sine_packet", "params": {"freq": 1e308}},
         "f"),
        ("constants", {"a": 1.0, "h": 1.0, "L": 40.0, "N": 1024}, "G",
         {"name": "hermite_gaussian", "params": {"scale": -1.0}}, "G"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "params": {"slope": -1}}, "F"),
        ("solve-nonlinear", NONLINEAR_CFG, "F",
         {"name": "tanh", "params": {"offset": {"name": "gaussian", "params": {"sigma": 0}}}},
         "F"),
        ("solve-nonlinear", NONLINEAR_CFG, "F", {"name": "tanh", "l": 0.01}, "F"),
        ("sequence", SEQUENCE_CFG, "base", {"name": "sine_packet", "params": {"width": 0}},
         "base"),
        ("sequence", SEQUENCE_CFG, "generator",
         {"name": "add", "perturbation": {"name": "gaussian", "params": {"sigma": -2.0}}},
         "generator.perturbation"),
        ("sequence", KERNEL_SEQUENCE_CFG, "F", {"name": "tanh", "params": {"slope": -1}}, "F"),
        # finite samples whose squares overflow: no solve path can sum them
        ("solve-linear", LINEAR_CFG, "f", {"name": "gaussian", "params": {"amplitude": 1e308}},
         "f"),
        ("solve-nonlinear", NONLINEAR_CFG, "F",
         {"name": "tanh", "params": {"offset": {"name": "gaussian",
                                                "params": {"amplitude": -1e308}}}}, "F"),
    ],
)
def test_builtin_spec_checked_against_catalog_exit_1(
    tmp_path, capsys, command, base, field, value, named
):
    cfg = write_cfg(tmp_path, dict(base, **{field: value}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert f"field '{named}'" in err["message"]
    assert not out.exists()


def test_kernel_sequence_takes_a_tolerance_near_the_float_maximum(tmp_path):
    # the difference kernels' tolerance 2*tol_orth stays at the float maximum
    cfg = write_cfg(tmp_path, dict(KERNEL_SEQUENCE_CFG, N=256, M=2, tol_orth=1e308))
    assert main(["sequence", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_builtin_offset_accepts_a_name_or_a_spec(tmp_path):
    for offset in ("gaussian", {"name": "gaussian"}, {"name": "zero", "params": {}}):
        F = {"name": "tanh", "params": {"slope": 0.1, "offset": offset}}
        cfg = write_cfg(tmp_path, dict(NONLINEAR_CFG, F=F))
        assert parse_config(cfg, "solve-nonlinear", tmp_path, 0).options["F"] == F


@pytest.mark.parametrize(
    "command, config, rc, error",
    [
        ("solve-linear", dict(LINEAR_CFG, N=1023), 1, "ConfigError"),
        ("solve-linear", dict(LINEAR_CFG, f="absent.csv"), 1, "ConfigError"),
        ("solve-linear", dict(LINEAR_CFG, h=2 * np.pi, f={"name": "gaussian"}), 2,
         "ResonantNotSolvable"),
        ("solve-nonlinear", dict(NONLINEAR_CFG, F={"name": "tanh", "params": {"slope": 20.0}}), 2,
         "ContractionHypothesisFailed"),
        ("solve-nonlinear", dict(NONLINEAR_CFG, v0="absent.csv"), 1, "ConfigError"),
    ],
    ids=["odd-N", "missing-csv", "resonant", "contraction", "missing-v0"],
)
def test_run_rejected_after_parsing_leaves_no_output_dir(
    tmp_path, monkeypatch, capsys, command, config, rc, error
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)]) == rc
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error
    assert not out.exists()


@pytest.mark.parametrize(
    "command, base, field, value",
    [
        ("solve-linear", LINEAR_CFG, "N", 15),
        ("solve-linear", LINEAR_CFG, "N", 6),
        ("sequence", SEQUENCE_CFG, "N", 0),
        ("solve-nonlinear", NONLINEAR_CFG, "a", 1e308),
        ("solve-linear", LINEAR_CFG, "h", 1e308),
        ("constants", {"a": 1.0, "h": 1.0, "L": 40.0, "N": 1024, "G": {"name": "gaussian"}},
         "h", -1e308),
        # 2L overflows; at N = 64, p_max^4 = (32*pi/L)^4 overflows below L ~ 8.7e-76
        ("solve-linear", dict(LINEAR_CFG, N=64), "L", 1e308),
        ("solve-nonlinear", dict(NONLINEAR_CFG, N=64), "L", 1e-76),
        ("sequence", dict(SEQUENCE_CFG, N=64), "L", 1e-200),
        ("constants", {"a": 1.0, "h": 1.0, "N": 64, "G": {"name": "gaussian"}}, "L", 1e-308),
        ("solve-linear", LINEAR_CFG, "L", 0.0),
    ],
    # fixed ids, so that a case keeps its id when another is added or removed
    ids=[
        "solve-linear-base0-N-15",
        "solve-linear-base1-N-6",
        "sequence-base2-N-0",
        "solve-nonlinear-base3-a-1e+308",
        "solve-linear-base4-h-1e+308",
        "constants-base5-h--1e+308",
        "solve-linear-base6-L-1e+308",
        "solve-nonlinear-base7-L-1e-76",
        "sequence-base8-L-1e-200",
        "constants-base9-L-1e-308",
        "solve-linear-base10-L-0.0",
    ],
)
def test_grid_size_and_shift_range_named_at_parse_time(
    tmp_path, capsys, command, base, field, value
):
    # N must be even and at least 8 and L must give a finite dx and
    # p_max^4 (spectral.grid_spacing); the message names both fields.
    # (a, h) must leave classify a resonance tolerance below pi/sqrt(a):
    # parse_config accepts such a pair, and run refuses it when it
    # classifies, naming 'a' and 'h'
    cfg = write_cfg(tmp_path, dict(base, **{field: value}))
    if field in ("a", "h"):
        assert parse_config(cfg, command, tmp_path, 0).options[field] == value
    else:
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            parse_config(cfg, command, tmp_path, 0)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert f"field '{field}'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-linear", "solve-nonlinear"])
def test_half_length_just_inside_the_range_solves(tmp_path, command):
    # at N = 64 the smallest L with a finite p_max^4 is about 8.7e-76
    base = LINEAR_CFG if command == "solve-linear" else NONLINEAR_CFG
    cfg = write_cfg(tmp_path, dict(base, N=64, L=1e-75))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    u = read_gridfunction_csv(out / "solution.csv")
    assert u.grid.N == 64 and np.all(np.isfinite(u.values))


CLASSIFYING_CONFIGS = [
    ("solve-linear", LINEAR_CFG),
    ("solve-nonlinear", NONLINEAR_CFG),
    ("constants", {"a": 1.0, "h": 1.0, "L": 40.0, "N": 1024, "G": {"name": "gaussian"}}),
    ("sequence", SEQUENCE_CFG),
]


@pytest.mark.parametrize("command, base", CLASSIFYING_CONFIGS)
def test_resonance_tolerance_bound_named_before_any_allocation(
    tmp_path, monkeypatch, capsys, command, base
):
    # classify refuses, before it samples anything, any (a, h) whose
    # resonance tolerance 1e-9*max(1, |h|) reaches pi/sqrt(a); run asks
    # it before any grid, and names both fields
    def refuse(*args, **kwargs):
        raise AssertionError("allocation attempted")

    monkeypatch.setattr(cli, "make_grid", refuse)
    monkeypatch.setattr(cli.np, "linspace", refuse)
    for a, h in ((1e308, 1.0), (1.0, 1e308), (1.0, -1e308)):
        cfg = write_cfg(tmp_path, dict(base, a=a, h=h))
        assert parse_config(cfg, command, tmp_path, 0).params == ShiftParams(a, h)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith(f"field 'a' = {float(a)} and field 'h' = {float(h)}")
        assert "1e9*pi" in err["message"]
        assert not out.exists()
    # a large non-resonant shift is not refused
    cfg = write_cfg(tmp_path, dict(base, a=1.0, h=3.29e6))
    assert parse_config(cfg, command, tmp_path, 0).options["h"] == 3.29e6


def test_constants_at_a_large_non_resonant_shift_exit_0(tmp_path):
    # the gap search samples a band around sqrt(a), whatever |h|: a scan
    # of all of [0, P] would take 1.7e7 samples at (1, 3.29e6), and more
    # than 2**24 at (4, -2.2e6)
    for a, h, alpha in ((1.0, 3.29e6, 8.3635e-13), (4.0, -2.2e6, np.inf)):
        cfg = {"a": a, "h": h, "L": 40.0, "N": 256, "G": {"name": "gaussian"}}
        out = tmp_path / f"out{h}"
        assert main(["constants", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "kernel_report.json").read_text())
        assert report["classification"]["alpha"] <= alpha


def test_resonant_shift_beyond_the_sample_bound_solves(tmp_path):
    # a resonant (a, h) samples nothing: (1 + sqrt(a))*|h| = 1.3e8
    cfg = dict(LINEAR_CFG, h=2 * np.pi * 10**7, f={"name": "hermite_gaussian"})
    out = tmp_path / "out"
    assert main(["solve-linear", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == {"kind": "Resonant", "n": 10**7, "alpha": None}
    assert report["solvable"] and report["residual_l2"] < 1e-11


def test_readme_solve_nonlinear_fft_count(tmp_path, monkeypatch, fft_calls):
    # the README job at tol_h2 = 1e-8: fixed_point_solve's 2k + 4, as the
    # report's h2_norm reads the transform that the residual took of u.
    # F restates the builtin's l and k, so it is spot-checked once; a
    # declared constant that differs is checked again
    checks = []
    spot_check = Nonlinearity._spot_check
    monkeypatch.setattr(
        Nonlinearity, "_spot_check", lambda F: checks.append(F.l) or spot_check(F)
    )
    cfg = dict(
        NONLINEAR_CFG,
        N=4096,
        F={"name": "tanh", "l": 0.1, "k": 0.1,
           "params": {"slope": 0.1,
                      "offset": {"name": "gaussian", "params": {"sigma": 0.7071067811865476}}}},
        tol_h2=1e-8,
        max_iter=64,
        v0="zero",
    )
    out = tmp_path / "out"
    assert main(["solve-nonlinear", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    k = json.loads((out / "fixed_point.json").read_text())["iterations"]
    assert (k, len(fft_calls)) == (9, 2 * k + 4)
    assert {name for name, _ in fft_calls} == {"rfft", "irfft"}
    assert checks == [0.1]
    cli._load_nonlinearity("F", dict(cfg["F"], l=0.2), make_grid(40.0, 1024))
    assert checks == [0.1, 0.1, 0.2]


SIZED_CONFIGS = [
    ("solve-linear", LINEAR_CFG, "N"),
    ("solve-nonlinear", NONLINEAR_CFG, "N"),
    ("constants", {"a": 1.0, "h": 1.0, "L": 40.0, "G": {"name": "gaussian"}}, "N"),
    ("sequence", SEQUENCE_CFG, "N"),
    ("spectrum", {"a": 1.0, "h": 1.0, "p_min": -4.0, "p_max": 4.0}, "num_points"),
]


@pytest.mark.parametrize("command, base, field", SIZED_CONFIGS)
def test_sizes_above_2_24_rejected_before_any_allocation(
    tmp_path, monkeypatch, capsys, command, base, field
):
    # the bound is checked at parse time: neither the grid nor the
    # spectrum's frequencies are ever built.  N's bound is grid_spacing's,
    # under the guard that names 'N' and 'L'
    def refuse(*args, **kwargs):
        raise AssertionError("allocation attempted")

    monkeypatch.setattr(cli, "make_grid", refuse)
    monkeypatch.setattr(cli.np, "linspace", refuse)
    for value in (2**24 + 2, 10**300):
        cfg = write_cfg(tmp_path, dict(base, **{field: value}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"field '{field}'" in err["message"] and "2**24" in err["message"]
        assert not out.exists()
    cfg = write_cfg(tmp_path, dict(base, **{field: 2**24}))
    assert parse_config(cfg, command, tmp_path, 0).options[field] == 2**24


@pytest.mark.parametrize("base", [SEQUENCE_CFG, KERNEL_SEQUENCE_CFG], ids=["rhs", "kernel"])
def test_member_count_above_the_bound_rejected_before_any_solve(
    tmp_path, monkeypatch, capsys, base
):
    # M is checked at parse time: no grid is built and no member solved
    def refuse(*args, **kwargs):
        raise AssertionError("work attempted")

    for name in ("make_grid", "run_linear_sequence", "run_kernel_sequence"):
        monkeypatch.setattr(cli, name, refuse)
    for value in (sequences.MAX_MEMBERS + 1, 10**9):
        cfg = write_cfg(tmp_path, dict(base, M=value))
        out = tmp_path / "out"
        assert main(["sequence", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"] == f"field 'M' must be at most 4096, got {value}"
        assert not out.exists()
    cfg = write_cfg(tmp_path, dict(base, M=sequences.MAX_MEMBERS))
    assert parse_config(cfg, "sequence", tmp_path, 0).options["M"] == sequences.MAX_MEMBERS


@pytest.mark.parametrize(
    "command, base, field, value, rule",
    [
        ("solve-linear", LINEAR_CFG, "tol_orth", 0,
         "orthogonality tolerance must be positive and finite, got 0.0"),
        ("solve-nonlinear", NONLINEAR_CFG, "tol_h2", -1e-3,
         "tol_h2 must be positive and finite, got -0.001"),
        ("solve-nonlinear", NONLINEAR_CFG, "max_iter", 0, "max_iter must be at least 1, got 0"),
        ("sequence", SEQUENCE_CFG, "epsilon", -1, "epsilon must be positive, got -1.0"),
        ("sequence", KERNEL_SEQUENCE_CFG, "epsilon", 1,
         "kernel sequences require epsilon in (0, 1)"),
        ("sequence", KERNEL_SEQUENCE_CFG, "epsilon", None,
         "kernel sequences require epsilon in (0, 1)"),
    ],
    ids=["tol_orth", "tol_h2", "max_iter", "rhs-epsilon", "kernel-epsilon", "kernel-no-epsilon"],
)
def test_config_numbers_are_refused_in_their_owners_words(
    tmp_path, monkeypatch, command, base, field, value, rule
):
    # parse_config asks the library function that owns the rule, before any
    # grid is built, and only names the field
    def refuse(*args, **kwargs):
        raise AssertionError("work attempted")

    monkeypatch.setattr(cli, "make_grid", refuse)
    config = dict(base, **{field: value})
    if value is None:
        del config[field]
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, config), command, tmp_path, 0)
    assert str(info.value) == f"field {field!r}: {rule}"


@pytest.mark.parametrize(
    "text, command, message",
    [
        ('{"a": NaN}', "solve-linear", "config numbers must be finite, got NaN"),
        ("[1.0, 2.0]", "solve-linear", "config must be a JSON object"),
        (json.dumps(dict(LINEAR_CFG, f="f.txt")), "solve-linear",
         "field 'f' must be a builtin spec {'name', 'params'?} or a .csv path, got 'f.txt'"),
        (json.dumps({k: v for k, v in KERNEL_SEQUENCE_CFG.items() if k != "F"}), "sequence",
         "kernel sequences require 'F'"),
    ],
    ids=["nan", "not-an-object", "function-not-csv", "kernel-without-F"],
)
def test_config_shape_is_refused_in_the_parsers_words(
    tmp_path, monkeypatch, text, command, message
):
    # the CLI's own rules, at parse time: a later step would refuse some of
    # these too, in other words (a missing file, an unknown key), or not
    # at all (a kernel sequence without F raised KeyError)
    def refuse(*args, **kwargs):
        raise AssertionError("work attempted")

    monkeypatch.setattr(cli, "make_grid", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        parse_config(path, command, tmp_path, 0)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value",
    [
        ("F", {"name": "tanh", "params": {"slope": -1}}),
        ("F", {"name": "tanh", "l": -1}),
        ("F", NONLINEAR_CFG["F"]),
        ("tol_h2", 1e-8),
        ("tol_h2", -1),
    ],
    ids=["F-bad-slope", "F-bad-l", "F-valid", "tol_h2", "tol_h2-negative"],
)
def test_rhs_sequence_refuses_the_kernel_only_fields(tmp_path, capsys, field, value):
    # an rhs run builds no fixed-point map, so F and tol_h2 would go
    # unread, and whatever they hold unchecked: refused by name, valid or not
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, dict(SEQUENCE_CFG, M=2, **{field: value}))
    assert main(["sequence", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == f"field {field!r} is taken by kernel sequences only, not by 'rhs'"
    assert not out.exists()


@pytest.mark.parametrize("constant", ["l", "k"])
def test_negative_declared_constant_is_refused_by_the_nonlinearity(tmp_path, capsys, constant):
    # Nonlinearity owns the rule for l and k, as for a builtin's slope
    F = dict(NONLINEAR_CFG["F"], **{constant: -0.1})
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, dict(NONLINEAR_CFG, F=F))
    assert main(["solve-nonlinear", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {
        "type": "ConfigError",
        "message": "field 'F' cannot be built: growth and Lipschitz constants must be finite "
        "and nonnegative",
        "details": {},
    }
    assert not out.exists()


# inputs of the fixed-point map whose L2 norms are finite but whose
# product's squares overflow float64
HUGE = {"name": "gaussian", "params": {"amplitude": 1e100}}
TINY_TANH = {"name": "tanh", "params": {"slope": 1e-300, "offset": HUGE}}
CONSTANT_F = {"name": "constant", "params": {"offset": HUGE}}


@pytest.mark.parametrize(
    "command, config, kernel",
    [
        ("solve-nonlinear", dict(NONLINEAR_CFG, G=HUGE, F=TINY_TANH), "G"),
        ("solve-nonlinear", dict(NONLINEAR_CFG, G=HUGE, F=CONSTANT_F), "G"),
        ("sequence", dict(KERNEL_SEQUENCE_CFG, base=HUGE, F=CONSTANT_F), "base"),
    ],
    ids=["tanh", "constant", "kernel-sequence"],
)
def test_fixed_point_map_that_overflows_is_a_config_error(
    tmp_path, capsys, command, config, kernel
):
    # its first H2 step norm is inf: it used to raise a bare OverflowError
    # (tanh), or to write NaN and Infinity into a "converged" report.
    # stderr is the one JSON line, with no numpy overflow warning before it
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)])
    assert rc == 1 and [str(w.message) for w in caught] == []
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith(f"fields '{kernel}' and 'F' cannot be iterated: ")
    assert not out.exists()


CONSTANTS_CFG = {"a": 1.0, "h": 1.0, "L": 40.0, "N": 1024, "G": {"name": "gaussian"}}

# (command, config, field): every config field that takes a function
FUNCTION_FIELDS = [
    ("solve-linear", LINEAR_CFG, "f"),
    ("constants", CONSTANTS_CFG, "G"),
    ("solve-nonlinear", NONLINEAR_CFG, "G"),
    ("solve-nonlinear", NONLINEAR_CFG, "v0"),
    ("sequence", SEQUENCE_CFG, "base"),
    ("sequence", SEQUENCE_CFG, "generator.perturbation"),
]


def _field_id(value):
    # test ids name the command and the field, not the config
    return value if isinstance(value, str) else "cfg"


def _with_function(config, field, value):
    if field == "generator.perturbation":
        return dict(config, generator={"name": "add", "perturbation": value})
    return dict(config, **{field: value})


def _bad_csv(tmp_path, case):
    # a file the CSV reader must refuse, or a path it cannot read
    path = tmp_path / "in.csv"
    grid = make_grid(40.0, 1024)
    if case == "off-grid":
        write_gridfunction_csv(builtin_function("gaussian", make_grid(20.0, 1024)), path)
        return path
    if case == "missing":
        return tmp_path / "absent.csv"
    if case == "directory":
        path.mkdir()
        return path
    write_gridfunction_csv(builtin_function("gaussian", grid), path)
    header, *rows = path.read_text().splitlines()
    if case == "bad-header":
        header = "x,real,imag"
    elif case == "two-fields":
        rows = [r.rsplit(",", 1)[0] for r in rows]
    elif case == "nan-cell":
        rows[5] = rows[5].split(",")[0] + ",nan,0"
    elif case == "non-numeric-cell":
        rows[5] = rows[5].split(",")[0] + ",abc,0"
    elif case == "header-only":
        rows = []
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


@pytest.mark.parametrize(
    "case",
    ["off-grid", "bad-header", "two-fields", "nan-cell", "non-numeric-cell", "header-only",
     "missing", "directory"],
)
@pytest.mark.parametrize("command, base, field", FUNCTION_FIELDS, ids=_field_id)
def test_bad_csv_input_named_by_field_exit_1(tmp_path, capsys, command, base, field, case):
    config = _with_function(base, field, str(_bad_csv(tmp_path, case)))
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert f"field '{field}'" in err["message"]
    assert not out.exists()


def _complex_csv(tmp_path):
    grid = make_grid(40.0, 1024)
    path = tmp_path / "complex.csv"
    write_gridfunction_csv(GridFunction(grid, 0.3 * np.exp(-grid.x**2 / 2 + 1j * grid.x)), path)
    return str(path)


@pytest.mark.parametrize(
    "command, base, field",
    [
        ("solve-nonlinear", NONLINEAR_CFG, "G"),
        ("solve-nonlinear", NONLINEAR_CFG, "v0"),
        ("sequence", KERNEL_SEQUENCE_CFG, "base"),
        ("sequence", KERNEL_SEQUENCE_CFG, "generator.perturbation"),
    ],
    ids=_field_id,
)
def test_complex_input_to_the_fixed_point_map_named_by_field(
    tmp_path, capsys, command, base, field
):
    # F is defined on real iterates: refused on loading, before the
    # stability report runs, not at the map's second step
    config = _with_function(base, field, _complex_csv(tmp_path))
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert f"field '{field}' must be real-valued" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, base, field",
    [
        ("constants", CONSTANTS_CFG, "G"),
        ("sequence", SEQUENCE_CFG, "base"),
        ("sequence", SEQUENCE_CFG, "generator.perturbation"),
    ],
    ids=_field_id,
)
def test_complex_input_to_a_linear_command_runs(tmp_path, command, base, field):
    # as a complex f does (test_solution_csv_bytes_match_percent_g17[complex-csv])
    config = _with_function(base, field, _complex_csv(tmp_path))
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)]) == 0


def test_error_object_is_the_last_stderr_line(tmp_path):
    # Python warnings go to stderr before the error object: here the
    # band-edge warning of the stability report of an unresolved kernel
    config = dict(
        NONLINEAR_CFG,
        N=64,
        G={"name": "gaussian", "params": {"sigma": 0.05, "amplitude": 3}},
        F={"name": "tanh", "params": {"slope": 5}},
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shiftspec.cli", "solve-nonlinear",
         "--config", write_cfg(tmp_path, config), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr.splitlines()[-1])
    jsonschema.validate(err, schema("error"))
    assert err["error"]["type"] == "ContractionHypothesisFailed"
