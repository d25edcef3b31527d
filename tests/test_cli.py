import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from shiftspec import cli
from shiftspec.cli import ConfigError, main, parse_config
from shiftspec.linear import resonant_aligned_half_length
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
    "command, config, rc, error",
    [
        ("solve-linear", dict(LINEAR_CFG, N=1023), 1, "ValueError"),
        ("solve-linear", dict(LINEAR_CFG, f="absent.csv"), 1, "ConfigError"),
        ("solve-linear", dict(LINEAR_CFG, h=2 * np.pi, f={"name": "gaussian"}), 2,
         "ResonantNotSolvable"),
        ("solve-nonlinear", dict(NONLINEAR_CFG, F={"name": "tanh", "params": {"slope": 20.0}}), 2,
         "ContractionHypothesisFailed"),
    ],
    ids=["odd-N", "missing-csv", "resonant", "contraction"],
)
def test_run_rejected_after_parsing_leaves_no_output_dir(
    tmp_path, monkeypatch, capsys, command, config, rc, error
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", str(out)]) == rc
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error
    assert not out.exists()
