"""A seeded config fuzzer: random configs for the five commands, drawn
from the grammar the CLI and the catalog already hold as data
(``cli._CONFIG_KEYS``, ``cli._SPECS``, ``catalog.builtin_parameters``),
each run through ``cli.main`` against the README exit contract.

A run exits 0; or 1 with a ConfigError naming a field, NearSingularGrid
or MaxIterExceeded; or 2 with a HypothesisError.  Never a bare
ValueError, OverflowError, KeyError, MemoryError or anything else.

Each config is drawn valid (N <= 256, M <= 4), and most then have one
field broken: a range edge (0, +-1e+-308, subnormals, integers beyond
the float range), a wrong type (booleans too), a size above its bound, a
missing or an unknown key.  A ConfigError must then name the broken
field.  A size (N, num_points, M) above its bound runs with the grid,
the spectrum's frequencies and both sequence runners patched to refuse,
so a missing bound fails fast instead of allocating.  Every fourth run
that exits 0 runs again and must leave the same bytes.  (Miller,
Fredriksen & So, CACM 33(12), 1990; Claessen & Hughes, QuickCheck, ICFP
2000.)
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np

from shiftspec import catalog, cli, errors, sequences
from shiftspec.spectral import MAX_POINTS

RUNS = 300
SIZE_BOUNDS = {"N": MAX_POINTS, "num_points": MAX_POINTS, "M": sequences.MAX_MEMBERS}
EDGES = [0, 0.0, -0.0, 1e308, -1e308, 1e-308, -1e-308, 5e-324, -5e-324, 10**309, -(10**400)]
WRONG = [True, False, "1", None, [], {}]
# valid draws of each number: top-level keys and builtin parameters
VALID = {
    "a": (0.3, 3.0),
    "h": (-3.0, 3.0),
    "L": (5.0, 40.0),
    "p_min": (-10.0, 0.0),
    "p_max": (0.0, 10.0),
    "tol_orth": (1e-10, 1e-4),
    "tol_h2": (1e-10, 1e-4),
    "epsilon": (0.05, 0.9),
    "sigma": (0.3, 2.0),
    "center": (-2.0, 2.0),
    "amplitude": (-0.5, 0.5),
    "scale": (0.3, 2.0),
    "freq": (0.0, 3.0),
    "width": (0.3, 2.0),
    "slope": (0.0, 0.2),
}


def _hypothesis_errors():
    return {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.HypothesisError)
    }


# exit status -> the error types the README allows with it
ALLOWED = {1: {"ConfigError", "NearSingularGrid", "MaxIterExceeded"}, 2: _hypothesis_errors()}


class Draw:
    """Random configs from one numpy generator."""

    def __init__(self, rng):
        self.rng = rng

    def chance(self, p):
        return self.rng.random() < p

    def pick(self, options):
        return options[self.rng.integers(len(options))]

    # valid values

    def number(self, key):
        lo, hi = VALID[key]
        if key in ("tol_orth", "tol_h2"):
            return float(10.0 ** self.rng.uniform(np.log10(lo), np.log10(hi)))
        return float(self.rng.uniform(lo, hi))

    def integer(self, key):
        if key == "N":
            return 2 * int(self.rng.integers(4, 129))
        if key == "num_points":
            return int(self.rng.integers(2, 257))
        if key == "M":
            return int(self.rng.integers(1, 5))
        return int(self.rng.integers(1, 65))  # max_iter

    def function(self):
        names = catalog.builtin_parameters("function")
        name = self.pick(sorted(names))
        spec = {"name": name}
        if names[name] and self.chance(0.7):
            spec["params"] = {p: self.param(p) for p in names[name] if self.chance(0.6)}
        return spec

    def param(self, param):
        if param == "offset":
            return self.function() if self.chance(0.7) else self.pick(["gaussian", "zero"])
        return self.number(param)

    def nonlinearity(self):
        names = catalog.builtin_parameters("nonlinearity")
        name = self.pick(sorted(names))
        spec = {"name": name}
        if names[name] and self.chance(0.8):
            spec["params"] = {p: self.param(p) for p in names[name] if self.chance(0.6)}
        slope = spec.get("params", {}).get("slope", 0.1 if name == "tanh" else 0.0)
        for constant, kind in cli._SPECS["nonlinearity"][0].items():
            if kind == "constant" and self.chance(0.5):
                # most configs restate the builtin's own constant; any larger one holds too
                spec[constant] = slope + (0.0 if self.chance(0.7) else self.rng.uniform(0.0, 0.3))
        return spec

    def value(self, key, kind):
        if kind == "number":
            return self.number(key)
        if kind == "integer":
            return self.integer(key)
        if kind == "function":
            return self.function()
        if kind == "nonlinearity":
            return self.nonlinearity()
        if kind == "generator":
            gen = {"name": self.pick(list(sequences.BUILTIN_SEQUENCES))}
            if gen["name"] == "add" or self.chance(0.3):
                gen["perturbation"] = self.function()
            return gen
        if kind == "kind":
            return self.pick(["rhs", "kernel"])
        return "zero"  # v0

    def config(self, command):
        keys = cli._CONFIG_KEYS[command]
        cfg = {k: self.value(k, kind) for k, (kind, req) in keys.items() if req or self.chance(0.5)}
        if command == "spectrum" and cfg["p_min"] > cfg["p_max"]:
            cfg["p_min"], cfg["p_max"] = cfg["p_max"], cfg["p_min"]
        if command == "sequence" and cfg["kind"] == "kernel":
            cfg["epsilon"] = self.number("epsilon")
            cfg["F"] = self.nonlinearity()
        if command != "spectrum" and self.chance(0.15):
            cfg["h"] = 2 * np.pi * int(self.rng.integers(1, 3)) / np.sqrt(cfg["a"])  # resonant
        return cfg

    # broken values

    def bad_number(self):
        return self.pick(EDGES + WRONG) if self.chance(0.8) else self.pick(WRONG)

    def bad_spec(self, kind, spec):
        """spec with one nested field broken, and that field's path."""
        if isinstance(spec, str) or self.chance(0.15):
            return self.pick(["missing.csv", "nope", 3, None, ["gaussian"]]), ""
        spec = json.loads(json.dumps(spec))
        known = catalog.builtin_parameters(kind)
        roll = self.rng.random()
        if roll < 0.15:
            spec["name"] = self.pick(["nope", 1, True])
            return spec, ".name"
        if roll < 0.25 or not known[spec["name"]]:
            spec.setdefault("params", {})["bogus"] = 1.0
            return spec, ".params"
        constants = [k for k, sub in cli._SPECS[kind][0].items() if sub == "constant"]
        if constants and roll < 0.45:
            constant = self.pick(constants)
            spec[constant] = self.bad_number() if self.chance(0.7) else 0.05
            return spec, f".{constant}"
        param = self.pick(list(known[spec["name"]]))
        if param == "offset":
            value, path = self.bad_spec("function", spec.get("params", {}).get(param, "zero"))
        else:
            value, path = self.bad_number(), ""
        spec.setdefault("params", {})[param] = value
        return spec, f".params.{param}{path}"

    def break_one(self, command, cfg):
        """Break one field of cfg in place; the name of the field broken."""
        keys = cli._CONFIG_KEYS[command]
        roll = self.rng.random()
        sizes = [k for k in keys if k in SIZE_BOUNDS]
        if roll < 0.25 and sizes:
            key = self.pick(sizes)
            if self.chance(0.6):
                cfg[key] = SIZE_BOUNDS[key] + self.pick([1, 2, 10**10])
            else:
                cfg[key] = self.pick([9, 255, 1, 0, -8, 8.0, True, 10**309])
            return key
        if roll < 0.5:
            key = self.pick([k for k in keys if keys[k][0] in ("number", "integer")])
            cfg[key] = self.bad_number()
            return key
        specs = [k for k in keys if keys[k][0] in ("function", "nonlinearity")]
        if roll < 0.8 and specs:
            key = self.pick(specs)
            spec, path = self.bad_spec(keys[key][0], cfg.get(key) or self.value(key, keys[key][0]))
            cfg[key] = spec
            return key + path
        if self.chance(0.5):
            key = self.pick([k for k in keys if keys[k][1]])
            del cfg[key]
            return key
        cfg["bogus"] = 1
        return "bogus"


def _oversize(cfg):
    return any(
        isinstance(cfg.get(key), int) and not isinstance(cfg.get(key), bool) and cfg[key] > bound
        for key, bound in SIZE_BOUNDS.items()
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _files(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())} if outdir.exists() else {}


def _names(message, key):
    return re.search(rf"\b{re.escape(key)}\b", message) is not None


def test_fuzzed_configs_meet_the_exit_contract(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a size above its bound reached an allocation")

    draw = Draw(np.random.default_rng(20261019))
    commands = sorted(cli._CONFIG_KEYS)
    outcomes, reruns = [], 0
    for i in range(RUNS):
        command = draw.pick(commands)
        cfg = draw.config(command)
        broken = draw.break_one(command, cfg) if draw.chance(0.65) else None
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{i}"
        argv = [command, "--config", str(path), "--out", str(out)]
        with monkeypatch.context() as m:
            if _oversize(cfg):
                for name in ("make_grid", "run_linear_sequence", "run_kernel_sequence"):
                    m.setattr(cli, name, refuse)
                m.setattr(cli.np, "linspace", refuse)
            rc, stdout, stderr = _run(argv)
        case = f"run {i}: {command} {json.dumps(cfg)} ({broken})\n-> exit {rc}: {stderr[-400:]}"
        if rc == 0:
            assert stderr == "", case
            if len(outcomes) % 4 == 0:
                again = _run([*argv[:-1], str(tmp_path / f"rerun{i}")])
                assert again[0] == 0 and _files(tmp_path / f"rerun{i}") == _files(out), case
                assert again[1].replace(f"rerun{i}", f"out{i}") == stdout, case
                reruns += 1
            outcomes.append("ok")
            continue
        error = json.loads(stderr.splitlines()[-1])["error"]
        assert error["type"] in ALLOWED.get(rc, ()), case
        if error["type"] == "ConfigError":
            # the broken field, or for a valid config some field of it
            named = [broken.split(".")[0]] if broken else list(cfg)
            assert any(_names(error["message"], key) for key in named), case
        assert not out.exists(), case
        outcomes.append(error["type"])
    # every outcome class is reached
    counts = {kind: outcomes.count(kind) for kind in set(outcomes)}
    assert counts.get("ok", 0) >= RUNS // 5 and reruns >= 10, counts
    assert counts.get("ConfigError", 0) >= RUNS // 5, counts
    assert any(kind in ALLOWED[2] for kind in counts), counts
