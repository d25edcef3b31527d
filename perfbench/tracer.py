"""Spans around shiftspec's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every ``shiftspec.*``
namespace that holds it (``from .spectral import forward_transform`` makes
a second binding in ``linear``; both are replaced), plus
``numpy.fft.fft``/``ifft`` for FFT counts, and ``uninstall`` puts the
originals back.  Spans stay in memory: name, job, parent, start, end,
self time, FFTs, and a size or key for the layers that need one.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) -> span name.  Nonlinearity._spot_check is a method,
# rebound on its class; it checks a catalog nonlinearity, so its time goes
# to the catalog layer.
TRACED = {
    ("spectral", "forward_transform"): "spectral.transform",
    ("spectral", "inverse_transform"): "spectral.transform",
    ("spectral", "evaluate_transform_at"): "spectral.offgrid",
    ("spectral", "write_gridfunction_csv"): "spectral.csv_write",
    ("spectral", "read_gridfunction_csv"): "spectral.csv_read",
    ("symbols", "classify"): "symbols.classify",
    ("symbols", "estimate_alpha"): "symbols.estimate_alpha",
    ("linear", "solve_linear"): "linear.solve",
    ("linear", "apply_operator"): "linear.apply_operator",
    ("linear", "project_solvable"): "linear.project",
    ("linear", "check_solvability"): "linear.check_solvability",
    ("kernels", "stability_constant"): "kernels.stability",
    ("nonlinear", "fixed_point_solve"): "nonlinear.solve",
    ("nonlinear", "apply_T"): "nonlinear.apply_T",
    ("nonlinear", "convolve_direct"): "nonlinear.direct_sum",
    ("nonlinear", "Nonlinearity._spot_check"): "catalog",
    ("catalog", "builtin_function"): "catalog",
    ("catalog", "builtin_nonlinearity"): "catalog",
    ("sequences", "builtin_sequences"): "sequences",
    ("sequences", "run_linear_sequence"): "sequences",
    ("sequences", "run_kernel_sequence"): "sequences",
    ("sequences", "write_table_csv"): "sequences",
    ("cli", "main"): "cli",
}


def _grid_key(g):
    return (g.grid.L, g.grid.N, hashlib.sha1(g.values.tobytes()).hexdigest())


def _params_key(params):
    return (params.a, params.h)


# span name -> function of (args, kwargs, result) giving the span's size or key
_ANNOTATE = {
    "spectral.offgrid": lambda args, kw, r: np.size(args[1]) * args[0].grid.N,
    "spectral.csv_write": lambda args, kw, r: args[0].grid.N,
    "spectral.csv_read": lambda args, kw, r: r.grid.N,
    "symbols.classify": lambda args, kw, r: _params_key(args[0]),
    "kernels.stability": lambda args, kw, r: (_grid_key(args[0]), _params_key(args[1])),
    "nonlinear.direct_sum": lambda args, kw, r: args[0].grid.N ** 2,
    "sequences": lambda args, kw, r: getattr(r, "M", 0),  # members of a built spec
}


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    fft_fwd: int = 0
    fft_inv: int = 0
    fft_points: int = 0
    info: object = None

    @property
    def self_s(self):
        return self.end - self.start - self.child_s

    @property
    def ffts(self):
        return self.fft_fwd + self.fft_inv


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    job: int = 0
    fft_fwd: int = 0
    fft_inv: int = 0
    fft_points: int = 0
    _stack: list[int] = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.job, parent, 0.0)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            fwd, inv, pts = self.fft_fwd, self.fft_inv, self.fft_points
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.fft_fwd = self.fft_fwd - fwd
                span.fft_inv = self.fft_inv - inv
                span.fft_points = self.fft_points - pts
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    def _count_fft(self, fn, forward):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self._stack:  # inside shiftspec; the benchmark's own checks do not count
                if forward:
                    self.fft_fwd += 1
                else:
                    self.fft_inv += 1
                self.fft_points += out.shape[-1]
            return out

        return counted

    # -- installation ---------------------------------------------------

    def install(self):
        """Rebind every traced function wherever shiftspec holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "shiftspec" or name.startswith("shiftspec."))
        }
        wrappers = {}
        for (modname, attr), span_name in TRACED.items():
            owner = modules[f"shiftspec.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(span_name, original))
                continue
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, self._wrap(span_name, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(mod, attr, wrappers[id(value)][1])
        self._set(np.fft, "fft", self._count_fft(np.fft.fft, True))
        self._set(np.fft, "ifft", self._count_fft(np.fft.ifft, False))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ----------------------------------------------------

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]


def _ratio(num, den):
    return num / den if den else 0.0


def _distinct_ratio(spans):
    return _ratio(len({(s.job, s.info) for s in spans}), len(spans))


def _self_s(spans):
    return sum(s.self_s for s in spans)


def _info_total(spans):
    return sum(s.info or 0 for s in spans)  # None where the call raised


def layer_metrics(tracer: Tracer, jobs: int, overhead_jobs_per_s: float) -> dict:
    """Per-layer metrics per traced job, as ``name -> (value, unit)``."""
    t = tracer.by_name
    transform, offgrid = t("spectral.transform"), t("spectral.offgrid")
    csv_w, csv_r = t("spectral.csv_write"), t("spectral.csv_read")
    classify, alpha = t("symbols.classify"), t("symbols.estimate_alpha")
    solve, apply_op = t("linear.solve"), t("linear.apply_operator")
    stab = t("kernels.stability")
    fp, apply_T, direct = t("nonlinear.solve"), t("nonlinear.apply_T"), t("nonlinear.direct_sum")
    seq = t("sequences")
    in_fp = [s for s in apply_T if s.parent is not None]
    fp_iters = sum(1 for s in in_fp if tracer.spans[s.parent].name == "nonlinear.solve")
    per = lambda v: v / jobs
    return {
        "spectral.ffts": (per(tracer.fft_fwd + tracer.fft_inv), "count"),
        "spectral.fft_points": (per(tracer.fft_points), "count"),
        "spectral.transform_self_s": (per(_self_s(transform)), "s"),
        "spectral.offgrid_calls": (per(len(offgrid)), "count"),
        "spectral.offgrid_elems": (per(_info_total(offgrid)), "count"),
        "spectral.offgrid_self_s": (per(_self_s(offgrid)), "s"),
        "spectral.csv_write_rows": (per(_info_total(csv_w)), "count"),
        "spectral.csv_write_self_s": (per(_self_s(csv_w)), "s"),
        "spectral.csv_read_rows": (per(_info_total(csv_r)), "count"),
        "spectral.csv_read_self_s": (per(_self_s(csv_r)), "s"),
        "symbols.classify_calls": (per(len(classify)), "count"),
        "symbols.classify_distinct_ratio": (_distinct_ratio(classify), "ratio"),
        "symbols.estimate_alpha_self_s": (per(_self_s(alpha)), "s"),
        "linear.solve_calls": (per(len(solve)), "count"),
        "linear.solve_self_s": (per(_self_s(solve)), "s"),
        "linear.ffts_per_solve": (_ratio(sum(s.ffts for s in solve), len(solve)), "count"),
        "linear.project_calls": (per(len(t("linear.project"))), "count"),
        "linear.check_solvability_calls": (per(len(t("linear.check_solvability"))), "count"),
        "linear.apply_operator_self_s": (per(_self_s(apply_op)), "s"),
        "kernels.stability_calls": (per(len(stab)), "count"),
        "kernels.stability_distinct_ratio": (_distinct_ratio(stab), "ratio"),
        "kernels.stability_self_s": (per(_self_s(stab)), "s"),
        "kernels.ffts_per_stability": (_ratio(sum(s.ffts for s in stab), len(stab)), "count"),
        "nonlinear.apply_T_calls": (per(len(apply_T)), "count"),
        "nonlinear.ffts_per_iteration": (_ratio(sum(s.ffts for s in fp), fp_iters), "count"),
        "nonlinear.apply_T_self_s": (per(_self_s(apply_T)), "s"),
        "nonlinear.solve_self_s": (per(_self_s(fp)), "s"),
        "nonlinear.direct_sum_self_s": (per(_self_s(direct)), "s"),
        "nonlinear.direct_sum_mults": (per(_info_total(direct)), "count"),
        "sequences.self_s": (per(_self_s(seq)), "s"),
        "sequences.members": (per(_info_total(seq)), "count"),
        "catalog.self_s": (per(_self_s(t("catalog"))), "s"),
        "cli.self_s": (per(_self_s(t("cli"))), "s"),
        "trace.overhead_jobs_per_s": (overhead_jobs_per_s, "jobs/s"),
    }
