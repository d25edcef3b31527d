"""Convergence experiments for perturbed right-hand sides and kernels.

A sequence run solves the limit problem and every member problem on one
grid and tabulates the input gaps against the solution gaps, together
with the inequalities the solution theory predicts between them
(stability bounds, multiplier-gap bounds, uniform contraction margins).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractionHypothesisFailed, NotFinite, ResonantNotSolvable
from .kernels import stability_constant
from .linear import divide_by_symbol, project_solvable
from .nonlinear import DEFAULT_TOL_H2, Nonlinearity, iterate_fixed_point
from .spectral import (
    SQRT_2PI,
    GridFunction,
    l1_norm,
    l2_norm,
    second_derivative_norm,
    weighted_l1_norm,
)
from .symbols import DEFAULT_TOL_ORTH, ShiftParams, classify
from .textio import write_float_rows


# Largest member count M a sequence run may ask for.  Each member is a
# full solve on the run's grid, so M sizes a run's time as N sizes its
# memory; the bound is over 300 times the M = 12 of the shipped configs
MAX_MEMBERS = 4096


class SequenceKind(enum.Enum):
    RHS = "RhsSequence"
    KERNEL = "KernelSequence"


@dataclass(frozen=True)
class SequenceSpec:
    """A family of inputs indexed by m = 1..M together with its limit.

    epsilon is the uniform contraction slack required of kernel
    sequences (2*sqrt(pi)*N_m*l <= 1 - epsilon for every member).
    """

    kind: SequenceKind
    generator: Callable[[int], GridFunction]
    limit: GridFunction
    M: int
    epsilon: float | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        # NaN and inf fail this, and every int passes
        if not self.M < np.inf:
            raise ValueError(f"M must be finite, got {self.M}")
        if self.kind is SequenceKind.KERNEL:
            if self.epsilon is None or not 0.0 < self.epsilon < 1.0:
                raise ValueError("kernel sequences require epsilon in (0, 1)")


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    input_gap: float
    weighted_gap: float
    solution_gap_h2: float
    solution_gap_l2: float
    d2_gap: float
    multiplier_gap: float | None = None
    multiplier_gap_p2: float | None = None
    N_m: float | None = None


@dataclass(frozen=True)
class ConvergenceTable:
    kind: SequenceKind
    rows: list[ConvergenceRow]
    checks: dict[str, bool]
    alpha: float | None
    N_limit: float | None = None
    q_limit: float | None = None
    epsilon: float | None = None

    def column(self, name):
        return [getattr(r, name) for r in self.rows]


def _trend_checks(rows):
    first, last = rows[0], rows[-1]
    net = last.solution_gap_h2 <= first.solution_gap_h2 + 1e-15
    if first.input_gap == 0.0 and first.solution_gap_h2 == 0.0:
        ratio_ok = True
    elif first.input_gap == 0.0 or first.solution_gap_h2 == 0.0:
        ratio_ok = last.solution_gap_h2 <= 1e-12
    else:
        ratio_ok = (last.solution_gap_h2 / first.solution_gap_h2) <= (
            10.0 * last.input_gap / first.input_gap + 1e-15
        )
    return net, ratio_ok


def _solution_gaps(diff_u: GridFunction) -> dict:
    """H2 (h2_norm's formula), L2 and second-derivative norms of a gap."""
    l2, d2 = l2_norm(diff_u), second_derivative_norm(diff_u)
    return dict(solution_gap_h2=float(np.sqrt(l2**2 + d2**2)), solution_gap_l2=l2, d2_gap=d2)


def run_linear_sequence(
    spec: SequenceSpec,
    params: ShiftParams,
    tol_orth: float = DEFAULT_TOL_ORTH,
) -> ConvergenceTable:
    """Solve the family -u_m'' - a u_m(x-h) = f_m and its limit problem.

    The limit is solved first, then each member once.  A resonant run
    aborts at the first right-hand side violating the orthogonality
    conditions (ResonantNotSolvable naming the limit or member m, with
    its report), after the members before it have been solved.
    Non-resonant rows are checked against the stability bound
    ||u_m - u||_L2 <= ||f_m - f||_L2 / sqrt(alpha) and every row against
    the second-derivative bound
    ||u_m'' - u''|| <= a ||u_m - u|| + ||f_m - f||.

    Each solve is :func:`divide_by_symbol` (2 FFTs), not
    :func:`solve_linear`: the table reads only u, so a solve's residual
    and H2 norm (2 more FFTs and a Parseval sum) would be thrown away.
    """
    if spec.kind is not SequenceKind.RHS:
        raise ValueError("run_linear_sequence expects a right-hand-side sequence")

    def solve(f, label):
        try:
            return divide_by_symbol(f, params, tol_orth).u
        except ResonantNotSolvable as exc:
            raise ResonantNotSolvable(label, exc.report) from exc

    f_limit = spec.limit
    u_limit = solve(f_limit, "limit right-hand side violates orthogonality")
    rows = []
    for m in range(1, spec.M + 1):
        fm = spec.generator(m)
        um = solve(fm, f"member m={m} violates the orthogonality conditions")
        diff_f = fm - f_limit
        rows.append(
            ConvergenceRow(
                m=m,
                input_gap=l2_norm(diff_f),
                weighted_gap=weighted_l1_norm(diff_f),
                **_solution_gaps(um - u_limit),
            )
        )
    cls = classify(params)
    checks = {}
    if not cls.is_resonant:
        checks["stability_bound"] = all(
            r.solution_gap_l2 <= r.input_gap / np.sqrt(cls.alpha) * 1.1 + 1e-15 for r in rows
        )
    checks["second_derivative_bound"] = all(
        r.d2_gap <= params.a * r.solution_gap_l2 + r.input_gap + 1e-9 for r in rows
    )
    checks["net_decrease"], checks["gap_ratio"] = _trend_checks(rows)
    return ConvergenceTable(
        kind=spec.kind,
        rows=rows,
        checks=checks,
        alpha=cls.alpha,
    )


def run_kernel_sequence(
    spec: SequenceSpec,
    F: Nonlinearity,
    params: ShiftParams,
    tol_orth: float = DEFAULT_TOL_ORTH,
    tol_h2: float = DEFAULT_TOL_H2,
) -> ConvergenceTable:
    """Solve the nonlocal problem for the limit G, then for every kernel G_m.

    Each kernel is solved once; its solve's stability report gives N_m
    (N_limit for G).  The run aborts at the first failing kernel, after
    the members before it have been solved: NotFinite (with the report)
    or ContractionHypothesisFailed from the solve, labelled "limit
    kernel" or "member m=...", or a member missing the uniform margin
    2*sqrt(pi)*N_m*l <= 1 - epsilon.  The run records whether the limit
    inherits the margin, the sup-norm gaps of both symbol quotients, and
    the bounds tying them to ||G_m - G||_L1.

    Each solve is :func:`iterate_fixed_point` (2k + 2 FFTs for k
    iterations), not :func:`fixed_point_solve`: the table reads only u
    and the stability report, so a solve's residual (2 FFTs and the
    O(N*K) direct sum), tail bound and nontriviality check (2 FFTs)
    would be thrown away.
    """
    if spec.kind is not SequenceKind.KERNEL:
        raise ValueError("run_kernel_sequence expects a kernel sequence")
    eps = spec.epsilon
    G = spec.limit
    two_sqrt_pi_l = 2.0 * np.sqrt(np.pi) * F.l

    def solve(kernel, label):
        try:
            return iterate_fixed_point(kernel, F, params, tol_h2=tol_h2, tol_orth=tol_orth)
        except NotFinite as exc:
            raise NotFinite(f"{label} violates the orthogonality conditions", exc.report) from exc
        except ContractionHypothesisFailed as exc:
            raise ContractionHypothesisFailed(f"{label}: {exc}") from exc

    limit = solve(G, "limit kernel")
    report_limit = limit.stability
    cls = report_limit.classification
    rows = []
    tri_ok = True
    orth_emerges = True
    for m in range(1, spec.M + 1):
        Gm = spec.generator(m)
        member = solve(Gm, f"member m={m}")
        N_m = member.stability.N
        if two_sqrt_pi_l * N_m > 1.0 - eps:
            raise ContractionHypothesisFailed(
                f"member m={m}: 2*sqrt(pi)*N_m*l = {two_sqrt_pi_l * N_m:.6g} "
                f"> 1 - epsilon = {1.0 - eps:.6g}"
            )
        diff = Gm - G
        # the sup-norm gaps of both quotients are the stability components
        # of the difference kernel (same singular-bin handling); twice a
        # tolerance near the float maximum stays at the maximum
        diff_tol = min(2.0 * tol_orth + 1e-15, np.finfo(np.float64).max)
        diff_rep = stability_constant(diff, params, tol_orth=diff_tol)
        gap1, gap2 = diff_rep.sup1, diff_rep.sup2
        sup_dGh = diff_rep.ghat_sup
        input_gap = l1_norm(diff)
        tri_ok &= gap2 <= params.a * gap1 + sup_dGh + 1e-9
        if cls.is_resonant:
            orth_emerges &= (
                max(abs(report_limit.Ghat_plus), abs(report_limit.Ghat_minus))
                <= input_gap / SQRT_2PI + tol_orth
            )
        rows.append(
            ConvergenceRow(
                m=m,
                input_gap=input_gap,
                weighted_gap=weighted_l1_norm(diff),
                **_solution_gaps(member.u - limit.u),
                multiplier_gap=gap1,
                multiplier_gap_p2=gap2,
                N_m=N_m,
            )
        )
    checks = {
        "uniform_margin": True,  # gated above
        "limit_margin": bool(two_sqrt_pi_l * report_limit.N <= 1.0 - eps),
        "triangle_consistency": bool(tri_ok),
    }
    if not cls.is_resonant:
        bound = 1.1 / np.sqrt(2.0 * np.pi * cls.alpha)
        checks["multiplier_bound"] = all(
            r.multiplier_gap <= bound * r.input_gap + 1e-15 for r in rows
        )
        checks["N_gap_bound"] = all(
            abs(r.N_m - report_limit.N) <= bound * r.input_gap + 1e-15 for r in rows
        )
    else:
        checks["limit_orthogonality"] = bool(orth_emerges)
    checks["net_decrease"], checks["gap_ratio"] = _trend_checks(rows)
    return ConvergenceTable(
        kind=spec.kind,
        rows=rows,
        checks=checks,
        alpha=cls.alpha,
        N_limit=report_limit.N,
        q_limit=float(two_sqrt_pi_l * report_limit.N),
        epsilon=eps,
    )


# --- builtin generators -------------------------------------------------


def _mollified_cutoff(x, m):
    # 1 on |x| <= m, gaussian ramp outside; 1 - chi vanishes inside, so
    # the perturbation is supported on |x| > m and dominated by the tail
    # of the base function there
    t = np.maximum(np.abs(x) - m, 0.0)
    return np.exp(-(t**2))


BUILTIN_SEQUENCES = ("add", "scale", "truncate")


def builtin_sequences(
    name: str,
    kind: SequenceKind,
    base: GridFunction,
    M: int = 12,
    perturbation: GridFunction | None = None,
    shift_params: ShiftParams | None = None,
    epsilon: float | None = None,
) -> SequenceSpec:
    """Catalog of reproducible sequences converging to a known limit.

    scale     members base*(1 - 1/m); gap norms scale exactly as 1/m of
              the base norm (homogeneity).
    add       members base + perturbation/m; gaps are 1/m times the
              perturbation norms.  In resonant runs the perturbation
              must itself satisfy the orthogonality conditions for the
              hypotheses to hold at every m.
    truncate  members are the base cut off smoothly beyond |x| = m, so
              the gap is bounded by the base's tail beyond m (L2 tail
              for right-hand sides, L1 tail for kernels); with resonant
              shift_params each member and the limit are re-projected
              onto the orthogonal complement.
    """
    if name == "scale":
        limit = base
        gen = lambda m: base * (1.0 - 1.0 / m)
    elif name == "add":
        if perturbation is None:
            raise ValueError("'add' requires a perturbation function")
        limit = base
        gen = lambda m: base + perturbation * (1.0 / m)
    elif name == "truncate":
        reproject = (
            shift_params is not None and classify(shift_params).is_resonant
        )
        def _member(m):
            cut = GridFunction(base.grid, base.values * _mollified_cutoff(base.grid.x, m))
            return project_solvable(cut, shift_params) if reproject else cut
        limit = project_solvable(base, shift_params) if reproject else base
        gen = _member
    else:
        raise KeyError(
            f"unknown sequence builtin {name!r}; available: {', '.join(BUILTIN_SEQUENCES)}"
        )
    return SequenceSpec(kind=kind, generator=gen, limit=limit, M=M, epsilon=epsilon)


_CSV_COLUMNS = ["m", "input_gap", "weighted_gap", "solution_gap_h2", "multiplier_gap", "N_m"]


def write_table_csv(table: ConvergenceTable, path) -> None:
    """Emit the table as m,input_gap,weighted_gap,solution_gap_h2,
    multiplier_gap,N_m (kernel-only columns empty for rhs runs), CRLF
    line ends, each number in 17 significant digits (:func:`write_float_rows`)."""
    kernel = table.kind is SequenceKind.KERNEL
    columns = _CSV_COLUMNS if kernel else _CSV_COLUMNS[:4]
    with open(path, "wb") as fh:
        fh.write(",".join(_CSV_COLUMNS).encode() + b"\r\n")
        write_float_rows(fh, list(map(table.column, columns)), b"\r\n" if kernel else b",,\r\n")
