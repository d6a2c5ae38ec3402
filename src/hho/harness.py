"""Convergence studies against manufactured solutions.

The source term is derived from the exact solution through the chain rule,
f = -tr(Da(grad u) H u), so any law with an exact flux Jacobian can be paired
with any smooth field.  Error histories are written as deterministic CSV
(floats via repr, so files are bit-identical across runs) together with a
small gnuplot script for log-log inspection.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, exp_field, sine_product_field
from .law import LerayLionsLaw
from .mesh import generate
from .solver import (DofMap, NewtonConfig, SolveReport, interpolate_global,
                     newton_solve, shared_operators)

CASES = ("exponential", "trigonometric")


def manufactured_solution(case: str) -> ScalarField:
    if case == "exponential":
        return exp_field(1.0, math.pi)
    if case == "trigonometric":
        return sine_product_field(math.pi, math.pi)
    raise ValueError(f"unknown case {case!r}; pick one of {CASES}")


def manufactured_source(u: ScalarField, law: LerayLionsLaw,
                        singular_floor: float = 1e-13):
    """f = -div a(grad u) evaluated pointwise via the flux Jacobian.

    For p < 2 the Jacobian is singular where grad u vanishes (isolated
    critical points of the trigonometric solution).  Nodes with
    |grad u| < singular_floor are evaluated with the floor-regularized
    Jacobian instead; `f.singular_hits` counts these events.
    """
    def f(pts):
        g = u.gradient(pts)
        H = u.hessian(pts)
        tiny = np.hypot(g[:, 0], g[:, 1]) < singular_floor
        Da = law.flux_jacobian(pts, g)
        if np.any(tiny):
            f.singular_hits += int(np.count_nonzero(tiny))
            Da[tiny] = law.flux_jacobian(pts[tiny], g[tiny],
                                         eps=singular_floor)
        return -np.einsum("qab,qba->q", Da, H)
    f.singular_hits = 0
    return f


@dataclass
class ErrorBundle:
    err_1ph: float     # discrete W^{1,p} norm of u_h - I_h u
    err_pot: float     # broken W^{1,p} distance of the potential to u
    err_l2: float      # L2 distance of the potential to u


def compute_errors(dm: DofMap, packs, law: LerayLionsLaw, U: np.ndarray,
                   exact: ScalarField) -> ErrorBundle:
    """The three error norms, summed block by block over `dm.blocks`."""
    p = law.p
    V = U - interpolate_global(dm, packs, exact)
    acc1 = accp = accl = 0.0
    for blk, ops in shared_operators(dm, packs):
        Ue, Ve = U[blk.dofs], V[blk.dofs]
        PG = ops.pgrad_q.reshape(-1, ops.ndof)
        D = ops.dval_q.reshape(-1, ops.ndof)
        x = ops.cell_nodes[blk.run].reshape(-1, 2)
        gv = (Ve @ PG.T).reshape(-1, 2)
        acc1 += ops.cell_sum(np.hypot(gv[:, 0], gv[:, 1]) ** p)
        acc1 += ops.face_power(Ve @ D.T, p)
        gd = (Ue @ PG.T).reshape(-1, 2) - exact.gradient(x)
        accp += ops.cell_sum(np.hypot(gd[:, 0], gd[:, 1]) ** p)
        accp += ops.face_power(Ue @ D.T, p)
        accl += ops.cell_sum(((Ue @ ops.pval_q.T).ravel() - exact(x)) ** 2)
    return ErrorBundle(err_1ph=acc1 ** (1.0 / p), err_pot=accp ** (1.0 / p),
                       err_l2=math.sqrt(accl))


@dataclass
class StudyRow:
    level: int
    h: float
    ndofs: int
    errors: ErrorBundle
    newton_iters: int
    report: SolveReport


@dataclass
class StudyResult:
    family: str
    k: int
    law: LerayLionsLaw
    case: str
    rows: list
    singular_hits: int = 0

    @property
    def converged(self) -> bool:
        return all(r.report.converged for r in self.rows)

    def eoc(self, attr: str) -> list:
        """Error-decay orders between consecutive rows; None on the first
        row and wherever an error is zero or negative."""
        out = [None]
        for prev, cur in zip(self.rows, self.rows[1:]):
            e0 = getattr(prev.errors, attr)
            e1 = getattr(cur.errors, attr)
            if e0 <= 0.0 or e1 <= 0.0:
                out.append(None)
            else:
                out.append(math.log(e0 / e1) / math.log(prev.h / cur.h))
        return out


def run_study(family: str, k: int, law: LerayLionsLaw, case: str, levels,
              config: NewtonConfig | None = None) -> StudyResult:
    u = manufactured_solution(case)
    rows = []
    hits = 0
    for lvl in levels:
        mesh = generate(family, lvl)
        source = manufactured_source(u, law)
        U, report, dm, packs = newton_solve(mesh, k, law, source=source,
                                            dirichlet=u, config=config)
        errors = compute_errors(dm, packs, law, U, u)
        hits += source.singular_hits
        rows.append(StudyRow(level=lvl, h=mesh.h_max, ndofs=dm.ndofs,
                             errors=errors, newton_iters=report.newton_iters,
                             report=report))
        if not report.converged:
            break
    return StudyResult(family=family, k=k, law=law, case=case, rows=rows,
                       singular_hits=hits)


CSV_COLUMNS = ("level", "h", "ndofs", "err_1ph", "err_pot", "err_l2",
               "eoc_1ph", "eoc_pot", "eoc_l2", "newton_iters")


def study_to_csv(study: StudyResult) -> str:
    buf = io.StringIO()
    extra = (f" singular_nodes={study.singular_hits}"
             if study.singular_hits else "")
    buf.write(f"# family={study.family} k={study.k} p={study.law.p!r} "
              f"case={study.case}{extra}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    eocs = {a: study.eoc(a) for a in ("err_1ph", "err_pot", "err_l2")}
    for i, row in enumerate(study.rows):
        cells = [str(row.level), repr(float(row.h)), str(row.ndofs),
                 repr(float(row.errors.err_1ph)),
                 repr(float(row.errors.err_pot)),
                 repr(float(row.errors.err_l2))]
        for a in ("err_1ph", "err_pot", "err_l2"):
            v = eocs[a][i]
            cells.append("" if v is None else repr(float(v)))
        cells.append(str(row.newton_iters))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def gnuplot_script(csv_name: str, study: StudyResult) -> str:
    title = (f"{study.family} mesh, k={study.k}, p={study.law.p}, "
             f"{study.case} solution")
    return "\n".join([
        "set logscale xy",
        "set key bottom right",
        "set datafile separator ','",
        f'set title "{title}"',
        'set xlabel "h"',
        'set ylabel "error"',
        f"plot '{csv_name}' using 2:4 with linespoints title 'err\\_1ph', \\",
        f"     '{csv_name}' using 2:5 with linespoints title 'err\\_pot', \\",
        f"     '{csv_name}' using 2:6 with linespoints title 'err\\_l2'",
        "",
    ])
