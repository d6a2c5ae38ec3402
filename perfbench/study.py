"""Workloads, the convergence study timed from outside, and its checks.

The study takes the same steps as `hho.harness.run_study` (generate, DofMap,
build_packs, newton_solve, compute_errors) but calls them one by one, so
set-up, solve and error evaluation are timed apart without touching the
library.  Every library call goes through a module attribute (`solver.X`,
`harness.X`, ...), so a tracer that swaps those attributes records spans
around the same code path.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from hho import harness, mesh as mesh_mod, solver
from hho.fields import random_wave_field
from hho.law import p_laplacian

CONDENSATION_TOL = 1e-10      # criterion 8's tolerance
ENERGY_DIRECTIONS = 3
ENERGY_STEP = 1e-3            # step along each unit direction, max-norm


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    k: int
    p: float
    condense: bool
    levels: tuple = (2, 3, 4)
    case: str = "trigonometric"

    def law(self):
        return p_laplacian(self.p)

    def config(self) -> solver.NewtonConfig:
        return solver.NewtonConfig(condense=self.condense)


WORKLOADS = {w.name: w for w in (
    Workload("tri-k1-p1.75-trig", "triangular", 1, 1.75, False),
    Workload("cart-k3-p2-trig", "cartesian", 3, 2.0, False),
    Workload("hex-k1-p3-trig-condensed", "hexagonal", 1, 3.0, True),
)}


@dataclass
class Finest:
    """What the checks and probes need from the finest level."""
    mesh: object
    dm: solver.DofMap
    packs: list
    U: np.ndarray
    source: object


@dataclass
class Round:
    """One study over all levels of a workload."""
    study: harness.StudyResult
    study_s: float
    setup_s: list = field(default_factory=list)     # per level
    solve_s: list = field(default_factory=list)
    errors_s: list = field(default_factory=list)
    coarsest_U: np.ndarray | None = None
    finest: Finest | None = None


def run_round(w: Workload, law, tracer=None) -> Round:
    """Run the study once; `law` is handed to newton_solve as it is."""
    base_law = w.law()
    u = harness.manufactured_solution(w.case)
    cfg = w.config()
    rows = []
    hits = 0
    rnd = Round(study=None, study_s=0.0)
    t_start = time.perf_counter()
    for lvl in w.levels:
        with tracer.span(f"study.level_{lvl}") if tracer else nullcontext():
            t0 = time.perf_counter()
            mesh = mesh_mod.generate(w.family, lvl)
            dm = solver.DofMap(mesh, w.k)
            packs = solver.build_packs(mesh, w.k, cfg.boost)
            t1 = time.perf_counter()
            source = harness.manufactured_source(u, base_law)
            U, report, _, _ = solver.newton_solve(
                mesh, w.k, law, source=source, dirichlet=u, config=cfg,
                packs=packs, dm=dm)
            t2 = time.perf_counter()
            errors = harness.compute_errors(dm, packs, base_law, U, u)
            t3 = time.perf_counter()
        hits += source.singular_hits
        rows.append(harness.StudyRow(
            level=lvl, h=mesh.h_max, ndofs=dm.ndofs, errors=errors,
            newton_iters=report.newton_iters, report=report))
        rnd.setup_s.append(t1 - t0)
        rnd.solve_s.append(t2 - t1)
        rnd.errors_s.append(t3 - t2)
        if lvl == w.levels[0]:
            rnd.coarsest_U = U
    rnd.study_s = time.perf_counter() - t_start
    rnd.finest = Finest(mesh=mesh, dm=dm, packs=packs, U=U, source=source)
    rnd.study = harness.StudyResult(family=w.family, k=w.k, law=base_law,
                                    case=w.case, rows=rows,
                                    singular_hits=hits)
    return rnd


def coarsest_reference(w: Workload) -> np.ndarray:
    """Uncondensed solution at the coarsest level (criterion 8's oracle)."""
    law = w.law()
    u = harness.manufactured_solution(w.case)
    mesh = mesh_mod.generate(w.family, w.levels[0])
    U, report, _, _ = solver.newton_solve(
        mesh, w.k, law, source=harness.manufactured_source(u, law),
        dirichlet=u, config=solver.NewtonConfig(condense=False))
    if not report.converged:
        raise RuntimeError(f"{w.name}: reference solve did not converge")
    return U


# ---------------------------------------------------------------------------
# checks: properties the method must have, not stored numbers


def order_failure(w: Workload, study: harness.StudyResult) -> str | None:
    """Why the EOC between the two finest levels misses the paper's order
    with the acceptance suite's slack (criteria 3 to 6), or None."""
    eoc = study.eoc("err_1ph")[-1]
    k, p = w.k, w.p
    if eoc is None:
        return "EOC undefined (nonpositive error)"
    if p == 2:
        if abs(eoc - (k + 1)) > 0.2:
            return f"EOC {eoc:.3f} not within 0.2 of {k + 1}"
        return None
    need = (k + 1) * (p - 1) - 0.25 if p < 2 else (k + 1) / (p - 1) - 0.2
    if eoc < need:
        return f"EOC {eoc:.3f} below {need:.3f}"
    return None


def _bubble(f):
    """f times x(1-x)y(1-y), which vanishes on the unit square's boundary."""
    def g(pts):
        x, y = pts[:, 0], pts[:, 1]
        return f(pts) * x * (1 - x) * y * (1 - y)
    return g


def energy_directions(dm, packs, rng, n: int = ENERGY_DIRECTIONS):
    """Smooth random directions that vanish on the boundary, max-norm 1."""
    out = []
    for _ in range(n):
        v = solver.interpolate_global(dm, packs,
                                      _bubble(random_wave_field(rng)))
        v[dm.boundary_dofs] = 0.0
        out.append(v / np.max(np.abs(v)))
    return out


def energy_margin(w: Workload, fin: Finest, directions) -> float:
    """min over directions and signs of E(U +- step v) - E(U).

    The discrete solution minimises the energy over the interior dofs, so
    the margin must be positive."""
    law = w.law()
    loads = solver.compute_loads(fin.packs, fin.source)
    e0 = solver.energy(fin.dm, fin.packs, law, fin.U, loads)
    margin = math.inf
    for v in directions:
        for sign in (1.0, -1.0):
            e = solver.energy(fin.dm, fin.packs, law,
                              fin.U + sign * ENERGY_STEP * v, loads)
            margin = min(margin, e - e0)
    return margin


@dataclass
class Operation:
    """One level's solve together with its checks."""
    level: int
    failures: list = field(default_factory=list)


def check_round(w: Workload, rnd: Round, rng, first_csv: str | None,
                reference_U: np.ndarray | None) -> tuple[list, dict]:
    """Operations of one round with their failed checks, and the figures
    the checks measured."""
    rows = rnd.study.rows
    ops = [Operation(level=r.level) for r in rows]
    for i, (op, row) in enumerate(zip(ops, rows)):
        if not row.report.converged:
            op.failures.append("newton_solve did not converge")
        if not math.isfinite(row.errors.err_1ph):
            op.failures.append("err_1ph not finite")
        if i > 0 and not row.errors.err_1ph < rows[i - 1].errors.err_1ph:
            op.failures.append("err_1ph did not fall from the previous level")
    finest = ops[-1]
    failure = order_failure(w, rnd.study)
    if failure:
        finest.failures.append(failure)
    fin = rnd.finest
    margin = energy_margin(w, fin, energy_directions(fin.dm, fin.packs, rng))
    if not margin > 0.0:
        finest.failures.append(f"energy not minimal: margin {margin:.3e}")
    csv = harness.study_to_csv(rnd.study)
    if first_csv is not None and csv != first_csv:
        finest.failures.append("study CSV differs from the first round")
    figures = {"eoc_1ph": rnd.study.eoc("err_1ph")[-1],
               "energy_margin": margin}
    if reference_U is not None:
        gap = float(np.max(np.abs(rnd.coarsest_U - reference_U)))
        figures["condensation_gap"] = gap
        if not gap <= CONDENSATION_TOL:
            ops[0].failures.append(
                f"condensed and full solutions differ by {gap:.3e}")
    return ops, figures
