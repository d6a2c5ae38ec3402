"""Global assembly and nonlinear solve for the primal HHO discretization.

Unknowns are ordered cells first (one degree-k polynomial block per element)
followed by one degree-k block per face, in mesh face order.  Homogeneous or
inhomogeneous Dirichlet data is imposed strongly: boundary face blocks hold
the face projection of the boundary datum and the corresponding residual rows
are masked.

The Newton loop supports backtracking damping, regularization of the flux
Jacobian near vanishing gradients, continuation in the exponent p starting
from the linear problem, and optional static condensation of the cell blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import spsolve

from .hho_local import LocalOperators, build_local_operators, cell_dim
from .law import LerayLionsLaw, power_weight
from .polybasis import l2_project


class DofMap:
    """Global indices: element cell blocks first, then face blocks."""

    def __init__(self, mesh, k: int):
        self.mesh = mesh
        self.k = k
        self.n_cell = cell_dim(k)
        self.n_face = k + 1
        self.cell_span = len(mesh.elements) * self.n_cell
        self.ndofs = self.cell_span + len(mesh.faces) * self.n_face
        self._element_dofs = []
        for ei, el in enumerate(mesh.elements):
            idx = [np.arange(ei * self.n_cell, (ei + 1) * self.n_cell)]
            for fid in el.faces:
                idx.append(self.face_dofs(fid))
            self._element_dofs.append(np.concatenate(idx))
        bnd = [self.face_dofs(fid) for fid, f in enumerate(mesh.faces)
               if f.is_boundary]
        self.boundary_dofs = (np.concatenate(bnd) if bnd
                              else np.empty(0, dtype=int))

    def cell_dofs(self, ei: int) -> np.ndarray:
        return np.arange(ei * self.n_cell, (ei + 1) * self.n_cell)

    def face_dofs(self, fid: int) -> np.ndarray:
        off = self.cell_span + fid * self.n_face
        return np.arange(off, off + self.n_face)

    def element_dofs(self, ei: int) -> np.ndarray:
        return self._element_dofs[ei]


def build_packs(mesh, k: int, boost: int = 0) -> list[LocalOperators]:
    return [build_local_operators(mesh, ei, k, boost)
            for ei in range(len(mesh.elements))]


def _faces_once(packs):
    """(face id, basis, rule) of every mesh face, at its first element."""
    seen = set()
    for ops in packs:
        for fid, basis, rule in zip(ops.face_ids, ops.face_bases,
                                    ops.face_rules):
            if fid not in seen:
                seen.add(fid)
                yield fid, basis, rule


def interpolate_global(dm: DofMap, packs, field) -> np.ndarray:
    """Cell and face projections of a field, each face computed once."""
    U = np.zeros(dm.ndofs)
    for ei, ops in enumerate(packs):
        U[dm.cell_dofs(ei)] = l2_project(ops.basis_k, field, ops.rule)
    for fid, basis, rule in _faces_once(packs):
        U[dm.face_dofs(fid)] = l2_project(basis, field, rule)
    return U


def dirichlet_values(dm: DofMap, packs, g) -> tuple[np.ndarray, np.ndarray]:
    """Boundary dof indices and the face projections of the datum g."""
    idx, vals = [], []
    for fid, basis, rule in _faces_once(packs):
        if dm.mesh.faces[fid].is_boundary:
            idx.append(dm.face_dofs(fid))
            vals.append(l2_project(basis, g, rule))
    if not idx:
        return np.empty(0, dtype=int), np.empty(0)
    return np.concatenate(idx), np.concatenate(vals)


def compute_loads(packs, source) -> list[np.ndarray]:
    """Cell load vectors int_T f phi_i, one per element."""
    loads = []
    for ops in packs:
        if source is None:
            loads.append(np.zeros(ops.n_cell))
        else:
            fv = source(ops.rule.points)
            loads.append(ops.cellval_q.T @ (ops.rule.weights * fv))
    return loads


def _element_system(ops: LocalOperators, law: LerayLionsLaw, Ue: np.ndarray,
                    load: np.ndarray, eps: float, want_jac: bool):
    w = ops.rule.weights
    x = ops.rule.points
    p = law.p
    g = ops.grad_q @ Ue
    a = law.flux(x, g, eps)
    re = np.einsum("q,qc,qci->i", w, a, ops.grad_q, optimize=True)
    re[:ops.n_cell] -= load
    Je = None
    if want_jac:
        Da = law.flux_jacobian(x, g, eps)
        wDa = w[:, None, None] * Da
        tmp = np.einsum("qab,qbj->qaj", wDa, ops.grad_q, optimize=True)
        Je = np.einsum("qaj,qai->ij", tmp, ops.grad_q, optimize=True)
    for i, dval in enumerate(ops.dval_q):
        du = dval @ Ue
        wq = ops.face_rules[i].weights
        hcoef = ops.face_lengths[i] ** (1.0 - p)
        n2 = du * du + eps * eps
        sw = power_weight(n2, (p - 2.0) / 2.0)
        re += hcoef * (dval.T @ (wq * sw * du))
        if want_jac:
            # d/du of sw * du, in the form of the flux Jacobian
            jw = sw + (p - 2.0) * power_weight(n2, (p - 4.0) / 2.0) * du * du
            Je += hcoef * (dval.T * (wq * jw)) @ dval
    return re, Je


def assemble_residual(dm: DofMap, packs, law, U, loads,
                      eps: float = 0.0) -> np.ndarray:
    r = np.zeros(dm.ndofs)
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        re, _ = _element_system(ops, law, U[gd], loads[ei], eps, False)
        r[gd] += re
    r[dm.boundary_dofs] = 0.0
    return r


def _assemble(dm: DofMap, packs, law, U, loads, eps: float, condense: bool):
    """Masked Newton system (identity rows/cols on boundary dofs).

    With `condense`, each element's cell block is eliminated before the
    scatter, so the system couples face unknowns only; the returned
    per-element (X, y) recover the cell update as -y - X @ (face update).
    """
    nk = dm.n_cell
    off = dm.cell_span if condense else 0
    n = dm.ndofs - off
    r = np.zeros(n)
    rows, cols, vals, back = [], [], [], []
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        re, Je = _element_system(ops, law, U[gd], loads[ei], eps, True)
        if condense:
            lu = lu_factor(Je[:nk, :nk])
            X = lu_solve(lu, Je[:nk, nk:])
            y = lu_solve(lu, re[:nk])
            back.append((X, y))
            re = re[nk:] - Je[nk:, :nk] @ y
            Je = Je[nk:, nk:] - Je[nk:, :nk] @ X
            gd = gd[nk:]
        gd = gd - off
        r[gd] += re
        rr, cc = np.meshgrid(gd, gd, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(Je.ravel())
    J = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    bnd = dm.boundary_dofs - off
    r[bnd] = 0.0
    keep = np.ones(n)
    keep[bnd] = 0.0
    K = sp.diags(keep)
    J = K @ J @ K + sp.diags(1.0 - keep)
    return r, J.tocsr(), back


def assemble_system(dm: DofMap, packs, law, U, loads, eps: float = 0.0):
    """Masked residual and Jacobian (identity rows/cols on boundary dofs)."""
    r, J, _ = _assemble(dm, packs, law, U, loads, eps, False)
    return r, J


def energy(dm: DofMap, packs, law, U, loads) -> float:
    """Dirichlet energy of the discrete solution (gradient is the residual)."""
    if law.energy_density is None:
        raise ValueError("law has no energy density")
    total = 0.0
    p = law.p
    for ei, ops in enumerate(packs):
        Ue = U[dm.element_dofs(ei)]
        g = ops.grad_q @ Ue
        total += float(ops.rule.weights @ law.energy_density(g))
        for i, dval in enumerate(ops.dval_q):
            du = dval @ Ue
            wq = ops.face_rules[i].weights
            total += (ops.face_lengths[i] ** (1.0 - p) / p
                      * float(wq @ np.abs(du) ** p))
        total -= float(loads[ei] @ Ue[:ops.n_cell])
    return total


# ---------------------------------------------------------------------------
# Newton with continuation


STALL_TOL = 1e-6        # accept a roundoff-floor stall below this
ARMIJO = 1e-4
MIN_STEP = 2.0 ** -16
EPS_SCALE = 1e-10


@dataclass
class NewtonConfig:
    atol: float = 1e-10
    max_iterations: int = 60
    condense: bool = False
    boost: int = 0
    continuation: tuple | None = None   # explicit p path overrides the default


@dataclass
class StageReport:
    p: float
    iterations: int
    residual_norm: float      # of the regularized system Newton solved
    residual_raw: float       # same iterate, eps = 0 weights
    converged: bool
    damping_events: int = 0


@dataclass
class SolveReport:
    stages: list
    converged: bool
    newton_iters: int
    wall_time: float
    ndofs: int

    @property
    def diverged(self) -> bool:
        return not self.converged


def continuation_path(p: float) -> tuple:
    """Exponent schedule from the linear problem to the target, steps <= 1."""
    if p == 2.0:
        return (2.0,)
    path = [2.0]
    cur = 2.0
    step = 1.0 if p > 2.0 else -1.0
    while abs(p - cur) > 1.0:
        cur += step
        path.append(cur)
    path.append(p)
    return tuple(path)


def _gradient_scale(dm, packs, U) -> float:
    worst = 1.0
    for ei, ops in enumerate(packs):
        g = ops.grad_q @ U[dm.element_dofs(ei)]
        worst = max(worst, float(np.max(np.hypot(g[:, 0], g[:, 1]))))
    return worst


def _newton_stage(dm, packs, law, U, loads, cfg: NewtonConfig) -> StageReport:
    eps = EPS_SCALE * _gradient_scale(dm, packs, U)
    iters = 0
    damping = 0
    converged = False
    r = assemble_residual(dm, packs, law, U, loads, eps)
    rn = float(np.linalg.norm(r))
    while True:
        if rn <= cfg.atol:
            converged = True
            break
        if iters >= cfg.max_iterations:
            break
        rs, J, back = _assemble(dm, packs, law, U, loads, eps, cfg.condense)
        delta = np.zeros(dm.ndofs)
        delta[dm.ndofs - len(rs):] = spsolve(J, -rs)
        for ei, (X, y) in enumerate(back):     # condensed cell unknowns
            gd = dm.element_dofs(ei)
            delta[gd[:dm.n_cell]] = -y - X @ delta[gd[dm.n_cell:]]
        if np.max(np.abs(delta)) <= 1e-13 * (1.0 + np.max(np.abs(U))):
            # step at roundoff scale: the residual floor has been reached
            converged = rn <= STALL_TOL
            break
        t = 1.0
        accepted = False
        while t >= MIN_STEP:
            r_try = assemble_residual(dm, packs, law, U + t * delta, loads, eps)
            rn_try = float(np.linalg.norm(r_try))
            if rn_try <= (1.0 - ARMIJO * t) * rn:
                accepted = True
                break
            t *= 0.5
            damping += 1
        if not accepted:
            converged = rn <= STALL_TOL
            break
        U += t * delta
        r, rn = r_try, rn_try
        iters += 1
    raw = float(np.linalg.norm(assemble_residual(dm, packs, law, U, loads)))
    return StageReport(p=law.p, iterations=iters, residual_norm=rn,
                       residual_raw=raw, converged=converged,
                       damping_events=damping)


def newton_solve(mesh, k: int, law: LerayLionsLaw, source=None, dirichlet=None,
                 config: NewtonConfig | None = None,
                 packs=None, dm: DofMap | None = None):
    """Solve the discrete problem; returns (U, report, dm, packs)."""
    cfg = config or NewtonConfig()
    if packs is None:
        packs = build_packs(mesh, k, cfg.boost)
    if dm is None:
        dm = DofMap(mesh, k)
    loads = compute_loads(packs, source)
    U = np.zeros(dm.ndofs)
    if dirichlet is not None:
        idx, vals = dirichlet_values(dm, packs, dirichlet)
        U[idx] = vals
    path = cfg.continuation or continuation_path(law.p)
    t0 = time.perf_counter()
    stages = []
    ok = True
    for pstage in path:
        if pstage == law.p:
            stage_law = law
        elif law.family is None:
            raise ValueError("continuation requires the law's family")
        else:
            stage_law = law.family(pstage)
        rep = _newton_stage(dm, packs, stage_law, U, loads, cfg)
        stages.append(rep)
        if not rep.converged:
            ok = False
            break
    report = SolveReport(stages=stages, converged=ok,
                         newton_iters=sum(s.iterations for s in stages),
                         wall_time=time.perf_counter() - t0, ndofs=dm.ndofs)
    return U, report, dm, packs
