"""Global assembly and nonlinear solve for the primal HHO discretization.

Unknowns are ordered cells first (one degree-k polynomial block per element)
followed by one degree-k block per face, in mesh face order.  Homogeneous or
inhomogeneous Dirichlet data is imposed strongly: boundary face blocks hold
the face projection of the boundary datum and the corresponding residual rows
are masked.

Element work runs in blocks: `DofMap` groups the elements by face count,
which fixes the local ndof and the cell and face node counts, into runs of
at most BLOCK elements.  Each kernel call gathers one block's operators from
the per-element `LocalOperators` (stacked copies are not kept, so operator
memory is not doubled), calls the law once on all of the block's cell nodes,
and forms residuals, Jacobians and the Schur complements of static
condensation with stacked matmuls and solves.

The Newton loop supports backtracking damping, regularization of the flux
Jacobian near vanishing gradients, continuation in the exponent p starting
from the linear problem, and optional static condensation of the cell blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .hho_local import LocalOperators, build_local_operators, cell_dim
from .law import LerayLionsLaw, power_weight
from .polybasis import l2_project

BLOCK = 32      # elements per kernel call


def shape_blocks(face_counts) -> list[np.ndarray]:
    """Element ids grouped by face count, in runs of at most BLOCK."""
    face_counts = np.asarray(face_counts)
    blocks = []
    for nf in np.unique(face_counts):
        ids = np.flatnonzero(face_counts == nf)
        blocks += [ids[i:i + BLOCK] for i in range(0, len(ids), BLOCK)]
    return blocks


@dataclass(frozen=True)
class ElementBlock:
    elements: np.ndarray    # (E,) ids of elements with one face count
    dofs: np.ndarray        # (E, ndof) their global unknowns, in local order


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
        self.blocks = [
            ElementBlock(ids, np.stack([self._element_dofs[e] for e in ids]))
            for ids in shape_blocks([len(el.faces) for el in mesh.elements])]
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


def compute_loads(packs, source) -> np.ndarray:
    """Cell load vectors int_T f phi_i, one row per element; laid end to
    end, the rows are the cell rows of the global load vector."""
    loads = np.zeros((len(packs), packs[0].n_cell))
    if source is None:
        return loads
    for ids in shape_blocks([len(ops.face_ids) for ops in packs]):
        blk = [packs[e] for e in ids]
        fv = source(np.concatenate([ops.rule.points for ops in blk]))
        wfv = fv.reshape(len(ids), -1) * np.stack([ops.rule.weights
                                                   for ops in blk])
        V = np.stack([ops.cellval_q for ops in blk])
        loads[ids] = (wfv[:, None, :] @ V)[:, 0, :]
    return loads


class _BlockOps(NamedTuple):
    """A block's operators gathered from its LocalOperators for one call."""
    G: np.ndarray       # (E, 2 nq, ndof) G v at the cell nodes, (x, y) pairs
    D: np.ndarray       # (E, nf nfq, ndof) d_F v at the face nodes, by face
    x: np.ndarray       # (E nq, 2) cell nodes
    w: np.ndarray       # (E, nq) cell weights
    wf: np.ndarray      # (E, nf, nfq) face weights
    hf: np.ndarray      # (E, nf) face lengths

    def face_weights(self, p: float) -> np.ndarray:
        """(E, nf nfq) weights h_F^{1-p} w of the face nodes."""
        return (self.wf * self.hf[:, :, None] ** (1.0 - p)).reshape(
            len(self.wf), -1)

    def values(self, Ue: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients (E nq, 2) and face residuals (E, nf nfq) of Ue."""
        return ((self.G @ Ue[:, :, None]).reshape(-1, 2),
                (self.D @ Ue[:, :, None])[:, :, 0])


def _gather(packs, blk: ElementBlock) -> _BlockOps:
    ops = [packs[e] for e in blk.elements]
    return _BlockOps(
        G=np.stack([o.grad_q.reshape(-1, o.ndof) for o in ops]),
        D=np.stack([np.concatenate(o.dval_q) for o in ops]),
        x=np.concatenate([o.rule.points for o in ops]),
        w=np.stack([o.rule.weights for o in ops]),
        wf=np.stack([[r.weights for r in o.face_rules] for o in ops]),
        hf=np.array([o.face_lengths for o in ops]))


def _block_residual(B: _BlockOps, law: LerayLionsLaw, Ue: np.ndarray,
                    eps: float) -> np.ndarray:
    """Element residuals (E, ndof) of a block, loads left out."""
    E, nq = B.w.shape
    g, du = B.values(Ue)
    a = law.flux(B.x, g, eps).reshape(E, nq, 2) * B.w[:, :, None]
    sw = power_weight(du * du + eps * eps, (law.p - 2.0) / 2.0)
    c = B.face_weights(law.p) * sw * du
    return (a.reshape(E, 1, -1) @ B.G + c[:, None, :] @ B.D)[:, 0, :]


def _block_jacobian(B: _BlockOps, law: LerayLionsLaw, Ue: np.ndarray,
                    eps: float) -> np.ndarray:
    """Element Jacobians (E, ndof, ndof) of a block's residuals.

    The face terms are added one face at a time, the order of the sum over
    faces in the stabilization.  At p = 2 that keeps each matrix equal to
    the last bit to the one-element formula; one product over all faces
    moved err_1ph of a cartesian k = 3, level 4 solve by 1e-11 relative."""
    (E, nq), p = B.w.shape, law.p
    g, du = B.values(Ue)
    wDa = (law.flux_jacobian(B.x, g, eps).reshape(E, nq, 2, 2)
           * B.w[:, :, None, None])
    Je = B.G.transpose(0, 2, 1) @ (
        wDa @ B.G.reshape(E, nq, 2, -1)).reshape(E, 2 * nq, -1)
    n2 = du * du + eps * eps
    # d/du of sw * du, in the form of the flux Jacobian
    jw = (power_weight(n2, (p - 2.0) / 2.0)
          + (p - 2.0) * power_weight(n2, (p - 4.0) / 2.0) * du * du)
    nf, nfq = B.wf.shape[1:]
    wjw = B.wf * jw.reshape(E, nf, nfq)
    hcoef = B.hf ** (1.0 - p)
    for f in range(nf):
        D = B.D[:, f * nfq:(f + 1) * nfq]
        Je += hcoef[:, f, None, None] * (
            (D.transpose(0, 2, 1) * wjw[:, None, f]) @ D)
    return Je


def assemble_residual(dm: DofMap, packs, law, U, loads,
                      eps: float = 0.0) -> np.ndarray:
    idx, vals = [], []
    for blk in dm.blocks:
        re = _block_residual(_gather(packs, blk), law, U[blk.dofs], eps)
        idx.append(blk.dofs.ravel())
        vals.append(re.ravel())
    r = np.bincount(np.concatenate(idx), np.concatenate(vals),
                    minlength=dm.ndofs)
    r[:dm.cell_span] -= np.ravel(loads)
    r[dm.boundary_dofs] = 0.0
    return r


def _assemble(dm: DofMap, packs, law, U, r, eps: float, condense: bool):
    """Masked Newton matrix (identity rows/cols on boundary dofs) and its
    right-hand side, given the masked residual r at the same U and eps.

    With `condense`, each element's cell block is eliminated before the
    scatter, so the system couples face unknowns only; the returned
    per-block (X, y) recover the cell update as -y - X @ (face update).
    The cell rows of r belong to one element each, so y is read from r.
    """
    nk = dm.n_cell
    off = dm.cell_span if condense else 0
    n = dm.ndofs - off
    rhs = r[off:].copy()
    rows, cols, vals, back = [], [], [], []
    for blk in dm.blocks:
        gd = blk.dofs
        Je = _block_jacobian(_gather(packs, blk), law, U[gd], eps)
        if condense:
            rhs_c = np.concatenate([Je[:, :nk, nk:], r[gd[:, :nk], None]],
                                   axis=2)
            try:
                Xy = np.linalg.solve(Je[:, :nk, :nk], rhs_c)
            except np.linalg.LinAlgError:
                # a singular cell block gives a NaN step, as spsolve does
                # for a singular full system; the line search rejects it
                Xy = np.full_like(rhs_c, np.nan)
            X, y = Xy[:, :, :-1], Xy[:, :, -1]
            back.append((X, y))
            gd = gd[:, nk:] - off
            rhs -= np.bincount(gd.ravel(),
                               (Je[:, nk:, :nk] @ y[:, :, None]).ravel(),
                               minlength=n)
            Je = Je[:, nk:, nk:] - Je[:, nk:, :nk] @ X
        nl = gd.shape[1]
        rows.append(np.repeat(gd, nl, axis=1).ravel())
        cols.append(np.tile(gd, nl).ravel())
        vals.append(Je.ravel())
    J = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    bnd = dm.boundary_dofs - off
    rhs[bnd] = 0.0
    keep = np.ones(n)
    keep[bnd] = 0.0
    K = sp.diags(keep)
    J = K @ J @ K + sp.diags(1.0 - keep)
    return rhs, J.tocsr(), back


def assemble_system(dm: DofMap, packs, law, U, loads, eps: float = 0.0):
    """Masked residual and Jacobian (identity rows/cols on boundary dofs)."""
    r = assemble_residual(dm, packs, law, U, loads, eps)
    _, J, _ = _assemble(dm, packs, law, U, r, eps, False)
    return r, J


def energy(dm: DofMap, packs, law, U, loads) -> float:
    """Dirichlet energy of the discrete solution (gradient is the residual)."""
    if law.energy_density is None:
        raise ValueError("law has no energy density")
    p = law.p
    total = 0.0
    for blk in dm.blocks:
        B = _gather(packs, blk)
        g, du = B.values(U[blk.dofs])
        total += float(B.w.ravel() @ law.energy_density(g))
        total += float(np.sum(B.face_weights(p) * np.abs(du) ** p)) / p
    return total - float(np.ravel(loads) @ U[:dm.cell_span])


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
    # wall time summed over the stage's iterations; never written to CSV
    assemble_s: float = 0.0       # Newton matrix, with condensation if set
    linear_solve_s: float = 0.0   # sparse solve and cell back-substitution
    line_search_s: float = 0.0    # trial residuals of the backtracking


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
    for blk in dm.blocks:
        g, _ = _gather(packs, blk).values(U[blk.dofs])
        worst = max(worst, float(np.max(np.hypot(g[:, 0], g[:, 1]))))
    return worst


def _newton_stage(dm, packs, law, U, loads, cfg: NewtonConfig) -> StageReport:
    eps = EPS_SCALE * _gradient_scale(dm, packs, U)
    nk = dm.n_cell
    iters = 0
    damping = 0
    converged = False
    t_asm = t_lin = t_ls = 0.0
    r = assemble_residual(dm, packs, law, U, loads, eps)
    rn = float(np.linalg.norm(r))
    while True:
        if rn <= cfg.atol:
            converged = True
            break
        if iters >= cfg.max_iterations:
            break
        t0 = time.perf_counter()
        rs, J, back = _assemble(dm, packs, law, U, r, eps, cfg.condense)
        t1 = time.perf_counter()
        delta = np.zeros(dm.ndofs)
        delta[dm.ndofs - len(rs):] = spsolve(J, -rs)
        for blk, (X, y) in zip(dm.blocks, back):   # condensed cell unknowns
            gd = blk.dofs
            delta[gd[:, :nk]] = -y - (X @ delta[gd[:, nk:], None])[:, :, 0]
        t2 = time.perf_counter()
        t_asm += t1 - t0
        t_lin += t2 - t1
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
        t_ls += time.perf_counter() - t2
        if not accepted:
            converged = rn <= STALL_TOL
            break
        U += t * delta
        r, rn = r_try, rn_try
        iters += 1
    raw = float(np.linalg.norm(assemble_residual(dm, packs, law, U, loads)))
    return StageReport(p=law.p, iterations=iters, residual_norm=rn,
                       residual_raw=raw, converged=converged,
                       damping_events=damping, assemble_s=t_asm,
                       linear_solve_s=t_lin, line_search_s=t_ls)


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
