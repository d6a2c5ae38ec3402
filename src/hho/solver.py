"""Global assembly and nonlinear solve for the primal HHO discretization.

Unknowns are ordered cells first (one degree-k polynomial block per element)
followed by one degree-k block per face, in mesh face order.  Homogeneous or
inhomogeneous Dirichlet data is imposed strongly: boundary face blocks hold
the face projection of the boundary datum and the corresponding residual rows
are masked.

Local operators are shared: `build_packs` builds them once per element
shape (`mesh.shape_keys`: translates with the same face orientations), and
every element of that shape holds the same frozen `LocalOperators`, which
holds the cell quadrature nodes of each.  Element work runs in
blocks: `DofMap` splits the elements of each shape key into even runs whose
(E, ndof, ndof) element matrices hold at most JACOBIAN_ENTRIES entries (or
one element), so a block's gradient and face-residual operators are one
shared matrix each.  Every sweep over the blocks goes through
`shared_operators`, which checks that the `LocalOperators` of a block's first
element fits the DofMap's mesh and k and holds the block's elements at
`ElementBlock.run` among its members.  The kernels read that `LocalOperators`
as it is, call the law once on all of the block's cell nodes, and form
gradients and residuals as one matrix product over the block.  Jacobians
are formed in the shape's polynomial coefficients: the flux Jacobian is
contracted against the degree-k cell and face bases once per block, then
the shape's G and D coefficients apply it; the Schur complements of static
condensation are solves broadcast over the block.
The interpolation, the Dirichlet data and `harness.compute_errors` run on
the same blocks.

The masked Newton matrix has one sparsity pattern per mode, full or
condensed, which `DofMap.pattern` builds on first use (`matrix_pattern`);
each assembly gathers the element (or Schur) matrices and sums them into
the pattern's CSC `data` with one `bincount`.

The Newton loop supports backtracking damping, regularization of the flux
Jacobian near vanishing gradients, continuation in the exponent p starting
from the linear problem, and optional static condensation of the cell blocks.

Each Newton step factors its matrix, full or condensed, with SuperLU in
symmetric mode (`spsolve`): a minimum degree ordering of A + A^T and the
diagonal entries as pivots.  A monotone Leray-Lions flux gives a Jacobian
whose symmetric part is positive definite once the boundary rows and columns
are replaced by the identity; for the p-Laplacian it is the Hessian of the
convex discrete energy, symmetric positive definite.  Every principal
submatrix of such a matrix is nonsingular, so in any symmetric order no
diagonal pivot vanishes and no row exchange is needed.  A singular factor
gives a NaN step, which ends the stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# `build_local_operators` is unused here but stays a module attribute:
# perfbench traces it by this name
from .hho_local import (STACK_SHAPES, LocalOperators, build_local_operators,
                        build_stacked_operators, cell_dim)
from .law import LerayLionsLaw, power_weight
from .quadrature import fan_apices

# entries of a block's (E, ndof, ndof) element matrices: a budget on the
# kernels' working set, which sets the number E of elements per call
JACOBIAN_ENTRIES = 2 ** 15


def spsolve(J, b: np.ndarray) -> np.ndarray:
    """Solve J x = b for a CSC Newton matrix; all NaN if J is singular.

    J has a positive definite symmetric part (see the module docstring), so
    SuperLU orders A + A^T by minimum degree and keeps the diagonal pivots.
    Row exchanges on that ordering, SuperLU's default, make the fill
    explode: 80 times the nonzeros of J on triangular level 4, k = 1.
    Panels of one column give the same fill and factor 2-25% faster than
    SuperLU's default of 10 on the benchmark's Newton matrices at level 4."""
    try:
        lu = splu(J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  panel_size=1, options={"SymmetricMode": True})
    except RuntimeError:        # "Factor is exactly singular", NaN entries
        return np.full(len(b), np.nan)
    return lu.solve(b)


def shape_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Ascending element ids of each shape label (`mesh.shape_labels`)."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def budget_runs(n: int, ndof: int) -> list[slice]:
    """Even runs over the n elements of one shape, each holding at most
    JACOBIAN_ENTRIES entries of (ndof, ndof) element matrices, or one
    element."""
    m = -(-n // max(1, JACOBIAN_ENTRIES // ndof ** 2))
    edges = np.arange(m + 1) * n // m
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class ElementBlock:
    elements: np.ndarray    # (E,) ids of elements with one shape key
    run: slice              # their place among the shape's members
    dofs: np.ndarray        # (E, ndof) their global unknowns, in local order
    owned: np.ndarray       # (E, nf) is the element the face's first owner
    boundary: np.ndarray    # (E, nf) is the face on the boundary


class DofMap:
    """Global indices: element cell blocks first, then face blocks."""

    def __init__(self, mesh, k: int):
        self.mesh = mesh
        self.k = k
        self.n_cell = cell_dim(k)
        self.n_face = k + 1
        self.cell_span = mesh.n_elements * self.n_cell
        self.ndofs = self.cell_span + mesh.n_faces * self.n_face
        owner = mesh.face_owners[:, 0]
        on_bnd = mesh.face_owners[:, 1] < 0
        nf = np.diff(mesh.cell_ptr)
        self.blocks = []
        runs = [(ids[run], run) for ids in shape_groups(mesh.shape_labels)
                for run in budget_runs(len(ids), self.n_cell
                                       + self.n_face * nf[ids[0]])]
        for ids, run in runs:
            faces = mesh.cell_faces[mesh.cell_ptr[ids, None] + np.arange(nf[ids[0]])]
            cell = ids[:, None] * self.n_cell + np.arange(self.n_cell)
            face = (self.cell_span + faces[..., None] * self.n_face
                    + np.arange(self.n_face))
            self.blocks.append(ElementBlock(
                ids, run, np.hstack([cell, face.reshape(len(ids), -1)]),
                owned=owner[faces] == ids[:, None], boundary=on_bnd[faces]))
        bnd = np.flatnonzero(on_bnd)
        self.boundary_dofs = (self.cell_span + self.n_face * bnd[:, None]
                              + np.arange(self.n_face)).ravel()
        self._patterns = {}

    def pattern(self, condense: bool) -> MatrixPattern:
        """The masked Newton matrix's pattern for one mode, built once."""
        if condense not in self._patterns:
            self._patterns[condense] = matrix_pattern(self, condense)
        return self._patterns[condense]

    def cell_dofs(self, ei: int) -> np.ndarray:
        return np.arange(ei * self.n_cell, (ei + 1) * self.n_cell)

    def face_dofs(self, fid: int) -> np.ndarray:
        off = self.cell_span + fid * self.n_face
        return np.arange(off, off + self.n_face)

    def element_dofs(self, ei: int) -> np.ndarray:
        return np.concatenate([self.cell_dofs(ei), *map(
            self.face_dofs, self.mesh.elements[ei].faces)])

    def block_face_dofs(self, blk: ElementBlock) -> np.ndarray:
        """(E, nf, k+1) unknowns of a block's faces, in local order."""
        return blk.dofs[:, self.n_cell:].reshape(*blk.owned.shape, -1)


class MatrixPattern(NamedTuple):
    """CSC structure of a masked Newton matrix, and where the entries of the
    blocks' element matrices go in its `data`."""
    indptr: np.ndarray      # (n + 1,)
    indices: np.ndarray     # (nnz,) rows, ascending within each column
    slots: np.ndarray       # 1 + data position of each entry of the blocks'
                            # (E, nl, nl) matrices, laid end to end in block
                            # order; 0 where a boundary row or column masks it;
                            # int32, as nnz fits the int32 `indices`
    diagonal: np.ndarray    # data positions of the boundary diagonal


def matrix_pattern(dm: DofMap, condense: bool) -> MatrixPattern:
    """Pattern of the masked Newton matrix, full or condensed (face rows and
    columns only), with the identity on the boundary unknowns.

    The unknowns come in groups, an element's cell block and each face's
    block, and two groups couple densely where one element holds both.  So
    the pattern is found from (row group, column group) keys, (nf + 1)^2 per
    element (nf^2 condensed) instead of ndof^2; every column of a group has
    the same rows, and each entry's position follows by arithmetic."""
    nk, nb, span = dm.n_cell, dm.n_face, dm.cell_span
    off = span if condense else 0
    n = dm.ndofs - off
    dof = np.arange(off, dm.ndofs)
    head = np.where(dof < span, dof - dof % nk, dof - (dof - span) % nb) - off
    free = np.ones(n, dtype=bool)
    bnd = dm.boundary_dofs - off
    free[bnd] = False
    local = [blk.dofs[:, nk:] - off if condense else blk.dofs
             for blk in dm.blocks]
    # key col * n + row of each pair of an element's group heads; -1 masked
    keys = []
    for d in local:
        h = d[:, head[d[0]] == d[0]]
        ok = free[h]
        keys.append(np.where(ok[:, None, :] & ok[:, :, None],
                             h[:, None, :] * n + h[:, :, None], -1).ravel())
    pairs, pair_of = np.unique(np.concatenate(keys), return_inverse=True)
    masked = int(pairs[0] < 0)
    pairs, pair_of = pairs[masked:], pair_of - masked
    row, col = pairs % n, pairs // n
    rsize = np.where(row < span - off, nk, nb)
    # a column's rows are its group's pairs' row groups, in order
    first = np.flatnonzero(np.diff(col, prepend=-1))
    above = np.cumsum(rsize) - rsize
    above -= np.repeat(above[first], np.diff(np.r_[first, len(col)]))
    length = np.zeros(n, dtype=int)
    length[col[first]] = np.add.reduceat(rsize, first)
    indptr = np.concatenate([[0], np.cumsum(np.where(free, length[head], 1))])
    nnz = indptr[-1]
    # 1 + offset of each key's pair in its column; low enough for a masked
    # key that its entries' slots stay below 1
    top = np.full(len(pair_of), -(nnz + nk + nb))
    kept = pair_of >= 0
    top[kept] = above[pair_of[kept]] + 1
    slots = np.empty(sum(d.size * d.shape[1] for d in local), dtype=np.intc)
    indices = np.empty(nnz + 1, dtype=np.intc)  # [0] takes the masked ones
    indices[indptr[bnd] + 1] = bnd
    at_key = at_slot = 0
    for d in local:
        E, nl = d.shape
        lead = head[d[0]] == d[0]
        g = np.cumsum(lead) - 1                 # group of each local unknown
        nh = g[-1] + 1
        out = slots[at_slot:at_slot + E * nl * nl].reshape(E, nl, nl)
        # entry (i, j): the pair's top, the row's offset in its group and
        # the start of column j
        np.add(top[at_key:at_key + E * nh * nh].reshape(E, nh, nh)
               [:, g[:, None], g],
               (d[0] - head[d[0]])[:, None], out=out)
        out += indptr[d][:, None, :]
        np.maximum(out, 0, out=out)
        indices[out] = d[:, :, None]
        at_key += E * nh * nh
        at_slot += out.size
    pattern = MatrixPattern(indptr.astype(np.intc), indices[1:], slots,
                            indptr[bnd])
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def build_packs(mesh, k: int, boost: int = 0) -> list[LocalOperators]:
    """Local operators of every element: one `LocalOperators` per shape
    label, built on its first element and holding all of them.  The
    shapes of one vertex count and one kind of cell fan (from a vertex or
    from the centroid, `quadrature.cell_rules`) are built together, in
    stacks of at most STACK_SHAPES (`build_stacked_operators`)."""
    groups = shape_groups(mesh.shape_labels)
    firsts = np.array([ids[0] for ids in groups])
    counts = np.diff(mesh.cell_ptr)[firsts]
    shapes = {}
    for n in np.unique(counts):
        same = np.flatnonzero(counts == n)
        rows = mesh.cell_ptr[firsts[same], None] + np.arange(n)
        apex = fan_apices(mesh.vertices[mesh.cell_vertices[rows]])
        for kind in (same[apex >= 0], same[apex < 0]):
            for at in range(0, len(kind), STACK_SHAPES):
                run = kind[at:at + STACK_SHAPES]
                shapes.update(zip(run, build_stacked_operators(
                    mesh, [groups[s] for s in run], k, boost)))
    return [shapes[s] for s in mesh.shape_labels]


def shared_operators(dm: DofMap, packs):
    """Each block of `dm` with the `LocalOperators` of its first element,
    checked to be the operators of all of the block's elements: built on the
    DofMap's mesh, of the block's local size, and holding the block's
    elements at `blk.run` among its members."""
    for blk in dm.blocks:
        ops = packs[blk.elements[0]]
        if (ops.mesh is not dm.mesh or ops.ndof != blk.dofs.shape[1]
                or not np.array_equal(ops.elements[blk.run], blk.elements)):
            raise ValueError(
                f"elements {blk.elements.tolist()} do not share one operator "
                "set that fits their block: build the packs with build_packs "
                "on the mesh of the DofMap")
        yield blk, ops


def _project_block(ops: LocalOperators, blk: ElementBlock, field,
                   faces: np.ndarray, cells: bool = True):
    """L2 projections of a field on a block, from one evaluation of it at
    all their nodes: (E, n_cell) cell coefficients (none unless `cells`) and
    the (n, k+1) coefficients of the n faces set in the (E, nf) mask `faces`,
    in mask order.  The projectors are the shared basis values, weights and
    mass matrices of the block's shape."""
    w, wf = ops.rule.weights, ops.face_weights
    x = ops.cell_nodes[blk.run].reshape(-1, 2)
    e, f = np.nonzero(faces)
    xf = ops.face_points[f] + ops.shifts[blk.run][e, None]
    nc = len(x) if cells else 0
    vals = np.asarray(field(np.concatenate([x[:nc], xf.reshape(-1, 2)])),
                      dtype=float)
    Pc = np.linalg.solve(ops.basis_k.mass, (ops.cellval_q * w[:, None]).T)
    Pf = np.linalg.solve(ops.face_mass, (ops.faceval_q * wf[..., None])
                         .transpose(0, 2, 1)).transpose(0, 2, 1)[f]
    fv = vals[nc:].reshape(len(f), wf.shape[1])
    # node by node with elementwise products: a face's coefficients do not
    # depend on the other faces of the call, so dirichlet_values equals
    # interpolate_global on the boundary to the last bit
    face = sum(fv[:, q, None] * Pf[:, q] for q in range(fv.shape[1]))
    return vals[:nc].reshape(-1, len(w)) @ Pc.T, face


def interpolate_global(dm: DofMap, packs, field) -> np.ndarray:
    """Cell and face projections of a field, block by block; each face is
    projected once, at its first owner."""
    U = np.zeros(dm.ndofs)
    for blk, ops in shared_operators(dm, packs):
        cell, face = _project_block(ops, blk, field, blk.owned)
        U[blk.dofs[:, :dm.n_cell]] = cell
        U[dm.block_face_dofs(blk)[blk.owned]] = face
    return U


def dirichlet_values(dm: DofMap, packs, g) -> tuple[np.ndarray, np.ndarray]:
    """Boundary dof indices and the face projections of the datum g."""
    idx, vals = [np.empty(0, dtype=int)], [np.empty(0)]
    for blk, ops in shared_operators(dm, packs):
        if blk.boundary.any():
            _, face = _project_block(ops, blk, g, blk.boundary, cells=False)
            idx.append(dm.block_face_dofs(blk)[blk.boundary].ravel())
            vals.append(face.ravel())
    return np.concatenate(idx), np.concatenate(vals)


def compute_loads(packs, source) -> np.ndarray:
    """Cell load vectors int_T f phi_i, one row per element; laid end to
    end, the rows are the cell rows of the global load vector."""
    loads = np.zeros((len(packs), packs[0].n_cell))
    if source is None:
        return loads
    for ops in {id(ops): ops for ops in packs}.values():
        for run in budget_runs(len(ops.elements), ops.ndof):   # the blocks
            ids = ops.elements[run]
            fv = source(ops.cell_nodes[run].reshape(-1, 2))
            loads[ids] = (fv.reshape(len(ids), -1) * ops.rule.weights) @ (
                ops.cellval_q)
    return loads


def _block_residual(ops: LocalOperators, blk: ElementBlock,
                    law: LerayLionsLaw, Ue: np.ndarray,
                    eps: float) -> np.ndarray:
    """Element residuals (E, ndof) of a block, loads left out."""
    w = ops.rule.weights
    E, nq = len(Ue), len(w)
    g, du = ops.values(Ue)
    a = (law.flux(ops.cell_nodes[blk.run].reshape(-1, 2), g, eps)
         .reshape(E, nq, 2) * w[:, None])
    sw = power_weight(du * du + eps * eps, (law.p - 2.0) / 2.0)
    c = ops.face_scale(law.p) * sw * du
    return (a.reshape(E, -1) @ ops.grad_q.reshape(-1, ops.ndof)
            + c @ ops.dval_q.reshape(-1, ops.ndof))


def _block_jacobian(ops: LocalOperators, blk: ElementBlock,
                    law: LerayLionsLaw, Ue: np.ndarray,
                    eps: float) -> np.ndarray:
    """Element Jacobians (E, ndof, ndof) of a block's residuals, formed in
    the shape's polynomial coefficients.

    The cell term is Gc^T M Gc, with M = sum_q w_q Da(g_q) (x) phi_q phi_q^T
    of size 2 n_k: one product of the flux Jacobian with the weighted cell
    pair table.  The face term is D^T blockdiag_F(M_F) D, with M_F =
    h_F^{1-p} sum_q w jw psi_q psi_q^T of size k+1: one product per face
    over the whole block.  The sums run in another order than over the
    quadrature nodes: on the meshes of the element-loop test the entries
    differ from the nodal formula by at most 2e-15 of the largest, and
    err_1ph of the benchmark studies moved by at most 3.1e-12 relative at
    levels 2-4 (cartesian, k = 3)."""
    E, nq, p = len(Ue), len(ops.rule.weights), law.p
    nk = ops.n_cell
    nf, nb, ndof = ops.D.shape
    g, du = ops.values(Ue)
    Da = (law.flux_jacobian(ops.cell_nodes[blk.run].reshape(-1, 2), g, eps)
          .reshape(E, nq, 4))
    # (E, (a, b), (i, j)) -> (E, (a, i), (b, j))
    M = ((Da.transpose(0, 2, 1) @ ops.cell_pairs).reshape(E, 2, 2, nk, nk)
         .transpose(0, 1, 3, 2, 4).reshape(E, 2 * nk, 2 * nk))
    n2 = du * du + eps * eps
    # d/du of sw * du, in the form of the flux Jacobian
    jw = (power_weight(n2, (p - 2.0) / 2.0)
          + (p - 2.0) * power_weight(n2, (p - 4.0) / 2.0) * du * du)
    # face by face over the block: M_F of each element, then M_F D
    c = (ops.face_scale(p) * jw).reshape(E, nf, -1).transpose(1, 0, 2)
    MF = (c @ ops.face_pairs).reshape(nf, E * nb, nb)
    MD = (MF @ ops.D).reshape(nf, E, nb, ndof).transpose(1, 0, 2, 3)
    Je = ops.Gc.T @ (M @ ops.Gc)
    Je += ops.D.reshape(-1, ndof).T @ MD.reshape(E, nf * nb, ndof)
    return Je


def assemble_residual(dm: DofMap, packs, law, U, loads,
                      eps: float = 0.0) -> np.ndarray:
    idx, vals = [], []
    for blk, ops in shared_operators(dm, packs):
        re = _block_residual(ops, blk, law, U[blk.dofs], eps)
        idx.append(blk.dofs.ravel())
        vals.append(re.ravel())
    r = np.bincount(np.concatenate(idx), np.concatenate(vals),
                    minlength=dm.ndofs)
    r[:dm.cell_span] -= np.ravel(loads)
    r[dm.boundary_dofs] = 0.0
    return r


def _assemble(dm: DofMap, packs, law, U, r, eps: float, condense: bool):
    """Masked Newton matrix (identity rows/cols on boundary dofs), in the
    CSC format `spsolve` factors, and its right-hand side, given the masked
    residual r at the same U and eps.

    With `condense`, each element's cell block is eliminated before the
    scatter, so the system couples face unknowns only; the returned
    per-block (X, y) recover the cell update as -y - X @ (face update).
    The cell rows of r belong to one element each, so y is read from r.
    """
    nk = dm.n_cell
    off = dm.cell_span if condense else 0
    n = dm.ndofs - off
    pat = dm.pattern(condense)
    rhs = r[off:].copy()
    # the blocks' element (or Schur) matrices, laid end to end
    vals, at = np.empty(len(pat.slots)), 0
    back = []
    for blk, ops in shared_operators(dm, packs):
        gd = blk.dofs
        Je = _block_jacobian(ops, blk, law, U[gd], eps)
        if condense:
            rhs_c = np.concatenate([Je[:, :nk, nk:], r[gd[:, :nk], None]],
                                   axis=2)
            try:
                Xy = np.linalg.solve(Je[:, :nk, :nk], rhs_c)
            except np.linalg.LinAlgError:
                # a singular cell block gives a NaN Schur complement, which
                # spsolve cannot factor: a NaN step, as from a singular full
                # system, and the Newton stage ends on it
                Xy = np.full_like(rhs_c, np.nan)
            X, y = Xy[:, :, :-1], Xy[:, :, -1]
            back.append((X, y))
            rhs -= np.bincount((gd[:, nk:] - off).ravel(),
                               (Je[:, nk:, :nk] @ y[:, :, None]).ravel(),
                               minlength=n)
            Je = Je[:, nk:, nk:] - Je[:, nk:, :nk] @ X
        vals[at:at + Je.size] = Je.ravel()
        at += Je.size
    rhs[dm.boundary_dofs - off] = 0.0
    # slot 0 collects the masked entries
    data = np.bincount(pat.slots, vals,
                       minlength=len(pat.indices) + 1)[1:]
    data[pat.diagonal] = 1.0
    J = sp.csc_matrix((data, pat.indices, pat.indptr), shape=(n, n))
    return rhs, J, back


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
    for blk, ops in shared_operators(dm, packs):
        g, du = ops.values(U[blk.dofs])
        total += ops.cell_sum(law.energy_density(g))
        total += ops.face_power(du, p) / p
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
    for blk, ops in shared_operators(dm, packs):
        g, _ = ops.values(U[blk.dofs])
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
        if (not np.all(np.isfinite(delta))
                or np.max(np.abs(delta)) <= 1e-13 * (1.0 + np.max(np.abs(U)))):
            # a non-finite step comes from a singular system and leads
            # nowhere; a step at roundoff scale has reached the residual floor
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
    path = cfg.continuation or continuation_path(law.p)
    if path[-1] != law.p:
        raise ValueError(f"continuation {path} does not end at p = {law.p}")
    if law.family is None and any(q != law.p for q in path):
        raise ValueError("continuation requires the law's family")
    if packs is None:
        packs = build_packs(mesh, k, cfg.boost)
    if dm is None:
        dm = DofMap(mesh, k)
    loads = compute_loads(packs, source)
    U = np.zeros(dm.ndofs)
    if dirichlet is not None:
        idx, vals = dirichlet_values(dm, packs, dirichlet)
        U[idx] = vals
    t0 = time.perf_counter()
    stages = []
    ok = True
    for pstage in path:
        stage_law = law if pstage == law.p else law.family(pstage)
        rep = _newton_stage(dm, packs, stage_law, U, loads, cfg)
        stages.append(rep)
        if not rep.converged:
            ok = False
            break
    report = SolveReport(stages=stages, converged=ok,
                         newton_iters=sum(s.iterations for s in stages),
                         wall_time=time.perf_counter() - t0, ndofs=dm.ndofs)
    return U, report, dm, packs
