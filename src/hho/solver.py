"""Global assembly and nonlinear solve for the primal HHO discretization.

Unknowns are ordered cells first (one degree-k polynomial block per element)
followed by one degree-k block per face, in mesh face order.  Homogeneous or
inhomogeneous Dirichlet data is imposed strongly: boundary face blocks hold
the datum's interpolate I_h there (`interpolate_global`: its face L2
projections) and the corresponding residual rows are masked.

Local operators are shared: `build_packs` builds them once per element
shape (`mesh.shape_keys`: translates with the same face orientations), and
every element of that shape holds the same frozen `LocalOperators`, which
holds the cell quadrature nodes of each.  Element work runs in blocks:
`DofMap` takes the shape keys by face count and splits the elements of each
into even runs whose (E, ndof, ndof) element matrices hold at most
JACOBIAN_ENTRIES entries (or one element), so a block's gradient and
face-residual operators are one shared matrix each.  Every sweep over the
blocks goes through `shared_operators`, which checks that the
`LocalOperators` of a block's first element fits the DofMap's mesh and k and
holds the block's elements at `ElementBlock.run` among its members.  The
check runs once per operator set: the DofMap keeps a `Sweep` of the
operators it last swept with, and a later sweep only tests that each
block's first element still holds the checked object.  The kernels read
that `LocalOperators` as it is and form gradients and residuals as one
matrix product over the block.  The law runs on chunks (`DofMap.chunks`):
runs of consecutive blocks of one local size whose element matrices hold at
most JACOBIAN_ENTRIES entries together, or one block.  The residual and the
Newton matrix gather U once per chunk and call the flux, or its Jacobian,
and the face weights once per chunk, on the nodes of all its blocks, which
spares the fixed cost of a call on the many small blocks of a mesh of many
shapes.  The `Sweep` holds what does not change with U: each chunk's joined
unknowns and cell nodes, the residual's scatter index and the face scales
h_F^{1-p} w of the last p.  Jacobians are formed in the shape's polynomial
coefficients: the flux Jacobian is contracted against the degree-k cell and
face bases once per block, then the shape's G and D coefficients apply it.
A chunk's element matrices fill one (E, nl, nl) array.  Static
condensation inverts its cell blocks in one batched solve against the
identity and forms the Schur complements by products with the inverses.
The interpolation, which gives the Dirichlet data too, and
`harness.compute_errors` run on the same blocks.

The masked Newton matrix has one sparsity pattern per mode, full or
condensed, which `DofMap.pattern` builds on first use (`matrix_pattern`);
each assembly gathers the element (or Schur) matrices and sums them into
the pattern's CSC `data` with one `bincount`.  After the mode's first
factorization the pattern is chosen once for the later matrices
(`later_pattern`): the natural one with a map into a band (`Band`), or the
one in that factorization's column order (`ordered_pattern`, a remap of the
natural one), whose matrices come permuted and are factored as they stand;
`assemble_system` permutes such a matrix back to the natural order.

The Newton loop supports backtracking damping, regularization of the flux
Jacobian near vanishing gradients, continuation in the exponent p starting
from the linear problem, and optional static condensation of the cell blocks.

Each Newton step factors its matrix, full or condensed
(`solve_newton_system`).  A mode's first matrix is factored by SuperLU in
symmetric mode with the diagonal entries as pivots, on a minimum degree
ordering of A + A^T, as `spsolve` does.  The pattern never changes, and its
later matrices go one of two ways, chosen from its structure alone.  Where
the reverse Cuthill-McKee order of the pattern has a half-bandwidth b with
n (b+1)^2 <= BAND_FILL times the nonzeros of that first factor, they are
factored by LAPACK's banded Cholesky in that order, which is 2-4 times
faster than SuperLU on such matrices and slower on wider bands.  Elsewhere
SuperLU's first order is kept, and every later matrix, which comes in it,
is factored in its own order ("NATURAL") with the same fill.  A matrix that
is not symmetric to roundoff, or that Cholesky rejects, goes to SuperLU as
by `spsolve`.  A monotone Leray-Lions flux gives a Jacobian whose
symmetric part is positive definite once the boundary rows and columns are
replaced by the identity; for the p-Laplacian it is the Hessian of the
convex discrete energy, symmetric positive definite.  Every principal
submatrix of such a matrix is nonsingular, so in any symmetric order no
diagonal pivot vanishes and no row exchange is needed.  A singular factor
gives a NaN step, which ends the stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
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
# a mode's later Newton matrices are factored on a band of half-width b when
# n (b+1)^2, the band's Cholesky flops, is at most this times the nonzeros
# of its first SuperLU factor: on the generated families' Newton matrices
# the band factored 2-4 times faster than SuperLU at ratios up to 350, as
# fast at 490 and 1.3-2.3 times slower at 900-1450
BAND_FILL = 400
# largest |J - J^T| entry, against the largest |J| entry, that the banded
# Cholesky takes as roundoff; the assembled p-Laplacian matrices show 1e-16
SYMMETRY_TOL = 1e-12


def _factor(J, permc_spec: str):
    """SuperLU factor of a CSC Newton matrix in symmetric mode, with the
    column order `permc_spec`; None if J is singular or has NaN entries.

    J has a positive definite symmetric part (see the module docstring), so
    the factor keeps the diagonal pivots.  Row exchanges on a minimum degree
    ordering of A + A^T, SuperLU's default, make the fill explode: 80 times
    the nonzeros of J on triangular level 4, k = 1.  Panels of one column
    give the same fill and factor 2-25% faster than SuperLU's default of 10
    on the benchmark's Newton matrices at level 4."""
    try:
        return splu(J, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                    panel_size=1, options={"SymmetricMode": True})
    except RuntimeError:        # "Factor is exactly singular", NaN entries
        return None


def spsolve(J, b: np.ndarray) -> np.ndarray:
    """Solve J x = b for a CSC Newton matrix in the natural order, factored
    on a minimum degree ordering of A + A^T; all NaN if J is singular."""
    lu = _factor(J, "MMD_AT_PLUS_A")
    return np.full(len(b), np.nan) if lu is None else lu.solve(b)


def solve_newton_system(dm: DofMap, condense: bool, J,
                        b: np.ndarray) -> np.ndarray:
    """Solve J x = b for a Newton matrix filled into `dm.pattern(condense)`,
    with b and x in the natural order; all NaN if J is singular.

    The mode's first matrix is factored as by `spsolve`, and the DofMap
    keeps SuperLU's column order and fill, from which it chooses the
    pattern of the later matrices (`later_pattern`).  On a banded pattern
    each later matrix is factored by LAPACK's banded Cholesky
    (`_band_solve`), and by `spsolve` if it is not symmetric to roundoff or
    not positive definite.  Otherwise the pattern comes in SuperLU's first
    order, and each later matrix is factored in it as it stands: the
    pattern never changes, so neither does the minimum degree order, and
    the fill stays that of the first factorization."""
    pat = dm.pattern(condense)
    if pat.band is not None:
        x = _band_solve(pat.band, J.data, b)
        return spsolve(J, b) if x is None else x
    lu = _factor(J, "MMD_AT_PLUS_A" if pat.order is None else "NATURAL")
    if lu is None:
        return np.full(len(b), np.nan)
    if pat.order is None:
        # a copy: the array SuperLU hands out keeps its factor alive
        dm._first.setdefault(condense, (lu.perm_c.copy(), lu.nnz))
        return lu.solve(b)
    x = np.empty_like(b)
    x[pat.order] = lu.solve(b[pat.order])
    return x


def _band_solve(band: Band, data: np.ndarray,
                b: np.ndarray) -> np.ndarray | None:
    """Solve J x = b, J with the CSC values `data` in the natural pattern,
    by LAPACK's banded Cholesky of J in the band's order; None if J is not
    symmetric to roundoff or Cholesky rejects it (singular or indefinite).
    The band is filled from J's lower triangle in that order, in Fortran
    order, and factored and solved in place."""
    low = data[band.lower]
    # NaN entries fail the test too: dpbtrf would take them
    if not (np.max(np.abs(low - data[band.mirror]))
            <= SYMMETRY_TOL * np.max(np.abs(low))):
        return None
    n = len(b)
    ab = np.zeros((n, band.width + 1))
    ab.reshape(-1)[band.at] = low
    c, info = dpbtrf(ab.T, lower=1, overwrite_ab=1)
    if info:
        return None
    y, _ = dpbtrs(c, b[band.order], lower=1, overwrite_b=1)
    x = np.empty_like(b)
    x[band.order] = y
    return x


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


class DofMap:
    """Global indices: element cell blocks first, then face blocks."""

    def __init__(self, mesh, k: int):
        self.mesh = mesh
        self.k = k
        self.n_cell = cell_dim(k)
        self.n_face = k + 1
        self.cell_span = mesh.n_elements * self.n_cell
        self.ndofs = self.cell_span + mesh.n_faces * self.n_face
        nf = np.diff(mesh.cell_ptr)
        self.blocks = []
        # the shapes by face count, so that the local size ascends
        groups = sorted(shape_groups(mesh.shape_labels),
                        key=lambda ids: nf[ids[0]])
        runs = [(ids[run], run) for ids in groups
                for run in budget_runs(len(ids), self.n_cell
                                       + self.n_face * nf[ids[0]])]
        for ids, run in runs:
            faces = mesh.cell_faces[mesh.cell_ptr[ids, None] + np.arange(nf[ids[0]])]
            cell = ids[:, None] * self.n_cell + np.arange(self.n_cell)
            face = (self.cell_span + faces[..., None] * self.n_face
                    + np.arange(self.n_face))
            self.blocks.append(ElementBlock(
                ids, run, np.hstack([cell, face.reshape(len(ids), -1)]),
                owned=mesh.face_owners[faces, 0] == ids[:, None]))
        bnd = np.flatnonzero(mesh.face_owners[:, 1] < 0)
        self.boundary_dofs = (self.cell_span + self.n_face * bnd[:, None]
                              + np.arange(self.n_face)).ravel()
        # runs of consecutive blocks of one local size whose element matrices
        # hold at most JACOBIAN_ENTRIES entries together, or one block
        self.chunks, start, size = [], 0, 0
        for i, blk in enumerate(self.blocks):
            nl = blk.dofs.shape[1]
            entries = blk.dofs.size * nl
            if i > start and (size + entries > JACOBIAN_ENTRIES
                              or nl != self.blocks[start].dofs.shape[1]):
                self.chunks.append(slice(start, i))
                start, size = i, 0
            size += entries
        self.chunks.append(slice(start, len(self.blocks)))
        self._patterns = {}
        # SuperLU's column order and L + U nonzeros of each mode's first
        # factor, until its later pattern is chosen
        self._first = {}
        self._sweep = None      # `Sweep` of the operators last swept with

    def pattern(self, condense: bool) -> MatrixPattern:
        """The masked Newton matrix's pattern for one mode, built on first
        use.  Once the mode has been factored (`solve_newton_system`), the
        pattern of its later matrices is chosen, once (`later_pattern`):
        the natural one with a band, or the one in that factorization's
        column order."""
        pat = self._patterns.get(condense) or matrix_pattern(self, condense)
        if condense in self._first:
            pat = later_pattern(pat, *self._first.pop(condense))
        self._patterns[condense] = pat
        return pat

    def cell_dofs(self, ei: int) -> np.ndarray:
        return np.arange(ei * self.n_cell, (ei + 1) * self.n_cell)

    def face_dofs(self, fid: int) -> np.ndarray:
        off = self.cell_span + fid * self.n_face
        return np.arange(off, off + self.n_face)

    def element_dofs(self, ei: int) -> np.ndarray:
        return np.concatenate([self.cell_dofs(ei), *map(
            self.face_dofs, self.mesh.elements[ei].faces)])


class Band(NamedTuple):
    """Where a natural pattern's lower triangle in reverse Cuthill-McKee
    order goes in LAPACK's lower band storage: entry (i, j), i >= j, of the
    reordered matrix at [i - j, j] of the Fortran-ordered (width + 1, n)
    band, that is at position j (width + 1) + i - j."""
    order: np.ndarray       # (n,) unknown at each row and column
    width: int              # half-bandwidth b
    lower: np.ndarray       # data positions of the entries in that triangle
    mirror: np.ndarray      # data positions of their transposes
    at: np.ndarray          # their positions in the band


class MatrixPattern(NamedTuple):
    """CSC structure of a masked Newton matrix, and where the entries of the
    blocks' element matrices go in its `data`.  In the natural order row and
    column i are the mode's unknown i (the face unknowns alone, condensed);
    an ordered pattern holds P^T J P instead, the rows and columns of J
    permuted by `order`.  A banded pattern is a natural one whose matrices
    are factored on `band`."""
    indptr: np.ndarray      # (n + 1,)
    indices: np.ndarray     # (nnz,) rows, ascending within each column
    slots: np.ndarray       # 1 + data position of each entry of the blocks'
                            # (E, nl, nl) matrices, laid end to end in block
                            # order; 0 where a boundary row or column masks it;
                            # int32, as nnz fits the int32 `indices`
    diagonal: np.ndarray    # data positions of the boundary diagonal
    order: np.ndarray | None = None  # (n,) unknown at each row and column;
                                     # None in the natural order
    band: Band | None = None


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
    return _frozen(MatrixPattern(indptr.astype(np.intc), indices[1:], slots,
                                 indptr[bnd]))


def later_pattern(pat: MatrixPattern, perm_c: np.ndarray,
                  fill: int) -> MatrixPattern:
    """The pattern of a mode's later matrices, chosen from the natural
    pattern `pat` and the mode's first SuperLU factor, with column order
    perm_c and `fill` L + U nonzeros.  With b the half-bandwidth of the
    pattern in reverse Cuthill-McKee order, it is `pat` with its `Band`
    where n (b+1)^2 <= BAND_FILL fill, and else `ordered_pattern`.  The
    choice takes O(nnz) time and int32 temporaries of nnz entries."""
    n = len(pat.indptr) - 1
    graph = sp.csc_matrix((np.ones(len(pat.indices), dtype=bool),
                           pat.indices, pat.indptr), shape=(n, n))
    order = reverse_cuthill_mckee(graph, symmetric_mode=True)
    at = np.empty(n, dtype=np.intc)
    at[order] = np.arange(n, dtype=np.intc)
    row = at[pat.indices]
    # the pattern is symmetric: b is the farthest row below a column, and
    # every column holds its diagonal
    width = int(np.max(np.maximum.reduceat(row, pat.indptr[:-1]) - at))
    if n * (width + 1) ** 2 > BAND_FILL * fill:
        return ordered_pattern(pat, perm_c)
    col = np.repeat(at, np.diff(pat.indptr))
    lower = np.flatnonzero(row >= col)
    # on the symmetric pattern the transpose of the positions' matrix holds
    # at each entry the position of its transpose
    mirror = sp.csc_matrix((np.arange(len(row), dtype=np.intc), pat.indices,
                            pat.indptr), shape=(n, n)).T.tocsc().data[lower]
    col, row = col[lower].astype(np.intp), row[lower]
    return pat._replace(band=_frozen(Band(order, width, lower, mirror,
                                          col * (width + 1) + row - col)))


def ordered_pattern(pat: MatrixPattern, perm_c: np.ndarray) -> MatrixPattern:
    """The natural pattern `pat` with its rows and columns in SuperLU's
    column order: unknown i moves to row and column perm_c[i].  Each column
    keeps its entries, their rows renamed and sorted again, and every data
    position is remapped, so a matrix filled into the result is P^T J P of
    the one filled into `pat`, entry for entry."""
    order = np.argsort(perm_c).astype(np.intc)
    length = np.diff(pat.indptr)[order]
    indptr = np.zeros(len(order) + 1, dtype=np.intc)
    np.cumsum(length, out=indptr[1:])
    # the old position of each entry, column by new column, rides along as
    # the data while scipy sorts each column's renamed rows
    at = np.repeat(pat.indptr[order] - indptr[:-1], length)
    at += np.arange(len(at), dtype=np.intc)
    moved = sp.csc_matrix((at, perm_c[pat.indices[at]], indptr),
                          shape=(len(order),) * 2)
    moved.sort_indices()
    moved.data += 1
    new = np.zeros(len(at) + 1, dtype=np.intc)   # [0] keeps masked slots 0
    new[moved.data] = np.arange(1, len(at) + 1, dtype=np.intc)
    return _frozen(MatrixPattern(indptr, moved.indices.astype(np.intc,
                                                              copy=False),
                                 new[pat.slots], new[1 + pat.diagonal] - 1,
                                 order))


def _frozen(pattern):
    for arr in pattern:
        if isinstance(arr, np.ndarray):
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


class Chunk(NamedTuple):
    """A chunk of `DofMap.chunks` with what its sweeps read that U does not
    change."""
    pairs: tuple            # (block, operators) of each of its blocks
    dofs: np.ndarray        # (E, nl) the blocks' unknowns, laid end to end
    nodes: np.ndarray       # (E nq, 2) their cell nodes, laid end to end


class Sweep:
    """What a sweep over the blocks of a DofMap reads that U does not
    change, for the operators `shared_operators` checked it with: the
    (block, operators) pairs, the chunks with their joined unknowns and cell
    nodes, the residual's scatter index and the face scales of the last p."""

    def __init__(self, dm: DofMap, ops: list):
        self.pairs = tuple(zip(dm.blocks, ops))
        self.chunks = [Chunk(self.pairs[c],
                             _joined([blk.dofs for blk in dm.blocks[c]]),
                             _joined([o.cell_nodes[blk.run].reshape(-1, 2)
                                      for blk, o in self.pairs[c]]))
                       for c in dm.chunks]
        # every block's unknowns in block order, where the residual's
        # entries go
        self.scatter = np.concatenate([blk.dofs.ravel() for blk in dm.blocks])
        self._scales = (None, None)

    def fits(self, packs) -> bool:
        """Whether each block's first element holds the checked operators."""
        return all(packs[blk.elements[0]] is o for blk, o in self.pairs)

    def face_scales(self, p: float) -> list[list]:
        """The face weights h_F^{1-p} w of each block, chunk by chunk."""
        if self._scales[0] != p:
            self._scales = p, [[o.face_scale(p) for _, o in ch.pairs]
                               for ch in self.chunks]
        return self._scales[1]


def _sweep(dm: DofMap, packs) -> Sweep:
    """The DofMap's `Sweep` for `packs`, kept while every block's first
    element holds the operators it was built with.  Any other operator set
    is checked block by block: the `LocalOperators` of a block's first
    element must be built on the DofMap's mesh, of the block's local size,
    and hold the block's elements at `blk.run` among its members."""
    if dm._sweep is not None and dm._sweep.fits(packs):
        return dm._sweep
    ops = []
    for blk in dm.blocks:
        o = packs[blk.elements[0]]
        if (o.mesh is not dm.mesh or o.ndof != blk.dofs.shape[1]
                or not np.array_equal(o.elements[blk.run], blk.elements)):
            raise ValueError(
                f"elements {blk.elements.tolist()} do not share one operator "
                "set that fits their block: build the packs with build_packs "
                "on the mesh of the DofMap")
        ops.append(o)
    dm._sweep = Sweep(dm, ops)
    return dm._sweep


def shared_operators(dm: DofMap, packs) -> tuple:
    """Each block of `dm` with the `LocalOperators` of its first element,
    checked to be the operators of all of the block's elements (`_sweep`):
    once per operator set, after which a sweep only tests that each block's
    first element still holds the checked object."""
    return _sweep(dm, packs).pairs


def interpolate_global(dm: DofMap, packs, field) -> np.ndarray:
    """The interpolate I_h of a field: its cell and face L2 projections,
    block by block from one evaluation of it at all their nodes.  Each face
    is projected once, at its first owner, and a boundary face has no other.
    The projectors are the shared basis values, weights and mass matrices of
    the block's shape."""
    U = np.zeros(dm.ndofs)
    for blk, ops in shared_operators(dm, packs):
        w, wf = ops.rule.weights, ops.face_weights
        x = ops.cell_nodes[blk.run].reshape(-1, 2)
        e, f = np.nonzero(blk.owned)
        xf = ops.face_points[f] + ops.shifts[blk.run][e, None]
        vals = np.asarray(field(np.concatenate([x, xf.reshape(-1, 2)])),
                          dtype=float)
        Pc = np.linalg.solve(ops.basis_k.mass, (ops.cellval_q * w[:, None]).T)
        Pf = np.linalg.solve(ops.face_mass, (ops.faceval_q * wf[..., None])
                             .transpose(0, 2, 1)).transpose(0, 2, 1)[f]
        fv = vals[len(x):].reshape(len(f), wf.shape[1])
        U[blk.dofs[:, :dm.n_cell]] = vals[:len(x)].reshape(-1, len(w)) @ Pc.T
        # node by node: a face's coefficients come from its own nodes alone
        faces = blk.dofs[:, dm.n_cell:].reshape(*blk.owned.shape, -1)
        U[faces[e, f]] = sum(fv[:, q, None] * Pf[:, q]
                             for q in range(fv.shape[1]))
    return U


def dirichlet_values(dm: DofMap, packs, g) -> tuple[np.ndarray, np.ndarray]:
    """Boundary dof indices and the face projections of the datum g there:
    the boundary entries of its interpolate."""
    return dm.boundary_dofs, interpolate_global(dm, packs, g)[dm.boundary_dofs]


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


def _pointwise(chunk: Chunk, U, cell_law, face_law) -> list[tuple]:
    """Each block of a chunk with its operators and two pointwise laws at
    U: `cell_law(x, g)` of its cell nodes x and gradients g, (E nq, 2), and
    `face_law(du)` of its (E, nf nfq) face residuals du, with du.  U is
    gathered once for the chunk, and each law is called once, on the nodes
    of all its blocks side by side; the blocks of a chunk share one local
    size, so du stacks by rows."""
    Uc = U[chunk.dofs]
    vals, e = [], 0
    for blk, ops in chunk.pairs:
        E = len(blk.elements)
        vals.append(ops.values(Uc[e:e + E]))
        e += E
    g = _joined([g for g, _ in vals])
    du = _joined([du for _, du in vals])
    del vals                            # the blocks' own gradients
    cells = cell_law(chunk.nodes, g)
    del g
    faces = face_law(du)
    out, q, e = [], 0, 0
    for blk, ops in chunk.pairs:
        E = len(blk.elements)
        nq = len(ops.rule.weights) * E
        out.append((blk, ops, cells[q:q + nq], faces[e:e + E], du[e:e + E]))
        q, e = q + nq, e + E
    return out


def _joined(arrays: list) -> np.ndarray:
    """The arrays laid end to end; a lone one as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _face_slope(du: np.ndarray, eps: float, p: float) -> np.ndarray:
    """d/du of the face flux power_weight(du^2 + eps^2, (p-2)/2) du, in the
    form of the flux Jacobian."""
    n2 = du * du + eps * eps
    return (power_weight(n2, (p - 2.0) / 2.0)
            + (p - 2.0) * power_weight(n2, (p - 4.0) / 2.0) * du * du)


def _jacobian_products(ops: LocalOperators, Da: np.ndarray, jw: np.ndarray,
                       scale: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Element Jacobians (E, ndof, ndof) of a block, into `out` if given,
    from its flux Jacobian Da (E nq, 2, 2) at the cell nodes, its face
    slopes jw (E, nf nfq) and the face weights h_F^{1-p} w of the shape
    (`face_scale`), formed in the shape's polynomial coefficients.

    The cell term is Gc^T M Gc, with M = sum_q w_q Da(g_q) (x) phi_q phi_q^T
    of size 2 n_k: one product of the flux Jacobian with the weighted cell
    pair table.  The face term is D^T blockdiag_F(M_F) D, with M_F =
    h_F^{1-p} sum_q w jw psi_q psi_q^T of size k+1: one product per face
    over the whole block.  The sums run in another order than over the
    quadrature nodes: on the meshes of the element-loop test the entries
    differ from the nodal formula by at most 2e-15 of the largest, and
    err_1ph of the benchmark studies moved by at most 3.1e-12 relative at
    levels 2-4 (cartesian, k = 3)."""
    E = len(jw)
    nk = ops.n_cell
    nf, nb, ndof = ops.D.shape
    # (E, (a, b), (i, j)) -> (E, (a, i), (b, j))
    M = ((Da.reshape(E, -1, 4).transpose(0, 2, 1) @ ops.cell_pairs)
         .reshape(E, 2, 2, nk, nk).transpose(0, 1, 3, 2, 4)
         .reshape(E, 2 * nk, 2 * nk))
    # face by face over the block: M_F of each element, then M_F D
    c = (scale * jw).reshape(E, nf, -1).transpose(1, 0, 2)
    MF = (c @ ops.face_pairs).reshape(nf, E * nb, nb)
    MD = (MF @ ops.D).reshape(nf, E, nb, ndof).transpose(1, 0, 2, 3)
    Je = np.matmul(ops.Gc.T, M @ ops.Gc, out=out)
    Je += ops.D.reshape(-1, ndof).T @ MD.reshape(E, nf * nb, ndof)
    return Je


def _block_jacobian(ops: LocalOperators, blk: ElementBlock,
                    law: LerayLionsLaw, Ue: np.ndarray,
                    eps: float) -> np.ndarray:
    """Element Jacobians (E, ndof, ndof) of a block's residuals at its
    local vectors Ue: the law at its nodes, then `_jacobian_products`."""
    g, du = ops.values(Ue)
    Da = law.flux_jacobian(ops.cell_nodes[blk.run].reshape(-1, 2), g, eps)
    return _jacobian_products(ops, Da, _face_slope(du, eps, law.p),
                              ops.face_scale(law.p))


def assemble_residual(dm: DofMap, packs, law, U, loads,
                      eps: float = 0.0) -> np.ndarray:
    p = law.p
    sweep = _sweep(dm, packs)
    vals = []
    for chunk, scales in zip(sweep.chunks, sweep.face_scales(p)):
        blocks = _pointwise(
            chunk, U, lambda x, g: law.flux(x, g, eps),
            lambda du: power_weight(du * du + eps * eps, (p - 2.0) / 2.0))
        for (_, ops, a, sw, du), scale in zip(blocks, scales):
            E = len(du)
            a = a.reshape(E, -1, 2) * ops.rule.weights[:, None]
            c = scale * sw * du
            vals.append((a.reshape(E, -1) @ ops.grad_q.reshape(-1, ops.ndof)
                         + c @ ops.dval_q.reshape(-1, ops.ndof)).ravel())
    r = np.bincount(sweep.scatter, np.concatenate(vals), minlength=dm.ndofs)
    r[:dm.cell_span] -= np.ravel(loads)
    r[dm.boundary_dofs] = 0.0
    return r


def _condensed(Je: np.ndarray, rc: np.ndarray, nk: int, out: np.ndarray):
    """Static condensation of element matrices Je (E, nl, nl) whose first
    nk rows and columns are the cell unknowns, at the cell residuals rc
    (E, nk): the Schur complements on the face unknowns, written into out,
    the (X, y) that recover the cell update as -y - X @ (face update), and
    the face rows' right-hand side share Je_fc @ y.  The cell blocks are
    inverted in one batched solve against the identity, nk right-hand sides
    each rather than one per face unknown and one for rc, and X and y are
    products with the inverses."""
    try:
        inv = np.linalg.solve(Je[:, :nk, :nk], np.eye(nk))
    except np.linalg.LinAlgError:
        # a singular cell block gives a NaN Schur complement, which SuperLU
        # cannot factor: a NaN step, as from a singular full system, and
        # the Newton stage ends on it
        inv = np.full((len(Je), nk, nk), np.nan)
    X = inv @ Je[:, :nk, nk:]
    y = (inv @ rc[..., None])[..., 0]
    np.subtract(Je[:, nk:, nk:], Je[:, nk:, :nk] @ X, out=out)
    return X, y, (Je[:, nk:, :nk] @ y[:, :, None])[:, :, 0]


def _assemble(dm: DofMap, packs, law, U, r, eps: float, condense: bool):
    """Masked Newton matrix (identity rows/cols on boundary dofs), in the
    CSC format `solve_newton_system` factors and in the order of
    `dm.pattern(condense)`, and its right-hand side in the natural order,
    given the masked residual r at the same U and eps.

    Each chunk of blocks calls the flux Jacobian once and fills its
    (E, nl, nl) element matrices into one array: its own span of the
    pattern's values, or, with `condense`, a scratch array whose cell blocks
    are eliminated together and whose Schur complements go to that span, so
    the system couples face unknowns only.  The returned (dofs, X, y) of
    each chunk recover its cell update as -y - X @ (face update).  The cell
    rows of r belong to one element each, so y is read from r.
    """
    nk, p = dm.n_cell, law.p
    off = dm.cell_span if condense else 0
    n = dm.ndofs - off
    pat = dm.pattern(condense)
    # the chunks' element (or Schur) matrices, laid end to end
    vals, at = np.empty(len(pat.slots)), 0
    faces, lift, back = [], [], []
    sweep = _sweep(dm, packs)
    for chunk, scales in zip(sweep.chunks, sweep.face_scales(p)):
        gd = chunk.dofs
        E, nl = gd.shape
        m = nl - nk if condense else nl
        span = vals[at:at + E * m * m].reshape(E, m, m)
        at += span.size
        Je = np.empty((E, nl, nl)) if condense else span
        blocks = _pointwise(chunk, U,
                            lambda x, g: law.flux_jacobian(x, g, eps),
                            lambda du: _face_slope(du, eps, p))
        e = 0
        for (_, ops, Da, jw, _), scale in zip(blocks, scales):
            _jacobian_products(ops, Da, jw, scale, out=Je[e:e + len(jw)])
            e += len(jw)
        if condense:
            X, y, fy = _condensed(Je, r[gd[:, :nk]], nk, out=span)
            back.append((gd, X, y))
            faces.append(gd[:, nk:].ravel() - off)
            lift.append(fy.ravel())
    rhs = r[off:].copy()
    if condense:
        rhs -= np.bincount(np.concatenate(faces), np.concatenate(lift),
                           minlength=n)
    rhs[dm.boundary_dofs - off] = 0.0
    # slot 0 collects the masked entries
    data = np.bincount(pat.slots, vals,
                       minlength=len(pat.indices) + 1)[1:]
    data[pat.diagonal] = 1.0
    J = sp.csc_matrix((data, pat.indices, pat.indptr), shape=(n, n))
    return rhs, J, back


def assemble_system(dm: DofMap, packs, law, U, loads, eps: float = 0.0):
    """Masked residual and Jacobian (identity rows/cols on boundary dofs),
    in the natural order."""
    r = assemble_residual(dm, packs, law, U, loads, eps)
    _, J, _ = _assemble(dm, packs, law, U, r, eps, False)
    order = dm.pattern(False).order
    if order is not None:
        back = np.argsort(order)
        J = J[back][:, back].tocsc()
        J.sort_indices()
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
MAX_STAGES = 64         # of the default continuation path


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
    """Exponent schedule from the linear problem to the target, steps <= 1:
    at most MAX_STAGES stages, so p <= MAX_STAGES + 1."""
    if not np.isfinite(p):
        raise ValueError(f"continuation to a non-finite p = {p}")
    if p == 2.0:
        return (2.0,)
    # 2, the unit steps that stay more than 1 from p, and p
    stages = 2 + max(0, math.ceil(abs(p - 2.0) - 1.0))
    if stages > MAX_STAGES:
        raise ValueError(f"continuation to p = {p} takes more than "
                         f"{MAX_STAGES} stages (p <= {MAX_STAGES + 1})")
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
        delta[dm.ndofs - len(rs):] = solve_newton_system(dm, cfg.condense, J,
                                                         -rs)
        for gd, X, y in back:                       # condensed cell unknowns
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
    if dm is not None and dm.mesh is not mesh:
        raise ValueError("dm was built on another mesh")
    if dm is not None and dm.k != k:
        raise ValueError(f"dm is for k = {dm.k}, not k = {k}")
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
