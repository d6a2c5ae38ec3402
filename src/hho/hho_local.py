"""Element-local HHO operators.

For each element and degree k this builds, as dense matrices acting on the
local unknown vector [cell P^k block | one P^k block per face]:

  * the gradient reconstruction G into P^k(T)^2 (integration by parts
    against vector-valued test polynomials),
  * the potential reconstruction P into P^{k+1}(T) (gradient matched to G,
    mean matched to the cell unknown),
  * one face-residual operator per face, vanishing on interpolates of
    P^{k+1}(T), feeding the p-power stabilization.

Point values of all reconstructions at the element/face quadrature nodes are
cached, and so are the pair products of the degree-k cell and face bases
there, which the Newton Jacobian works with.  Face data is stacked: each
per-face field is one (nf, ...) array whose first axis runs over the
element's faces, in the order of its `faces`, and the block kernels in
`solver` read it as it is.  The bases are scaled monomials centred at the
cell centroid and at the face midpoints, so every one of these arrays is the
same for two elements that are translates of each other with the same face
orientations.  One `LocalOperators` serves all such elements (`place`), and
shifts the quadrature nodes of the first onto each; its arrays are
read-only, so no caller can change the operators of a whole shape in place.

`build_stacked_operators` builds the operators of up to STACK_SHAPES
elements with one vertex count in one pass: its cell and face rules, bases,
matrices, solves and tables all carry a leading axis over the elements, and
each element's `LocalOperators` views its slice.  `build_local_operators`
is a stack of one.

`interpolate_local`, `stabilization` and `local_norm` act on one element:
they are the oracles of the block kernels in `solver` and `harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .law import power_weight
from .polybasis import (CellBasis, cell_bases, face_basis,
                        face_basis_from_points, l2_project, mT)
from .quadrature import QuadratureRule, cell_rules, face_rule, segment_rule
# perfbench's tracer swaps these one-element builders by their names in this
# module, so they stay attributes of it
from .polybasis import cell_basis  # noqa: F401
from .quadrature import cell_rule  # noqa: F401

# cells per stacked build, which bounds the build's temporaries: a stack of
# 64 quadrilaterals at k = 3 holds 19 MiB of tables (297 KB a shape) and
# peaks 6 MiB above them while it is built.  Each generated family, at most
# 19 shapes a level, builds in one stack per vertex count.
STACK_SHAPES = 64


def cell_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def cell_quad_exactness(k: int, boost: int = 0) -> int:
    return 2 * (k + 1) + 2 + boost


@dataclass(eq=False)
class LocalOperators:
    """Operators of one element shape, built on its first element,
    `elements[0]`: `rule`, the bases and the face nodes are that element's;
    the nodes of member i are its nodes plus `shifts[i]`.

    Face data is stacked on a first axis of length nf, one entry per face of
    `mesh.elements[elements[0]].faces`, in that order; the unknowns of face i
    are entries n_cell + i (k+1) ... n_cell + (i+1) (k+1) - 1 of the local
    vector."""
    k: int
    n_cell: int
    ndof: int
    basis_k: CellBasis
    basis_k1: CellBasis
    rule: QuadratureRule
    Gc: np.ndarray                  # (2 n_k, ndof) gradient rec. [Gx; Gy]
    P: np.ndarray                   # (n_{k+1}, ndof) potential reconstruction
    D: np.ndarray                   # (nf, k+1, ndof) face residuals
    grad_q: np.ndarray              # (nq, 2, ndof) G v at cell quad nodes
    pgrad_q: np.ndarray             # (nq, 2, ndof) grad(P v) at cell quad nodes
    pval_q: np.ndarray              # (nq, ndof) P v at cell quad nodes
    cellval_q: np.ndarray           # (nq, n_cell) cell basis at cell quad nodes
    dval_q: np.ndarray              # (nf, nfq, ndof) face residuals at face nodes
    faceval_q: np.ndarray           # (nf, nfq, k+1) face bases at face nodes
    face_points: np.ndarray         # (nf, nfq, 2) face quad nodes
    face_weights: np.ndarray        # (nf, nfq) face quad weights
    face_lengths: np.ndarray        # (nf,)
    face_mass: np.ndarray           # (nf, k+1, k+1) face basis mass matrices
    cell_pairs: np.ndarray          # (nq, n_k^2) w phi_i phi_j at cell quad nodes
    face_pairs: np.ndarray          # (nf, nfq, (k+1)^2) psi_i psi_j at face nodes
    # the shape's members, set by `place`
    mesh: object = field(init=False, repr=False)
    elements: np.ndarray = field(init=False)    # (n,) ids, ascending
    shifts: np.ndarray = field(init=False)      # (n, 2) centroid - built's
    cell_nodes: np.ndarray = field(init=False)  # (n, nq, 2) cell nodes

    @property
    def Gx(self) -> np.ndarray:
        """(n_k, ndof) x-component of the gradient reconstruction."""
        return self.Gc[:self.n_cell]

    @property
    def Gy(self) -> np.ndarray:
        """(n_k, ndof) y-component of the gradient reconstruction."""
        return self.Gc[self.n_cell:]

    def values(self, Ue: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients (E nq, 2) and face residuals (E, nf nfq) of the (E,
        ndof) local vectors Ue of E members."""
        return ((Ue @ self.grad_q.reshape(-1, self.ndof).T).reshape(-1, 2),
                Ue @ self.dval_q.reshape(-1, self.ndof).T)

    def cell_sum(self, vals: np.ndarray) -> float:
        """sum of w vals over the (E nq,) cell nodes of E members."""
        w = self.rule.weights
        return float(np.sum(vals.reshape(-1, len(w)) @ w))

    def face_scale(self, p: float) -> np.ndarray:
        """(nf nfq,) weights h_F^{1-p} w of the face nodes."""
        return (self.face_weights * self.face_lengths[:, None] ** (1.0 - p)
                ).ravel()

    def face_power(self, du: np.ndarray, p: float) -> float:
        """sum_F h_F^{1-p} int_F |du|^p over the faces of E members, from
        their (E, nf nfq) face residuals du."""
        return float(np.sum(self.face_scale(p) * np.abs(du) ** p))


def build_stacked_operators(mesh, elements, k: int,
                            boost: int = 0) -> list[LocalOperators]:
    """The operators built on each of `elements`, ids of at most
    STACK_SHAPES cells with one vertex count, in one pass whose every array
    has a leading axis over them; each `LocalOperators` is placed on its
    own element and views its slice of the stacked arrays."""
    ids = np.asarray(elements)
    ptr = mesh.cell_ptr
    nf = ptr[ids[0] + 1] - ptr[ids[0]]
    if len(ids) > STACK_SHAPES or np.any(ptr[ids + 1] - ptr[ids] != nf):
        raise ValueError(f"a stack holds at most {STACK_SHAPES} cells of "
                         "one vertex count")
    S = len(ids)
    rows = ptr[ids, None] + np.arange(nf)
    fids = mesh.cell_faces[rows]                                  # (S, nf)
    corners = mesh.vertices[mesh.cell_vertices[rows]]             # (S, nf, 2)
    centroids = mesh.centroids[ids]
    exact = cell_quad_exactness(k, boost)
    rule = cell_rules(corners, centroids, exact)
    w = rule.weights[..., None]                                   # (S, nq, 1)
    bk = cell_bases(corners, centroids, mesh.diameters[ids], k)
    bk1 = cell_bases(corners, centroids, mesh.diameters[ids], k + 1)
    nk, nk1 = bk.dim, bk1.dim

    Vk, Vkx, Vky = bk.partials(rule.points, ((0, 0), (1, 0), (0, 1)))
    Vk1, Wx, Wy = bk1.partials(rule.points, ((0, 0), (1, 0), (0, 1)))

    Mk = mT(Vk) @ (Vk * w)
    K1 = mT(Wx) @ (Wx * w) + mT(Wy) @ (Wy * w)
    Dx = mT(Vkx) @ (Vk * w)     # int (dx phi_i) phi_j
    Dy = mT(Vky) @ (Vk * w)
    Cx = mT(Wx) @ (Vk * w)      # int (dx w_i) phi_j
    Cy = mT(Wy) @ (Vk * w)
    N1 = mT(Vk) @ (Vk1 * w)     # int phi_i w_j

    ndof = nk + nf * (k + 1)
    pa, pb = np.moveaxis(mesh.vertices[mesh.face_vertices[fids]], -2, 0)
    frule = segment_rule(pa, pb, exact)
    fbasis = face_basis_from_points(pa, pb, k)
    face_points, face_weights = frule.points, frule.weights   # (S, nf, nfq)
    faceval_q = fbasis.eval(face_points)
    second = mesh.face_owners[fids, 1] == ids[:, None]
    sign = mesh.face_signs[fids, second * 1]
    normals = sign[..., None] * mesh.face_normals[fids]           # (S, nf, 2)
    # int_F psi_i phi_j for the cell bases of degree k and k+1, by face
    flat = face_points.reshape(S, -1, 2)
    Tk, Tk1 = (mT(faceval_q) @ (b.eval(flat).reshape(*face_weights.shape, -1)
                                 * face_weights[..., None])
               for b in (bk, bk1))

    # gradient reconstruction: (G v, e_c phi_i) = -(v_T, d_c phi_i)
    #                                            + sum_F (v_F, phi_i n_c)
    TkT = Tk.transpose(0, 3, 1, 2)    # (S, nk, nf, k+1)
    Bx = np.concatenate([-Dx, (normals[:, None, :, 0, None] * TkT).reshape(
        S, nk, -1)], axis=2)
    By = np.concatenate([-Dy, (normals[:, None, :, 1, None] * TkT).reshape(
        S, nk, -1)], axis=2)
    Gc = np.concatenate([np.linalg.solve(Mk, Bx), np.linalg.solve(Mk, By)],
                        axis=1)
    Gx, Gy = Gc[:, :nk], Gc[:, nk:]

    # potential reconstruction: stiffness solve against the reconstructed
    # gradient, constant fixed by the cell mean
    rhs = Cx @ Gx + Cy @ Gy
    P = np.zeros((S, nk1, ndof))
    P[:, 1:] = np.linalg.solve(K1[:, 1:, 1:], rhs[:, 1:])
    mrow = np.zeros((S, ndof))
    mrow[:, :nk] = bk.moments
    P[:, 0] = (mrow - (bk1.moments[:, None, 1:] @ P[:, 1:])[:, 0]
               ) / bk1.moments[:, :1]

    # face residuals
    proj_P = np.linalg.solve(Mk, N1 @ P)       # cell L2 projection of P v
    cell_sel = np.zeros((nk, ndof))
    cell_sel[:, :nk] = np.eye(nk)
    A1 = np.linalg.solve(fbasis.mass, Tk1)
    A0 = np.linalg.solve(fbasis.mass, Tk)
    face_sel = np.eye(ndof)[nk:].reshape(nf, k + 1, ndof)     # face unknowns
    D = face_sel - A1 @ P[:, None] - A0 @ (cell_sel - proj_P)[:, None]

    grad_q = np.stack([Vk @ Gx, Vk @ Gy], axis=2)
    pgrad_q = np.stack([Wx @ P, Wy @ P], axis=2)
    # pair products of the degree-k bases, which the Newton Jacobian
    # contracts the flux Jacobian and face weights against
    cell_pairs = ((w * Vk)[..., None] * Vk[..., None, :]).reshape(
        S, -1, nk * nk)
    face_pairs = (faceval_q[..., None] * faceval_q[..., None, :]).reshape(
        *face_weights.shape, -1)
    tables = dict(Gc=Gc, P=P, D=D, grad_q=grad_q, pgrad_q=pgrad_q,
                  pval_q=Vk1 @ P, cellval_q=Vk, dval_q=faceval_q @ D,
                  faceval_q=faceval_q, face_points=face_points,
                  face_weights=face_weights,
                  face_lengths=mesh.face_lengths[fids],
                  face_mass=fbasis.mass, cell_pairs=cell_pairs,
                  face_pairs=face_pairs)
    # read-only, so no caller can change the operators of a whole shape in
    # place; the slices of each shape inherit it
    frozen = [*tables.values(), rule.points, rule.weights]
    for b in (bk, bk1):
        frozen += [b.centroid, b.diameter, b.exponents, b.mass, b.moments]
        frozen += [] if b.transform is None else [b.transform]
    for a in frozen:
        a.flags.writeable = False
    return [place(LocalOperators(k=k, n_cell=nk, ndof=ndof, basis_k=bk[s],
                                 basis_k1=bk1[s], rule=rule[s],
                                 **{n: a[s] for n, a in tables.items()}),
                  mesh, ids[s:s + 1])
            for s in range(S)]


def build_local_operators(mesh, element_id: int, k: int, boost: int = 0) -> LocalOperators:
    """The operators of one element: a stack of one."""
    return build_stacked_operators(mesh, [element_id], k, boost)[0]


def place(ops: LocalOperators, mesh, elements) -> LocalOperators:
    """Make `ops` the operators of `elements`: ascending ids of `mesh`,
    the first the element `ops` was built on, the others translates of it
    with the same face orientations (one `mesh.shape_keys` label)."""
    c = mesh.centroids[elements]
    ops.mesh = mesh
    ops.elements = np.array(elements)
    ops.shifts = c - c[0]
    ops.cell_nodes = ops.rule.points + ops.shifts[:, None]
    for a in (ops.elements, ops.shifts, ops.cell_nodes):
        a.flags.writeable = False
    return ops


def interpolate_local(ops: LocalOperators, field) -> np.ndarray:
    """I_T: cell and face L2 projections of a field, on the element `ops`
    was built on, with face rules and bases of its own."""
    mesh, exact = ops.mesh, ops.rule.exactness
    return np.concatenate(
        [l2_project(ops.basis_k, field, ops.rule)]
        + [l2_project(face_basis(mesh, fid, ops.k), field,
                      face_rule(mesh, fid, exact))
           for fid in mesh.elements[ops.elements[0]].faces])


def stabilization(ops: LocalOperators, u: np.ndarray, v: np.ndarray, p: float,
                  eps: float = 0.0) -> float:
    """s_T(u, v) = sum_F h_F^{1-p} int_F |d_F u|^{p-2} d_F u d_F v."""
    total = 0.0
    for dq, wq, h in zip(ops.dval_q, ops.face_weights, ops.face_lengths):
        du = dq @ u
        dv = du if v is u else dq @ v
        sw = power_weight(du * du + eps * eps, (p - 2.0) / 2.0)
        total += h ** (1.0 - p) * float(wq @ (sw * du * dv))
    return total


def local_norm(ops: LocalOperators, v: np.ndarray, p: float) -> float:
    """||v||_{1,p,T} = (||grad P v||^p_{L^p} + s_T(v, v))^{1/p}."""
    g = ops.pgrad_q @ v
    gp = float(ops.rule.weights @ np.hypot(g[:, 0], g[:, 1]) ** p)
    return (gp + stabilization(ops, v, v, p)) ** (1.0 / p)
