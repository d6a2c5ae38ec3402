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

`interpolate_local`, `stabilization` and `local_norm` act on one element:
they are the oracles of the block kernels in `solver` and `harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .law import power_weight
from .polybasis import CellBasis, cell_basis, face_basis, l2_project
from .quadrature import QuadratureRule, cell_rule, face_rule


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


def build_local_operators(mesh, element_id: int, k: int, boost: int = 0) -> LocalOperators:
    el = mesh.elements[element_id]
    exact = cell_quad_exactness(k, boost)
    rule = cell_rule(el, exact)
    w = rule.weights
    bk = cell_basis(el, k)
    bk1 = cell_basis(el, k + 1)
    nk, nk1 = bk.dim, bk1.dim

    Vk = bk.eval(rule.points)
    Vkx = bk.partial(1, 0, rule.points)
    Vky = bk.partial(0, 1, rule.points)
    Vk1 = bk1.eval(rule.points)
    Wx = bk1.partial(1, 0, rule.points)
    Wy = bk1.partial(0, 1, rule.points)

    Mk = Vk.T @ (Vk * w[:, None])
    K1 = Wx.T @ (Wx * w[:, None]) + Wy.T @ (Wy * w[:, None])
    Dx = Vkx.T @ (Vk * w[:, None])    # int (dx phi_i) phi_j
    Dy = Vky.T @ (Vk * w[:, None])
    Cx = Wx.T @ (Vk * w[:, None])     # int (dx w_i) phi_j
    Cy = Wy.T @ (Vk * w[:, None])
    N1 = Vk.T @ (Vk1 * w[:, None])    # int phi_i w_j

    fids = np.array(el.faces)
    ndof = nk + len(fids) * (k + 1)
    frules = [face_rule(mesh, fid, exact) for fid in el.faces]
    fbases = [face_basis(mesh, fid, k) for fid in el.faces]
    face_points = np.array([r.points for r in frules])
    face_weights = np.array([r.weights for r in frules])
    faceval_q = np.array([b.eval(r.points) for b, r in zip(fbases, frules)])
    face_mass = np.array([b.mass for b in fbases])
    sign = mesh.face_signs[fids, (mesh.face_owners[fids, 1] == element_id) * 1]
    normals = sign[:, None] * mesh.face_normals[fids]
    # int_F psi_i phi_j for the cell bases of degree k and k+1, by face
    Tk, Tk1 = (np.array([Psi.T @ (b.eval(x) * wf[:, None]) for Psi, x, wf
                         in zip(faceval_q, face_points, face_weights)])
               for b in (bk, bk1))

    # gradient reconstruction: (G v, e_c phi_i) = -(v_T, d_c phi_i)
    #                                            + sum_F (v_F, phi_i n_c)
    TkT = Tk.transpose(2, 0, 1)       # (nk, nf, k+1)
    Bx = np.hstack([-Dx, (normals[:, 0, None] * TkT).reshape(nk, -1)])
    By = np.hstack([-Dy, (normals[:, 1, None] * TkT).reshape(nk, -1)])
    Gc = np.concatenate([np.linalg.solve(Mk, Bx), np.linalg.solve(Mk, By)])
    Gx, Gy = Gc[:nk], Gc[nk:]

    # potential reconstruction: stiffness solve against the reconstructed
    # gradient, constant fixed by the cell mean
    rhs = Cx @ Gx + Cy @ Gy
    P = np.zeros((nk1, ndof))
    P[1:] = np.linalg.solve(K1[1:, 1:], rhs[1:])
    mrow = np.zeros(ndof)
    mrow[:nk] = bk.moments
    P[0] = (mrow - bk1.moments[1:] @ P[1:]) / bk1.moments[0]

    # face residuals
    proj_P = np.linalg.solve(Mk, N1 @ P)       # cell L2 projection of P v
    cell_sel = np.zeros((nk, ndof))
    cell_sel[:, :nk] = np.eye(nk)
    A1 = np.linalg.solve(face_mass, Tk1)
    A0 = np.linalg.solve(face_mass, Tk)
    S = np.eye(ndof)[nk:].reshape(len(fids), k + 1, ndof)   # face unknowns
    D = S - A1 @ P - A0 @ (cell_sel - proj_P)

    grad_q = np.empty((len(w), 2, ndof))
    grad_q[:, 0, :] = Vk @ Gx
    grad_q[:, 1, :] = Vk @ Gy
    pgrad_q = np.empty((len(w), 2, ndof))
    pgrad_q[:, 0, :] = Wx @ P
    pgrad_q[:, 1, :] = Wy @ P
    pval_q = Vk1 @ P
    # pair products of the degree-k bases, which the Newton Jacobian
    # contracts the flux Jacobian and face weights against
    cell_pairs = ((w[:, None] * Vk)[:, :, None] * Vk[:, None]).reshape(
        len(w), -1)
    face_pairs = (faceval_q[..., None] * faceval_q[..., None, :]).reshape(
        *face_weights.shape, -1)

    ops = LocalOperators(k=k, n_cell=nk, ndof=ndof, basis_k=bk, basis_k1=bk1,
                         rule=rule, Gc=Gc, P=P, D=D, grad_q=grad_q,
                         pgrad_q=pgrad_q, pval_q=pval_q, cellval_q=Vk,
                         dval_q=faceval_q @ D, faceval_q=faceval_q,
                         face_points=face_points, face_weights=face_weights,
                         face_lengths=mesh.face_lengths[fids],
                         face_mass=face_mass, cell_pairs=cell_pairs,
                         face_pairs=face_pairs)
    return place(ops, mesh, [element_id])


def _shared_arrays(ops: LocalOperators):
    """The arrays that every member of the shape uses."""
    yield from (ops.elements, ops.shifts, ops.cell_nodes, ops.Gc, ops.P,
                ops.D, ops.grad_q, ops.pgrad_q, ops.pval_q, ops.cellval_q,
                ops.dval_q, ops.faceval_q, ops.face_points, ops.face_weights,
                ops.face_lengths, ops.face_mass, ops.cell_pairs,
                ops.face_pairs, ops.rule.points, ops.rule.weights)
    for b in (ops.basis_k, ops.basis_k1):
        yield from (b.exponents, b.mass, b.moments)
        if b.transform is not None:
            yield b.transform


def place(ops: LocalOperators, mesh, elements) -> LocalOperators:
    """Make `ops` the operators of `elements`: ascending ids of `mesh`,
    the first the element `ops` was built on, the others translates of it
    with the same face orientations (one `mesh.shape_keys` label)."""
    c = mesh.centroids[elements]
    ops.mesh = mesh
    ops.elements = np.array(elements)
    ops.shifts = c - c[0]
    ops.cell_nodes = ops.rule.points + ops.shifts[:, None]
    for a in _shared_arrays(ops):
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
