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
cached.  The bases are scaled monomials centred at the cell centroid and at
the face midpoints, so every one of these arrays is the same for two
elements that are translates of each other with the same face orientations.
One `LocalOperators` serves all such elements (`place`), and shifts the
quadrature nodes of the first onto each; its arrays are read-only, so no
caller can change the operators of a whole shape in place.

`interpolate_local`, `stabilization` and `local_norm` act on one element:
they are the oracles of the block kernels in `solver` and `harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .law import power_weight
from .polybasis import CellBasis, FaceBasis, cell_basis, face_basis, l2_project
from .quadrature import QuadratureRule, cell_rule, face_rule


def cell_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def cell_quad_exactness(k: int, boost: int = 0) -> int:
    return 2 * (k + 1) + 2 + boost


@dataclass(eq=False)
class LocalOperators:
    """Operators of one element shape.  `element_id`, `face_ids`, `rule`,
    `face_rules` and the bases describe the element they were built on,
    `elements[0]`; the nodes of member i are its nodes plus `shifts[i]`."""
    element_id: int
    k: int
    n_cell: int
    ndof: int
    face_ids: tuple[int, ...]
    face_offsets: tuple[int, ...]
    face_lengths: tuple[float, ...]
    basis_k: CellBasis
    basis_k1: CellBasis
    face_bases: list[FaceBasis]
    rule: QuadratureRule
    face_rules: list[QuadratureRule]
    Gx: np.ndarray                  # (n_k, ndof) x-component of gradient rec.
    Gy: np.ndarray
    P: np.ndarray                   # (n_{k+1}, ndof) potential reconstruction
    D: list                         # per face: (k+1, ndof) face residual
    grad_q: np.ndarray              # (nq, 2, ndof) G v at cell quad nodes
    pgrad_q: np.ndarray             # (nq, 2, ndof) grad(P v) at cell quad nodes
    pval_q: np.ndarray              # (nq, ndof) P v at cell quad nodes
    cellval_q: np.ndarray           # (nq, n_cell) cell basis at cell quad nodes
    dval_q: list                    # per face: (nfq, ndof) face residual values
    faceval_q: list                 # per face: (nfq, k+1) face basis values
    # the shape's members, set by `place`
    mesh: object = field(init=False, repr=False)
    elements: np.ndarray = field(init=False)    # (n,) ids, ascending
    shifts: np.ndarray = field(init=False)      # (n, 2) centroid - built's
    cell_nodes: np.ndarray = field(init=False)  # (n, nq, 2) cell nodes


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

    nfaces = len(el.faces)
    nf = k + 1
    ndof = nk + nfaces * nf
    offs = tuple(nk + i * nf for i in range(nfaces))

    fbases, frules, normals, lengths = [], [], [], []
    faceval_q, Tk, Tk1 = [], [], []
    for fid in el.faces:
        f = mesh.faces[fid]
        fb = face_basis(mesh, fid, k)
        fr = face_rule(mesh, fid, exact)
        fbases.append(fb)
        frules.append(fr)
        lengths.append(f.length)
        normals.append(f.signs[f.owners.index(element_id)] * f.normal)
        Psi = fb.eval(fr.points)
        faceval_q.append(Psi)
        Tk.append(Psi.T @ (bk.eval(fr.points) * fr.weights[:, None]))
        Tk1.append(Psi.T @ (bk1.eval(fr.points) * fr.weights[:, None]))

    # gradient reconstruction: (G v, e_c phi_i) = -(v_T, d_c phi_i)
    #                                            + sum_F (v_F, phi_i n_c)
    Bx = np.zeros((nk, ndof))
    By = np.zeros((nk, ndof))
    Bx[:, :nk] = -Dx
    By[:, :nk] = -Dy
    for i in range(nfaces):
        Bx[:, offs[i]:offs[i] + nf] = normals[i][0] * Tk[i].T
        By[:, offs[i]:offs[i] + nf] = normals[i][1] * Tk[i].T
    Gx = np.linalg.solve(Mk, Bx)
    Gy = np.linalg.solve(Mk, By)

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
    D = []
    for i in range(nfaces):
        A1 = np.linalg.solve(fbases[i].mass, Tk1[i])
        A0 = np.linalg.solve(fbases[i].mass, Tk[i])
        S = np.zeros((nf, ndof))
        S[:, offs[i]:offs[i] + nf] = np.eye(nf)
        D.append(S - A1 @ P - A0 @ (cell_sel - proj_P))

    grad_q = np.empty((len(w), 2, ndof))
    grad_q[:, 0, :] = Vk @ Gx
    grad_q[:, 1, :] = Vk @ Gy
    pgrad_q = np.empty((len(w), 2, ndof))
    pgrad_q[:, 0, :] = Wx @ P
    pgrad_q[:, 1, :] = Wy @ P
    pval_q = Vk1 @ P
    dval_q = [Psi @ Di for Psi, Di in zip(faceval_q, D)]

    ops = LocalOperators(element_id=element_id, k=k, n_cell=nk, ndof=ndof,
                         face_ids=tuple(el.faces), face_offsets=offs,
                         face_lengths=tuple(lengths), basis_k=bk, basis_k1=bk1,
                         face_bases=fbases, rule=rule, face_rules=frules,
                         Gx=Gx, Gy=Gy, P=P, D=D, grad_q=grad_q, pgrad_q=pgrad_q,
                         pval_q=pval_q, cellval_q=Vk, dval_q=dval_q,
                         faceval_q=faceval_q)
    return place(ops, mesh, [element_id])


def _shared_arrays(ops: LocalOperators):
    """The arrays that every member of the shape uses."""
    yield from (ops.elements, ops.shifts, ops.cell_nodes, ops.Gx, ops.Gy,
                ops.P, ops.grad_q, ops.pgrad_q, ops.pval_q, ops.cellval_q)
    yield from (*ops.D, *ops.dval_q, *ops.faceval_q)
    for r in (ops.rule, *ops.face_rules):
        yield from (r.points, r.weights)
    for b in (ops.basis_k, ops.basis_k1):
        yield from (b.exponents, b.mass, b.moments)
    for b in (ops.basis_k, ops.basis_k1, *ops.face_bases):
        if b.transform is not None:
            yield b.transform


def place(ops: LocalOperators, mesh, elements) -> LocalOperators:
    """Make `ops` the operators of `elements`: ascending ids of `mesh`,
    the first the element `ops` was built on, the others translates of it
    with the same face orientations (one `mesh.shape_keys` label)."""
    c = np.array([mesh.elements[e].centroid for e in elements])
    ops.mesh = mesh
    ops.elements = np.array(elements)
    ops.shifts = c - c[0]
    ops.cell_nodes = ops.rule.points + ops.shifts[:, None]
    for a in _shared_arrays(ops):
        a.flags.writeable = False
    return ops


def interpolate_local(ops: LocalOperators, field) -> np.ndarray:
    """I_T: cell and face L2 projections of a field."""
    u = np.zeros(ops.ndof)
    u[:ops.n_cell] = l2_project(ops.basis_k, field, ops.rule)
    for i, off in enumerate(ops.face_offsets):
        u[off:off + ops.k + 1] = l2_project(ops.face_bases[i], field,
                                            ops.face_rules[i])
    return u


def stabilization(ops: LocalOperators, u: np.ndarray, v: np.ndarray, p: float,
                  eps: float = 0.0) -> float:
    """s_T(u, v) = sum_F h_F^{1-p} int_F |d_F u|^{p-2} d_F u d_F v."""
    total = 0.0
    for i in range(len(ops.face_ids)):
        du = ops.dval_q[i] @ u
        dv = du if v is u else ops.dval_q[i] @ v
        wq = ops.face_rules[i].weights
        sw = power_weight(du * du + eps * eps, (p - 2.0) / 2.0)
        total += ops.face_lengths[i] ** (1.0 - p) * float(wq @ (sw * du * dv))
    return total


def local_norm(ops: LocalOperators, v: np.ndarray, p: float) -> float:
    """||v||_{1,p,T} = (||grad P v||^p_{L^p} + s_T(v, v))^{1/p}."""
    g = ops.pgrad_q @ v
    gp = float(ops.rule.weights @ np.hypot(g[:, 0], g[:, 1]) ** p)
    return (gp + stabilization(ops, v, v, p)) ** (1.0 / p)
