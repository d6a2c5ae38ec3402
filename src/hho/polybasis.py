"""Scaled monomial bases on cells and faces, L2/elliptic projectors,
Sobolev seminorms, and projector-approximation rate measurement.

The bases are built for a stack of cells with one vertex count at once
(`cell_bases`), or of faces (`face_basis_from_points` with stacked
endpoints): every array then has a leading stack axis, and `cell_basis` and
`face_basis` are the one-element cases.

Seminorm convention: |v|_{W^{m,p}} sums the L^p norms of all order-m partials
(no l^p compounding across the multi-indices), so p = inf needs no special
casing beyond max-over-nodes norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .fields import ScalarField
from .mesh import Element, PolytopalMesh, from_polygons
from .quadrature import QuadratureRule, cell_rule, cell_rules, segment_rule

INF = math.inf


def _falling(e: np.ndarray, a: int) -> np.ndarray:
    out = np.ones_like(e, dtype=float)
    for i in range(a):
        out = out * np.maximum(e - i, 0)
    return out


def cell_exponents(degree: int) -> np.ndarray:
    exps = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    return np.array(exps, dtype=int)


def mT(a: np.ndarray) -> np.ndarray:
    """The matrices of a stack, transposed."""
    return np.swapaxes(a, -1, -2)


@dataclass(eq=False)
class CellBasis:
    """Monomials of one degree scaled by a cell's (centroid, diameter), or
    the bases of a stack of S cells: then `centroid`, `diameter`,
    `transform`, `mass` and `moments` have a leading axis S, `partial`
    takes (S, nq, 2) points, and `basis[s]` is the basis of cell s."""
    centroid: np.ndarray            # (..., 2)
    diameter: np.ndarray            # (...)
    degree: int
    exponents: np.ndarray
    transform: np.ndarray | None    # psi_i = sum_j transform[i, j] * raw_j
    mass: np.ndarray                # Gram matrix of the returned basis
    moments: np.ndarray             # integrals of each basis function

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def __getitem__(self, s) -> CellBasis:
        return CellBasis(self.centroid[s], self.diameter[s], self.degree,
                         self.exponents, None if self.transform is None
                         else self.transform[s], self.mass[s], self.moments[s])

    def _raw(self, points: np.ndarray, orders=((0, 0),)) -> list[np.ndarray]:
        """The (ax, ay) partials of the raw monomials at points, for each
        of `orders`, from one table of powers."""
        h = self.diameter[..., None, None]
        X = (np.asarray(points, dtype=float) - self.centroid[..., None, :]) / h
        # X^j, j = 0 ... degree, of both coordinates: (..., nq, degree + 1, 2)
        pw = X[..., None, :] ** np.arange(self.degree + 1)[:, None]
        out = []
        for ax, ay in orders:
            e = self.exponents - (ax, ay)
            idx = np.flatnonzero((e >= 0).all(axis=1))
            coef = (_falling(self.exponents[:, 0], ax)
                    * _falling(self.exponents[:, 1], ay) / h ** (ax + ay))
            vals = np.zeros(X.shape[:-1] + (self.dim,))
            vals[..., idx] = (pw[..., e[idx, 0], 0] * pw[..., e[idx, 1], 1]
                              * coef[..., idx])
            out.append(vals)
        return out

    def _apply(self, raw: np.ndarray) -> np.ndarray:
        return raw if self.transform is None else raw @ mT(self.transform)

    def partials(self, points, orders) -> list[np.ndarray]:
        """The (ax, ay) partials at points of the basis for each of
        `orders`."""
        return [self._apply(raw) for raw in self._raw(points, orders)]

    def eval(self, points) -> np.ndarray:
        return self.partial(0, 0, points)

    def partial(self, ax: int, ay: int, points) -> np.ndarray:
        return self.partials(points, [(ax, ay)])[0]

    def as_field(self, coeffs) -> ScalarField:
        coeffs = np.asarray(coeffs, dtype=float)

        def factory(ax, ay):
            return lambda pts: self.partial(ax, ay, pts) @ coeffs
        return ScalarField(factory, name=f"P{self.degree}")


def _orthonormalize(raw: np.ndarray, weights: np.ndarray, degree: int):
    """(transform, mass) for raw monomial values (..., n, dim) at the nodes
    of rules with (..., n) weights: no transform below degree 2, else the
    inverse Cholesky factor of the Gram matrix (conditioning), with the
    mass matrix of the transformed basis.  The triangular inverses run one
    matrix at a time (`solve_triangular` takes no stack)."""
    M = mT(raw) @ (raw * weights[..., None])
    if degree < 2:
        return None, M
    L = np.linalg.cholesky(M).reshape(-1, *M.shape[-2:])
    eye = np.eye(M.shape[-1])
    C = np.array([solve_triangular(f, eye, lower=True, check_finite=False)
                  for f in L]).reshape(M.shape)
    return C, C @ M @ mT(C)


def cell_bases(points: np.ndarray, centroids: np.ndarray,
               diameters: np.ndarray, degree: int) -> CellBasis:
    """The bases of a stack of S cells with one vertex count, from their
    (S, n, 2) vertex cycles, (S, 2) centroids and (S,) diameters: monomials
    scaled by (centroid, diameter), orthonormalized against the cell mass
    matrix for degree >= 2 (conditioning)."""
    rule = cell_rules(points, centroids, 2 * degree)
    basis = CellBasis(centroid=np.asarray(centroids, dtype=float),
                      diameter=np.asarray(diameters, dtype=float),
                      degree=degree, exponents=cell_exponents(degree),
                      transform=None, mass=np.empty(0), moments=np.empty(0))
    [raw] = basis._raw(rule.points)
    basis.transform, basis.mass = _orthonormalize(raw, rule.weights, degree)
    basis.moments = (rule.weights[:, None] @ basis._apply(raw))[:, 0]
    return basis


def cell_basis(element: Element, degree: int) -> CellBasis:
    """`cell_bases` of one element (`mesh.elements[e]`)."""
    return cell_bases(element.points[None], element.centroid[None],
                      np.array([element.diameter]), degree)[0]


@dataclass(eq=False)
class FaceBasis:
    """Monomials in the scaled tangential coordinate of a face, or the bases
    of a stack of faces when the endpoints are (..., 2)."""
    pa: np.ndarray
    pb: np.ndarray
    degree: int
    transform: np.ndarray | None
    mass: np.ndarray

    def __post_init__(self):
        d = self.pb - self.pa
        self.midpoint = 0.5 * (self.pa + self.pb)
        self.length = np.hypot(d[..., 0], d[..., 1])
        self.tangent = d / self.length[..., None]

    @property
    def dim(self) -> int:
        return self.degree + 1

    def _coord(self, points) -> np.ndarray:
        d = np.asarray(points, dtype=float) - self.midpoint[..., None, :]
        return (d @ self.tangent[..., None])[..., 0] / self.length[..., None]

    def _raw(self, points) -> np.ndarray:
        t = self._coord(points)
        return t[..., None] ** np.arange(self.degree + 1)

    def eval(self, points) -> np.ndarray:
        raw = self._raw(points)
        return raw if self.transform is None else raw @ mT(self.transform)


def face_basis_from_points(pa, pb, degree: int) -> FaceBasis:
    """The basis of the face [pa, pb]; (..., 2) endpoints give a stack of
    them, with (..., n, 2) points in `eval`."""
    basis = FaceBasis(pa=np.asarray(pa, dtype=float), pb=np.asarray(pb, dtype=float),
                      degree=degree, transform=None, mass=np.empty(0))
    rule = segment_rule(pa, pb, 2 * degree)
    basis.transform, basis.mass = _orthonormalize(
        basis._raw(rule.points), rule.weights, degree)
    return basis


def face_basis(mesh: PolytopalMesh, face_id: int, degree: int) -> FaceBasis:
    pa, pb = mesh.vertices[mesh.face_vertices[face_id]]
    return face_basis_from_points(pa, pb, degree)


# ---------------------------------------------------------------------------
# projectors


def _values(field, points) -> np.ndarray:
    if isinstance(field, ScalarField):
        return field(points)
    return np.asarray(field(points), dtype=float)


def l2_project(basis: CellBasis | FaceBasis, field,
               rule: QuadratureRule) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection onto a cell or face basis."""
    vals = basis.eval(rule.points)
    rhs = vals.T @ (rule.weights * _values(field, rule.points))
    return np.linalg.solve(basis.mass, rhs)


def elliptic_project(basis: CellBasis, field: ScalarField,
                     rule: QuadratureRule) -> np.ndarray:
    """Coefficients of the elliptic projection: gradients match against every
    test polynomial, and the mean of the defect vanishes."""
    n = basis.dim
    gx = basis.partial(1, 0, rule.points)
    gy = basis.partial(0, 1, rule.points)
    coeffs = np.zeros(n)
    if n > 1:
        K = (gx.T @ (gx * rule.weights[:, None])
             + gy.T @ (gy * rule.weights[:, None]))
        rhs = (gx.T @ (rule.weights * field.partial(1, 0)(rule.points))
               + gy.T @ (rule.weights * field.partial(0, 1)(rule.points)))
        coeffs[1:] = np.linalg.solve(K[1:, 1:], rhs[1:])
    mean_v = rule.weights @ field(rule.points)
    coeffs[0] = (mean_v - basis.moments[1:] @ coeffs[1:]) / basis.moments[0]
    return coeffs


# ---------------------------------------------------------------------------
# seminorms


def _lp_accumulate(p: float, weights, vals, acc):
    if p == INF:
        return max(acc, float(np.max(np.abs(vals), initial=0.0)))
    return acc + float(weights @ np.abs(vals) ** p)


def cell_seminorm(field: ScalarField, m: int, p: float, element: Element,
                  rule: QuadratureRule) -> float:
    """|field|_{W^{m,p}(T)} = sum over |alpha| = m of ||d^alpha field||_{L^p(T)}."""
    total = 0.0
    for j in range(m + 1):
        vals = field.partial(j, m - j)(rule.points)
        if p == INF:
            part = float(np.max(np.abs(vals), initial=0.0))
        else:
            part = float(rule.weights @ np.abs(vals) ** p) ** (1.0 / p)
        total += part
    return total


def _tangential_partial(field: ScalarField, m: int, tau) -> "callable":
    terms = [(math.comb(m, j) * tau[0] ** j * tau[1] ** (m - j), field.partial(j, m - j))
             for j in range(m + 1)]

    def ev(pts):
        out = np.zeros(len(pts))
        for c, f in terms:
            if c != 0.0:
                out += c * f(pts)
        return out
    return ev


def face_broken_seminorm(field: ScalarField, m: int, p: float,
                         mesh: PolytopalMesh, element_id: int,
                         exactness: int) -> float:
    """Broken W^{m,p} seminorm of field over the boundary skeleton of one
    element (tangential derivatives of order m, face by face)."""
    acc = 0.0
    for fid in mesh.elements[element_id].faces:
        pa, pb = mesh.vertices[mesh.face_vertices[fid]]
        tau = (pb - pa) / mesh.face_lengths[fid]
        rule = segment_rule(pa, pb, exactness)
        vals = _tangential_partial(field, m, tau)(rule.points)
        acc = _lp_accumulate(p, rule.weights, vals, acc)
    return acc if p == INF else acc ** (1.0 / p)


def trace_seminorm_scaled(field: ScalarField, m: int, p: float,
                          mesh: PolytopalMesh, element_id: int,
                          exactness: int) -> float:
    """h_T^{1/p} |field|_{W^{m,p} broken over the element's faces}."""
    factor = 1.0 if p == INF else mesh.diameters[element_id] ** (1.0 / p)
    return factor * face_broken_seminorm(field, m, p, mesh, element_id, exactness)


# ---------------------------------------------------------------------------
# approximation-rate measurement


def square_element_mesh(h: float, origin=(0.3, 0.4)) -> PolytopalMesh:
    ox, oy = origin
    verts = [(ox, oy), (ox + h, oy), (ox + h, oy + h), (ox, oy + h)]
    return from_polygons(verts, [[0, 1, 2, 3]])


def fit_slope(hs, errors) -> float:
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0])


def projector_rate_study(field: ScalarField, degree: int, projector: str = "elliptic",
                         js=range(2, 8), ms=(0, 1, 2), ps=(1.5, 2.0, 4.0, INF),
                         trace_ms=(0, 1), exactness: int = 30, s: int | None = None) -> dict:
    """Project `field` on shrinking squares h = 2^-j and record the W^{m,p}
    error seminorms against h, normalized by |field|_{W^{s,p}} on the same
    square (the approximation bound's own right-hand side, so the predicted
    slope is s - m for every p, finite or not)."""
    if projector not in ("elliptic", "l2"):
        raise ValueError("projector must be 'elliptic' or 'l2'")
    if s is None:
        s = degree + 1
    hs = [2.0 ** -j for j in js]
    cell_err = {(m, p): [] for m in ms for p in ps}
    trace_err = {(m, p): [] for m in trace_ms for p in ps}
    for h in hs:
        msh = square_element_mesh(h)
        el = msh.elements[0]
        rule = cell_rule(el, exactness)
        basis = cell_basis(el, degree)
        if projector == "elliptic":
            coeffs = elliptic_project(basis, field, rule)
        else:
            coeffs = l2_project(basis, field, rule)
        defect = field - basis.as_field(coeffs)
        source = {p: cell_seminorm(field, s, p, el, rule) for p in ps}
        for m in ms:
            for p in ps:
                cell_err[(m, p)].append(cell_seminorm(defect, m, p, el, rule) / source[p])
        for m in trace_ms:
            for p in ps:
                trace_err[(m, p)].append(
                    trace_seminorm_scaled(defect, m, p, msh, 0, exactness) / source[p])
    return {
        "h": hs,
        "degree": degree,
        "projector": projector,
        "order": s,
        "cell": {key: {"errors": v, "slope": fit_slope(hs, v)}
                 for key, v in cell_err.items()},
        "trace": {key: {"errors": v, "slope": fit_slope(hs, v)}
                  for key, v in trace_err.items()},
    }
