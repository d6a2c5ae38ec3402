"""Scaled monomial bases on cells and faces, L2/elliptic projectors,
Sobolev seminorms, and projector-approximation rate measurement.

The bases are built for a stack of cells at once, on the caller's stacked
cell rule (`cell_bases`), or of faces (`face_basis_from_points` with stacked
endpoints): every array then has a leading stack axis, and `cell_basis` and
`face_basis` are the one-element cases.

The projectors and seminorms take one cell (or face) with its rule, or a
stack of cells with a stack of rules, and then return one value per cell.

Seminorm convention: |v|_{W^{m,p}} sums the L^p norms of all order-m partials
(no l^p compounding across the multi-indices).  Every seminorm, of a cell or
of a cell's edges, is `lp_norm` over the last axis of nodal values, which is
the max over the nodes at p = inf.  The trace seminorm takes the tangential
derivatives at all edge nodes of a cell at once and carries the factor
h_T^{1/p} (1 at p = inf).

`projector_rate_study` measures the projectors' approximation orders on the
squares of side h = 2^-j at one corner: the squares are one stack of cells,
so every h is projected and measured in the same array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .mesh import Element, PolytopalMesh, from_polygons
from .quadrature import QuadratureRule, cell_rules, segment_rule

INF = math.inf


def _falling(e: np.ndarray, a: int) -> np.ndarray:
    out = np.ones_like(e, dtype=float)
    for i in range(a):
        out = out * np.maximum(e - i, 0)
    return out


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    """x^j, j = 0 ... degree, on a new last axis, by repeated products (a
    power of negative numbers, as in `x ** j`, is several times slower)."""
    pw = np.empty(x.shape + (degree + 1,))
    pw[..., 0] = 1.0
    for j in range(degree):
        pw[..., j + 1] = pw[..., j] * x
    return pw


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
    transform: np.ndarray           # psi_i = sum_j transform[i, j] * raw_j
    mass: np.ndarray                # Gram matrix of the returned basis
    moments: np.ndarray             # integrals of each basis function

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def __getitem__(self, s) -> CellBasis:
        return CellBasis(self.centroid[s], self.diameter[s], self.degree,
                         self.exponents, self.transform[s], self.mass[s],
                         self.moments[s])

    def _raw(self, points: np.ndarray, orders=((0, 0),)) -> list[np.ndarray]:
        """The (ax, ay) partials of the raw monomials at points, for each
        of `orders`, from one table of powers."""
        h = self.diameter[..., None, None]
        X = (np.asarray(points, dtype=float) - self.centroid[..., None, :]) / h
        pw = _powers(X, self.degree)            # (..., nq, 2, degree + 1)
        out = []
        for ax, ay in orders:
            e = self.exponents - (ax, ay)
            idx = np.flatnonzero((e >= 0).all(axis=1))
            coef = (_falling(self.exponents[:, 0], ax)
                    * _falling(self.exponents[:, 1], ay) / h ** (ax + ay))
            vals = np.zeros(X.shape[:-1] + (self.dim,))
            vals[..., idx] = (pw[..., 0, e[idx, 0]] * pw[..., 1, e[idx, 1]]
                              * coef[..., idx])
            out.append(vals)
        return out

    def partials(self, points, orders) -> list[np.ndarray]:
        """The (ax, ay) partials at points of the basis for each of
        `orders`."""
        return [raw @ mT(self.transform) for raw in self._raw(points, orders)]

    def eval(self, points) -> np.ndarray:
        return self.partial(0, 0, points)

    def partial(self, ax: int, ay: int, points) -> np.ndarray:
        return self.partials(points, [(ax, ay)])[0]

    def as_field(self, coeffs) -> ScalarField:
        coeffs = np.asarray(coeffs, dtype=float)

        def factory(ax, ay):
            return lambda pts: self.partial(ax, ay, pts) @ coeffs
        return ScalarField(factory)


def _orthonormalize(raw: np.ndarray, weights: np.ndarray, degree: int):
    """(transform, mass) for raw monomial values (..., n, dim) at the nodes
    of rules with (..., n) weights: the identity below degree 2, else the
    inverse Cholesky factor of the Gram matrix (conditioning), with the
    mass matrix of the transformed basis.  One batched inverse serves the
    whole stack."""
    M = mT(raw) @ (raw * weights[..., None])
    if degree < 2:
        return np.broadcast_to(np.eye(M.shape[-1]), M.shape), M
    C = np.linalg.inv(np.linalg.cholesky(M))
    return C, C @ M @ mT(C)


def cell_bases(rule: QuadratureRule, centroids: np.ndarray,
               diameters: np.ndarray, degree: int) -> CellBasis:
    """The bases of a stack of S cells, from a rule on them exact to degree
    2 * degree (`quadrature.cell_rules`) and their (S, 2) centroids and (S,)
    diameters: monomials scaled by (centroid, diameter), orthonormalized
    against the cell mass matrix for degree >= 2 (conditioning)."""
    basis = CellBasis(centroid=np.asarray(centroids, dtype=float),
                      diameter=np.asarray(diameters, dtype=float),
                      degree=degree, exponents=cell_exponents(degree),
                      transform=np.empty(0), mass=np.empty(0), moments=np.empty(0))
    [raw] = basis._raw(rule.points)
    basis.transform, basis.mass = _orthonormalize(raw, rule.weights, degree)
    basis.moments = (rule.weights[:, None] @ (raw @ mT(basis.transform)))[:, 0]
    return basis


def cell_basis(element: Element, degree: int) -> CellBasis:
    """`cell_bases` of one element (`mesh.elements[e]`) on its own rule."""
    centroids = element.centroid[None]
    rule = cell_rules(element.points[None], centroids, 2 * degree)
    return cell_bases(rule, centroids, np.array([element.diameter]), degree)[0]


@dataclass(eq=False)
class FaceBasis:
    """Monomials in the scaled tangential coordinate of a face, or the bases
    of a stack of faces when the endpoints are (..., 2)."""
    pa: np.ndarray
    pb: np.ndarray
    degree: int
    transform: np.ndarray
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
        return _powers(self._coord(points), self.degree)

    def eval(self, points) -> np.ndarray:
        return self._raw(points) @ mT(self.transform)


def face_basis_from_points(pa, pb, degree: int) -> FaceBasis:
    """The basis of the face [pa, pb]; (..., 2) endpoints give a stack of
    them, with (..., n, 2) points in `eval`."""
    basis = FaceBasis(pa=np.asarray(pa, dtype=float), pb=np.asarray(pb, dtype=float),
                      degree=degree, transform=np.empty(0), mass=np.empty(0))
    rule = segment_rule(pa, pb, 2 * degree)
    basis.transform, basis.mass = _orthonormalize(
        basis._raw(rule.points), rule.weights, degree)
    return basis


def face_basis(mesh: PolytopalMesh, face_id: int, degree: int) -> FaceBasis:
    pa, pb = mesh.vertices[mesh.face_vertices[face_id]]
    return face_basis_from_points(pa, pb, degree)


# ---------------------------------------------------------------------------
# projectors: of one cell or face, or of each cell of a stack with its rule


def l2_project(basis: CellBasis | FaceBasis, field,
               rule: QuadratureRule) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection onto a cell or face basis,
    or onto each basis of a stack with the matching stack of rules."""
    rhs = mT(basis.eval(rule.points)) @ (rule.weights * field(rule.points))[..., None]
    return np.linalg.solve(basis.mass, rhs)[..., 0]


def elliptic_project(basis: CellBasis, field: ScalarField,
                     rule: QuadratureRule) -> np.ndarray:
    """Coefficients of the elliptic projection, for one cell or a stack:
    gradients match against every test polynomial, and the mean of the
    defect vanishes."""
    gx, gy = basis.partials(rule.points, [(1, 0), (0, 1)])
    fx, fy = (field.partial(*d)(rule.points)[..., None] for d in ((1, 0), (0, 1)))
    w = rule.weights[..., None]
    K = mT(gx) @ (gx * w) + mT(gy) @ (gy * w)
    rhs = mT(gx) @ (w * fx) + mT(gy) @ (w * fy)
    coeffs = np.zeros(basis.moments.shape)
    if basis.dim > 1:
        coeffs[..., 1:] = np.linalg.solve(K[..., 1:, 1:], rhs[..., 1:, :])[..., 0]
    mean_v = (rule.weights * field(rule.points)).sum(-1)
    coeffs[..., 0] = ((mean_v - (basis.moments[..., 1:] * coeffs[..., 1:]).sum(-1))
                      / basis.moments[..., 0])
    return coeffs


# ---------------------------------------------------------------------------
# seminorms


def lp_norm(weights: np.ndarray, vals: np.ndarray, p: float) -> np.ndarray:
    """The L^p norms over the last axis of values at quadrature nodes with
    these weights: the largest |value| for p = inf."""
    if p == INF:
        return np.abs(vals).max(axis=-1, initial=0.0)
    return (weights * np.abs(vals) ** p).sum(-1) ** (1.0 / p)


def cell_seminorm(field: ScalarField, m: int, p: float,
                  rule: QuadratureRule) -> np.ndarray:
    """|field|_{W^{m,p}(T)} = sum over |alpha| = m of ||d^alpha field||_{L^p(T)},
    on the cell of `rule` or on each cell of a stack of rules."""
    return sum(lp_norm(rule.weights, field.partial(j, m - j)(rule.points), p)
               for j in range(m + 1))


def tangential_partial(field: ScalarField, m: int, points: np.ndarray,
                       tangents: np.ndarray) -> np.ndarray:
    """The order-m derivative of field along unit tangents at points; the
    (..., 2) tangents broadcast against the (..., 2) points."""
    tx, ty = tangents[..., 0], tangents[..., 1]
    return sum(math.comb(m, j) * tx ** j * ty ** (m - j)
               * field.partial(j, m - j)(points) for j in range(m + 1))


def trace_seminorm(field: ScalarField, m: int, p: float, points: np.ndarray,
                   diameters: np.ndarray, exactness: int) -> np.ndarray:
    """h_T^{1/p} |field|_{W^{m,p}} broken over the edges of each cell of the
    (S, n, 2) vertex stack `points`, with (S,) diameters h_T: tangential
    derivatives of order m, one L^p norm over all edge nodes of a cell
    (h_T^0 = 1 at p = inf)."""
    pa, pb = points, np.roll(points, -1, axis=-2)
    d = pb - pa
    tau = d / np.hypot(d[..., 0], d[..., 1])[..., None]
    rule = segment_rule(pa, pb, exactness)         # (S, n, nq) nodes
    nq = rule.weights.shape[-1]
    vals = tangential_partial(field, m, rule.points.reshape(len(pa), -1, 2),
                              np.repeat(tau, nq, axis=-2))
    return diameters ** (1.0 / p) * lp_norm(rule.weights.reshape(len(pa), -1), vals, p)


# ---------------------------------------------------------------------------
# approximation-rate measurement


def fit_slope(hs, errors) -> float:
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0])


# the highest degree whose default levels measure every slope: above it the
# errors of a smooth field reach roundoff before two levels (`rate_levels`)
MAX_RATE_DEGREE = 6


def rate_levels(degree: int) -> range:
    """The default levels j, h = 2^-j, of `projector_rate_study`: 2 ... 7,
    ending sooner above degree 3.  Past j = 160 / (degree + 1)^2 the errors
    of a smooth field fall to roundoff, first those of order m = 2 (measured
    on e^{x+y}, both projectors, degrees 1-6: with these levels every slope
    is within 0.19 of s - m up to degree 6, and no window of levels passes
    at degrees 7 and 8).  At least two levels remain."""
    return range(2, min(7, max(3, 160 // (degree + 1) ** 2)) + 1)


def projector_rate_study(field: ScalarField, degree: int, projector: str = "elliptic",
                         js=None, ms=(0, 1, 2), ps=(1.5, 2.0, 4.0, INF),
                         trace_ms=(0, 1), exactness: int = 30) -> dict:
    """Project `field` on the squares of side h = 2^-j at one corner, all of
    them as one stack of cells on one rule exact to max(exactness, 2 degree),
    and record the W^{m,p} error seminorms against h, normalized by
    |field|_{W^{s,p}}, s = degree + 1, on the same square (the bound's own
    right-hand side, so the predicted slope is s - m for every p, finite or
    not), at the orders the bound covers: cell m <= s, trace m <= s - 1.
    The levels j default to `rate_levels(degree)`."""
    if projector not in ("elliptic", "l2"):
        raise ValueError("projector must be 'elliptic' or 'l2'")
    s = degree + 1
    if js is None:
        js = rate_levels(degree)
    ms = [m for m in ms if m <= s]
    trace_ms = [m for m in trace_ms if m < s]
    hs = [2.0 ** -j for j in js]
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([0.3, 0.4]) + np.multiply.outer(hs, unit)     # (S, 4, 2)
    # the S squares share no vertex ids: one call gives their geometry
    sq = from_polygons(cells.reshape(-1, 2), np.arange(4 * len(hs)).reshape(-1, 4))
    rule = cell_rules(cells, sq.centroids, max(exactness, 2 * degree))
    basis = cell_bases(rule, sq.centroids, sq.diameters, degree)
    project = elliptic_project if projector == "elliptic" else l2_project
    coeffs = project(basis, field, rule)[..., None]

    def partial(ax, ay):
        f = field.partial(ax, ay)
        return lambda pts: f(pts) - (basis.partial(ax, ay, pts) @ coeffs)[..., 0]
    defect = ScalarField(partial)
    source = {p: cell_seminorm(field, s, p, rule) for p in ps}
    cell = {(m, p): cell_seminorm(defect, m, p, rule) / source[p]
            for m in ms for p in ps}
    trace = {(m, p): trace_seminorm(defect, m, p, cells, sq.diameters, exactness)
             / source[p] for m in trace_ms for p in ps}
    rates = lambda errors: {key: {"errors": v.tolist(), "slope": fit_slope(hs, v)}
                            for key, v in errors.items()}
    return {"h": hs, "degree": degree, "projector": projector, "order": s,
            "cell": rates(cell), "trace": rates(trace)}
