"""Quadrature rules on polytopal elements and faces.

Cell rules are assembled by mapping a reference-triangle rule to every
triangle of a fan of the element, which `cell_rules` builds from the
vertices of a stack of cells with one vertex count.  A cell with n vertices
is fanned from one of them, its apex: the n - 2 triangles (apex, vertex i,
vertex i + 1).  The apex is the first vertex in cycle order whose fan keeps
every triangle's area above FAN_AREA times the cell's (`fan_apices`), so a
triangle is its own fan and a hanging node is never the tip of a flat
triangle.  A cell with no such vertex (a non-convex cell that no vertex
sees whole) is fanned from its centroid into n triangles.  A cell's rule
depends on that cell alone; `cell_rule` is the one-element case, and
`segment_rule` stacks face rules the same way.  The reference rule for
exactness d is the collapsed product of n-point Gauss-Legendre and
Gauss-Jacobi(1, 0) rules, n = (d + 2) // 2: n^2 nodes, all weights
positive, exact to degree d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

MAX_EXACTNESS = 60
# the least area of a vertex fan's triangles, relative to the cell's
FAN_AREA = 1e-8


class QuadratureCapabilityError(Exception):
    """Requested exactness beyond what this module provides."""


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray    # (n, 2) physical coordinates
    weights: np.ndarray   # (n,), positive, summing to the domain measure
    exactness: int

    def __getitem__(self, s) -> QuadratureRule:
        """The rule of one cell (or face) of a stack of rules."""
        return QuadratureRule(self.points[s], self.weights[s], self.exactness)


def _check_exactness(d: int):
    if d < 0:
        raise ValueError("exactness must be nonnegative")
    if d > MAX_EXACTNESS:
        raise QuadratureCapabilityError(
            f"exactness {d} beyond supported maximum {MAX_EXACTNESS}")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    xg, wg = leggauss(n)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


@lru_cache(maxsize=None)
def reference_triangle_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the unit reference triangle {x, y >= 0, x + y <= 1}."""
    _check_exactness(exactness)
    n = max(1, (exactness + 2) // 2)
    xg, wg = _gauss_legendre(n)
    u = 0.5 * (xg + 1.0)
    wu = 0.5 * wg
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    v = 0.5 * (xj + 1.0)
    wv = 0.25 * wj
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv)
    pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    return pts, W.ravel()


def fan_apices(points: np.ndarray) -> np.ndarray:
    """For each cell of an (S, n, 2) stack of vertex cycles, the first vertex
    in cycle order whose fan keeps every triangle's area above FAN_AREA
    times the cell's, or -1 where no vertex does; 0 for every triangle."""
    p = np.asarray(points, dtype=float)
    S, n = p.shape[:2]
    if n == 3:                  # a triangle is its own fan
        return np.zeros(S, dtype=int)
    # twice the signed areas of the triangles (vertex a, vertex i, vertex
    # i + 1), (S, a, i); those with a corner at a vanish and are skipped
    e = p[:, None] - p[:, :, None]                    # vertex i - vertex a
    en = e[:, :, np.arange(1, n + 1) % n]
    tri = e[..., 0] * en[..., 1] - en[..., 0] * e[..., 1]
    d = (np.arange(n) - np.arange(n)[:, None]) % n
    ok = (tri > FAN_AREA * tri.sum(axis=2, keepdims=True)) | (d == 0) | (d == n - 1)
    valid = ok.all(axis=2)
    return np.where(valid.any(axis=1), valid.argmax(axis=1), -1)


def cell_rules(points: np.ndarray, centroids: np.ndarray,
               exactness: int) -> QuadratureRule:
    """Quadrature over a stack of S polytopal cells with one vertex count n,
    their (S, n, 2) vertex cycles and (S, 2) centroids, on the fan of each
    cell: from its apex (`fan_apices`) the n - 2 triangles (apex, vertex i,
    vertex i + 1), or, for a stack of cells without one, from the centroid
    the n triangles (centroid, vertex i, vertex i + 1).  The rule's points
    are (S, nq, 2) and its weights (S, nq).  The cells of one stack share
    one kind of fan, so that each rule depends on its own cell alone."""
    _check_exactness(exactness)
    ref_pts, ref_w = reference_triangle_rule(exactness)
    p = np.asarray(points, dtype=float)
    S, n = p.shape[:2]
    apex = fan_apices(p)
    if (apex < 0).all():
        v0, v1, v2 = centroids[:, None], p, np.roll(p, -1, axis=1)
    elif (apex >= 0).all():
        cyc = (p[np.arange(S)[:, None], (apex[:, None] + np.arange(n)) % n]
               if apex.any() else p)
        v0, v1, v2 = cyc[:, :1], cyc[:, 1:-1], cyc[:, 2:]
    else:
        raise ValueError("the cells of a stack are fanned alike: all from "
                         "a vertex or all from the centroid")
    e1, e2 = v1 - v0, v2 - v0
    jac = e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1]
    pts = (v0[..., None, :] + ref_pts[:, 0, None] * e1[..., None, :]
           + ref_pts[:, 1, None] * e2[..., None, :])
    wts = ref_w * jac[..., None]
    return QuadratureRule(points=pts.reshape(S, -1, 2),
                          weights=wts.reshape(S, -1), exactness=exactness)


def cell_rule(element, exactness: int) -> QuadratureRule:
    """`cell_rules` on one element (`mesh.elements[e]`)."""
    return cell_rules(element.points[None], element.centroid[None],
                      exactness)[0]


def segment_rule(pa, pb, exactness: int) -> QuadratureRule:
    """Gauss-Legendre rule on the segment [pa, pb]; weights sum to its
    length.  Endpoints (..., 2) give a stack of rules: (..., n, 2) points
    and (..., n) weights."""
    _check_exactness(exactness)
    n = max(1, (exactness + 2) // 2)
    xg, wg = _gauss_legendre(n)
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    mid = 0.5 * (pa + pb)
    half = 0.5 * (pb - pa)
    pts = mid[..., None, :] + xg[:, None] * half[..., None, :]
    d = pb - pa
    length = np.hypot(d[..., 0], d[..., 1])
    return QuadratureRule(points=pts, weights=wg * (length[..., None] / 2.0),
                          exactness=exactness)


def face_rule(mesh, face_id: int, exactness: int) -> QuadratureRule:
    pa, pb = mesh.vertices[mesh.face_vertices[face_id]]
    return segment_rule(pa, pb, exactness)
