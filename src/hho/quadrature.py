"""Quadrature rules on polytopal elements and faces.

Cell rules are assembled by mapping a reference-triangle rule to every
simplex of the element's centroid fan, which `cell_rule` builds from the
element's vertices (a triangle is its own fan).  The reference rule for
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


class QuadratureCapabilityError(Exception):
    """Requested exactness beyond what this module provides."""


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray    # (n, 2) physical coordinates
    weights: np.ndarray   # (n,), positive, summing to the domain measure
    exactness: int


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


def cell_rule(element, exactness: int) -> QuadratureRule:
    """Quadrature over a polytopal element (`mesh.elements[e]`) via its
    centroid fan: the triangles (centroid, vertex i, vertex i + 1)."""
    _check_exactness(exactness)
    ref_pts, ref_w = reference_triangle_rule(exactness)
    p = element.points
    v0, v1, v2 = ((p[None, 0], p[None, 1], p[None, 2]) if len(p) == 3
                  else (element.centroid[None], p, np.roll(p, -1, axis=0)))
    e1, e2 = v1 - v0, v2 - v0
    jac = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    pts = (v0[:, None, :] + ref_pts[None, :, 0, None] * e1[:, None, :]
           + ref_pts[None, :, 1, None] * e2[:, None, :])
    wts = ref_w[None, :] * jac[:, None]
    return QuadratureRule(points=pts.reshape(-1, 2), weights=wts.ravel(),
                          exactness=exactness)


def segment_rule(pa, pb, exactness: int) -> QuadratureRule:
    """Gauss-Legendre rule on the segment [pa, pb]; weights sum to its length."""
    _check_exactness(exactness)
    n = max(1, (exactness + 2) // 2)
    xg, wg = _gauss_legendre(n)
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    mid = 0.5 * (pa + pb)
    half = 0.5 * (pb - pa)
    pts = mid[None, :] + np.outer(xg, half)
    length = float(np.hypot(*(pb - pa)))
    return QuadratureRule(points=pts, weights=wg * (length / 2.0), exactness=exactness)


def face_rule(mesh, face_id: int, exactness: int) -> QuadratureRule:
    pa, pb = mesh.vertices[mesh.face_vertices[face_id]]
    return segment_rule(pa, pb, exactness)
