"""Polytopal meshes of the unit square.

Meshes are flat element/face incidence structures with precomputed geometry
(centroids, diameters, outward normals, centroid-fan submeshes).  Four
structured families are provided; hanging nodes are represented by splitting
the coarse edge, so the face skeleton always matches between neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FAMILIES = ("triangular", "cartesian", "locally_refined", "hexagonal")

_ELEMENT_BUDGET = 2_000_000


class MeshValidationError(Exception):
    """A mesh violates one of its structural invariants."""


class MeshResourceError(Exception):
    """Requested refinement level exceeds the in-memory element budget."""


class MeshFormatError(Exception):
    """Malformed mesh text input."""


@dataclass(eq=False)
class Face:
    vertices: tuple[int, int]        # endpoint ids; their order orients the normal
    owners: tuple[int, ...]          # one (boundary) or two (interface) element ids
    signs: tuple[int, ...]           # n_TF = sign * normal for each owner
    normal: np.ndarray               # unit normal, tangent rotated by -90 degrees
    midpoint: np.ndarray
    length: float

    @property
    def is_boundary(self) -> bool:
        return len(self.owners) == 1


@dataclass(eq=False)
class Element:
    vertices: tuple[int, ...]        # CCW cycle; may contain hanging (collinear) nodes
    faces: tuple[int, ...]           # global face ids in cycle order
    centroid: np.ndarray
    area: float
    diameter: float
    simplices: np.ndarray            # (nsimplex, 3, 2) positively oriented triangles


@dataclass(eq=False)
class PolytopalMesh:
    vertices: np.ndarray             # (nv, 2)
    elements: list[Element]
    faces: list[Face]
    h_max: float
    family: str | None = None
    level: int | None = None

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def boundary_faces(self) -> list[int]:
        return [i for i, f in enumerate(self.faces) if f.is_boundary]

    @cached_property
    def shape_labels(self) -> np.ndarray:
        """`shape_keys` of this mesh, computed on first use (read-only)."""
        labels = shape_keys(self)
        labels.flags.writeable = False
        return labels


@dataclass
class RegularityReport:
    rho: float                       # min of the two mesh-regularity ratio families
    simplex_ratio: float             # min over simplices of inradius/diameter
    size_ratio: float                # min over (element, simplex) of h_S/h_T
    h_max: float
    n_elements: int
    n_faces: int


def _polygon_area_centroid(pts: np.ndarray) -> tuple[float, np.ndarray]:
    x, y = pts[:, 0], pts[:, 1]
    xs, ys = np.roll(x, -1), np.roll(y, -1)
    cross = x * ys - xs * y
    area = 0.5 * cross.sum()
    if abs(area) < 1e-14:
        raise MeshValidationError("degenerate polygon (area ~ 0)")
    cx = ((x + xs) * cross).sum() / (6.0 * area)
    cy = ((y + ys) * cross).sum() / (6.0 * area)
    return area, np.array([cx, cy])


def _fan_simplices(pts: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    n = len(pts)
    if n == 3:
        return pts[None, :, :].copy()
    tris = np.empty((n, 3, 2))
    for i in range(n):
        tris[i, 0] = centroid
        tris[i, 1] = pts[i]
        tris[i, 2] = pts[(i + 1) % n]
    return tris


def _tri_area(tri: np.ndarray) -> float:
    return 0.5 * ((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
                  - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1]))


def from_polygons(vertices, cells, family=None, level=None,
                  face_spec=None) -> PolytopalMesh:
    """Build a mesh from vertex coordinates and CCW vertex cycles.

    ``face_spec`` optionally fixes the face list (endpoint order and owner
    order per face, as read from a file); otherwise faces are enumerated in
    first-encounter order over element cycles.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshValidationError("vertices must be an (n, 2) array")
    nv = len(vertices)

    cycles = []
    for ci, cyc in enumerate(cells):
        cyc = [int(v) for v in cyc]
        if len(cyc) < 3:
            raise MeshValidationError(f"element {ci}: fewer than 3 vertices")
        if len(set(cyc)) != len(cyc):
            raise MeshValidationError(f"element {ci}: repeated vertex in cycle")
        for v in cyc:
            if not 0 <= v < nv:
                raise MeshValidationError(f"element {ci}: vertex id {v} out of range")
        cycles.append(cyc)

    # edge -> (owner, traversal direction) incidence
    edge_use: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for ci, cyc in enumerate(cycles):
        for li in range(len(cyc)):
            a, b = cyc[li], cyc[(li + 1) % len(cyc)]
            key = (a, b) if a < b else (b, a)
            edge_use.setdefault(key, []).append((ci, li, +1 if a < b else -1))

    for key, uses in edge_use.items():
        if len(uses) > 2:
            raise MeshValidationError(f"edge {key} shared by more than two elements")
        if len(uses) == 2 and uses[0][2] == uses[1][2]:
            raise MeshValidationError(f"edge {key} traversed in the same direction twice")

    if face_spec is not None:
        ordered = []
        seen = set()
        for fi, (a, b, owners) in enumerate(face_spec):
            key = (a, b) if a < b else (b, a)
            if key not in edge_use:
                raise MeshFormatError(f"face {fi}: edge ({a}, {b}) not found in any element")
            if key in seen:
                raise MeshFormatError(f"face {fi}: duplicate edge ({a}, {b})")
            seen.add(key)
            derived = sorted(u[0] for u in edge_use[key])
            if sorted(owners) != derived:
                raise MeshFormatError(
                    f"face {fi}: owners {sorted(owners)} inconsistent with elements {derived}")
            ordered.append(((a, b), tuple(owners)))
        if len(ordered) != len(edge_use):
            raise MeshFormatError("face list does not cover every element edge")
    else:
        ordered = []
        seen = set()
        for ci, cyc in enumerate(cycles):
            for li in range(len(cyc)):
                a, b = cyc[li], cyc[(li + 1) % len(cyc)]
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    continue
                seen.add(key)
                owners = tuple(u[0] for u in edge_use[key])
                ordered.append(((a, b), owners))

    face_id = {}
    faces = []
    for fi, ((a, b), owners) in enumerate(ordered):
        key = (a, b) if a < b else (b, a)
        face_id[key] = fi
        pa, pb = vertices[a], vertices[b]
        t = pb - pa
        length = float(np.hypot(t[0], t[1]))
        if length < 1e-14:
            raise MeshValidationError(f"face {fi}: zero length")
        normal = np.array([t[1], -t[0]]) / length
        # sign of each owner from its traversal direction of (a -> b)
        dir_of = {u[0]: u[2] for u in edge_use[key]}
        file_dir = +1 if a < b else -1
        signs = tuple(+1 if dir_of[o] == file_dir else -1 for o in owners)
        faces.append(Face(vertices=(a, b), owners=owners, signs=signs,
                          normal=normal, midpoint=0.5 * (pa + pb), length=length))

    elements = []
    for ci, cyc in enumerate(cycles):
        pts = vertices[np.array(cyc)]
        area, centroid = _polygon_area_centroid(pts)
        if area <= 0:
            raise MeshValidationError(f"element {ci}: cycle is not counter-clockwise")
        dia = 0.0
        for i in range(len(pts)):
            d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1]).max()
            dia = max(dia, float(d))
        fids = tuple(face_id[(cyc[i], cyc[(i + 1) % len(cyc)]) if cyc[i] < cyc[(i + 1) % len(cyc)]
                             else (cyc[(i + 1) % len(cyc)], cyc[i])]
                     for i in range(len(cyc)))
        elements.append(Element(vertices=tuple(cyc), faces=fids, centroid=centroid,
                                area=area, diameter=dia,
                                simplices=_fan_simplices(pts, centroid)))

    h_max = max(e.diameter for e in elements)
    return PolytopalMesh(vertices=vertices, elements=elements, faces=faces,
                         h_max=h_max, family=family, level=level)


# ---------------------------------------------------------------------------
# element shapes

SHAPE_BITS = 30     # vertex offsets are compared to 2^-30 of the diameter


def shape_keys(mesh: PolytopalMesh) -> np.ndarray:
    """One label per element, numbering the shape keys in order of first
    appearance.

    Two elements share a key when one is a translate of the other with the
    same cycle start and face orientations.  The key is the vertex count,
    the vertex offsets from the centroid in cycle order, rounded to a grid of
    2^-SHAPE_BITS times the power of two just above the diameter, and per
    face whether its first endpoint is the element's vertex at that position
    (it fixes the face basis tangent).  Elements that share a key then have
    the same local operators up to roundoff.
    """
    labels = np.empty(len(mesh.elements), dtype=int)
    seen: dict = {}
    for ei, el in enumerate(mesh.elements):
        exp = math.frexp(el.diameter)[1]
        off = mesh.vertices[list(el.vertices)] - el.centroid
        grid = np.rint(np.ldexp(off, SHAPE_BITS - exp)).astype(np.int64)
        heads = bytes(mesh.faces[f].vertices[0] == v
                      for f, v in zip(el.faces, el.vertices))
        key = (len(el.vertices), exp, grid.tobytes(), heads)
        labels[ei] = seen.setdefault(key, len(seen))
    return labels


# ---------------------------------------------------------------------------
# generators


def _guard_budget(estimate: int, family: str, level: int):
    if estimate > _ELEMENT_BUDGET:
        raise MeshResourceError(
            f"{family} level {level} would need ~{estimate} elements "
            f"(budget {_ELEMENT_BUDGET})")


def _grid_vertices(n: int) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, n + 1)
    vv = np.empty(((n + 1) ** 2, 2))
    for j in range(n + 1):
        for i in range(n + 1):
            vv[j * (n + 1) + i] = (xs[i], xs[j])
    return vv


def _gen_cartesian(level: int) -> PolytopalMesh:
    n = 2 ** level
    _guard_budget(n * n, "cartesian", level)
    vid = lambda i, j: j * (n + 1) + i
    cells = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(n) for i in range(n)]
    return from_polygons(_grid_vertices(n), cells, family="cartesian", level=level)


def _gen_triangular(level: int) -> PolytopalMesh:
    n = 2 ** level
    _guard_budget(2 * n * n, "triangular", level)
    vid = lambda i, j: j * (n + 1) + i
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return from_polygons(_grid_vertices(n), cells, family="triangular", level=level)


def _gen_locally_refined(level: int) -> PolytopalMesh:
    # n x n base grid; every cell in the closed lower-left quadrant is split
    # into four, leaving hanging nodes along the refinement front.
    n = 2 ** level
    _guard_budget(2 * n * n, "locally_refined", level)
    m = 2 * n   # fine lattice resolution
    bank: dict[tuple[int, int], int] = {}
    coords: list[tuple[float, float]] = []

    def vid(I, J):
        key = (I, J)
        if key not in bank:
            bank[key] = len(coords)
            coords.append((I / m, J / m))
        return bank[key]

    def refined(i, j):
        return 0 <= i < n // 2 and 0 <= j < n // 2

    cells = []
    for j in range(n):
        for i in range(n):
            if refined(i, j):
                for b in (2 * j, 2 * j + 1):
                    for a in (2 * i, 2 * i + 1):
                        cells.append([vid(a, b), vid(a + 1, b),
                                      vid(a + 1, b + 1), vid(a, b + 1)])
            else:
                I, J = 2 * i, 2 * j
                corners = [(I, J), (I + 2, J), (I + 2, J + 2), (I, J + 2)]
                nbrs = [(i, j - 1), (i + 1, j), (i, j + 1), (i - 1, j)]
                cyc = []
                for c in range(4):
                    a = corners[c]
                    b = corners[(c + 1) % 4]
                    cyc.append(vid(*a))
                    if refined(*nbrs[c]):
                        cyc.append(vid((a[0] + b[0]) // 2, (a[1] + b[1]) // 2))
                cells.append(cyc)
    return from_polygons(np.array(coords), cells, family="locally_refined", level=level)


def _clip_axis(poly: list[np.ndarray], axis: int, bound: float, keep_below: bool):
    out: list[np.ndarray] = []
    for i in range(len(poly)):
        cur, nxt = poly[i], poly[(i + 1) % len(poly)]
        cin = (cur[axis] <= bound) if keep_below else (cur[axis] >= bound)
        nin = (nxt[axis] <= bound) if keep_below else (nxt[axis] >= bound)
        if cin:
            out.append(cur)
        if cin != nin:
            t = (bound - cur[axis]) / (nxt[axis] - cur[axis])
            q = cur + t * (nxt - cur)
            q[axis] = bound   # land exactly on the domain side
            out.append(q)
    return out


class _PointBank:
    """Deduplicates nearly identical points (tolerance-bucketed)."""

    def __init__(self, tol=1e-9):
        self.tol = tol
        self.map: dict[tuple[int, int], int] = {}
        self.coords: list[tuple[float, float]] = []

    def index(self, x: float, y: float) -> int:
        kx, ky = round(x / self.tol), round(y / self.tol)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                idx = self.map.get((kx + dx, ky + dy))
                if idx is not None:
                    px, py = self.coords[idx]
                    if abs(px - x) <= self.tol and abs(py - y) <= self.tol:
                        return idx
        idx = len(self.coords)
        self.coords.append((x, y))
        self.map[(kx, ky)] = idx
        return idx


def _gen_hexagonal(level: int) -> PolytopalMesh:
    # regular flat-top hexagon tiling clipped to the unit square; lattice
    # vertices close to a side are snapped onto it first, so clipping never
    # leaves thin slivers behind
    s = 0.25 / 2 ** (level - 1)
    _guard_budget(int(1.0 / (1.5 * s) * 1.0 / (math.sqrt(3) * s)) + 4, "hexagonal", level)
    sq3 = math.sqrt(3.0)
    ox, oy = -0.31237 * s, -0.41731 * s
    snap = 0.35 * s
    imin = math.floor((-s - ox) / (1.5 * s)) - 1
    imax = math.ceil((1 + s - ox) / (1.5 * s)) + 1
    angles = [k * math.pi / 3.0 for k in range(6)]
    corner = np.array([(s * math.cos(a), s * math.sin(a)) for a in angles])

    def _snap(q):
        for axis in (0, 1):
            for bound in (0.0, 1.0):
                if abs(q[axis] - bound) < snap:
                    q[axis] = bound
        return q

    bank = _PointBank()
    cells = []
    for i in range(imin, imax + 1):
        jmin = math.floor((-s - oy) / (sq3 * s)) - 1
        jmax = math.ceil((1 + s - oy) / (sq3 * s)) + 1
        for j in range(jmin, jmax + 1):
            cx = ox + 1.5 * s * i
            cy = oy + sq3 * s * (j + 0.5 * (i % 2))
            poly = [_snap(np.array([cx, cy]) + corner[k]) for k in range(6)]
            for axis, bound, keep_below in ((0, 0.0, False), (0, 1.0, True),
                                            (1, 0.0, False), (1, 1.0, True)):
                poly = _clip_axis(poly, axis, bound, keep_below)
                if not poly:
                    break
            if not poly or len(poly) < 3:
                continue
            pts = np.array(poly)
            area = 0.5 * (pts[:, 0] * np.roll(pts[:, 1], -1)
                          - np.roll(pts[:, 0], -1) * pts[:, 1]).sum()
            if area < 1e-10 * s * s:
                continue
            cyc = []
            for q in poly:
                vi = bank.index(q[0], q[1])
                if not cyc or (vi != cyc[-1] and vi != cyc[0]):
                    cyc.append(vi)
            if len(cyc) >= 3:
                cells.append(cyc)
    return from_polygons(np.array(bank.coords), cells, family="hexagonal", level=level)


_GENERATORS = {
    "triangular": _gen_triangular,
    "cartesian": _gen_cartesian,
    "locally_refined": _gen_locally_refined,
    "hexagonal": _gen_hexagonal,
}


def generate(family: str, level: int) -> PolytopalMesh:
    """Generate a level-`level` mesh of the unit square from a named family."""
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if level < 1:
        raise ValueError("level must be >= 1")
    return _GENERATORS[family](level)


# ---------------------------------------------------------------------------
# validation


def _on_boundary_segment(pa, pb, tol=1e-12) -> bool:
    for axis, bound in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        if abs(pa[axis] - bound) <= tol and abs(pb[axis] - bound) <= tol:
            return True
    return False


def validate(mesh: PolytopalMesh) -> RegularityReport:
    """Check structural/geometric invariants; return mesh-regularity ratios.

    Raises MeshValidationError naming the offending entity on failure.
    """
    V = mesh.vertices
    total_area = 0.0
    simplex_ratio = math.inf
    size_ratio = math.inf

    for fi, f in enumerate(mesh.faces):
        if len(f.owners) not in (1, 2):
            raise MeshValidationError(f"face {fi}: has {len(f.owners)} owners")
        if len(f.owners) == 2 and f.owners[0] == f.owners[1]:
            raise MeshValidationError(f"face {fi}: repeated owner")
        if abs(np.hypot(*f.normal) - 1.0) > 1e-14:
            raise MeshValidationError(f"face {fi}: normal not unit")
        pa, pb = V[f.vertices[0]], V[f.vertices[1]]
        t = pb - pa
        L = np.hypot(*t)
        if abs(L - f.length) > 1e-12 * max(1.0, L):
            raise MeshValidationError(f"face {fi}: stored length mismatch")
        if np.hypot(*(f.normal - np.array([t[1], -t[0]]) / L)) > 1e-12:
            raise MeshValidationError(f"face {fi}: normal inconsistent with endpoints")
        if len(f.owners) == 2 and f.signs[0] * f.signs[1] != -1:
            raise MeshValidationError(f"face {fi}: interface signs not opposite")
        if len(f.owners) == 1 and not _on_boundary_segment(pa, pb):
            raise MeshValidationError(f"face {fi}: single-owner face not on the boundary")

    for ci, el in enumerate(mesh.elements):
        pts = V[np.array(el.vertices)]
        area, _ = _polygon_area_centroid(pts)
        if area <= 0:
            raise MeshValidationError(f"element {ci}: not counter-clockwise")
        if abs(area - el.area) > 1e-12 * area:
            raise MeshValidationError(f"element {ci}: stored area mismatch")
        total_area += el.area

        n = len(el.vertices)
        if len(el.faces) != n:
            raise MeshValidationError(f"element {ci}: face count != vertex count")
        perim = 0.0
        flux = np.zeros(2)
        fsum = 0.0
        for li in range(n):
            a, b = el.vertices[li], el.vertices[(li + 1) % n]
            perim += np.hypot(*(V[b] - V[a]))
            f = mesh.faces[el.faces[li]]
            if set(f.vertices) != {a, b}:
                raise MeshValidationError(
                    f"element {ci}: face {el.faces[li]} does not match edge ({a}, {b})")
            if ci not in f.owners:
                raise MeshValidationError(
                    f"element {ci}: not listed as owner of face {el.faces[li]}")
            s = f.signs[f.owners.index(ci)]
            n_tf = s * f.normal
            # outward for a CCW cycle means n_TF = rot(-90) of the traversal tangent
            tt = (V[b] - V[a]) / np.hypot(*(V[b] - V[a]))
            if np.hypot(*(n_tf - np.array([tt[1], -tt[0]]))) > 1e-12:
                raise MeshValidationError(
                    f"element {ci}: face {el.faces[li]} normal not outward")
            flux += f.length * n_tf
            fsum += f.length
        if abs(fsum - perim) > 1e-12 * perim:
            raise MeshValidationError(f"element {ci}: faces do not partition the boundary")
        if np.hypot(*flux) > 1e-12 * max(1.0, perim):
            raise MeshValidationError(f"element {ci}: nonzero normal flux sum")

        s_areas = 0.0
        for si in range(len(el.simplices)):
            tri = el.simplices[si]
            a2 = _tri_area(tri)
            if a2 <= 0:
                raise MeshValidationError(f"element {ci}: simplex {si} not positive")
            s_areas += a2
            e01 = np.hypot(*(tri[1] - tri[0]))
            e12 = np.hypot(*(tri[2] - tri[1]))
            e20 = np.hypot(*(tri[0] - tri[2]))
            h_s = max(e01, e12, e20)
            r_s = 2.0 * a2 / (e01 + e12 + e20)
            simplex_ratio = min(simplex_ratio, r_s / h_s)
            size_ratio = min(size_ratio, h_s / el.diameter)
        if abs(s_areas - el.area) > 1e-12 * el.area:
            raise MeshValidationError(f"element {ci}: submesh areas do not sum to |T|")

    if abs(total_area - 1.0) > 1e-10:
        raise MeshValidationError(f"element areas sum to {total_area}, not 1")

    return RegularityReport(rho=min(simplex_ratio, size_ratio),
                            simplex_ratio=simplex_ratio, size_ratio=size_ratio,
                            h_max=mesh.h_max, n_elements=mesh.n_elements,
                            n_faces=mesh.n_faces)


# ---------------------------------------------------------------------------
# text format


def write_mesh(mesh: PolytopalMesh) -> str:
    lines = ["polymesh 2d v1", f"vertices {len(mesh.vertices)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"elements {mesh.n_elements}")
    for el in mesh.elements:
        lines.append(" ".join(str(v) for v in el.vertices))
    lines.append(f"faces {mesh.n_faces}")
    for f in mesh.faces:
        a, b = f.vertices
        oa = f.owners[0]
        ob = f.owners[1] if len(f.owners) == 2 else -1
        lines.append(f"{a} {b} {oa} {ob}")
    return "\n".join(lines) + "\n"


def _expect_count(tok: list[str], name: str, ln: int) -> int:
    if len(tok) != 2 or tok[0] != name:
        raise MeshFormatError(f"line {ln}: expected '{name} <count>'")
    try:
        n = int(tok[1])
    except ValueError:
        raise MeshFormatError(f"line {ln}: bad count {tok[1]!r}") from None
    if n < 0:
        raise MeshFormatError(f"line {ln}: negative count")
    return n


def read_mesh(text: str) -> PolytopalMesh:
    """Parse the plain-text mesh format and rebuild all derived geometry."""
    raw = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(rows):
            raise MeshFormatError("unexpected end of input")
        ln, s = rows[pos]
        pos += 1
        return ln, s

    ln, header = take()
    if header != "polymesh 2d v1":
        raise MeshFormatError(f"line {ln}: bad header {header!r}")

    ln, s = take()
    nv = _expect_count(s.split(), "vertices", ln)
    verts = np.empty((nv, 2))
    for i in range(nv):
        ln, s = take()
        tok = s.split()
        if len(tok) != 2:
            raise MeshFormatError(f"line {ln}: expected 'x y'")
        try:
            verts[i] = (float(tok[0]), float(tok[1]))
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad coordinate") from None

    ln, s = take()
    ne = _expect_count(s.split(), "elements", ln)
    cells = []
    for i in range(ne):
        ln, s = take()
        try:
            cyc = [int(t) for t in s.split()]
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad vertex id") from None
        if len(cyc) < 3:
            raise MeshFormatError(f"line {ln}: element with fewer than 3 vertices")
        for v in cyc:
            if not 0 <= v < nv:
                raise MeshFormatError(f"line {ln}: vertex id {v} out of range")
        cells.append(cyc)

    ln, s = take()
    nf = _expect_count(s.split(), "faces", ln)
    face_spec = []
    for i in range(nf):
        ln, s = take()
        tok = s.split()
        if len(tok) != 4:
            raise MeshFormatError(f"line {ln}: expected 'v0 v1 ownerA ownerB'")
        try:
            a, b, oa, ob = (int(t) for t in tok)
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad face entry") from None
        if not (0 <= a < nv and 0 <= b < nv):
            raise MeshFormatError(f"line {ln}: face vertex out of range")
        if not 0 <= oa < ne:
            raise MeshFormatError(f"line {ln}: owner {oa} out of range")
        if ob != -1 and not 0 <= ob < ne:
            raise MeshFormatError(f"line {ln}: owner {ob} out of range")
        owners = (oa,) if ob == -1 else (oa, ob)
        face_spec.append((a, b, owners))
    if pos != len(rows):
        raise MeshFormatError(f"line {rows[pos][0]}: trailing content")

    try:
        return from_polygons(verts, cells, face_spec=face_spec)
    except MeshValidationError as exc:
        raise MeshFormatError(str(exc)) from exc
