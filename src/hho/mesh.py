"""Polytopal meshes of the unit square.

A mesh is a set of flat, read-only arrays: per cell its CCW vertex cycle
and face ids (CSR rows), centroid, area and diameter; per face its
endpoints, owners, signs, unit normal and length.  Four structured families
are provided; hanging nodes are represented by splitting the coarse edge, so
the face skeleton always matches between neighbours.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
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


@dataclass(frozen=True, eq=False)
class Element:
    """One cell of a mesh, read from its arrays on access (`mesh.elements`)."""
    vertices: tuple[int, ...]        # CCW cycle; may contain hanging (collinear) nodes
    faces: tuple[int, ...]           # global face ids in cycle order
    points: np.ndarray               # (n, 2) vertex coordinates in cycle order
    centroid: np.ndarray
    area: float
    diameter: float


@dataclass(frozen=True, eq=False)
class PolytopalMesh:
    vertices: np.ndarray             # (nv, 2)
    cell_ptr: np.ndarray             # (nE + 1,) cycle e is [cell_ptr[e], cell_ptr[e + 1])
    cell_vertices: np.ndarray        # CCW cycles; may contain hanging (collinear) nodes
    cell_faces: np.ndarray           # face ids; face i of a cycle joins its vertices i, i + 1
    centroids: np.ndarray            # (nE, 2)
    areas: np.ndarray                # (nE,)
    diameters: np.ndarray            # (nE,)
    face_vertices: np.ndarray        # (nF, 2) endpoint ids; their order orients the normal
    face_owners: np.ndarray          # (nF, 2) element ids; -1 second on the boundary
    face_signs: np.ndarray           # (nF, 2) n_TF = sign * normal per owner; 0 for -1
    face_normals: np.ndarray         # (nF, 2) unit, the tangent rotated by -90 degrees
    face_lengths: np.ndarray         # (nF,)
    h_max: float
    family: str | None = None
    level: int | None = None

    def __post_init__(self):
        for f in fields(self):
            if isinstance(getattr(self, f.name), np.ndarray):
                getattr(self, f.name).flags.writeable = False

    @property
    def n_elements(self) -> int:
        return len(self.areas)

    @property
    def n_faces(self) -> int:
        return len(self.face_lengths)

    @property
    def elements(self) -> _ElementViews:
        return _ElementViews(self)

    def boundary_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_owners[:, 1] < 0)

    @cached_property
    def shape_labels(self) -> np.ndarray:
        """`shape_keys` of this mesh, computed on first use (read-only)."""
        labels = shape_keys(self)
        labels.flags.writeable = False
        return labels


@dataclass(frozen=True)
class _ElementViews(Sequence):
    """The cells of a mesh as `Element`s, each built when indexed."""
    mesh: PolytopalMesh

    def __len__(self) -> int:
        return self.mesh.n_elements

    def __getitem__(self, e) -> Element:
        m, e = self.mesh, range(len(self))[e]
        rows = slice(m.cell_ptr[e], m.cell_ptr[e + 1])
        cyc = m.cell_vertices[rows]
        return Element(tuple(cyc.tolist()), tuple(m.cell_faces[rows].tolist()),
                       m.vertices[cyc], m.centroids[e], m.areas[e], float(m.diameters[e]))


@dataclass
class RegularityReport:
    rho: float                       # min of the two mesh-regularity ratio families
    simplex_ratio: float             # min over simplices of inradius/diameter
    size_ratio: float                # min over (element, simplex) of h_S/h_T
    h_max: float
    n_elements: int
    n_faces: int


def _raise_first(checks, error=MeshValidationError):
    """Raise `error` for the first entity that fails one of `checks`, (mask
    over the entities, message) in the order they apply, with the message of
    the first it fails: a format string of the index or a function of it."""
    bad = np.array([mask for mask, _ in checks], dtype=bool)
    hit = bad.any(axis=0)
    if hit.any():
        i = int(np.argmax(hit))
        msg = checks[int(np.argmax(bad[:, i]))][1]
        raise error(msg(i) if callable(msg) else msg.format(i))


def _count_groups(ptr: np.ndarray):
    """For each vertex count n: the elements with n vertices and the (E, n)
    positions of their cycles in the CSR arrays."""
    counts = np.diff(ptr)
    for n in np.unique(counts):
        ids = np.flatnonzero(counts == n)
        yield ids, ptr[ids, None] + np.arange(n)


def _cycle_geometry(vertices, ptr, cyc):
    """Signed areas, first moments times 6 |T| and diameters of the cycles.
    Each sum runs along a row in cycle order, one vertex count at a time."""
    area, diameter = np.empty((2, len(ptr) - 1))
    moment = np.empty((len(ptr) - 1, 2))
    for ids, rows in _count_groups(ptr):
        n = rows.shape[1]
        p = vertices[cyc[rows]]                     # (E, n, 2)
        x, y = p[..., 0], p[..., 1]
        xs, ys = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * ys - xs * y
        area[ids] = 0.5 * cross.sum(axis=1)
        moment[ids, 0] = ((x + xs) * cross).sum(axis=1)
        moment[ids, 1] = ((y + ys) * cross).sum(axis=1)
        # largest distance between vertices j apart in the cycle; the
        # offsets past n // 2 repeat these pairs the other way round
        far = np.zeros(len(ids))
        for j in range(1, n // 2 + 1):
            d = p - np.roll(p, -j, axis=1)
            far = np.maximum(far, np.hypot(d[..., 0], d[..., 1]).max(axis=1))
        diameter[ids] = far
    return area, moment, diameter


def _next_in_cycle(ptr: np.ndarray) -> np.ndarray:
    """CSR position of the vertex after each one in its cycle."""
    nxt = np.arange(1, ptr[-1] + 1)
    nxt[ptr[1:] - 1] = ptr[:-1]
    return nxt


def from_polygons(vertices, cells, family=None, level=None,
                  face_spec=None) -> PolytopalMesh:
    """Build a mesh from vertex coordinates and CCW vertex cycles (a list,
    or an (nE, n) array of cycles of n vertices).

    ``face_spec`` optionally fixes the face list, endpoint and owner order as
    rows (a, b, owner, owner or -1) read from a file; otherwise faces are
    enumerated in first-encounter order over element cycles.
    """
    vertices = np.array(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshValidationError("vertices must be an (n, 2) array")
    _raise_first([(~np.isfinite(vertices).all(axis=1),
                   "vertex {}: non-finite coordinate")])
    nv = len(vertices)

    if isinstance(cells, np.ndarray):
        counts = np.full(len(cells), cells.shape[1])
        cyc = cells.astype(np.int64).ravel()
    else:
        counts = np.fromiter(map(len, cells), np.int64, len(cells))
        cyc = np.fromiter(itertools.chain.from_iterable(cells), np.int64,
                          counts.sum())
    ne = len(counts)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    cell = np.repeat(np.arange(ne), counts)
    order = np.lexsort((cyc, cell))
    twice = cell[order][1:][(cyc[order][1:] == cyc[order][:-1])
                            & (cell[order][1:] == cell[order][:-1])]
    out = (cyc < 0) | (cyc >= nv)
    _raise_first([
        (counts < 3, "element {}: fewer than 3 vertices"),
        (np.isin(np.arange(ne), twice), "element {}: repeated vertex in cycle"),
        (np.bincount(cell[out], minlength=ne) > 0,
         lambda e: f"element {e}: vertex id "
                   f"{cyc[ptr[e] + np.argmax(out[ptr[e]:ptr[e + 1]])]} out of range"),
    ])

    # edges: one key per unordered vertex pair, numbered by first encounter
    a, b = cyc, cyc[_next_in_cycle(ptr)]
    forward = a < b
    keys, first, edge_of, uses = np.unique(
        np.minimum(a, b) * nv + np.maximum(a, b), return_index=True,
        return_inverse=True, return_counts=True)
    met = np.argsort(first)                         # edges by first encounter
    by_edge = np.argsort(edge_of, kind="stable")    # half-edges, edge by edge
    start = np.cumsum(uses) - uses
    h0 = by_edge[start]                             # an edge's first use ...
    h1 = by_edge[np.minimum(start + 1, len(cyc) - 1)]          # ... its second
    owners = np.column_stack([cell[h0], np.where(uses == 2, cell[h1], -1)])
    edge = lambda u: (int(keys[u] // nv), int(keys[u] % nv))
    _raise_first([
        ((uses > 2)[met],
         lambda j: f"edge {edge(met[j])} shared by more than two elements"),
        (((uses == 2) & (forward[h0] == forward[h1]))[met],
         lambda j: f"edge {edge(met[j])} traversed in the same direction twice"),
    ])

    if face_spec is None:
        face_vertices = np.column_stack([a[h0], b[h0]])[met]
        face_owners, face_edge = owners[met], met
    else:
        spec = np.array(face_spec, dtype=np.int64).reshape(-1, 4)
        fa, fb = spec[:, 0], spec[:, 1]
        skey = np.minimum(fa, fb) * nv + np.maximum(fa, fb)
        u = np.minimum(np.searchsorted(keys, skey), len(keys) - 1)
        _, once, again = np.unique(skey, return_index=True, return_inverse=True)
        listed = lambda row: sorted(int(o) for o in row if o >= 0)
        _raise_first([
            (keys[u] != skey,
             lambda f: f"face {f}: edge ({fa[f]}, {fb[f]}) not found in any element"),
            (once[again] != np.arange(len(spec)),
             lambda f: f"face {f}: duplicate edge ({fa[f]}, {fb[f]})"),
            ((np.sort(spec[:, 2:], axis=1) != np.sort(owners[u], axis=1)).any(axis=1),
             lambda f: f"face {f}: owners {listed(spec[f, 2:])} inconsistent "
                       f"with elements {listed(owners[u[f]])}"),
        ], error=MeshFormatError)
        if len(spec) != len(keys):
            raise MeshFormatError("face list does not cover every element edge")
        face_vertices, face_owners, face_edge = spec[:, :2], spec[:, 2:], u
    face_of_edge = np.empty(len(keys), dtype=np.int64)
    face_of_edge[face_edge] = np.arange(len(keys))
    cell_faces = face_of_edge[edge_of]

    # each owner's sign: + where it runs along the face as its endpoints do
    signs = np.zeros(face_owners.shape, dtype=np.int8)
    along = forward == (face_vertices[:, 0] < face_vertices[:, 1])[cell_faces]
    signs[cell_faces, (face_owners[cell_faces, 1] == cell).astype(int)] = \
        np.where(along, 1, -1)

    t = vertices[face_vertices[:, 1]] - vertices[face_vertices[:, 0]]
    length = np.hypot(t[:, 0], t[:, 1])
    _raise_first([(length < 1e-14, "face {}: zero length")])

    area, moment, diameter = _cycle_geometry(vertices, ptr, cyc)
    _raise_first([(abs(area) < 1e-14, "element {}: degenerate polygon (area ~ 0)"),
                  (area <= 0, "element {}: cycle is not counter-clockwise")])
    return PolytopalMesh(
        vertices=vertices, cell_ptr=ptr, cell_vertices=cyc, cell_faces=cell_faces,
        centroids=moment / (6.0 * area)[:, None], areas=area, diameters=diameter,
        face_vertices=face_vertices, face_owners=face_owners, face_signs=signs,
        face_normals=np.column_stack([t[:, 1], -t[:, 0]]) / length[:, None],
        face_lengths=length, h_max=float(diameter.max()), family=family,
        level=level)


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
    labels = np.empty(mesh.n_elements, dtype=int)
    firsts = []                 # first element of each key, count by count
    for ids, rows in _count_groups(mesh.cell_ptr):
        cyc = mesh.cell_vertices[rows]
        exp = np.frexp(mesh.diameters[ids])[1]
        off = mesh.vertices[cyc] - mesh.centroids[ids, None]
        grid = np.rint(np.ldexp(off, (SHAPE_BITS - exp)[:, None, None])).astype(np.int64)
        heads = mesh.face_vertices[mesh.cell_faces[rows], 0] == cyc
        key = np.column_stack([exp, grid.reshape(len(ids), -1), heads])
        # equal rows are adjacent in a stable sort over the key columns,
        # each group led by its first appearance
        order = np.lexsort(key.T)
        row = key[order]
        lead = np.r_[True, np.any(row[1:] != row[:-1], axis=1)]
        labels[ids[order]] = sum(map(len, firsts)) + np.cumsum(lead) - 1
        firsts.append(ids[order[lead]])
    rank = np.argsort(np.argsort(np.concatenate(firsts)))
    return rank[labels]


# ---------------------------------------------------------------------------
# generators


def check_budget(family: str, level: int):
    """Raise ValueError for an unknown family or a level that is not an
    integer >= 1, and MeshResourceError if `generate(family, level)` would
    make more than _ELEMENT_BUDGET elements, by an estimate that makes none:
    n^2 squares of side 1/n, n = 2^level, twice as many triangles (a bound
    on the locally refined cells too), or 8 n^2 / sqrt(27) hexagons of side
    1 / (2 n) and a few clipped ones."""
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if not isinstance(level, (int, np.integer)) or level < 1:
        raise ValueError(f"level must be an integer >= 1, got {level!r}")
    n = 2 ** int(level)
    estimate = {"cartesian": n * n, "triangular": 2 * n * n,
                "locally_refined": 2 * n * n,
                "hexagonal": math.isqrt(64 * n ** 4 // 27) + 4}[family]
    if estimate > _ELEMENT_BUDGET:
        raise MeshResourceError(
            f"{family} level {level} would need ~{estimate} elements "
            f"(budget {_ELEMENT_BUDGET})")


def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the (n + 1)^2 lattice of the unit square, x fastest, and
    the id of the lower-left corner of each of its n^2 squares, x fastest."""
    xs = np.linspace(0.0, 1.0, n + 1)
    corners = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return np.column_stack([np.tile(xs, n + 1), np.repeat(xs, n + 1)]), corners


def _gen_cartesian(level: int) -> PolytopalMesh:
    n = 2 ** level
    vertices, c = _grid(n)
    cells = c[:, None] + [0, 1, n + 2, n + 1]
    return from_polygons(vertices, cells, family="cartesian", level=level)


def _gen_triangular(level: int) -> PolytopalMesh:
    n = 2 ** level
    vertices, c = _grid(n)
    cells = (c[:, None, None] + [[0, 1, n + 2], [0, n + 2, n + 1]]).reshape(-1, 3)
    return from_polygons(vertices, cells, family="triangular", level=level)


def _gen_locally_refined(level: int) -> PolytopalMesh:
    # n x n base grid; every cell in the closed lower-left quadrant is split
    # into four, leaving hanging nodes along the refinement front.
    n = 2 ** level
    j, i = np.divmod(np.arange(n * n), n)
    split = lambda i, j: (0 <= i) & (i < n // 2) & (0 <= j) & (j < n // 2)
    # each base cell as four rows of up to eight fine lattice points: the four
    # quads of a split cell, or the coarse cycle with the midpoint of each
    # side whose cell across is split
    quad = [(0, 0), (1, 0), (1, 1), (0, 1)]
    quads = [[(a + x, b + y) for x, y in quad] + quad for b in (0, 1) for a in (0, 1)]
    cycle = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    fine = split(i, j)[:, None, None]
    lattice = 2 * np.column_stack([i, j])[:, None, None] + np.where(
        fine[..., None], quads, [cycle] + 3 * [quad + quad])
    sides = np.column_stack([split(i, j - 1), split(i + 1, j), split(i, j + 1), split(i - 1, j)])
    used = np.where(fine, np.arange(8) < 4, np.arange(4)[:, None] == 0)
    used[:, 0, 1::2] &= fine[:, 0] | sides
    _, first, vid = np.unique(lattice[used] @ [1, 2 * n + 1], return_index=True,
                                 return_inverse=True)
    vid = np.argsort(np.argsort(first))[vid]      # numbered by first use
    size = used.sum(axis=2).ravel()
    cells = np.split(vid, np.cumsum(size[size > 0])[:-1])
    return from_polygons(lattice[used][np.sort(first)] / (2 * n), cells,
                         family="locally_refined", level=level)


def _clip(P: np.ndarray, count: np.ndarray, axis: int, bound: float,
          keep_below: bool) -> tuple[np.ndarray, np.ndarray]:
    """Clip the polygons P[e, :count[e]] to one side of x_axis = bound, all
    at once (Sutherland-Hodgman): a vertex stays if inside, and an edge that
    crosses the line adds its crossing."""
    k = np.arange(P.shape[1])
    live = k < count[:, None]
    nxt = np.take_along_axis(P, np.where(k + 1 < count[:, None], k + 1, 0)[..., None], axis=1)
    inside = (lambda x: x <= bound) if keep_below else (lambda x: x >= bound)
    cin, nin = inside(P[..., axis]) & live, inside(nxt[..., axis])
    with np.errstate(divide="ignore", invalid="ignore"):   # on edges along the line
        t = (bound - P[..., axis]) / (nxt[..., axis] - P[..., axis])
        q = P + t[..., None] * (nxt - P)
    q[..., axis] = bound   # land exactly on the domain side
    keep = np.stack([cin, live & (cin != nin)], axis=2).reshape(len(P), -1)
    order = np.argsort(~keep, axis=1, kind="stable")
    count = keep.sum(axis=1)
    out = np.take_along_axis(np.stack([P, q], axis=2).reshape(len(P), -1, 2),
                             order[:, :count.max(), None], axis=1)
    return out, count


def _gen_hexagonal(level: int) -> PolytopalMesh:
    # regular flat-top hexagon tiling clipped to the unit square; lattice
    # vertices close to a side are snapped onto it first, so clipping never
    # leaves thin slivers behind
    s = 0.25 / 2 ** (level - 1)
    sq3 = math.sqrt(3.0)
    ox, oy = -0.31237 * s, -0.41731 * s
    i, j = (a.ravel() for a in np.meshgrid(
        np.arange(math.floor((-s - ox) / (1.5 * s)) - 1, math.ceil((1 + s - ox) / (1.5 * s)) + 2),
        np.arange(math.floor((-s - oy) / (sq3 * s)) - 1, math.ceil((1 + s - oy) / (sq3 * s)) + 2),
        indexing="ij"))
    corner = np.array([(s * math.cos(a), s * math.sin(a)) for a in np.arange(6) * math.pi / 3.0])
    P = np.column_stack([ox + 1.5 * s * i, oy + sq3 * s * (j + 0.5 * (i % 2))])[:, None] + corner
    for bound in (0.0, 1.0):
        P[abs(P - bound) < 0.35 * s] = bound
    count = np.full(len(P), 6)
    for axis, bound, keep_below in ((0, 0.0, False), (0, 1.0, True),
                                    (1, 0.0, False), (1, 1.0, True)):
        P, count = _clip(P, count, axis, bound, keep_below)

    # drop slivers
    P, count = P[count >= 3], count[count >= 3]
    pts = P[np.arange(P.shape[1]) < count[:, None]]
    big = _cycle_geometry(pts, np.r_[0, np.cumsum(count)], np.arange(len(pts)))[0] >= 1e-10 * s * s
    pts, count = pts[np.repeat(big, count)], count[big]
    # number the points by first use, merging the copies of a point that
    # differ by roundoff: points closer than 1e-9 in x, then in y
    close = lambda o, x: np.diff(x[o], prepend=-np.inf) <= 1e-9
    by_x = np.argsort(pts[:, 0], kind="stable")
    column = np.empty(len(pts), dtype=int)
    column[by_x] = np.cumsum(~close(by_x, pts[:, 0]))
    by_y = np.lexsort((pts[:, 1], column))
    point = np.empty(len(pts), dtype=int)
    point[by_y] = np.cumsum(~close(by_y, pts[:, 1]) | ~close(by_y, column))
    _, first, vid = np.unique(point, return_index=True, return_inverse=True)
    vid = np.argsort(np.argsort(first))[vid]
    # a cycle skips a vertex that repeats the one before it or its first
    cut = np.cumsum(count) - count
    start, pos = np.repeat(cut, count), np.arange(len(vid))
    keep = (pos == start) | ((vid != vid[pos - 1]) & (vid != vid[start]))
    cycles = np.split(vid[keep], np.cumsum(np.add.reduceat(keep, cut))[:-1])
    return from_polygons(pts[np.sort(first)], [c for c in cycles if len(c) >= 3],
                         family="hexagonal", level=level)


_GENERATORS = {
    "triangular": _gen_triangular,
    "cartesian": _gen_cartesian,
    "locally_refined": _gen_locally_refined,
    "hexagonal": _gen_hexagonal,
}


def generate(family: str, level: int) -> PolytopalMesh:
    """Generate a level-`level` mesh of the unit square from a named family."""
    check_budget(family, level)
    return _GENERATORS[family](level)


# ---------------------------------------------------------------------------
# validation


def _on_boundary_segment(pa, pb, tol=1e-12) -> np.ndarray:
    """Which segments [pa, pb] lie on a side of the unit square."""
    on = lambda bound: (abs(pa - bound) <= tol) & (abs(pb - bound) <= tol)
    return (on(0.0) | on(1.0)).any(axis=1)


def validate(mesh: PolytopalMesh) -> RegularityReport:
    """Check structural/geometric invariants; return mesh-regularity ratios.

    Raises MeshValidationError naming the first offending face or element.
    """
    V, ptr, cyc, cf = mesh.vertices, mesh.cell_ptr, mesh.cell_vertices, mesh.cell_faces
    fv, own, sgn = mesh.face_vertices, mesh.face_owners, mesh.face_signs
    normal, area, ne = mesh.face_normals, mesh.areas, mesh.n_elements
    if len(cf) != len(cyc):     # the first element whose faces run short or over
        e = min(np.searchsorted(ptr, min(len(cf), len(cyc)), side="right") - 1, ne - 1)
        raise MeshValidationError(f"element {e}: face count != vertex count")

    pa, pb = V[fv[:, 0]], V[fv[:, 1]]
    t = pb - pa
    L = np.hypot(t[:, 0], t[:, 1])
    interface = own[:, 1] >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rotated = np.column_stack([t[:, 1], -t[:, 0]]) / L[:, None]
    _raise_first([
        (own[:, 0] < 0, "face {}: no first owner"),
        (interface & (own[:, 0] == own[:, 1]), "face {}: repeated owner"),
        (abs(np.hypot(normal[:, 0], normal[:, 1]) - 1.0) > 1e-14,
         "face {}: normal not unit"),
        (abs(L - mesh.face_lengths) > 1e-12 * np.maximum(1.0, L),
         "face {}: stored length mismatch"),
        (np.hypot(*(normal - rotated).T) > 1e-12,
         "face {}: normal inconsistent with endpoints"),
        (interface & (sgn[:, 0] * sgn[:, 1] != -1),
         "face {}: interface signs not opposite"),
        (~interface & ~_on_boundary_segment(pa, pb),
         "face {}: single-owner face not on the boundary"),
    ])

    # each cycle edge a -> b of element `cell` against its face f
    cell = np.repeat(np.arange(ne), np.diff(ptr))
    a, b, f = cyc, cyc[_next_in_cycle(ptr)], cf
    edge = V[b] - V[a]
    run = np.hypot(edge[:, 0], edge[:, 1])
    slot = (own[f, 1] == cell).astype(int)
    n_tf = sgn[f, slot][:, None] * normal[f]
    with np.errstate(divide="ignore", invalid="ignore"):
        outward = np.column_stack([edge[:, 1], -edge[:, 0]]) / run[:, None]
    edge_bad = np.array([
        (np.minimum(a, b) != fv[f].min(axis=1)) | (np.maximum(a, b) != fv[f].max(axis=1)),
        own[f, slot] != cell,
        np.hypot(*(n_tf - outward).T) > 1e-12,    # n_TF is rot(-90) of a -> b
    ])

    def edge_message(e):
        h = ptr[e] + np.argmax(edge_bad[:, ptr[e]:ptr[e + 1]].any(axis=0))
        return [f"element {e}: face {f[h]} does not match edge ({a[h]}, {b[h]})",
                f"element {e}: not listed as owner of face {f[h]}",
                f"element {e}: face {f[h]} normal not outward",
                ][np.argmax(edge_bad[:, h])]

    perim = np.bincount(cell, run, ne)
    flux = np.column_stack([np.bincount(cell, mesh.face_lengths[f] * n_tf[:, c], ne)
                            for c in (0, 1)])

    # the simplices: a triangle itself, else (centroid, a, b) for each edge.
    # This centroid fan measures mesh regularity (the paper's submesh); the
    # cell quadrature fans from a vertex instead (`quadrature.cell_rules`)
    tri = (np.diff(ptr) == 3)[cell]
    keep = ~tri | (np.arange(len(cyc)) == ptr[cell])
    S = np.where(tri[:, None, None], V[np.column_stack([a, b, cyc[ptr[cell] + 2]])],
                 np.stack([mesh.centroids[cell], V[a], V[b]], axis=1))[keep]
    fan_cell = cell[keep]
    e01, e12, e20 = (np.hypot(*(S[:, j] - S[:, i]).T) for i, j in ((0, 1), (1, 2), (2, 0)))
    a2 = 0.5 * ((S[:, 1, 0] - S[:, 0, 0]) * (S[:, 2, 1] - S[:, 0, 1])
                - (S[:, 2, 0] - S[:, 0, 0]) * (S[:, 1, 1] - S[:, 0, 1]))
    fan_ptr = np.searchsorted(fan_cell, np.arange(ne))

    computed = _cycle_geometry(V, ptr, cyc)[0]
    _raise_first([
        (abs(computed) < 1e-14, "element {}: degenerate polygon (area ~ 0)"),
        (computed <= 0, "element {}: not counter-clockwise"),
        (abs(computed - area) > 1e-12 * computed, "element {}: stored area mismatch"),
        (np.bincount(cell, edge_bad.any(axis=0), ne) > 0, edge_message),
        (abs(np.bincount(cell, mesh.face_lengths[f], ne) - perim) > 1e-12 * perim,
         "element {}: faces do not partition the boundary"),
        (np.hypot(*flux.T) > 1e-12 * np.maximum(1.0, perim),
         "element {}: nonzero normal flux sum"),
        (np.bincount(fan_cell, a2 <= 0, ne) > 0,
         lambda e: f"element {e}: simplex "
                   f"{np.argmax(a2[fan_ptr[e]:] <= 0)} not positive"),
        (abs(np.bincount(fan_cell, a2, ne) - area) > 1e-12 * area,
         "element {}: submesh areas do not sum to |T|"),
    ])
    total_area = float(area.sum())
    if abs(total_area - 1.0) > 1e-10:
        raise MeshValidationError(f"element areas sum to {total_area}, not 1")

    h_s = np.maximum(np.maximum(e01, e12), e20)
    simplex_ratio = float((2.0 * a2 / (e01 + e12 + e20) / h_s).min())
    size_ratio = float((h_s / mesh.diameters[fan_cell]).min())
    return RegularityReport(rho=min(simplex_ratio, size_ratio),
                            simplex_ratio=simplex_ratio, size_ratio=size_ratio,
                            h_max=mesh.h_max, n_elements=mesh.n_elements,
                            n_faces=mesh.n_faces)


# ---------------------------------------------------------------------------
# text format


def write_mesh(mesh: PolytopalMesh) -> str:
    lines = ["polymesh 2d v1", f"vertices {len(mesh.vertices)}"]
    lines += (f"{x!r} {y!r}" for x, y in mesh.vertices.tolist())
    lines.append(f"elements {mesh.n_elements}")
    cyc, ptr = mesh.cell_vertices.tolist(), mesh.cell_ptr.tolist()
    lines += (" ".join(map(str, cyc[s:e])) for s, e in zip(ptr[:-1], ptr[1:]))
    lines.append(f"faces {mesh.n_faces}")
    lines += (f"{a} {b} {oa} {ob}" for a, b, oa, ob in
              np.column_stack([mesh.face_vertices, mesh.face_owners]).tolist())
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
    rows = iter([(i + 1, s.strip()) for i, s in enumerate(text.splitlines()) if s.strip()])

    def take():
        row = next(rows, None)
        if row is None:
            raise MeshFormatError("unexpected end of input")
        return row

    def section(name, kind, bad, form, check):
        """The rows after the line '<name> <count>', each a list of `kind`
        of the width of `form` (any width if None), passed to `check`."""
        ln, s = take()
        out = []
        for _ in range(_expect_count(s.split(), name, ln)):
            ln, s = take()
            tok = s.split()
            if form is not None and len(tok) != len(form.split()):
                raise MeshFormatError(f"line {ln}: expected '{form}'")
            try:
                out.append([kind(t) for t in tok])
            except ValueError:
                raise MeshFormatError(f"line {ln}: {bad}") from None
            if msg := check(*out[-1]):
                raise MeshFormatError(f"line {ln}: {msg}")
        return out

    vertex = lambda x, y: None if math.isfinite(x) and math.isfinite(y) else "bad coordinate"

    def element(*cyc):
        if len(cyc) < 3:
            return "element with fewer than 3 vertices"
        return next((f"vertex id {v} out of range" for v in cyc if not 0 <= v < nv), None)

    def face(a, b, oa, ob):
        if not (0 <= a < nv and 0 <= b < nv):
            return "face vertex out of range"
        if not 0 <= oa < len(cells):
            return f"owner {oa} out of range"
        if ob != -1 and not 0 <= ob < len(cells):
            return f"owner {ob} out of range"

    ln, header = take()
    if header != "polymesh 2d v1":
        raise MeshFormatError(f"line {ln}: bad header {header!r}")
    verts = section("vertices", float, "bad coordinate", "x y", vertex)
    nv = len(verts)
    cells = section("elements", int, "bad vertex id", None, element)
    faces = section("faces", int, "bad face entry", "v0 v1 ownerA ownerB", face)
    if (extra := next(rows, None)) is not None:
        raise MeshFormatError(f"line {extra[0]}: trailing content")
    try:
        return from_polygons(np.reshape(verts, (nv, 2)), cells, face_spec=faces)
    except MeshValidationError as exc:
        raise MeshFormatError(str(exc)) from exc
