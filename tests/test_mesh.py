import math

import numpy as np
import pytest

from hho import mesh as hmesh
from hho.mesh import (FAMILIES, MeshFormatError, MeshResourceError,
                      MeshValidationError, from_polygons, generate, read_mesh,
                      shape_keys, validate, write_mesh)

# level-1 regularity ratios recorded at build time (regression baselines)
RHO_LEVEL1 = {
    "triangular": 0.20710678118654752,
    "cartesian": 0.20710678118654754,
    "locally_refined": 0.20710678118654752,
    "hexagonal": 0.06023762777118495,
}


def test_cartesian_level2_counts():
    m = generate("cartesian", 2)
    assert m.n_elements == 16
    assert m.n_faces == 40
    assert m.h_max == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-14)
    assert all(len(e.faces) == 4 for e in m.elements)


def test_triangular_all_triangles_and_total_area():
    m = generate("triangular", 3)
    assert all(len(e.faces) == 3 for e in m.elements)
    assert sum(e.area for e in m.elements) == pytest.approx(1.0, abs=1e-13)


def test_locally_refined_has_hanging_nodes():
    m = generate("locally_refined", 1)
    n_faces = sorted(len(e.faces) for e in m.elements)
    assert n_faces[-1] > 4
    # coarse cells adjacent to the refined quadrant carry one split edge each
    assert n_faces.count(5) == 2


def test_hexagonal_is_predominantly_hexagonal():
    for lvl in (2, 3):
        m = generate("hexagonal", lvl)
        nhex = sum(1 for e in m.elements if len(e.faces) == 6)
        assert nhex > m.n_elements / 2
        assert nhex < m.n_elements  # clipped boundary cells exist


@pytest.mark.parametrize("family", ["triangular", "cartesian"])
def test_h_max_halves_per_level(family):
    hs = [generate(family, lvl).h_max for lvl in range(1, 6)]
    for h0, h1 in zip(hs, hs[1:]):
        assert 0.45 <= h1 / h0 <= 0.55


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_validate_all_families(family, level):
    rep = validate(generate(family, level))
    assert rep.rho > 0.05
    assert 0 < rep.simplex_ratio <= 1
    assert 0 < rep.size_ratio <= 1


@pytest.mark.parametrize("family", FAMILIES)
def test_regularity_baseline_level1(family):
    rep = validate(generate(family, 1))
    assert rep.rho == pytest.approx(RHO_LEVEL1[family], rel=1e-12)


def test_submesh_triangle_is_identity():
    m = generate("triangular", 1)
    for e in m.elements:
        assert e.simplices.shape == (1, 3, 2)
        assert hmesh._tri_area(e.simplices[0]) == pytest.approx(e.area, rel=1e-13)


def test_submesh_fan_on_quad():
    m = generate("cartesian", 1)
    e = m.elements[0]
    assert e.simplices.shape == (4, 3, 2)
    areas = [hmesh._tri_area(t) for t in e.simplices]
    assert all(a > 0 for a in areas)
    assert sum(areas) == pytest.approx(e.area, rel=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_skeleton_length(family):
    m = generate(family, 2)
    blen = sum(m.faces[i].length for i in m.boundary_faces())
    assert blen == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_outward_normal_flux_sums_to_zero(family):
    m = generate(family, 2)
    for ci, e in enumerate(m.elements):
        acc = np.zeros(2)
        for fi in e.faces:
            f = m.faces[fi]
            acc += f.length * f.signs[f.owners.index(ci)] * f.normal
        assert np.hypot(*acc) < 1e-12


def test_validate_catches_tampered_normal():
    m = generate("cartesian", 1)
    m.faces[3].normal = m.faces[3].normal * 1.1
    with pytest.raises(MeshValidationError):
        validate(m)


def test_validate_catches_tampered_area():
    m = generate("triangular", 1)
    m.elements[2].area *= 1.5
    with pytest.raises(MeshValidationError):
        validate(m)


def test_validate_catches_flipped_sign():
    m = generate("cartesian", 1)
    f = m.faces[0]
    f.signs = tuple(-s for s in f.signs)
    with pytest.raises(MeshValidationError):
        validate(m)


def test_generate_rejects_unknown_family_and_level():
    with pytest.raises(ValueError):
        generate("voronoi", 1)
    with pytest.raises(ValueError):
        generate("cartesian", 0)


def test_generate_resource_guard():
    with pytest.raises(MeshResourceError):
        generate("triangular", 12)


def test_from_polygons_rejects_clockwise():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(MeshValidationError):
        from_polygons(verts, [[0, 3, 2, 1]])


def test_from_polygons_rejects_degenerate():
    verts = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(MeshValidationError):
        from_polygons(verts, [[0, 1, 2]])


def _meshes_equal(a, b):
    if not np.array_equal(a.vertices, b.vertices):
        return False
    if len(a.elements) != len(b.elements) or len(a.faces) != len(b.faces):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if ea.vertices != eb.vertices or ea.faces != eb.faces:
            return False
        if not (np.array_equal(ea.centroid, eb.centroid) and ea.area == eb.area
                and ea.diameter == eb.diameter
                and np.array_equal(ea.simplices, eb.simplices)):
            return False
    for fa, fb in zip(a.faces, b.faces):
        if fa.vertices != fb.vertices or fa.owners != fb.owners or fa.signs != fb.signs:
            return False
        if not (np.array_equal(fa.normal, fb.normal)
                and np.array_equal(fa.midpoint, fb.midpoint)
                and fa.length == fb.length):
            return False
    return True


@pytest.mark.parametrize("family", FAMILIES)
def test_text_roundtrip(family):
    m = generate(family, 2)
    m2 = read_mesh(write_mesh(m))
    assert _meshes_equal(m, m2)
    validate(m2)


TWO_TRIANGLES = """\
polymesh 2d v1
vertices 4
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
elements 2
0 1 2
0 2 3
faces 5
0 1 0 -1
1 2 0 -1
0 2 0 1
2 3 1 -1
0 3 1 -1
"""


def test_read_handwritten_fixture():
    m = read_mesh(TWO_TRIANGLES)
    assert m.n_elements == 2
    assert m.n_faces == 5
    assert len(m.boundary_faces()) == 4
    validate(m)
    # diagonal normal follows the file's endpoint order (0 -> 2); element 1
    # traverses that edge forward, so the normal is outward for it
    diag = m.faces[2]
    assert diag.owners == (0, 1)
    assert diag.signs == (-1, 1)
    n = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(diag.normal, n, atol=1e-15)


@pytest.mark.parametrize("mutate, lineno", [
    (lambda t: t.replace("polymesh 2d v1", "polymesh 3d v1"), 1),
    (lambda t: t.replace("vertices 4", "vertices four"), 2),
    (lambda t: t.replace("0 1 2\n", "0 1 9\n"), 8),
    (lambda t: t.replace("0 1 0 -1", "0 1 1 -1"), 11),
    (lambda t: t + "extra junk\n", 16),
])
def test_read_malformed_reports_line(mutate, lineno):
    with pytest.raises(MeshFormatError) as exc:
        read_mesh(mutate(TWO_TRIANGLES))
    if lineno is not None and "line" in str(exc.value):
        assert f"line {lineno}" in str(exc.value)


def test_read_detects_missing_face():
    txt = TWO_TRIANGLES.replace("faces 5", "faces 4").replace("0 3 1 -1\n", "")
    with pytest.raises(MeshFormatError):
        read_mesh(txt)


def _flip_face(mesh, fid):
    """The mesh read back with the endpoints of face fid swapped."""
    lines = write_mesh(mesh).splitlines()
    at = lines.index(f"faces {mesh.n_faces}") + 1 + fid
    a, b, oa, ob = lines[at].split()
    lines[at] = f"{b} {a} {oa} {ob}"
    return read_mesh("\n".join(lines) + "\n")


def test_shape_keys_follow_translation_size_and_face_orientation():
    m = generate("cartesian", 2)
    keys = shape_keys(m)
    # cartesian cells differ only in which faces they meet first
    assert keys.max() + 1 == 4
    moved = from_polygons(m.vertices + [0.3, -0.7],
                          [e.vertices for e in m.elements])
    assert np.array_equal(shape_keys(moved), keys)
    # swapping a face's endpoints flips its basis tangent: its owners leave
    # their class
    e = 5
    fid = m.elements[e].faces[0]
    twins = [t for t in np.flatnonzero(keys == keys[e])
             if t not in m.faces[fid].owners]
    assert twins
    flipped = shape_keys(_flip_face(m, fid))
    assert len({flipped[t] for t in twins}) == 1
    assert flipped[e] != flipped[twins[0]]
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def pair(other):
        return from_polygons(np.vstack([sq, other]),
                             [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert list(shape_keys(pair(sq + [2.0, 0.0]))) == [0, 0]
    assert list(shape_keys(pair(0.5 * sq + [2.0, 0.0]))) == [0, 1]


@pytest.mark.parametrize("family", FAMILIES)
def test_shape_labels_are_the_shape_keys(family):
    for m in (generate(family, 3), read_mesh(write_mesh(generate(family, 2)))):
        assert np.array_equal(m.shape_labels, shape_keys(m))
        assert m.shape_labels is m.shape_labels
        assert not m.shape_labels.flags.writeable
