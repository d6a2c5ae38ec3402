import dataclasses
import hashlib
import math

import numpy as np
import pytest

from hho.mesh import (FAMILIES, MeshFormatError, MeshResourceError,
                      MeshValidationError, check_budget, from_polygons,
                      generate, read_mesh, shape_keys, validate, write_mesh)
from hho.quadrature import cell_rule, reference_triangle_rule

# level-1 regularity ratios recorded at build time (regression baselines)
RHO_LEVEL1 = {
    "triangular": 0.20710678118654752,
    "cartesian": 0.20710678118654754,
    "locally_refined": 0.20710678118654752,
    "hexagonal": 0.06023762777118495,
}


# sha256 of `write_mesh(m)` and of `m.shape_labels.tobytes()` for every
# family at levels 1-4, recorded before the mesh became flat arrays: the
# face order, endpoints, owners, coordinates and shape keys stay the same
MESH_DIGESTS = {
    ("triangular", 1): ("811bb2d029acde5cf0cf55c70876438330d189cde4faba1b6a0f17425a236b7d",
                      "3015e7d02e815c203e713692d2c69cd98607cc7b5270807e686e262ef9247d5d"),
    ("triangular", 2): ("46e5943e035f86e24070db10a1b00ef772ad684e167fc2ae3aaf2cb44cc6e7d7",
                      "c6137224a6ac98eff940de0c747b38e801cc91ffe478518d3ec94b175e4e11ce"),
    ("triangular", 3): ("2601b1bbf4d0bfe6527006d92b9bce2ec06a75d81235329f100573039b30c836",
                      "fd63f7ea2dc1533a084754791cf57f6f19d88120bc2b582d6f5e1ea5737901e3"),
    ("triangular", 4): ("dc650af893db100e0f7b8eb147a75f6f0c7a893247fd0744d0dd58c37e507fb9",
                      "88613a24b8586e9757ef7302196335fe00af8edd3e87212547f1f655fee01bfa"),
    ("cartesian", 1): ("fa3240ba03185ad52d4191b4fc445864e6269496c64c2ff9460697252d6e0d1a",
                     "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77"),
    ("cartesian", 2): ("8b5339915e9e74dab41a3e9c81581fde66d049166218a2e2b2081d61509317eb",
                     "a1ed45de18732e859c6f5ad67b337cecea1aee9a15a7e2ddbf277b3fe27e90a2"),
    ("cartesian", 3): ("dd2215a6c799f38acafd18fecd901dbed2390a1df34198addb17bf5e2ebb4acc",
                     "ef7d4651b5b2eadc79b2ab14cdab725934121b555645b9bd08b30f0397b113e0"),
    ("cartesian", 4): ("126d9f88f6654fe6084c1bc38a2db5c21647e3aaa6e9606dc721e99aca23bac7",
                     "48e5dae0b9856229586c465264c21ab4aad457bcbd4b6cda263665cc368e801b"),
    ("locally_refined", 1): ("c54caee13f19e154102e74dcb3de41064499bf7e9ebbe0f5479d797ffc902cd1",
                           "81845a01dafa45c9b26e10a7af52a92e8604d5d8ef690f1e3ccdcfe3b5c6ae98"),
    ("locally_refined", 2): ("633ec09619e233860d5daec1935062cab0a95ab679cafc50ef24abee08b5845d",
                           "4acbe212cd387f414540bc6049e1d99495ea4c9763fe30a748e6d8954437d477"),
    ("locally_refined", 3): ("78d14846c2ad9589cb1f1a6d1661e373829d2eeefe6a80944b5af86deb849ae1",
                           "2f1207b6fbd7be85050aceac95e0efb8ec832027c9ca4fb8a029a93937038242"),
    ("locally_refined", 4): ("0e4dccc8743e9e25da09cb0c37c1493c21d4283b5a14e6b415c5686da4138e8d",
                           "7d51386a85ab4165227d2e96da597fdd0c26c2e93eada946c13e640c4096ac19"),
    ("hexagonal", 1): ("2ca612dbe254f17f102cfac921daf368d10f19ba76676a13b1e59bf7a12bcf71",
                     "700a4498438a801b5781533040bce85a20ae4bfe08866f7552ff33e172923b0a"),
    ("hexagonal", 2): ("837d12069101a65f4fb8ed6263d72eac0325a5d3e03fcd4dfc10b81dfe965f2b",
                     "9c0020e069390f123588cd0cefbbfc751452e6d1e822b65f65709ca17417e934"),
    ("hexagonal", 3): ("d58019bdb2a4623e297c19582ad0f946af811358733c1598f12a871bd35c4737",
                     "9eaacc3d6ce4838fca28d9b8e4a1c9b2c86ea449f35e67ea6497d1206ab20d1e"),
    ("hexagonal", 4): ("0b378dc47a15c3de0f1f3df87d36aee2892ec2b56952e8a063b46863e7c965b2",
                     "c1cf7f959525cbec1fce31be44d07bd39f3960c42175dd7f8169ad1d565c7fe9"),
}


@pytest.mark.parametrize("family, level", sorted(MESH_DIGESTS))
def test_generated_meshes_match_recorded_digests(family, level):
    m = generate(family, level)
    text, labels = MESH_DIGESTS[family, level]
    assert hashlib.sha256(write_mesh(m).encode()).hexdigest() == text
    assert hashlib.sha256(m.shape_labels.tobytes()).hexdigest() == labels


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


def _tri_area(p0, p1, p2):
    return 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1])
                  - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def test_submesh_triangle_is_identity():
    # a triangle's cell rule is the reference rule mapped onto it
    m = generate("triangular", 1)
    ref, ref_w = reference_triangle_rule(4)
    for e in m.elements:
        p0, p1, p2 = e.points
        rule = cell_rule(e, 4)
        assert np.allclose(rule.points, p0 + np.outer(ref[:, 0], p1 - p0)
                           + np.outer(ref[:, 1], p2 - p0), rtol=0, atol=1e-15)
        assert rule.weights.sum() == pytest.approx(e.area, rel=1e-13)


def test_submesh_fan_on_quad():
    # a square's cell rule maps the reference rule onto the two triangles
    # (vertex 0, vertex i, vertex i + 1), i = 1, 2, in that order
    m = generate("cartesian", 1)
    e = m.elements[0]
    ref, ref_w = reference_triangle_rule(2)
    rule = cell_rule(e, 2)
    p0 = e.points[0]
    for i, (pts, w) in enumerate(zip(rule.points.reshape(2, -1, 2),
                                     rule.weights.reshape(2, -1)), start=1):
        p1, p2 = e.points[i], e.points[i + 1]
        area = _tri_area(p0, p1, p2)
        assert area == pytest.approx(e.area / 2, rel=1e-13)
        assert np.allclose(pts, p0 + np.outer(ref[:, 0], p1 - p0)
                           + np.outer(ref[:, 1], p2 - p0), rtol=0, atol=1e-15)
        assert np.allclose(w, 2 * area * ref_w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_skeleton_length(family):
    m = generate(family, 2)
    blen = m.face_lengths[m.boundary_faces()].sum()
    assert blen == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_outward_normal_flux_sums_to_zero(family):
    m = generate(family, 2)
    for ci, e in enumerate(m.elements):
        acc = np.zeros(2)
        for fi in e.faces:
            slot = list(m.face_owners[fi]).index(ci)
            acc += m.face_lengths[fi] * m.face_signs[fi, slot] * m.face_normals[fi]
        assert np.hypot(*acc) < 1e-12


def _tampered(m, name, index, factor):
    """`m` with entry `index` of a writable copy of its array `name` scaled
    by `factor`."""
    a = getattr(m, name).copy()
    a[index] *= factor
    return dataclasses.replace(m, **{name: a})


def test_validate_catches_tampered_normal():
    m = generate("cartesian", 1)
    bad = _tampered(m, "face_normals", 3, 1.1)
    with pytest.raises(MeshValidationError, match="face 3: normal not unit"):
        validate(bad)


def test_validate_catches_tampered_area():
    m = generate("triangular", 1)
    bad = _tampered(m, "areas", 2, 1.5)
    with pytest.raises(MeshValidationError, match="element 2: stored area"):
        validate(bad)


def test_validate_catches_flipped_sign():
    m = generate("cartesian", 1)
    bad = _tampered(m, "face_signs", 0, -1)
    with pytest.raises(MeshValidationError):
        validate(bad)


def test_mesh_arrays_are_read_only():
    m = generate("triangular", 1)
    labels = m.shape_labels
    for name in ("vertices", "cell_ptr", "cell_vertices", "cell_faces",
                 "centroids", "areas", "diameters", "face_vertices",
                 "face_owners", "face_signs", "face_normals", "face_lengths"):
        assert not getattr(m, name).flags.writeable, name
    with pytest.raises(ValueError):
        m.areas[2] *= 1.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.areas = m.areas * 1.5
    assert m.shape_labels is labels


def test_generate_rejects_unknown_family_and_level():
    with pytest.raises(ValueError):
        generate("voronoi", 1)
    with pytest.raises(ValueError):
        generate("cartesian", 0)


@pytest.mark.parametrize("check", [generate, check_budget])
@pytest.mark.parametrize("family,level,match", [
    ("foo", 3, "unknown family 'foo'"),
    ("triangular", 2.5, "level must be an integer >= 1, got 2.5"),
    ("triangular", "3", "level must be an integer >= 1, got '3'"),
    ("hexagonal", 0, "level must be an integer >= 1, got 0"),
])
def test_bad_family_or_level_is_named_in_a_value_error(check, family, level,
                                                       match):
    with pytest.raises(ValueError, match=match):
        check(family, level)


def test_generate_resource_guard():
    with pytest.raises(MeshResourceError):
        generate("triangular", 12)


def test_from_polygons_rejects_clockwise():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(MeshValidationError):
        from_polygons(verts, [[0, 3, 2, 1]])


def test_from_polygons_rejects_degenerate():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (3, 0)]
    with pytest.raises(MeshValidationError,
                       match=r"^element 1: degenerate polygon \(area ~ 0\)$"):
        from_polygons(verts, [[0, 1, 2, 3], [1, 4, 5]])


def _meshes_equal(a, b):
    """Every array of the two meshes equal, to the last bit, and h_max."""
    arrays = [f.name for f in dataclasses.fields(a)
              if isinstance(getattr(a, f.name), np.ndarray)]
    return a.h_max == b.h_max and all(
        getattr(a, n).shape == getattr(b, n).shape
        and getattr(a, n).tobytes() == getattr(b, n).tobytes() for n in arrays)


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
    assert list(m.face_vertices[2]) == [0, 2]
    assert list(m.face_owners[2]) == [0, 1]
    assert list(m.face_signs[2]) == [-1, 1]
    n = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(m.face_normals[2], n, atol=1e-15)


def test_read_rejects_non_finite_coordinate():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(MeshFormatError, match="line 4: bad coordinate"):
            read_mesh(TWO_TRIANGLES.replace("1.0 0.0", f"{bad} 0.0", 1))


def test_from_polygons_rejects_non_finite_vertex():
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, np.inf), (0.0, 1.0)]
    with pytest.raises(MeshValidationError, match="vertex 2: non-finite"):
        from_polygons(verts, [[0, 1, 2, 3]])
    verts[2] = (np.nan, 1.0)
    with pytest.raises(MeshValidationError, match="vertex 2: non-finite"):
        from_polygons(verts, [[0, 1, 2, 3]])


@pytest.mark.parametrize("mutate, lineno", [
    (lambda t: t.replace("polymesh 2d v1", "polymesh 3d v1"), 1),
    (lambda t: t.replace("vertices 4", "vertices four"), 2),
    (lambda t: t.replace("elements 2", "cells 2"), 7),
    (lambda t: t.replace("0 1 2\n", "0 1 9\n"), 8),
    (lambda t: t.replace("0 2 3\n", "0 2\n"), 9),
    (lambda t: t.replace("faces 5", "faces -5"), 10),
    (lambda t: t.replace("0 1 0 -1", "0 1 2 -1"), 11),
    (lambda t: t.replace("1 2 0 -1", "1 2 0"), 12),
    (lambda t: t.replace("0 2 0 1", "0 2 0 one"), 13),
    (lambda t: t.replace("2 3 1 -1", "2 4 1 -1"), 14),
    (lambda t: t.replace("0 3 1 -1", "0 3 1 2"), 15),
    (lambda t: t + "extra junk\n", 16),
])
def test_read_malformed_reports_line(mutate, lineno):
    with pytest.raises(MeshFormatError, match=f"^line {lineno}: "):
        read_mesh(mutate(TWO_TRIANGLES))


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t[:t.index("2 3 1 -1")], "unexpected end of input"),
    (lambda t: t.replace("0 1 0 -1", "0 1 1 -1"),
     r"face 0: owners \[1\] inconsistent with elements \[0\]"),
    (lambda t: t.replace("0 1 2\n", "0 2 1\n").replace("0 2 3\n", "0 3 2\n"),
     "element 0: cycle is not counter-clockwise"),
])
def test_read_malformed_without_a_line(mutate, message):
    # the end of the input and the geometry checks have no line to name
    with pytest.raises(MeshFormatError, match=f"^{message}$"):
        read_mesh(mutate(TWO_TRIANGLES))


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
             if t not in m.face_owners[fid]]
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
