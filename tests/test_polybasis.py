import math

import numpy as np
import pytest

from hho.fields import (affine_field, constant_field, exp_field, monomial_field,
                        random_wave_field, sine_product_field)
from hho.mesh import FAMILIES, _count_groups, from_polygons, generate
from hho.polybasis import (cell_bases, cell_basis, cell_exponents, cell_seminorm,
                           elliptic_project, face_basis, face_basis_from_points,
                           fit_slope, l2_project, projector_rate_study,
                           rate_levels, tangential_partial, trace_seminorm)
from hho.quadrature import (MAX_EXACTNESS, QuadratureCapabilityError, cell_rule,
                            cell_rules, face_rule, fan_apices,
                            reference_triangle_rule, segment_rule)
from test_solver import _jittered_mesh, _u_mesh

INF = math.inf


def _square(h: float, origin=(0.3, 0.4)):
    """A mesh of one square cell of side h with its lower left corner at
    origin."""
    ox, oy = origin
    return from_polygons([(ox, oy), (ox + h, oy), (ox + h, oy + h), (ox, oy + h)],
                         [[0, 1, 2, 3]])


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 8, 12, 17])
def test_reference_triangle_rule_exactness(d):
    pts, w = reference_triangle_rule(d)
    assert len(w) == ((d + 2) // 2) ** 2
    assert (w > 0).all()
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    for a in range(d + 1):
        for b in range(d + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert w @ (pts[:, 0] ** a * pts[:, 1] ** b) == pytest.approx(
                exact, rel=1e-13), (a, b)


def test_cell_rule_unit_square_monomial():
    m = _square(1.0, origin=(0.0, 0.0))
    rule = cell_rule(m.elements[0], 4)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert rule.weights @ rule.points[:, 0] ** 2 == pytest.approx(1 / 3, rel=1e-14)
    # fan of 2 triangles from a vertex, 4 x 4 collapsed Gauss nodes each
    assert len(cell_rule(m.elements[0], 6).weights) == 2 * 16


def test_cell_rule_hexagon_measure_and_centroid():
    m = generate("hexagonal", 2)
    el = next(e for e in m.elements if len(e.faces) == 6)
    rule = cell_rule(el, 3)
    assert rule.weights.sum() == pytest.approx(el.area, rel=1e-13)
    cx = rule.weights @ rule.points[:, 0] / el.area
    cy = rule.weights @ rule.points[:, 1] / el.area
    assert np.allclose([cx, cy], el.centroid, atol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_cell_rules_fan_every_generated_cell_from_a_vertex(family):
    # n - 2 triangles per cell, none flat, every weight positive
    nref = len(reference_triangle_rule(6)[1])
    for level in (1, 2, 3, 4):
        m = generate(family, level)
        for ids, rows in _count_groups(m.cell_ptr):
            pts = m.vertices[m.cell_vertices[rows]]
            n = pts.shape[1]
            assert (fan_apices(pts) >= 0).all()
            rule = cell_rules(pts, m.centroids[ids], 6)
            assert rule.weights.shape == (len(ids), (n - 2) * nref)
            assert (rule.weights > 0).all()
            tri = rule.weights.reshape(len(ids), n - 2, nref).sum(axis=2)
            assert (tri > 1e-8 * m.areas[ids, None]).all()
            assert np.allclose(tri.sum(axis=1), m.areas[ids], rtol=1e-12, atol=0)


def _monomial_integrals(pts, centroid, h, d):
    """The integrals over the polygon `pts` of ((x, y) - centroid)^(a, b) /
    h^(a + b), a + b <= d, by Green's theorem: edge integrals of
    X^(a + 1) Y^b h / (a + 1) dy, exact with Gauss-Legendre rules."""
    edges = segment_rule(pts, np.roll(pts, -1, axis=0), d + 1)
    X, Y = np.moveaxis((edges.points - centroid) / h, -1, 0)
    dy = (np.roll(pts, -1, axis=0) - pts)[:, 1] / edges.weights.sum(axis=1)
    return {(a, b): float(np.sum(edges.weights * dy[:, None] * X ** (a + 1)
                                 * Y ** b) * h / (a + 1))
            for a in range(d + 1) for b in range(d + 1 - a)}


def _assert_cell_rule_exact(el, d):
    rule = cell_rule(el, d)
    X, Y = ((rule.points - el.centroid) / el.diameter).T
    for (a, b), want in _monomial_integrals(el.points, el.centroid,
                                            el.diameter, d).items():
        assert rule.weights @ (X ** a * Y ** b) == pytest.approx(
            want, rel=0, abs=1e-13 * el.area), (a, b)


@pytest.mark.parametrize("d", [6, 10])
def test_cell_rule_exact_on_vertex_fans(d):
    # a pentagon with a hanging node, a hexagon and sixteen distinct
    # quadrilaterals
    pent = generate("locally_refined", 2)
    hexa = generate("hexagonal", 2)
    els = [next(e for e in pent.elements if len(e.faces) == 5),
           next(e for e in hexa.elements if len(e.faces) == 6)]
    els += list(_jittered_mesh().elements)
    for el in els:
        _assert_cell_rule_exact(el, d)


def test_cell_rule_keeps_the_centroid_fan_without_an_apex():
    # a U-shaped cell that no vertex sees whole: n triangles from the
    # centroid, some of negative area, still exact
    m = _u_mesh()
    el = m.elements[0]
    assert fan_apices(el.points[None]).tolist() == [-1]
    assert fan_apices(m.elements[1].points[None]).tolist() == [0]
    rule = cell_rule(el, 6)
    assert len(rule.weights) == 8 * len(reference_triangle_rule(6)[1])
    assert rule.weights.sum() == pytest.approx(el.area, rel=1e-13)
    _assert_cell_rule_exact(el, 6)
    # the two cells are fanned differently, so one stack refuses them
    with pytest.raises(ValueError, match="fanned alike"):
        cell_rules(np.stack([e.points for e in m.elements]), m.centroids, 6)


def test_segment_rule_measure_and_exactness():
    rule = segment_rule([0.0, 0.0], [0.0, 2.0], 5)
    assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)
    # integrate y^5 over the segment: 2^6/6
    assert rule.weights @ rule.points[:, 1] ** 5 == pytest.approx(64 / 6, rel=1e-13)


def test_quadrature_capability_cap():
    m = _square(1.0)
    with pytest.raises(QuadratureCapabilityError):
        cell_rule(m.elements[0], MAX_EXACTNESS + 1)


# ---------------------------------------------------------------------------
# bases


def test_cell_exponents_ordering():
    exps = cell_exponents(2)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


@pytest.mark.parametrize("family", ["cartesian", "hexagonal"])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_orthonormalized_gram_is_identity(family, degree):
    m = generate(family, 2)
    basis = cell_basis(m.elements[0], degree)
    assert np.abs(basis.mass - np.eye(basis.dim)).max() < 1e-10


def test_low_degree_basis_not_orthonormalized():
    m = generate("cartesian", 1)
    basis = cell_basis(m.elements[0], 1)
    assert np.array_equal(basis.transform, np.eye(basis.dim))


def test_basis_partial_matches_fd():
    m = generate("hexagonal", 2)
    el = next(e for e in m.elements if len(e.faces) == 6)
    basis = cell_basis(el, 3)
    pts = el.centroid[None, :] + np.array([[0.01, -0.02]])
    h = 1e-6
    dx = (basis.eval(pts + [h, 0]) - basis.eval(pts - [h, 0])) / (2 * h)
    scale = np.abs(basis.partial(1, 0, pts)).max()
    assert np.abs(basis.partial(1, 0, pts) - dx).max() < 1e-7 * max(scale, 1.0)


def test_face_mass_spd_and_gram():
    fb = face_basis_from_points([0.2, 0.1], [0.9, 0.5], 3)
    w = np.linalg.eigvalsh(fb.mass)
    assert w.min() > 0
    assert np.abs(fb.mass - np.eye(fb.dim)).max() < 1e-10  # degree >= 2: orthonormal


# ---------------------------------------------------------------------------
# projectors


def test_l2_projection_of_x_squared_degree1():
    m = _square(1.0, origin=(0.0, 0.0))
    el = m.elements[0]
    basis = cell_basis(el, 1)
    rule = cell_rule(el, 6)
    coeffs = l2_project(basis, monomial_field(2, 0), rule)
    pts = np.array([[0.15, 0.85], [0.5, 0.25], [0.95, 0.05]])
    assert np.abs(basis.eval(pts) @ coeffs - (pts[:, 0] - 1 / 6)).max() < 1e-13


def test_elliptic_projection_of_x_squared_degree1():
    m = _square(1.0, origin=(0.0, 0.0))
    el = m.elements[0]
    basis = cell_basis(el, 1)
    rule = cell_rule(el, 6)
    coeffs = elliptic_project(basis, monomial_field(2, 0), rule)
    pts = np.array([[0.15, 0.85], [0.5, 0.25], [0.95, 0.05]])
    assert np.abs(basis.eval(pts) @ coeffs - (pts[:, 0] - 1 / 6)).max() < 1e-13


def test_projection_of_constant_any_element():
    m = generate("hexagonal", 2)
    rng = np.random.default_rng(7)
    for idx in rng.integers(0, m.n_elements, size=5):
        el = m.elements[idx]
        basis = cell_basis(el, 2)
        rule = cell_rule(el, 8)
        for proj in (l2_project, elliptic_project):
            coeffs = proj(basis, constant_field(3.5), rule)
            pts = el.centroid[None, :]
            assert basis.eval(pts) @ coeffs == pytest.approx(3.5, abs=1e-12)


@pytest.mark.parametrize("family", ["triangular", "hexagonal", "locally_refined"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_projectors_idempotent_on_polynomials(family, degree):
    m = generate(family, 1)
    rng = np.random.default_rng(degree)
    el = m.elements[rng.integers(0, m.n_elements)]
    basis = cell_basis(el, degree)
    rule = cell_rule(el, 2 * degree + 2)
    coeffs = rng.standard_normal(basis.dim)
    poly = basis.as_field(coeffs)
    for proj in (l2_project, elliptic_project):
        got = proj(basis, poly, rule)
        pts = cell_rule(el, 3).points
        assert np.abs(basis.eval(pts) @ got - poly(pts)).max() < 1e-12


def test_projections_of_a_stack_match_one_cell_calls():
    m = generate("hexagonal", 2)
    ids = [e for e in range(m.n_elements) if len(m.elements[e].faces) == 6][:5]
    els = [m.elements[e] for e in ids]
    pts = np.array([el.points for el in els])
    rule = cell_rules(pts, m.centroids[ids], 12)
    basis = cell_bases(rule, m.centroids[ids], m.diameters[ids], 2)
    v = exp_field(1.0, -0.5)
    for proj in (l2_project, elliptic_project):
        got = proj(basis, v, rule)
        for s, el in enumerate(els):
            want = proj(cell_basis(el, 2), v, cell_rule(el, 12))
            assert np.abs(got[s] - want).max() < 1e-13 * np.abs(want).max()
    for p in (1.0, INF):
        want = [cell_seminorm(v, 1, p, cell_rule(el, 12)) for el in els]
        assert cell_seminorm(v, 1, p, rule) == pytest.approx(want, rel=1e-14)


def test_elliptic_projection_preserves_mean():
    m = generate("hexagonal", 2)
    el = m.elements[3]
    basis = cell_basis(el, 3)
    rule = cell_rule(el, 20)
    v = exp_field(1.0, 2.0)
    coeffs = elliptic_project(basis, v, rule)
    mean_defect = rule.weights @ (basis.eval(rule.points) @ coeffs - v(rule.points))
    assert abs(mean_defect) < 1e-13 * el.area


def test_elliptic_projection_gradient_orthogonality():
    m = generate("cartesian", 2)
    el = m.elements[5]
    basis = cell_basis(el, 2)
    rule = cell_rule(el, 20)
    v = exp_field(1.0, -1.5)
    coeffs = elliptic_project(basis, v, rule)
    gx = basis.partial(1, 0, rule.points)
    gy = basis.partial(0, 1, rule.points)
    rx = v.partial(1, 0)(rule.points) - gx @ coeffs
    ry = v.partial(0, 1)(rule.points) - gy @ coeffs
    for w in range(basis.dim):
        val = rule.weights @ (rx * gx[:, w] + ry * gy[:, w])
        assert abs(val) < 1e-12


def test_face_projection_mean_of_s_squared():
    # s^2 on a unit segment, k = 0 -> constant 1/3
    fb = face_basis_from_points([0.0, 0.0], [1.0, 0.0], 0)
    rule = segment_rule([0.0, 0.0], [1.0, 0.0], 6)
    coeffs = l2_project(fb, monomial_field(2, 0), rule)
    val = fb.eval(np.array([[0.3, 0.0]])) @ coeffs
    assert val[0] == pytest.approx(1 / 3, rel=1e-13)


def test_face_projection_reproduces_arclength():
    pa, pb = np.array([0.1, 0.9]), np.array([0.7, 0.1])
    fb = face_basis_from_points(pa, pb, 1)
    tau = (pb - pa) / np.hypot(*(pb - pa))
    s = affine_field(-pa @ tau, tau[0], tau[1])   # arclength from pa
    rule = segment_rule(pa, pb, 5)
    coeffs = l2_project(fb, s, rule)
    mid = 0.5 * (pa + pb)
    assert fb.eval(mid[None, :]) @ coeffs == pytest.approx(
        float(np.hypot(*(pb - pa))) / 2, rel=1e-13)


def test_face_projection_exp_matches_dense_normal_equations():
    pa, pb = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    fb = face_basis_from_points(pa, pb, 1)
    rule = segment_rule(pa, pb, 40)
    coeffs = l2_project(fb, exp_field(1.0, 0.0), rule)
    # dense oracle: least squares on a fine sample with quadrature weights
    V = fb.eval(rule.points)
    sw = np.sqrt(rule.weights)
    oracle, *_ = np.linalg.lstsq(V * sw[:, None],
                                 np.exp(rule.points[:, 0]) * sw, rcond=None)
    vals = fb.eval(rule.points)
    assert np.abs(vals @ coeffs - vals @ oracle).max() < 1e-12


# ---------------------------------------------------------------------------
# seminorms


def test_seminorms_of_linear_field():
    # v = x on the unit square: |v|_{W^{0,1}} = 1/2, |v|_{W^{1,2}} = 1,
    # |v|_{W^{1,inf}} = 1, |v|_{W^{2,p}} = 0
    m = _square(1.0, origin=(0.0, 0.0))
    el = m.elements[0]
    rule = cell_rule(el, 10)
    v = monomial_field(1, 0)
    assert cell_seminorm(v, 0, 1.0, rule) == pytest.approx(0.5, rel=1e-13)
    assert cell_seminorm(v, 1, 2.0, rule) == pytest.approx(1.0, rel=1e-13)
    assert cell_seminorm(v, 1, INF, rule) == pytest.approx(1.0, rel=1e-13)
    assert cell_seminorm(v, 2, 2.0, rule) == 0.0


def test_seminorm_sums_over_multiindices():
    # v = x + y: both first-order partials are 1, so |v|_{W^{1,p}} = 2 |T|^{1/p}
    m = _square(1.0, origin=(0.0, 0.0))
    el = m.elements[0]
    rule = cell_rule(el, 4)
    v = affine_field(0.0, 1.0, 1.0)
    assert cell_seminorm(v, 1, 2.0, rule) == pytest.approx(2.0, rel=1e-13)
    assert cell_seminorm(v, 1, INF, rule) == pytest.approx(2.0, rel=1e-13)


def test_face_broken_seminorm_perimeter():
    # with h_T = 1 the trace seminorm is the broken one: the perimeter at p = 1
    m = _square(1.0, origin=(0.0, 0.0))
    v = constant_field(1.0)
    cells, unit = m.vertices[None], np.ones(1)
    assert trace_seminorm(v, 0, 1.0, cells, unit, 4) == pytest.approx([4.0], rel=1e-13)
    assert trace_seminorm(v, 0, INF, cells, unit, 4) == pytest.approx([1.0], rel=1e-13)


def test_trace_seminorm_scaling_factor():
    # p = inf carries no h^{1/p} factor
    m = _square(0.5)
    v = constant_field(2.0)
    el = m.elements[0]
    cells = m.vertices[None]
    assert trace_seminorm(v, 0, INF, cells, m.diameters, 4) == pytest.approx([2.0])
    expected = el.diameter ** 0.5 * (4 * 0.5 * 2.0 ** 2) ** 0.5
    assert trace_seminorm(v, 0, 2.0, cells, m.diameters, 4) == pytest.approx(
        [expected], rel=1e-13)


def test_tangential_derivative_on_diagonal_face():
    # v = x y on the diagonal from (0,0) to (1,1): d/ds (s^2/2) = s
    pa, pb = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    v = monomial_field(1, 1)
    rule = segment_rule(pa, pb, 8)
    tau = np.array([1.0, 1.0]) / math.sqrt(2.0)
    vals = tangential_partial(v, 1, rule.points, tau)
    s = (rule.points - pa) @ tau
    assert np.abs(vals - s).max() < 1e-13


# ---------------------------------------------------------------------------
# boundedness and rates


def test_l2_projector_lp_bounded_across_levels():
    # single recorded constant, stable under refinement
    C_RECORDED = 1.8
    rng = np.random.default_rng(42)
    for family in ("triangular", "hexagonal"):
        for level in (1, 2, 3):
            m = generate(family, level)
            worst = 0.0
            for _ in range(20):
                v = random_wave_field(rng)
                el = m.elements[rng.integers(0, m.n_elements)]
                basis = cell_basis(el, 2)
                rule = cell_rule(el, 16)
                coeffs = l2_project(basis, v, rule)
                pv = basis.as_field(coeffs)
                for p in (1.5, 2.0, 4.0):
                    num = cell_seminorm(pv, 0, p, rule)
                    den = cell_seminorm(v, 0, p, rule)
                    if den > 1e-12:
                        worst = max(worst, num / den)
            assert worst <= C_RECORDED


def test_l2_projector_wsp_bounded_sampled():
    C_RECORDED = 4.0
    rng = np.random.default_rng(3)
    m = generate("hexagonal", 2)
    degree = 2
    for _ in range(40):
        v = random_wave_field(rng)
        el = m.elements[rng.integers(0, m.n_elements)]
        basis = cell_basis(el, degree)
        rule = cell_rule(el, 16)
        pv = basis.as_field(l2_project(basis, v, rule))
        for p in (1.5, 2.0, 4.0):
            s = degree + 1
            num = cell_seminorm(pv, s - 1, p, rule)
            den = sum(cell_seminorm(v, t, p, rule)
                      * el.diameter ** (t - (s - 1)) for t in (s - 1, s))
            assert num <= C_RECORDED * den


@pytest.mark.parametrize("projector", ["elliptic", "l2"])
def test_rate_study_smoke(projector):
    out = projector_rate_study(exp_field(1.0, 1.0), 2, projector=projector,
                               js=range(2, 6), ms=(0, 1), ps=(2.0,), trace_ms=(0,),
                               exactness=24)
    assert out["cell"][(0, 2.0)]["slope"] == pytest.approx(3.0, abs=0.2)
    assert out["cell"][(1, 2.0)]["slope"] == pytest.approx(2.0, abs=0.2)
    assert out["trace"][(0, 2.0)]["slope"] == pytest.approx(3.0, abs=0.2)
    errs = out["cell"][(0, 2.0)]["errors"]
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))


@pytest.mark.parametrize("projector", ["elliptic", "l2"])
def test_rate_study_at_p_1(projector):
    # the paper's endpoint p = 1, which the default p's leave out
    out = projector_rate_study(exp_field(1.0, 1.0), 2, projector=projector,
                               ps=(1.0,))
    for kind, ms in (("cell", (0, 1, 2)), ("trace", (0, 1))):
        assert sorted(out[kind]) == [(m, 1.0) for m in ms]
        for m in ms:
            assert out[kind][(m, 1.0)]["slope"] == pytest.approx(3 - m, abs=0.2)


def test_rate_levels_keep_the_degree_2_default():
    assert rate_levels(2) == range(2, 8)
    assert [rate_levels(d)[-1] for d in (3, 4, 5, 6, 9)] == [7, 6, 4, 3, 3]
    out = projector_rate_study(exp_field(1.0, 1.0), 5, ms=(0,), ps=(2.0,),
                               trace_ms=())
    assert out["h"] == [0.25, 0.125, 0.0625]


def test_fit_slope_exact_line():
    hs = [0.5 ** j for j in range(2, 6)]
    errs = [3.0 * h ** 2.5 for h in hs]
    assert fit_slope(hs, errs) == pytest.approx(2.5, rel=1e-12)


def test_face_rule_uses_face_geometry():
    m = generate("cartesian", 1)
    fid = m.boundary_faces()[0]
    rule = face_rule(m, fid, 3)
    assert rule.weights.sum() == pytest.approx(m.face_lengths[fid], rel=1e-14)
