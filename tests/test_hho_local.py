import math

import numpy as np
import pytest

from hho.fields import affine_field, constant_field, exp_field, monomial_field
from hho.hho_local import (build_local_operators, cell_dim, interpolate_local,
                           local_norm, stabilization)
from hho.mesh import from_polygons, generate
from hho.polybasis import elliptic_project
from hho.quadrature import cell_rule

FAMILIES = ("triangular", "cartesian", "hexagonal", "locally_refined")


def gradient_seminorm(ops, v, p):
    """(||grad v_T||^p + sum_F h_F^{1-p} ||v_F - v_T||^p_{L^p(F)})^{1/p}."""
    pts = ops.rule.points
    gx = ops.basis_k.partial(1, 0, pts) @ v[:ops.n_cell]
    gy = ops.basis_k.partial(0, 1, pts) @ v[:ops.n_cell]
    acc = float(ops.rule.weights @ np.hypot(gx, gy) ** p)
    vf = v[ops.n_cell:].reshape(-1, ops.k + 1)
    for i, x in enumerate(ops.face_points):
        jump = (ops.faceval_q[i] @ vf[i]
                - ops.basis_k.eval(x) @ v[:ops.n_cell])
        acc += ops.face_lengths[i] ** (1.0 - p) * float(
            ops.face_weights[i] @ np.abs(jump) ** p)
    return acc ** (1.0 / p)


def _sample_elements(mesh, rng, count=3):
    ids = rng.choice(len(mesh.elements), size=min(count, len(mesh.elements)),
                     replace=False)
    return [int(i) for i in ids]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_gradient_commutes_with_interpolation(family, k):
    # G_T I_T v equals the cell projection of grad v; for v in P^{k+1} the
    # gradient already lies in P^k(T)^2 so the two agree pointwise.
    mesh = generate(family, 2)
    rng = np.random.default_rng(100 + k)
    for ei in _sample_elements(mesh, rng):
        ops = build_local_operators(mesh, ei, k)
        coef = rng.standard_normal(ops.basis_k1.dim)
        v = ops.basis_k1.as_field(coef)
        Iv = interpolate_local(ops, v)
        got = ops.grad_q @ Iv
        want = v.gradient(ops.rule.points)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_reproduces_deg_kp1_polynomials(family, k):
    mesh = generate(family, 2)
    rng = np.random.default_rng(200 + k)
    for ei in _sample_elements(mesh, rng):
        ops = build_local_operators(mesh, ei, k)
        coef = rng.standard_normal(ops.basis_k1.dim)
        v = ops.basis_k1.as_field(coef)
        Iv = interpolate_local(ops, v)
        got = ops.pval_q @ Iv
        want = v(ops.rule.points)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_face_residual_annihilates_deg_kp1(family, k):
    mesh = generate(family, 2)
    rng = np.random.default_rng(300 + k)
    for ei in _sample_elements(mesh, rng):
        ops = build_local_operators(mesh, ei, k)
        coef = rng.standard_normal(ops.basis_k1.dim)
        Iv = interpolate_local(ops, ops.basis_k1.as_field(coef))
        for dv in ops.dval_q:
            assert np.max(np.abs(dv @ Iv)) <= 1e-11


@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_of_interpolate_is_elliptic_projection(k):
    # the identity assumes exact integration of the data, so both sides get
    # generously boosted rules here
    mesh = generate("hexagonal", 2)
    f = exp_field(1.0, 0.7)
    rng = np.random.default_rng(17)
    for ei in _sample_elements(mesh, rng):
        ops = build_local_operators(mesh, ei, k, boost=10)
        el = mesh.elements[ei]
        want = elliptic_project(ops.basis_k1, f, cell_rule(el, 2 * (k + 1) + 12))
        got = ops.P @ interpolate_local(ops, f)
        assert np.max(np.abs(got - want)) <= 1e-11


def test_dof_layout():
    mesh = generate("hexagonal", 2)
    ei = max(range(len(mesh.elements)),
             key=lambda i: len(mesh.elements[i].faces))
    k = 2
    ops = build_local_operators(mesh, ei, k)
    nf = len(mesh.elements[ei].faces)
    nfq = len(ops.face_weights[0])
    assert ops.n_cell == cell_dim(k) == 6
    assert ops.ndof == ops.n_cell + nf * (k + 1)
    shapes = {"D": (nf, k + 1, ops.ndof), "dval_q": (nf, nfq, ops.ndof),
              "faceval_q": (nf, nfq, k + 1), "face_points": (nf, nfq, 2),
              "face_weights": (nf, nfq), "face_lengths": (nf,),
              "face_mass": (nf, k + 1, k + 1),
              "Gc": (2 * ops.n_cell, ops.ndof),
              "cell_pairs": (len(ops.rule.weights), ops.n_cell ** 2),
              "face_pairs": (nf, nfq, (k + 1) ** 2)}
    for name, shape in shapes.items():
        a = getattr(ops, name)
        assert isinstance(a, np.ndarray) and a.shape == shape, name


@pytest.mark.parametrize("p", [1.75, 2.0, 3.0])
def test_stabilization_vanishes_on_smooth_interpolates(p):
    mesh = generate("cartesian", 2)
    ops = build_local_operators(mesh, 5, 1)
    Iq = interpolate_local(ops, monomial_field(2, 0))
    assert abs(stabilization(ops, Iq, Iq, p)) <= 1e-20
    Ic = interpolate_local(ops, constant_field(3.2))
    assert abs(stabilization(ops, Ic, Ic, p)) <= 1e-24


@pytest.mark.parametrize("family", ["triangular", "hexagonal"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_stabilization_p2_matches_mass_matrix_form(family, k):
    # for p = 2 the face terms are exact bilinear forms in the residuals
    mesh = generate(family, 2)
    rng = np.random.default_rng(41)
    for ei in _sample_elements(mesh, rng, count=2):
        ops = build_local_operators(mesh, ei, k)
        u = rng.standard_normal(ops.ndof)
        v = rng.standard_normal(ops.ndof)
        want = 0.0
        for i, M in enumerate(ops.face_mass):
            want += (ops.D[i] @ u) @ M @ (ops.D[i] @ v) / ops.face_lengths[i]
        got = stabilization(ops, u, v, 2.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_stabilization_p3_matches_direct_accumulation():
    mesh = generate("hexagonal", 2)
    ops = build_local_operators(mesh, 3, 1)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(ops.ndof)
    v = rng.standard_normal(ops.ndof)
    want = 0.0
    for i, wq in enumerate(ops.face_weights):
        du = ops.faceval_q[i] @ (ops.D[i] @ u)
        dv = ops.faceval_q[i] @ (ops.D[i] @ v)
        acc = math.fsum(w * abs(a) * a * b for w, a, b in zip(wq, du, dv))
        want += ops.face_lengths[i] ** (-2.0) * acc
    assert stabilization(ops, u, v, 3.0) == pytest.approx(want, rel=1e-13)


def test_stabilization_structure():
    # symmetric only at p = 2; p-homogeneous in general
    mesh = generate("triangular", 2)
    ops = build_local_operators(mesh, 4, 1)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(ops.ndof)
    v = rng.standard_normal(ops.ndof)
    assert stabilization(ops, u, v, 2.0) == pytest.approx(
        stabilization(ops, v, u, 2.0), rel=1e-12)
    for p in (1.75, 2.0, 4.0):
        s = stabilization(ops, u, u, p)
        assert s > 0.0
        assert stabilization(ops, 2 * u, 2 * u, p) == pytest.approx(
            2.0 ** p * s, rel=1e-12)


@pytest.mark.parametrize("p", [1.75, 2.0, 4.0])
def test_local_norm_of_linear_interpolate(p):
    # for v = I_T(x + 2y): grad P v = (1, 2), residuals vanish, so the norm
    # is 5^{1/2} |T|^{1/p}
    mesh = generate("hexagonal", 2)
    for ei in (0, 9):
        ops = build_local_operators(mesh, ei, 1)
        area = mesh.elements[ei].area
        Iv = interpolate_local(ops, affine_field(0.0, 1.0, 2.0))
        want = math.sqrt(5.0) * area ** (1.0 / p)
        assert local_norm(ops, Iv, p) == pytest.approx(want, rel=1e-12)
        assert gradient_seminorm(ops, Iv, p) == pytest.approx(want, rel=1e-12)


def test_local_norm_zero_only_for_constants():
    mesh = generate("cartesian", 2)
    ops = build_local_operators(mesh, 0, 1)
    Ic = interpolate_local(ops, constant_field(-2.0))
    assert local_norm(ops, Ic, 2.0) <= 1e-13
    rng = np.random.default_rng(2)
    v = rng.standard_normal(ops.ndof)
    assert local_norm(ops, v, 2.0) > 0.1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", [1.75, 2.0, 4.0])
def test_norm_equivalent_to_broken_gradient_seminorm(family, p):
    # the two discrete W^{1,p} expressions bound each other with moderate
    # constants on shape-regular elements
    mesh = generate(family, 2)
    rng = np.random.default_rng(33)
    for ei in _sample_elements(mesh, rng, count=3):
        ops = build_local_operators(mesh, ei, 1)
        for _ in range(5):
            v = rng.standard_normal(ops.ndof)
            a = local_norm(ops, v, p)
            b = gradient_seminorm(ops, v, p)
            assert 0.05 <= a / b <= 20.0


def test_operators_translation_invariant():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.0]])
    cells = [[0, 4, 1, 2, 3]]
    shift = np.array([0.3, 0.7])
    m0 = from_polygons(verts, cells)
    m1 = from_polygons(verts + shift, cells)
    for k in (0, 1, 2):
        a = build_local_operators(m0, 0, k)
        b = build_local_operators(m1, 0, k)
        assert np.allclose(a.Gx, b.Gx, atol=1e-12)
        assert np.allclose(a.Gy, b.Gy, atol=1e-12)
        assert np.allclose(a.P, b.P, atol=1e-12)
        for da, db in zip(a.D, b.D):
            assert np.allclose(da, db, atol=1e-12)


def test_quadrature_boost_changes_rule_not_operators():
    mesh = generate("triangular", 2)
    a = build_local_operators(mesh, 2, 1, boost=0)
    b = build_local_operators(mesh, 2, 1, boost=4)
    assert len(b.rule.weights) > len(a.rule.weights)
    assert np.allclose(a.P, b.P, atol=1e-12)
    assert np.allclose(a.Gx, b.Gx, atol=1e-12)
