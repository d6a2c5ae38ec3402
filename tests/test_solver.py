import math

import numpy as np
import pytest

from hho.fields import affine_field, exp_field, sine_product_field
from hho.hho_local import stabilization
from hho.law import LerayLionsLaw, p_laplacian
from hho.mesh import from_polygons, generate
from hho.solver import (DofMap, NewtonConfig, assemble_residual,
                        assemble_system, build_packs, compute_loads,
                        continuation_path, dirichlet_values, energy,
                        interpolate_global, newton_solve)

PI = math.pi


def _linear_setup(family="cartesian", level=2, k=1):
    mesh = generate(family, level)
    packs = build_packs(mesh, k)
    dm = DofMap(mesh, k)
    return mesh, packs, dm


def test_dofmap_layout():
    mesh, packs, dm = _linear_setup("locally_refined", 2, 1)
    ne = len(mesh.elements)
    nf = len(mesh.faces)
    assert dm.ndofs == 3 * ne + 2 * nf
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        assert len(gd) == ops.ndof
        assert np.array_equal(gd[:3], dm.cell_dofs(ei))
    nbnd = sum(1 for f in mesh.faces if f.is_boundary)
    assert len(dm.boundary_dofs) == 2 * nbnd


def test_interpolate_global_matches_face_blocks():
    mesh, packs, dm = _linear_setup("triangular", 2, 1)
    U = interpolate_global(dm, packs, exp_field(0.5, 1.0))
    # every element sees the same face block for a shared face
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        for i, fid in enumerate(ops.face_ids):
            off = ops.face_offsets[i]
            assert np.array_equal(U[gd][off:off + 2], U[dm.face_dofs(fid)])


def test_dirichlet_values_match_interpolate_global():
    mesh, packs, dm = _linear_setup("locally_refined", 2, 1)
    g = exp_field(0.5, 1.0)
    idx, vals = dirichlet_values(dm, packs, g)
    assert np.array_equal(np.sort(idx), np.sort(dm.boundary_dofs))
    assert np.array_equal(vals, interpolate_global(dm, packs, g)[idx])


def test_linear_problem_single_newton_step():
    u = sine_product_field(PI, PI)
    f = (2 * PI ** 2) * u
    mesh = generate("cartesian", 3)
    U, rep, dm, packs = newton_solve(mesh, 1, p_laplacian(2.0), source=f)
    assert rep.converged and not rep.diverged
    assert rep.newton_iters == 1
    assert rep.stages[-1].residual_norm <= 1e-11


def test_p2_jacobian_symmetric():
    mesh, packs, dm = _linear_setup("hexagonal", 2, 1)
    loads = compute_loads(packs, None)
    rng = np.random.default_rng(0)
    U = rng.standard_normal(dm.ndofs)
    _, J = assemble_system(dm, packs, p_laplacian(2.0), U, loads)
    assert abs(J - J.T).max() <= 1e-12


def test_p2_jacobian_independent_of_state():
    # at p = 2 every weight is exactly 1, also where the face differences
    # and the regularization both vanish (U = 0, eps = 0)
    mesh, packs, dm = _linear_setup("hexagonal", 2, 1)
    law = p_laplacian(2.0)
    loads = compute_loads(packs, None)
    U = np.random.default_rng(1).standard_normal(dm.ndofs)
    _, J0 = assemble_system(dm, packs, law, np.zeros(dm.ndofs), loads)
    _, J1 = assemble_system(dm, packs, law, U, loads)
    assert abs(J0 - J1).max() <= 1e-12


@pytest.mark.parametrize("p", [1.75, 3.0])
def test_assembled_face_terms_match_stabilization(p):
    # with a zero flux the assembled system is the stabilization's alone:
    # residual rows are s_T(u, e_i), summed over elements, and the
    # Jacobian columns are their derivatives
    mesh, packs, dm = _linear_setup("triangular", 1, 1)
    law = LerayLionsLaw(
        p=p, name="stabilization only",
        flux=lambda x, xi, eps=0.0: np.zeros_like(xi),
        flux_jacobian=lambda x, xi, eps=0.0: np.zeros(xi.shape + (2,)))
    loads = compute_loads(packs, None)
    rng = np.random.default_rng(5)
    U = 0.5 * rng.standard_normal(dm.ndofs)
    eps = 1e-8

    def stab_rows(V):
        out = np.zeros(dm.ndofs)
        for ei, ops in enumerate(packs):
            gd = dm.element_dofs(ei)
            for a, e in enumerate(np.eye(ops.ndof)):
                out[gd[a]] += stabilization(ops, V[gd], e, p, eps)
        return out

    r, J = assemble_system(dm, packs, law, U, loads, eps=eps)
    J = J.toarray()
    free = np.setdiff1d(np.arange(dm.ndofs), dm.boundary_dofs)
    s = stab_rows(U)
    assert np.max(np.abs(r[free] - s[free])) <= 1e-12 * np.abs(s).max()
    h = 1e-7
    scale = np.abs(J).max()
    for j in rng.choice(free, size=12, replace=False):
        d = np.zeros(dm.ndofs)
        d[j] = h
        fd = (stab_rows(U + d) - stab_rows(U - d)) / (2 * h)
        assert np.max(np.abs(fd[free] - J[free, j])) <= 1e-5 * scale


@pytest.mark.parametrize("p", [1.75, 3.0])
def test_global_jacobian_matches_finite_differences(p):
    mesh, packs, dm = _linear_setup("triangular", 1, 1)
    law = p_laplacian(p)
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    rng = np.random.default_rng(3)
    U = 0.5 * rng.standard_normal(dm.ndofs)
    eps = 1e-8
    r, J = assemble_system(dm, packs, law, U, loads, eps=eps)
    J = J.toarray()
    free = np.setdiff1d(np.arange(dm.ndofs), dm.boundary_dofs)
    cols = rng.choice(free, size=12, replace=False)
    h = 1e-7
    scale = np.abs(J).max()
    for j in cols:
        d = np.zeros(dm.ndofs)
        d[j] = h
        rp = assemble_residual(dm, packs, law, U + d, loads, eps=eps)
        rm = assemble_residual(dm, packs, law, U - d, loads, eps=eps)
        fd = (rp - rm) / (2 * h)
        assert np.max(np.abs(fd - J[:, j])) <= 1e-5 * scale


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_gradient_is_residual(p):
    mesh, packs, dm = _linear_setup("cartesian", 2, 0)
    law = p_laplacian(p)
    loads = compute_loads(packs, sine_product_field(PI, PI))
    rng = np.random.default_rng(9)
    U = rng.standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads)
    free = np.setdiff1d(np.arange(dm.ndofs), dm.boundary_dofs)
    h = 1e-6
    for j in rng.choice(free, size=10, replace=False):
        d = np.zeros(dm.ndofs)
        d[j] = h
        dE = (energy(dm, packs, law, U + d, loads)
              - energy(dm, packs, law, U - d, loads)) / (2 * h)
        assert dE == pytest.approx(r[j], rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("family", ["cartesian", "locally_refined"])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_condensed_solve_matches_full(family, p):
    u = sine_product_field(PI, PI)
    f = (2 * PI ** 2) * u
    mesh = generate(family, 2)
    law = p_laplacian(p)
    U1, rep1, _, _ = newton_solve(mesh, 1, law, source=f)
    U2, rep2, _, _ = newton_solve(mesh, 1, law, source=f,
                                  config=NewtonConfig(condense=True))
    assert rep1.converged and rep2.converged
    assert np.max(np.abs(U1 - U2)) <= 1e-10


def test_condensed_system_size_single_element():
    # the condensed system couples only face unknowns
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = from_polygons(verts, [[0, 1, 2, 3]])
    dm = DofMap(mesh, 1)
    assert dm.ndofs - dm.cell_span == 4 * 2


def test_zero_source_zero_solution():
    mesh = generate("hexagonal", 2)
    for p in (1.75, 2.0, 4.0):
        U, rep, _, _ = newton_solve(mesh, 1, p_laplacian(p))
        assert rep.converged
        assert rep.newton_iters == 0
        assert np.max(np.abs(U)) == 0.0


def test_dirichlet_lift_exactness():
    # boundary data that is a polynomial of face degree is reproduced exactly
    mesh, packs, dm = _linear_setup("cartesian", 2, 1)
    g = affine_field(0.25, 1.0, -2.0)
    U, rep, dm, packs = newton_solve(mesh, 1, p_laplacian(2.0), dirichlet=g)
    # harmonic linear field is the exact solution everywhere
    UI = interpolate_global(dm, packs, g)
    assert rep.converged
    assert np.max(np.abs(U - UI)) <= 1e-10


def test_continuation_paths():
    assert continuation_path(2.0) == (2.0,)
    assert continuation_path(1.75) == (2.0, 1.75)
    assert continuation_path(3.0) == (2.0, 3.0)
    assert continuation_path(4.0) == (2.0, 3.0, 4.0)
    assert continuation_path(4.5) == (2.0, 3.0, 4.0, 4.5)
    assert continuation_path(1.1) == (2.0, 1.1)


def test_p4_trigonometric_converges():
    u = sine_product_field(PI, PI)
    law = p_laplacian(4.0)

    def f(pts):
        g = u.gradient(pts)
        H = u.hessian(pts)
        Da = law.flux_jacobian(pts, g)
        return -np.einsum("qab,qba->q", Da, H)

    mesh = generate("cartesian", 4)   # 16x16
    U, rep, dm, packs = newton_solve(mesh, 1, law, source=f, dirichlet=u)
    assert rep.converged
    assert rep.stages[-1].residual_norm <= 1e-9
    assert [s.p for s in rep.stages] == [2.0, 3.0, 4.0]


def test_galerkin_orthogonality_linear():
    # at the p=2 solution the residual pairs to zero with any test vector
    u = sine_product_field(PI, PI)
    f = (2 * PI ** 2) * u
    mesh = generate("triangular", 3)
    law = p_laplacian(2.0)
    U, rep, dm, packs = newton_solve(mesh, 1, law, source=f)
    loads = compute_loads(packs, f)
    r = assemble_residual(dm, packs, law, U, loads)
    rng = np.random.default_rng(12)
    for _ in range(5):
        v = rng.standard_normal(dm.ndofs)
        v[dm.boundary_dofs] = 0.0
        assert abs(r @ v) <= 1e-10 * np.linalg.norm(v)


def test_element_order_invariance():
    # relabeling elements permutes unknowns but not the discrete solution
    u = sine_product_field(PI, PI)
    f = (2 * PI ** 2) * u
    n = 4
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    cells = [[j * (n + 1) + i, j * (n + 1) + i + 1,
              (j + 1) * (n + 1) + i + 1, (j + 1) * (n + 1) + i]
             for j in range(n) for i in range(n)]
    law = p_laplacian(3.0)
    m1 = from_polygons(verts, cells)
    m2 = from_polygons(verts, cells[::-1])
    U1, rep1, dm1, pk1 = newton_solve(m1, 1, law, source=f, dirichlet=u)
    U2, rep2, dm2, pk2 = newton_solve(m2, 1, law, source=f, dirichlet=u)
    assert rep1.converged and rep2.converged
    ne = len(m1.elements)
    for ei in range(ne):
        a = U1[dm1.cell_dofs(ei)]
        b = U2[dm2.cell_dofs(ne - 1 - ei)]
        assert np.max(np.abs(a - b)) <= 1e-9


def test_roundoff_floor_stall_counts_as_converged():
    # a solve that reaches its roundoff floor still reports convergence
    u = exp_field(1.0, PI)
    law = p_laplacian(1.75)

    def f(pts):
        g = u.gradient(pts)
        H = u.hessian(pts)
        Da = law.flux_jacobian(pts, g)
        return -np.einsum("qab,qba->q", Da, H)

    mesh = generate("triangular", 3)
    U, rep, dm, packs = newton_solve(mesh, 2, law, source=f, dirichlet=u)
    assert rep.converged
    assert rep.stages[-1].residual_norm <= 1e-6
