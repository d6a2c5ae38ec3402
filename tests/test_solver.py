import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hho.fields import affine_field, exp_field, sine_product_field
from hho.harness import manufactured_source
from hho.hho_local import stabilization
from hho.law import LerayLionsLaw, p_laplacian
from hho.mesh import from_polygons, generate
from hho.solver import (BLOCK, DofMap, NewtonConfig, _assemble,
                        assemble_residual, assemble_system, build_packs,
                        compute_loads, continuation_path, dirichlet_values,
                        energy, interpolate_global, newton_solve)

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


def _check_jacobian_fd(family, level, p):
    mesh, packs, dm = _linear_setup(family, level, 1)
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


@pytest.mark.parametrize("p", [1.75, 3.0])
def test_global_jacobian_matches_finite_differences(p):
    _check_jacobian_fd("triangular", 1, p)


# hexagonal level 3: 120 elements with 3, 4 and 6 faces, the 6-face ones
# over three blocks; locally refined level 2: 4 and 5 faces
MIXED_SHAPES = [("hexagonal", 3), ("locally_refined", 2)]


def test_blocks_partition_elements_by_shape():
    for family, level in MIXED_SHAPES:
        mesh, packs, dm = _linear_setup(family, level, 1)
        seen = np.concatenate([b.elements for b in dm.blocks])
        assert np.array_equal(np.sort(seen), np.arange(len(mesh.elements)))
        shapes = []
        for b in dm.blocks:
            nf = {len(mesh.elements[e].faces) for e in b.elements}
            assert len(nf) == 1 and 0 < len(b.elements) <= BLOCK
            shapes += nf
            for e, gd in zip(b.elements, b.dofs):
                assert np.array_equal(gd, dm.element_dofs(e))
        assert len(set(shapes)) > 1
        if family == "hexagonal":
            assert shapes.count(6) > 1     # one shape over several blocks


@pytest.mark.parametrize("family,level", MIXED_SHAPES)
@pytest.mark.parametrize("p", [1.75, 3.0])
def test_global_jacobian_matches_finite_differences_mixed_shapes(
        p, family, level):
    _check_jacobian_fd(family, level, p)


def _check_energy_gradient(family, level, k, p, h):
    mesh, packs, dm = _linear_setup(family, level, k)
    law = p_laplacian(p)
    loads = compute_loads(packs, sine_product_field(PI, PI))
    rng = np.random.default_rng(9)
    U = rng.standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads)
    free = np.setdiff1d(np.arange(dm.ndofs), dm.boundary_dofs)
    for j in rng.choice(free, size=10, replace=False):
        d = np.zeros(dm.ndofs)
        d[j] = h
        dE = (energy(dm, packs, law, U + d, loads)
              - energy(dm, packs, law, U - d, loads)) / (2 * h)
        assert dE == pytest.approx(r[j], rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_gradient_is_residual(p):
    _check_energy_gradient("cartesian", 2, 0, p, h=1e-6)


@pytest.mark.parametrize("family,level", MIXED_SHAPES)
@pytest.mark.parametrize("p", [1.75, 3.0])
def test_energy_gradient_is_residual_mixed_shapes(p, family, level):
    # the energy reaches 2e5 here (h_F^{1-p} weights on small faces), so a
    # 1e-6 step would leave differences at roundoff; 1e-4 stays below 1e-7
    _check_energy_gradient(family, level, 1, p, h=1e-4)


@pytest.mark.parametrize("family", ["cartesian", "locally_refined",
                                    "hexagonal"])
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


def _residual_by_element(dm, packs, law, U, loads, eps):
    """Reference: the residual assembled one element at a time."""
    p = law.p
    r = np.zeros(dm.ndofs)
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        a = law.flux(ops.rule.points, ops.grad_q @ U[gd], eps)
        re = np.einsum("q,qc,qci->i", ops.rule.weights, a, ops.grad_q)
        re[:ops.n_cell] -= loads[ei]
        for i, dval in enumerate(ops.dval_q):
            du = dval @ U[gd]
            sw = (du * du + eps * eps) ** ((p - 2.0) / 2.0)
            re += ops.face_lengths[i] ** (1.0 - p) * (
                dval.T @ (ops.face_rules[i].weights * sw * du))
        r[gd] += re
    r[dm.boundary_dofs] = 0.0
    return r


@pytest.mark.parametrize("family,level", MIXED_SHAPES)
def test_blocks_match_element_loop(family, level):
    mesh, packs, dm = _linear_setup(family, level, 1)
    u = sine_product_field(PI, PI)
    law = p_laplacian(1.75)
    # a floor this high marks many nodes singular, so their count is tested
    f_blocks = manufactured_source(u, law, singular_floor=0.5)
    f_loop = manufactured_source(u, law, singular_floor=0.5)
    loads = compute_loads(packs, f_blocks)
    ref = np.array([ops.cellval_q.T @ (ops.rule.weights
                                       * f_loop(ops.rule.points))
                    for ops in packs])
    assert f_blocks.singular_hits == f_loop.singular_hits > 0
    assert np.max(np.abs(loads - ref)) <= 1e-13 * np.abs(ref).max()
    U = 0.5 * np.random.default_rng(2).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    r_ref = _residual_by_element(dm, packs, law, U, ref, 1e-8)
    assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.abs(r_ref).max()


def test_assemble_calls_the_law_once_per_block():
    # the Newton matrix reuses the residual at the same iterate: no flux
    # call, and at most one flux Jacobian call per block of elements
    mesh, packs, dm = _linear_setup("triangular", 3, 1)
    base = p_laplacian(1.75)
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    law = replace(base, flux=counted("flux", base.flux),
                  flux_jacobian=counted("flux_jacobian", base.flux_jacobian))
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    U = 0.5 * np.random.default_rng(4).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    assert calls["flux"] == len(dm.blocks) < len(mesh.elements)
    for condense in (False, True):
        calls.clear()
        _assemble(dm, packs, law, U, r, 1e-8, condense)
        assert calls["flux"] == 0
        assert calls["flux_jacobian"] <= len(dm.blocks)


def test_stage_reports_time_the_newton_phases():
    u = sine_product_field(PI, PI)
    law = p_laplacian(1.75)
    _, rep, _, _ = newton_solve(generate("triangular", 2), 1, law,
                                source=manufactured_source(u, law),
                                dirichlet=u)
    assert rep.converged
    for st in rep.stages:
        assert st.iterations > 0
        assert min(st.assemble_s, st.linear_solve_s, st.line_search_s) > 0
    assert sum(st.assemble_s + st.linear_solve_s + st.line_search_s
               for st in rep.stages) <= rep.wall_time


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_singular_cell_block_ends_in_a_clean_failure(monkeypatch):
    # a condensed step through a singular cell block is NaN, like a full
    # step through a singular system: the stage reports non-convergence
    mesh, packs, dm = _linear_setup("cartesian", 2, 1)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    u = sine_product_field(PI, PI)
    U, rep, _, _ = newton_solve(mesh, 1, p_laplacian(2.0),
                                source=(2 * PI ** 2) * u,
                                config=NewtonConfig(condense=True),
                                packs=packs, dm=dm)
    assert not rep.converged and rep.newton_iters == 0
