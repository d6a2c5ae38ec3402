import math
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from hho import mesh as mesh_module
from hho import hho_local, polybasis, quadrature, solver
from hho.fields import affine_field, exp_field, sine_product_field
from hho.harness import (compute_errors, manufactured_solution,
                         manufactured_source)
from hho.hho_local import (STACK_SHAPES, build_local_operators,
                           build_stacked_operators, stabilization)
from hho.law import LerayLionsLaw, p_laplacian
from hho.mesh import (FAMILIES, from_polygons, generate, read_mesh,
                      shape_keys, write_mesh)
from hho.polybasis import face_basis, l2_project
from hho.quadrature import face_rule
from hho.solver import (JACOBIAN_ENTRIES, DofMap, NewtonConfig, _assemble,
                        assemble_residual, assemble_system, build_packs,
                        compute_loads, continuation_path, dirichlet_values,
                        energy, interpolate_global, newton_solve,
                        shape_groups)

PI = math.pi


def _linear_setup(family="cartesian", level=2, k=1):
    mesh = generate(family, level)
    packs = build_packs(mesh, k)
    dm = DofMap(mesh, k)
    return mesh, packs, dm


def _element_nodes(mesh, ops, ei):
    """Cell nodes of element ei: those of the element its operators were
    built on, moved by the difference of the centroids."""
    return ops.rule.points + (mesh.elements[ei].centroid
                              - mesh.elements[ops.elements[0]].centroid)


def test_dofmap_layout():
    mesh, packs, dm = _linear_setup("locally_refined", 2, 1)
    ne = mesh.n_elements
    nf = mesh.n_faces
    assert dm.ndofs == 3 * ne + 2 * nf
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        assert len(gd) == ops.ndof
        assert np.array_equal(gd[:3], dm.cell_dofs(ei))
    nbnd = len(mesh.boundary_faces())
    assert len(dm.boundary_dofs) == 2 * nbnd


def test_interpolate_global_matches_face_blocks():
    mesh, packs, dm = _linear_setup("triangular", 2, 1)
    U = interpolate_global(dm, packs, exp_field(0.5, 1.0))
    # every element sees the same face block for a shared face
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        for i, fid in enumerate(mesh.elements[ei].faces):
            off = ops.n_cell + 2 * i
            assert np.array_equal(U[gd][off:off + 2], U[dm.face_dofs(fid)])


@pytest.mark.parametrize("family", ["triangular", "hexagonal",
                                    "locally_refined"])
def test_dirichlet_values_need_the_datum_on_the_boundary_only(family):
    # each boundary face is projected from its own nodes alone: a datum that
    # is NaN away from the boundary gives the same data, to the last bit
    mesh, packs, dm = _linear_setup(family, 3, 2)
    g = exp_field(0.5, 1.0)
    on_boundary = lambda x: ((np.abs(x) < 1e-12)
                             | (np.abs(x - 1.0) < 1e-12)).any(axis=-1)
    masked = lambda x: np.where(on_boundary(x), g(x), np.nan)
    idx, vals = dirichlet_values(dm, packs, g)
    idx_m, vals_m = dirichlet_values(dm, packs, masked)
    assert np.array_equal(idx, dm.boundary_dofs)
    assert np.array_equal(idx_m, idx)
    assert np.all(np.isfinite(vals)) and np.array_equal(vals_m, vals)


def test_linear_problem_single_newton_step():
    u = sine_product_field(PI, PI)
    f = (2 * PI ** 2) * u
    mesh = generate("cartesian", 3)
    U, rep, dm, packs = newton_solve(mesh, 1, p_laplacian(2.0), source=f)
    assert rep.converged
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


# hexagonal level 3: 120 elements with 3, 4 and 6 faces in 17 shapes;
# locally refined level 2: 4 and 5 faces
MIXED_SHAPES = [("hexagonal", 3), ("locally_refined", 2)]


def test_blocks_partition_elements_by_shape():
    # at k = 3 the 64 inner hexagons of level 3 fill three blocks
    for family, level, k in [*((f, lv, 1) for f, lv in MIXED_SHAPES),
                             ("hexagonal", 3, 3)]:
        mesh, packs, dm = _linear_setup(family, level, k)
        keys = shape_keys(mesh)
        seen = np.concatenate([b.elements for b in dm.blocks])
        assert np.array_equal(np.sort(seen), np.arange(len(mesh.elements)))
        shapes, block_keys = [], []
        for b in dm.blocks:
            nf = {len(mesh.elements[e].faces) for e in b.elements}
            assert len(nf) == 1 and len(b.elements) > 0
            assert len(set(keys[b.elements])) == 1     # one shape key
            ndof = b.dofs.shape[1]
            assert ndof == dm.n_cell + dm.n_face * min(nf)
            # within the budget, or one element that alone exceeds it
            assert (len(b.elements) * ndof ** 2 <= JACOBIAN_ENTRIES
                    or len(b.elements) == 1)
            block_keys.append(keys[b.elements[0]])
            shapes += nf
            first = packs[b.elements[0]]
            assert np.array_equal(first.elements[b.run], b.elements)
            for e, gd in zip(b.elements, b.dofs):
                assert np.array_equal(gd, dm.element_dofs(e))
                assert packs[e] is first
        assert len(set(shapes)) > 1
        assert len(set(block_keys)) == keys.max() + 1
        if family == "hexagonal":
            assert shapes.count(6) > 1
        if k == 3:
            # one shape key over several blocks
            assert len(block_keys) > len(set(block_keys))


def test_blocks_fill_the_budget():
    # triangular level 4 at k = 1: 512 elements in 4 shapes, in fewer blocks
    # than runs of 32 elements would make
    mesh = generate("triangular", 4)
    dm = DofMap(mesh, 1)
    groups = shape_groups(mesh.shape_labels)
    assert len(groups) == 4
    assert len(dm.blocks) < sum(-(-len(g) // 32) for g in groups)
    # an element matrix over the budget (ndof = 184 at k = 15) is a block
    big = DofMap(mesh, 15)
    assert big.blocks[0].dofs.shape[1] ** 2 > JACOBIAN_ENTRIES
    assert all(len(b.elements) == 1 for b in big.blocks)


def test_chunks_are_runs_of_blocks_within_the_budget():
    # hexagonal level 4 at k = 1: 19 blocks in 6 chunks of one local size
    # each; at k = 15 every block is one element over the budget, and a
    # chunk of its own
    for k, n_chunks in [(1, 6), (15, None)]:
        dm = DofMap(generate("hexagonal", 4), k)
        assert [c.start for c in dm.chunks[1:]] == [c.stop for c in
                                                   dm.chunks[:-1]]
        assert dm.chunks[0].start == 0 and dm.chunks[-1].stop == len(
            dm.blocks)
        sizes = [b.dofs.shape[1] for b in dm.blocks]
        assert sizes == sorted(sizes)
        for c in dm.chunks:
            entries = [b.dofs.size * b.dofs.shape[1] for b in dm.blocks[c]]
            assert sum(entries) <= JACOBIAN_ENTRIES or len(entries) == 1
            assert len(set(sizes[c])) == 1
        if n_chunks:
            assert len(dm.chunks) == n_chunks < len(dm.blocks)
        else:
            assert len(dm.chunks) == len(dm.blocks)
    # hexagonal level 2: 14 blocks of local sizes 9, 11 and 15, one chunk each
    dm = DofMap(generate("hexagonal", 2), 1)
    assert [dm.blocks[c][0].dofs.shape[1] for c in dm.chunks] == [9, 11, 15]


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


def test_energy_needs_the_energy_density():
    mesh, packs, dm = _linear_setup("cartesian", 2, 1)
    law = replace(p_laplacian(3.0), energy_density=None)
    with pytest.raises(ValueError, match="no energy density"):
        energy(dm, packs, law, np.zeros(dm.ndofs), compute_loads(packs, None))


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
    for p in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            continuation_path(p)
    # across (1, 65]: from 2 to p, monotone, unit steps but a last one of
    # at most 1, and 2 + max(0, ceil(|p - 2| - 1)) stages (1 at p = 2)
    for p in (1.01, 1.5, 2.0, 2.5, 3.5, 10.0, 33.3, 64.5, 65.0):
        path = continuation_path(p)
        assert path[0] == 2.0 and path[-1] == p
        steps = np.diff(path)
        assert np.all(steps > 0) or np.all(steps < 0)
        assert np.all(np.abs(steps[:-1]) == 1.0)
        assert np.all(np.abs(steps[-1:]) <= 1.0)
        assert len(path) == (1 if p == 2.0 else
                             2 + max(0, math.ceil(abs(p - 2.0) - 1.0)))


def test_continuation_paths_are_capped():
    # p = 65 takes MAX_STAGES = 64 unit-step stages; a larger p is refused
    # from the length alone, before a path is built: 1e300 + 1 == 1e300, so
    # building that path would never end
    assert solver.MAX_STAGES == 64
    path = continuation_path(65.0)
    assert len(path) == 64 and path[-2:] == (64.0, 65.0)
    assert len(continuation_path(64.5)) == 64
    for p in (65.5, 66.0, 1e9, 1e300):
        with pytest.raises(ValueError, match="more than 64 stages"):
            continuation_path(p)


@pytest.mark.parametrize("path", [(2.0,), (2.0, 2.5), ()])
def test_continuation_must_end_at_the_target_p(monkeypatch, path):
    # a path that stops short of p reported its last stage's convergence as
    # the solve's: at p = 3, (2,) gave "converged" with residual 14.9 at p = 3
    def no_build(*args):
        raise AssertionError("operators built before the path was checked")
    monkeypatch.setattr(solver, "build_packs", no_build)
    u = manufactured_solution("trigonometric")
    law = p_laplacian(3.0)
    with pytest.raises(ValueError, match="does not end at p = 3.0"):
        newton_solve(generate("triangular", 3), 1, law,
                     source=manufactured_source(u, law), dirichlet=u,
                     config=NewtonConfig(continuation=path))


def test_continuation_without_the_family_is_rejected_up_front(monkeypatch):
    law = replace(p_laplacian(3.0), family=None)
    with monkeypatch.context() as m:
        def no_build(*args):
            raise AssertionError("operators built before the path was checked")
        m.setattr(solver, "build_packs", no_build)
        with pytest.raises(ValueError, match="requires the law's family"):
            newton_solve(generate("triangular", 3), 1, law)
    # a path that stays at the law's p needs no family
    _, rep, _, _ = newton_solve(generate("cartesian", 2), 1, law,
                                config=NewtonConfig(continuation=(3.0,)))
    assert rep.converged


@pytest.mark.parametrize("case", ["degree", "mesh"])
def test_newton_solve_rejects_a_dofmap_of_another_problem(monkeypatch, case):
    # with a k = 1 DofMap, k = 3 solved k = 1 and reported convergence with
    # 208 dofs; with level-2 dm and packs a level-3 mesh solved level 2
    mesh = generate("triangular", 2)
    dm, packs = DofMap(mesh, 1), build_packs(mesh, 1)
    target, k, match = {"degree": (mesh, 3, "dm is for k = 1, not k = 3"),
                        "mesh": (generate("triangular", 3), 1,
                                 "dm was built on another mesh")}[case]

    def no_work(*args):
        raise AssertionError("loads computed before dm was checked")
    monkeypatch.setattr(solver, "compute_loads", no_work)
    with pytest.raises(ValueError, match=match):
        newton_solve(target, k, p_laplacian(2.0), packs=packs, dm=dm)


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
        a = law.flux(_element_nodes(dm.mesh, ops, ei), ops.grad_q @ U[gd],
                     eps)
        re = np.einsum("q,qc,qci->i", ops.rule.weights, a, ops.grad_q)
        re[:ops.n_cell] -= loads[ei]
        for i, dval in enumerate(ops.dval_q):
            du = dval @ U[gd]
            sw = (du * du + eps * eps) ** ((p - 2.0) / 2.0)
            re += ops.face_lengths[i] ** (1.0 - p) * (
                dval.T @ (ops.face_weights[i] * sw * du))
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
    ref = np.array([ops.cellval_q.T @ (
        ops.rule.weights * f_loop(_element_nodes(mesh, ops, ei)))
        for ei, ops in enumerate(packs)])
    assert f_blocks.singular_hits == f_loop.singular_hits > 0
    assert np.max(np.abs(loads - ref)) <= 1e-13 * np.abs(ref).max()
    U = 0.5 * np.random.default_rng(2).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    r_ref = _residual_by_element(dm, packs, law, U, ref, 1e-8)
    assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.abs(r_ref).max()


def _jacobian_of_element(mesh, ops, ei, law, u, eps):
    """Reference: one element's Jacobian from the point values of its
    gradient reconstruction and face residuals."""
    p = law.p
    Da = law.flux_jacobian(_element_nodes(mesh, ops, ei), ops.grad_q @ u, eps)
    Je = np.einsum("q,qai,qab,qbj->ij", ops.rule.weights, ops.grad_q, Da,
                   ops.grad_q)
    for dval, wf, h in zip(ops.dval_q, ops.face_weights, ops.face_lengths):
        du = dval @ u
        n2 = du * du + eps * eps
        jw = (n2 ** ((p - 2.0) / 2.0)
              + (p - 2.0) * n2 ** ((p - 4.0) / 2.0) * du * du)
        Je += h ** (1.0 - p) * (dval.T @ ((wf * jw)[:, None] * dval))
    return Je


@pytest.mark.parametrize("family,level,k", [*((f, lv, 1) for f, lv
                                              in MIXED_SHAPES),
                                            ("hexagonal", 3, 3)])
@pytest.mark.parametrize("p", [1.75, 2.0, 3.0])
def test_block_jacobian_matches_element_loop(family, level, k, p):
    mesh, packs, dm = _linear_setup(family, level, k)
    law = p_laplacian(p)
    eps = 1e-8
    U = 0.5 * np.random.default_rng(6).standard_normal(dm.ndofs)
    got, ref = [], []
    for blk, ops in solver.shared_operators(dm, packs):
        got.append(solver._block_jacobian(ops, blk, law, U[blk.dofs], eps))
        ref.append([_jacobian_of_element(mesh, packs[e], e, law, U[gd], eps)
                    for e, gd in zip(blk.elements, blk.dofs)])
    scale = max(np.abs(r).max() for r in ref)
    assert max(np.abs(g - r).max() for g, r in zip(got, ref)) <= 1e-13 * scale


def test_assemble_calls_the_law_once_per_chunk():
    # one flux call per chunk of blocks; the Newton matrix reuses the
    # residual at the same iterate: no flux call, and one flux Jacobian call
    # per chunk (hexagonal level 4: 6 chunks of 19 blocks), and condensed,
    # one condensation per chunk
    base = p_laplacian(1.75)
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    law = replace(base, flux=counted("flux", base.flux),
                  flux_jacobian=counted("flux_jacobian", base.flux_jacobian))
    for family, level in [("triangular", 3), ("hexagonal", 4)]:
        mesh, packs, dm = _linear_setup(family, level, 1)
        loads = compute_loads(packs, exp_field(1.0, -0.5))
        U = 0.5 * np.random.default_rng(4).standard_normal(dm.ndofs)
        calls.clear()
        r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
        assert calls["flux"] == len(dm.chunks) < len(dm.blocks)
        for condense in (False, True):
            calls.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(solver, "_condensed",
                          counted("condensed", solver._condensed))
                _assemble(dm, packs, law, U, r, 1e-8, condense)
            assert calls["flux"] == 0
            assert calls["flux_jacobian"] == len(dm.chunks)
            assert calls["condensed"] == (len(dm.chunks) if condense else 0)


def _coo_newton_matrix(dm, packs, law, U, eps, condense):
    """Reference: the masked Newton matrix from COO triplets, element by
    element, summed by scipy's conversion to CSC."""
    nk = dm.n_cell
    off = dm.cell_span if condense else 0
    n = dm.ndofs - off
    free = np.ones(n, dtype=bool)
    free[dm.boundary_dofs - off] = False
    rows, cols, vals = [], [], []
    for blk, ops in solver.shared_operators(dm, packs):
        Je = solver._block_jacobian(ops, blk, law, U[blk.dofs], eps)
        gd = blk.dofs
        if condense:        # the Schur complement of the cell blocks
            Je = Je[:, nk:, nk:] - Je[:, nk:, :nk] @ np.linalg.solve(
                Je[:, :nk, :nk], Je[:, :nk, nk:])
            gd = gd[:, nk:] - off
        for d, A in zip(gd, Je):
            keep = np.outer(free[d], free[d])
            r, c = np.meshgrid(d, d, indexing="ij")
            rows.append(r[keep])
            cols.append(c[keep])
            vals.append(A[keep])
    bnd = dm.boundary_dofs - off
    rows.append(bnd)
    cols.append(bnd)
    vals.append(np.ones(len(bnd)))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n)).tocsc()


# the mixed shapes, and hexagonal level 3 at k = 3, whose inner hexagons
# span three blocks
PATTERN_MESHES = [(f, lv, 1) for f, lv in MIXED_SHAPES] + [
    ("triangular", 3, 1), ("hexagonal", 3, 3)]


@pytest.mark.parametrize("family,level,k", PATTERN_MESHES)
@pytest.mark.parametrize("condense", [False, True])
def test_fixed_pattern_matches_coo_assembly(family, level, k, condense):
    mesh, packs, dm = _linear_setup(family, level, k)
    law = p_laplacian(1.75)
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    U = 0.5 * np.random.default_rng(8).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    _, J, _ = _assemble(dm, packs, law, U, r, 1e-8, condense)
    ref = _coo_newton_matrix(dm, packs, law, U, 1e-8, condense)
    assert J.format == "csc" and J.has_canonical_format
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.max(np.abs(J.data - ref.data)) <= 1e-14 * np.abs(ref.data).max()
    # the boundary rows and columns hold the diagonal 1 and nothing else
    bnd = dm.boundary_dofs - (dm.cell_span if condense else 0)
    eye = sp.identity(J.shape[0], format="csc")[:, bnd]
    assert (J[:, bnd] != eye).nnz == 0 and J[:, bnd].nnz == len(bnd)
    assert (J.tocsr()[bnd] != eye.T).nnz == 0 and J.tocsr()[bnd].nnz == len(bnd)


def test_newton_pattern_is_built_once_per_mode(monkeypatch):
    builds = Counter()
    build = solver.matrix_pattern

    def counted(dm, condense):
        builds[id(dm), condense] += 1
        return build(dm, condense)
    monkeypatch.setattr(solver, "matrix_pattern", counted)
    mesh, packs, dm = _linear_setup("triangular", 2, 1)
    u = sine_product_field(PI, PI)
    law = p_laplacian(1.75)
    f = manufactured_source(u, law)
    _, rep, _, _ = newton_solve(mesh, 1, law, source=f, dirichlet=u,
                                packs=packs, dm=dm)
    # two stages of continuation, p = 2 then 7/4, with one build
    assert rep.converged and len(rep.stages) == 2 and rep.newton_iters > 4
    assert builds == {(id(dm), False): 1}
    _, rep, _, _ = newton_solve(mesh, 1, law, source=f, dirichlet=u,
                                config=NewtonConfig(condense=True),
                                packs=packs, dm=dm)
    assert rep.converged
    assert builds == {(id(dm), False): 1, (id(dm), True): 1}
    other = DofMap(mesh, 1)
    _, rep, _, _ = newton_solve(mesh, 1, law, source=f, dirichlet=u,
                                packs=packs, dm=other)
    assert rep.converged and builds[id(other), False] == 1
    assert sum(builds.values()) == 3
    # a cached pattern does not let packs of another mesh through
    U = np.zeros(dm.ndofs)
    with pytest.raises(ValueError, match="do not share one operator set"):
        _assemble(dm, build_packs(generate("triangular", 3), 1), law, U, U,
                  0.0, False)


@pytest.mark.parametrize("family,level,k,condense", [
    ("triangular", 3, 1, False), ("hexagonal", 3, 1, True),
    ("locally_refined", 2, 2, False)])
def test_ordered_pattern_holds_the_permuted_matrix(family, level, k,
                                                   condense, monkeypatch):
    # after a mode's first factorization its matrix comes in the kept order:
    # P^T J P of the natural one, value for value.  These matrices are
    # small enough for the band, whose reverse Cuthill-McKee order they take
    # at the default BAND_FILL; BAND_FILL = 0 keeps SuperLU's column order
    for band_fill in (0, solver.BAND_FILL):
        monkeypatch.setattr(solver, "BAND_FILL", band_fill)
        mesh, packs, dm = _linear_setup(family, level, k)
        law = p_laplacian(1.75)
        loads = compute_loads(packs, exp_field(1.0, -0.5))
        U = 0.5 * np.random.default_rng(9).standard_normal(dm.ndofs)
        r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
        rs, J, _ = _assemble(dm, packs, law, U, r, 1e-8, condense)
        assert dm.pattern(condense).order is None
        factors = []
        splu = solver.splu

        def captured(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "splu", captured)
            x = solver.solve_newton_system(dm, condense, J, -rs)
        pat = dm.pattern(condense)
        order = pat.order
        assert (pat.band is None) == (band_fill == 0)
        if band_fill == 0:
            assert np.array_equal(order, np.argsort(factors[0].perm_c))
        rs_o, J_o, _ = _assemble(dm, packs, law, U, r, 1e-8, condense)
        ref = J[order][:, order].tocsc()
        ref.sort_indices()
        assert J_o.has_canonical_format
        assert np.array_equal(J_o.indptr, ref.indptr)
        assert np.array_equal(J_o.indices, ref.indices)
        assert np.array_equal(J_o.data, ref.data)
        assert np.array_equal(rs_o, rs)
        # the boundary rows and columns, moved, hold the diagonal 1 alone
        bnd = np.argsort(order)[dm.boundary_dofs - (dm.cell_span if condense
                                                    else 0)]
        assert np.all(J_o.diagonal()[bnd] == 1.0)
        assert J_o[:, bnd].nnz == J_o.tocsr()[bnd].nnz == len(bnd)
        # the same solution, to roundoff
        x_o = solver.solve_newton_system(dm, condense, J_o, -rs_o)
        assert np.max(np.abs(x_o - x)) <= 1e-12 * np.max(np.abs(x))


def test_later_newton_factorizations_keep_the_first_order_and_fill(
        monkeypatch):
    u = sine_product_field(PI, PI)
    law = p_laplacian(1.75)
    mesh = generate("triangular", 4)
    factors = []
    splu = solver.splu

    def captured(J, permc_spec, **kwargs):
        lu = splu(J, permc_spec=permc_spec, **kwargs)
        factors.append((J, permc_spec, lu.L.nnz + lu.U.nnz))
        return lu
    monkeypatch.setattr(solver, "splu", captured)
    _, rep, dm, _ = newton_solve(mesh, 1, law, source=manufactured_source(
        u, law), dirichlet=u)
    assert rep.converged and len(factors) == rep.newton_iters > 4
    (J0, first, _), *later = factors
    assert first == "MMD_AT_PLUS_A"
    assert [spec for _, spec, _ in later] == ["NATURAL"] * len(later)
    # each has the fill of the minimum degree factorization of the same
    # matrix in the natural order (exact zeros of the factors vary with the
    # values, so the count is compared matrix by matrix)
    back = np.argsort(dm.pattern(False).order)
    for J, _, fill in later:
        natural = J[back][:, back].tocsc()
        assert natural.nnz == J0.nnz
        lu = splu(natural, permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, panel_size=1,
                  options={"SymmetricMode": True})
        assert lu.L.nnz + lu.U.nnz == fill


def test_linear_solve_builds_no_ordered_pattern(monkeypatch):
    # one factorization per mode: its column order is never used
    calls = Counter()
    build = solver.ordered_pattern

    def counted(*args):
        calls["ordered"] += 1
        return build(*args)
    monkeypatch.setattr(solver, "ordered_pattern", counted)
    rcm = solver.reverse_cuthill_mckee

    def counted_rcm(*args, **kwargs):
        calls["band"] += 1
        return rcm(*args, **kwargs)
    monkeypatch.setattr(solver, "reverse_cuthill_mckee", counted_rcm)
    u = sine_product_field(PI, PI)
    _, rep, dm, _ = newton_solve(generate("cartesian", 3), 3,
                                 p_laplacian(2.0), source=(2 * PI ** 2) * u)
    assert rep.converged and rep.newton_iters == 1
    assert calls["ordered"] == calls["band"] == 0


def _first_factor(family, level, k, condense, law, seed=9):
    """A DofMap whose mode has had its first factorization, with the packs,
    loads, U and residual at which its Newton matrix was assembled, and the
    SuperLU factor."""
    mesh, packs, dm = _linear_setup(family, level, k)
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    U = 0.5 * np.random.default_rng(seed).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    rs, J, _ = _assemble(dm, packs, law, U, r, 1e-8, condense)
    factors = []
    splu = solver.splu

    def captured(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "splu", captured)
        solver.solve_newton_system(dm, condense, J, -rs)
    (lu,) = factors
    return dm, packs, loads, U, J, lu


@pytest.mark.parametrize("family,level,k,condense,banded", [
    ("hexagonal", 2, 1, True, True), ("hexagonal", 3, 1, True, True),
    ("hexagonal", 4, 1, True, True), ("triangular", 4, 1, False, False),
    ("cartesian", 3, 3, False, False), ("cartesian", 4, 3, False, False)])
def test_later_factorizations_follow_the_band_rule(family, level, k,
                                                   condense, banded):
    # the later matrices come in reverse Cuthill-McKee order and go on its
    # band where the band's Cholesky flops, n (b+1)^2, are at most BAND_FILL
    # times the nonzeros of the first SuperLU factor; else SuperLU's order
    # is kept
    dm, _, _, _, J, lu = _first_factor(family, level, k, condense,
                                       p_laplacian(1.75))
    pat = dm.pattern(condense)
    n = J.shape[0]
    at = np.argsort(reverse_cuthill_mckee(J, symmetric_mode=True))
    coo = J.tocoo()
    width = int(np.max(np.abs(at[coo.row] - at[coo.col])))
    assert (n * (width + 1) ** 2 <= solver.BAND_FILL * lu.nnz) == banded
    if banded:
        assert np.array_equal(pat.order,
                              reverse_cuthill_mckee(J, symmetric_mode=True))
        assert pat.band.width == width
    else:
        assert pat.band is None
        assert np.array_equal(pat.order, np.argsort(lu.perm_c))


def _counting(monkeypatch, calls, name):
    original = getattr(solver, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(solver, name, counted)


@pytest.mark.parametrize("family,condense,p", [
    ("hexagonal", True, 3.0), ("triangular", False, 1.75)])
def test_banded_step_matches_superlu(family, condense, p, monkeypatch):
    law = p_laplacian(p)
    dm, packs, loads, U, _, _ = _first_factor(family, 3, 1, condense, law)
    order = dm.pattern(condense).order
    assert dm.pattern(condense).band is not None
    # a later matrix, at another U, in the band's order
    U = U + 0.1 * np.random.default_rng(4).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    rs, J, _ = _assemble(dm, packs, law, U, r, 1e-8, condense)
    calls = Counter()
    dpbtrf = solver.dpbtrf

    def in_place(ab, **kwargs):
        calls["dpbtrf"] += 1
        c, info = dpbtrf(ab, **kwargs)
        assert ab.flags.f_contiguous and np.shares_memory(c, ab)
        return c, info
    monkeypatch.setattr(solver, "dpbtrf", in_place)
    _counting(monkeypatch, calls, "splu")
    x = solver.solve_newton_system(dm, condense, J, -rs)
    assert calls == {"dpbtrf": 1}
    x_ref = np.empty_like(x)
    x_ref[order] = solver.spsolve(J, -rs[order])
    assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


def _rotated_p_laplacian(p: float) -> LerayLionsLaw:
    """|xi|^{p-2} xi + R xi / 2, R the quarter turn: monotone, as
    R xi . xi = 0, with a flux Jacobian that is not symmetric."""
    base = p_laplacian(p)
    R = np.array([[0.0, -0.5], [0.5, 0.0]])
    return LerayLionsLaw(
        p=p, name=f"rotated p-laplacian(p={p})",
        flux=lambda x, xi, eps=0.0: base.flux(x, xi, eps) + xi @ R.T,
        flux_jacobian=lambda x, xi, eps=0.0: (base.flux_jacobian(x, xi, eps)
                                              + R),
        family=_rotated_p_laplacian)


def test_non_symmetric_newton_matrices_on_a_banded_mode_go_to_superlu(
        monkeypatch):
    # each later matrix fails the symmetry test and is factored by SuperLU
    # in the band's order, which is not ordered again
    calls = Counter()
    _counting(monkeypatch, calls, "dpbtrf")
    specs = []
    splu = solver.splu

    def recorded_splu(J, permc_spec, **kwargs):
        specs.append(permc_spec)
        return splu(J, permc_spec=permc_spec, **kwargs)
    monkeypatch.setattr(solver, "splu", recorded_splu)
    steps = []
    solve = solver.solve_newton_system

    def recorded(dm, condense, J, b):
        steps.append((J, b, solve(dm, condense, J, b)))
        return steps[-1][2]
    monkeypatch.setattr(solver, "solve_newton_system", recorded)
    _, rep, dm, _ = newton_solve(generate("hexagonal", 3), 1,
                                 _rotated_p_laplacian(3.0),
                                 source=lambda x: np.ones(len(x)),
                                 config=NewtonConfig(condense=True))
    assert rep.converged and rep.newton_iters == len(steps) > 2
    assert dm.pattern(True).band is not None
    assert calls["dpbtrf"] == 0
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(steps) - 1)
    (J, b, x), *later = steps
    assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
    order = dm.pattern(True).order
    for J, b, x in later:
        assert (np.linalg.norm(J @ x[order] - b[order])
                <= 1e-12 * np.linalg.norm(b))


@pytest.mark.parametrize("fault", ["singular", "nan-entries"])
def test_banded_mode_gives_a_nan_step_on_a_matrix_it_cannot_factor(
        fault, monkeypatch):
    # a zero row and column, which Cholesky and then SuperLU reject, and a
    # NaN entry with its transpose, as a singular condensed cell block
    # leaves, which goes to SuperLU untried
    law = p_laplacian(3.0)
    dm, packs, loads, U, _, _ = _first_factor("hexagonal", 3, 1, True, law)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    rs, J, _ = _assemble(dm, packs, law, U, r, 1e-8, True)
    pat = dm.pattern(True)
    assert pat.band is not None
    # the free unknowns' rows in the band's order
    free = np.setdiff1d(np.arange(J.shape[0]), np.argsort(pat.order)[
        dm.boundary_dofs - dm.cell_span])
    col = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
    i, j = free[:2]
    if fault == "singular":
        hit = (J.indices == i) | (col == i)
    else:
        hit = ((J.indices == i) & (col == j)) | ((J.indices == j) & (col == i))
    assert hit.any()
    J.data[hit] = 0.0 if fault == "singular" else np.nan
    calls = Counter()
    _counting(monkeypatch, calls, "dpbtrf")
    _counting(monkeypatch, calls, "splu")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solver.solve_newton_system(dm, True, J, -rs)
    assert np.all(np.isnan(x))
    assert calls["dpbtrf"] == (fault == "singular") and calls["splu"] == 1


def test_assemble_system_keeps_the_natural_order_after_a_solve(monkeypatch):
    # on the band's reverse Cuthill-McKee order (the default BAND_FILL) and
    # on SuperLU's kept order (BAND_FILL = 0)
    u = sine_product_field(PI, PI)
    law = p_laplacian(1.75)
    mesh = generate("triangular", 3)
    f = manufactured_source(u, law)
    for band_fill in (0, solver.BAND_FILL):
        monkeypatch.setattr(solver, "BAND_FILL", band_fill)
        U, rep, dm, packs = newton_solve(mesh, 1, law, source=f, dirichlet=u)
        pat = dm.pattern(False)
        assert rep.converged and pat.order is not None
        assert (pat.band is None) == (band_fill == 0)
        loads = compute_loads(packs, f)
        r, J = assemble_system(dm, packs, law, U, loads)
        r_ref, J_ref = assemble_system(DofMap(mesh, 1), packs, law, U, loads)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(J.indptr, J_ref.indptr)
        assert np.array_equal(J.indices, J_ref.indices)
        assert np.array_equal(J.data, J_ref.data)


def test_exhausted_line_search_ends_the_stage(monkeypatch):
    # along the negated Newton step of a linear problem the residual grows
    # by 1 + t: every damping down to MIN_STEP fails, 17 trials, and the
    # failed step counts no iteration.  The stage has converged only if its
    # residual was under STALL_TOL already.
    mesh, packs, dm = _linear_setup("cartesian", 2, 1)
    law = p_laplacian(2.0)
    u = sine_product_field(PI, PI)
    f = (2 * PI ** 2) * u
    U_star, rep, _, _ = newton_solve(mesh, 1, law, source=f, packs=packs,
                                     dm=dm)
    assert rep.converged
    solve = solver.solve_newton_system
    monkeypatch.setattr(solver, "solve_newton_system",
                        lambda *args: -solve(*args))
    U, rep, _, _ = newton_solve(mesh, 1, law, source=f, packs=packs, dm=dm)
    (stage,) = rep.stages
    assert stage.damping_events == 17 and stage.iterations == 0
    assert stage.residual_norm > solver.STALL_TOL
    assert not stage.converged and not rep.converged
    assert rep.newton_iters == 0 and np.array_equal(U, np.zeros(dm.ndofs))
    # the same failure with a residual between atol and STALL_TOL
    loads = compute_loads(packs, f)
    v = np.random.default_rng(7).standard_normal(dm.ndofs)
    v[dm.boundary_dofs] = 0.0
    rv = np.linalg.norm(assemble_residual(dm, packs, law, U_star + v, loads))
    U = U_star + 1e-7 / rv * v
    cfg = NewtonConfig()
    stage = solver._newton_stage(dm, packs, law, U, loads, cfg)
    assert cfg.atol < stage.residual_norm <= solver.STALL_TOL
    assert stage.damping_events == 17 and stage.iterations == 0
    assert stage.converged


def test_iteration_cap_ends_the_stage_unconverged():
    # cartesian level 2, k = 1, p = 2 with an unreachable atol: one step
    # lands on the roundoff floor, 8.8e-15.  A cap of one iteration stops
    # the stage there unconverged, although the residual is under
    # STALL_TOL: the cap is not a stall.  With a cap of 5 the second step is
    # at roundoff scale, and the stage converges through the stall test.
    mesh = generate("cartesian", 2)
    u = sine_product_field(PI, PI)
    for cap, converged in ((1, False), (5, True)):
        _, rep, _, _ = newton_solve(mesh, 1, p_laplacian(2.0),
                                    source=(2 * PI ** 2) * u,
                                    config=NewtonConfig(atol=1e-30,
                                                        max_iterations=cap))
        (stage,) = rep.stages
        assert stage.iterations == 1 and stage.damping_events == 0
        assert stage.residual_norm < 1e-13
        assert stage.converged == rep.converged == converged
    # at p = 4 a cap of two iterations stops the p = 3 stage unconverged,
    # and the p = 4 stage never runs
    u = manufactured_solution("trigonometric")
    law = p_laplacian(4.0)
    _, rep, _, _ = newton_solve(generate("triangular", 3), 1, law,
                                source=manufactured_source(u, law),
                                dirichlet=u,
                                config=NewtonConfig(max_iterations=2))
    assert [s.p for s in rep.stages] == [2.0, 3.0]
    assert [s.converged for s in rep.stages] == [True, False]
    assert rep.stages[1].iterations == 2 and not rep.converged
    assert rep.newton_iters == 3


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


def test_condensed_matches_per_element_schur_complements():
    # the batched inverse of a real chunk's cell blocks (hexagonal level 3,
    # k = 1, p = 3) against one solve per element
    mesh, packs, dm = _linear_setup("hexagonal", 3, 1)
    law = p_laplacian(3.0)
    U = np.random.default_rng(9).standard_normal(dm.ndofs)
    chunk = max(solver._sweep(dm, packs).chunks, key=lambda c: len(c.dofs))
    assert len(chunk.pairs) > 1
    Je = np.concatenate([solver._block_jacobian(ops, blk, law, U[blk.dofs],
                                                1e-8)
                         for blk, ops in chunk.pairs])
    nk = dm.n_cell
    rc = np.random.default_rng(10).standard_normal((len(Je), nk))
    S = np.empty((len(Je), Je.shape[1] - nk, Je.shape[1] - nk))
    X, y, fy = solver._condensed(Je, rc, nk, out=S)
    for e, A in enumerate(Je):
        Xe = np.linalg.solve(A[:nk, :nk], A[:nk, nk:])
        ye = np.linalg.solve(A[:nk, :nk], rc[e])
        Se = A[nk:, nk:] - A[nk:, :nk] @ Xe
        for got, want in ((X[e], Xe), (y[e], ye), (S[e], Se),
                          (fy[e], A[nk:, :nk] @ ye)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("J", [
    sp.diags([1.0, 0.0, 1.0], format="csc"),
    sp.csc_matrix(np.array([[1.0, np.nan, 0.0], [np.nan, 2.0, 0.0],
                            [0.0, 0.0, 1.0]])),
], ids=["singular", "nan-entries"])
def test_spsolve_returns_nan_on_a_matrix_it_cannot_factor(J):
    # an exactly singular matrix, and the NaN matrix that a singular
    # condensed cell block leaves: SuperLU fails on both, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solver.spsolve(J, np.ones(3))
    assert x.shape == (3,) and np.all(np.isnan(x))


def test_newton_factor_keeps_fill_low(monkeypatch):
    # the minimum degree ordering of A + A^T holds only with diagonal
    # pivots: with SuperLU's row exchanges the factor holds 80 times the
    # nonzeros of J here, with its default COLAMD ordering 6 times
    mesh, packs, dm = _linear_setup("triangular", 4, 1)
    law = p_laplacian(1.75)
    u = sine_product_field(PI, PI)
    loads = compute_loads(packs, manufactured_source(u, law))
    r, J = assemble_system(dm, packs, law, interpolate_global(dm, packs, u),
                           loads)
    factors = []
    splu = solver.splu

    def captured(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]
    monkeypatch.setattr(solver, "splu", captured)
    x = solver.spsolve(J, -r)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 4 * J.nnz
    assert np.linalg.norm(J @ x + r) <= 1e-12 * np.linalg.norm(r)


def test_nan_step_ends_the_stage_at_once(monkeypatch):
    # a full step through a singular system is NaN: the stage stops on it,
    # with no line search along it
    mesh, packs, dm = _linear_setup("cartesian", 2, 1)
    monkeypatch.setattr(solver, "solve_newton_system",
                        lambda dm, condense, J, b: np.full(len(b), np.nan))
    calls = Counter()
    residual = solver.assemble_residual

    def counted(*args, **kwargs):
        calls["residual"] += 1
        return residual(*args, **kwargs)
    monkeypatch.setattr(solver, "assemble_residual", counted)
    u = sine_product_field(PI, PI)
    U, rep, _, _ = newton_solve(mesh, 1, p_laplacian(2.0),
                                source=(2 * PI ** 2) * u,
                                packs=packs, dm=dm)
    (stage,) = rep.stages
    assert not rep.converged and not stage.converged
    assert np.array_equal(U, np.zeros(dm.ndofs))     # finite, not moved
    assert stage.damping_events == 0 and calls["residual"] <= 2


def test_newton_converges_at_p_1_5_on_locally_refined_k2():
    # 21 iterations to a residual near 4e-11
    u = manufactured_solution("trigonometric")
    law = p_laplacian(1.5)
    _, report, _, _ = newton_solve(generate("locally_refined", 2), 2, law,
                                   source=manufactured_source(u, law),
                                   dirichlet=u)
    assert report.converged


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open defect: at p = 1.5 the Newton stage stalls "
                          "near residual 0.78 on the locally refined family "
                          "at k = 3, exponential case (ROADMAP item 2)")
def test_newton_converges_at_p_1_5_on_locally_refined_k3_exponential():
    u = manufactured_solution("exponential")
    law = p_laplacian(1.5)
    _, report, _, _ = newton_solve(generate("locally_refined", 2), 3, law,
                                   source=manufactured_source(u, law),
                                   dirichlet=u)
    assert report.converged


def _max_rel_gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _check_shared_match_element_builds(mesh, k, tol):
    # every array of the shared operators against a build on the element
    # alone; the nodes of the shape's first member are moved onto it
    packs = build_packs(mesh, k)
    assert len({id(ops) for ops in packs}) == shape_keys(mesh).max() + 1
    for ei, ops in enumerate(packs):
        ref = build_local_operators(mesh, ei, k)
        i = np.searchsorted(ops.elements, ei)
        assert ops.elements[i] == ei
        # built on its first member: the cell rule is centred on it
        w = ops.rule.weights
        assert np.allclose(w @ ops.rule.points / w.sum(),
                           mesh.elements[ops.elements[0]].centroid,
                           rtol=0.0, atol=1e-12)
        assert (ops.k, ops.n_cell, ops.ndof) == (ref.k, ref.n_cell, ref.ndof)
        pairs = [(ops.Gc, ref.Gc), (ops.P, ref.P), (ops.grad_q, ref.grad_q),
                 (ops.pgrad_q, ref.pgrad_q), (ops.pval_q, ref.pval_q),
                 (ops.cellval_q, ref.cellval_q),
                 (ops.cell_nodes[i], ref.rule.points),
                 (ops.rule.weights, ref.rule.weights),
                 (ops.face_points + ops.shifts[i], ref.face_points),
                 (ops.face_weights, ref.face_weights),
                 (ops.face_lengths, ref.face_lengths),
                 (ops.cell_pairs, ref.cell_pairs)]
        for f in range(len(ref.D)):
            pairs += [(ops.D[f], ref.D[f]), (ops.dval_q[f], ref.dval_q[f]),
                      (ops.faceval_q[f], ref.faceval_q[f]),
                      (ops.face_mass[f], ref.face_mass[f]),
                      (ops.face_pairs[f], ref.face_pairs[f])]
        for b, rb in ((ops.basis_k, ref.basis_k), (ops.basis_k1, ref.basis_k1)):
            assert np.array_equal(b.exponents, rb.exponents)
            pairs += [(b.transform, rb.transform), (b.mass, rb.mass),
                      (b.moments, rb.moments)]
        for a, b in pairs:
            assert a.shape == b.shape
            assert _max_rel_gap(a, b) <= tol


# two separate builds of one clipped boundary cell of the hexagonal family
# already differ by about 1.5e-12 relative (grad_q, level 4)
SHARED_TOL = {"hexagonal": 1e-11}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_shared_operators_match_element_builds(family, k):
    _check_shared_match_element_builds(generate(family, 3), k,
                                       SHARED_TOL.get(family, 1e-12))


@pytest.mark.parametrize("family", FAMILIES)
def test_shared_operators_match_element_builds_read_back(family):
    mesh = read_mesh(write_mesh(generate(family, 2)))
    _check_shared_match_element_builds(mesh, 2, SHARED_TOL.get(family, 1e-12))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_shared_operators_match_element_builds_on_distinct_shapes(k):
    # sixteen quadrilaterals of sixteen shapes, all built together
    mesh = _jittered_mesh()
    assert shape_keys(mesh).max() + 1 == len(mesh.elements) == 16
    _check_shared_match_element_builds(mesh, k, 1e-12)


def test_shared_arrays_are_read_only():
    _, packs, _ = _linear_setup("triangular", 2, 1)
    sibling = packs[1]
    assert sum(ops is sibling for ops in packs) > 1
    for a in (sibling.grad_q, sibling.dval_q[0], sibling.P,
              sibling.cellval_q, sibling.rule.weights, sibling.elements,
              sibling.shifts, sibling.face_points, sibling.face_weights,
              sibling.face_lengths, sibling.face_mass, sibling.Gc,
              sibling.cell_pairs, sibling.face_pairs, sibling.D,
              sibling.pgrad_q, sibling.pval_q, sibling.cell_nodes,
              sibling.rule.points, sibling.basis_k.mass,
              sibling.basis_k.moments, sibling.basis_k1.transform):
        with pytest.raises(ValueError):
            a[0] += 1.0
    # and the operators are whole once built: no field can be reassigned
    for name in ("mesh", "elements", "shifts", "cell_nodes", "Gc", "rule"):
        with pytest.raises(FrozenInstanceError):
            setattr(sibling, name, getattr(sibling, name))


@pytest.mark.parametrize("build, name", [
    (lambda m: DofMap(m, -1), "k"),
    (lambda m: DofMap(m, 1.5), "k"),
    (lambda m: build_packs(m, -1), "k"),
    (lambda m: build_packs(m, 1.5), "k"),
    (lambda m: build_packs(m, 1, -3), "boost"),
    (lambda m: build_local_operators(m, 0, 2, -1), "boost"),
])
def test_bad_degree_or_boost_is_rejected_up_front(build, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        build(generate("triangular", 2))


def test_blocks_reject_operators_that_are_not_shared():
    mesh, packs, dm = _linear_setup("triangular", 2, 1)
    law = p_laplacian(3.0)
    loads = compute_loads(packs, None)
    U = np.random.default_rng(6).standard_normal(dm.ndofs)
    one_by_one = [build_local_operators(mesh, ei, 1)
                  for ei in range(len(mesh.elements))]
    other = DofMap(generate("cartesian", 2), 1)
    # packs of a finer mesh of the same family
    finer = build_packs(generate("cartesian", 4), 1)
    u = sine_product_field(PI, PI)
    # the same mesh at another k: only the local size tells them apart
    for pk, d in ((one_by_one, dm), (packs, other), (finer, other),
                  (build_packs(mesh, 2), dm)):
        with pytest.raises(ValueError, match="do not share one operator set"):
            assemble_residual(d, pk, law, U[:d.ndofs], loads)
        with pytest.raises(ValueError, match="do not share one operator set"):
            _assemble(d, pk, law, U[:d.ndofs], U[:d.ndofs], 0.0, False)
        with pytest.raises(ValueError, match="do not share one operator set"):
            compute_errors(d, pk, law, U[:d.ndofs], u)


def _counted_array_equal(monkeypatch):
    """Counter of np.array_equal calls, the block check of shared_operators."""
    calls = Counter()
    array_equal = np.array_equal

    def counted(*args, **kwargs):
        calls["array_equal"] += 1
        return array_equal(*args, **kwargs)
    monkeypatch.setattr(np, "array_equal", counted)
    return calls


def test_sweeps_check_each_block_once(monkeypatch):
    # the first sweep with an operator set checks each block; later sweeps
    # test only that each block's first element holds the checked object,
    # and neither check nor join anything again
    mesh, packs, dm = _linear_setup("hexagonal", 3, 1)
    law = p_laplacian(3.0)
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    U = np.random.default_rng(2).standard_normal(dm.ndofs)
    calls = _counted_array_equal(monkeypatch)
    r = assemble_residual(dm, packs, law, U, loads, 1e-8)
    assert calls["array_equal"] == len(dm.blocks) > len(dm.chunks) > 1

    def no_sweep(*args):
        raise AssertionError("a sweep checked or joined the blocks again")
    with monkeypatch.context() as m:
        m.setattr(solver, "Sweep", no_sweep)
        assemble_residual(dm, list(packs), p_laplacian(1.75), U, loads)
        _assemble(dm, packs, law, U, r, 1e-8, False)
        _assemble(dm, packs, law, U, r, 1e-8, True)
        interpolate_global(dm, packs, exp_field(1.0, -0.5))
        energy(dm, packs, law, U, loads)
        compute_errors(dm, packs, law, U, sine_product_field(PI, PI))
    assert calls["array_equal"] == len(dm.blocks)


def test_sweep_state_rejects_other_operators_after_a_good_sweep(monkeypatch):
    # operators of another mesh object (the same elements, built again), of
    # another k, or built element by element for one block, each fail the
    # full check; the checked packs then need none
    mesh, packs, dm = _linear_setup("hexagonal", 3, 1)
    law = p_laplacian(3.0)
    loads = compute_loads(packs, None)
    U = np.random.default_rng(6).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads)
    blk = max(dm.blocks, key=lambda b: len(b.elements))
    one_by_one = list(packs)
    one_by_one[blk.elements[0]] = build_local_operators(mesh, blk.elements[0],
                                                        1)
    calls = _counted_array_equal(monkeypatch)
    for pk in (build_packs(generate("hexagonal", 3), 1), build_packs(mesh, 2),
               one_by_one):
        with pytest.raises(ValueError, match="do not share one operator set"):
            assemble_residual(dm, pk, law, U, loads)
        with pytest.raises(ValueError, match="do not share one operator set"):
            _assemble(dm, pk, law, U, r, 0.0, False)
    assert calls["array_equal"] > 0
    calls.clear()
    again = assemble_residual(dm, packs, law, U, loads)
    assert calls["array_equal"] == 0
    assert np.array_equal(again, r)


@pytest.mark.parametrize("family,level", [*MIXED_SHAPES, ("triangular", 3)])
def test_reused_dofmap_sweeps_match_a_fresh_one_bitwise(family, level):
    # a DofMap that has swept at other iterates and another p gives the
    # residual and full Newton matrix of a fresh one, bit for bit
    mesh, packs, dm = _linear_setup(family, level, 1)
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    rng = np.random.default_rng(8)
    for p in (3.0, 1.75):
        U = rng.standard_normal(dm.ndofs)
        r = assemble_residual(dm, packs, p_laplacian(p), U, loads, 1e-8)
        _assemble(dm, packs, p_laplacian(p), U, r, 1e-8, False)
    law = p_laplacian(1.5)
    U = rng.standard_normal(dm.ndofs)
    got = [assemble_residual(d, packs, law, U, loads, 1e-8)
           for d in (dm, DofMap(mesh, 1))]
    assert np.array_equal(got[0], got[1])
    J = [_assemble(d, packs, law, U, got[0], 1e-8, False)[1]
         for d in (dm, DofMap(mesh, 1))]
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(J[0], name), getattr(J[1], name))


def _count_builds(monkeypatch):
    """The members of each stacked build that build_packs makes, one id
    list per shape."""
    calls = []
    build = solver.build_stacked_operators

    def counted(mesh, members, k, boost=0):
        calls.append([list(m) for m in members])
        return build(mesh, members, k, boost)
    monkeypatch.setattr(solver, "build_stacked_operators", counted)
    return calls


def _check_one_build_per_shape(mesh, calls):
    # each shape is built once, with all of its members and on the first,
    # in stacks of one vertex count
    groups = [list(ids) for ids in shape_groups(mesh.shape_labels)]
    assert sorted(m for c in calls for m in c) == groups
    nv = np.diff(mesh.cell_ptr)
    for c in calls:
        assert len({nv[m[0]] for m in c}) == 1 and len(c) <= STACK_SHAPES


def test_build_packs_builds_each_shape_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    mesh = generate("triangular", 4)
    packs = build_packs(mesh, 1)
    assert len(calls) == 1 and sum(map(len, calls)) == 4
    assert len(packs) == len(mesh.elements) == 512
    assert len({id(ops) for ops in packs}) == 4
    _check_one_build_per_shape(mesh, calls)
    # 17 shapes of 3, 4 and 6 vertices: one stack per count
    calls.clear()
    mesh = generate("hexagonal", 4)
    packs = build_packs(mesh, 1)
    assert len(calls) == 3 and len({id(ops) for ops in packs}) == 17
    _check_one_build_per_shape(mesh, calls)


def test_build_packs_builds_one_cell_rule_per_stack(monkeypatch):
    # a stack's bases take their Gram matrices on the operators' own rule:
    # one `cell_rules` call per stack, whose fan search is the second one
    # besides the search that sorts the shapes by kind of fan
    calls = Counter()
    for name, modules in (("fan_apices", (quadrature, solver)),
                          ("cell_rules", (quadrature, hho_local, polybasis))):
        def counted(*args, fn=getattr(quadrature, name), name=name):
            calls[name] += 1
            return fn(*args)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    builds = _count_builds(monkeypatch)
    build_packs(generate("hexagonal", 4), 1)
    assert len(builds) == 3
    assert calls == {"cell_rules": 3, "fan_apices": 6}


def test_build_packs_caps_the_stack(monkeypatch):
    calls = _count_builds(monkeypatch)
    mesh = _jittered_mesh(n=9)
    assert STACK_SHAPES < len(mesh.elements) == 81 <= 2 * STACK_SHAPES
    packs = build_packs(mesh, 0)
    assert len(calls) == 2 and len({id(ops) for ops in packs}) == 81
    _check_one_build_per_shape(mesh, calls)


def test_stacked_build_rejects_mixed_or_deep_stacks():
    hexa = generate("hexagonal", 2)
    nv = np.diff(hexa.cell_ptr)
    mixed = [int(np.argmax(nv == 3)), int(np.argmax(nv == 6))]
    deep = _jittered_mesh(n=9)
    for mesh, ids in ((hexa, mixed), (deep, range(STACK_SHAPES + 1))):
        with pytest.raises(ValueError, match="one vertex count"):
            build_stacked_operators(mesh, [[e] for e in ids], 1)
    with pytest.raises(ValueError, match="fanned alike"):
        build_stacked_operators(_u_mesh(), [[0], [1]], 1)
    # a shape's members with another shape label among them
    tri = generate("triangular", 2)
    groups = shape_groups(tri.shape_labels)
    with pytest.raises(ValueError, match="other shape labels"):
        build_stacked_operators(
            tri, [np.sort(np.r_[groups[0], groups[1][:1]])], 1)


def _jittered_mesh(n=4, seed=11):
    """Quadrilaterals on a grid whose interior vertices are moved at
    random: no two elements have one shape."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    inner = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    verts[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 2)) / n
    cells = [[j * (n + 1) + i, j * (n + 1) + i + 1,
              (j + 1) * (n + 1) + i + 1, (j + 1) * (n + 1) + i]
             for j in range(n) for i in range(n)]
    return from_polygons(verts, cells)


def _u_mesh():
    """The unit square as a U-shaped cell that no vertex sees whole (its
    cell fan is from the centroid) and the notch above its base, with four
    more vertices on the boundary: two cells of eight vertices, the
    second fanned from a vertex."""
    verts = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1.5), (1, 1.5), (1, 3),
             (0, 3), (1.75, 3), (1.5, 3), (1.25, 3), (1.1, 3)]
    cells = [[0, 1, 2, 3, 4, 5, 6, 7], [5, 4, 3, 8, 9, 10, 11, 6]]
    return from_polygons(np.array(verts) / 3.0, cells)


@pytest.mark.parametrize("k", [0, 2])
def test_shared_operators_match_element_builds_on_a_non_convex_cell(k):
    # the two cells differ in their kind of fan, so they build in two stacks
    mesh = _u_mesh()
    _check_shared_match_element_builds(mesh, k, 1e-12)


def test_unique_shapes_build_every_element(monkeypatch):
    calls = _count_builds(monkeypatch)
    mesh = _jittered_mesh()
    packs = build_packs(mesh, 1)
    assert calls == [[[e] for e in range(len(mesh.elements))]]
    dm = DofMap(mesh, 1)
    assert len(dm.blocks) == len(mesh.elements)
    law = p_laplacian(1.75)
    loads = compute_loads(packs, exp_field(1.0, -0.5))
    U = 0.5 * np.random.default_rng(2).standard_normal(dm.ndofs)
    r = assemble_residual(dm, packs, law, U, loads, eps=1e-8)
    r_ref = _residual_by_element(dm, packs, law, U, loads, 1e-8)
    assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.abs(r_ref).max()
    # an affine field is the exact discrete solution on any mesh
    g = affine_field(0.25, 1.0, -2.0)
    U, rep, dm, packs = newton_solve(mesh, 1, p_laplacian(3.0), dirichlet=g,
                                     packs=packs, dm=dm)
    assert rep.converged
    assert np.max(np.abs(U - interpolate_global(dm, packs, g))) <= 1e-10


def test_dofmap_and_packs_compute_the_shape_keys_once(monkeypatch):
    calls = Counter()
    keys = mesh_module.shape_keys

    def counted(mesh):
        calls[id(mesh)] += 1
        return keys(mesh)
    monkeypatch.setattr(mesh_module, "shape_keys", counted)
    mesh = generate("hexagonal", 3)
    DofMap(mesh, 1)
    build_packs(mesh, 1)
    DofMap(mesh, 2)
    assert calls == {id(mesh): 1}


def _check_interpolate_matches_l2_project(mesh, k):
    # every cell and every face, seen from each of its owners, against the
    # one-element projection
    packs = build_packs(mesh, k)
    dm = DofMap(mesh, k)
    u = exp_field(0.5, 1.0)
    U = interpolate_global(dm, packs, u)
    tol = 1e-13 * np.abs(U).max()
    for ei in range(len(mesh.elements)):
        ref = build_local_operators(mesh, ei, k)
        want = l2_project(ref.basis_k, u, ref.rule)
        assert np.max(np.abs(U[dm.cell_dofs(ei)] - want)) <= tol
        for fid in mesh.elements[ei].faces:
            want = l2_project(face_basis(mesh, fid, k), u,
                              face_rule(mesh, fid, ref.rule.exactness))
            assert np.max(np.abs(U[dm.face_dofs(fid)] - want)) <= tol
    return dm


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_interpolate_global_matches_l2_project(family, k):
    _check_interpolate_matches_l2_project(generate(family, 2), k)


def test_interpolate_global_on_a_block_that_owns_no_face():
    # the centre cell of a 3 x 3 grid, numbered last, is a face's first
    # owner nowhere; with unique shapes it is a block of its own
    m = _jittered_mesh(n=3)
    cells = [el.vertices for el in m.elements]
    cells.append(cells.pop(4))
    dm = _check_interpolate_matches_l2_project(
        from_polygons(m.vertices, cells), 1)
    assert any(not b.owned.any() for b in dm.blocks)
