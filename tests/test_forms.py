import numpy as np
import pytest

import vempb as vp
import vempb.forms as forms
from vempb.solver import mesh_quadrature
from vempb.solver import Workspace

from _oracles import (
    box_levelset_rowwise,
    build_polymesh,
    cell_projector_blocks,
    cell_vertex_ids,
    coulomb_gradient_rowwise,
    coulomb_potential_rowwise,
    manufactured_linear,
    oriented_tet_faces,
    p1_tet_stiffness,
)


def random_tet_mesh(rng):
    while True:
        verts = rng.random((4, 3))
        vol = np.linalg.det(verts[1:] - verts[0]) / 6.0
        if abs(vol) > 5e-3:
            break
    loops = oriented_tet_faces(list(range(4)), verts)
    return build_polymesh(verts, [loops])


def solvent_physics():
    """Uniform solvent: the screening coefficient is active everywhere."""
    ls = lambda p: np.ones(len(p))
    return vp.PhysicsConfig(eps_m=2.0, eps_s=80.0, kappa=1 / (20 * np.sqrt(2)), charges=[], levelset=ls)


# ---------------------------------------------------------------------------
# physics evaluation


def test_coulomb_point_values():
    phys = vp.PhysicsConfig(charges=[(1.0, (0.0, 0.0, 0.0))])
    assert phys.coulomb_potential(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx(
        1.0 / (2.0 * np.sqrt(3.0)), rel=1e-14
    )
    g = phys.coulomb_gradient(np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.allclose(g, [-0.5, 0.0, 0.0], atol=1e-15)


def test_coulomb_superposition():
    ls = vp.box_levelset()
    one = vp.PhysicsConfig(charges=[(1.0, (0.0, 0.0, 0.0))], levelset=ls)
    two = vp.PhysicsConfig(charges=[(0.7, (0.0, 0.0, 0.0))], levelset=ls)
    both = vp.PhysicsConfig(charges=[(1.0, (0.0, 0.0, 0.0)), (0.7, (0.0, 0.0, 0.0))], levelset=ls)
    pts = np.random.default_rng(0).random((6, 3)) + 1.0
    assert np.allclose(
        both.coulomb_potential(pts),
        one.coulomb_potential(pts) + two.coulomb_potential(pts),
        rtol=1e-14,
    )


@pytest.mark.parametrize("order", ["C", "F"])
def test_fields_on_columns_equal_rowwise_oracles(order):
    """Column-wise level set and Coulomb fields are bit-equal to the row-wise forms."""
    rng = np.random.default_rng(12)
    pts = np.asarray(rng.random((2000, 3)) * 0.9 + 0.05, order=order)
    pts[:50] = 0.5 - 0.5 * pts[:50]       # a few points in the molecular box
    phys = vp.PhysicsConfig(
        eps_m=3.0, charges=[(5.0, (0.25, 0.25, 0.25)), (-1.5, (0.1, 0.4, 0.2))]
    )
    assert np.array_equal(vp.box_levelset(0.4)(pts), box_levelset_rowwise(pts, 0.4))
    assert np.array_equal(phys.coulomb_potential(pts), coulomb_potential_rowwise(phys, pts))
    assert np.array_equal(phys.coulomb_gradient(pts), coulomb_gradient_rowwise(phys, pts))


def test_coulomb_singularity_guard():
    phys = vp.PhysicsConfig()
    with pytest.raises(forms.SingularityError):
        phys.coulomb_potential(np.array([[0.0, 0.0, 0.0]]))
    # both fields, on either layout, with the charge among other points
    phys = vp.PhysicsConfig(charges=[(1.0, (0.2, 0.3, 0.1))])
    for order in "CF":
        pts = np.array([[0.6, 0.6, 0.6], [0.2, 0.3, 0.1]], order=order)
        for field in (phys.coulomb_potential, phys.coulomb_gradient):
            with pytest.raises(forms.SingularityError):
                field(pts)


def test_dielectric_branches():
    phys = vp.PhysicsConfig()
    inside = np.array([[0.25, 0.25, 0.25]])
    outside = np.array([[0.75, 0.75, 0.75]])
    on_surface = np.array([[0.5, 0.25, 0.25]])
    assert phys.epsilon(inside)[0] == 2.0
    assert phys.kappa_bar_sq(inside)[0] == 0.0
    assert phys.epsilon(outside)[0] == 80.0
    assert phys.kappa_bar_sq(outside)[0] == pytest.approx(0.1, rel=1e-14)
    # points on the surface belong to the molecular branch
    assert phys.epsilon(on_surface)[0] == 2.0
    assert phys.kappa_bar_sq(on_surface)[0] == 0.0


def test_charge_outside_molecular_region_rejected():
    with pytest.raises(ValueError, match="molecular"):
        vp.PhysicsConfig(charges=[(1.0, (0.9, 0.9, 0.9))])


def test_positive_constants_required():
    with pytest.raises(ValueError):
        vp.PhysicsConfig(eps_m=0.0)


# ---------------------------------------------------------------------------
# stiffness


def test_single_tet_matches_linear_fem():
    rng = np.random.default_rng(42)
    ls = lambda p: -np.ones(len(p))
    phys = vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)
    for _ in range(20):
        m = random_tet_mesh(rng)
        # one cell whose vertices are 0..3: the global matrix is the element matrix
        K = Workspace(m).stiffness(phys).toarray()
        K_ref = p1_tet_stiffness(m.vertices)
        assert np.abs(K - K_ref).max() <= 1e-12


def _meshes(random_cells):
    """The distinct meshes of the random-cell pool, in pool order."""
    return list({id(m): m for m, _ in random_cells}.values())


def test_stiffness_row_sums_vanish(random_cells):
    phys = vp.PhysicsConfig()
    for m in _meshes(random_cells):
        K = Workspace(m).stiffness(phys).toarray()
        assert np.abs(K.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(K).max())


def test_consistency_rank_three_on_cube():
    ls = lambda p: -np.ones(len(p))
    phys = vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)
    m = vp.generate_cube_mesh(1)
    pi0_grad = cell_projector_blocks(vp.build_projectors(m), 0).pi0_grad   # the one cell
    consistency = m.cell_volume[0] * pi0_grad.T @ pi0_grad
    rank = np.linalg.matrix_rank(consistency, tol=1e-12)
    assert rank == 3


def test_k_consistency_identities(random_cells):
    """Stabilization vanishes on linear DoFs; consistency term integrates eps exactly."""
    rng = np.random.default_rng(1)
    phys = vp.PhysicsConfig()
    for m in _meshes(random_cells):
        ws = Workspace(m)
        K = ws.stiffness(phys)
        p_dofs = rng.normal() + m.vertices @ rng.normal(size=3)
        q_dofs = rng.normal() + m.vertices @ (q_grad := rng.normal(size=3))
        # the stabilized part contributes nothing between two linears
        eps_int = np.add.reduceat(ws.weights * phys.epsilon(ws.points), ws.cell_ptr[:-1])
        p_grad = ws.projectors.gradients(p_dofs)
        expect = eps_int @ (p_grad @ q_grad)
        assert K @ q_dofs @ p_dofs == pytest.approx(expect, rel=1e-12, abs=1e-13)
        # and the remainder annihilates the linear DoF vector
        for ci in range(m.n_cells):
            blocks = cell_projector_blocks(ws.projectors, ci)
            remainder = blocks.stab_q @ p_dofs[blocks.vertex_ids]
            assert np.abs(remainder).max() <= 1e-12


def test_stiffness_psd_with_constant_kernel(random_cells):
    phys = vp.PhysicsConfig()
    for m in _meshes(random_cells):
        K = Workspace(m).stiffness(phys).toarray()
        vals = np.linalg.eigvalsh(K)
        scale = np.abs(vals).max()
        assert vals[0] >= -1e-12 * scale
        # kernel is exactly the constants
        assert vals[0] <= 1e-12 * scale
        assert vals[1] > 1e-8 * scale


# ---------------------------------------------------------------------------
# nonlinear term


def test_molecular_cell_contributes_nothing():
    phys = vp.PhysicsConfig()
    m = vp.generate_cube_mesh(4)
    ci = 0  # cell inside the molecular box; so is every cell sharing one of its vertices
    ids = cell_vertex_ids(m, ci)
    u = np.random.default_rng(0).normal(size=m.n_vertices)
    r, J = Workspace(m).nonlinear(phys, u)
    assert np.all(r[ids] == 0.0)
    assert np.all(J[ids].toarray() == 0.0)


def test_zero_state_no_charges_gives_projected_mass_jacobian():
    phys = solvent_physics()
    m = vp.generate_voronoi_mesh(8, 3)
    ws = Workspace(m)
    r, J = ws.nonlinear(phys, np.zeros(m.n_vertices))
    assert np.abs(r).max() == 0.0
    mass = np.zeros((m.n_vertices, m.n_vertices))
    for ci in range(m.n_cells):
        ids, pi_nabla = cell_projector_blocks(ws.projectors, ci)[:2]
        nodes = slice(ws.cell_ptr[ci], ws.cell_ptr[ci + 1])
        V = np.column_stack([np.ones(nodes.stop - nodes.start), ws.xi[nodes]]) @ pi_nabla
        mass[np.ix_(ids, ids)] += V.T @ (ws.weights[nodes, None] * V)
    assert np.allclose(J.toarray(), phys.kappa_bar_sq_solvent * mass, rtol=1e-13, atol=1e-16)


def test_jacobian_matches_finite_differences(random_cells):
    rng = np.random.default_rng(5)
    phys = vp.PhysicsConfig()
    step = 1e-6
    for m in _meshes(random_cells):
        ws = Workspace(m)
        u = rng.normal(size=m.n_vertices) * 0.5
        _, J = ws.nonlinear(phys, u)
        J = J.toarray()
        if np.abs(J).max() == 0.0:
            continue
        J_fd = np.zeros_like(J)
        for k in range(m.n_vertices):
            up = u.copy(); up[k] += step
            dn = u.copy(); dn[k] -= step
            rp, _ = ws.nonlinear(phys, up, with_jacobian=False)
            rm, _ = ws.nonlinear(phys, dn, with_jacobian=False)
            J_fd[:, k] = (rp - rm) / (2 * step)
        assert np.abs(J - J_fd).max() <= 1e-6 * np.abs(J).max()


def test_jacobian_symmetry(random_cells):
    rng = np.random.default_rng(6)
    phys = vp.PhysicsConfig()
    for m in _meshes(random_cells):
        u = rng.normal(size=m.n_vertices)
        J = Workspace(m).nonlinear(phys, u)[1].toarray()
        assert np.abs(J - J.T).max() <= 1e-13 * max(1.0, np.abs(J).max())


def test_overflow_guard():
    phys = solvent_physics()
    m = vp.generate_cube_mesh(1)
    u = np.full(m.n_vertices, 800.0)
    with pytest.raises(forms.NonlinearOverflow):
        Workspace(m).nonlinear(phys, u)


def test_monotonicity_sample():
    phys = solvent_physics()
    m = vp.generate_voronoi_mesh(20, 5)
    rng = np.random.default_rng(7)
    k2 = phys.kappa_bar_sq_solvent
    points, weights, _, _, cell_ptr, *_ = mesh_quadrature(m)
    for _ in range(20):
        ci = int(rng.integers(m.n_cells))
        au, bu = rng.normal(size=4), rng.normal(size=4)
        u = lambda p: au[0] + p @ au[1:]
        v = lambda p: bu[0] + p @ bu[1:]
        nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
        pts, w = points[nodes], weights[nodes]
        G = phys.coulomb_potential(pts) if phys.charges else 0.0
        Bu = k2 * np.sinh(u(pts) + G)
        Bv = k2 * np.sinh(v(pts) + G)
        duv = u(pts) - v(pts)
        lhs = w @ ((Bu - Bv) * duv)
        rhs = k2 * (w @ duv**2)
        assert lhs - rhs >= -1e-12


# ---------------------------------------------------------------------------
# loads


def test_regularized_load_zero_in_molecular_region():
    phys = vp.PhysicsConfig()
    m = vp.generate_cube_mesh(4)
    ids = cell_vertex_ids(m, 0)  # every cell sharing a vertex with cell 0 is molecular
    load = vp.regularized_load()
    out = Workspace(m).load_vector(phys, load)
    assert np.all(out[ids] == 0.0)


def test_manufactured_zero_solution_no_charges():
    ls = vp.box_levelset()
    phys = vp.PhysicsConfig(charges=[], levelset=ls)
    spec = manufactured_linear((0.0, 0.0, 0.0, 0.0))
    m = vp.generate_voronoi_mesh(6, 9)
    out = Workspace(m).load_vector(phys, spec)
    assert np.abs(out).max() <= 1e-15


def test_manufactured_linear_load_consistency_identity():
    """With eps = 1 and no screening, the load of u=x equals K applied to x DoFs."""
    ls = lambda p: -np.ones(len(p))
    phys = vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)
    spec = manufactured_linear((0.0, 1.0, 0.0, 0.0))
    m = vp.generate_voronoi_mesh(10, 14)
    ws = Workspace(m)
    out = ws.load_vector(phys, spec)
    expect = np.zeros(m.n_vertices)
    for ci in range(m.n_cells):
        blocks = cell_projector_blocks(ws.projectors, ci)
        expect[blocks.vertex_ids] += m.cell_volume[ci] * blocks.pi0_grad.T @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, expect, atol=1e-13)
    K = ws.stiffness(phys)
    assert np.allclose(out, K @ m.vertices[:, 0], atol=1e-12)


def test_load_spec_validation():
    with pytest.raises(ValueError):
        vp.LoadSpec(mode="bogus")
    with pytest.raises(ValueError):
        vp.LoadSpec(mode="manufactured")
