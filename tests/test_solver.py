import numpy as np
import pytest
import scipy.sparse as sp

import vempb as vp
import vempb.forms as forms
from vempb.polybasis import cell_quadrature
from vempb.projectors import FaceProjectorTable
from vempb.solver import SolverError, SparseSystem, Workspace, cg_solve, constrain_matrix

from _oracles import kkt_solve
from test_mesh import permuted_copy


def laplace_physics():
    ls = vp.LevelSet(fn=lambda p: -np.ones(len(p)), convex=True)
    return vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)


# ---------------------------------------------------------------------------
# assembly


def test_constants_in_kernel():
    A = vp.assemble_linear(vp.generate_cube_mesh(2), vp.PhysicsConfig())
    assert np.abs(A @ np.ones(A.shape[0])).max() <= 1e-12


def test_single_cell_assembly_equals_local_matrix():
    m = vp.generate_cube_mesh(1)
    phys = vp.PhysicsConfig()
    proj = vp.cell_projectors(m, 0)
    K = forms.local_stiffness(m, 0, proj, phys, cell_quadrature(m, 0))
    A = vp.assemble_linear(m, phys)
    assert np.abs(A.toarray() - K).max() <= 1e-13


def _dense_scatter_stiffness(m, phys, projs):
    dense = np.zeros((m.n_vertices, m.n_vertices))
    for ci in range(m.n_cells):
        K = forms.local_stiffness(m, ci, projs[ci], phys, cell_quadrature(m, ci))
        ids = projs[ci].vertex_ids
        dense[np.ix_(ids, ids)] += K
    return dense


def test_assembly_matches_dense_scatter_oracle():
    m = vp.generate_cube_mesh(2)
    phys = vp.PhysicsConfig()
    projs = vp.build_projectors(m)
    A = vp.assemble_linear(m, phys, projs)
    dense = _dense_scatter_stiffness(m, phys, projs)
    assert np.abs(A.toarray() - dense).max() <= 1e-13


def test_workspace_stiffness_matches_per_cell_scatter_cube4():
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig()
    table = FaceProjectorTable(m)
    per_cell = [vp.cell_projectors(m, ci, table) for ci in range(m.n_cells)]
    A = Workspace(m).stiffness(phys)
    assert np.abs(A.toarray() - _dense_scatter_stiffness(m, phys, per_cell)).max() <= 1e-13


def test_global_symmetry():
    m = vp.generate_voronoi_mesh(40, 3)
    phys = vp.PhysicsConfig()
    ws = Workspace(m)
    A = ws.stiffness(phys)
    assert abs(A - A.T).max() <= 1e-13
    u = np.random.default_rng(0).normal(size=m.n_vertices) * 0.2
    J = vp.assemble_jacobian(m, phys, u, A=A, workspace=ws)
    assert abs(J - J.T).max() <= 1e-13


def test_assembly_permutation_invariant():
    m = vp.generate_voronoi_mesh(30, 10)
    phys = vp.PhysicsConfig()
    A = vp.assemble_linear(m, phys)
    perm = np.random.default_rng(1).permutation(m.n_cells)
    m2 = permuted_copy(m, perm)
    A2 = vp.assemble_linear(m2, phys)
    # 1e-13 relative to the entry scale (entries reach ~eps_s here)
    assert abs(A - A2).max() <= 1e-13 * max(1.0, abs(A).max())


def test_residual_linear_case_reduces_to_stiffness_action():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = vp.manufactured_linear((0.1, 0.4, -0.2, 0.9))
    ws = Workspace(m)
    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    u = np.random.default_rng(2).normal(size=m.n_vertices)
    r = vp.assemble_residual(m, phys, load, u, A=A, F=F, workspace=ws)
    expect = A @ u - F
    expect[m.boundary_vertex] = 0.0
    assert np.allclose(r, expect, atol=1e-14)


def test_global_jacobian_matches_finite_difference_residual():
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    ws = Workspace(m)
    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    rng = np.random.default_rng(3)
    u = rng.normal(size=m.n_vertices) * 0.3
    J = vp.assemble_jacobian(m, phys, u, A=A, workspace=ws).toarray()
    free = ~m.boundary_vertex
    step = 1e-6
    J_fd = np.zeros_like(J)
    for k in range(m.n_vertices):
        up = u.copy(); up[k] += step
        dn = u.copy(); dn[k] -= step
        rp = vp.assemble_residual(m, phys, load, up, A=A, F=F, workspace=ws)
        rm = vp.assemble_residual(m, phys, load, dn, A=A, F=F, workspace=ws)
        J_fd[:, k] = (rp - rm) / (2 * step)
    # compare on rows of free DoFs (constrained rows of the residual are zeroed)
    diff = np.abs(J[free] - J_fd[free]).max()
    assert diff <= 1e-6 * np.abs(J[free]).max()


# ---------------------------------------------------------------------------
# Dirichlet constraints


def test_all_boundary_mesh_gives_identity_system():
    m = vp.generate_cube_mesh(1)
    phys = vp.PhysicsConfig()
    A = vp.assemble_linear(m, phys)
    sys0 = SparseSystem(A, np.zeros(8), m.boundary_vertex, np.zeros(8))
    con = vp.apply_dirichlet(sys0)
    assert np.abs(con.matrix.toarray() - np.eye(8)).max() <= 1e-15
    assert np.all(con.rhs == 0.0)


def test_constrained_solution_has_exact_boundary_values():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = vp.manufactured_linear((0.0, 1.0, 0.0, 0.0))
    u, _ = vp.newton_solve(m, phys, load)
    g = load.u_exact(m.vertices[m.boundary_vertex])
    assert np.array_equal(u[m.boundary_vertex], g)


def test_constrained_energy_matches_kkt_oracle():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = vp.manufactured_linear((0.3, 0.5, -1.0, 0.25))
    ws = Workspace(m)
    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    g = np.zeros(m.n_vertices)
    g[m.boundary_vertex] = load.boundary_values(m.vertices[m.boundary_vertex])
    con = vp.apply_dirichlet(SparseSystem(A, F, m.boundary_vertex, g))
    u, _ = cg_solve(con.matrix, con.rhs, tol=1e-14)
    u_ref = kkt_solve(A.toarray(), F, m.boundary_vertex, g)
    energy = lambda v: 0.5 * v @ (A @ v) - F @ v
    assert abs(energy(u) - energy(u_ref)) <= 1e-10


# ---------------------------------------------------------------------------
# conjugate gradients


def test_cg_identity_one_iteration():
    A = sp.identity(10, format="csr")
    b = np.arange(10, dtype=float)
    x, iters = cg_solve(A, b)
    assert iters == 1
    assert np.allclose(x, b, atol=1e-15)


def test_cg_zero_rhs():
    A = sp.identity(5, format="csr")
    x, iters = cg_solve(A, np.zeros(5))
    assert iters == 0
    assert np.all(x == 0.0)


def test_cg_against_dense_solve():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(50, 50))
    A = B @ B.T + 50 * np.eye(50)
    b = rng.normal(size=50)
    x, _ = cg_solve(sp.csr_matrix(A), b, tol=1e-14)
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-10


def test_cg_iteration_limit_error():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(40, 40))
    A = sp.csr_matrix(B @ B.T + 1e-6 * np.eye(40))
    with pytest.raises(SolverError, match="CG did not converge"):
        cg_solve(A, rng.normal(size=40), tol=1e-15, max_iterations=2)


# ---------------------------------------------------------------------------
# Newton


def test_linear_problem_single_iteration():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = vp.manufactured_linear((0.0, 0.2, 0.7, -0.5))
    u, report = vp.newton_solve(m, phys, load)
    assert report.newton_iterations == 1
    assert report.converged


def test_manufactured_cube_converges_quadratically():
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    u, report = vp.newton_solve(m, phys, load)
    hist = report.residual_history
    assert report.newton_iterations <= 8
    assert hist[-1] <= 1e-10 * hist[0]
    # residual history strictly decreasing
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_converged_state_is_fixed_point():
    m = vp.generate_cube_mesh(3)
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    u1, _ = vp.newton_solve(m, phys, load, vp.NewtonConfig(max_iterations=50))
    u2, _ = vp.newton_solve(m, phys, load, vp.NewtonConfig(max_iterations=100))
    assert np.abs(u1 - u2).max() <= 1e-12


def test_residual_at_solution_below_tolerance():
    m = vp.generate_cube_mesh(3)
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    ws = Workspace(m)
    u, report = vp.newton_solve(m, phys, load, workspace=ws)
    r = vp.assemble_residual(m, phys, load, u, workspace=ws)
    assert np.linalg.norm(r) <= 1e-10 * report.residual_history[0] + 1e-14


def test_newton_failure_carries_state():
    m = vp.generate_cube_mesh(2)
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    with pytest.raises(SolverError) as err:
        vp.newton_solve(m, phys, load, vp.NewtonConfig(max_iterations=1, rel_tol=1e-14))
    assert err.value.u is not None
    assert err.value.report.newton_iterations == 1


def test_linear_case_matches_dense_direct_solve():
    m = vp.generate_cube_mesh(4)   # 5^3 DoFs
    phys = laplace_physics()
    load = vp.manufactured_linear((0.2, -0.3, 1.1, 0.6))
    ws = Workspace(m)
    u, _ = vp.newton_solve(m, phys, load, workspace=ws)

    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    g = np.zeros(m.n_vertices)
    g[m.boundary_vertex] = load.boundary_values(m.vertices[m.boundary_vertex])
    con = vp.apply_dirichlet(SparseSystem(A, F, m.boundary_vertex, g))
    u_dense = np.linalg.solve(con.matrix.toarray(), con.rhs)
    assert np.abs(u - u_dense).max() <= 1e-10


def test_constrain_matrix_keeps_symmetry():
    m = vp.generate_cube_mesh(2)
    A = vp.assemble_linear(m, vp.PhysicsConfig())
    C = constrain_matrix(A, m.boundary_vertex)
    assert abs(C - C.T).max() == 0.0
    n_bnd = int(m.boundary_vertex.sum())
    assert np.allclose(C.toarray()[m.boundary_vertex][:, m.boundary_vertex], np.eye(n_bnd))
