import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import vempb as vp
from vempb import solver
from vempb.solver import mesh_quadrature
from vempb.projectors import face_integral_rows
from vempb.solver import SolverError, Workspace, cg_solve

from _oracles import (
    NodeRowForms, cell_projector_blocks, cell_projector_reference, free_block, kkt_solve,
    local_stiffness, manufactured_linear, residual_with, spgemm_jacobian,
)
from test_mesh import permuted_copy


def laplace_physics():
    ls = lambda p: -np.ones(len(p))
    return vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)


# ---------------------------------------------------------------------------
# assembly


def test_constants_in_kernel():
    A = Workspace(vp.generate_cube_mesh(2)).stiffness(vp.PhysicsConfig())
    assert np.abs(A @ np.ones(A.shape[0])).max() <= 1e-12


def _dense_scatter_stiffness(m, phys, per_cell):
    """Dense stiffness scattered from (vertex_ids, pi0_grad, stab_q) of every cell, in cell order."""
    points, weights, _, _, cell_ptr, *_ = mesh_quadrature(m)
    dense = np.zeros((m.n_vertices, m.n_vertices))
    for ci, (ids, pi0_grad, stab_q) in enumerate(per_cell):
        nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
        K = local_stiffness(m, ci, pi0_grad, stab_q, phys, points[nodes], weights[nodes])
        dense[np.ix_(ids, ids)] += K
    return dense


def test_assembly_matches_dense_scatter_oracle():
    m = vp.generate_cube_mesh(2)
    phys = vp.PhysicsConfig()
    projs = vp.build_projectors(m)
    A = Workspace(m, projs).stiffness(phys)
    blocks = [cell_projector_blocks(projs, ci) for ci in range(m.n_cells)]
    per_cell = [(b.vertex_ids, b.pi0_grad, b.stab_q) for b in blocks]
    dense = _dense_scatter_stiffness(m, phys, per_cell)
    assert np.abs(A.toarray() - dense).max() <= 1e-13


def test_workspace_stiffness_matches_per_cell_scatter_cube4():
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig()
    rows = face_integral_rows(m)
    refs = [cell_projector_reference(m, ci, rows) for ci in range(m.n_cells)]
    per_cell = [(r.vertex_ids, r.pi0_grad, r.stab_q) for r in refs]
    A = Workspace(m).stiffness(phys)
    assert np.abs(A.toarray() - _dense_scatter_stiffness(m, phys, per_cell)).max() <= 1e-13


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: vp.generate_cube_mesh(3),
         "843008a192dffc61ca8b795b702b26fef217a793fddac0c25457c32cce465544"),
        (lambda: vp.generate_tet_mesh(2),
         "7c98a700558afab7da237adc01a9ae6847656254a99765ec89542ebdc33f3d00"),
        (lambda: vp.generate_voronoi_mesh(64, 0),
         "fa5bdcf62a64dabbc7d3ea8df6e501c647950a29598ecff0eaa2fb96ecf89cf7"),
    ],
    ids=["cube3", "tet2", "voronoi64"],
)
def test_workspace_quadrature_unchanged(make, digest):
    # digests of the arrays built inside Workspace.__init__ before the node
    # construction moved out to mesh_quadrature (the Voronoi one re-pinned
    # when the mesh build began choosing its mirrors, and when faces took
    # Qhull's ridge order)
    ws = Workspace(make())
    h = hashlib.sha256()
    for a in (ws.points, ws.weights, ws.xi, ws.cop, ws.cell_ptr):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_global_symmetry():
    m = vp.generate_voronoi_mesh(40, 3)
    phys = vp.PhysicsConfig()
    ws = Workspace(m)
    A = ws.stiffness(phys)
    assert abs(A - A.T).max() <= 1e-13
    u = np.random.default_rng(0).normal(size=m.n_vertices) * 0.2
    J = A + ws.jacobian(ws.nonlinear(phys, u)[1])
    assert abs(J - J.T).max() <= 1e-13


PATTERN_CASES = {
    "cube2": lambda: vp.generate_cube_mesh(2),
    "kuhn2": lambda: vp.generate_tet_mesh(2),
    "voronoi64": lambda: vp.generate_voronoi_mesh(64, 0),    # 14 DoF counts
}


@pytest.mark.parametrize("case", list(PATTERN_CASES))
def test_block_assembly_matches_the_sparse_product_oracle(case, monkeypatch):
    """Stiffness and Jacobian match the sparse products; the CG matrix is (A + J)[free][:, free]."""
    m = PATTERN_CASES[case]()
    phys, load = _screened_tet_physics(), vp.regularized_load()
    ws = Workspace(m)
    A = ws.stiffness(phys)
    u = np.random.default_rng(0).normal(size=m.n_vertices) * 0.3
    M = ws.nonlinear(phys, u)[1]
    J = ws.jacobian(M)
    # relative: an absolute bound would pin the summation order of the entries
    assert _rel(A.toarray(), NodeRowForms(m, phys).stiffness()) <= 1e-13
    assert _rel(J.toarray(), spgemm_jacobian(ws.projectors, M).toarray()) <= 1e-13
    assert np.abs(J).max() > 0
    for X in (A, J):
        assert np.array_equal(X.toarray(), X.T.toarray())

    events, jacobian = [], ws.jacobian

    def recording_jacobian(M):
        events.append(jacobian(M))
        return events[-1]

    def recording_cg(K, b, *args):
        events.append(K)
        return cg_solve(K, b, *args)

    monkeypatch.setattr(ws, "jacobian", recording_jacobian)
    monkeypatch.setattr(solver, "cg_solve", recording_cg)
    _, report = vp.newton_solve(m, phys, load, workspace=ws)
    assert len(events) == 2 * report.newton_iterations > 0
    free = ~m.boundary_vertex
    for J_k, K in zip(events[::2], events[1::2]):
        assert np.array_equal(K.toarray(), free_block(A + J_k, free).toarray())


def test_cell_groups_are_walked_once_per_workspace(monkeypatch):
    """The block pattern keeps the DoF-count groups, so no assembly walks the cells again."""
    m = vp.generate_voronoi_mesh(64, 0)
    phys, load = _screened_tet_physics(), vp.regularized_load()
    walks, segments = [], solver._segments_by_length

    def counting(ptr):
        walks.append(ptr)
        return segments(ptr)

    monkeypatch.setattr(solver, "_segments_by_length", counting)
    ws = Workspace(m)
    u, report = vp.newton_solve(m, phys, load, workspace=ws)
    vp.assemble_residual(m, phys, load, u, workspace=ws)
    vp.assemble_residual(m, phys, load, u, workspace=ws)
    ws.jacobian(ws.nonlinear(phys, u)[1])
    assert report.newton_iterations > 0
    assert len(walks) == 1 and walks[0] is m.cell_vertex_ptr
    assert len(ws._pattern.groups) == len(ws.groups) > 1


def test_block_pattern_is_built_once_and_only_on_demand(monkeypatch):
    m = vp.generate_tet_mesh(3)
    phys, load = _screened_tet_physics(), vp.regularized_load()
    builds, build = [], solver._block_pattern
    monkeypatch.setattr(solver, "_block_pattern", lambda mesh: builds.append(mesh) or build(mesh))
    ws = Workspace(m)
    # set-up holds no pattern, so its cost falls on the first assembly
    assert not any(isinstance(v, solver._BlockPattern) for v in vars(ws).values())
    assert not builds
    u, _ = vp.newton_solve(m, phys, load, workspace=ws)
    vp.assemble_residual(m, phys, load, u, workspace=ws)
    phys.kappa = 2.0
    vp.assemble_residual(m, phys, load, u, workspace=ws)
    ws.jacobian(ws.nonlinear(phys, u)[1])
    assert len(builds) == 1


def test_assembly_permutation_invariant():
    m = vp.generate_voronoi_mesh(30, 10)
    phys = vp.PhysicsConfig()
    A = Workspace(m).stiffness(phys)
    perm = np.random.default_rng(1).permutation(m.n_cells)
    m2 = permuted_copy(m, perm)
    A2 = Workspace(m2).stiffness(phys)
    # 1e-13 relative to the entry scale (entries reach ~eps_s here)
    assert abs(A - A2).max() <= 1e-13 * max(1.0, abs(A).max())


def test_residual_linear_case_reduces_to_stiffness_action():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = manufactured_linear((0.1, 0.4, -0.2, 0.9))
    ws = Workspace(m)
    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    u = np.random.default_rng(2).normal(size=m.n_vertices)
    r = vp.assemble_residual(m, phys, load, u, workspace=ws)
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
    J = (A + ws.jacobian(ws.nonlinear(phys, u)[1])).toarray()
    free = ~m.boundary_vertex
    step = 1e-6
    J_fd = np.zeros_like(J)
    for k in range(m.n_vertices):
        up = u.copy(); up[k] += step
        dn = u.copy(); dn[k] -= step
        rp = residual_with(ws, phys, A, F, up)
        rm = residual_with(ws, phys, A, F, dn)
        J_fd[:, k] = (rp - rm) / (2 * step)
    # compare on rows of free DoFs (constrained rows of the residual are zeroed)
    diff = np.abs(J[free] - J_fd[free]).max()
    assert diff <= 1e-6 * np.abs(J[free]).max()


# ---------------------------------------------------------------------------
# Dirichlet constraints


def _lifted(A, F, mask, g):
    """Symmetric elimination of u[mask] = g[mask]: identity rows and columns on mask, lifted rhs."""
    keep = sp.diags((~mask).astype(float))
    b = F - A @ np.where(mask, g, 0.0)
    b[mask] = g[mask]
    return (keep @ A @ keep + sp.diags(mask.astype(float))).tocsr(), b


def _recording_cg(monkeypatch):
    """Replace solver.cg_solve by a wrapper; returns the list of its (matrix shape, rhs length)."""
    calls = []

    def recording(A, b, *args):
        calls.append((A.shape, len(b)))
        return cg_solve(A, b, *args)

    monkeypatch.setattr(solver, "cg_solve", recording)
    return calls


def test_newton_steps_on_the_free_block(monkeypatch):
    m = vp.generate_tet_mesh(4)
    calls = _recording_cg(monkeypatch)
    _, report = vp.newton_solve(m, _screened_tet_physics(), vp.regularized_load())
    n_free = int((~m.boundary_vertex).sum())
    assert len(calls) == report.newton_iterations > 0
    assert calls == [((n_free, n_free), n_free)] * len(calls)


def test_all_boundary_mesh_needs_no_newton_step(monkeypatch):
    m = vp.generate_cube_mesh(1)
    assert m.boundary_vertex.all()
    load = vp.manufactured_sine()
    calls = _recording_cg(monkeypatch)
    u, report = vp.newton_solve(m, vp.PhysicsConfig(), load)
    assert report.converged and report.newton_iterations == 0
    assert calls == []
    assert np.array_equal(u, load.boundary_values(m.vertices))


def test_constrained_solution_has_exact_boundary_values():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = manufactured_linear((0.0, 1.0, 0.0, 0.0))
    u, _ = vp.newton_solve(m, phys, load)
    g = load.u_exact(m.vertices[m.boundary_vertex])
    assert np.array_equal(u[m.boundary_vertex], g)


def test_constrained_energy_matches_kkt_oracle():
    m = vp.generate_cube_mesh(3)
    phys = laplace_physics()
    load = manufactured_linear((0.3, 0.5, -1.0, 0.25))
    ws = Workspace(m)
    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    g = np.zeros(m.n_vertices)
    g[m.boundary_vertex] = load.boundary_values(m.vertices[m.boundary_vertex])
    matrix, rhs = _lifted(A, F, m.boundary_vertex, g)
    u, _ = cg_solve(matrix, rhs, tol=1e-14)
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


def test_cg_converging_on_last_allowed_iteration_succeeds():
    A = sp.identity(10, format="csr")
    x, iters = cg_solve(A, np.arange(10, dtype=float), max_iterations=1)
    assert iters == 1


@pytest.mark.parametrize("limit", [0, -1])
def test_cg_without_allowed_iterations_fails(limit):
    A = sp.identity(10, format="csr")
    with pytest.raises(SolverError, match="CG did not converge"):
        cg_solve(A, np.arange(10, dtype=float), max_iterations=limit)


def test_cg_failure_names_the_iteration_of_its_residual():
    """SciPy runs one pass past the limit, and the message says whose residual it reports."""
    rng = np.random.default_rng(0)
    B = rng.normal(size=(6, 6))
    A = sp.csr_matrix(B @ B.T + np.eye(6))
    b = rng.normal(size=6)
    x6, iters = cg_solve(A, b, max_iterations=6)
    assert iters == 6
    with pytest.raises(SolverError, match="in 5 iterations") as err:
        cg_solve(A, b, max_iterations=5)
    residual = np.linalg.norm(b - A @ x6) / np.linalg.norm(b)
    assert f"(relative residual {residual:.3e} after iteration 6)" in str(err.value)
    with pytest.raises(SolverError, match=r"in 0 iterations \(.* after iteration 1\)"):
        cg_solve(A, b, max_iterations=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_cg_rejects_a_diagonal_not_positive_and_finite(bad):
    """Checked before the first iteration, naming the first bad entry; NaN passes ``diag <= 0``."""
    A = sp.diags([2.0, bad, np.nan, 3.0]).tocsr()
    with pytest.raises(SolverError, match=f"diagonal entry 1 is {bad}, not positive and finite"):
        cg_solve(A, np.ones(4))


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
    load = manufactured_linear((0.0, 0.2, 0.7, -0.5))
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


def test_newton_overflow_at_initial_state_carries_u0():
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig(charges=[(1e4, (0.1, 0.1, 0.1))])
    with pytest.raises(SolverError, match="initial state: sinh argument") as err:
        vp.newton_solve(m, phys, vp.regularized_load())
    assert np.array_equal(err.value.u, np.zeros(m.n_vertices))  # u0 of the regularized load
    assert err.value.report.newton_iterations == 0
    assert err.value.report.wall_time > 0.0


def test_newton_overflow_in_manufactured_load_carries_u0(monkeypatch):
    """The overflow is raised on a sweep thread, and surfaces the same from one worker as from four."""
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig(charges=[(1e4, (0.1, 0.1, 0.1))])
    load = vp.manufactured_sine()
    monkeypatch.setattr(solver, "BLOCK_NODES", 2000)
    assert len(Workspace(m).block_cells) - 1 > 1
    u0 = np.zeros(m.n_vertices)
    u0[m.boundary_vertex] = load.boundary_values(m.vertices[m.boundary_vertex])
    messages = []
    for threads in (1, 4):
        monkeypatch.setattr(solver, "_sweep_threads", lambda: threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="load: sinh argument") as err:
                vp.newton_solve(m, phys, load)
        messages.append(str(err.value))
        assert np.array_equal(err.value.u, u0)
        assert err.value.report.newton_iterations == 0
        assert err.value.report.residual_history == []
    assert messages[0] == messages[1]


@pytest.mark.parametrize("limit", ["max_iterations", "max_halvings", "cg_max_iterations"])
def test_negative_solver_limit_rejected(limit):
    with pytest.raises(ValueError, match="must not be negative"):
        vp.NewtonConfig(**{limit: -1})
    vp.NewtonConfig(**{limit: 0})


def test_newton_cg_limit_carries_state():
    m = vp.generate_cube_mesh(4)
    load = vp.manufactured_sine()
    config = vp.NewtonConfig(cg_max_iterations=1)
    with pytest.raises(SolverError, match="iteration 1: CG did not converge in 1") as err:
        vp.newton_solve(m, vp.PhysicsConfig(), load, config)
    u0 = np.zeros(m.n_vertices)
    u0[m.boundary_vertex] = load.boundary_values(m.vertices[m.boundary_vertex])
    assert np.array_equal(err.value.u, u0)
    assert err.value.report.newton_iterations == 0
    assert len(err.value.report.residual_history) == 1


def test_linear_case_matches_dense_direct_solve():
    m = vp.generate_cube_mesh(4)   # 5^3 DoFs
    phys = laplace_physics()
    load = manufactured_linear((0.2, -0.3, 1.1, 0.6))
    ws = Workspace(m)
    u, _ = vp.newton_solve(m, phys, load, workspace=ws)

    A = ws.stiffness(phys)
    F = ws.load_vector(phys, load)
    g = np.zeros(m.n_vertices)
    g[m.boundary_vertex] = load.boundary_values(m.vertices[m.boundary_vertex])
    matrix, rhs = _lifted(A, F, m.boundary_vertex, g)
    u_dense = np.linalg.solve(matrix.toarray(), rhs)
    assert np.abs(u - u_dense).max() <= 1e-10


# ---------------------------------------------------------------------------
# node blocks and the Newton sweep


def _screened_tet_physics():
    return vp.PhysicsConfig(kappa=4.0, charges=[(5.0, (0.25, 0.25, 0.25))])


BLOCK_CASES = {
    "voronoi200": (lambda: vp.generate_voronoi_mesh(200, 4), vp.PhysicsConfig,
                   vp.manufactured_sine),
    "kuhn4": (lambda: vp.generate_tet_mesh(4), _screened_tet_physics, vp.regularized_load),
    "cube4-weak": (lambda: vp.generate_cube_mesh(4), vp.PhysicsConfig, vp.manufactured_sine),
}


def _assembled(mesh, phys, load):
    """Every output of the node sweeps and of a Newton solve, as arrays."""
    ws = Workspace(mesh)
    u = np.random.default_rng(8).normal(size=mesh.n_vertices) * 0.3
    B, M = ws.nonlinear(phys, u)
    J = ws.jacobian(M)
    u_h, report = vp.newton_solve(mesh, phys, load, workspace=ws)
    out = {
        "A": ws.stiffness(phys).toarray(), "F": ws.load_vector(phys, load), "B": B,
        "J": J.toarray(), "u": u_h, "residuals": np.array(report.residual_history),
        "cg": np.array(report.cg_iterations),
    }
    if load.mode == "manufactured":
        out["errors"] = np.array(ws.error_norms(u_h, load.u_exact, load.grad_u_exact))
    return out


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_results_independent_of_block_size(case, monkeypatch):
    make, physics, load = BLOCK_CASES[case]
    mesh = make()
    results = {}
    for block_nodes in (1, 1000, 10**9):
        monkeypatch.setattr(solver, "BLOCK_NODES", block_nodes)
        n_blocks = len(Workspace(mesh).block_cells) - 1
        assert {1: n_blocks == mesh.n_cells, 1000: 1 < n_blocks < mesh.n_cells,
                10**9: n_blocks == 1}[block_nodes]
        results[block_nodes] = _assembled(mesh, physics(), load())
    for block_nodes in (1, 1000):
        for key, want in results[10**9].items():
            assert np.array_equal(results[block_nodes][key], want), (block_nodes, key)


def test_newton_sweeps_projected_values_once_per_residual(monkeypatch):
    """One sweep per trial; a Jacobian only for each accepted iterate that takes a step."""
    m = vp.generate_tet_mesh(4)
    phys = _screened_tet_physics()
    ws = Workspace(m)
    sweeps, calls, jacobians = [], [], []
    value_coeffs, nonlinear, jacobian = ws.projectors.value_coeffs, ws.nonlinear, ws.jacobian

    def counting_coeffs(u):
        sweeps.append(1)
        return value_coeffs(u)

    def counting_nonlinear(physics, u):
        calls.append(len(sweeps))
        out = nonlinear(physics, u)
        assert len(sweeps) == calls[-1] + 1
        return out

    def counting_jacobian(M):
        jacobians.append(1)
        return jacobian(M)

    monkeypatch.setattr(ws.projectors, "value_coeffs", counting_coeffs)
    monkeypatch.setattr(ws, "nonlinear", counting_nonlinear)
    monkeypatch.setattr(ws, "jacobian", counting_jacobian)
    _, report = vp.newton_solve(m, phys, vp.regularized_load(), workspace=ws)
    assert len(calls) == len(report.residual_history) + report.damping_events
    assert len(sweeps) == len(calls)
    assert len(jacobians) == report.newton_iterations > 0


@pytest.mark.parametrize("max_halvings", [20, 0])
def test_newton_halves_a_step_whose_residual_overflows(monkeypatch, max_halvings):
    """An overflow in the first trial residual counts as no decrease."""
    m = vp.generate_tet_mesh(4)
    phys, load = _screened_tet_physics(), vp.regularized_load()
    ws = Workspace(m)
    residuals, nonlinear = [], ws.nonlinear

    def second_residual_overflows(physics, u):
        residuals.append(u.copy())
        if len(residuals) == 2:
            raise vp.NonlinearOverflow("sinh argument over the guard")
        return nonlinear(physics, u)

    monkeypatch.setattr(ws, "nonlinear", second_residual_overflows)
    config = vp.NewtonConfig(max_halvings=max_halvings)
    if max_halvings == 0:
        with pytest.raises(SolverError, match="Newton damping exhausted at iteration 1 ") as err:
            vp.newton_solve(m, phys, load, config, workspace=ws)
        assert np.array_equal(err.value.u, residuals[0])      # u0
        assert err.value.report.damping_events == 1
        assert not err.value.report.converged
    else:
        u, report = vp.newton_solve(m, phys, load, config, workspace=ws)
        u_plain, plain = vp.newton_solve(m, phys, load)
        assert plain.damping_events == 0
        assert report.converged and report.damping_events == 1
        assert report.newton_iterations == plain.newton_iterations + 1
        # the halved step is taken from the same iterate as the full one
        assert np.allclose(residuals[2] - residuals[0], 0.5 * (residuals[1] - residuals[0]))
        assert np.abs(u - u_plain).max() < 1e-8


@pytest.mark.parametrize("rejected", [None, "overflow", "growth"])
def test_newton_steps_with_the_jacobian_of_the_accepted_iterate(monkeypatch, rejected):
    """CG gets the Jacobian at the accepted iterate, never at a rejected trial."""
    m = vp.generate_tet_mesh(4)
    phys, load = _screened_tet_physics(), vp.regularized_load()
    ws = Workspace(m)
    events, nonlinear = [], ws.nonlinear

    def recording_nonlinear(physics, u):
        """Logs each trial; if ``rejected``, the second overflows or its residual grows."""
        events.append(("trial", u.copy()))
        if rejected and sum(e[0] == "trial" for e in events) == 2:
            if rejected == "overflow":
                raise vp.NonlinearOverflow("sinh argument over the guard")
            B, M = nonlinear(physics, u)
            return B + 1e12, M
        return nonlinear(physics, u)

    def recording_cg(J, b, *args):
        events.append(("cg", J.copy()))
        return cg_solve(J, b, *args)

    monkeypatch.setattr(ws, "nonlinear", recording_nonlinear)
    monkeypatch.setattr(solver, "cg_solve", recording_cg)
    _, report = vp.newton_solve(m, phys, load, workspace=ws)
    assert report.converged and report.damping_events == (1 if rejected else 0)
    monkeypatch.undo()
    A = ws.stiffness(phys)
    free = ~m.boundary_vertex
    steps = 0
    for k, event in enumerate(events):
        if event[0] != "cg":
            continue
        # the accepted iterate is the last trial before this step: a rejected one is
        # always followed by another trial
        u_k = next(e[1] for e in reversed(events[:k]) if e[0] == "trial")
        want = (A + ws.jacobian(ws.nonlinear(phys, u_k)[1])).tocsr()[free][:, free]
        assert np.array_equal(event[1].toarray(), want.toarray()), steps
        steps += 1
    assert steps == report.newton_iterations > 0


def _node_arrays(ws):
    """Each node-length array the Workspace holds, also inside tuples and lists, and its bytes."""
    out = {}
    for name, value in vars(ws).items():
        for k, a in enumerate(value if isinstance(value, (tuple, list)) else [value]):
            if isinstance(a, np.ndarray) and a.ndim and len(a) == len(ws.weights):
                out[name, k] = (a, a.tobytes())
    return out


def test_workspace_holds_no_node_array_that_follows_u():
    m = vp.generate_tet_mesh(3)
    phys = _screened_tet_physics()
    ws = Workspace(m)
    rng = np.random.default_rng(9)
    ws.nonlinear(phys, rng.normal(size=m.n_vertices) * 0.1)
    held = _node_arrays(ws)
    assert {("points", 0), ("weights", 0), ("solvent", 0), ("_G", 0)} <= set(held)
    ws.nonlinear(phys, rng.normal(size=m.n_vertices) * 0.1)
    u, _ = vp.newton_solve(m, phys, vp.regularized_load(), workspace=ws)
    vp.assemble_residual(m, phys, vp.regularized_load(), u, workspace=ws)
    now = _node_arrays(ws)
    assert now.keys() == held.keys()
    for key, (a, data) in held.items():
        assert now[key][0] is a and now[key][1] == data, key


def _fresh(mesh, phys, u):
    ws = Workspace(mesh)
    B, M = ws.nonlinear(phys, u)
    return B, ws.jacobian(M).toarray()


@pytest.mark.parametrize("change", ["kappa", "levelset", "eps_m", "eps_s"])
def test_physics_changed_in_place_matches_a_fresh_workspace(change):
    """A Workspace follows changes made to the same physics instance."""
    m = vp.generate_tet_mesh(3)
    phys = vp.PhysicsConfig(kappa=0.0 if change == "kappa" else 4.0,
                            charges=[(5.0, (0.25, 0.25, 0.25))])
    ws = Workspace(m)
    u = np.random.default_rng(10).normal(size=m.n_vertices) * 0.1
    before, _ = ws.nonlinear(phys, u)
    A_before = ws.stiffness(phys).toarray()
    if change == "kappa":
        assert not before.any()
        phys.kappa = 4.0
    elif change == "levelset":
        phys.levelset = vp.box_levelset(0.4)
    elif change == "eps_m":
        phys.eps_m = 4.0
    else:
        phys.eps_s = 40.0
    B, M = ws.nonlinear(phys, u)
    B_fresh, J_fresh = _fresh(m, phys, u)
    assert np.abs(B_fresh).max() > 100
    assert not np.array_equal(B_fresh, before)
    assert np.array_equal(B, B_fresh)
    assert np.array_equal(ws.jacobian(M).toarray(), J_fresh)
    A = ws.stiffness(phys).toarray()
    assert np.array_equal(A, Workspace(m).stiffness(phys).toarray())
    assert np.array_equal(A, A_before) == (change == "kappa")
    # another physics at the same u
    other = vp.PhysicsConfig(kappa=2.0, charges=[(5.0, (0.25, 0.25, 0.25))])
    B_other, _ = ws.nonlinear(other, u)
    assert np.array_equal(B_other, _fresh(m, other, u)[0])


def test_stiffness_follows_eps_s_changed_in_place_without_screening():
    """The held cell integrals of eps follow eps_s also where kappa_bar^2 stays 0."""
    m = vp.generate_tet_mesh(3)
    phys = vp.PhysicsConfig(kappa=0.0)
    ws = Workspace(m)
    A_before = ws.stiffness(phys).toarray()
    phys.eps_s = 40.0
    A = ws.stiffness(phys).toarray()
    assert not np.array_equal(A, A_before)
    assert np.array_equal(A, Workspace(m).stiffness(phys).toarray())


def test_physics_state_is_evaluated_in_one_pass(monkeypatch):
    """Per physics state each node is classified once and each solvent node gets G once."""
    m = vp.generate_tet_mesh(3)
    phys = _screened_tet_physics()
    classified, coulomb = [], []

    def recording(calls, method):
        def wrapped(points):
            calls.append(points.copy())
            return method(points)
        return wrapped

    monkeypatch.setattr(phys, "solvent_mask", recording(classified, phys.solvent_mask))
    monkeypatch.setattr(phys, "coulomb_potential", recording(coulomb, phys.coulomb_potential))
    ws = Workspace(m)
    load = vp.regularized_load()
    u, report = vp.newton_solve(m, phys, load, workspace=ws)
    vp.assemble_residual(m, phys, load, u, workspace=ws)
    assert report.newton_iterations > 1
    solvent_points = ws.points[ws.solvent]
    assert 0 < len(solvent_points) < len(ws.points)
    assert np.array_equal(np.concatenate(classified), ws.points)
    assert np.array_equal(np.concatenate(coulomb), solvent_points)
    # an in-place change of kappa is one more pass, and no more
    n_classified, n_coulomb = len(classified), len(coulomb)
    phys.kappa = 2.0
    vp.newton_solve(m, phys, load, workspace=ws)
    assert np.array_equal(np.concatenate(classified[n_classified:]), ws.points)
    assert np.array_equal(np.concatenate(coulomb[n_coulomb:]), solvent_points)


# ---------------------------------------------------------------------------
# factored sweeps against the node-row oracle, and the charges at use


ORACLE_CASES = {
    "cube4": (lambda: vp.generate_cube_mesh(4), vp.PhysicsConfig),
    "kuhn3": (lambda: vp.generate_tet_mesh(3), _screened_tet_physics),
    "voronoi60": (lambda: vp.generate_voronoi_mesh(60, 5), vp.PhysicsConfig),
}


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_factored_sweeps_match_node_row_oracle(case):
    make, physics = ORACLE_CASES[case]
    mesh, phys = make(), physics()
    ws, ref = Workspace(mesh), NodeRowForms(mesh, phys)
    u = np.random.default_rng(11).normal(size=mesh.n_vertices) * 0.3
    assert _rel(ws.stiffness(phys).toarray(), ref.stiffness()) <= 1e-13
    sine = vp.manufactured_sine()
    for load in (vp.regularized_load(), sine):
        assert _rel(ws.load_vector(phys, load), ref.load(load)) <= 1e-13, load
    B, M = ws.nonlinear(phys, u)
    B_ref, J_ref = ref.nonlinear(u)
    assert _rel(B, B_ref) <= 1e-13
    assert _rel(ws.jacobian(M).toarray(), J_ref) <= 1e-13
    got = ws.error_norms(u, sine.u_exact, sine.grad_u_exact)
    want = ref.error_norms(u, sine.u_exact, sine.grad_u_exact)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("how", ["reassigned", "edited"])
def test_charges_changed_on_the_instance_match_a_fresh_physics(how):
    m = vp.generate_tet_mesh(3)
    phys = _screened_tet_physics()
    load = vp.regularized_load()
    ws = Workspace(m)
    u = np.random.default_rng(12).normal(size=m.n_vertices) * 0.1
    F_before = ws.load_vector(phys, load)
    B_before, _ = ws.nonlinear(phys, u)
    new = (2.0, (0.1, 0.2, 0.3))
    if how == "reassigned":
        phys.charges = [new]
    else:
        phys.charges[0] = new
    fresh_phys = vp.PhysicsConfig(kappa=4.0, charges=[new])
    fresh = Workspace(m)
    B, M = ws.nonlinear(phys, u)
    B_fresh, M_fresh = fresh.nonlinear(fresh_phys, u)
    assert np.array_equal(ws._G, fresh._G)
    F = ws.load_vector(phys, load)
    assert np.array_equal(F, fresh.load_vector(fresh_phys, load))
    assert np.array_equal(B, B_fresh)
    assert np.array_equal(ws.jacobian(M).toarray(), fresh.jacobian(M_fresh).toarray())
    assert not np.array_equal(B, B_before) and not np.array_equal(F, F_before)


def test_charge_moved_outside_the_molecular_region_is_rejected():
    m = vp.generate_tet_mesh(2)
    phys = _screened_tet_physics()
    ws = Workspace(m)
    ws.nonlinear(phys, np.zeros(m.n_vertices))
    phys.charges = [(1.0, (0.9, 0.9, 0.9))]
    with pytest.raises(ValueError, match="outside the molecular region"):
        phys.coulomb_potential(np.array([[0.1, 0.1, 0.1]]))
    with pytest.raises(ValueError, match="outside the molecular region"):
        ws.nonlinear(phys, np.zeros(m.n_vertices))
    with pytest.raises(ValueError, match="outside the molecular region"):
        vp.newton_solve(m, phys, vp.regularized_load())


# ---------------------------------------------------------------------------
# non-finite input and mismatched workspaces


@pytest.mark.parametrize("field, value", [
    ("eps_m", np.inf), ("eps_m", np.nan), ("eps_s", np.inf), ("eps_s", np.nan),
    ("kappa", np.inf), ("kappa", np.nan),
    ("charges", [(np.nan, (0.1, 0.1, 0.1))]), ("charges", [(1.0, (0.1, np.nan, 0.1))]),
])
def test_physics_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        vp.PhysicsConfig(**{field: value})


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "cg_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_newton_config_rejects_non_finite_tolerances(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        vp.NewtonConfig(**{field: value})


def test_charge_reassigned_to_nan_is_rejected_by_the_solve():
    m = vp.generate_cube_mesh(4)
    phys = vp.PhysicsConfig(kappa=1.0, charges=[(1.0, (0.1, 0.1, 0.1))])
    phys.charges = [(np.nan, (0.1, 0.1, 0.1))]
    with pytest.raises(ValueError, match="finite"):
        vp.newton_solve(m, phys, vp.regularized_load())


def test_non_finite_initial_residual_is_a_solver_failure():
    class NanBoundary(vp.LoadSpec):
        def boundary_values(self, points):
            return np.full(len(points), np.nan)

    m = vp.generate_cube_mesh(3)
    with pytest.raises(SolverError, match="initial state: residual norm nan") as err:
        vp.newton_solve(m, vp.PhysicsConfig(kappa=1.0), NanBoundary(mode="regularized"))
    assert not err.value.report.converged
    assert np.isnan(err.value.u[m.boundary_vertex]).all()


@pytest.mark.parametrize(
    "make", [lambda: vp.generate_tet_mesh(3), lambda: vp.generate_cube_mesh(2)],
    ids=["same-size", "smaller"],
)
def test_workspace_built_on_another_mesh_is_rejected(make):
    ws = Workspace(vp.generate_cube_mesh(3))
    other = make()
    phys, load = vp.PhysicsConfig(), vp.regularized_load()
    with pytest.raises(ValueError, match="another mesh"):
        vp.newton_solve(other, phys, load, workspace=ws)
    with pytest.raises(ValueError, match="another mesh"):
        vp.assemble_residual(other, phys, load, np.zeros(other.n_vertices), workspace=ws)


def test_projectors_built_on_another_mesh_are_rejected():
    """Projectors of a copy with moved interior vertices fit the mesh in size only."""
    m, fine = vp.generate_tet_mesh(3), vp.generate_tet_mesh(6)
    moved = m.vertices.copy()
    inner = ~m.boundary_vertex
    moved[inner] += 0.03 * np.random.default_rng(0).normal(size=(inner.sum(), 3))
    projs = vp.build_projectors(dataclasses.replace(m, vertices=moved))
    with pytest.raises(ValueError, match="projectors were built on another mesh"):
        Workspace(m, projs)
    with pytest.raises(ValueError, match="coarse projectors were built on another mesh"):
        vp.compare_to_reference(
            m, np.zeros(m.n_vertices), fine, np.zeros(fine.n_vertices), coarse_projectors=projs
        )
