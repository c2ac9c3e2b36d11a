"""Global assembly, Dirichlet constraints, CG, and the damped Newton driver.

Assembly runs through a per-mesh :class:`Workspace`: one flat array of
quadrature points/weights over all cells (contiguous per cell) plus the
projector matrices stacked in groups of equal DoF count.  Every sweep is
then plain array arithmetic with `reduceat`/`bincount` reductions, which
keeps the summation order fixed and the results deterministic.

The Jacobian of the screened sinh term is positive semidefinite (cosh > 0)
and the stiffness is positive definite on the free DoFs, so every Newton
step is solved with Jacobi-preconditioned conjugate gradients.  Damping
halves the step while the residual norm fails to decrease strictly; an
overflow of the sinh argument during a trial step is treated the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .forms import LoadSpec, NonlinearOverflow, PhysicsConfig, SINH_ARG_LIMIT
from .mesh import MeshError, PolyMesh, _flat_corners
from .polybasis import DEFAULT_DEGREE, reference_tet_rule
from .projectors import CellProjectorSet, build_projectors


class SolverError(Exception):
    """Solver failed to converge; carries whatever state was reached."""

    def __init__(self, message, u=None, report=None):
        super().__init__(message)
        self.u = u
        self.report = report


@dataclass
class NewtonConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_iterations: int = 50
    max_halvings: int = 20
    cg_tol: float = 1e-12
    cg_max_iterations: int | None = None     # defaults to 10 * n_dofs
    quad_degree: int = DEFAULT_DEGREE

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol, self.cg_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolveReport:
    converged: bool = False
    newton_iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    cg_iterations: list[int] = field(default_factory=list)
    damping_events: int = 0
    wall_time: float = 0.0
    max_abs_u: float = 0.0


@dataclass
class SparseSystem:
    """Assembled symmetric operator with its Dirichlet data."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray


class Workspace:
    """Flat quadrature and stacked projectors for fast repeated assembly."""

    def __init__(
        self,
        mesh: PolyMesh,
        projectors: CellProjectorSet | None = None,
        degree: int = DEFAULT_DEGREE,
    ):
        self.mesh = mesh
        self.degree = degree
        self.projectors = projectors if projectors is not None else build_projectors(mesh)

        ref, wref = reference_tet_rule(degree)
        nq = len(wref)
        ref_cell, ref_face, ref_sign, c_ref, va, vb = _flat_corners(mesh)
        corner_cell = ref_cell[c_ref]
        sign = ref_sign[c_ref]
        swapped = sign < 0
        a = np.where(swapped, vb, va)
        b = np.where(swapped, va, vb)
        origin = mesh.cell_centroid[corner_cell]
        e1 = mesh.face_centroid[ref_face[c_ref]] - origin
        e2 = mesh.vertices[a] - origin
        e3 = mesh.vertices[b] - origin
        dets = np.einsum("tj,tj->t", np.cross(e2, e3), e1)
        if np.any(dets <= 0):
            ci = int(corner_cell[int(np.argmax(dets <= 0))])
            raise MeshError(f"cell {ci} not star-shaped w.r.t. centroid", cell=ci)
        basis = np.stack([e1, e2, e3], axis=1)                    # (T, 3, 3)
        offset = np.matmul(ref, basis)                            # (T, nq, 3) from x_E
        self.points = (origin[:, None, :] + offset).reshape(-1, 3)
        self.weights = (dets[:, None] * wref[None, :]).ravel()
        tets_per_cell = np.bincount(corner_cell, minlength=mesh.n_cells)
        self.cell_ptr = np.concatenate([[0], np.cumsum(tets_per_cell * nq)])
        self.cop = np.repeat(np.arange(mesh.n_cells, dtype=np.int64), tets_per_cell * nq)
        offset /= mesh.cell_diameter[corner_cell, None, None]
        self.xi = offset.reshape(-1, 3)

        self.groups = self.projectors.groups
        # COO coordinates of every group's element matrices, in group order
        self.rows = np.concatenate(
            [np.repeat(g.vertex_ids, g.vertex_ids.shape[1], axis=1).ravel() for g in self.groups]
        )
        self.cols = np.concatenate(
            [np.tile(g.vertex_ids, (1, g.vertex_ids.shape[1])).ravel() for g in self.groups]
        )
        self._physics = None

    # -- reductions ------------------------------------------------------

    def cell_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums of pointwise values (caller includes weights)."""
        if values.ndim == 1:
            return np.add.reduceat(values, self.cell_ptr[:-1])
        return np.add.reduceat(values, self.cell_ptr[:-1], axis=0)

    def moments4(self, svals: np.ndarray) -> np.ndarray:
        """Per-cell integrals of s * (1, xi1, xi2, xi3), shape (C, 4)."""
        m0 = np.add.reduceat(svals, self.cell_ptr[:-1])
        m = np.add.reduceat(svals[:, None] * self.xi, self.cell_ptr[:-1], axis=0)
        return np.column_stack([m0, m])

    # -- physics cache ---------------------------------------------------

    def _attach(self, physics: PhysicsConfig) -> None:
        if self._physics is physics:
            return
        self.kappa2 = physics.kappa_bar_sq(self.points)
        self.act = np.nonzero(self.kappa2 > 0)[0]
        self.G_act = physics.coulomb_potential(self.points[self.act]) if len(self.act) else None
        self._physics = physics

    # -- assembly --------------------------------------------------------

    def stiffness(self, physics: PhysicsConfig) -> sp.csr_matrix:
        eps_int = self.cell_sums(self.weights * physics.epsilon(self.points))
        sigma = self.mesh.cell_diameter * eps_int / self.mesh.cell_volume
        vals = []
        for grp in self.groups:
            K = eps_int[grp.cells, None, None] * np.einsum(
                "gan,gam->gnm", grp.pi0_grad, grp.pi0_grad
            )
            K += sigma[grp.cells, None, None] * np.einsum("gkn,gkm->gnm", grp.stab_q, grp.stab_q)
            vals.append(K.ravel())
        n = self.mesh.n_vertices
        vals = np.concatenate(vals)
        if not np.all(np.isfinite(vals)):
            raise SolverError("non-finite stiffness entry")
        return sp.coo_matrix((vals, (self.rows, self.cols)), shape=(n, n)).tocsr()

    def _gather_rhs(self, per_cell_grad: np.ndarray, moments: np.ndarray | None) -> np.ndarray:
        """F_i = g_i . vec_E + pi_nabla_i . mom_E scattered to global DoFs."""
        F = np.zeros(self.mesh.n_vertices)
        for grp in self.groups:
            contrib = np.einsum("gkn,gk->gn", grp.pi0_grad, per_cell_grad[grp.cells])
            if moments is not None:
                contrib += np.einsum("gan,ga->gn", grp.pi_nabla, moments[grp.cells])
            F += np.bincount(
                grp.vertex_ids.ravel(), weights=contrib.ravel(), minlength=self.mesh.n_vertices
            )
        return F

    def load_vector(self, physics: PhysicsConfig, load: LoadSpec) -> np.ndarray:
        self._attach(physics)
        w = self.weights
        if load.mode == "regularized":
            return self._gather_rhs(self._jump_flux(physics), None)

        if load.pointwise_rhs:
            f = -physics.epsilon(self.points) * load.lap_u_exact(self.points)
            s = np.zeros(len(w))
            if len(self.act):
                s[self.act] = self.kappa2[self.act] * np.sinh(
                    load.u_exact(self.points[self.act]) + self.G_act
                )
            mom = self.moments4(w * (f + s))
            return self._gather_rhs(self._jump_flux(physics), mom)

        flux = self.cell_sums(
            (w * physics.epsilon(self.points))[:, None] * load.grad_u_exact(self.points)
        )
        s = np.zeros(len(w))
        if len(self.act):
            s[self.act] = self.kappa2[self.act] * np.sinh(
                load.u_exact(self.points[self.act]) + self.G_act
            )
        mom = self.moments4(w * s)
        return self._gather_rhs(flux, mom)

    def _jump_flux(self, physics: PhysicsConfig) -> np.ndarray:
        """Per-cell integral of -(eps - eps_m) grad G over the solvent points."""
        vec = np.zeros_like(self.points)
        solvent = physics.solvent_mask(self.points)
        if solvent.any():
            vec[solvent] = (
                -(physics.eps_s - physics.eps_m)
                * self.weights[solvent, None]
                * physics.coulomb_gradient(self.points[solvent])
            )
        return self.cell_sums(vec)

    def projected_values(self, u: np.ndarray) -> np.ndarray:
        """Pointwise values of the cellwise projection of u at all quadrature nodes."""
        c = self.projectors.value_coeffs(u)[self.cop]
        return c[:, 0] + np.einsum("pj,pj->p", self.xi, c[:, 1:])

    def nonlinear(
        self, physics: PhysicsConfig, u: np.ndarray, with_jacobian: bool = True
    ) -> tuple[np.ndarray, sp.csr_matrix | None]:
        """Global screened-sinh residual and (optionally) its Jacobian."""
        self._attach(physics)
        n = self.mesh.n_vertices
        if not len(self.act):
            B = np.zeros(n)
            return B, (sp.csr_matrix((n, n)) if with_jacobian else None)
        arg = self.projected_values(u)[self.act] + self.G_act
        amax = float(np.abs(arg).max())
        if amax > SINH_ARG_LIMIT:
            raise NonlinearOverflow(
                f"sinh argument {amax:.3g} exceeds {SINH_ARG_LIMIT:g}"
            )
        wk = self.weights[self.act] * self.kappa2[self.act]
        s = np.zeros(len(self.weights))
        s[self.act] = wk * np.sinh(arg)
        mom = self.moments4(s)
        B = np.zeros(n)
        for grp in self.groups:
            contrib = np.einsum("gan,ga->gn", grp.pi_nabla, mom[grp.cells])
            B += np.bincount(grp.vertex_ids.ravel(), weights=contrib.ravel(), minlength=n)
        if not with_jacobian:
            return B, None

        s[self.act] = wk * np.cosh(arg)
        M = np.empty((self.mesh.n_cells, 4, 4))
        for i in range(4):
            for j in range(i, 4):
                xi_i = 1.0 if i == 0 else self.xi[:, i - 1]
                xi_j = 1.0 if j == 0 else self.xi[:, j - 1]
                M[:, i, j] = M[:, j, i] = np.add.reduceat(s * xi_i * xi_j, self.cell_ptr[:-1])
        vals = [
            np.einsum("gan,gab,gbm->gnm", grp.pi_nabla, M[grp.cells], grp.pi_nabla).ravel()
            for grp in self.groups
        ]
        Bmat = sp.coo_matrix((np.concatenate(vals), (self.rows, self.cols)), shape=(n, n)).tocsr()
        return B, Bmat

    def error_norms(self, u: np.ndarray, u_exact, grad_u_exact) -> tuple[float, float]:
        """L2 and H1-seminorm errors of the projected solution against exact fields."""
        diff = u_exact(self.points) - self.projected_values(u)
        e2 = float(self.weights @ diff**2)
        gdiff = grad_u_exact(self.points) - self.projectors.gradients(u)[self.cop]
        e1 = float(self.weights @ (gdiff**2).sum(axis=1))
        return float(np.sqrt(e2)), float(np.sqrt(e1))


# ---------------------------------------------------------------------------
# public assembly API


def assemble_linear(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    projectors: CellProjectorSet | None = None,
    degree: int = DEFAULT_DEGREE,
    workspace: Workspace | None = None,
) -> sp.csr_matrix:
    """Global stiffness (sum of stabilized element matrices); kernel = constants."""
    ws = workspace or Workspace(mesh, projectors, degree)
    return ws.stiffness(physics)


def assemble_load(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    load: LoadSpec,
    projectors: CellProjectorSet | None = None,
    degree: int = DEFAULT_DEGREE,
    workspace: Workspace | None = None,
) -> np.ndarray:
    ws = workspace or Workspace(mesh, projectors, degree)
    return ws.load_vector(physics, load)


def assemble_residual(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    load: LoadSpec,
    u: np.ndarray,
    A: sp.csr_matrix | None = None,
    F: np.ndarray | None = None,
    projectors: CellProjectorSet | None = None,
    degree: int = DEFAULT_DEGREE,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """R(u) = A u + B(u) - F with Dirichlet rows zeroed."""
    ws = workspace or Workspace(mesh, projectors, degree)
    if A is None:
        A = ws.stiffness(physics)
    if F is None:
        F = ws.load_vector(physics, load)
    B, _ = ws.nonlinear(physics, u, with_jacobian=False)
    r = A @ u + B - F
    r[mesh.boundary_vertex] = 0.0
    return r


def assemble_jacobian(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    u: np.ndarray,
    A: sp.csr_matrix | None = None,
    projectors: CellProjectorSet | None = None,
    degree: int = DEFAULT_DEGREE,
    workspace: Workspace | None = None,
) -> sp.csr_matrix:
    """A + B'(u), unconstrained (symmetric; nonlinear part PSD)."""
    ws = workspace or Workspace(mesh, projectors, degree)
    if A is None:
        A = ws.stiffness(physics)
    _, Bmat = ws.nonlinear(physics, u, with_jacobian=True)
    return (A + Bmat).tocsr()


def constrain_matrix(A: sp.csr_matrix, mask: np.ndarray) -> sp.csr_matrix:
    """Zero constrained rows/columns and put ones on their diagonal (symmetric)."""
    free = sp.diags((~mask).astype(float))
    fixed = sp.diags(mask.astype(float))
    return (free @ A @ free + fixed).tocsr()


def apply_dirichlet(system: SparseSystem) -> SparseSystem:
    """Eliminate constrained DoFs with the symmetry-preserving lift.

    Constrained rows/columns become identity rows with the boundary values on
    the right-hand side; interior rows receive the lifted contribution.
    """
    mask = system.dirichlet_mask
    g = np.zeros(len(system.rhs))
    g[mask] = system.dirichlet_values[mask]
    b = system.rhs - system.matrix @ g
    b[mask] = system.dirichlet_values[mask]
    return SparseSystem(
        matrix=constrain_matrix(system.matrix, mask),
        rhs=b,
        dirichlet_mask=mask,
        dirichlet_values=system.dirichlet_values,
    )


def cg_solve(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned conjugate gradients to a relative residual."""
    n = len(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    if max_iterations is None:
        max_iterations = 10 * n
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("matrix diagonal not positive; Jacobi preconditioner invalid")
    inv_diag = 1.0 / diag
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for k in range(1, max_iterations + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            return x, k
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not converge in {max_iterations} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})"
    )


def newton_solve(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    load: LoadSpec,
    config: NewtonConfig | None = None,
    projectors: CellProjectorSet | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton iteration from u = 0 (boundary values applied).

    Stops when the residual norm falls below rel_tol * ||R(u0)|| + abs_tol.
    Raises :class:`SolverError` carrying the last state on failure.
    """
    config = config or NewtonConfig()
    t0 = time.perf_counter()
    ws = workspace or Workspace(mesh, projectors, config.quad_degree)
    A = ws.stiffness(physics)
    F = ws.load_vector(physics, load)
    mask = mesh.boundary_vertex

    u = np.zeros(mesh.n_vertices)
    u[mask] = load.boundary_values(mesh.vertices[mask])

    def residual(state: np.ndarray) -> np.ndarray:
        B, _ = ws.nonlinear(physics, state, with_jacobian=False)
        r = A @ state + B - F
        r[mask] = 0.0
        return r

    report = SolveReport()
    r = residual(u)
    rnorm = float(np.linalg.norm(r))
    report.residual_history.append(rnorm)
    target = config.rel_tol * rnorm + config.abs_tol

    while rnorm > target:
        if report.newton_iterations >= config.max_iterations:
            report.wall_time = time.perf_counter() - t0
            raise SolverError(
                f"Newton did not converge in {config.max_iterations} iterations "
                f"(residual {rnorm:.3e}, target {target:.3e})",
                u=u,
                report=report,
            )
        _, Bmat = ws.nonlinear(physics, u, with_jacobian=True)
        J = constrain_matrix((A + Bmat).tocsr(), mask)
        rhs = -r
        rhs[mask] = 0.0
        delta, cg_iters = cg_solve(J, rhs, config.cg_tol, config.cg_max_iterations)
        report.cg_iterations.append(cg_iters)

        lam = 1.0
        accepted = False
        for _ in range(config.max_halvings + 1):
            trial = u + lam * delta
            try:
                r_trial = residual(trial)
                t_norm = float(np.linalg.norm(r_trial))
            except NonlinearOverflow:
                t_norm = np.inf
            if np.isfinite(t_norm) and t_norm < rnorm:
                accepted = True
                break
            lam *= 0.5
            report.damping_events += 1
        if not accepted:
            report.wall_time = time.perf_counter() - t0
            raise SolverError(
                f"Newton damping exhausted at iteration {report.newton_iterations + 1} "
                f"(residual {rnorm:.3e})",
                u=u,
                report=report,
            )
        u, r, rnorm = trial, r_trial, t_norm
        report.newton_iterations += 1
        report.residual_history.append(rnorm)

    report.converged = True
    report.max_abs_u = float(np.abs(u).max()) if len(u) else 0.0
    report.wall_time = time.perf_counter() - t0
    return u, report
