"""Global assembly, Dirichlet constraints, CG, and the damped Newton driver.

Assembly runs through a per-mesh :class:`Workspace`: the flat quadrature
of :func:`~vempb.polybasis.mesh_quadrature` (contiguous per cell) plus the
projector operators of :func:`~vempb.projectors.build_projectors`.  Node
sweeps reduce per cell with `reduceat`, which keeps the summation order fixed
and the results deterministic; every form is then sparse algebra on the
operators, such as the stiffness gather' (grad' eps grad + stab' sigma stab) gather.

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
import scipy.sparse.linalg as spla

from .forms import LoadSpec, NonlinearOverflow, PhysicsConfig, SINH_ARG_LIMIT
from .mesh import PolyMesh
from .polybasis import mesh_quadrature
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


class Workspace:
    """Flat quadrature and projector operators for fast repeated assembly."""

    def __init__(self, mesh: PolyMesh, projectors: CellProjectorSet | None = None):
        self.mesh = mesh
        self.projectors = projectors if projectors is not None else build_projectors(mesh)

        self.points, self.weights, self.xi, self.cop, self.cell_ptr = mesh_quadrature(mesh)
        # the distinct DoF counts; perfbench reports len(groups) as projectors.dof_groups
        self.groups = np.unique(np.diff(mesh.cell_vertex_ptr))
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
        """Evaluate the level set once per physics; kappa_bar^2 > 0 only on ``solvent``."""
        if self._physics is physics:
            return
        self.solvent = physics.solvent_mask(self.points)
        screened = physics.kappa_bar_sq_solvent > 0 and self.solvent.any()
        self.G_solvent = physics.coulomb_potential(self.points[self.solvent]) if screened else None
        self._physics = physics

    def _epsilon(self, physics: PhysicsConfig) -> np.ndarray:
        return np.where(self.solvent, physics.eps_s, physics.eps_m)

    # -- assembly --------------------------------------------------------

    def stiffness(self, physics: PhysicsConfig) -> sp.csr_matrix:
        """Projected-gradient consistency term plus a dofi-dofi stabilization.

        The stabilization is scaled by h_E times the cell-averaged dielectric,
        which keeps the two parts spectrally comparable for any contrast.
        """
        self._attach(physics)
        eps_int = self.cell_sums(self.weights * self._epsilon(physics))
        sigma = self.mesh.cell_diameter * eps_int / self.mesh.cell_volume
        P = self.projectors
        consistency = P.grad.T @ (sp.diags(np.repeat(eps_int, 3)) @ P.grad)
        n_dofs = np.diff(self.mesh.cell_vertex_ptr)
        stabilization = P.stab.T @ (sp.diags(np.repeat(sigma, n_dofs)) @ P.stab)
        return (P.gather.T @ (consistency + stabilization) @ P.gather).tocsr()

    def load_vector(self, physics: PhysicsConfig, load: LoadSpec) -> np.ndarray:
        self._attach(physics)
        w = self.weights
        P = self.projectors
        if load.mode == "regularized":
            return P.gather.T @ (P.grad.T @ self._jump_flux(physics).ravel())

        if load.pointwise_rhs:
            f = -self._epsilon(physics) * load.lap_u_exact(self.points)
            mom = self.moments4(w * (f + self._exact_sinh(physics, load)))
            flux = self._jump_flux(physics)
        else:
            flux = self.cell_sums(
                (w * self._epsilon(physics))[:, None] * load.grad_u_exact(self.points)
            )
            mom = self.moments4(w * self._exact_sinh(physics, load))
        return P.gather.T @ (P.grad.T @ flux.ravel() + P.pi.T @ mom.ravel())

    def _exact_sinh(self, physics: PhysicsConfig, load: LoadSpec) -> np.ndarray:
        """kappa_bar^2 sinh(u_exact + G) at every node, zero where kappa_bar vanishes."""
        s = np.zeros(len(self.weights))
        if self.G_solvent is not None:
            s[self.solvent] = physics.kappa_bar_sq_solvent * np.sinh(
                load.u_exact(self.points[self.solvent]) + self.G_solvent
            )
        return s

    def _jump_flux(self, physics: PhysicsConfig) -> np.ndarray:
        """Per-cell integral of -(eps - eps_m) grad G over the solvent points."""
        vec = np.zeros_like(self.points)
        solvent = self.solvent
        if solvent.any():
            vec[solvent] = (
                -(physics.eps_s - physics.eps_m)
                * self.weights[solvent, None]
                * physics.coulomb_gradient(self.points[solvent])
            )
        return self.cell_sums(vec)

    def projected_values(self, u: np.ndarray) -> np.ndarray:
        """Pointwise values of the cellwise projection of u at all quadrature nodes."""
        c = self.projectors.value_coeffs(u).take(self.cop, axis=0)
        return c[:, 0] + np.einsum("pj,pj->p", self.xi, c[:, 1:])

    def nonlinear(
        self, physics: PhysicsConfig, u: np.ndarray, with_jacobian: bool = True
    ) -> tuple[np.ndarray, sp.csr_matrix | None]:
        """Global screened-sinh residual and (optionally) its Jacobian."""
        self._attach(physics)
        n = self.mesh.n_vertices
        if self.G_solvent is None:
            B = np.zeros(n)
            return B, (sp.csr_matrix((n, n)) if with_jacobian else None)
        arg = self.projected_values(u)[self.solvent] + self.G_solvent
        amax = float(np.abs(arg).max())
        if amax > SINH_ARG_LIMIT:
            raise NonlinearOverflow(
                f"sinh argument {amax:.3g} exceeds {SINH_ARG_LIMIT:g}"
            )
        wk = self.weights[self.solvent] * physics.kappa_bar_sq_solvent
        s = np.zeros(len(self.weights))
        s[self.solvent] = wk * np.sinh(arg)
        P = self.projectors
        B = P.gather.T @ (P.pi.T @ self.moments4(s).ravel())
        if not with_jacobian:
            return B, None

        s[self.solvent] = wk * np.cosh(arg)
        M = np.empty((self.mesh.n_cells, 4, 4))
        for i in range(4):
            for j in range(i, 4):
                xi_i = 1.0 if i == 0 else self.xi[:, i - 1]
                xi_j = 1.0 if j == 0 else self.xi[:, j - 1]
                M[:, i, j] = M[:, j, i] = np.add.reduceat(s * xi_i * xi_j, self.cell_ptr[:-1])
        cells = np.arange(self.mesh.n_cells + 1)
        Mb = sp.bsr_matrix((M, cells[:-1], cells), shape=(4 * len(M), 4 * len(M)))
        return B, (P.gather.T @ (P.pi.T @ (Mb @ P.pi)) @ P.gather).tocsr()

    def error_norms(self, u: np.ndarray, u_exact, grad_u_exact) -> tuple[float, float]:
        """L2 and H1-seminorm errors of the projected solution against exact fields."""
        diff = u_exact(self.points) - self.projected_values(u)
        e2 = float(self.weights @ diff**2)
        gdiff = grad_u_exact(self.points) - self.projectors.gradients(u).take(self.cop, axis=0)
        e1 = float(self.weights @ (gdiff**2).sum(axis=1))
        return float(np.sqrt(e2)), float(np.sqrt(e1))


# ---------------------------------------------------------------------------
# public assembly API


def assemble_residual(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    load: LoadSpec,
    u: np.ndarray,
    A: sp.csr_matrix | None = None,
    F: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """R(u) = A u + B(u) - F with Dirichlet rows zeroed."""
    ws = workspace or Workspace(mesh)
    if A is None:
        A = ws.stiffness(physics)
    if F is None:
        F = ws.load_vector(physics, load)
    B, _ = ws.nonlinear(physics, u, with_jacobian=False)
    r = A @ u + B - F
    r[mesh.boundary_vertex] = 0.0
    return r


def constrain_matrix(A: sp.csr_matrix, mask: np.ndarray) -> sp.csr_matrix:
    """Zero constrained rows/columns and put ones on their diagonal (symmetric)."""
    free = sp.diags((~mask).astype(float))
    fixed = sp.diags(mask.astype(float))
    return (free @ A @ free + fixed).tocsr()


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
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    # scipy tests the residual before each iteration, so it needs one pass more
    # to accept an iterate that converges on the last allowed iteration; with
    # maxiter = 0 it would return x = 0 as converged
    x, info = spla.cg(
        A, b, rtol=tol, atol=0.0, maxiter=max(max_iterations, 0) + 1, M=sp.diags(1.0 / diag),
        callback=count,
    )
    if info != 0:
        raise SolverError(
            f"CG did not converge in {max_iterations} iterations "
            f"(relative residual {np.linalg.norm(b - A @ x) / bnorm:.3e})"
        )
    return x, iterations


def newton_solve(
    mesh: PolyMesh,
    physics: PhysicsConfig,
    load: LoadSpec,
    config: NewtonConfig | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton iteration from u = 0 (boundary values applied).

    Stops when the residual norm falls below rel_tol * ||R(u0)|| + abs_tol.
    Every failure raises :class:`SolverError` carrying the last accepted
    iterate (u0 before the first step) and the report so far.
    """
    config = config or NewtonConfig()
    t0 = time.perf_counter()
    mask = mesh.boundary_vertex
    u = np.zeros(mesh.n_vertices)
    u[mask] = load.boundary_values(mesh.vertices[mask])
    report = SolveReport()

    def failure(message: str) -> SolverError:
        # u is read when the error is built: the last accepted iterate
        report.wall_time = time.perf_counter() - t0
        return SolverError(message, u=u, report=report)

    ws = workspace or Workspace(mesh)
    A = ws.stiffness(physics)
    if not np.all(np.isfinite(A.data)):
        raise failure("non-finite stiffness entry")
    F = ws.load_vector(physics, load)
    try:
        r = assemble_residual(mesh, physics, load, u, A=A, F=F, workspace=ws)
    except NonlinearOverflow as exc:
        raise failure(f"initial state: {exc}") from exc
    rnorm = float(np.linalg.norm(r))
    report.residual_history.append(rnorm)
    target = config.rel_tol * rnorm + config.abs_tol

    while rnorm > target:
        if report.newton_iterations >= config.max_iterations:
            raise failure(
                f"Newton did not converge in {config.max_iterations} iterations "
                f"(residual {rnorm:.3e}, target {target:.3e})"
            )
        _, Bmat = ws.nonlinear(physics, u, with_jacobian=True)
        J = constrain_matrix((A + Bmat).tocsr(), mask)
        rhs = -r
        rhs[mask] = 0.0
        try:
            delta, cg_iters = cg_solve(J, rhs, config.cg_tol, config.cg_max_iterations)
        except SolverError as exc:
            raise failure(f"Newton iteration {report.newton_iterations + 1}: {exc}") from exc
        report.cg_iterations.append(cg_iters)

        lam = 1.0
        accepted = False
        for _ in range(config.max_halvings + 1):
            trial = u + lam * delta
            try:
                r_trial = assemble_residual(mesh, physics, load, trial, A=A, F=F, workspace=ws)
                t_norm = float(np.linalg.norm(r_trial))
            except NonlinearOverflow:
                t_norm = np.inf
            if np.isfinite(t_norm) and t_norm < rnorm:
                accepted = True
                break
            lam *= 0.5
            report.damping_events += 1
        if not accepted:
            raise failure(
                f"Newton damping exhausted at iteration {report.newton_iterations + 1} "
                f"(residual {rnorm:.3e})"
            )
        u, r, rnorm = trial, r_trial, t_norm
        report.newton_iterations += 1
        report.residual_history.append(rnorm)

    report.converged = True
    report.max_abs_u = float(np.abs(u).max()) if len(u) else 0.0
    report.wall_time = time.perf_counter() - t0
    return u, report
