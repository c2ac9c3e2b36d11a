"""Global assembly, Dirichlet constraints, CG, and the damped Newton driver.

Assembly runs through a per-mesh :class:`Workspace`: the flat quadrature
of :func:`~vempb.polybasis.mesh_quadrature` (contiguous per cell) plus the
projector operators of :func:`~vempb.projectors.build_projectors`.  Every
node sweep (level set, Coulomb field, loads, screened sinh term, error norms)
runs over blocks of about ``BLOCK_NODES`` nodes made of whole cells, so its
temporaries scale with the block, not the mesh.  Each block reduces its rows
per cell with `reduceat` into per-cell arrays; a cell's sum never spans two
blocks, so the summation order, and with it every result, is independent of
the block size.  Every form is then sparse algebra on the operators, such as
the stiffness gather' (grad' eps grad + stab' sigma stab) gather.

The solvent sinh argument of the last residual is kept with its u, so the
Jacobian at the accepted Newton iterate reuses it instead of sweeping again.

The Jacobian of the screened sinh term is positive semidefinite (cosh > 0)
and the stiffness is positive definite on the free DoFs, so every Newton
step is solved with Jacobi-preconditioned conjugate gradients.  Damping
halves the step while the residual norm fails to decrease strictly; an
overflow of the sinh argument during a trial step is treated the same way.
An overflow in the manufactured load or at u0 ends the solve as a failure.
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

# quadrature nodes per sweep block (rounded up to whole cells): every node sweep
# runs block by block, so its temporaries scale with the block, not the mesh
BLOCK_NODES = 2**15
# (i, j), i <= j, of the symmetric per-cell 4x4 moments of (1, xi)
_UPPER_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]


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
        # first cell of each node block: the cell holding node k * BLOCK_NODES, so every
        # block holds whole cells; the last entry closes the last block
        first = np.searchsorted(
            self.cell_ptr, np.arange(0, len(self.weights), BLOCK_NODES), side="right"
        ) - 1
        self.block_cells = np.append(np.unique(first), mesh.n_cells)
        self._physics = None
        self._sinh_at = None

    # -- node blocks -----------------------------------------------------

    def _blocks(self):
        """(cells, nodes, starts) of each node block, in node order.

        ``cells`` and ``nodes`` slice the per-cell and per-node arrays;
        ``starts`` are the block's cell offsets counted from its first node,
        the ``np.add.reduceat`` indices of a block-local array.
        """
        ptr = self.cell_ptr
        for c0, c1 in zip(self.block_cells[:-1], self.block_cells[1:]):
            yield slice(c0, c1), slice(ptr[c0], ptr[c1]), ptr[c0:c1] - ptr[c0]

    def _solvent_blocks(self):
        """Each node block with its solvent mask and its slice of the solvent arrays."""
        for block, solv in zip(self._blocks(), self._solvent_slices):
            yield block, self.solvent[block[1]], solv

    def _cell_sums(self, block_values) -> np.ndarray:
        """Per-cell sums of per-node rows given one block at a time, in block order.

        A block's values have shape (..., block nodes); the sums have shape
        (..., n_cells), each row reduced contiguously.
        """
        out = None
        for (cells, _, starts), values in zip(self._blocks(), block_values):
            sums = np.add.reduceat(values, starts, axis=-1)
            if out is None:
                out = np.empty(sums.shape[:-1] + (self.mesh.n_cells,))
            out[..., cells] = sums
        return out

    # -- physics cache ---------------------------------------------------

    def _attach(self, physics: PhysicsConfig) -> None:
        """Evaluate the level set once per physics; kappa_bar^2 > 0 only on ``solvent``."""
        if self._physics is physics:
            return
        self._sinh_at = None
        self.solvent = np.concatenate(
            [physics.solvent_mask(self.points[nodes]) for _, nodes, _ in self._blocks()]
        )
        counts = [np.count_nonzero(self.solvent[nodes]) for _, nodes, _ in self._blocks()]
        ptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        self._solvent_slices = [slice(a, b) for a, b in zip(ptr[:-1], ptr[1:])]
        screened = physics.kappa_bar_sq_solvent > 0 and ptr[-1] > 0
        self.G_solvent = np.concatenate([
            physics.coulomb_potential(self.points[nodes][mask])
            for (_, nodes, _), mask, solv in self._solvent_blocks() if solv.stop > solv.start
        ]) if screened else None
        self._physics = physics

    def _epsilon(self, physics: PhysicsConfig, nodes: slice) -> np.ndarray:
        return np.where(self.solvent[nodes], physics.eps_s, physics.eps_m)

    # -- assembly --------------------------------------------------------

    def stiffness(self, physics: PhysicsConfig) -> sp.csr_matrix:
        """Projected-gradient consistency term plus a dofi-dofi stabilization.

        The stabilization is scaled by h_E times the cell-averaged dielectric,
        which keeps the two parts spectrally comparable for any contrast.
        """
        self._attach(physics)
        eps_int = self._cell_sums(
            self.weights[nodes] * self._epsilon(physics, nodes) for _, nodes, _ in self._blocks()
        )
        sigma = self.mesh.cell_diameter * eps_int / self.mesh.cell_volume
        P = self.projectors
        consistency = P.grad.T @ (sp.diags(np.repeat(eps_int, 3)) @ P.grad)
        n_dofs = np.diff(self.mesh.cell_vertex_ptr)
        stabilization = P.stab.T @ (sp.diags(np.repeat(sigma, n_dofs)) @ P.stab)
        return (P.gather.T @ (consistency + stabilization) @ P.gather).tocsr()

    def load_vector(self, physics: PhysicsConfig, load: LoadSpec) -> np.ndarray:
        """Load vector F; raises NonlinearOverflow if a manufactured sinh argument is too large."""
        self._attach(physics)
        P = self.projectors
        if load.mode == "regularized":
            flux = self._cell_sums(
                self._jump_flux(physics, nodes, mask) for (_, nodes, _), mask, _ in
                self._solvent_blocks()
            )
            return P.gather.T @ (P.grad.T @ flux.T.ravel())

        def integrands():
            """Per block: 3 flux rows, then the 4 moment rows of the source."""
            for (_, nodes, _), mask, solv in self._solvent_blocks():
                w = self.weights[nodes]
                points = self.points[nodes]
                sinh = self._exact_sinh(physics, load, points, mask, solv)
                if load.pointwise_rhs:
                    f = -self._epsilon(physics, nodes) * load.lap_u_exact(points)
                    source = w * (f + sinh)
                    flux = self._jump_flux(physics, nodes, mask)
                else:
                    flux = (w * self._epsilon(physics, nodes))[:, None] * load.grad_u_exact(points)
                    flux = flux.T
                    source = w * sinh
                yield np.vstack([flux, self._weighted_monomials(source, nodes, 4)])

        sums = self._cell_sums(integrands())
        return P.gather.T @ (P.grad.T @ sums[:3].T.ravel() + P.pi.T @ sums[3:].T.ravel())

    def _exact_sinh(self, physics, load, points, mask, solv) -> np.ndarray:
        """kappa_bar^2 sinh(u_exact + G) at a block's nodes, zero where kappa_bar vanishes."""
        s = np.zeros(len(points))
        if self.G_solvent is not None and solv.stop > solv.start:
            arg = load.u_exact(points[mask]) + self.G_solvent[solv]
            _check_sinh_argument(arg)
            s[mask] = physics.kappa_bar_sq_solvent * np.sinh(arg)
        return s

    def _jump_flux(self, physics: PhysicsConfig, nodes: slice, mask: np.ndarray) -> np.ndarray:
        """Rows of -(eps - eps_m) grad G times the weights at a block's nodes, 0 off the solvent."""
        vec = np.zeros((3, nodes.stop - nodes.start))
        if mask.any():
            vec[:, mask] = (
                -(physics.eps_s - physics.eps_m)
                * self.weights[nodes][mask]
                * physics.coulomb_gradient(self.points[nodes][mask]).T
            )
        return vec

    def _screened_sinh(self, physics: PhysicsConfig, u: np.ndarray):
        """Solvent sinh argument Pi0 u + G and the screened-sinh vector B at u.

        Both are kept for the next call at the same u, so the Jacobian at an
        accepted Newton step reuses its residual's sweep; ``_attach`` drops
        them with the physics and ``newton_solve`` before it returns.
        """
        if self._sinh_at is not None and np.array_equal(self._sinh_at[0], u):
            return self._sinh_at[1:]
        self._sinh_at = None
        coeffs = self.projectors.value_coeffs(u)
        arg = np.empty(len(self.G_solvent))

        def moments():
            for (_, nodes, _), mask, solv in self._solvent_blocks():
                c = coeffs.take(self.cop[nodes], axis=0)
                values = c[:, 0] + np.einsum("pj,pj->p", self.xi[nodes], c[:, 1:])
                arg[solv] = values[mask] + self.G_solvent[solv]
                _check_sinh_argument(arg[solv])
                s = self._screened(physics, nodes, mask, np.sinh(arg[solv]))
                yield self._weighted_monomials(s, nodes, 4)

        mom = self._cell_sums(moments())
        P = self.projectors
        B = P.gather.T @ (P.pi.T @ mom.T.ravel())
        self._sinh_at = (u.copy(), arg, B)
        return arg, B

    def _screened(self, physics, nodes: slice, mask: np.ndarray, values) -> np.ndarray:
        """weights * kappa_bar^2 * values on a block's solvent nodes, zero elsewhere."""
        s = np.zeros(nodes.stop - nodes.start)
        s[mask] = self.weights[nodes][mask] * physics.kappa_bar_sq_solvent * values
        return s

    def _weighted_monomials(self, s: np.ndarray, nodes: slice, rows: int) -> np.ndarray:
        """Rows s * e_i * e_j of the monomials e = (1, xi) at a block's nodes.

        The rows follow _UPPER_PAIRS: the first 4 integrate to the moments
        of s, all 10 to the symmetric 4x4 of s (1, xi) (x) (1, xi).
        """
        xi = self.xi[nodes].T
        out = np.empty((rows, len(s)))
        out[0] = s
        np.multiply(s, xi, out=out[1:4])
        for row in range(4, rows):
            i, j = _UPPER_PAIRS[row]
            np.multiply(out[i], xi[j - 1], out=out[row])
        return out

    def nonlinear(
        self, physics: PhysicsConfig, u: np.ndarray, with_jacobian: bool = True
    ) -> tuple[np.ndarray, sp.csr_matrix | None]:
        """Global screened-sinh residual and (optionally) its Jacobian."""
        self._attach(physics)
        n = self.mesh.n_vertices
        if self.G_solvent is None:
            B = np.zeros(n)
            return B, (sp.csr_matrix((n, n)) if with_jacobian else None)
        arg, B = self._screened_sinh(physics, u)
        if not with_jacobian:
            return B.copy(), None
        sums = self._cell_sums(
            self._weighted_monomials(self._screened(physics, nodes, mask, np.cosh(arg[solv])),
                                     nodes, len(_UPPER_PAIRS))
            for (_, nodes, _), mask, solv in self._solvent_blocks()
        )
        M = np.empty((self.mesh.n_cells, 4, 4))
        for col, (i, j) in enumerate(_UPPER_PAIRS):
            M[:, i, j] = M[:, j, i] = sums[col]
        cells = np.arange(self.mesh.n_cells + 1)
        Mb = sp.bsr_matrix((M, cells[:-1], cells), shape=(4 * len(M), 4 * len(M)))
        P = self.projectors
        return B.copy(), (P.gather.T @ (P.pi.T @ (Mb @ P.pi)) @ P.gather).tocsr()

    def error_norms(self, u: np.ndarray, u_exact, grad_u_exact) -> tuple[float, float]:
        """L2 and H1-seminorm errors of the projected solution against exact fields.

        The exact callables get one node block at a time, the same points
        array for both.
        """
        coeffs, grads = self.projectors.value_coeffs(u), self.projectors.gradients(u)
        sq, gsq = np.empty(len(self.weights)), np.empty(len(self.weights))
        for _, nodes, _ in self._blocks():
            points, cop = self.points[nodes], self.cop[nodes]
            c = coeffs.take(cop, axis=0)
            diff = u_exact(points) - (c[:, 0] + np.einsum("pj,pj->p", self.xi[nodes], c[:, 1:]))
            sq[nodes] = diff**2
            gdiff = grad_u_exact(points) - grads.take(cop, axis=0)
            gsq[nodes] = (gdiff**2).sum(axis=1)
        return float(np.sqrt(self.weights @ sq)), float(np.sqrt(self.weights @ gsq))


def _check_sinh_argument(arg: np.ndarray) -> None:
    amax = float(np.abs(arg).max()) if len(arg) else 0.0
    if amax > SINH_ARG_LIMIT:
        raise NonlinearOverflow(f"sinh argument {amax:.3g} exceeds {SINH_ARG_LIMIT:g}")


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
    Every failure, an overflow in the load or at u0 included, raises
    :class:`SolverError` carrying the last accepted iterate (u0 before the
    first step) and the report so far.
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
    try:
        A = ws.stiffness(physics)
        if not np.all(np.isfinite(A.data)):
            raise failure("non-finite stiffness entry")
        try:
            F = ws.load_vector(physics, load)
        except NonlinearOverflow as exc:
            raise failure(f"load: {exc}") from exc
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
    finally:
        ws._sinh_at = None    # the kept sinh argument is as large as G_solvent
