"""Global assembly, CG, and the damped Newton driver on the free DoFs.

Assembly runs through a per-mesh :class:`Workspace`: the flat quadrature
of :func:`mesh_quadrature` (contiguous per cell) plus the
projector operator pi of :func:`~vempb.projectors.build_projectors`.  Every
node sweep (the physics state, loads, screened sinh term, error norms)
runs over blocks of about ``BLOCK_NODES`` nodes made of whole cells, so its
temporaries scale with the block, not the mesh.  Each block reduces its rows
per cell with `reduceat` into per-cell arrays; a cell's sum never spans two
blocks, so the summation order, and with it every result, is independent of
the block size.

The stiffness and the Jacobian are sums of small dense cell blocks over
each cell's D DoFs: eps_E grad_E' grad_E + sigma_E stab_E' stab_E and
pi_E' M_E pi_E.  pi_E (4, D) is read straight from pi's CSR rows, which are
contiguous per cell, and grad_E = pi_E[1:] / h_E (3, D) and stab_E =
I - D_E pi_E (D, D), D_E the values of (1, xi) at the cell's vertices, are
formed from it.  The Workspace's block pattern, built from the mesh alone
on its first assembly, holds the cells grouped by DoF count, the CSR
pattern and its free-DoF sub-block, and assembles every matrix: a group's
blocks are batched matrix products, and their upper triangles, in the
matrix's upper triangle as each cell's DoF ids are sorted, sum into the
pattern with one ``bincount``.  An entry and its transpose read the same
sum, so both matrices are exactly symmetric.  A and J share the pattern,
so A + J restricted to the free DoFs is one data add and one gather.  The
loads are one product with pi': grad' flux is pi' of the flux over h_E in
the linear rows.

The field sweeps of the manufactured load and of the error norms, where
the exact field and its gradient are evaluated at every node, run their
blocks on a thread pool with one worker per CPU of the process, one
worker on one CPU.  Each such sweep starts its own pool and joins its
threads before it returns, so no thread outlives a sweep and nothing needs
handling at fork.  Each block is reduced on its own and the results are
taken in block order, so every output is bit-identical to the serial
sweep.  The exact-field callables (``u_exact``, ``grad_u_exact`` and those
passed to :meth:`Workspace.error_norms`) are the only caller code that
runs on the pool's threads, and they may be called from several threads
at once, one block per call.  :class:`~vempb.forms.PhysicsConfig` methods
run only on the calling thread: the physics state (level set, dielectric
and G) is evaluated before any pooled sweep, and every sweep that calls one
(the physics state, the regularized flux) stays serial, as do the sinh and
cosh sweeps: pooled, Kuhn 6 and 12 solves (q = 5, kappa = 4) took 1.26 s,
not 0.92 s, on 2 CPUs.

Each cell is split into the cone tetrahedra (x_E, x_f, v_i, v_i+1) of
:func:`~vempb.mesh._cone_tets`, and one rule is mapped onto each from the
reference tetrahedron: the classical positive 14-point rule, exact to total
degree 5.  Its weights are strictly positive, so pointwise inequalities
(e.g. monotone nonlinearities) survive discretization.

Every node is the image of one of the NQ reference points r_q under its
cone tet t, and all tets of a cell share the apex x_E, so xi = r C_t is
linear with the tet's map C_t, and w = det_t w_q.  A block's node values
are therefore a (tets, NQ) array, and the sweeps run through fixed tables
of the reference rule: Pi0 u at the nodes is the per-tet coefficients
(c0, C_t c) times the table of (1, r); the moments of s (1, xi) and
s (1, xi) (x) (1, xi) are s times the tables w (1, r) and w (1, r) (x) (1, r),
then the congruence with blockdiag(1, C_t), scaled by det_t, summed over
each cell's tets.  The load fluxes and the squared errors are integrated
with the weight row of the same table, times det_t.  The per-tet maps are
row formulas on (k, tets) rows.

A physics state is evaluated at the nodes once, in one sweep, when a form
first reads it: the solvent mask of the nodes, the integral of the
dielectric over each cell, summed node by node, and the Coulomb field G.
Its key is the physics and its level set (by identity) with eps_m, eps_s,
kappa_bar^2 and the charges, so an in-place change of any of them is seen.
G is held at node length, 0 off the solvent, and the sinh argument
Pi0 u [solvent] + G is therefore 0 there: sinh needs no mask and cosh is
masked by [solvent], with no index arrays over the solvent nodes.  One
sweep per Newton trial forms the argument once and takes both the cell
moments of sinh, whose product with pi' is B, and the masked-cosh cell
blocks M_E; the argument lives only for its block.  The Jacobian is
assembled only from the blocks of an accepted step, so a rejected trial and
the converged iterate pay for their cosh rows but never for an assembly.

The Jacobian of the screened sinh term is positive semidefinite (cosh > 0)
and the stiffness is positive definite on the free DoFs, so every Newton
step is solved with Jacobi-preconditioned conjugate gradients.  u0 holds
the Dirichlet values, and Newton and CG work on the free DoFs only.  Damping
halves the step while the residual norm fails to decrease strictly; an
overflow of the sinh argument during a trial step is treated the same way.
An overflow in the manufactured load or at u0 ends the solve as a failure.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import LoadSpec, NonlinearOverflow, PhysicsConfig, SINH_ARG_LIMIT
from .mesh import MeshError, PolyMesh, _cone_tets, _segments_by_length
from .projectors import CellProjectorSet, build_projectors


def _tet_orbit_s31(a: float) -> np.ndarray:
    pts = np.full((4, 4), a)
    np.fill_diagonal(pts, 1.0 - 3.0 * a)
    return pts


def _tet_orbit_s22(a: float) -> np.ndarray:
    b = 0.5 - a
    return np.array(sorted(set(permutations((a, a, b, b)))))


# Points and weights on the unit tetrahedron, exact for total degree <= 5;
# the points are the last three barycentric coordinates of the orbits.
REFERENCE_TET_POINTS = np.vstack([
    _tet_orbit_s31(0.09273525031089123),
    _tet_orbit_s31(0.31088591926330050),
    _tet_orbit_s22(0.04550370412564962),
])[:, 1:]
REFERENCE_TET_WEIGHTS = np.concatenate([
    np.full(4, 0.012248840519393658),
    np.full(4, 0.018781320953002642),
    np.full(6, 0.007091003462846911),
])

# quadrature nodes per sweep block (rounded up to whole cells): every node sweep
# runs block by block, so its temporaries scale with the block, not the mesh
BLOCK_NODES = 2**15
# (i, j), i <= j, of the symmetric per-cell 4x4 moments of (1, xi), and the rows of
# the (r_i, r_k) moments, k = 0..2, for each i
_UPPER_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]
_Q_ROWS = [[_UPPER_PAIRS.index((1 + min(i, k), 1 + max(i, k))) for k in range(3)]
           for i in range(3)]
# nodes per cone tet, and the fixed tables of the reference rule: the values of
# e = (1, r) at its points, and the weighted products w e_i e_j over _UPPER_PAIRS
# (the first four rows are w (1, r)), whose products with a tet's node values are
# its moments on the reference tet
NQ = len(REFERENCE_TET_WEIGHTS)
_REF_VALUES = np.vstack([np.ones(NQ), REFERENCE_TET_POINTS.T])
_REF_MOMENTS = np.array([REFERENCE_TET_WEIGHTS * _REF_VALUES[i] * _REF_VALUES[j]
                         for i, j in _UPPER_PAIRS])


def _sweep_threads() -> int:
    """Threads of a pooled sweep: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):    # the affinity mask, where the OS has one
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, items) -> list:
    """``list(map(fn, items))`` on one worker per CPU, joined before it returns."""
    with ThreadPoolExecutor(_sweep_threads(), thread_name_prefix="vempb-sweep") as pool:
        return list(pool.map(fn, items))


def mesh_quadrature(mesh: PolyMesh):
    """Positive-weight rule over every cell, exact for total degree <= 5.

    The reference rule is mapped onto every cone tet of :func:`_cone_tets`.
    Returns flat ``points``, ``weights`` (carrying the volume measure),
    ``xi`` = (points - x_E)/h_E, the cell of every node ``cop`` and
    ``cell_ptr``: the nodes of cell ci are ``cell_ptr[ci]:cell_ptr[ci + 1]``.
    ``points`` and ``xi`` have shape (nodes, 3) and are Fortran-ordered, so
    each coordinate is one contiguous column.  A non-positive tetrahedron
    means the cell is not star-shaped with respect to its centroid.

    Node k of cone tet t = k // NQ is the image of reference point r_q,
    q = k % NQ, so the last two returns carry the map of every tet: its
    edge rows from the apex x_E over h_E, ``maps`` (3, 3, tets) with
    xi_j = sum_i r_i maps[i, j, t], and ``dets`` (tets,), the Jacobian
    determinants, with ``weights`` = dets_t * REFERENCE_TET_WEIGHTS[q].
    A cell's tets are ``cell_ptr[ci] // NQ:cell_ptr[ci + 1] // NQ``.
    """
    corner_cell, origin, basis, dets = _cone_tets(mesh)
    if np.any(dets <= 0):
        ci = int(corner_cell[int(np.argmax(dets <= 0))])
        raise MeshError(f"cell {ci} not star-shaped w.r.t. centroid", cell=ci)
    # coordinate rows (3, T, NQ): offsets from x_E, written through a (T, NQ, 3) view
    offset = np.empty((3, len(basis), NQ))
    np.matmul(REFERENCE_TET_POINTS, basis, out=offset.transpose(1, 2, 0))
    points = offset + origin.T[:, :, None]
    weights = (dets[:, None] * REFERENCE_TET_WEIGHTS).ravel()   # reference weights sum to 1/6
    tets_per_cell = np.bincount(corner_cell, minlength=mesh.n_cells)
    cell_ptr = np.concatenate([[0], np.cumsum(tets_per_cell * NQ)])
    cop = np.repeat(np.arange(mesh.n_cells, dtype=np.int64), tets_per_cell * NQ)
    h = mesh.cell_diameter[corner_cell]
    offset /= h[None, :, None]
    maps = basis.transpose(1, 2, 0) / h
    return (points.reshape(3, -1).T, weights, offset.reshape(3, -1).T, cop, cell_ptr,
            maps, dets)


# besides tests, only perfbench/ reads this (analysis.cell_quadrature); it goes with ROADMAP item 1
def cell_quadrature(mesh: PolyMesh, ci: int):
    """Points and weights of cell ``ci``: its slice of :func:`mesh_quadrature`."""
    points, weights, _, _, cell_ptr, *_ = mesh_quadrature(mesh)
    nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
    return points[nodes], weights[nodes]


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
    cg_max_iterations: int | None = None     # defaults to 10 * the number of free DoFs

    def __post_init__(self):
        if not all(0 < tol < np.inf for tol in (self.rel_tol, self.abs_tol, self.cg_tol)):
            raise ValueError("tolerances must be positive and finite")
        if min(self.max_iterations, self.max_halvings, self.cg_max_iterations or 0) < 0:
            raise ValueError("iteration and halving limits must not be negative")


@dataclass
class SolveReport:
    converged: bool = False
    newton_iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    cg_iterations: list[int] = field(default_factory=list)
    damping_events: int = 0
    wall_time: float = 0.0
    max_abs_u: float = 0.0


@dataclass(frozen=True)
class _BlockPattern:
    """A mesh's cells by DoF count, and the CSR pattern their blocks sum into.

    ``groups`` holds per DoF count D the cells ``idx``, their DoF positions
    ``at`` (cells, D) in ``mesh.cell_vertex`` and the flat index a * D + b of
    each upper block entry (a, b), a <= b, which lies in the pattern's upper
    triangle as a cell's DoF ids are sorted.  ``slot`` gives the upper entry
    of each, in the order :meth:`matrix` takes them.  ``full`` is the
    pattern, whose data give each entry's upper entry, so an entry and its
    transpose hold the same sum; ``free`` is its free-DoF sub-block, whose
    data give each entry's position in ``full``.  The index arrays are
    read-only, as every matrix on the pattern shares them.
    """

    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    slot: np.ndarray
    full: sp.csr_matrix
    free: sp.csr_matrix

    def matrix(self, blocks) -> sp.csr_matrix:
        """The (n_vertices, n_vertices) sum of the cell blocks that ``blocks`` returns.

        ``blocks(idx, at)`` gets one group's cells and DoF positions and
        returns their symmetric blocks (cells, D, D), of which the upper
        triangles are summed.
        """
        # np.take: fancy indexing is several times slower on many short rows
        upper = [np.take(blocks(idx, at).reshape(len(idx), -1), tri, axis=1)
                 for idx, at, tri in self.groups]
        data = np.bincount(self.slot, np.concatenate(upper, axis=None))[self.full.data]
        return sp.csr_matrix((data, self.full.indices, self.full.indptr), shape=self.full.shape)

    def free_matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The (free, free) sub-block of the matrix with the pattern's ``data``."""
        return sp.csr_matrix((data[self.free.data], self.free.indices, self.free.indptr),
                             shape=self.free.shape)


def _block_pattern(mesh: PolyMesh) -> _BlockPattern:
    """The cells by DoF count, the union of their DoF cliques and each upper entry's slot."""
    nv = mesh.n_vertices
    groups, keys = [], []
    for idx, at in _segments_by_length(mesh.cell_vertex_ptr):
        d = at.shape[1]
        ids = mesh.cell_vertex[at]
        a, b = np.triu_indices(d)
        groups.append((idx, at, a * d + b))
        keys.append((ids[:, a] * nv + ids[:, b]).ravel())
    upper, slot = np.unique(np.concatenate(keys), return_inverse=True)
    rows, cols = np.divmod(upper, nv)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nv))])
    # each upper entry holds its number + 1 (never 0, which a sum or a slice would drop);
    # adding the strict upper triangle transposed gives every entry its upper entry's number
    U = sp.csr_matrix((np.arange(1, len(upper) + 1), cols, indptr), shape=(nv, nv))
    full = U + sp.triu(U, k=1, format="csr").T
    full.data -= 1
    # likewise every entry's position + 1, sliced to the free DoFs
    position = sp.csr_matrix((np.arange(1, full.nnz + 1), full.indices, full.indptr),
                             shape=full.shape)
    free = ~mesh.boundary_vertex
    sub = position[free][:, free]
    sub.data -= 1
    for index in (full.indices, full.indptr, sub.indices, sub.indptr,
                  *(array for group in groups for array in group)):
        index.setflags(write=False)
    return _BlockPattern(groups, slot, full, sub)


def _cell_pi(pi: sp.csr_matrix, cells: np.ndarray, dofs: int) -> np.ndarray:
    """The projector rows pi_E of ``cells``, all with ``dofs`` DoFs: (cells, 4, dofs).

    A cell's 4 rows reach its DoFs in order, so they are ``4 * dofs``
    consecutive entries of ``pi.data``.
    """
    at = pi.indptr[4 * cells][:, None] + np.arange(4 * dofs)
    return pi.data[at].reshape(-1, 4, dofs)


class Workspace:
    """Flat quadrature and the projector operator for fast repeated assembly.

    It also holds the last physics state it was given, evaluated at its
    nodes: the solvent mask, each cell's integral of the dielectric and G.
    A form that reads a changed state, eps_s included, evaluates it again.
    """

    def __init__(self, mesh: PolyMesh, projectors: CellProjectorSet | None = None):
        if projectors is not None and projectors.mesh is not mesh:
            raise ValueError("projectors were built on another mesh")
        self.mesh = mesh
        self.projectors = projectors if projectors is not None else build_projectors(mesh)

        # besides tests, only perfbench/ reads xi and cop; they go with ROADMAP item 1
        (self.points, self.weights, self.xi, self.cop, self.cell_ptr,
         self.maps, self.dets) = mesh_quadrature(mesh)
        self._tet_ptr = self.cell_ptr // NQ
        self._cell_tets = np.diff(self._tet_ptr)
        # the distinct DoF counts; perfbench reports len(groups) as projectors.dof_groups
        self.groups = np.unique(np.diff(mesh.cell_vertex_ptr))
        # first cell of each node block: the cell holding node k * BLOCK_NODES, so every
        # block holds whole cells; the last entry closes the last block
        first = np.searchsorted(
            self.cell_ptr, np.arange(0, len(self.weights), BLOCK_NODES), side="right"
        ) - 1
        self.block_cells = np.append(np.unique(first), mesh.n_cells)
        self._physics_key = None

    # -- node blocks -----------------------------------------------------

    def _blocks(self):
        """(cells, nodes, tets) of each node block, in node order.

        Each slices the per-cell, per-node and per-tet arrays; the block's
        node values reshape to (tets, NQ).
        """
        ptr = self._tet_ptr
        for c0, c1 in zip(self.block_cells[:-1], self.block_cells[1:]):
            yield slice(c0, c1), slice(NQ * ptr[c0], NQ * ptr[c1]), slice(ptr[c0], ptr[c1])

    def _cell_sums(self, block, pooled: bool = False) -> np.ndarray:
        """Per-cell sums of the per-tet rows ``block(cells, nodes, tets)`` returns.

        A block's rows have shape (..., block tets); the sums have shape
        (..., n_cells), each row reduced contiguously over the cell's tets.
        Each block is reduced on its own and the blocks are joined in order,
        so ``pooled``, which runs them on the threads of :func:`_pool_map`,
        changes no bit.  A pooled ``block`` must call no PhysicsConfig method.
        """
        def reduced(b):
            cells, nodes, tets = b
            return np.add.reduceat(block(cells, nodes, tets), self._tet_ptr[cells] - tets.start,
                                   axis=-1)

        return np.concatenate(list((_pool_map if pooled else map)(reduced, self._blocks())),
                              axis=-1)

    def _tet_rows(self, rows: np.ndarray, cells: slice) -> np.ndarray:
        """Per-cell rows (k, n_cells) repeated over a block's tets: (k, block tets)."""
        return np.repeat(rows[:, cells], self._cell_tets[cells], axis=1)

    def _projected_values(self, coeff_rows: np.ndarray, cells: slice, tets: slice) -> np.ndarray:
        """Pi0 u at a block's nodes, (tets, NQ), from the value coefficient rows (4, n_cells).

        With xi = r C_t, c0 + xi . c = c0 + r . (C_t c): the per-tet
        coefficients (c0, C_t c) times the table of (1, r).
        """
        c = self._tet_rows(coeff_rows, cells)
        C = self.maps[:, :, tets]
        a = np.empty_like(c)
        a[0] = c[0]
        for i in range(3):
            _dot3(C[i], c[1:], out=a[1 + i])
        return a.T @ _REF_VALUES

    def _integrals(self, values: np.ndarray, tets: slice) -> np.ndarray:
        """Integrals over a block's tets of node values (k, tets, NQ): rows (k, tets)."""
        # row 0 of a two-row table: a one-row product goes through BLAS gemv, whose
        # rounding of a row depends on the row count
        ref = (_REF_MOMENTS[:2] @ values.reshape(-1, NQ).T)[0]
        return ref.reshape(len(values), -1) * self.dets[tets]

    def _moments(self, s: np.ndarray, tets: slice, scale: float, rows: int) -> np.ndarray:
        """scale times the integrals of s e_i e_j, e = (1, xi), over a block's tets: (rows, tets).

        (i, j) runs over the first ``rows`` of _UPPER_PAIRS: 4 rows for the
        moments of s (1, xi), 10 for the symmetric 4x4 of s (1, xi) (x) (1, xi).
        The moments of s on the reference tet, the product of s (tets, NQ)
        with the table, map to xi by the congruence with blockdiag(1, C_t),
        times det_t.
        """
        m = _REF_MOMENTS[:rows] @ s.T
        C = self.maps[:, :, tets]
        out = np.empty_like(m)
        out[0] = m[0]
        for j in range(3):
            _dot3(m[1:4], C[:, j], out=out[1 + j])
        if rows > 4:
            # (Q C)_il = sum_k Q_ik C_kl, Q_ik the moments of s r_i r_k; then C' Q C
            QC = np.empty(C.shape)
            for i in range(3):
                Q = m[_Q_ROWS[i]]
                for l in range(3):
                    _dot3(Q, C[:, l], out=QC[i, l])
            for row, (i, j) in enumerate(_UPPER_PAIRS[4:], start=4):
                _dot3(C[:, i - 1], QC[:, j - 1], out=out[row])
        out *= self.dets[tets] * scale
        return out

    # -- physics state ---------------------------------------------------

    def _attach(self, physics: PhysicsConfig) -> None:
        """Evaluate ``physics`` at the nodes in one sweep, unless its state is the one held.

        Sets the ``solvent`` mask of the nodes (kappa_bar^2 > 0 only there),
        ``_eps_int``, each cell's integral of the dielectric, and ``_G``, the
        Coulomb field at every node, 0 off the solvent, or None when no node
        is screened.  The key holds every field these and the screened term read.
        """
        q, x = physics.charge_arrays()
        key = (physics, physics.levelset, physics.eps_m, physics.eps_s,
               physics.kappa_bar_sq_solvent, q.tobytes(), x.tobytes())
        old = self._physics_key
        if old is not None and old[0] is key[0] and old[1] is key[1] and old[2:] == key[2:]:
            return
        screened = physics.kappa_bar_sq_solvent > 0
        solvent = np.empty(len(self.weights), dtype=bool)
        G = np.zeros(len(self.weights)) if screened else None
        eps_int = []
        for cells, nodes, _ in self._blocks():
            points = self.points[nodes]
            mask = solvent[nodes] = physics.solvent_mask(points)
            # node by node: the per-tet tables round the cell integrals a few ulps further off
            eps_int.append(np.add.reduceat(
                self.weights[nodes] * np.where(mask, physics.eps_s, physics.eps_m),
                self.cell_ptr[cells] - nodes.start,
            ))
            if screened and mask.any():
                # the solvent points with contiguous coordinate columns
                G[nodes][mask] = physics.coulomb_potential(points.T.compress(mask, axis=1).T)
        self.solvent, self._eps_int = solvent, np.concatenate(eps_int)
        self._G = G if screened and solvent.any() else None
        self._physics_key = key

    # -- assembly --------------------------------------------------------

    @cached_property
    def _pattern(self) -> _BlockPattern:
        """The cell groups and CSR pattern of every assembly, built on the first one."""
        return _block_pattern(self.mesh)

    def stiffness(self, physics: PhysicsConfig) -> sp.csr_matrix:
        """Projected-gradient consistency term plus a dofi-dofi stabilization.

        The (n_vertices, n_vertices) sum over cells of
        eps_E grad_E' grad_E + sigma_E stab_E' stab_E, with eps_E the integral
        of the dielectric over E.  Both are formed from the cell's projector
        rows pi_E (4, D): the projected gradient grad_E = pi_E[1:] / h_E (3, D)
        and the remainder stab_E = I - D_E pi_E (D, D), D_E the values of
        (1, xi) at the cell's sorted vertices.  The stabilization is scaled
        by sigma_E = h_E eps_E / |E|, which keeps the two parts spectrally
        comparable for any contrast.
        """
        self._attach(physics)
        eps_int = self._eps_int
        mesh = self.mesh
        h = mesh.cell_diameter
        sigma = h * eps_int / mesh.cell_volume
        pi = self.projectors.pi

        def blocks(idx, at):
            d = at.shape[1]
            pi_E = _cell_pi(pi, idx, d)
            h_E = h[idx, None, None]
            grad = pi_E[:, 1:] / h_E
            # D_E pi_E = 1 c0 + xi c_lin, xi (cells, D, 3) at the cell's sorted vertices
            xi = mesh.vertices.take(mesh.cell_vertex[at], axis=0)
            xi -= mesh.cell_centroid[idx, None]
            xi /= h_E
            stab = np.eye(d) - (pi_E[:, :1] + np.matmul(xi, pi_E[:, 1:]))
            return (eps_int[idx, None, None] * np.matmul(grad.transpose(0, 2, 1), grad)
                    + sigma[idx, None, None] * np.matmul(stab.transpose(0, 2, 1), stab))

        return self._pattern.matrix(blocks)

    def load_vector(self, physics: PhysicsConfig, load: LoadSpec) -> np.ndarray:
        """Load vector F; raises NonlinearOverflow if a manufactured sinh argument is too large.

        F = grad' flux + pi' moments, from the per-cell flux integrals and
        source moments of (1, xi), is one product with pi'.  The manufactured
        sweep is pooled: it starts and joins its own threads, and of the
        caller's code only ``u_exact`` and ``grad_u_exact`` run on them.
        """
        self._attach(physics)
        if load.mode == "regularized":
            flux = self._cell_sums(
                lambda cells, nodes, tets: self._integrals(self._jump_flux(physics, nodes), tets)
            )
            moments = np.zeros((4, self.mesh.n_cells))
        else:
            flux, moments = np.split(self._manufactured_sums(physics, load), [3])
        # grad = pi's rows 1..3 over h_E, so a cell's flux over h_E adds to its linear moments
        moments[1:] += flux / self.mesh.cell_diameter
        return self.projectors.pi.T @ moments.T.ravel()

    def _manufactured_sums(self, physics: PhysicsConfig, load: LoadSpec) -> np.ndarray:
        """Per-cell integrals of the manufactured load: 3 flux rows, then 4 source moments."""
        G, kbar_sq = self._G, physics.kappa_bar_sq_solvent
        eps_s, eps_m = physics.eps_s, physics.eps_m

        def integrals(cells, nodes, tets):
            """3 flux rows, then the 4 moment rows of the source."""
            points = self.points[nodes]
            if G is None:
                source = np.zeros(len(points))
            else:
                # u_exact * 0 + 0 is +0 off the solvent, where G is 0
                arg = load.u_exact(points) * self.solvent[nodes] + G[nodes]
                _check_sinh_argument(arg)
                source = kbar_sq * np.sinh(arg)
            flux = np.multiply(load.grad_u_exact(points).T,
                               np.where(self.solvent[nodes], eps_s, eps_m),
                               out=np.empty((3, len(points))))
            out = np.empty((7, tets.stop - tets.start))
            out[:3] = self._integrals(flux.reshape(3, -1, NQ), tets)
            out[3:] = self._moments(source.reshape(-1, NQ), tets, 1.0, 4)
            return out

        return self._cell_sums(integrals, pooled=True)

    def _jump_flux(self, physics: PhysicsConfig, nodes: slice) -> np.ndarray:
        """Rows of -(eps - eps_m) grad G at a block's nodes, (3, tets, NQ), 0 off the solvent."""
        vec = np.zeros((3, nodes.stop - nodes.start))
        mask = self.solvent[nodes]
        if mask.any():
            points = self.points[nodes].T.compress(mask, axis=1).T
            vec[:, mask] = -(physics.eps_s - physics.eps_m) * physics.coulomb_gradient(points).T
        return vec.reshape(3, -1, NQ)

    def nonlinear(self, physics: PhysicsConfig, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The screened-sinh vector B at u and the cell blocks M of its Jacobian, in one sweep.

        B has shape (n_vertices,).  M has shape (n_cells, 4, 4): M_E is the
        symmetric kappa_bar^2 int_E cosh(Pi0 u + G) [solvent] (1, xi) (x) (1, xi),
        which :meth:`jacobian` assembles.  Raises NonlinearOverflow if the
        sinh argument is too large.
        """
        self._attach(physics)
        M = np.zeros((self.mesh.n_cells, 4, 4))
        G = self._G
        if G is None:
            return np.zeros(self.mesh.n_vertices), M
        coeff_rows = np.ascontiguousarray(self.projectors.value_coeffs(u).T)
        kbar_sq = physics.kappa_bar_sq_solvent

        def moments(cells, nodes, tets):
            """The 4 moment rows of sinh, then the 10 of the masked cosh."""
            solvent = self.solvent[nodes].reshape(-1, NQ)
            # Pi0 u * 0 + 0 is +0 off the solvent, where G is 0, so sinh is 0 there
            arg = self._projected_values(coeff_rows, cells, tets)
            arg *= solvent
            arg += G[nodes].reshape(-1, NQ)
            _check_sinh_argument(arg)
            out = np.empty((14, tets.stop - tets.start))
            out[:4] = self._moments(np.sinh(arg), tets, kbar_sq, 4)
            c = np.cosh(arg)
            c *= solvent
            out[4:] = self._moments(c, tets, kbar_sq, 10)
            return out

        sums = self._cell_sums(moments)
        for col, (i, j) in enumerate(_UPPER_PAIRS):
            M[:, i, j] = M[:, j, i] = sums[4 + col]
        return self.projectors.pi.T @ sums[:4].T.ravel(), M

    def jacobian(self, M: np.ndarray) -> sp.csr_matrix:
        """The (n_vertices, n_vertices) sum over cells of pi_E' M_E pi_E.

        M holds the symmetric cell blocks (n_cells, 4, 4) of :meth:`nonlinear`;
        pi_E (4, D) is cell E's rows of the projector.  The matrix shares the
        pattern of :meth:`stiffness`.
        """
        pi = self.projectors.pi

        def blocks(idx, at):
            pi_E = _cell_pi(pi, idx, at.shape[1])
            return np.matmul(pi_E.transpose(0, 2, 1), np.matmul(M[idx], pi_E))

        return self._pattern.matrix(blocks)

    def error_norms(self, u: np.ndarray, u_exact, grad_u_exact) -> tuple[float, float]:
        """L2 and H1-seminorm errors of the projected solution against exact fields.

        The exact callables get one node block at a time, the same points
        array for both, and run on the threads this sweep starts and joins:
        they may be called from several threads at once, one block per call.
        The squared errors are integrated per cell and then summed over the
        cells.
        """
        coeff_rows = np.ascontiguousarray(self.projectors.value_coeffs(u).T)
        grad_rows = coeff_rows[1:] / self.mesh.cell_diameter

        def squares(cells, nodes, tets):
            points = self.points[nodes]
            sq = np.empty((2, tets.stop - tets.start, NQ))
            np.subtract(u_exact(points).reshape(-1, NQ),
                        self._projected_values(coeff_rows, cells, tets), out=sq[0])
            sq[0] **= 2
            gdiff = grad_u_exact(points).T.reshape(3, -1, NQ)
            gdiff = gdiff - self._tet_rows(grad_rows, cells)[:, :, None]
            gdiff **= 2
            np.add(gdiff[0], gdiff[1], out=sq[1])
            sq[1] += gdiff[2]
            return self._integrals(sq, tets)

        l2, h1 = self._cell_sums(squares, pooled=True).sum(axis=1)
        return float(np.sqrt(l2)), float(np.sqrt(h1))


def _dot3(a, b, out: np.ndarray) -> np.ndarray:
    """Rows a[0] b[0] + a[1] b[1] + a[2] b[2], summed left to right, into ``out``."""
    np.multiply(a[0], b[0], out=out)
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


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
    workspace: Workspace | None = None,
) -> np.ndarray:
    """R(u) = A u + B(u) - F with Dirichlet rows zeroed."""
    ws = _workspace_of(mesh, workspace)
    A = ws.stiffness(physics)
    F = ws.load_vector(physics, load)
    B, _ = ws.nonlinear(physics, u)
    r = A @ u + B - F
    r[mesh.boundary_vertex] = 0.0
    return r


def _workspace_of(mesh: PolyMesh, workspace: Workspace | None) -> Workspace:
    """The given Workspace, which must be built on ``mesh``, or a new one."""
    if workspace is None:
        return Workspace(mesh)
    if workspace.mesh is not mesh:
        raise ValueError("workspace was built on another mesh")
    return workspace


def cg_solve(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned CG to a relative residual; for b = 0 SciPy returns x = 0 at once."""
    if max_iterations is None:
        max_iterations = 10 * len(b)
    diag = A.diagonal()
    bad = ~np.isfinite(diag) | (diag <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(f"matrix diagonal entry {i} is {diag[i]}, not positive and finite; "
                          "Jacobi preconditioner invalid")
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    # scipy tests the residual before each iteration, so it needs one pass more
    # to accept an iterate that converges on the last allowed iteration (with
    # maxiter = 0 it would return x = 0 as converged); a failed solve ran it too
    x, info = spla.cg(
        A, b, rtol=tol, atol=0.0, maxiter=max(max_iterations, 0) + 1, M=sp.diags(1.0 / diag),
        callback=count,
    )
    if info != 0:
        raise SolverError(
            f"CG did not converge in {max_iterations} iterations (relative residual "
            f"{np.linalg.norm(b - A @ x) / np.linalg.norm(b):.3e} after iteration {iterations})"
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
    Every failure, an overflow in the load or at u0 and a non-finite
    ||R(u0)|| included, raises :class:`SolverError` carrying the last
    accepted iterate (u0 before the first step) and the report so far.  A
    ``workspace`` built on another mesh raises ValueError.
    """
    config = config or NewtonConfig()
    t0 = time.perf_counter()
    free = ~mesh.boundary_vertex
    u = np.zeros(mesh.n_vertices)
    u[~free] = load.boundary_values(mesh.vertices[~free])
    report = SolveReport()

    def finish() -> None:
        # u is read when this runs: the last accepted iterate
        report.max_abs_u = float(np.abs(u).max()) if len(u) else 0.0
        report.wall_time = time.perf_counter() - t0

    def failure(message: str) -> SolverError:
        finish()
        return SolverError(message, u=u, report=report)

    ws = _workspace_of(mesh, workspace)

    def residual(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """R(v) on the free DoFs, and the Jacobian's cell blocks at v."""
        B, M = ws.nonlinear(physics, v)
        return (A @ v + B - F)[free], M

    A = ws.stiffness(physics)
    if not np.all(np.isfinite(A.data)):
        raise failure("non-finite stiffness entry")
    pattern = ws._pattern    # J shares the pattern of A
    try:
        F = ws.load_vector(physics, load)
    except NonlinearOverflow as exc:
        raise failure(f"load: {exc}") from exc
    try:
        r, M = residual(u)
    except NonlinearOverflow as exc:
        raise failure(f"initial state: {exc}") from exc
    rnorm = float(np.linalg.norm(r))
    report.residual_history.append(rnorm)
    if not np.isfinite(rnorm):
        raise failure(f"initial state: residual norm {rnorm}")
    target = config.rel_tol * rnorm + config.abs_tol

    while not rnorm <= target:    # a NaN norm never reads as converged
        if report.newton_iterations >= config.max_iterations:
            raise failure(
                f"Newton did not converge in {config.max_iterations} iterations "
                f"(residual {rnorm:.3e}, target {target:.3e})"
            )
        # the blocks of the accepted iterate: a rejected trial assembles no Jacobian
        J = pattern.free_matrix(A.data + ws.jacobian(M).data)
        delta = np.zeros(mesh.n_vertices)
        try:
            delta[free], cg_iters = cg_solve(J, -r, config.cg_tol, config.cg_max_iterations)
        except SolverError as exc:
            raise failure(f"Newton iteration {report.newton_iterations + 1}: {exc}") from exc
        report.cg_iterations.append(cg_iters)

        lam = 1.0
        accepted = False
        for _ in range(config.max_halvings + 1):
            trial = u + lam * delta
            try:
                r_trial, M_trial = residual(trial)
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
        u, r, M, rnorm = trial, r_trial, M_trial, t_norm
        report.newton_iterations += 1
        report.residual_history.append(rnorm)

    report.converged = True
    finish()
    return u, report
