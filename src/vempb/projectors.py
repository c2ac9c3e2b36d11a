"""Lowest-order elliptic and L2 projectors on faces and cells.

With vertex-value degrees of freedom the projectors reduce to exact boundary
integrals: the projected gradient of a cell function is its boundary-averaged
gradient (divergence theorem over the face integrals), and the constant part
is fixed by matching the mean over the cell boundary.  Face integrals of the
virtual functions equal those of their face projections, which are exact
because edge traces are piecewise linear (trapezoid rule).

:func:`build_projectors` builds all cells with array operations into one
:class:`ProjectorGroup` per distinct DoF count n: the group's cells and their
stacked ``vertex_ids`` (G, n), ``pi_nabla`` (G, 4, n), ``pi0_grad`` (G, 3, n)
and ``stab_q`` (G, n, n), which batched assembly uses directly.
:func:`cell_projectors` is the single-cell reference; nothing in the
package assembles cell by cell.

The degree is carried explicitly so the interfaces extend to higher orders
(edge/face/cell moment DoFs) without change; only degree 1 is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, PolyMesh, _concat_index, _flat_corners
from .polybasis import MonomialBasis, monomial_basis

DEGENERATE_FACE_AREA = 1e-14


@dataclass
class FaceProjector:
    """Projection of face vertex values onto in-plane linear polynomials.

    ``coeff`` maps the face DoF vector to [c0, c1, c2] in the scaled local
    frame: p(x) = c0 + c1*xi1 + c2*xi2 with xi_k = ((x-x_f).t_k)/h_f.
    ``integral_row`` maps the DoF vector to the exact face integral of the
    virtual function.
    """

    face: int
    vertex_ids: np.ndarray
    frame: np.ndarray            # rows t1, t2 (orthonormal, in-plane)
    coeff: np.ndarray            # (3, n_face_vertices)
    integral_row: np.ndarray     # (n_face_vertices,)


def _face_frames(normals: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal in-plane frames, shape (F, 2, 3)."""
    axis = np.argmin(np.abs(normals), axis=1)
    t1 = np.zeros_like(normals)
    t1[np.arange(len(normals)), axis] = 1.0
    t1 -= np.einsum("fj,fj->f", t1, normals)[:, None] * normals
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(normals, t1)
    return np.stack([t1, t2], axis=1)


def _face_rows_batch(
    mesh: PolyMesh, idx: np.ndarray, frames: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """coeff (F,3,m), integral_row (F,m), frames (F,2,3) for equal-length loops.

    ``frames`` defaults to the deterministic in-plane frames of the faces.
    """
    if np.any(mesh.face_area[idx] < DEGENERATE_FACE_AREA):
        fi = idx[int(np.argmax(mesh.face_area[idx] < DEGENERATE_FACE_AREA))]
        raise MeshError(f"degenerate face {fi} (area {mesh.face_area[fi]:.3e})")
    P = mesh.vertices[np.array([mesh.faces[i] for i in idx])]     # (F, m, 3)
    n_hat = mesh.face_normal[idx]
    area = mesh.face_area[idx]
    h = mesh.face_diameter[idx]
    if frames is None:
        frames = _face_frames(n_hat)

    edge_vec = np.roll(P, -1, axis=1) - P
    edge_len = np.linalg.norm(edge_vec, axis=2)
    edge_out = np.cross(edge_vec / edge_len[:, :, None], n_hat[:, None, :])

    # trapezoid weights along the boundary
    w_bnd = 0.5 * (edge_len + np.roll(edge_len, 1, axis=1))

    # per-vertex accumulation of the edge-flux rows:
    # grad = (1/|f|) sum_e |e| (v_a+v_b)/2 n_e
    c = 0.5 * edge_len[:, :, None] * edge_out
    vert_flux = c + np.roll(c, 1, axis=1)
    grad_rows = vert_flux.transpose(0, 2, 1) / area[:, None, None]   # (F, 3, m)

    xi = np.einsum("fmj,fkj->fmk", P - mesh.face_centroid[idx][:, None, :], frames)
    xi /= h[:, None, None]                                           # (F, m, 2)
    c_lin = h[:, None, None] * np.einsum("fkj,fjm->fkm", frames, grad_rows)  # (F, 2, m)
    s = np.einsum("fm,fmk->fk", w_bnd, xi)                           # boundary int of xi
    perimeter = edge_len.sum(axis=1)
    c0 = (w_bnd - np.einsum("fk,fkm->fm", s, c_lin)) / perimeter[:, None]
    coeff = np.concatenate([c0[:, None, :], c_lin], axis=1)          # (F, 3, m)
    return coeff, area[:, None] * c0, frames


class FaceProjectorTable:
    """Integral rows of every face, flat in the order of the concatenated loops.

    ``integral_row[start[fi]:start[fi + 1]]`` holds face ``fi``'s row; the
    rows are computed in one batch per loop length.
    """

    def __init__(self, mesh: PolyMesh):
        lengths = np.array([len(l) for l in mesh.faces])
        self.start = np.concatenate([[0], np.cumsum(lengths)])
        self.integral_row = np.empty(self.start[-1])
        for m in np.unique(lengths):
            idx = np.nonzero(lengths == m)[0]
            _, rows, _ = _face_rows_batch(mesh, idx)
            self.integral_row[self.start[idx][:, None] + np.arange(m)] = rows

    def row(self, fi: int) -> np.ndarray:
        return self.integral_row[self.start[fi]:self.start[fi + 1]]


def face_pi_nabla(mesh: PolyMesh, fi: int, frame: np.ndarray | None = None) -> FaceProjector:
    """Face projector from exact edge (trapezoid) boundary integrals.

    An explicit ``frame`` overrides the deterministic default (used to check
    frame independence of frame-free quantities).
    """
    coeff, rows, frames = _face_rows_batch(
        mesh, np.array([fi]), None if frame is None else np.asarray(frame)[None]
    )
    return FaceProjector(
        face=fi, vertex_ids=mesh.faces[fi].copy(), frame=frames[0],
        coeff=coeff[0], integral_row=rows[0],
    )


def face_integral(mesh: PolyMesh, fi: int, dofs: np.ndarray) -> float:
    """Exact integral of a virtual face function from its vertex values."""
    return float(face_pi_nabla(mesh, fi).integral_row @ np.asarray(dofs, dtype=float))


@dataclass
class CellProjectors:
    """Per-cell projector matrices acting on the local vertex-value DoF vector.

    ``pi_nabla`` returns the 4 coefficients on the scaled monomial basis
    {1, xi1, xi2, xi3}; ``pi0_grad`` the constant projected gradient;
    ``stab_q`` is I - D*pi_nabla, the DoF-space remainder used by the
    stabilization.  The L2 projector of the enhanced degree-1 space
    coincides with pi_nabla.
    """

    cell: int
    degree: int
    vertex_ids: np.ndarray
    basis: MonomialBasis
    pi_nabla: np.ndarray         # (4, n)
    pi0_grad: np.ndarray         # (3, n)
    dof_matrix: np.ndarray       # (n, 4): monomial values at vertices
    stab_q: np.ndarray           # (n, n)
    face_rows: list[np.ndarray]  # per face: row over the *local* DoFs with int_f v

    @property
    def n_dofs(self) -> int:
        return len(self.vertex_ids)

    def value_coeffs(self, dofs: np.ndarray) -> np.ndarray:
        return self.pi_nabla @ dofs

    def evaluate(self, dofs: np.ndarray, points: np.ndarray) -> np.ndarray:
        return self.basis.eval_all(points) @ (self.pi_nabla @ dofs)

    def gradient(self, dofs: np.ndarray) -> np.ndarray:
        return self.pi0_grad @ dofs


def _local_face_rows(
    mesh: PolyMesh, ci: int, vids: np.ndarray, face_table: FaceProjectorTable
) -> list[np.ndarray]:
    """Per face of cell ``ci``: its integral row spread over the local DoFs."""
    rows = []
    for fi, _ in mesh.cell_faces(ci):
        row = np.zeros(len(vids))
        row[np.searchsorted(vids, mesh.faces[fi])] = face_table.row(fi)
        rows.append(row)
    return rows


def _dof_matrix(mesh: PolyMesh, ci: int, vids: np.ndarray) -> np.ndarray:
    """Values of {1, xi1, xi2, xi3} at the cell's vertices, shape (n, 4)."""
    xe, h = mesh.cell_centroid[ci], mesh.cell_diameter[ci]
    return np.column_stack([np.ones(len(vids)), (mesh.vertices[vids] - xe) / h])


def cell_projectors(
    mesh: PolyMesh, ci: int, face_table: FaceProjectorTable | None = None
) -> CellProjectors:
    """Assemble the projector matrices of one cell from its face integrals.

    The single-cell reference for :func:`build_projectors`, which computes
    the same sums batched over all cells.  Without ``face_table`` it builds
    the table of the whole mesh, so a loop over cells passes one table.
    """
    face_table = face_table if face_table is not None else FaceProjectorTable(mesh)
    vids = mesh.cell_vertex_ids(ci)
    n = len(vids)
    vol = mesh.cell_volume[ci]
    h = mesh.cell_diameter[ci]
    xe = mesh.cell_centroid[ci]

    grad_rows = np.zeros((3, n))       # |E| * averaged gradient
    bnd_rows = np.zeros(n)             # integral of v over the cell boundary
    poly_bnd_vec = np.zeros(3)         # boundary integral of (x - x_E)
    total_area = 0.0
    face_rows = _local_face_rows(mesh, ci, vids, face_table)
    for (fi, sgn), row in zip(mesh.cell_faces(ci), face_rows):
        grad_rows += sgn * np.outer(mesh.face_normal[fi], row)
        bnd_rows += row
        area = mesh.face_area[fi]
        total_area += area
        poly_bnd_vec += area * (mesh.face_centroid[fi] - xe)

    pi0_grad = grad_rows / vol
    # coefficients on {1, xi1, xi2, xi3}: gradient slots carry h_E
    c_lin = h * pi0_grad
    c0 = (bnd_rows - (poly_bnd_vec / h) @ c_lin) / total_area
    pi_nabla = np.vstack([c0, c_lin])

    dof_matrix = _dof_matrix(mesh, ci, vids)
    return CellProjectors(
        cell=ci,
        degree=1,
        vertex_ids=vids,
        basis=monomial_basis(xe, h, degree=1, dim=3),
        pi_nabla=pi_nabla,
        pi0_grad=pi0_grad,
        dof_matrix=dof_matrix,
        stab_q=np.eye(n) - dof_matrix @ pi_nabla,
        face_rows=face_rows,
    )


@dataclass
class ProjectorGroup:
    """The cells with one DoF count n, their projector matrices stacked."""

    cells: np.ndarray            # (G,) cell indices, increasing
    vertex_ids: np.ndarray       # (G, n) local DoF order (sorted vertex ids)
    pi_nabla: np.ndarray         # (G, 4, n)
    pi0_grad: np.ndarray         # (G, 3, n)
    stab_q: np.ndarray           # (G, n, n)


class CellProjectorSet:
    """Projectors of every cell of a mesh, in one group per distinct DoF count.

    ``groups`` is what batched assembly works on; ``projs[ci]`` gives one
    cell's :class:`CellProjectors` with its matrices taken from the groups.
    """

    def __init__(
        self, mesh: PolyMesh, groups: list[ProjectorGroup], face_table: FaceProjectorTable
    ):
        self.mesh = mesh
        self.groups = groups
        self.face_table = face_table

    def __len__(self) -> int:
        return self.mesh.n_cells

    def __getitem__(self, ci: int) -> CellProjectors:
        if not 0 <= ci < len(self):
            raise IndexError(f"cell {ci} out of range for {len(self)} cells")
        mesh = self.mesh
        n = len(mesh.cell_vertex_ids(ci))
        grp = next(g for g in self.groups if g.vertex_ids.shape[1] == n)
        k = np.searchsorted(grp.cells, ci)
        vids = grp.vertex_ids[k]
        return CellProjectors(
            cell=ci,
            degree=1,
            vertex_ids=vids,
            basis=monomial_basis(mesh.cell_centroid[ci], mesh.cell_diameter[ci], degree=1, dim=3),
            pi_nabla=grp.pi_nabla[k],
            pi0_grad=grp.pi0_grad[k],
            dof_matrix=_dof_matrix(mesh, ci, vids),
            stab_q=grp.stab_q[k],
            face_rows=_local_face_rows(mesh, ci, vids, self.face_table),
        )

    def value_coeffs(self, u: np.ndarray) -> np.ndarray:
        """Projected polynomial coefficients of the global field u per cell, (C, 4)."""
        out = np.zeros((len(self), 4))
        for grp in self.groups:
            out[grp.cells] = np.einsum("gan,gn->ga", grp.pi_nabla, u[grp.vertex_ids])
        return out

    def gradients(self, u: np.ndarray) -> np.ndarray:
        """Projected gradient of the global field u per cell, (C, 3)."""
        out = np.zeros((len(self), 3))
        for grp in self.groups:
            out[grp.cells] = np.einsum("gkn,gn->gk", grp.pi0_grad, u[grp.vertex_ids])
        return out


def build_projectors(mesh: PolyMesh) -> CellProjectorSet:
    """Projectors of every cell, stacked in one group per distinct DoF count.

    Computes the sums of :func:`cell_projectors` over flat arrays of all
    face-vertex corners, accumulated with ``bincount`` in the same (cell,
    face) order as the per-cell loop.
    """
    table = FaceProjectorTable(mesh)
    ref_cell, ref_face, ref_sign, c_ref, va, _ = _flat_corners(mesh)
    corner_cell = ref_cell[c_ref]
    # (cell, vertex) keys; sorted, they give each cell's local DoF order
    nv = mesh.n_vertices
    corner_key = corner_cell * nv + va
    keys = np.unique(corner_key)
    n_dofs = np.bincount(keys // nv, minlength=mesh.n_cells)
    first = np.concatenate([[0], np.cumsum(n_dofs)])
    slot = np.searchsorted(keys, corner_key) - first[corner_cell]
    # each corner's entry of its face's integral row (corner k of a loop is entry k)
    w = table.integral_row[table.start[ref_face][c_ref] + _concat_index(np.bincount(c_ref))]

    # boundary integral rows, flat (cell, slot)
    dof_bin = first[corner_cell] + slot
    bnd = np.bincount(dof_bin, weights=w, minlength=first[-1])
    # |E| * gradient rows, flat (cell, component, slot)
    grad_bin = (2 * first[corner_cell] + dof_bin)[:, None] + np.outer(n_dofs[corner_cell], range(3))
    flux = (ref_sign[c_ref, None] * mesh.face_normal[ref_face[c_ref]]) * w[:, None]
    grad = np.bincount(grad_bin.ravel(), weights=flux.ravel(), minlength=3 * first[-1])
    area = mesh.face_area[ref_face]
    total_area = np.bincount(ref_cell, weights=area, minlength=mesh.n_cells)
    moment = area[:, None] * (mesh.face_centroid[ref_face] - mesh.cell_centroid[ref_cell])
    poly_bnd = np.column_stack([
        np.bincount(ref_cell, weights=moment[:, k], minlength=mesh.n_cells) for k in range(3)
    ])

    groups = []
    for n in np.unique(n_dofs):
        cells = np.nonzero(n_dofs == n)[0]
        at = first[cells][:, None] + np.arange(n)
        vids = keys[at] - cells[:, None] * nv
        h = mesh.cell_diameter[cells]
        xe = mesh.cell_centroid[cells]
        g3 = (3 * first[cells])[:, None] + np.arange(3 * n)
        pi0_grad = grad[g3].reshape(-1, 3, n) / mesh.cell_volume[cells, None, None]
        c_lin = h[:, None, None] * pi0_grad
        c0 = bnd[at] - np.einsum("gk,gkn->gn", poly_bnd[cells] / h[:, None], c_lin)
        c0 /= total_area[cells, None]
        pi_nabla = np.concatenate([c0[:, None, :], c_lin], axis=1)
        dof_matrix = np.concatenate(
            [np.ones((len(cells), n, 1)), (mesh.vertices[vids] - xe[:, None]) / h[:, None, None]],
            axis=2,
        )
        stab_q = np.eye(n) - np.matmul(dof_matrix, pi_nabla)
        groups.append(ProjectorGroup(cells, vids, pi_nabla, pi0_grad, stab_q))
    return CellProjectorSet(mesh, groups, table)
