"""Lowest-order elliptic and L2 projectors of every cell.

With vertex-value degrees of freedom the projectors reduce to exact boundary
integrals: the projected gradient of a cell function is its boundary-averaged
gradient (divergence theorem over the face integrals), and the constant part
is fixed by matching the mean over the cell boundary.  Face integrals of the
virtual functions equal those of their face projections, which are exact
because edge traces are piecewise linear (trapezoid rule).

:func:`face_integral_rows` holds these face integrals flat, aligned with the
mesh's ``face_vertex``.  :func:`build_projectors` builds all cells with array
operations into one :class:`ProjectorGroup` per distinct DoF count n: the
group's cells and their stacked ``vertex_ids`` (G, n; each cell's
``cell_vertex`` segment), ``pi_nabla`` (G, 4, n), ``pi0_grad`` (G, 3, n) and
``stab_q`` (G, n, n), which batched assembly uses directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, PolyMesh, _concat_index, _flat_corners, _segments_by_length

DEGENERATE_FACE_AREA = 1e-14


def face_integral_rows(mesh: PolyMesh) -> np.ndarray:
    """Integral rows of every face, aligned with ``mesh.face_vertex``.

    Face fi's row, ``rows[mesh.face_ptr[fi]:mesh.face_ptr[fi + 1]]``, is |f|
    times the constant coefficient of the face projection, fixed by matching
    the boundary mean of the virtual function.  Faces of one loop length are
    computed in one batch.
    """
    rows = np.empty(len(mesh.face_vertex))
    for idx, at in _segments_by_length(mesh.face_ptr):
        area = mesh.face_area[idx]
        if np.any(area < DEGENERATE_FACE_AREA):
            fi = idx[int(np.argmax(area < DEGENERATE_FACE_AREA))]
            raise MeshError(f"degenerate face {fi} (area {mesh.face_area[fi]:.3e})")
        P = mesh.vertices[mesh.face_vertex[at]]                      # (F, m, 3)
        edge_vec = np.roll(P, -1, axis=1) - P
        edge_len = np.linalg.norm(edge_vec, axis=2)
        edge_out = np.cross(edge_vec / edge_len[:, :, None], mesh.face_normal[idx][:, None, :])

        # trapezoid weights along the boundary
        w_bnd = 0.5 * (edge_len + np.roll(edge_len, 1, axis=1))

        # per-vertex accumulation of the edge-flux rows:
        # |f| grad = sum_e |e| (v_a+v_b)/2 n_e
        c = 0.5 * edge_len[:, :, None] * edge_out
        flux_rows = c + np.roll(c, 1, axis=1)                        # (F, m, 3)

        # boundary integral of the linear part (x - x_f).grad, per DoF
        bnd_moment = np.einsum("fm,fmj->fj", w_bnd, P - mesh.face_centroid[idx][:, None, :])
        lin = np.einsum("fj,fmj->fm", bnd_moment, flux_rows) / area[:, None]
        perimeter = edge_len.sum(axis=1)
        rows[at] = area[:, None] * (w_bnd - lin) / perimeter[:, None]
    return rows


@dataclass
class ProjectorGroup:
    """The cells with one DoF count n, their projector matrices stacked.

    ``pi_nabla`` maps the local DoFs to the coefficients on the scaled
    monomials {1, xi1, xi2, xi3}, xi = (x - x_E)/h_E; ``pi0_grad`` to the
    constant projected gradient; ``stab_q`` is I - D pi_nabla with D the
    monomial values at the vertices, the DoF-space remainder the
    stabilization acts on.  The L2 projector of the enhanced degree-1 space
    coincides with pi_nabla.
    """

    cells: np.ndarray            # (G,) cell indices, increasing
    vertex_ids: np.ndarray       # (G, n) local DoF order (sorted vertex ids)
    pi_nabla: np.ndarray         # (G, 4, n)
    pi0_grad: np.ndarray         # (G, 3, n)
    stab_q: np.ndarray           # (G, n, n)


class CellProjectorSet:
    """Projectors of every cell of a mesh, in one group per distinct DoF count."""

    def __init__(self, mesh: PolyMesh, groups: list[ProjectorGroup]):
        self.mesh = mesh
        self.groups = groups

    def __len__(self) -> int:
        return self.mesh.n_cells

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

    Per cell, |E| pi0_grad is the signed sum of face normals times face
    integral rows, and the constant coefficient matches the boundary mean;
    both sums run over flat arrays of all face-vertex corners, accumulated
    with ``bincount`` in (cell, face) order.
    """
    rows = face_integral_rows(mesh)
    ref_cell, ref_face, ref_sign, c_ref, va, _ = _flat_corners(mesh)
    corner_cell = ref_cell[c_ref]
    # each cell's sorted (cell, vertex) keys give its local DoF order
    nv = mesh.n_vertices
    first = mesh.cell_vertex_ptr
    n_dofs = np.diff(first)
    keys = np.repeat(np.arange(mesh.n_cells), n_dofs) * nv + mesh.cell_vertex
    slot = np.searchsorted(keys, corner_cell * nv + va) - first[corner_cell]
    # each corner's entry of its face's integral row (corner k of a loop is entry k)
    w = rows[mesh.face_ptr[ref_face][c_ref] + _concat_index(np.bincount(c_ref))]

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
    for cells, at in _segments_by_length(first):
        n = at.shape[1]
        vids = mesh.cell_vertex[at]
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
    return CellProjectorSet(mesh, groups)
