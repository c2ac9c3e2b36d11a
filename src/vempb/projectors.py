"""Lowest-order elliptic and L2 projectors of every cell.

With vertex-value degrees of freedom the projectors reduce to exact boundary
integrals: the projected gradient of a cell function is its boundary-averaged
gradient (divergence theorem over the face integrals), and the constant part
is fixed by matching the mean over the cell boundary.  Face integrals of the
virtual functions equal those of their face projections, which are exact
because edge traces are piecewise linear (trapezoid rule).

:func:`face_integral_rows` holds these face integrals flat, aligned with the
mesh's ``face_vertex``.  :func:`build_projectors` sums them over all cells
with array operations into sparse operators on the vertex values
(:class:`CellProjectorSet`), so that every global form is a product of
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import PolyMesh, _concat_index, _flat_corners, _segments_by_length

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
class CellProjectorSet:
    """Projectors of every cell as CSR operators on the vertex values u.

    Cell E's rows reach only its DoFs, its sorted vertex ids
    ``cell_vertex[cell_vertex_ptr[E]:cell_vertex_ptr[E + 1]]``; D = len(cell_vertex).

    - ``pi`` (4C, nv): rows 4E..4E+3, the coefficients on the scaled monomials
      {1, xi1, xi2, xi3}, xi = (x - x_E)/h_E; also the L2 projector of the
      enhanced degree-1 space;
    - ``grad`` (3C, nv): rows 3E..3E+2, the constant projected gradient (rows
      1..3 of ``pi`` divided by h_E);
    - ``stab`` (D, nv): one row per DoF of cell E, I - D_E pi_E with D_E the
      monomial values at the vertices, the remainder the stabilization acts on.
    """

    mesh: PolyMesh
    pi: sp.csr_matrix
    grad: sp.csr_matrix
    stab: sp.csr_matrix

    def value_coeffs(self, u: np.ndarray) -> np.ndarray:
        """Projected polynomial coefficients of the global field u per cell, (C, 4)."""
        return (self.pi @ u).reshape(-1, 4)

    def gradients(self, u: np.ndarray) -> np.ndarray:
        """Projected gradient of the global field u per cell, (C, 3)."""
        return (self.grad @ u).reshape(-1, 3)


def _cell_rows(first: np.ndarray, rows_per_cell) -> tuple[np.ndarray, np.ndarray]:
    """DoF positions and CSR row pointer of one block of rows per cell.

    Cell E gets ``rows_per_cell`` (scalar or per cell) consecutive rows, each
    over its DoF positions ``first[E]:first[E + 1]`` in order.
    """
    row_cell = np.repeat(np.arange(len(first) - 1), rows_per_cell)
    row_len = np.diff(first)[row_cell]
    ptr = np.concatenate([[0], np.cumsum(row_len)])
    return np.arange(ptr[-1]) - np.repeat(ptr[:-1] - first[row_cell], row_len), ptr


def build_projectors(mesh: PolyMesh) -> CellProjectorSet:
    """Projectors of every cell as the operators of :class:`CellProjectorSet`.

    Per cell, |E| pi0_grad is the signed sum of face normals times face
    integral rows, and the constant coefficient matches the boundary mean;
    both sums run over flat arrays of all face-vertex corners, accumulated
    with ``bincount`` in (cell, face) order straight into the operators'
    entry order (cell, row, vertex).
    """
    rows = face_integral_rows(mesh)
    ref_cell, ref_face, ref_sign, c_ref, va, _ = _flat_corners(mesh)
    corner_cell = ref_cell[c_ref]
    # each cell's sorted (cell, vertex) keys give its local DoF order
    nv = mesh.n_vertices
    first = mesh.cell_vertex_ptr
    n_dofs = np.diff(first)
    dof_cell = np.repeat(np.arange(mesh.n_cells), n_dofs)
    keys = dof_cell * nv + mesh.cell_vertex
    slot = np.searchsorted(keys, corner_cell * nv + va) - first[corner_cell]
    # each corner's entry of its face's integral row (corner k of a loop is entry k)
    w = rows[mesh.face_ptr[ref_face][c_ref] + _concat_index(np.bincount(c_ref))]

    # boundary integral rows, flat (cell, slot)
    dof_bin = first[corner_cell] + slot
    bnd = np.bincount(dof_bin, weights=w, minlength=first[-1])
    # |E| * gradient rows, flat (cell, component, slot); grad_at[d, k] is DoF d's component k
    dofs = np.arange(first[-1])
    grad_at = (2 * first[dof_cell] + dofs)[:, None] + np.outer(n_dofs[dof_cell], range(3))
    flux = (ref_sign[:, None] * mesh.face_normal[ref_face]).take(c_ref, axis=0) * w[:, None]
    grad_bin = grad_at.take(dof_bin, axis=0)
    grad = np.bincount(grad_bin.ravel(), weights=flux.ravel(), minlength=3 * first[-1])
    area = mesh.face_area[ref_face]
    total_area = np.bincount(ref_cell, weights=area, minlength=mesh.n_cells)
    moment = area[:, None] * (mesh.face_centroid[ref_face] - mesh.cell_centroid[ref_cell])
    poly_bnd = np.vstack([
        np.bincount(ref_cell, weights=moment[:, k], minlength=mesh.n_cells) for k in range(3)
    ])

    h = mesh.cell_diameter
    grad_cell = np.repeat(np.arange(mesh.n_cells), 3 * n_dofs)
    grad /= mesh.cell_volume[grad_cell]
    # the columns of pi, one per DoF: c0 and c_lin = h * grad (3, DoFs)
    c_lin = h[dof_cell] * grad[grad_at.T]
    c0 = bnd - ((poly_bnd / h).take(dof_cell, axis=1) * c_lin).sum(axis=0)
    c0 /= total_area[dof_cell]
    # a cell's pi rows are its c0 row followed by its h * grad rows
    pi = np.insert(h[grad_cell] * grad, 3 * first[dof_cell], c0)

    # stab entry (j, k) of cell E: delta_jk - (1, xi(v_j)) . (c0_k, c_lin_k); the entries of
    # row j run over k, so xi(v_j) repeats along the row while c0 and c_lin are taken at k
    k, stab_ptr = _cell_rows(first, n_dofs)
    row_len = n_dofs[dof_cell]
    stab = -c0.take(k)
    for i in range(3):
        xi = (mesh.vertices[mesh.cell_vertex, i] - mesh.cell_centroid[dof_cell, i]) / h[dof_cell]
        stab -= np.repeat(xi, row_len) * c_lin[i].take(k)
    stab[stab_ptr[:-1] + dofs - first[dof_cell]] += 1.0
    # the columns are the vertex ids at the DoF positions
    (pi_pos, pi_ptr), (grad_pos, grad_ptr) = _cell_rows(first, 4), _cell_rows(first, 3)
    cv, C = mesh.cell_vertex, mesh.n_cells
    return CellProjectorSet(
        mesh,
        pi=sp.csr_matrix((pi, cv[pi_pos], pi_ptr), shape=(4 * C, nv)),
        grad=sp.csr_matrix((grad, cv[grad_pos], grad_ptr), shape=(3 * C, nv)),
        stab=sp.csr_matrix((stab, cv[k], stab_ptr), shape=(first[-1], nv)),
    )
