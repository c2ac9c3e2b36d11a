"""Positive-weight quadrature on star-shaped polytopes.

Each cell is split into tetrahedra coned from the cell centroid over the fan
triangles (face centroid, edge) of its faces, and one rule is mapped from
the reference tetrahedron onto each: the classical positive 14-point rule,
exact to total degree 5.  Its weights are strictly positive, so pointwise
inequalities (e.g. monotone nonlinearities) survive discretization.

:func:`mesh_quadrature` builds the nodes of every cell in one flat array,
contiguous per cell; it is the only cell rule, and the solver's
``Workspace`` assembles on it.  Node coordinates are stored as contiguous
columns (Fortran order), so per-node fields run elementwise on x, y and z
instead of reducing along the short axis of each row.  It also returns the
linear map C_t and the determinant det_t of every cone tet, so that a
node's xi is r_q C_t and its weight det_t w_q: the solver integrates
through the fixed tables of the reference rule and maps per tet.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .mesh import MeshError, PolyMesh, _flat_corners


# ---------------------------------------------------------------------------
# reference-simplex rule


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


# ---------------------------------------------------------------------------
# cell quadrature


def mesh_quadrature(mesh: PolyMesh):
    """Positive-weight rule over every cell, exact for total degree <= 5.

    Each cell is split into the tetrahedra (x_E, x_f, v_i, v_i+1) coning its
    centroid over the fan triangles of its faces, and the reference rule is
    mapped onto each.  Returns flat ``points``, ``weights`` (carrying the
    volume measure), ``xi`` = (points - x_E)/h_E, the cell of every node
    ``cop`` and ``cell_ptr``: the nodes of cell ci are
    ``cell_ptr[ci]:cell_ptr[ci + 1]``.  ``points`` and ``xi`` have shape
    (nodes, 3) and are Fortran-ordered, so each coordinate is one
    contiguous column.  A non-positive tetrahedron means the cell is not
    star-shaped with respect to its centroid.

    Node k of cone tet t = k // nq is the image of reference point r_q,
    q = k % nq, so the last two returns carry the map of every tet: its
    edge rows from the apex x_E over h_E, ``maps`` (3, 3, tets) with
    xi_j = sum_i r_i maps[i, j, t], and ``dets`` (tets,), the Jacobian
    determinants, with ``weights`` = dets_t * REFERENCE_TET_WEIGHTS[q].
    A cell's tets are ``cell_ptr[ci] // nq:cell_ptr[ci + 1] // nq``.
    """
    ref, wref = REFERENCE_TET_POINTS, REFERENCE_TET_WEIGHTS
    nq = len(wref)
    ref_cell, ref_face, ref_sign, c_ref, va, vb = _flat_corners(mesh)
    corner_cell = ref_cell[c_ref]
    swapped = ref_sign[c_ref] < 0
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
    # coordinate rows (3, T, nq): offsets from x_E, written through a (T, nq, 3) view
    offset = np.empty((3, len(basis), nq))
    np.matmul(ref, basis, out=offset.transpose(1, 2, 0))
    points = offset + origin.T[:, :, None]
    weights = (dets[:, None] * wref[None, :]).ravel()   # reference weights sum to 1/6
    tets_per_cell = np.bincount(corner_cell, minlength=mesh.n_cells)
    cell_ptr = np.concatenate([[0], np.cumsum(tets_per_cell * nq)])
    cop = np.repeat(np.arange(mesh.n_cells, dtype=np.int64), tets_per_cell * nq)
    h = mesh.cell_diameter[corner_cell]
    offset /= h[None, :, None]
    maps = basis.transpose(1, 2, 0) / h
    return (points.reshape(3, -1).T, weights, offset.reshape(3, -1).T, cop, cell_ptr,
            maps, dets)


def cell_quadrature(mesh: PolyMesh, ci: int):
    """Points and weights of cell ``ci``: its slice of :func:`mesh_quadrature`."""
    points, weights, _, _, cell_ptr, *_ = mesh_quadrature(mesh)
    nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
    return points[nodes], weights[nodes]

