"""Scaled monomial bases and quadrature on star-shaped polytopes.

Quadrature decomposes each face into a triangle fan from its centroid and
each cell into tetrahedra coned from the cell centroid over the face
triangles, then maps positive-weight Gauss rules from the reference
simplices.  All shipped rules have strictly positive weights, so pointwise
inequalities (e.g. monotone nonlinearities) survive discretization.

:func:`mesh_quadrature` builds the nodes of every cell in one flat array,
contiguous per cell; it is the only cell rule, and the solver's
``Workspace`` assembles on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.special import roots_jacobi

from .mesh import MeshError, PolyMesh, _flat_corners

MAX_DEGREE = 6
DEFAULT_DEGREE = 4


def _multi_indices(degree: int, dim: int) -> np.ndarray:
    """Multi-indices with |alpha| <= degree, ordered by total degree then position."""
    out = []
    for total in range(degree + 1):
        if dim == 2:
            out.extend((total - b, b) for b in range(total + 1))
        else:
            for a in range(total, -1, -1):
                out.extend((a, total - a - c, c) for c in range(total - a + 1))
    return np.array(out, dtype=int)


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials ((x - anchor)/scale)^alpha up to a total degree.

    For faces (dim 2) the coordinates are understood in a local orthonormal
    in-plane frame supplied by the caller.
    """

    anchor: np.ndarray
    scale: float
    degree: int
    dim: int
    alphas: np.ndarray

    @property
    def size(self) -> int:
        return len(self.alphas)

    def local(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.anchor) / self.scale

    def eval_all(self, points: np.ndarray) -> np.ndarray:
        """Values of every basis monomial at the points, shape (npts, size)."""
        xi = self.local(points)
        out = np.ones((len(xi), self.size))
        for j, alpha in enumerate(self.alphas):
            for d in range(self.dim):
                if alpha[d]:
                    out[:, j] *= xi[:, d] ** alpha[d]
        return out


def monomial_basis(anchor, scale: float, degree: int, dim: int = 3) -> MonomialBasis:
    if degree < 0 or dim not in (2, 3):
        raise ValueError("degree must be >= 0 and dim in (2, 3)")
    return MonomialBasis(
        anchor=np.asarray(anchor, dtype=float),
        scale=float(scale),
        degree=degree,
        dim=dim,
        alphas=_multi_indices(degree, dim),
    )


def scaled_monomial_eval(basis: MonomialBasis, alpha, x) -> float:
    """Value of the single scaled monomial with multi-index ``alpha`` at ``x``."""
    alpha = np.asarray(alpha, dtype=int)
    if alpha.sum() > basis.degree:
        raise ValueError("multi-index exceeds basis degree")
    xi = basis.local(x)[0]
    return float(np.prod(xi ** alpha))


def scaled_monomial_grad(basis: MonomialBasis, alpha, x) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=int)
    if alpha.sum() > basis.degree:
        raise ValueError("multi-index exceeds basis degree")
    xi = basis.local(x)[0]
    grad = np.zeros(basis.dim)
    for d in range(basis.dim):
        if alpha[d] == 0:
            continue
        g = alpha[d] / basis.scale
        for e in range(basis.dim):
            p = alpha[e] - (1 if e == d else 0)
            if p:
                g *= xi[e] ** p
        grad[d] = g
    return grad


# ---------------------------------------------------------------------------
# reference-simplex rules


def _check_degree(degree: int) -> None:
    if degree < 0 or degree > MAX_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree} (0..{MAX_DEGREE})")


@lru_cache(maxsize=None)
def _gauss01(m: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for weight (1-x)^alpha on [0,1]."""
    x, w = roots_jacobi(m, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def reference_triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points/weights on {x,y >= 0, x+y <= 1}, exact for total degree <= degree."""
    _check_degree(degree)
    if degree <= 1:
        return np.array([[1 / 3, 1 / 3]]), np.array([0.5])
    m = degree // 2 + 1
    u, wu = _gauss01(m, 1)
    v, wv = _gauss01(m, 0)
    U, Vm = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([U.ravel(), (Vm * (1.0 - U)).ravel()])
    w = np.outer(wu, wv).ravel()
    return pts, w


def _tet_orbit_s31(a: float) -> np.ndarray:
    pts = np.full((4, 4), a)
    np.fill_diagonal(pts, 1.0 - 3.0 * a)
    return pts


def _tet_orbit_s22(a: float) -> np.ndarray:
    b = 0.5 - a
    return np.array(sorted(set(permutations((a, a, b, b)))))


@lru_cache(maxsize=None)
def reference_tet_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points/weights on the unit tetrahedron, exact for total degree <= degree.

    Degrees 2..5 use the classical positive 14-point rule; degree 6 falls
    back to the conical-product construction (also positive).
    """
    _check_degree(degree)
    if degree <= 1:
        return np.array([[0.25, 0.25, 0.25]]), np.array([1.0 / 6.0])
    if degree <= 5:
        bary = np.vstack([
            _tet_orbit_s31(0.09273525031089123),
            _tet_orbit_s31(0.31088591926330050),
            _tet_orbit_s22(0.04550370412564962),
        ])
        w = np.concatenate([
            np.full(4, 0.012248840519393658),
            np.full(4, 0.018781320953002642),
            np.full(6, 0.007091003462846911),
        ])
        return bary[:, 1:], w
    m = degree // 2 + 1
    u, wu = _gauss01(m, 2)
    v, wv = _gauss01(m, 1)
    t, wt = _gauss01(m, 0)
    U, Vm, T = np.meshgrid(u, v, t, indexing="ij")
    x = U
    y = Vm * (1.0 - U)
    z = T * (1.0 - U) * (1.0 - Vm)
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    w = (wu[:, None, None] * wv[None, :, None] * wt[None, None, :]).ravel()
    return pts, w


# ---------------------------------------------------------------------------
# polytope decomposition


def triangulate_face(mesh: PolyMesh, fi: int) -> np.ndarray:
    """Triangles (face centroid, v_i, v_{i+1}) over the boundary edges, shape (T,3,3)."""
    loop = mesh.vertices[mesh.faces[fi]]
    xf = mesh.face_centroid[fi]
    nxt = np.roll(loop, -1, axis=0)
    tris = np.stack([np.broadcast_to(xf, loop.shape), loop, nxt], axis=1)
    areas = 0.5 * np.einsum(
        "ij,ij->i", np.cross(loop - xf, nxt - xf), np.broadcast_to(mesh.face_normal[fi], loop.shape)
    )
    if np.any(areas <= 0):
        raise MeshError(f"face {fi} not star-shaped w.r.t. centroid")
    return tris


def mesh_quadrature(mesh: PolyMesh, degree: int = DEFAULT_DEGREE):
    """Positive-weight rule over every cell, exact for total degree <= degree.

    Each cell is split into the tetrahedra (x_E, x_f, v_i, v_i+1) coning its
    centroid over the fan triangles of its faces, and the reference rule is
    mapped onto each.  Returns flat ``points``, ``weights`` (carrying the
    volume measure), ``xi`` = (points - x_E)/h_E, the cell of every node
    ``cop`` and ``cell_ptr``: the nodes of cell ci are
    ``cell_ptr[ci]:cell_ptr[ci + 1]``.  A non-positive tetrahedron means the
    cell is not star-shaped with respect to its centroid.
    """
    ref, wref = reference_tet_rule(degree)
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
    offset = np.matmul(ref, basis)                            # (T, nq, 3) from x_E
    points = (origin[:, None, :] + offset).reshape(-1, 3)
    weights = (dets[:, None] * wref[None, :]).ravel()   # reference weights sum to 1/6
    tets_per_cell = np.bincount(corner_cell, minlength=mesh.n_cells)
    cell_ptr = np.concatenate([[0], np.cumsum(tets_per_cell * nq)])
    cop = np.repeat(np.arange(mesh.n_cells, dtype=np.int64), tets_per_cell * nq)
    offset /= mesh.cell_diameter[corner_cell, None, None]
    return points, weights, offset.reshape(-1, 3), cop, cell_ptr


def cell_quadrature(mesh: PolyMesh, ci: int, degree: int = DEFAULT_DEGREE):
    """Points and weights of cell ``ci``: its slice of :func:`mesh_quadrature`."""
    points, weights, _, _, cell_ptr = mesh_quadrature(mesh, degree)
    nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
    return points[nodes], weights[nodes]


def face_quadrature(mesh: PolyMesh, fi: int, degree: int = DEFAULT_DEGREE):
    """Positive-weight rule over a (planar) face; points are 3D, weights sum to |f|."""
    _check_degree(degree)
    ref, wref = reference_triangle_rule(degree)
    tris = triangulate_face(mesh, fi)
    origin = tris[:, 0]
    e1 = tris[:, 1] - origin
    e2 = tris[:, 2] - origin
    pts = origin[:, None, :] + np.einsum("q,tj->tqj", ref[:, 0], e1) + np.einsum(
        "q,tj->tqj", ref[:, 1], e2
    )
    jac = np.linalg.norm(np.cross(e1, e2), axis=1)  # = 2 * triangle area
    w = jac[:, None] * wref[None, :]
    return pts.reshape(-1, 3), w.ravel()

