"""Scaled monomial bases and quadrature on star-shaped polytopes.

Quadrature decomposes each face into a triangle fan from its centroid and
each cell into tetrahedra coned from the cell centroid over the face
triangles, then maps positive-weight Gauss rules from the reference
simplices.  All shipped rules have strictly positive weights, so pointwise
inequalities (e.g. monotone nonlinearities) survive discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.special import roots_jacobi

from .mesh import MeshError, PolyMesh, LevelSet

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


def tetrahedralize_cell(mesh: PolyMesh, ci: int) -> np.ndarray:
    """Tetrahedra coning the cell centroid over all face-fan triangles, shape (T,4,3).

    Signed volumes must all be positive; a non-positive one means the cell is
    not star-shaped with respect to its centroid.
    """
    xe = mesh.cell_centroid[ci]
    tet_list = []
    for fi, sgn in mesh.cell_faces(ci):
        loop = mesh.faces[fi] if sgn > 0 else mesh.faces[fi][::-1]
        P = mesh.vertices[loop]
        xf = mesh.face_centroid[fi]
        Pn = np.roll(P, -1, axis=0)
        m = len(P)
        tets = np.empty((m, 4, 3))
        tets[:, 0] = xe
        tets[:, 1] = xf
        tets[:, 2] = P
        tets[:, 3] = Pn
        tet_list.append(tets)
    tets = np.concatenate(tet_list, axis=0)
    vols = np.einsum(
        "ij,ij->i",
        np.cross(tets[:, 2] - tets[:, 0], tets[:, 3] - tets[:, 0]),
        tets[:, 1] - tets[:, 0],
    ) / 6.0
    if np.any(vols <= 0):
        raise MeshError(f"cell {ci} not star-shaped w.r.t. centroid", cell=ci)
    return tets


@dataclass
class CellQuadrature:
    """Volume quadrature of one cell; weights carry the volume measure.

    ``phi_sign`` tags each node with the sign of an attached level set
    (-1 molecular side, +1 solvent, 0 on the surface); None when no level
    set was attached.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int
    phi_sign: np.ndarray | None = None


def cell_quadrature(
    mesh: PolyMesh, ci: int, degree: int = DEFAULT_DEGREE, levelset: LevelSet | None = None
) -> CellQuadrature:
    """Positive-weight rule over the cell, exact for polynomials of total degree <= degree."""
    _check_degree(degree)
    ref, wref = reference_tet_rule(degree)
    tets = tetrahedralize_cell(mesh, ci)
    origin = tets[:, 0]
    basis = tets[:, 1:] - origin[:, None, :]
    dets = np.einsum("ij,ij->i", np.cross(basis[:, 0], basis[:, 1]), basis[:, 2])
    pts = origin[:, None, :] + np.einsum("qk,tkj->tqj", ref, basis)
    w = dets[:, None] * wref[None, :]  # reference weights sum to 1/6 = unit-tet volume
    sign = None
    if levelset is not None:
        sign = np.sign(levelset(pts.reshape(-1, 3)))
    return CellQuadrature(
        points=pts.reshape(-1, 3), weights=w.ravel(), degree=degree, phi_sign=sign
    )


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


def integrate(mesh: PolyMesh, ci: int, fn, degree: int = DEFAULT_DEGREE) -> float | np.ndarray:
    """Quadrature of a pointwise field over one cell.

    ``fn`` takes an (n,3) array of points and returns (n,) or (n,d) values;
    non-finite values are reported with the offending location.
    """
    quad = cell_quadrature(mesh, ci, degree)
    vals = np.asarray(fn(quad.points), dtype=float)
    finite = np.isfinite(vals) if vals.ndim == 1 else np.isfinite(vals).all(axis=1)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        raise ValueError(f"non-finite field value at quadrature node {quad.points[bad]}")
    if vals.ndim == 1:
        return float(quad.weights @ vals)
    return quad.weights @ vals
