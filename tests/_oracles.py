"""Independent reference computations used by the tests.

Nothing here shares code with the library's quadrature or assembly paths:
polytope moments come from the divergence-theorem recursion (face and edge
reductions ending in 1D Gauss), the linear finite element stiffness of a
tetrahedron from barycentric gradients, and clipped Voronoi cells from
half-space clipping of the unit cube, seed by seed.  The one exception is
the reference-error loop, which runs the library's per-cell quadrature and
per-cell projectors cell by cell, as the reference for the batched
``compare_to_reference``.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from vempb.mesh import KUHN_PERMUTATIONS, MeshError
from vempb.polybasis import cell_quadrature
from vempb.projectors import FaceProjectorTable, cell_projectors


def _edge_gauss(a, b, fn, npts):
    x, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (x + 1.0)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    scale = 0.5 * np.linalg.norm(b - a)
    return scale * np.sum(w * fn(pts))


def _monomial(points, alpha):
    out = np.ones(len(points))
    for k in range(3):
        if alpha[k]:
            out *= points[:, k] ** alpha[k]
    return out


def face_monomial_integral(loop_points, n_hat, alpha, cache=None, key=None):
    """Exact integral of x^alpha over a planar polygon (divergence recursion)."""
    alpha = tuple(int(a) for a in alpha)
    if cache is None:
        cache = {}
    ck = (key, alpha)
    if ck in cache:
        return cache[ck]
    P = loop_points
    y0 = P.mean(axis=0)
    deg = sum(alpha)
    npts = (deg + 3) // 2 + 1
    boundary = 0.0
    m = len(P)
    for e in range(m):
        a, b = P[e], P[(e + 1) % m]
        nu = np.cross(b - a, n_hat)
        nu /= np.linalg.norm(nu)
        boundary += _edge_gauss(
            a, b, lambda pts: _monomial(pts, alpha) * ((pts - y0) @ nu), npts
        )
    lower = 0.0
    for k in range(3):
        if alpha[k]:
            down = list(alpha)
            down[k] -= 1
            lower += alpha[k] * y0[k] * face_monomial_integral(P, n_hat, down, cache, key)
    val = (boundary + lower) / (2 + deg)
    cache[ck] = val
    return val


def cell_monomial_integral(mesh, ci, alpha, cache=None):
    """Exact integral of x^alpha over one polyhedral cell."""
    alpha = tuple(int(a) for a in alpha)
    total = 0.0
    for fi, sgn in mesh.cell_faces(ci):
        P = mesh.vertices[mesh.faces[fi]]
        n_hat = sgn * mesh.face_normal[fi]
        loop = P if sgn > 0 else P[::-1]
        d = mesh.face_centroid[fi] @ n_hat
        total += d * face_monomial_integral(loop, n_hat, alpha, cache, (fi, sgn))
    return total / (3 + sum(alpha))


def cell_scaled_monomial_integral(mesh, ci, alpha, cache=None):
    """Exact integral of ((x-x_E)/h_E)^alpha over one cell (binomial expansion)."""
    from itertools import product
    from math import comb

    xe = mesh.cell_centroid[ci]
    h = mesh.cell_diameter[ci]
    alpha = tuple(int(a) for a in alpha)
    total = 0.0
    for beta in product(*(range(a + 1) for a in alpha)):
        coef = 1.0
        for k in range(3):
            coef *= comb(alpha[k], beta[k]) * (-xe[k]) ** (alpha[k] - beta[k])
        total += coef * cell_monomial_integral(mesh, ci, beta, cache)
    return total / h ** sum(alpha)


def p1_tet_stiffness(verts):
    """Linear FEM stiffness of one tetrahedron: K_ij = |T| grad(l_i).grad(l_j)."""
    p0, p1, p2, p3 = verts
    J = np.column_stack([p1 - p0, p2 - p0, p3 - p0])
    vol = abs(np.linalg.det(J)) / 6.0
    Jinv = np.linalg.inv(J)
    grads = np.vstack([-Jinv.sum(axis=0), Jinv])
    return vol * grads @ grads.T


def oriented_tet_faces(ids, coords):
    """Outward face loops of one tetrahedron, reordering its vertices if negatively oriented."""
    p = coords
    if np.linalg.det(np.array([p[1] - p[0], p[2] - p[0], p[3] - p[0]])) < 0:
        ids = [ids[0], ids[1], ids[3], ids[2]]
    a, b, c, d = ids
    return [np.array(f) for f in ((b, c, d), (a, d, c), (a, b, d), (a, c, b))]


def kkt_solve(A, F, mask, values):
    """Dense equality-constrained minimizer of 0.5 u'Au - F'u with u[mask]=values."""
    n = len(F)
    con = np.nonzero(mask)[0]
    C = np.zeros((len(con), n))
    C[np.arange(len(con)), con] = 1.0
    kkt = np.block([[A, C.T], [C, np.zeros((len(con), len(con)))]])
    rhs = np.concatenate([F, values[con]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n]


def newell_normal(points):
    """Area-weighted normal of a vertex loop (exact for planar polygons)."""
    r = points - points.mean(axis=0)
    return 0.5 * np.cross(r, np.roll(r, -1, axis=0)).sum(axis=0)


UNIT_CUBE_FACES = [
    np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], dtype=float),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]], dtype=float),
    np.array([[0, 1, 0], [0, 1, 1], [1, 1, 1], [1, 1, 0]], dtype=float),
    np.array([[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]], dtype=float),
    np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float),
    np.array([[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=float),
]


def clip_cell_faces(
    faces: list[np.ndarray], normal: np.ndarray, offset: float, eps: float = 1e-12
) -> tuple[list[np.ndarray], bool]:
    """Clip a convex polyhedron by the half-space {x : normal.x <= offset}.

    Returns the clipped face list and whether the plane actually cut.
    """
    kept: list[np.ndarray] = []
    chords: list[list[np.ndarray]] = []
    cut = False
    for poly in faces:
        d = poly @ normal - offset
        if np.all(d <= eps):
            kept.append(poly)
            continue
        cut = True
        if np.all(d >= -eps):
            continue  # face entirely on the discarded side
        m = len(poly)
        out: list[np.ndarray] = []
        crossings: list[np.ndarray] = []
        for a in range(m):
            b = (a + 1) % m
            da, db = d[a], d[b]
            if da <= eps:
                out.append(poly[a])
            if (da < -eps and db > eps) or (da > eps and db < -eps):
                t = da / (da - db)
                x = poly[a] + t * (poly[b] - poly[a])
                out.append(x)
                crossings.append(x)
        if len(out) >= 3:
            kept.append(np.asarray(out))
        if len(crossings) == 2:
            chords.append(crossings)
        elif len(crossings) > 2:
            raise MeshError("clip produced more than two crossings on one face")
    if not cut:
        return faces, False

    if len(chords) < 3:
        raise MeshError("degenerate clip: cap has fewer than three edges")
    chain_tol = 1e-9
    loop = [chords[0][0], chords[0][1]]
    used = {0}
    while len(used) < len(chords):
        tail = loop[-1]
        nxt = None
        for idx, (p, q) in enumerate(chords):
            if idx in used:
                continue
            if np.linalg.norm(p - tail) <= chain_tol:
                nxt = (idx, q)
                break
            if np.linalg.norm(q - tail) <= chain_tol:
                nxt = (idx, p)
                break
        if nxt is None:
            raise MeshError("failed to chain clip cap")
        used.add(nxt[0])
        loop.append(nxt[1])
    if np.linalg.norm(loop[-1] - loop[0]) > chain_tol:
        raise MeshError("clip cap does not close")
    cap = np.asarray(loop[:-1])
    keep = [0] + [i for i in range(1, len(cap)) if np.linalg.norm(cap[i] - cap[i - 1]) > 1e-11]
    cap = cap[keep]
    if len(cap) < 3:
        raise MeshError("degenerate clip cap")
    if newell_normal(cap) @ normal < 0:
        cap = cap[::-1]
    kept.append(cap)
    return kept, True


def clipped_voronoi_cells(seeds):
    """Reference clipped Voronoi cells by half-space clipping, one per seed.

    Each cell is the unit cube intersected with the bisector half-spaces of
    its seed against the others, returned as a list of outward-oriented
    coordinate loops.  Candidate bisectors are processed nearest first; a
    bisector farther than twice the current max vertex distance provably
    cannot cut, so the scan stops there.
    """
    seeds = np.asarray(seeds, dtype=float)
    ns = len(seeds)
    cells = []
    for i in range(ns):
        s = seeds[i]
        d = np.linalg.norm(seeds - s, axis=1)
        order = np.lexsort((np.arange(ns), d))
        faces = [f.copy() for f in UNIT_CUBE_FACES]
        radius2 = max(np.max(((f - s) ** 2).sum(axis=1)) for f in faces)
        for j in order:
            if j == i:
                continue
            if d[j] * d[j] > 4.0 * radius2:
                break
            normal = (seeds[j] - s) / d[j]
            offset = normal @ (0.5 * (seeds[j] + s))
            faces, was_cut = clip_cell_faces(faces, normal, offset)
            if was_cut:
                radius2 = max(np.max(((f - s) ** 2).sum(axis=1)) for f in faces)
        cells.append(faces)
    return cells


def cone_volume_centroid(faces, apex):
    """Volume and centroid of a closed polyhedron from the cone of fan tetrahedra at ``apex``."""
    vol = 0.0
    moment = np.zeros(3)
    for poly in faces:
        fm = poly.mean(axis=0)
        for p, q in zip(poly, np.roll(poly, -1, axis=0)):
            tv = np.cross(p - apex, q - apex) @ (fm - apex) / 6.0
            vol += tv
            moment += tv * (apex + fm + p + q) / 4.0
    return vol, moment / vol


def merged_vertex_count(points, tol=1e-9):
    """Number of distinct points when points closer than ``tol`` are merged transitively."""
    pairs = cKDTree(points).query_pairs(tol, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(points),) * 2)
    return connected_components(graph, directed=False)[0]


def _locate_structured_loop(mesh, points):
    """Structured cell of each point; Kuhn cells ranked by tuple lookup."""
    n = mesh.n
    scaled = points * n
    idx = np.clip(np.floor(scaled).astype(int), 0, n - 1)
    cube_id = idx[:, 0] + n * (idx[:, 1] + n * idx[:, 2])
    if mesh.family == "cubic":
        return cube_id
    order = np.argsort(-(scaled - idx), axis=1, kind="stable")
    return cube_id * 6 + np.array([KUHN_PERMUTATIONS.index(tuple(o)) for o in order])


def reference_errors_per_cell(coarse_mesh, u_h, fine_mesh, u_ref, degree=4):
    """L2 and H1 errors of u_h against the projected fine field, one coarse cell at a time."""
    coarse_table, fine_table = FaceProjectorTable(coarse_mesh), FaceProjectorTable(fine_mesh)
    fine = [cell_projectors(fine_mesh, ci, fine_table) for ci in range(fine_mesh.n_cells)]
    coeffs = np.array([p.value_coeffs(u_ref[p.vertex_ids]) for p in fine])
    grads = np.array([p.gradient(u_ref[p.vertex_ids]) for p in fine])
    total_l2 = 0.0
    total_h1 = 0.0
    for ci in range(coarse_mesh.n_cells):
        proj = cell_projectors(coarse_mesh, ci, coarse_table)
        quad = cell_quadrature(coarse_mesh, ci, degree)
        fid = _locate_structured_loop(fine_mesh, quad.points)
        xi = (quad.points - fine_mesh.cell_centroid[fid]) / fine_mesh.cell_diameter[fid, None]
        ref_vals = coeffs[fid, 0] + np.einsum("ij,ij->i", xi, coeffs[fid, 1:])
        vals = proj.evaluate(u_h[proj.vertex_ids], quad.points)
        total_l2 += float(quad.weights @ (ref_vals - vals) ** 2)
        gdiff = grads[fid] - proj.gradient(u_h[proj.vertex_ids])
        total_h1 += float(quad.weights @ (gdiff**2).sum(axis=1))
    return float(np.sqrt(total_l2)), float(np.sqrt(total_h1))
