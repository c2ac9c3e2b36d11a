"""Independent reference computations used by the tests.

Nothing here shares code with the library's quadrature or assembly paths:
polytope moments come from the divergence-theorem recursion (face and edge
reductions ending in 1D Gauss), the linear finite element stiffness of a
tetrahedron from barycentric gradients, clipped Voronoi cells from
half-space clipping of the unit cube, seed by seed, and interface flags from
a loop over the cells.  ``all_mirror_voronoi_mesh`` is the Voronoi build on
the seeds and every wall mirror, the reference for the library's choice of
mirrors; ``angle_sorted_voronoi_loops`` sorts a Voronoi mesh's face loops by
angle about their ridge normals, the reference for the build's use of
Qhull's vertex order.  ``build_polymesh`` builds small hand-built meshes
and rebuilds generated ones from per-cell vertex loops, one loop at a time:
a loop whose vertex set appeared before references that face, the reference
for the first-appearance numbering that the structured generators read off
their cube tables; it only constructs the ``PolyMesh``, which indexes,
checks and measures the mesh as it does for every library builder.
``face_loop``, ``cell_faces``, ``cell_vertex_ids`` and ``cell_face_loops``
slice one face's vertex loop, one cell's signed faces, sorted vertices and
outward vertex loops out of the mesh's CSR arrays, and
``cell_projector_blocks`` one cell's dense projector matrices out of the
global operator ``pi`` of ``build_projectors``.  ``mesh_quality_per_cell``, the
reference for the batched ``check_mesh_assumptions``, walks the faces and
the cells one by one.  The cell-by-cell references of batched library code
start from library face data: ``cell_projector_reference``, the reference
for ``build_projectors``, sums one cell's face integral rows from
``face_integral_rows``; the element stiffness, the reference for the batched
``Workspace.stiffness``, and the reference-error loop, the reference for the
batched ``compare_to_reference``, work on nodes from ``mesh_quadrature``, the
node builder that ``compare_to_reference`` and the solver use, with
projectors from ``cell_projector_reference``.  ``box_levelset_rowwise``,
``coulomb_potential_rowwise`` and ``coulomb_gradient_rowwise`` are the
row-wise forms (a max and a norm along each point's row) of the level set
and Coulomb fields that the library evaluates on coordinate columns.
``NodeRowForms``, the reference for the factored node sweeps of
``Workspace``, forms every integrand at every node of ``mesh_quadrature``:
Pi0 u as c0 + xi . c with the cell's coefficients repeated over its nodes,
then the weighted products with (1, xi) and (1, xi) (x) (1, xi), summed node
by node per cell, on the library's projector ``pi`` and on grad and stab
rows stacked from ``cell_projector_reference``.
``NodeRowForms.stiffness`` (K' diag(w) K), ``spgemm_jacobian``
(pi' blockdiag(M_E) pi) and ``free_block`` (the free-DoF slice) are SciPy
sparse products and slices, the references for the Workspace's assembly of
dense cell blocks onto one pattern.
``manufactured_linear`` is the patch-test load u = a0 + a.x, and
``residual_with`` the residual A u + B(u) - F on a given stiffness and load
vector, with B from ``Workspace.nonlinear``.  ``radial_ion`` is the
regularized unknown of a charge at the centre of a dielectric sphere, from a
radial boundary value problem solved by ``scipy.integrate.solve_bvp``.
``solvent_cells`` is the material of each cell by the face planes of the
cells that hold a charge, and ``NodeMaskWorkspace`` a Workspace that
classifies every quadrature node instead, with the same sums: on a mesh
whose cells each lie on one side of the level set, the two agree bit for bit.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_bvp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from vempb.forms import LoadSpec
from vempb.mesh import (
    KUHN_PERMUTATIONS,
    MeshError,
    PolyMesh,
    _mirrored_voronoi,
)
from vempb.solver import (
    NQ,
    Workspace,
    _UPPER_PAIRS,
    _check_sinh_argument,
    _integrals,
    _moments,
    _projected_values,
    mesh_quadrature,
)
from vempb.projectors import build_projectors, face_integral_rows


def build_polymesh(vertices, cell_loops, family=None, n=None):
    """Mesh from per-cell outward-oriented vertex loops, one loop at a time.

    A loop whose vertex set appeared before references that face with a
    negative sign; any other loop is a new face, numbered by first
    appearance and stored as given.  Constructing the ``PolyMesh`` rejects
    what is not a mesh (a bad loop, a face used three times or twice with the
    same orientation), naming the cell.
    """
    face_of, loops, refs, cell_ptr = {}, [], [], [0]
    for cell in cell_loops:
        for loop in cell:
            key = frozenset(np.asarray(loop).tolist())
            if key in face_of:
                refs.append(-face_of[key])
            else:
                loops.append(np.asarray(loop, dtype=np.int64))
                face_of[key] = len(loops)
                refs.append(len(loops))
        cell_ptr.append(len(refs))
    return PolyMesh(
        np.asarray(vertices, dtype=float),
        np.cumsum([0] + [len(loop) for loop in loops]),
        np.concatenate(loops),
        np.array(cell_ptr),
        np.array(refs),
        family=family,
        n=n,
    )


def face_loop(mesh, fi):
    """Vertex loop of face ``fi`` in its stored orientation."""
    return mesh.face_vertex[mesh.face_ptr[fi]:mesh.face_ptr[fi + 1]]


def cell_vertex_ids(mesh, ci):
    """Sorted unique vertex indices of cell ``ci`` (the local DoF order)."""
    return mesh.cell_vertex[mesh.cell_vertex_ptr[ci]:mesh.cell_vertex_ptr[ci + 1]]


def cell_faces(mesh, ci):
    """Face indices of cell ``ci`` with outward-orientation signs (+1/-1)."""
    refs = mesh.cell_face[mesh.cell_ptr[ci]:mesh.cell_ptr[ci + 1]]
    return [(abs(int(r)) - 1, 1 if r > 0 else -1) for r in refs]


def cell_face_loops(mesh, ci):
    """Vertex loops of cell ``ci`` oriented outward (signs applied)."""
    loops = []
    for fi, sgn in cell_faces(mesh, ci):
        loop = face_loop(mesh, fi)
        loops.append(loop.copy() if sgn > 0 else loop[::-1].copy())
    return loops


def mesh_quality_per_cell(mesh):
    """(min edge/face ratio, min face/cell ratio, star-fail faces, star-fail cells), face by face.

    A face's diameter is the largest distance between two of its loop vertices.
    """
    V = mesh.vertices
    diameter = np.zeros(mesh.n_faces)
    min_ef = np.inf
    star_fail_faces = 0
    for fi in range(mesh.n_faces):
        P = V[face_loop(mesh, fi)]
        diameter[fi] = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2).max())
        e = np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1)
        min_ef = min(min_ef, e.min() / diameter[fi])
        r = P - mesh.face_centroid[fi]
        tri_a = 0.5 * (np.cross(r, np.roll(r, -1, axis=0)) @ mesh.face_normal[fi])
        if np.any(tri_a <= 0):
            star_fail_faces += 1

    min_fE = np.inf
    star_fail_cells = 0
    for ci in range(mesh.n_cells):
        xe = mesh.cell_centroid[ci]
        ok = True
        for fi, sgn in cell_faces(mesh, ci):
            min_fE = min(min_fE, diameter[fi] / mesh.cell_diameter[ci])
            loop = face_loop(mesh, fi) if sgn > 0 else face_loop(mesh, fi)[::-1]
            P = V[loop]
            tv = np.cross(P - xe, np.roll(P, -1, axis=0) - xe) @ (mesh.face_centroid[fi] - xe)
            if np.any(tv <= 0):
                ok = False
        if not ok:
            star_fail_cells += 1
    return float(min_ef), float(min_fE), star_fail_faces, star_fail_cells


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
    for fi, sgn in cell_faces(mesh, ci):
        P = mesh.vertices[face_loop(mesh, fi)]
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


def all_mirror_voronoi_mesh(seeds):
    """Clipped Voronoi mesh from one Qhull call on the seeds and all six mirrors of each.

    Point (q + 1) * ns + i is seed i reflected across wall q of x=0, x=1,
    y=0, y=1, z=0, z=1: the input of the library's build before it chose
    mirrors from a first, seeds-only pass.  Everything after the Qhull call
    is the library's.
    """
    seeds = np.asarray(seeds, dtype=float)
    ns = len(seeds)
    return _mirrored_voronoi(seeds, np.tile(np.arange(ns), 7), np.repeat(np.arange(-1, 6), ns))


def angle_sorted_voronoi_loops(mesh, seeds):
    """The face loops of a Voronoi mesh of ``seeds``, each sorted by angle about its ridge normal.

    The normal of a face is b - a for the seed a whose cell references it
    positively and its neighbour b: the seed whose cell references it
    negatively, or else a's mirror across the wall the face lies on.  The
    sort is the one the build used before it kept Qhull's ridge order:
    arctan2 about the normal, from the first vertex, invariant under the
    positive scaling of that unnormalised basis.
    """
    seeds = np.asarray(seeds, dtype=float)
    ref_cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    face = np.abs(mesh.cell_face) - 1
    own = mesh.cell_face > 0
    a = np.empty(mesh.n_faces, dtype=np.int64)
    a[face[own]] = ref_cell[own]
    b = np.full(mesh.n_faces, -1)
    b[face[~own]] = ref_cell[~own]
    loops = []
    for fi in range(mesh.n_faces):
        ids = face_loop(mesh, fi)
        P = mesh.vertices[ids]
        if b[fi] >= 0:
            normal = seeds[b[fi]] - seeds[a[fi]]
        else:
            k = int(np.nonzero((P == P[0]).all(axis=0) & np.isin(P[0], (0.0, 1.0)))[0][0])
            normal = np.zeros(3)
            normal[k] = 2.0 * (P[0, k] - seeds[a[fi], k])
        r = P - P.mean(axis=0)
        e2 = np.cross(normal, r[0])
        loops.append(ids[np.argsort(np.arctan2(r @ e2, r @ r[0]))])
    return loops


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


CellProjectorReference = namedtuple(
    "CellProjectorReference", "vertex_ids pi_nabla pi0_grad stab_q dof_matrix face_rows"
)


CellProjectorBlocks = namedtuple("CellProjectorBlocks", "vertex_ids pi_nabla pi0_grad stab_q")


def cell_projector_blocks(projectors, ci):
    """Cell ``ci``'s dense projector matrices, read back from the operator ``pi`` of ``build_projectors``.

    The cell's 4 rows of ``pi`` must each reach exactly the cell's sorted
    vertex ids, and are restricted to those columns.  The projected gradient
    (rows 1..3 over h_E) and the remainder I - D_E pi_E, D_E the values of
    {1, xi} at the vertices, are formed from them.
    """
    mesh = projectors.mesh
    vids = cell_vertex_ids(mesh, ci)
    block = projectors.pi[4 * ci:4 * ci + 4]
    assert (np.array_equal(block.indptr, len(vids) * np.arange(5))
            and np.array_equal(block.indices, np.tile(vids, 4))), \
        f"cell {ci}: a pi row does not reach exactly the cell's vertices"
    pi_nabla = block[:, vids].toarray()
    h = mesh.cell_diameter[ci]
    dof_matrix = np.column_stack([np.ones(len(vids)), (mesh.vertices[vids] - mesh.cell_centroid[ci]) / h])
    stab_q = np.eye(len(vids)) - dof_matrix @ pi_nabla
    return CellProjectorBlocks(vids, pi_nabla, pi_nabla[1:] / h, stab_q)


def cell_projector_reference(mesh, ci, integral_rows):
    """Projector matrices of one cell, summed face by face from its integral rows.

    ``integral_rows`` is ``face_integral_rows(mesh)``.  ``face_rows`` holds
    each face's integral row spread over the cell's local DoFs (its sorted
    vertex ids); ``dof_matrix`` the values of {1, xi1, xi2, xi3} at the
    vertices, xi = (x - x_E)/h_E.
    """
    vids = cell_vertex_ids(mesh, ci)
    xe, h = mesh.cell_centroid[ci], mesh.cell_diameter[ci]
    grad_rows = np.zeros((3, len(vids)))   # |E| * averaged gradient
    bnd_rows = np.zeros(len(vids))         # integral of v over the cell boundary
    poly_bnd = np.zeros(3)                 # boundary integral of (x - x_E)
    total_area = 0.0
    face_rows = []
    for fi, sgn in cell_faces(mesh, ci):
        row = np.zeros(len(vids))
        row[np.searchsorted(vids, face_loop(mesh, fi))] = integral_rows[
            mesh.face_ptr[fi]:mesh.face_ptr[fi + 1]
        ]
        face_rows.append(row)
        grad_rows += sgn * np.outer(mesh.face_normal[fi], row)
        bnd_rows += row
        total_area += mesh.face_area[fi]
        poly_bnd += mesh.face_area[fi] * (mesh.face_centroid[fi] - xe)
    pi0_grad = grad_rows / mesh.cell_volume[ci]
    c_lin = h * pi0_grad
    c0 = (bnd_rows - (poly_bnd / h) @ c_lin) / total_area
    pi_nabla = np.vstack([c0, c_lin])
    dof_matrix = np.column_stack([np.ones(len(vids)), (mesh.vertices[vids] - xe) / h])
    stab_q = np.eye(len(vids)) - dof_matrix @ pi_nabla
    return CellProjectorReference(vids, pi_nabla, pi0_grad, stab_q, dof_matrix, face_rows)


def reference_errors_per_cell(coarse_mesh, u_h, fine_mesh, u_ref):
    """L2 and H1 errors of u_h against the projected fine field, one coarse cell at a time."""
    fine_rows = face_integral_rows(fine_mesh)
    fine = [cell_projector_reference(fine_mesh, ci, fine_rows) for ci in range(fine_mesh.n_cells)]
    coeffs = np.array([p.pi_nabla @ u_ref[p.vertex_ids] for p in fine])
    grads = np.array([p.pi0_grad @ u_ref[p.vertex_ids] for p in fine])
    coarse_rows = face_integral_rows(coarse_mesh)
    points, weights, _, _, cell_ptr, *_ = mesh_quadrature(coarse_mesh)
    total_l2 = 0.0
    total_h1 = 0.0
    for ci in range(coarse_mesh.n_cells):
        proj = cell_projector_reference(coarse_mesh, ci, coarse_rows)
        nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
        pts, w = points[nodes], weights[nodes]
        fid = _locate_structured_loop(fine_mesh, pts)
        xi = (pts - fine_mesh.cell_centroid[fid]) / fine_mesh.cell_diameter[fid, None]
        ref_vals = coeffs[fid, 0] + np.einsum("ij,ij->i", xi, coeffs[fid, 1:])
        monomials = np.column_stack(
            [np.ones(len(pts)), (pts - coarse_mesh.cell_centroid[ci]) / coarse_mesh.cell_diameter[ci]]
        )
        vals = monomials @ (proj.pi_nabla @ u_h[proj.vertex_ids])
        total_l2 += float(w @ (ref_vals - vals) ** 2)
        gdiff = grads[fid] - proj.pi0_grad @ u_h[proj.vertex_ids]
        total_h1 += float(w @ (gdiff**2).sum(axis=1))
    return float(np.sqrt(total_l2)), float(np.sqrt(total_h1))


def local_stiffness(mesh, ci, pi0_grad, stab_q, physics, points, weights):
    """Stabilized element stiffness of one cell from its quadrature nodes.

    Consistency term eps_int * G'G plus the dofi-dofi remainder scaled by
    h_E * eps_int / |E|, with G the projected gradient and eps_int the
    quadrature of the dielectric over the cell.
    """
    eps_int = float(weights @ physics.epsilon(points))
    sigma = mesh.cell_diameter[ci] * eps_int / mesh.cell_volume[ci]
    return eps_int * (pi0_grad.T @ pi0_grad) + sigma * (stab_q.T @ stab_q)


def interface_flags_per_cell(mesh, levelset):
    """Cells whose vertex, face-centroid and centroid samples take both strict signs."""
    phi_v = levelset(mesh.vertices)
    phi_f = levelset(mesh.face_centroid)
    phi_c = levelset(mesh.cell_centroid)
    flags = np.zeros(mesh.n_cells, dtype=bool)
    for ci in range(mesh.n_cells):
        vals = np.concatenate([
            phi_v[cell_vertex_ids(mesh, ci)],
            phi_f[[fi for fi, _ in cell_faces(mesh, ci)]],
            [phi_c[ci]],
        ])
        flags[ci] = (vals < 0).any() and (vals > 0).any()
    return flags


def box_levelset_rowwise(points, threshold=0.5):
    """max(x1, x2, x3) - threshold, reduced along each point's row."""
    return np.max(points, axis=1) - threshold


def coulomb_potential_rowwise(physics, points):
    """Sum of (q_i/eps_m)/|x - x_i| with row-wise distance norms."""
    out = np.zeros(len(points))
    for q, x in physics.charges:
        out += (q / physics.eps_m) / np.linalg.norm(points - np.asarray(x), axis=1)
    return out


def coulomb_gradient_rowwise(physics, points):
    """Gradient of :func:`coulomb_potential_rowwise`, as (n, 3) rows."""
    out = np.zeros_like(points)
    for q, x in physics.charges:
        rel = points - np.asarray(x)
        out -= (q / physics.eps_m) * rel / np.linalg.norm(rel, axis=1)[:, None] ** 3
    return out


def solvent_cells(mesh, physics, tol=1e-10):
    """Each cell's material, True in the solvent, one cell and one face at a time.

    A cell takes the side of the level set at its centroid, except that a
    convex cell whose closure holds a charge, every outward face plane
    having the charge on its inner side up to ``tol`` h_E, is molecular.
    """
    solvent = physics.levelset(mesh.cell_centroid) > 0
    for ci in range(mesh.n_cells):
        for _, x in physics.charges:
            if all(sgn * mesh.face_normal[fi] @ (np.asarray(x) - mesh.face_centroid[fi])
                   <= tol * mesh.cell_diameter[ci] for fi, sgn in cell_faces(mesh, ci)):
                solvent[ci] = False
    return solvent


# (i, j), i <= j, of the symmetric 4x4 moments of (1, xi)
UPPER_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]


class NodeRowForms:
    """Stiffness, loads, screened term, Jacobian and errors from node rows, whole mesh at once.

    Every integrand is evaluated at every quadrature node, multiplied by the
    node weight and by the monomials (1, xi) of its node, and summed per cell
    with one ``reduceat`` over the nodes; the forms are then the sparse
    products on ``build_projectors``'s ``pi`` and on the grad and stab rows
    of ``cell_projector_reference``.  Each node takes the material of its
    cell, from :func:`solvent_cells`.
    """

    def __init__(self, mesh, physics):
        self.mesh, self.physics = mesh, physics
        self.points, self.weights, self.xi, _, self.cell_ptr, *_ = mesh_quadrature(mesh)
        self.P = build_projectors(mesh)
        # the grad and stab rows of every cell from the per-cell reference, not from pi
        rows = face_integral_rows(mesh)
        refs = [cell_projector_reference(mesh, ci, rows) for ci in range(mesh.n_cells)]
        self.grad = _stacked_cell_rows([(r.vertex_ids, r.pi0_grad) for r in refs], mesh.n_vertices)
        self.stab = _stacked_cell_rows([(r.vertex_ids, r.stab_q) for r in refs], mesh.n_vertices)
        self.solvent = np.repeat(solvent_cells(mesh, physics), np.diff(self.cell_ptr))
        self.eps = np.where(self.solvent, physics.eps_s, physics.eps_m)
        self.kbar = physics.kappa_bar_sq_solvent
        sp_points = self.points[self.solvent]
        self.G = np.zeros(len(self.weights))
        self.grad_G = np.zeros((len(self.weights), 3))
        if len(sp_points) and len(physics.charges):
            self.G[self.solvent] = physics.coulomb_potential(sp_points)
            self.grad_G[self.solvent] = physics.coulomb_gradient(sp_points)

    def _cells(self, rows):
        return np.add.reduceat(rows, self.cell_ptr[:-1], axis=-1)

    def _moments(self, s, pairs):
        """Per-cell sums of s e_i e_j, e = (1, xi), node by node: (len(pairs), n_cells)."""
        e = np.vstack([np.ones(len(s)), self.xi.T])
        return self._cells(np.array([s * e[i] * e[j] for i, j in pairs]))

    def _spread(self, per_cell):
        return np.repeat(per_cell, np.diff(self.cell_ptr), axis=0)

    def projected_values(self, u):
        c = self._spread(self.P.value_coeffs(u))
        return c[:, 0] + np.einsum("pj,pj->p", self.xi, c[:, 1:])

    def stiffness(self):
        """K' diag(w) K (dense), K the grad rows stacked on the stab rows.

        w holds each cell's dielectric integral eps_E once per grad row and
        sigma_E = h_E eps_E / |E| once per stab row.
        """
        eps_int = self._cells(self.weights * self.eps)
        sigma = self.mesh.cell_diameter * eps_int / self.mesh.cell_volume
        K = sp.vstack([self.grad, self.stab], format="csr")
        n_dofs = np.diff(self.mesh.cell_vertex_ptr)
        w = np.concatenate([np.repeat(eps_int, 3), np.repeat(sigma, n_dofs)])
        return (K.T @ (sp.diags(w) @ K)).toarray()

    def _assemble(self, flux_rows, source):
        """grad' flux + pi' moments: per-node flux rows (n, 3) and source values."""
        flux = self._cells(self.weights * flux_rows.T)
        mom = self._moments(self.weights * source, UPPER_PAIRS[:4])
        return self.grad.T @ flux.T.ravel() + self.P.pi.T @ mom.T.ravel()

    def load(self, load):
        if load.mode == "regularized":
            phys = self.physics
            jump = -(phys.eps_s - phys.eps_m) * self.grad_G
            return self._assemble(jump, np.zeros(len(self.weights)))
        sinh = self.kbar * self.solvent * np.sinh(load.u_exact(self.points) * self.solvent + self.G)
        return self._assemble(self.eps[:, None] * load.grad_u_exact(self.points), sinh)

    def nonlinear(self, u):
        """B and the Jacobian of the screened sinh term at u (dense)."""
        P = self.P
        arg = self.projected_values(u) * self.solvent + self.G
        s = self.weights * self.kbar * self.solvent
        B = P.pi.T @ self._moments(s * np.sinh(arg), UPPER_PAIRS[:4]).T.ravel()
        sums = self._moments(s * np.cosh(arg), UPPER_PAIRS)
        M = np.empty((self.mesh.n_cells, 4, 4))
        for col, (i, j) in enumerate(UPPER_PAIRS):
            M[:, i, j] = M[:, j, i] = sums[col]
        pi = P.pi.toarray()
        J = sum(pi[4 * c:4 * c + 4].T @ M[c] @ pi[4 * c:4 * c + 4] for c in range(len(M)))
        return B, J

    def debye_huckel(self, u):
        """B0 and the cell blocks M0 of the screened term linearized at Pi0 u + G = 0.

        B0 = pi' int kappa_bar^2 (Pi0 u + G) [solvent] (1, xi) and
        M0_E = int_E kappa_bar^2 [solvent] (1, xi) (x) (1, xi), node by node.
        """
        s = self.weights * self.kbar * self.solvent
        arg = (self.projected_values(u) + self.G) * self.solvent
        B0 = self.P.pi.T @ self._moments(s * arg, UPPER_PAIRS[:4]).T.ravel()
        sums = self._moments(s, UPPER_PAIRS)
        M0 = np.empty((self.mesh.n_cells, 4, 4))
        for col, (i, j) in enumerate(UPPER_PAIRS):
            M0[:, i, j] = M0[:, j, i] = sums[col]
        return B0, M0

    def error_norms(self, u, u_exact, grad_u_exact):
        diff = u_exact(self.points) - self.projected_values(u)
        grad = self.P.value_coeffs(u)[:, 1:] / self.mesh.cell_diameter[:, None]
        gdiff = grad_u_exact(self.points) - self._spread(grad)
        return (float(np.sqrt(self.weights @ diff**2)),
                float(np.sqrt(self.weights @ (gdiff**2).sum(axis=1))))


class NodeMaskWorkspace(Workspace):
    """A Workspace whose material is the level set's side at every quadrature node.

    It holds the node mask ``solvent`` in place of the per-cell material and
    G at every node, 0 off the solvent, and reads them in the physics state,
    the loads and the sinh sweep, which run over every tet of each node
    block and multiply by the mask; the per-tet sums are the Workspace's
    own, in the Workspace's order.  The point charges play no part in the
    mask.
    """

    def _attach(self, physics):
        if physics is self._physics:
            return
        screened = physics.kappa_bar_sq_solvent > 0
        solvent = np.empty(len(self.weights), dtype=bool)
        G = np.zeros(len(self.weights)) if screened else None
        eps_int = []
        for cells, nodes, _ in self._blocks():
            points = self.points[nodes]
            mask = solvent[nodes] = physics.solvent_mask(points)
            eps_int.append(np.add.reduceat(
                self.weights[nodes] * np.where(mask, physics.eps_s, physics.eps_m),
                self.cell_ptr[cells] - nodes.start,
            ))
            if screened and mask.any():
                G[nodes][mask] = physics.coulomb_potential(points.T.compress(mask, axis=1).T)
        self.solvent, self._eps_int = solvent, np.concatenate(eps_int)
        self._G = G if screened and solvent.any() else None
        self._physics = physics

    def _serial_sums(self, block):
        """The Workspace's per-cell sums of ``block(cells, nodes, tets)``, block by block, serial."""
        return np.concatenate([np.add.reduceat(block(cells, nodes, tets),
                                               self._tet_ptr[cells] - tets.start, axis=-1)
                               for cells, nodes, tets in self._blocks()], axis=-1)

    def load_vector(self, physics, load):
        self._attach(physics)
        if load.mode == "regularized":
            flux = self._serial_sums(
                lambda cells, nodes, tets: _integrals(self._jump_flux(physics, cells, nodes),
                                                      self.dets[tets])
            )
            moments = np.zeros((4, self.mesh.n_cells))
        else:
            flux, moments = np.split(self._manufactured_sums(physics, load), [3])
        moments[1:] += flux / self.mesh.cell_diameter
        return self.projectors.pi.T @ moments.T.ravel()

    def _manufactured_sums(self, physics, load):
        G, kbar_sq = self._G, physics.kappa_bar_sq_solvent

        def integrals(cells, nodes, tets):
            points = self.points[nodes]
            if G is None:
                source = np.zeros(len(points))
            else:
                arg = load.u_exact(points) * self.solvent[nodes] + G[nodes]
                _check_sinh_argument(arg)
                source = kbar_sq * np.sinh(arg)
            flux = np.multiply(load.grad_u_exact(points).T,
                               np.where(self.solvent[nodes], physics.eps_s, physics.eps_m),
                               out=np.empty((3, len(points))))
            out = np.empty((7, tets.stop - tets.start))
            out[:3] = _integrals(flux.reshape(3, -1, NQ), self.dets[tets])
            out[3:] = _moments(source.reshape(-1, NQ), self.maps[:, :, tets], self.dets[tets], 4)
            return out

        return self._serial_sums(integrals)

    def _jump_flux(self, physics, cells, nodes):
        vec = np.zeros((3, nodes.stop - nodes.start))
        mask = self.solvent[nodes]
        if mask.any():
            points = self.points[nodes].T.compress(mask, axis=1).T
            vec[:, mask] = -(physics.eps_s - physics.eps_m) * physics.coulomb_gradient(points).T
        return vec.reshape(3, -1, NQ)

    def _sinh_sweep(self, physics, u, linearized):
        self._attach(physics)
        M = np.zeros((self.mesh.n_cells, 4, 4))
        G = self._G
        if G is None:
            nv = self.mesh.n_vertices
            return np.zeros(nv), np.zeros(nv) if linearized else None, M
        coeff_rows = np.ascontiguousarray(self.projectors.value_coeffs(u).T)
        kbar_sq = physics.kappa_bar_sq_solvent

        def moments(cells, nodes, tets):
            solvent = self.solvent[nodes].reshape(-1, NQ)
            C, w = self.maps[:, :, tets], self.dets[tets] * kbar_sq
            arg = _projected_values(self._tet_rows(coeff_rows, cells), C)
            arg *= solvent
            arg += G[nodes].reshape(-1, NQ)
            _check_sinh_argument(arg)
            out = np.empty((18 if linearized else 14, tets.stop - tets.start))
            out[:4] = _moments(np.sinh(arg), C, w, 4)
            if linearized:
                out[4:14] = _moments(solvent.astype(float), C, w, 10)
                out[14:] = _moments(arg, C, w, 4)
            else:
                c = np.cosh(arg)
                c *= solvent
                out[4:] = _moments(c, C, w, 10)
            return out

        sums = self._serial_sums(moments)
        for col, (i, j) in enumerate(_UPPER_PAIRS):
            M[:, i, j] = M[:, j, i] = sums[4 + col]
        pi_t = self.projectors.pi.T
        return (pi_t @ sums[:4].T.ravel(), pi_t @ sums[14:].T.ravel() if linearized else None,
                M)


def _stacked_cell_rows(cell_rows, n_columns):
    """CSR stack, in cell order, of each cell's dense rows (k, D) over its vertex ids (D,)."""
    return sp.vstack([
        sp.csr_matrix((rows.ravel(), np.tile(vids, len(rows)), len(vids) * np.arange(len(rows) + 1)),
                      shape=(len(rows), n_columns))
        for vids, rows in cell_rows
    ], format="csr")


def spgemm_jacobian(projectors, M):
    """pi' blockdiag(M_E) pi, from the cell blocks M (n_cells, 4, 4)."""
    cells = np.arange(len(M) + 1)
    Mb = sp.bsr_matrix((M, cells[:-1], cells), shape=(4 * len(M), 4 * len(M)))
    pi = projectors.pi
    return pi.T.tocsr() @ (Mb.tocsr() @ pi)


def free_block(matrix, free):
    """The rows and columns of ``matrix`` on the boolean mask ``free``."""
    return matrix.tocsr()[free][:, free]


def manufactured_linear(coeffs=(0.0, 1.0, 0.0, 0.0)) -> LoadSpec:
    """u = a0 + a.x, the patch-test field (non-zero Dirichlet data)."""
    a0 = float(coeffs[0])
    a = np.asarray(coeffs[1:], dtype=float)

    def u(p):
        return a0 + np.atleast_2d(p) @ a

    def grad(p):
        return np.broadcast_to(a, (len(np.atleast_2d(p)), 3)).copy()

    return LoadSpec(mode="manufactured", u_exact=u, grad_u_exact=grad)


def residual_with(ws, physics, A, F, u):
    """A u + B(u) - F with the Dirichlet rows zeroed, for a stiffness A and load F built once."""
    B, _ = ws.nonlinear(physics, u)
    r = A @ u + B - F
    r[ws.mesh.boundary_vertex] = 0.0
    return r


# the charged sphere of the closed-form tests: centre, radius, and the radius
# beyond every point of the unit cube (sqrt(3)/2 from the centre) where the
# radial potential is grounded
SPHERE_CENTRE = np.array([0.5, 0.5, 0.5])
SPHERE_RADIUS = 0.25
GROUND_RADIUS = 0.9


def radial_ion(q, eps_m, eps_s, kappa):
    """Exact u and grad u of a charge q at the centre of the sphere, as functions of points.

    The potential phi is radial.  Inside the sphere phi = q/(eps_m r) + const,
    so the regularized unknown u = phi - q/(eps_m r) is constant there.
    Outside, phi'' + 2 phi'/r = kappa^2 sinh(phi) with the flux condition
    eps_s phi'(a) = -q/a^2 at the radius a and phi = 0 at ``GROUND_RADIUS``;
    ``solve_bvp`` (tol 1e-10) solves it.  Any radial solution is exact on
    the cube when its own values are the Dirichlet data.
    """
    a, b = SPHERE_RADIUS, GROUND_RADIUS

    def rhs(r, y):
        return np.vstack([y[1], kappa**2 * np.sinh(y[0]) - 2.0 * y[1] / r])

    def bc(ya, yb):
        return np.array([eps_s * ya[1] + q / a**2, yb[0]])

    # the kappa = 0 solution as the first guess
    r = np.linspace(a, b, 50)
    guess = np.vstack([q / eps_s * (1.0 / r - 1.0 / b), -q / (eps_s * r**2)])
    sol = solve_bvp(rhs, bc, r, guess, tol=1e-10, max_nodes=100000)
    if sol.status != 0:
        raise RuntimeError(f"radial BVP not solved: {sol.message}")

    # sol.sol searches its thousands of intervals point by point; on a uniform grid the
    # interval is found by arithmetic, which keeps a sweep over millions of nodes cheap.
    # Cubic Hermite interpolation of sol.sol on 2^14 intervals differs from it by
    # less than 1e-14 at q = 1, kappa = 4.
    n = 2**14
    h = (b - a) / n
    grid = np.linspace(a, b, n + 1)
    y, dy = sol.sol(grid), h * sol.sol(grid, 1)

    def radial(r, k):
        """Component k of (phi, phi') at radii r in [a, b]."""
        t = (r - a) / h
        i = np.minimum(t.astype(np.intp), n - 1)
        s = t - i
        y0, y1, d0, d1 = y[k, i], y[k, i + 1], dy[k, i], dy[k, i + 1]
        return y0 + s * (d0 + s * (3 * (y1 - y0) - 2 * d0 - d1 + s * (2 * (y0 - y1) + d0 + d1)))

    # inside the sphere u is its value at r = a, and grad u is zero
    def u(points):
        r = np.maximum(np.linalg.norm(np.atleast_2d(points) - SPHERE_CENTRE, axis=1), a)
        return radial(r, 0) - q / (eps_m * r)

    def grad(points):
        rel = np.atleast_2d(points) - SPHERE_CENTRE
        r = np.maximum(np.linalg.norm(rel, axis=1), a)
        dr = np.where(r > a, radial(r, 1) + q / (eps_m * r**2), 0.0)
        return (dr / r)[:, None] * rel

    return u, grad
