"""Polyhedral meshes of the unit cube: data model, generators, quality checks, I/O.

A mesh is a flat polyhedral complex held in CSR arrays (:class:`PolyMesh`).
Faces are stored once as oriented vertex loops (counter-clockwise with
respect to the stored normal); cells reference faces through signed 1-based
indices, where a negative sign means the stored orientation points into the
cell and must be flipped to get the outward normal.  Interior faces are
therefore referenced exactly twice with opposite signs, boundary faces
exactly once.

All shipped generators tile [0,1]^3 exactly: structured cubes, a Kuhn
(6-tetrahedra) subdivision of the cubes, and clipped Voronoi diagrams of
random seeds.  The Voronoi cells come from two Qhull calls.  The first, on
the seeds plus eight far sentinel points that bound every region, shows
which walls each seed's region reaches past; the second runs on the seeds
and their mirror images across just those walls.  Its regions of the
original seeds are exactly the clipped cells: a point beyond wall q in
seed i's region lies in i's first-pass region too, so i's mirror across q
is present and nearer, and a point inside the cube is never nearer to the
mirror of seed j than to j.  Each of its ridges is one face, shared by the
two seeds it separates.  The structured generators number their faces
straight from the grid: the cube's table of face loops says which loops of
a cube meet each other or a loop of the cube below, so every face is
stored at its first appearance.  Constructing a :class:`PolyMesh`, the one
path for every builder, indexes and checks it, measures its geometry
(centroids, measures, cell diameters) from exact polygonal face integrals
via the divergence theorem and makes its arrays read-only; face diameters
are left to the regularity audit, their one reader.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import Voronoi

PLANARITY_TOL = 1e-10
CUBE_TOL = 1e-12
MIN_FACE_AREA = 1e-14
MIN_CELL_VOLUME = 1e-12
# corners of [-2, 3]^3: each is at least 2*sqrt(3) from every point of the unit
# cube, twice the cube's diameter, so no seed is farther than a sentinel
_SENTINELS = np.array(list(itertools.product((-2.0, 3.0), repeat=3)))


class MeshError(Exception):
    """Invalid mesh topology or geometry; names the offending cell or face if known."""

    def __init__(self, message: str, cell: int | None = None, face: int | None = None):
        super().__init__(message)
        self.cell = cell
        self.face = face


class VpmParseError(MeshError):
    """Malformed VPM mesh file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def box_levelset(threshold: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """Level set max(x1,x2,x3) - threshold of the box [0,threshold]^3.

    Maps points (n, 3) to values (n,), strictly negative exactly on the open
    box and zero on its boundary.
    """
    if not np.isfinite(threshold):
        raise ValueError(f"box threshold must be finite, got {threshold}")

    def levelset(pts: np.ndarray) -> np.ndarray:
        return np.maximum(np.maximum(pts[:, 0], pts[:, 1]), pts[:, 2]) - threshold

    return levelset


@dataclass
class PolyMesh:
    """Polyhedral mesh with exact geometry, topology in CSR arrays.

    Face fi's loop is ``face_vertex[face_ptr[fi]:face_ptr[fi + 1]]``; cell
    ci's face refs and sorted unique vertices (its local DoF order) are sliced
    alike by ``cell_ptr`` and ``cell_vertex_ptr``.  Construction copies the
    given arrays, then in one walk over the face corners indexes the cells,
    checks the topology and measures the geometry (:class:`MeshError` on the
    first fault), filling the fields below, all read by the solver; face
    diameters, read only by :func:`check_mesh_assumptions`, are computed
    there.  Every array is then read-only, so moved vertices make a new mesh:
    ``dataclasses.replace(mesh, vertices=moved)``.
    """

    vertices: np.ndarray                 # (nv, 3)
    face_ptr: np.ndarray                 # (nf + 1,) offsets into face_vertex
    face_vertex: np.ndarray              # face vertex loops, concatenated
    cell_ptr: np.ndarray                 # (nc + 1,) offsets into cell_face
    cell_face: np.ndarray                # signed 1-based face refs, concatenated
    family: str | None = None            # generator tag: cubic | tet | voronoi
    n: int | None = None                 # cells-per-axis for structured families

    cell_vertex_ptr: np.ndarray = field(init=False)    # (nc + 1,) offsets into cell_vertex
    cell_vertex: np.ndarray = field(init=False)        # sorted unique vertices per cell
    face_normal: np.ndarray = field(init=False)
    face_centroid: np.ndarray = field(init=False)
    face_area: np.ndarray = field(init=False)
    cell_centroid: np.ndarray = field(init=False)
    cell_volume: np.ndarray = field(init=False)
    cell_diameter: np.ndarray = field(init=False)
    boundary_vertex: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("vertices", "face_ptr", "face_vertex", "cell_ptr", "cell_face"):
            setattr(self, name, np.array(getattr(self, name)))
        corners = _flat_corners(self)
        use = _index_cells(self, corners)
        _check_topology(self, corners, use)
        _measure(self, corners)
        for array in (v for v in vars(self).values() if isinstance(v, np.ndarray)):
            array.flags.writeable = False

    def __reduce__(self):
        # pickle and copy construct the mesh anew, so their copies are read-only too
        return PolyMesh, (self.vertices, self.face_ptr, self.face_vertex, self.cell_ptr,
                          self.cell_face, self.family, self.n)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.face_ptr) - 1

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    def total_volume(self) -> float:
        return float(self.cell_volume.sum())


def _index_cells(mesh: PolyMesh, corners) -> np.ndarray:
    """Fill cell vertices and boundary-vertex flags; return each face's reference count."""
    ref_cell, ref_face, _, c_ref, va, _ = corners
    nv = mesh.n_vertices
    # the distinct keys by a sort and a first-of-run mask: np.unique is several times slower
    keys = np.sort(ref_cell[c_ref] * nv + va)
    cell, mesh.cell_vertex = np.divmod(keys[np.diff(keys, prepend=-1) != 0], nv)
    mesh.cell_vertex_ptr = np.searchsorted(cell, np.arange(mesh.n_cells + 1))
    use = np.bincount(ref_face, minlength=mesh.n_faces)
    mesh.boundary_vertex = np.zeros(nv, dtype=bool)
    mesh.boundary_vertex[va[(use == 1)[ref_face[c_ref]]]] = True
    return use


def _concat_index(lens: np.ndarray) -> np.ndarray:
    """[0..l0-1, 0..l1-1, ...] for the given segment lengths."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) - np.repeat(ends - lens, lens)


def _segments_by_length(ptr: np.ndarray):
    """Per segment length m of CSR pointer ``ptr``: segments ``idx``, positions ``at`` (., m)."""
    lens = np.diff(ptr)
    for m in np.unique(lens):
        idx = np.nonzero(lens == m)[0]
        yield idx, ptr[idx, None] + np.arange(m)


def _diameters(V: np.ndarray, ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Largest distance between two points ``V[ids[ptr[i]:ptr[i + 1]]]``, per segment i."""
    diam = np.zeros(len(ptr) - 1)
    for idx, at in _segments_by_length(ptr):
        P = V[ids[at]]                                         # (segments, m, 3)
        d2 = ((P[:, :, None, :] - P[:, None, :, :]) ** 2).sum(axis=3)
        diam[idx] = np.sqrt(d2.reshape(len(idx), -1).max(axis=1))
    return diam


def _flat_corners(mesh: PolyMesh):
    """Flat (cell, face, sign, corner vertex, next vertex) arrays over all face refs."""
    ref_cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    ref_face = np.abs(mesh.cell_face) - 1
    ref_sign = np.sign(mesh.cell_face)

    c_lens = np.diff(mesh.face_ptr)[ref_face]
    c_ref = np.repeat(np.arange(len(ref_face)), c_lens)
    pos = _concat_index(c_lens)
    start = mesh.face_ptr[ref_face][c_ref]
    va = mesh.face_vertex[start + pos]
    vb = mesh.face_vertex[start + (pos + 1) % c_lens[c_ref]]
    return ref_cell, ref_face, ref_sign, c_ref, va, vb


def _cone_tets(mesh: PolyMesh):
    """The cone tetrahedra (x_E, x_f, a, b) of every cell over its face-fan edges (a, b).

    (a, b) runs along the outward-oriented face loop.  Returns each tet's
    cell, its apex x_E (tets, 3), its edge rows (x_f - x_E, a - x_E,
    b - x_E) as (tets, 3, 3), and its determinant (six times its signed
    volume).  Every determinant of a cell is positive iff the cell is
    star-shaped with respect to its centroid, for convex cells exactly.
    """
    ref_cell, ref_face, ref_sign, c_ref, va, vb = _flat_corners(mesh)
    cell = ref_cell[c_ref]
    swapped = ref_sign[c_ref] < 0
    apex = mesh.cell_centroid[cell]
    e1 = mesh.face_centroid[ref_face[c_ref]] - apex
    e2 = mesh.vertices[np.where(swapped, vb, va)] - apex
    e3 = mesh.vertices[np.where(swapped, va, vb)] - apex
    dets = np.einsum("tj,tj->t", np.cross(e2, e3), e1)
    return cell, apex, np.stack([e1, e2, e3], axis=1), dets


def _check_topology(mesh: PolyMesh, corners, use: np.ndarray) -> None:
    """Check that every cell is a closed, oriented surface, then the face-use counts ``use``."""
    # per cell, every directed edge of the outward-oriented face loops must
    # appear exactly once in each direction
    ref_cell, ref_face, ref_sign, c_ref, va, vb = corners
    flip = ref_sign[c_ref] < 0
    ea = np.where(flip, vb, va)
    eb = np.where(flip, va, vb)
    cell = ref_cell[c_ref]
    lo = np.minimum(ea, eb)
    hi = np.maximum(ea, eb)
    order = np.lexsort((ea, lo, hi, cell))
    cell_s, lo_s, hi_s, ea_s = cell[order], lo[order], hi[order], ea[order]
    n = len(cell_s)
    # the same undirected edge of the same cell, once in each direction
    same = (cell_s[:-1] == cell_s[1:]) & (lo_s[:-1] == lo_s[1:]) & (hi_s[:-1] == hi_s[1:])
    same &= ea_s[:-1] != ea_s[1:]
    even = np.arange(0, n - 1, 2)
    good = same[even]
    if n % 2 == 1 or not good.all():
        bad_at = int(even[np.nonzero(~good)[0][0]]) if n % 2 == 0 else n - 1
        ci = int(cell_s[bad_at])
        raise MeshError(
            f"non-watertight cell {ci}: edge ({int(lo_s[bad_at])},{int(hi_s[bad_at])}) "
            "is not paired with its reverse",
            cell=ci,
        )

    bad = np.nonzero((use < 1) | (use > 2))[0]
    if len(bad):
        raise MeshError(f"face {bad[0]} referenced {use[bad[0]]} times (expected 1 or 2)")
    sign_sum = np.bincount(ref_face, weights=ref_sign, minlength=mesh.n_faces)
    one_way = np.nonzero((use == 2) & (sign_sum != 0))[0]
    if len(one_way):
        raise MeshError(f"interior face {one_way[0]} used twice with the same orientation")


def _measure(mesh: PolyMesh, corners) -> None:
    """Fill face normals, centroids and areas, and cell centroids, volumes and diameters.

    Face diameters are left to :func:`check_mesh_assumptions`.  Cell volumes
    use the divergence theorem with exact polygonal face integrals; centroids
    come from the matching signed-tetrahedron first moments.  A non-positive
    cell volume is reported as an orientation error.  No closure test is
    needed: once :func:`_check_topology` has paired each directed edge of a
    cell's outward loops with its reverse, the vector areas of its faces sum
    to zero in exact arithmetic.  Faces and cells are processed in groups of
    equal vertex count so the pass is array arithmetic.
    """
    V = mesh.vertices
    nf, nc = mesh.n_faces, mesh.n_cells
    f_normal = np.zeros((nf, 3))
    f_centroid = np.zeros((nf, 3))
    f_area = np.zeros(nf)

    for idx, at in _segments_by_length(mesh.face_ptr):
        P = V[mesh.face_vertex[at]]                            # (F, m, 3)
        r = P - P.mean(axis=1, keepdims=True)
        cr = np.cross(r, np.roll(r, -1, axis=1))
        nrm = 0.5 * cr.sum(axis=1)
        area = np.linalg.norm(nrm, axis=1)
        if np.any(area <= MIN_FACE_AREA):
            fi = int(idx[int(np.argmax(area <= MIN_FACE_AREA))])
            raise MeshError(f"degenerate face {fi}", face=fi)
        n_hat = nrm / area[:, None]
        tri_a = 0.5 * np.einsum("fmj,fj->fm", cr, n_hat)       # signed fan areas
        tri_c = (P.mean(axis=1, keepdims=True) + P + np.roll(P, -1, axis=1)) / 3.0
        centroid = np.einsum("fm,fmj->fj", tri_a, tri_c) / tri_a.sum(axis=1)[:, None]
        dev = np.abs(np.einsum("fmj,fj->fm", P - centroid[:, None, :], n_hat)).max(axis=1)
        if np.any(dev > PLANARITY_TOL):
            fi = int(idx[int(np.argmax(dev > PLANARITY_TOL))])
            raise MeshError(f"face {fi} not planar (max deviation {dev.max():.3e})", face=fi)
        f_normal[idx] = n_hat
        f_centroid[idx] = centroid
        f_area[idx] = area

    # cell vertex means
    vptr = mesh.cell_vertex_ptr
    p0 = np.add.reduceat(V[mesh.cell_vertex], vptr[:-1], axis=0) / np.diff(vptr)[:, None]

    ref_cell, ref_face, ref_sign, c_ref, va, vb = corners
    n_out = f_normal[ref_face] * ref_sign[:, None]
    rel_f = f_centroid[ref_face] - p0[ref_cell]
    contrib = f_area[ref_face] * np.einsum("rj,rj->r", rel_f, n_out)
    c_volume = np.bincount(ref_cell, weights=contrib, minlength=nc) / 3.0
    if np.any(c_volume <= 0.0):
        ci = int(np.argmax(c_volume <= 0.0))
        raise MeshError(
            f"cell {ci}: non-positive volume {c_volume[ci]:.3e} (orientation error)", cell=ci
        )

    # signed tetrahedra (p0, x_f, v_a, v_b) over all corners
    corner_cell = ref_cell[c_ref]
    pc, xf, xa, xb = p0[corner_cell], f_centroid[ref_face[c_ref]], V[va], V[vb]
    tv = ref_sign[c_ref] * np.einsum("rj,rj->r", np.cross(xa - pc, xb - pc), xf - pc) / 6.0
    tc = (pc + xf + xa + xb) / 4.0
    tet_total = np.bincount(corner_cell, weights=tv, minlength=nc)
    moment = np.column_stack(
        [np.bincount(corner_cell, weights=tv * tc[:, k], minlength=nc) for k in range(3)]
    )
    c_centroid = moment / tet_total[:, None]

    mesh.face_normal = f_normal
    mesh.face_centroid = f_centroid
    mesh.face_area = f_area
    mesh.cell_centroid = c_centroid
    mesh.cell_volume = c_volume
    mesh.cell_diameter = _diameters(V, vptr, mesh.cell_vertex)


# ---------------------------------------------------------------------------
# generators


def _vertex_grid(n: int) -> np.ndarray:
    s = np.linspace(0.0, 1.0, n + 1)
    Z, Y, X = np.meshgrid(s, s, s, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])


def _grid_offsets(corners: np.ndarray, n: int) -> np.ndarray:
    """Grid-id offsets of integer (di, dj, dk) corner steps (last axis)."""
    return corners[..., 0] + (n + 1) * (corners[..., 1] + (n + 1) * corners[..., 2])


def _structured_mesh(n: int, cell_faces: np.ndarray, family: str) -> PolyMesh:
    """Mesh of n^3 grid cubes, each split into the cells of ``cell_faces``.

    ``cell_faces`` (cells per cube, faces per cell, loop length, 3) holds the
    outward face loops as corner steps from a cube's low corner.  Cubes are
    numbered with x fastest, then y, then z, each with its loops in table
    order.  Faces are numbered by first appearance and stored as first
    given; a later appearance references its face with a negative sign.  A
    loop on a cube's low wall a first appeared as the high-wall loop (its
    corner steps plus e_a) of the cube below, if that is in the grid; any
    other loop as the earlier loop of its own cube with the same corners, if
    there is one.
    """
    if n < 1:
        raise ValueError("cells-per-axis must be >= 1")
    cpc, fpc, m = cell_faces.shape[:3]
    table = cell_faces.reshape(-1, m, 3)
    corners = [sorted(map(tuple, loop)) for loop in table.tolist()]
    # per table loop: the step back to the cube of its first appearance and
    # that appearance's table loop (-1: none, the loop is new in every cube)
    shift = np.zeros_like(table[:, 0])
    partner = np.full(len(table), -1)
    for l, loop in enumerate(table):
        low = np.flatnonzero((loop == 0).all(axis=0))
        if len(low):
            shift[l, low[0]] = 1
            partner[l] = corners.index(sorted(map(tuple, (loop + shift[l]).tolist())))
        else:
            partner[l] = next((k for k in range(l) if corners[k] == corners[l]), -1)

    cube = np.stack(np.unravel_index(np.arange(n**3), (n, n, n))[::-1], axis=-1)[:, None]
    holder = cube - shift                                       # (cubes, loops, 3)
    new = (partner < 0) | (holder < 0).any(axis=2)
    # flat (cube, loop) index of every loop's first appearance
    first = (holder @ np.array([1, n, n * n])) * len(table) + partner
    first[new] = np.flatnonzero(new)
    face_id = np.cumsum(new) - 1
    rows = _grid_offsets(cube, n)[..., None] + _grid_offsets(table, n)
    return PolyMesh(
        vertices=_vertex_grid(n),
        face_ptr=m * np.arange(face_id[-1] + 2),
        face_vertex=rows[new].ravel(),
        cell_ptr=fpc * np.arange(n**3 * cpc + 1),
        cell_face=np.where(new, 1, -1).ravel() * (face_id[first.ravel()] + 1),
        family=family,
        n=n,
    )


_CUBE_FACES = np.array([[
    [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],   # +x
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],   # -x
    [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],   # +y
    [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],   # -y
    [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],   # +z
    [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],   # -z
]])


def generate_cube_mesh(n: int) -> PolyMesh:
    """Structured mesh of n^3 axis-aligned cubes on [0,1]^3."""
    return _structured_mesh(n, _CUBE_FACES, "cubic")


# Kuhn subdivision: walk the cube axes in each of the 6 permutation orders;
# a cube's tets are numbered in lexicographic permutation order.
KUHN_PERMUTATIONS = tuple(itertools.permutations(range(3)))


def _kuhn_tet_faces() -> np.ndarray:
    """Outward face loops of the 6 Kuhn tetrahedra as corner steps, (6, 4, 3, 3)."""
    tets = []
    for perm in KUHN_PERMUTATIONS:
        corners = [np.zeros(3, dtype=int)]
        for ax in perm:
            corners.append(corners[-1] + np.eye(3, dtype=int)[ax])
        a, b, c, d = corners
        if np.linalg.det(np.array([b - a, c - a, d - a])) < 0:
            c, d = d, c
        tets.append([(b, c, d), (a, d, c), (a, b, d), (a, c, b)])
    return np.array(tets)


_KUHN_TET_FACES = _kuhn_tet_faces()


def generate_tet_mesh(n: int) -> PolyMesh:
    """Kuhn subdivision of the structured cube mesh: 6*n^3 tetrahedra."""
    return _structured_mesh(n, _KUHN_TET_FACES, "tet")


# rank of each Kuhn permutation, looked up by o0*9 + o1*3 + o2
_KUHN_RANK = np.zeros(27, dtype=np.int64)
_KUHN_RANK[[p[0] * 9 + p[1] * 3 + p[2] for p in KUHN_PERMUTATIONS]] = np.arange(
    len(KUHN_PERMUTATIONS)
)


def _locate_structured(mesh: PolyMesh, points: np.ndarray) -> np.ndarray:
    """Cell indices of points in a cubic or tet mesh from the generators here.

    The inverse of their numbering: cubes with x fastest, then y, then z,
    and a cube's Kuhn tets in ``KUHN_PERMUTATIONS`` order.
    """
    n = mesh.n
    scaled = points * n
    idx = np.clip(np.floor(scaled).astype(int), 0, n - 1)
    cube_id = idx[:, 0] + n * (idx[:, 1] + n * idx[:, 2])
    if mesh.family == "cubic":
        return cube_id
    frac = scaled - idx
    # Kuhn cell: permutation sorting the fractional coordinates descending
    order = np.argsort(-frac, axis=1, kind="stable")
    return cube_id * 6 + _KUHN_RANK[order @ np.array([9, 3, 1])]


def voronoi_mesh_from_seeds(seeds: np.ndarray) -> PolyMesh:
    """Clipped Voronoi diagram of explicit seed points inside [0,1]^3.

    Two Qhull calls (``scipy.spatial.Voronoi``).  The first runs on the seeds
    plus eight far sentinels at the corners of [-2, 3]^3, which keep every
    seed's region bounded and the point set full-dimensional (one seed,
    coplanar or collinear seeds); no point of the cube is nearer to a
    sentinel (at least 2*sqrt(3) away) than to a seed (at most sqrt(3)).  Seed
    i is mirrored across wall q only if its region there has a vertex beyond
    q, or within ``CUBE_TOL`` of it.  The second runs on the seeds and those
    mirrors, and its regions of the original seeds are exactly the clipped
    cells: a point x beyond wall q in i's region would lie in i's first-pass
    region too, so i's mirror across q is present and nearer to x than i;
    and inside the cube no point is nearer to the mirror of seed j than to j
    itself.  Qhull numbers the Voronoi vertices globally and lists each
    ridge's vertices in cyclic order, so ridge f between seed a and point b
    is face f of both cells: Qhull's loop, reversed if its fan vector points
    against the outward normal ``b - a`` (a loop out of cyclic order leaves
    a cell non-watertight).  The vertices of a ridge between a seed and its
    own mirror are put exactly on that wall.  Cells come in seed order.

    Seeds outside the cube and duplicate seeds raise ``ValueError``.  Seeds
    on a wall (their mirrors coincide with them), and cells Qhull cannot
    resolve (too small, seeds too close together so that a Voronoi vertex is
    farther than ``PLANARITY_TOL`` from its bisector, or nearly cospherical
    seeds that leave a face of area ``MIN_FACE_AREA`` or less) raise
    :class:`MeshError` naming the seed and its neighbour.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError("seeds must be an array of shape (n, 3)")
    ns = len(seeds)
    if ns < 1:
        raise ValueError("need at least one seed")
    outside = ~np.all((seeds >= 0.0) & (seeds <= 1.0), axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"seed {i} at {seeds[i].tolist()} lies outside the unit cube")
    _, first, inverse = np.unique(seeds, axis=0, return_index=True, return_inverse=True)
    dup = first[inverse.reshape(-1)] != np.arange(ns)
    if dup.any():
        i = int(np.argmax(dup))
        raise ValueError(f"seed {i} duplicates seed {first[inverse.reshape(-1)[i]]}")
    on_wall = np.any((seeds == 0.0) | (seeds == 1.0), axis=1)
    if on_wall.any():
        i = int(np.argmax(on_wall))
        raise MeshError(f"seed {i}: lies on the cube boundary", cell=i)

    # first pass: which walls each seed's region reaches (or touches) without mirrors
    bounded = Voronoi(np.concatenate([seeds, _SENTINELS]))
    regions = [bounded.regions[r] for r in bounded.point_region[:ns]]
    lens = np.fromiter(map(len, regions), dtype=np.int64, count=ns)
    X = bounded.vertices[np.fromiter(itertools.chain.from_iterable(regions), dtype=np.int64)]
    # column q of beyond: the vertex is past wall q of x=0, x=1, y=0, y=1, z=0, z=1
    beyond = np.stack([X < CUBE_TOL, X > 1.0 - CUBE_TOL], axis=2).reshape(-1, 6)
    # mirrors wall by wall, in seed order within a wall
    mirror_wall, mirror_seed = np.nonzero(np.logical_or.reduceat(beyond, np.cumsum(lens) - lens).T)
    owner = np.concatenate([np.arange(ns), mirror_seed])
    return _mirrored_voronoi(seeds, owner, np.concatenate([np.full(ns, -1), mirror_wall]))


def _mirrored_voronoi(seeds: np.ndarray, owner: np.ndarray, wall_of: np.ndarray) -> PolyMesh:
    """Cells of the seeds in the Voronoi diagram of the seeds and some of their mirrors.

    Qhull input point p is seed ``owner[p]`` reflected across wall
    ``wall_of[p]`` of x=0, x=1, y=0, y=1, z=0, z=1; the first ``len(seeds)``
    points are the seeds themselves (``wall_of`` -1).  The caller picks the
    mirrors so that every seed's region lies in the cube.
    """
    ns = len(seeds)
    pts = seeds[owner]
    m = np.nonzero(wall_of >= 0)[0]
    pts[m, wall_of[m] // 2] = 2.0 * (wall_of[m] % 2) - pts[m, wall_of[m] // 2]

    def name(p):
        if p < ns:
            return f"seed {p}"
        return f"the mirror of seed {owner[p]} across {'xyz'[wall_of[p] // 2]}={wall_of[p] % 2}"

    vor = Voronoi(pts)
    ridge = np.sort(vor.ridge_points, axis=1)
    keep = np.nonzero(ridge[:, 0] < ns)[0]
    a, b = ridge[keep, 0], ridge[keep, 1]
    loops = [vor.ridge_vertices[r] for r in keep]
    lens = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    flat = np.fromiter(itertools.chain.from_iterable(loops), dtype=np.int64, count=lens.sum())
    ridge_of = np.repeat(np.arange(len(keep)), lens)
    if flat.min() < 0:
        i = int(a[ridge_of[np.argmax(flat < 0)]])
        raise MeshError(f"seed {i}: unbounded Voronoi region", cell=i)
    used, vid = np.unique(flat, return_inverse=True)
    V = vor.vertices[used]
    # a ridge between a seed and its own mirror lies on that mirror's wall
    wall = np.where(owner[b] == a, wall_of[b], -1)[ridge_of]
    on = wall >= 0
    V[vid[on], wall[on] // 2] = wall[on] % 2
    stray = np.nonzero(((V < -CUBE_TOL) | (V > 1.0 + CUBE_TOL)).any(axis=1)[vid])[0]
    if len(stray):
        i = int(a[ridge_of[stray[0]]])
        raise MeshError(f"seed {i}: Voronoi vertex outside the cube", cell=i)

    # Qhull lists a ridge's vertices in cyclic order: its fan vector gives the
    # area, and its sign against b - a whether to reverse the loop to point
    # out of seed a's cell; measure how far its vertices are off the bisector
    face_ptr = np.concatenate([[0], np.cumsum(lens)])
    first, pos, length = face_ptr[ridge_of], _concat_index(lens), lens[ridge_of]
    P = V[vid] - V[vid[first]]
    fan = np.add.reduceat(np.cross(P, P[first + (pos + 1) % length]), face_ptr[:-1])
    area = 0.5 * np.linalg.norm(fan, axis=1)
    normal = pts[b] - pts[a]
    dist = np.linalg.norm(normal, axis=1)
    height = np.einsum("vj,vj->v", V[vid] - 0.5 * (pts[a] + pts[b])[ridge_of], normal[ridge_of])
    off = np.maximum.reduceat(np.abs(height), face_ptr[:-1]) / dist
    flip = (np.einsum("fj,fj->f", fan, normal) < 0)[ridge_of]
    face_vertex = vid[first + np.where(flip, -pos % length, pos)]

    # each face is the base of a cone of height dist/2 in both of its cells
    cone = area * dist / 6.0
    shared = b < ns
    volume = np.bincount(a, weights=cone, minlength=ns)
    volume += np.bincount(b[shared], weights=cone[shared], minlength=ns)
    if np.any(volume < MIN_CELL_VOLUME):
        i = int(np.argmax(volume < MIN_CELL_VOLUME))
        raise MeshError(f"seed {i}: degenerate cell (volume {volume[i]:.3e})", cell=i)
    if np.any(off > PLANARITY_TOL):
        f = int(np.argmax(off > PLANARITY_TOL))
        i = int(a[f])
        raise MeshError(
            f"seed {i}: Voronoi vertex {off[f]:.1e} off its bisector with {name(b[f])}", cell=i
        )
    if np.any(area <= MIN_FACE_AREA):
        f = int(np.argmax(area <= MIN_FACE_AREA))
        i = int(a[f])
        raise MeshError(f"seed {i}: degenerate face with {name(b[f])} (area {area[f]:.1e})", cell=i)

    # ridge f is face f: +(f + 1) in seed a's cell, -(f + 1) in seed b's
    ref_cell = np.concatenate([a, b[shared]])
    order = np.argsort(ref_cell, kind="stable")
    ref = np.arange(1, len(keep) + 1)
    cell_ptr = np.searchsorted(ref_cell[order], np.arange(ns + 1))
    cell_face = np.concatenate([ref, -ref[shared]])[order]
    return PolyMesh(V, face_ptr, face_vertex, cell_ptr, cell_face, family="voronoi")


def generate_voronoi_mesh(n_seeds: int, rng_seed: int) -> PolyMesh:
    """Voronoi mesh of ``n_seeds`` uniformly random seeds, deterministic in ``rng_seed``."""
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    rng = np.random.default_rng(rng_seed)
    seeds = rng.random((n_seeds, 3))
    return voronoi_mesh_from_seeds(seeds)


# ---------------------------------------------------------------------------
# interface classification


def classify_interface(mesh: PolyMesh, levelset: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Flag cells whose sampled level-set values change sign strictly.

    Samples are the cell's vertices, its face centroids, and its centroid.
    A cell is an interface cell iff both strictly negative and strictly
    positive samples occur; zeros alone (surface aligned with cell boundary)
    do not flag.  Returns a boolean array over cells.
    """
    ref_cell, ref_face, _, c_ref, va, _ = _flat_corners(mesh)
    # every sample with its cell: face corners, face centroids, cell centroids
    cell = np.concatenate([ref_cell[c_ref], ref_cell, np.arange(mesh.n_cells)])
    phi = np.concatenate([
        levelset(mesh.vertices)[va],
        levelset(mesh.face_centroid)[ref_face],
        levelset(mesh.cell_centroid),
    ])
    negative = np.bincount(cell[phi < 0], minlength=mesh.n_cells)
    positive = np.bincount(cell[phi > 0], minlength=mesh.n_cells)
    return (negative > 0) & (positive > 0)


# ---------------------------------------------------------------------------
# quality report


def mesh_size(mesh: PolyMesh) -> float:
    """Averaged size (|Omega| / N_E)^(1/3)."""
    return float((mesh.total_volume() / mesh.n_cells) ** (1.0 / 3.0))


@dataclass
class MeshQualityReport:
    """Shape-regularity estimates and star-shapedness heuristics."""

    min_edge_face_ratio: float     # min over faces of (edge length / face diameter)
    min_face_cell_ratio: float     # min over cells of (face diameter / cell diameter)
    star_fail_cells: int
    star_fail_faces: int
    n_cells: int
    mean_size: float               # (|Omega| / N_E)^(1/3)
    gamma_min: float
    passed: bool

    def gamma_estimate(self) -> float:
        return min(self.min_edge_face_ratio, self.min_face_cell_ratio)


def _check_gamma_min(gamma_min: float) -> None:
    if not 0.0 <= gamma_min < np.inf:
        raise ValueError(f"gamma_min must be finite and >= 0, got {gamma_min}")


def check_mesh_assumptions(mesh: PolyMesh, gamma_min: float = 0.05) -> MeshQualityReport:
    """Audit the edge/face/cell diameter chain and centroid star-shapedness.

    Face diameters, which no other code reads, are computed here.  The
    star-shape heuristic accepts a face (cell) when the fan of triangles
    (cone of tetrahedra) from its centroid has strictly positive signed
    measures; exact for convex geometry.  ``gamma_min`` must be a finite
    number >= 0, else ``ValueError``.
    """
    _check_gamma_min(gamma_min)
    V = mesh.vertices
    f_diam = _diameters(V, mesh.face_ptr, mesh.face_vertex)
    ref_cell, ref_face, _, c_ref, va, vb = _flat_corners(mesh)
    corner_face = ref_face[c_ref]
    xf = mesh.face_centroid[corner_face]
    # every face appears once per referencing cell, in its stored order
    edge = np.linalg.norm(V[vb] - V[va], axis=1)
    min_ef = (edge / f_diam[corner_face]).min()
    fan = np.cross(V[va] - xf, V[vb] - xf)
    tri_a = 0.5 * np.einsum("tj,tj->t", fan, mesh.face_normal[corner_face])
    fail = np.bincount(corner_face[tri_a <= 0], minlength=mesh.n_faces)
    star_fail_faces = int(np.count_nonzero(fail))

    min_fE = (f_diam[ref_face] / mesh.cell_diameter[ref_cell]).min()
    cell, _, _, dets = _cone_tets(mesh)
    star_fail_cells = len(np.unique(cell[dets <= 0]))

    passed = (
        min_ef >= gamma_min
        and min_fE >= gamma_min
        and star_fail_cells == 0
        and star_fail_faces == 0
    )
    return MeshQualityReport(
        min_edge_face_ratio=float(min_ef),
        min_face_cell_ratio=float(min_fE),
        star_fail_cells=star_fail_cells,
        star_fail_faces=star_fail_faces,
        n_cells=mesh.n_cells,
        mean_size=mesh_size(mesh),
        gamma_min=gamma_min,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# VPM text format


def save_mesh(mesh: PolyMesh, path) -> None:
    """Write the VPM text format (version 1), coordinates at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(f"vpm 1\nvertices {mesh.n_vertices}\n")
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        fh.write(f"faces {mesh.n_faces}\n" + _records(mesh.face_ptr, mesh.face_vertex))
        fh.write(f"cells {mesh.n_cells}\n" + _records(mesh.cell_ptr, mesh.cell_face))


def _records(ptr: np.ndarray, values: np.ndarray) -> str:
    """One line per CSR segment: its length, then its entries."""
    tokens = np.insert(values, ptr[:-1], np.diff(ptr)).astype(str).astype(object)
    sep = np.full(len(tokens), " ", dtype=object)
    sep[ptr[1:] + np.arange(len(ptr) - 1)] = "\n"     # after the last token of each line
    return "".join(tokens + sep)


def load_mesh(path) -> PolyMesh:
    """Parse a VPM file; bad records or trailing content raise :class:`VpmParseError` by line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    # (line number, tokens) of the nonblank lines, split as they are read: a list
    # of all of them would stay alive through the geometry pass, which is slower
    rows = ((no, parts) for no, parts in enumerate(map(str.split, lines), 1) if parts)

    def row(what: str):
        no_parts = next(rows, None)
        if no_parts is None:
            raise VpmParseError(f"unexpected end of file while reading {what}", len(lines))
        return no_parts

    def count(keyword: str) -> tuple[int, int]:
        """Line number and count of the header line ``keyword <count>``."""
        no, parts = row(f"'{keyword}' header")
        if len(parts) != 2 or parts[0] != keyword:
            raise VpmParseError(f"expected '{keyword} <count>', got {lines[no - 1].strip()!r}", no)
        try:
            n = int(parts[1])
        except ValueError:
            raise VpmParseError(f"bad {keyword} count {parts[1]!r}", no) from None
        if n < 0:
            raise VpmParseError(f"negative {keyword} count", no)
        return no, n

    def records(kind: str, n: int):
        """CSR arrays and line numbers of ``n`` records ``m e1 ... em``."""
        lens, entries, nos = [], [], []
        for i in range(n):
            no, parts = row(f"{kind} {i}")
            try:
                m, *ids = map(int, parts)
            except ValueError:
                raise VpmParseError(f"{kind} record {i}: bad integer", no) from None
            if m != len(ids):
                raise VpmParseError(f"{kind} record {i}: count mismatch", no)
            if kind == "face":
                if m < 3:
                    raise VpmParseError(f"face record {i}: fewer than 3 vertices", no)
                if min(ids) < 0 or max(ids) >= nv:
                    bad = next(v for v in ids if v < 0 or v >= nv)
                    raise VpmParseError(f"face record {i}: vertex index {bad} out of range", no)
            elif m == 0:
                raise VpmParseError(f"cell record {i}: no face references", no)
            elif min(ids) < -nf or max(ids) > nf or 0 in ids:
                bad = next(r for r in ids if r == 0 or abs(r) > nf)
                raise VpmParseError(f"cell record {i}: face index {bad} out of range", no)
            lens.append(m)
            entries += ids
            nos.append(no)
        return np.cumsum([0] + lens), np.array(entries, dtype=np.int64), nos

    no, parts = row("header")
    if parts != ["vpm", "1"]:
        raise VpmParseError(f"bad magic {lines[no - 1].strip()!r}, expected 'vpm 1'", no)
    _, nv = count("vertices")
    verts = np.zeros((nv, 3))
    for i in range(nv):
        no, parts = row(f"vertex {i}")
        if len(parts) != 3:
            raise VpmParseError(f"vertex {i}: expected 3 coordinates", no)
        try:
            verts[i] = [float(p) for p in parts]
        except ValueError:
            raise VpmParseError(f"vertex {i}: bad coordinate", no) from None
        if not np.isfinite(verts[i]).all():
            raise VpmParseError(f"vertex {i}: non-finite coordinate", no)
    _, nf = count("faces")
    face_ptr, face_vertex, face_lines = records("face", nf)
    no, nc = count("cells")
    if nv == 0 or nf == 0 or nc == 0:
        raise VpmParseError("mesh must have at least one vertex, face, and cell", no)
    cell_ptr, cell_face, cell_lines = records("cell", nc)
    extra = next(rows, None)
    if extra is not None:
        raise VpmParseError(f"unexpected content after cell record {nc - 1}", extra[0])
    try:
        return PolyMesh(verts, face_ptr, face_vertex, cell_ptr, cell_face)
    except MeshError as exc:
        # the face's own record, else the cell's, else the last record read
        no = cell_lines[-1] if exc.cell is None else cell_lines[exc.cell]
        raise VpmParseError(str(exc), no if exc.face is None else face_lines[exc.face]) from exc
