import hashlib

import numpy as np
import pytest

import vempb as vp
from vempb.mesh import MeshError, compute_geometry
from vempb.projectors import face_integral_rows

from _oracles import (
    build_polymesh,
    cell_faces,
    cell_projector_blocks,
    cell_projector_reference,
    cell_vertex_ids,
    face_loop,
    face_monomial_integral,
    newell_normal,
)


def _random_plane_polygon(rng, n_verts=5):
    """Planar polygon mesh (single degenerate 'cell' is not needed: faces only)."""
    # star-shaped polygon in a random plane
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    t1 = np.cross(normal, [1.0, 0.3, -0.2])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    center = rng.random(3)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n_verts))
    radii = rng.uniform(0.5, 1.0, size=n_verts)
    pts = center + radii[:, None] * (
        np.cos(angles)[:, None] * t1 + np.sin(angles)[:, None] * t2
    )
    return pts


def _prism_mesh_from_polygon(pts, normal_shift=0.3):
    """Extrude a planar polygon into a prism so the face lives in a real mesh."""
    n = len(pts)
    nrm = newell_normal(pts)
    nrm /= np.linalg.norm(nrm)
    top = pts + normal_shift * nrm
    verts = np.vstack([pts, top])
    bottom = np.arange(n)[::-1]          # outward: -nrm
    top_loop = np.arange(n, 2 * n)       # outward: +nrm
    sides = [np.array([i, (i + 1) % n, n + (i + 1) % n, n + i]) for i in range(n)]
    loops = [bottom, top_loop] + sides
    return build_polymesh(verts, [loops])


# ---------------------------------------------------------------------------
# face integral rows


def _face_row(m, fi):
    """Face ``fi``'s integral row, sliced out of the mesh's flat face rows."""
    return face_integral_rows(m)[m.face_ptr[fi]:m.face_ptr[fi + 1]]


def _linear_face_integral(m, fi, a0, a):
    """Exact integral of a0 + a.x over face ``fi`` (divergence recursion)."""
    P, n_hat = m.vertices[face_loop(m, fi)], m.face_normal[fi]
    alphas = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moments = np.array([face_monomial_integral(P, n_hat, alpha) for alpha in alphas])
    return a0 * moments[0] + a @ moments[1:]


def test_face_random_pentagon_least_squares_oracle():
    """Integral rows are exact for linear fields on random pentagons (moment oracle)."""
    rng = np.random.default_rng(12)
    for _ in range(10):
        pts = _random_plane_polygon(rng, 5)
        m = _prism_mesh_from_polygon(pts)
        fi = 0  # the bottom pentagon
        a0, a = rng.normal(), rng.normal(size=3)
        dofs = a0 + m.vertices[face_loop(m, fi)] @ a
        assert np.allclose(_face_row(m, fi) @ dofs, _linear_face_integral(m, fi, a0, a), atol=1e-12)


def test_face_integral_constant_and_linear():
    m = vp.generate_tet_mesh(1)
    fi = 0
    nv = len(face_loop(m, fi))
    row = _face_row(m, fi)
    assert row @ np.ones(nv) == pytest.approx(m.face_area[fi], rel=1e-13)
    # linear field on a triangle integrates to area * mean of vertex values
    vals = np.array([0.3, -1.2, 2.0])
    assert row @ vals == pytest.approx(m.face_area[fi] * vals.mean(), rel=1e-13)


def test_face_integral_matches_quadrature_on_random_quad():
    rng = np.random.default_rng(7)
    pts = _random_plane_polygon(rng, 4)
    m = _prism_mesh_from_polygon(pts)
    fi = 0
    a0, a = rng.normal(), rng.normal(size=3)
    dofs = a0 + m.vertices[face_loop(m, fi)] @ a
    expect = _linear_face_integral(m, fi, a0, a)
    assert _face_row(m, fi) @ dofs == pytest.approx(expect, rel=1e-12)


def test_degenerate_face_rejected():
    """Geometry rejects faces of area <= MIN_FACE_AREA before any projector sees them."""
    m = vp.generate_cube_mesh(1)
    m.vertices *= 1e-8  # every face area becomes 1e-16
    with pytest.raises(MeshError, match="degenerate face 0"):
        compute_geometry(m)


# ---------------------------------------------------------------------------
# cell projectors


def _per_cell(pairs):
    """(mesh, cell, cell_projector_reference) per (mesh, cell) pair, one face-row array per mesh."""
    rows = {}
    for m, ci in pairs:
        if id(m) not in rows:
            rows[id(m)] = face_integral_rows(m)
        yield m, ci, cell_projector_reference(m, ci, rows[id(m)])


def test_cell_constant_reproduction(random_cells):
    for m, ci, p in _per_cell(random_cells[::11]):
        c = -2.4
        coeffs = p.pi_nabla @ (c * np.ones(len(p.vertex_ids)))
        assert coeffs[0] == pytest.approx(c, abs=1e-12)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)
        assert np.allclose(p.pi0_grad @ (c * np.ones(len(p.vertex_ids))), 0.0, atol=1e-12)


def test_cell_coordinate_reproduction():
    m = vp.generate_voronoi_mesh(25, 31)
    projs = vp.build_projectors(m)
    for ci in range(m.n_cells):
        vids, pi_nabla, pi0_grad, _ = cell_projector_blocks(projs, ci)
        dofs = m.vertices[vids][:, 0]          # v = x
        grad = pi0_grad @ dofs
        assert np.allclose(grad, [1.0, 0.0, 0.0], atol=1e-12)
        pts = np.random.default_rng(ci).random((4, 3))
        xi = (pts - m.cell_centroid[ci]) / m.cell_diameter[ci]
        vals = np.column_stack([np.ones(len(pts)), xi]) @ (pi_nabla @ dofs)
        assert np.allclose(vals, pts[:, 0], atol=1e-12)


def test_cell_random_linear_change_of_basis(random_cells):
    rng = np.random.default_rng(2)
    for m, ci, p in _per_cell(random_cells[::5]):
        a0, a = rng.normal(), rng.normal(size=3)
        dofs = a0 + m.vertices[p.vertex_ids] @ a
        xe, h = m.cell_centroid[ci], m.cell_diameter[ci]
        expect = np.concatenate([[a0 + a @ xe], h * a])
        assert np.allclose(p.pi_nabla @ dofs, expect, atol=1e-12)


def test_gradient_identity_with_face_integrals(random_cells):
    """|E| * projected gradient equals the signed sum of face-normal integrals."""
    rng = np.random.default_rng(4)
    for m, ci, p in _per_cell(random_cells[::13]):
        dofs = rng.normal(size=len(p.vertex_ids))
        lhs = m.cell_volume[ci] * (p.pi0_grad @ dofs)
        rhs = np.zeros(3)
        for (fi, sgn), row in zip(cell_faces(m, ci), p.face_rows):
            rhs += sgn * m.face_normal[fi] * (row @ dofs)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_boundary_mean_constraint(random_cells):
    rng = np.random.default_rng(8)
    for m, ci, p in _per_cell(random_cells[::13]):
        dofs = rng.normal(size=len(p.vertex_ids))
        coeffs = p.pi_nabla @ dofs
        total = 0.0
        for (fi, sgn), row in zip(cell_faces(m, ci), p.face_rows):
            # int_f of the projected polynomial
            xi_f = (m.face_centroid[fi] - m.cell_centroid[ci]) / m.cell_diameter[ci]
            poly_int = m.face_area[fi] * (coeffs[0] + xi_f @ coeffs[1:])
            total += (row @ dofs) - poly_int
        assert abs(total) <= 1e-12


def test_idempotence(random_cells):
    for m, ci, p in _per_cell(random_cells[::17]):
        # applying the projector to the DoFs of its own output is the identity
        assert np.allclose(p.pi_nabla @ p.dof_matrix, np.eye(4), atol=1e-12)


def test_stabilization_annihilates_linears(random_cells):
    rng = np.random.default_rng(9)
    for m, ci, p in _per_cell(random_cells[::9]):
        a0, a = rng.normal(), rng.normal(size=3)
        dofs = a0 + m.vertices[p.vertex_ids] @ a
        assert np.abs(p.stab_q @ dofs).max() <= 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda: vp.generate_cube_mesh(3),
        lambda: vp.generate_tet_mesh(2),
        lambda: vp.generate_voronoi_mesh(64, 0),
        lambda: vp.generate_voronoi_mesh(200, 5),
    ],
    ids=["cube3", "tet2", "voronoi64", "voronoi200"],
)
def test_batched_builder_matches_per_cell_reference(make):
    m = make()
    projs = vp.build_projectors(m)
    rows = face_integral_rows(m)
    n_dofs = [len(cell_vertex_ids(m, ci)) for ci in range(m.n_cells)]
    assert len(vp.Workspace(m, projs).groups) == len(set(n_dofs))
    # one row block per cell: 4 coefficient rows, 3 gradient rows, one stab row per DoF
    assert projs.pi.shape == (4 * m.n_cells, m.n_vertices)
    assert projs.grad.shape == (3 * m.n_cells, m.n_vertices)
    assert projs.stab.shape == (sum(n_dofs), m.n_vertices)
    for ci in range(m.n_cells):
        blocks = cell_projector_blocks(projs, ci)
        ref = cell_projector_reference(m, ci, rows)
        assert np.array_equal(blocks.vertex_ids, ref.vertex_ids)
        for name in ("pi_nabla", "pi0_grad", "stab_q"):
            assert np.abs(getattr(blocks, name) - getattr(ref, name)).max() <= 1e-14


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: vp.generate_cube_mesh(3),
         "c4a647769a0ea125e1297f00fd20e343442d6151f2846c93eae3e0225f51fb96"),
        (lambda: vp.generate_tet_mesh(2),
         "8d41b6fc4f2ef1d6317f71bf035bb1574ce7bb86d4f804950ddb27032d892aed"),
        (lambda: vp.generate_voronoi_mesh(64, 0),
         "7dfb9b0eb85d11c48704cb2cf2fb59e25717acb7dcad0df30e3f951249aa1db7"),
    ],
    ids=["cube3", "tet2", "voronoi64"],
)
def test_projector_groups_unchanged(make, digest):
    # digests of the cells, vertex ids, pi_nabla and pi0_grad blocks stacked
    # per DoF count n (increasing), as projectors were stored per group before
    # they became global operators; stab_q is checked against the per-cell
    # reference instead
    m = make()
    projs = vp.build_projectors(m)
    n_dofs = np.diff(m.cell_vertex_ptr)
    h = hashlib.sha256()
    for n in np.unique(n_dofs):
        cells = np.nonzero(n_dofs == n)[0]
        blocks = [cell_projector_blocks(projs, ci) for ci in cells]
        h.update(cells.tobytes())
        for k in range(3):
            h.update(np.stack([b[k] for b in blocks]).tobytes())
    assert h.hexdigest() == digest
