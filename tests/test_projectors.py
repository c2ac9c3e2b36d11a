import numpy as np
import pytest

import vempb as vp
from vempb.mesh import build_polymesh
from vempb.projectors import FaceProjectorTable, face_integral, face_pi_nabla

from _oracles import newell_normal


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
# face projector


def test_face_constant_reproduction():
    m = vp.generate_cube_mesh(1)
    fp = face_pi_nabla(m, 0)
    c = 3.7
    coeffs = fp.coeff @ (c * np.ones(len(fp.vertex_ids)))
    assert coeffs[0] == pytest.approx(c, abs=1e-13)
    assert np.allclose(coeffs[1:], 0.0, atol=1e-13)


def test_face_inplane_linear_reproduction():
    m = vp.generate_cube_mesh(1)
    for fi in range(m.n_faces):
        fp = face_pi_nabla(m, fi)
        P = m.vertices[fp.vertex_ids]
        xi = (P - m.face_centroid[fi]) / m.face_diameter[fi] @ fp.frame.T
        dofs = xi[:, 0]
        coeffs = fp.coeff @ dofs
        assert np.allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-13)


def test_face_random_pentagon_least_squares_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        pts = _random_plane_polygon(rng, 5)
        m = _prism_mesh_from_polygon(pts)
        fi = 0  # the bottom pentagon
        fp = face_pi_nabla(m, fi)
        a0, a = rng.normal(), rng.normal(size=3)
        P = m.vertices[fp.vertex_ids]
        dofs = a0 + P @ a
        coeffs = fp.coeff @ dofs
        # least-squares fit of the same linear field on the scaled local frame
        xi = (P - m.face_centroid[fi]) / m.face_diameter[fi] @ fp.frame.T
        A = np.column_stack([np.ones(len(P)), xi])
        fit, *_ = np.linalg.lstsq(A, dofs, rcond=None)
        assert np.allclose(coeffs, fit, atol=1e-12)


def test_face_integral_constant_and_linear():
    m = vp.generate_tet_mesh(1)
    fi = 0
    nv = len(m.faces[fi])
    assert face_integral(m, fi, np.ones(nv)) == pytest.approx(m.face_area[fi], rel=1e-13)
    # linear field on a triangle integrates to area * mean of vertex values
    vals = np.array([0.3, -1.2, 2.0])
    assert face_integral(m, fi, vals) == pytest.approx(m.face_area[fi] * vals.mean(), rel=1e-13)


def test_face_integral_matches_quadrature_on_random_quad():
    rng = np.random.default_rng(7)
    pts = _random_plane_polygon(rng, 4)
    m = _prism_mesh_from_polygon(pts)
    fi = 0
    a0, a = rng.normal(), rng.normal(size=3)
    dofs = a0 + m.vertices[m.faces[fi]] @ a
    qp, qw = vp.face_quadrature(m, fi, degree=2)
    expect = qw @ (a0 + qp @ a)
    assert face_integral(m, fi, dofs) == pytest.approx(expect, rel=1e-12)


def test_face_integral_frame_independent():
    m = vp.generate_cube_mesh(1)
    fi = 2
    rng = np.random.default_rng(3)
    dofs = rng.normal(size=len(m.faces[fi]))
    base = face_pi_nabla(m, fi)
    # rotate the in-plane frame by an arbitrary angle
    th = 1.1
    t1 = np.cos(th) * base.frame[0] + np.sin(th) * base.frame[1]
    t2 = -np.sin(th) * base.frame[0] + np.cos(th) * base.frame[1]
    rotated = face_pi_nabla(m, fi, frame=np.vstack([t1, t2]))
    assert rotated.integral_row @ dofs == pytest.approx(base.integral_row @ dofs, abs=1e-12)


def test_degenerate_face_rejected():
    m = vp.generate_cube_mesh(1)
    m.face_area[0] = 1e-16  # simulate a degenerate face record
    with pytest.raises(Exception, match="degenerate"):
        face_pi_nabla(m, 0)


# ---------------------------------------------------------------------------
# cell projectors


def test_cell_constant_reproduction(random_cells):
    for m, ci in random_cells[::11]:
        p = vp.cell_projectors(m, ci)
        c = -2.4
        coeffs = p.pi_nabla @ (c * np.ones(p.n_dofs))
        assert coeffs[0] == pytest.approx(c, abs=1e-12)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)
        assert np.allclose(p.pi0_grad @ (c * np.ones(p.n_dofs)), 0.0, atol=1e-12)


def test_cell_coordinate_reproduction():
    m = vp.generate_voronoi_mesh(25, 31)
    projs = vp.build_projectors(m)
    for ci in range(m.n_cells):
        p = projs[ci]
        dofs = m.vertices[p.vertex_ids][:, 0]          # v = x
        grad = p.pi0_grad @ dofs
        assert np.allclose(grad, [1.0, 0.0, 0.0], atol=1e-12)
        pts = np.random.default_rng(ci).random((4, 3))
        vals = p.evaluate(dofs, pts)
        assert np.allclose(vals, pts[:, 0], atol=1e-12)


def test_cell_random_linear_change_of_basis(random_cells):
    rng = np.random.default_rng(2)
    for m, ci in random_cells[::5]:
        p = vp.cell_projectors(m, ci)
        a0, a = rng.normal(), rng.normal(size=3)
        dofs = a0 + m.vertices[p.vertex_ids] @ a
        xe, h = m.cell_centroid[ci], m.cell_diameter[ci]
        expect = np.concatenate([[a0 + a @ xe], h * a])
        assert np.allclose(p.pi_nabla @ dofs, expect, atol=1e-12)


def test_gradient_identity_with_face_integrals(random_cells):
    """|E| * projected gradient equals the signed sum of face-normal integrals."""
    rng = np.random.default_rng(4)
    for m, ci in random_cells[::13]:
        p = vp.cell_projectors(m, ci)
        dofs = rng.normal(size=p.n_dofs)
        lhs = m.cell_volume[ci] * (p.pi0_grad @ dofs)
        rhs = np.zeros(3)
        for (fi, sgn), row in zip(m.cell_faces(ci), p.face_rows):
            rhs += sgn * m.face_normal[fi] * (row @ dofs)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_boundary_mean_constraint(random_cells):
    rng = np.random.default_rng(8)
    for m, ci in random_cells[::13]:
        p = vp.cell_projectors(m, ci)
        dofs = rng.normal(size=p.n_dofs)
        coeffs = p.pi_nabla @ dofs
        total = 0.0
        for (fi, sgn), row in zip(m.cell_faces(ci), p.face_rows):
            # int_f of the projected polynomial
            xi_f = (m.face_centroid[fi] - m.cell_centroid[ci]) / m.cell_diameter[ci]
            poly_int = m.face_area[fi] * (coeffs[0] + xi_f @ coeffs[1:])
            total += (row @ dofs) - poly_int
        assert abs(total) <= 1e-12


def test_idempotence(random_cells):
    for m, ci in random_cells[::17]:
        p = vp.cell_projectors(m, ci)
        # applying the projector to the DoFs of its own output is the identity
        assert np.allclose(p.pi_nabla @ p.dof_matrix, np.eye(4), atol=1e-12)


def test_stabilization_annihilates_linears(random_cells):
    rng = np.random.default_rng(9)
    for m, ci in random_cells[::9]:
        p = vp.cell_projectors(m, ci)
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
    table = FaceProjectorTable(m)
    n_dofs = {len(m.cell_vertex_ids(ci)) for ci in range(m.n_cells)}
    assert len(projs.groups) == len(n_dofs)
    cells = np.concatenate([grp.cells for grp in projs.groups])
    assert np.array_equal(np.sort(cells), np.arange(m.n_cells))
    for grp in projs.groups:
        for k, ci in enumerate(grp.cells):
            ref = vp.cell_projectors(m, ci, table)
            assert np.array_equal(grp.vertex_ids[k], ref.vertex_ids)
            for name in ("pi_nabla", "pi0_grad", "stab_q"):
                assert np.abs(getattr(grp, name)[k] - getattr(ref, name)).max() <= 1e-14
