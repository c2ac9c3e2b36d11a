import numpy as np
import pytest

import vempb as vp
from vempb.polybasis import REFERENCE_TET_POINTS, REFERENCE_TET_WEIGHTS, mesh_quadrature
from vempb import solver
from vempb.solver import Workspace

from _oracles import build_polymesh, cell_faces, cell_scaled_monomial_integral


# ---------------------------------------------------------------------------
# decomposition


def _tet_volumes(m):
    """Cone-tetrahedron volumes: the weights of each tet's nodes sum to its volume."""
    _, weights, _, _, cell_ptr, *_ = mesh_quadrature(m)
    nq = len(REFERENCE_TET_WEIGHTS)
    return weights.reshape(-1, nq).sum(axis=1), cell_ptr // nq


def test_cube_tetrahedralization_count_and_volume():
    m = vp.generate_cube_mesh(1)
    vols, _ = _tet_volumes(m)
    assert len(vols) == 24  # 6 faces x 4 fan triangles
    assert np.all(vols > 0)
    assert vols.sum() == pytest.approx(1.0, abs=1e-14)


def test_tet_cell_decomposition_volume():
    m = vp.generate_tet_mesh(1)
    vols, cell_ptr = _tet_volumes(m)
    for ci in range(m.n_cells):
        cell_vols = vols[cell_ptr[ci]:cell_ptr[ci + 1]]
        assert cell_vols.sum() == pytest.approx(m.cell_volume[ci], abs=1e-15)


def test_voronoi_decomposition_volume_crosscheck():
    m = vp.generate_voronoi_mesh(30, 6)
    vols, cell_ptr = _tet_volumes(m)
    for ci in range(m.n_cells):
        assert abs(vols[cell_ptr[ci]:cell_ptr[ci + 1]].sum() - m.cell_volume[ci]) <= 1e-12


# ---------------------------------------------------------------------------
# reference rules


def _exact_tet_moment(a, b, c):
    from math import factorial

    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
def test_reference_tet_rule_exactness_and_positivity(degree):
    """The shipped 14-point rule is positive and exact up to total degree 5."""
    pts, w = REFERENCE_TET_POINTS, REFERENCE_TET_WEIGHTS
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0 / 6.0, abs=1e-14)
    for d in range(degree + 1):
        for a in range(d + 1):
            for b in range(d - a + 1):
                c = d - a - b
                q = (w * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c).sum()
                assert q == pytest.approx(_exact_tet_moment(a, b, c), rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# cell quadrature


def _integral(m, fn):
    """Quadrature of a pointwise field over the whole mesh."""
    points, weights, *_ = mesh_quadrature(m)
    return float(weights @ fn(points))


def test_cube_linear_integral():
    m = vp.generate_cube_mesh(1)
    val = _integral(m, lambda p: p[:, 0])
    assert val == pytest.approx(0.5, abs=1e-14)


def test_unit_tet_linear_integral():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    loops = [np.array(l) for l in ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))]
    m = build_polymesh(verts, [loops])
    val = _integral(m, lambda p: p[:, 0])
    assert val == pytest.approx(1.0 / 24.0, abs=1e-15)


def test_quadrature_weights_sum_and_positivity(random_cells):
    quads = {}
    for m, ci in random_cells[::7]:
        if id(m) not in quads:
            quads[id(m)] = mesh_quadrature(m)
        _, weights, _, _, cell_ptr, *_ = quads[id(m)]
        w = weights[cell_ptr[ci]:cell_ptr[ci + 1]]
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(m.cell_volume[ci], abs=1e-12)


def test_quadrature_points_inside_convex_cells():
    m = vp.generate_voronoi_mesh(20, 13)
    points, _, _, _, cell_ptr, *_ = mesh_quadrature(m)
    for ci in range(m.n_cells):
        pts = points[cell_ptr[ci]:cell_ptr[ci + 1]]
        for fi, sgn in cell_faces(m, ci):
            n_out = sgn * m.face_normal[fi]
            d = (pts - m.face_centroid[fi]) @ n_out
            assert d.max() <= 1e-12


def test_exactness_against_moment_oracle():
    """Quadrature of scaled monomials equals the divergence-theorem moments."""
    rng = np.random.default_rng(5)
    meshes = [vp.generate_cube_mesh(1), vp.generate_tet_mesh(1), vp.generate_voronoi_mesh(50, 17)]
    cases = [(meshes[0], 0)] + [(meshes[1], ci) for ci in range(2)]
    cases += [(meshes[2], ci) for ci in rng.choice(50, size=50, replace=False)]
    basis_alphas = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (1, 1, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1), (2, 2, 0), (0, 2, 2),
    ]
    quads = {id(m): mesh_quadrature(m) for m in meshes}
    for m, ci in cases:
        # the scaled offsets xi = (x - x_E)/h_E the solver integrates with
        _, weights, xi_all, _, cell_ptr, *_ = quads[id(m)]
        nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
        w, xi = weights[nodes], xi_all[nodes]
        cache = {}
        for alpha in basis_alphas:
            vals = xi[:, 0] ** alpha[0] * xi[:, 1] ** alpha[1] * xi[:, 2] ** alpha[2]
            q = float(w @ vals)
            exact = cell_scaled_monomial_integral(m, ci, alpha, cache)
            assert abs(q - exact) <= 1e-12


def test_integrate_piecewise_dielectric():
    phys = vp.PhysicsConfig()
    # aligned n=2 mesh: every cell lies on one side, quadrature exact
    m2 = vp.generate_cube_mesh(2)
    total = _integral(m2, phys.epsilon)
    assert total == pytest.approx(2 * 0.125 + 80 * 0.875, abs=1e-12)
    # single uncut cell: fixed rule is inexact; value must approach the limit
    m1 = vp.generate_cube_mesh(1)
    v1 = _integral(m1, phys.epsilon)
    assert abs(v1 - 70.25) < 8.0
    m4 = vp.generate_cube_mesh(4)
    v4 = _integral(m4, phys.epsilon)
    assert v4 == pytest.approx(70.25, abs=1e-12)


def test_integrate_sinh_zero():
    m = vp.generate_cube_mesh(1)
    assert _integral(m, lambda p: np.sinh(np.zeros(len(p)))) == 0.0


# ---------------------------------------------------------------------------
# coordinate columns


QUADRATURE_MESHES = {
    "cube2": lambda: vp.generate_cube_mesh(2),
    "tet2": lambda: vp.generate_tet_mesh(2),
    "voronoi30": lambda: vp.generate_voronoi_mesh(30, 2),
}


@pytest.mark.parametrize("name", list(QUADRATURE_MESHES))
def test_quadrature_coordinates_are_contiguous_columns(name, monkeypatch):
    mesh = QUADRATURE_MESHES[name]()
    points, _, xi, *_ = mesh_quadrature(mesh)
    assert points.flags.f_contiguous and xi.flags.f_contiguous
    assert points.shape == xi.shape == (len(points), 3)
    monkeypatch.setattr(solver, "BLOCK_NODES", 500)
    ws = Workspace(mesh)
    assert len(ws.block_cells) > 2
    for _, nodes, _ in ws._blocks():
        for a in (ws.points[nodes], ws.xi[nodes]):
            assert all(a[:, j].flags.c_contiguous for j in range(3))


@pytest.mark.parametrize("name", list(QUADRATURE_MESHES))
def test_tet_maps_reproduce_xi_and_weights(name):
    _, weights, xi, _, cell_ptr, maps, dets = mesh_quadrature(QUADRATURE_MESHES[name]())
    nq = len(REFERENCE_TET_WEIGHTS)
    assert maps.shape == (3, 3, len(dets)) and len(weights) == nq * len(dets)
    assert np.all(cell_ptr % nq == 0)
    # node t * nq + q is r_q mapped by tet t: xi_j = sum_i r_i C_t[i, j], w = det_t w_q
    xi_tets = np.einsum("qi,ijt->tqj", REFERENCE_TET_POINTS, maps).reshape(-1, 3)
    assert np.abs(xi_tets - xi).max() <= 1e-15
    w_tets = (dets[:, None] * REFERENCE_TET_WEIGHTS).ravel()
    assert np.abs(w_tets - weights).max() <= 1e-15 * weights.max()
