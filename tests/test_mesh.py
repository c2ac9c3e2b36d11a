import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

import vempb as vp
from vempb.mesh import MeshError, VpmParseError

from _oracles import (
    all_mirror_voronoi_mesh,
    angle_sorted_voronoi_loops,
    build_polymesh,
    cell_face_loops,
    cell_faces,
    cell_monomial_integral,
    clipped_voronoi_cells,
    cone_volume_centroid,
    face_loop,
    interface_flags_per_cell,
    merged_vertex_count,
    mesh_quality_per_cell,
)


def permuted_copy(mesh, perm):
    """Rebuild the mesh with cells in a new order (faces renumbered)."""
    loops = [cell_face_loops(mesh, ci) for ci in perm]
    return build_polymesh(mesh.vertices.copy(), loops, family=mesh.family, n=mesh.n)


# ---------------------------------------------------------------------------
# generators


def test_cube_n1_geometry():
    m = vp.generate_cube_mesh(1)
    assert m.n_cells == 1
    assert m.n_vertices == 8
    assert m.cell_volume[0] == pytest.approx(1.0, abs=1e-15)
    assert m.cell_diameter[0] == pytest.approx(np.sqrt(3.0), abs=1e-15)
    assert np.allclose(m.cell_centroid[0], 0.5, atol=1e-14)


def test_cube_n2_cells():
    m = vp.generate_cube_mesh(2)
    assert m.n_cells == 8
    assert np.allclose(m.cell_volume, 0.125, atol=1e-15)
    assert np.allclose(m.cell_diameter, np.sqrt(3.0) / 2.0, atol=1e-15)


def test_cube_n4_dof_count():
    assert vp.generate_cube_mesh(4).n_vertices == 5**3


def test_tet_n1_kuhn_volumes():
    m = vp.generate_tet_mesh(1)
    assert m.n_cells == 6
    assert np.allclose(m.cell_volume, 1.0 / 6.0, atol=1e-15)


def test_tet_n4_dof_count():
    m = vp.generate_tet_mesh(4)
    assert m.n_vertices == 5**3
    assert m.n_cells == 6 * 4**3


@pytest.mark.parametrize(
    "make",
    [
        lambda: vp.generate_cube_mesh(1),
        lambda: vp.generate_cube_mesh(3),
        lambda: vp.generate_tet_mesh(1),
        lambda: vp.generate_tet_mesh(3),
        lambda: vp.generate_voronoi_mesh(1, 0),
        lambda: vp.generate_voronoi_mesh(64, 0),
        lambda: vp.generate_voronoi_mesh(200, 5),
    ],
)
def test_partition_of_unity(make):
    m = make()
    assert abs(m.total_volume() - 1.0) <= 1e-12


@pytest.mark.parametrize("gen", ["cubic", "tet"])
def test_rejects_zero_size(gen):
    make = vp.generate_cube_mesh if gen == "cubic" else vp.generate_tet_mesh
    with pytest.raises(ValueError):
        make(0)


def test_voronoi_rejects_zero_seeds():
    with pytest.raises(ValueError):
        vp.generate_voronoi_mesh(0, 0)


def test_voronoi_single_seed_is_unit_cube():
    m = vp.generate_voronoi_mesh(1, 42)
    assert m.n_cells == 1
    assert m.n_vertices == 8
    assert m.cell_volume[0] == pytest.approx(1.0, abs=1e-14)


def test_voronoi_two_seed_split():
    m = vp.voronoi_mesh_from_seeds(np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]]))
    assert m.n_cells == 2
    assert np.allclose(m.cell_volume, 0.5, atol=1e-14)
    # the shared face is the plane x = 0.5
    interior = np.nonzero(np.bincount(np.abs(m.cell_face) - 1) == 2)[0]
    assert len(interior) == 1
    assert np.allclose(m.vertices[face_loop(m, interior[0])][:, 0], 0.5, atol=1e-14)


def test_voronoi_degenerate_cell_reports_seed():
    # central seed crowded from all six sides: its cell volume ~ 1e-21
    center = np.full(3, 0.5)
    seeds = [center]
    for k in range(3):
        for s in (-1.0, 1.0):
            off = np.zeros(3)
            off[k] = s * 1e-7
            seeds.append(center + off)
    with pytest.raises(MeshError, match="seed 0"):
        vp.voronoi_mesh_from_seeds(np.array(seeds))


def test_voronoi_near_duplicate_seeds_report_off_bisector_vertex():
    seeds = np.array([[0.3, 0.4, 0.5], [0.3, 0.4, 0.5 + 1e-9]])
    message = r"^seed 0: Voronoi vertex \d\.\de-\d+ off its bisector with seed 1$"
    with pytest.raises(MeshError, match=message) as exc:
        vp.voronoi_mesh_from_seeds(seeds)
    assert exc.value.cell == 0


def test_voronoi_crowded_seed_reports_its_volume():
    # six seeds 1e-5 from the centre: its cell is a cube of side 1e-5
    center = np.full(3, 0.5)
    seeds = [center, [0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]
    for k in range(3):
        for s in (-1.0, 1.0):
            seeds.append(center + s * 1e-5 * np.eye(3)[k])
    with pytest.raises(MeshError, match=r"^seed 0: degenerate cell \(volume \d\.\d{3}e-1[56]\)$") as exc:
        vp.voronoi_mesh_from_seeds(np.array(seeds))
    assert exc.value.cell == 0


def assert_matches_oracle(m, seeds):
    ref = clipped_voronoi_cells(seeds)
    assert m.n_cells == len(seeds)
    loops = [poly for faces in ref for poly in faces]
    on_wall = sum(
        any(np.all(poly[:, k] == w) for k in range(3) for w in (0.0, 1.0)) for poly in loops
    )
    assert m.n_faces == (len(loops) + on_wall) // 2
    assert m.n_vertices == merged_vertex_count(np.concatenate(loops))
    for ci, (faces, seed) in enumerate(zip(ref, seeds)):
        # one cell per seed, in seed order
        assert len(cell_faces(m, ci)) == len(faces)
        vol, centroid = cone_volume_centroid(faces, seed)
        assert abs(m.cell_volume[ci] - vol) <= 1e-12
        assert np.abs(m.cell_centroid[ci] - centroid).max() <= 1e-12


@pytest.mark.parametrize(
    "n_seeds, rng_seed", [(27, r) for r in range(1, 7)] + [(64, 0), (200, 5)]
)
def test_voronoi_matches_clipping_oracle(n_seeds, rng_seed):
    seeds = np.random.default_rng(rng_seed).random((n_seeds, 3))
    assert_matches_oracle(vp.generate_voronoi_mesh(n_seeds, rng_seed), seeds)


@pytest.mark.parametrize(
    "seeds",
    [
        # 1e-10 from a wall and from an edge
        np.array([[1e-10, 0.3, 0.5], [0.6, 0.5, 0.5], [0.5, 1 - 1e-10, 1e-10]]),
        # a lattice: groups of 8 cospherical seeds
        (np.stack(np.meshgrid(*(np.arange(3),) * 3, indexing="ij"), -1).reshape(-1, 3) + 0.5) / 3,
    ],
)
def test_voronoi_special_seeds_match_clipping_oracle(seeds):
    assert_matches_oracle(vp.voronoi_mesh_from_seeds(seeds), seeds)


def _rng_seeds(rng_seed, n, low=0.0, high=1.0):
    return low + (high - low) * np.random.default_rng(rng_seed).random((n, 3))


@pytest.mark.parametrize(
    "seeds",
    [
        # a corner cluster: only a few regions reach the three far walls
        _rng_seeds(0, 50, 0.001, 0.051),
        # every region reaches z = 0, the seeds' mirrors there are within 2e-3
        _rng_seeds(1, 60) * [1.0, 1.0, 1e-3],
        # coplanar and collinear seeds: Qhull on the seeds alone is flat
        np.column_stack([_rng_seeds(2, 9)[:, :2], np.full(9, 0.5)]),
        np.array([[0.2, 0.3, 0.4], [0.5, 0.5, 0.5], [0.8, 0.7, 0.6]]),
        _rng_seeds(3, 4),
    ],
    ids=["corner50", "near_wall60", "coplanar9", "collinear3", "random4"],
)
def test_voronoi_mirror_choice_matches_clipping_oracle(seeds):
    # seed sets where the first, sentinel-bounded Qhull pass decides unusual
    # mirror sets: few, all across one wall, or from a flat set of seeds
    assert_matches_oracle(vp.voronoi_mesh_from_seeds(seeds), seeds)


def ridge_pairs(m):
    """(cell, neighbour) of every face, sorted; a wall face pairs a cell with itself."""
    face = np.abs(m.cell_face) - 1
    cell = np.repeat(np.arange(m.n_cells), np.diff(m.cell_ptr))
    order = np.lexsort((cell, face))
    face, cell = face[order], cell[order]
    ends = np.cumsum(np.bincount(face, minlength=m.n_faces))
    pairs = np.column_stack([cell[ends - np.bincount(face)], cell[ends - 1]])
    return pairs[np.lexsort(pairs.T[::-1])]


@pytest.mark.parametrize("n_seeds, rng_seed", [(1024, 0), (1024, 1), (1024, 2), (64, 0)])
def test_voronoi_matches_all_mirror_build(n_seeds, rng_seed):
    # the mirrors chosen from the first pass give the cells that mirroring
    # every seed across every wall gives; tolerances fixed before the change
    seeds = np.random.default_rng(rng_seed).random((n_seeds, 3))
    m = vp.voronoi_mesh_from_seeds(seeds)
    ref = all_mirror_voronoi_mesh(seeds)
    assert (m.n_vertices, m.n_faces, m.n_cells) == (ref.n_vertices, ref.n_faces, ref.n_cells)
    assert np.array_equal(ridge_pairs(m), ridge_pairs(ref))
    assert np.abs(m.cell_volume - ref.cell_volume).max() <= 1e-12
    assert np.abs(m.cell_centroid - ref.cell_centroid).max() <= 1e-12


@pytest.mark.parametrize("n_seeds, rng_seed", [(200, 5), (1024, 0)])
def test_voronoi_faces_keep_qhull_ridge_order(n_seeds, rng_seed):
    # the build trusts Qhull to list each ridge's vertices in cyclic order;
    # every face must be the directed cycle of the angle sort about its ridge
    # normal, starting anywhere (tier-1 CI also runs this on the oldest SciPy
    # that pyproject.toml allows)
    seeds = np.random.default_rng(rng_seed).random((n_seeds, 3))
    m = vp.voronoi_mesh_from_seeds(seeds)
    for fi, ref in enumerate(angle_sorted_voronoi_loops(m, seeds)):
        loop = face_loop(m, fi)
        assert np.array_equal(np.roll(loop, -loop.argmin()), np.roll(ref, -ref.argmin())), fi


def test_voronoi_rejects_a_misordered_ridge(monkeypatch):
    # a ridge whose vertices are out of cyclic order is rejected, not repaired:
    # two vertices of one seed-seed ridge swapped in the second Qhull pass
    seeds = np.random.default_rng(0).random((20, 3))
    real, calls, swapped = vp.mesh.Voronoi, [], []

    def swapping_voronoi(points):
        vor = real(points)
        calls.append(len(points))
        if len(calls) == 2:
            r = next(
                r for r, pq in enumerate(vor.ridge_points)
                if pq.max() < len(seeds) and len(vor.ridge_vertices[r]) >= 4
            )
            loop = vor.ridge_vertices[r]
            loop[1], loop[2] = loop[2], loop[1]
            swapped.extend(vor.ridge_points[r].tolist())
        return vor

    monkeypatch.setattr(vp.mesh, "Voronoi", swapping_voronoi)
    message = r"^non-watertight cell \d+: edge \(\d+,\d+\) is not paired with its reverse$"
    with pytest.raises(MeshError, match=message) as exc:
        vp.voronoi_mesh_from_seeds(seeds)
    assert len(calls) == 2 and exc.value.cell in swapped


def test_voronoi_degenerate_face_names_both_seeds():
    # a genuine face of area 1.3e-15 between seeds 709 and 1002; once tiny
    # faces are merged rather than rejected (ROADMAP item 9) this seed set is
    # expected to build, and this test to become a check of that build
    with pytest.raises(MeshError, match=r"^seed 709: degenerate face with seed 1002 \(area"):
        vp.generate_voronoi_mesh(1024, 54)


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: vp.generate_cube_mesh(3),
         "7ee5b6715e0831f13862a90c5e8e2b2fa3aea39fe5c0dab2df130d46fe3ac56f"),
        (lambda: vp.generate_tet_mesh(2),
         "af8325df7f666295f3cd0336d785d789caa117dd1a08ef5f3b7d8ffd839150b1"),
        (lambda: vp.generate_voronoi_mesh(200, 5),
         "053bf9dc9ed2901cd50ec22d936583213179505b4f1a75e5d6c3e128ae810bf4"),
    ],
)
def test_structured_meshes_unchanged(make, digest, tmp_path):
    # digests of the files written before the generators were vectorised; the
    # Voronoi one was re-pinned when the build began choosing its mirrors
    # (Qhull numbers and rounds the vertices of another input point set
    # differently), after test_voronoi_matches_all_mirror_build held, and again
    # when faces took Qhull's ridge order (same directed cycles, renumbered);
    # the Kuhn cell order also feeds the structured point locator in analysis
    path = tmp_path / "m.vpm"
    vp.save_mesh(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "seeds, error, match",
    [
        ([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.1, 0.2, 0.3]], ValueError, "seed 2 duplicates seed 0"),
        ([[0.1, 0.2, 0.3], [1.2, 0.5, 0.5]], ValueError, "seed 1 .* outside the unit cube"),
        ([[0.1, 0.2, 0.3], [np.nan, 0.5, 0.5]], ValueError, "seed 1 .* outside the unit cube"),
        ([[0.0, 0.0, 0.5], [0.6, 0.5, 0.5], [0.5, 0.9, 0.1]], MeshError, "seed 0: lies on the cube boundary"),
        ([[0.6, 0.5, 0.5], [0.5, 0.9, 1.0]], MeshError, "seed 1: lies on the cube boundary"),
    ],
)
def test_voronoi_rejects_bad_seeds(seeds, error, match):
    with pytest.raises(error, match=match):
        vp.voronoi_mesh_from_seeds(np.array(seeds))


def test_voronoi_determinism_byte_exact(tmp_path):
    a = vp.generate_voronoi_mesh(64, 7)
    b = vp.generate_voronoi_mesh(64, 7)
    pa, pb = tmp_path / "a.vpm", tmp_path / "b.vpm"
    vp.save_mesh(a, pa)
    vp.save_mesh(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize(
    "make",
    [
        lambda: vp.generate_cube_mesh(3),
        lambda: vp.generate_tet_mesh(2),
        lambda: vp.generate_voronoi_mesh(50, 1),
    ],
)
def test_cell_surfaces_closed(make):
    m = make()
    for ci in range(m.n_cells):
        closure = np.zeros(3)
        for fi, sgn in cell_faces(m, ci):
            closure += sgn * m.face_area[fi] * m.face_normal[fi]
        assert np.linalg.norm(closure) <= 1e-12


def test_interior_faces_used_twice_with_opposite_signs():
    m = vp.generate_cube_mesh(2)
    use = np.zeros(m.n_faces, dtype=int)
    sign = np.zeros(m.n_faces, dtype=int)
    for ci in range(m.n_cells):
        for fi, sgn in cell_faces(m, ci):
            use[fi] += 1
            sign[fi] += sgn
    assert set(use) <= {1, 2}
    assert np.all(sign[use == 2] == 0)
    assert np.all(np.abs(sign[use == 1]) == 1)
    # boundary faces of the n=2 cube: 6 sides * 4 squares
    assert (use == 1).sum() == 24


def test_face_planarity():
    m = vp.generate_voronoi_mesh(80, 2)
    for fi in range(m.n_faces):
        P = m.vertices[face_loop(m, fi)]
        dev = np.abs((P - m.face_centroid[fi]) @ m.face_normal[fi]).max()
        assert dev <= 1e-10


# ---------------------------------------------------------------------------
# geometry measured by construction


def test_unit_tetrahedron_geometry():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    loops = [np.array(l) for l in ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))]
    m = build_polymesh(verts, [loops])
    assert m.cell_volume[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert np.allclose(m.cell_centroid[0], 0.25, atol=1e-14)


def test_orientation_error_reported():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    # all faces inverted -> negative volume
    loops = [np.array(l[::-1]) for l in ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))]
    with pytest.raises(MeshError, match="volume"):
        build_polymesh(verts, [loops])


UNIT_TET_VERTS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
UNIT_TET_LOOPS = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def test_mesh_cannot_drift_from_its_geometry():
    """Arrays are read-only, and a mesh with moved vertices is measured anew."""
    cube2 = vp.generate_cube_mesh(2)
    for field in dataclasses.fields(cube2):
        value = getattr(cube2, field.name)
        assert not isinstance(value, np.ndarray) or not value.flags.writeable, field.name
    with pytest.raises(ValueError, match="read-only"):
        cube2.vertices *= 0.5
    with pytest.raises(ValueError, match="read-only"):
        cube2.cell_volume[0] = 1.0
    # the mesh keeps its own copy of the arrays it was built from
    verts = UNIT_TET_VERTS.copy()
    tet = build_polymesh(verts, [[np.array(l) for l in UNIT_TET_LOOPS]])
    verts *= 2.0
    assert tet.vertices.max() == 1.0 and tet.total_volume() == pytest.approx(1.0 / 6.0)

    assert dataclasses.replace(cube2, vertices=2 * cube2.vertices).total_volume() == 8.0
    with pytest.raises(MeshError, match="degenerate face 0"):
        dataclasses.replace(cube2, vertices=1e-8 * cube2.vertices)


def test_mesh_fields_are_fixed_once_constructed():
    """No field of a constructed mesh, or of its copies, can be rebound or deleted."""
    cube2 = vp.generate_cube_mesh(2)
    twins = (pickle.loads(pickle.dumps(cube2)), copy.copy(cube2), copy.deepcopy(cube2),
             dataclasses.replace(cube2, vertices=2 * cube2.vertices))
    for m in (cube2, *twins):
        for field in dataclasses.fields(m):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, field.name, getattr(m, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(m, field.name)
    # attributes that are not fields can still be set
    cube2.note = "checked"
    assert cube2.note == "checked"


def test_mesh_rejects_vertices_that_are_not_finite_triples():
    """The first bad vertex is named; unchecked, nan or inf would give a nan volume."""
    cube2 = vp.generate_cube_mesh(2)
    for value in (np.nan, np.inf, -np.inf):
        V = cube2.vertices.copy()
        V[5, 0] = V[3, 1] = value
        with pytest.raises(MeshError) as err:
            dataclasses.replace(cube2, vertices=V)
        assert str(err.value) == "vertex 3: non-finite coordinate"
    with pytest.raises(MeshError) as err:
        dataclasses.replace(cube2, vertices=cube2.vertices[:, :2])
    assert str(err.value) == "vertex 0: expected 3 coordinates, vertices have shape (27, 2)"


def test_mesh_rejects_face_vertices_out_of_range():
    """The first bad entry is named; unchecked, -1 wrapped to the last vertex."""
    cube1 = vp.generate_cube_mesh(1)
    first = int(np.argmax(cube1.face_vertex == 7))
    face = int(np.searchsorted(cube1.face_ptr, first, side="right")) - 1
    for bad in (-1, 99):
        fv = np.where(cube1.face_vertex == 7, bad, cube1.face_vertex)
        with pytest.raises(MeshError) as err:
            dataclasses.replace(cube1, face_vertex=fv)
        assert str(err.value) == f"face {face}: vertex index {bad} out of range"
        assert err.value.face == face


def test_mesh_rejects_cell_faces_out_of_range():
    """A face reference must be a signed 1-based face number: 0 and 7 name no face of cube 1."""
    cube1 = vp.generate_cube_mesh(1)
    for bad in (0, 7, -7):
        cf = cube1.cell_face.copy()
        cf[[2, 4]] = bad
        with pytest.raises(MeshError) as err:
            dataclasses.replace(cube1, cell_face=cf)
        assert str(err.value) == f"cell 0: face index {bad} out of range"
        assert err.value.cell == 0


def test_pickled_and_deep_copied_meshes_stay_read_only():
    cube2 = vp.generate_cube_mesh(2)
    for twin in (pickle.loads(pickle.dumps(cube2)), copy.deepcopy(cube2)):
        assert twin is not cube2
        for field in dataclasses.fields(cube2):
            value, want = getattr(twin, field.name), getattr(cube2, field.name)
            if isinstance(want, np.ndarray):
                assert not value.flags.writeable, field.name
                assert value.dtype == want.dtype and np.array_equal(value, want), field.name
            else:
                assert value == want, field.name


# each bad cell below fails to close, which construction checks before it
# counts face uses; a face used three times, or twice with one orientation, by
# cells that do close is covered by test_load_parse_error_messages
@pytest.mark.parametrize("bad", [(0, 3, 3, 2), (0, 3, 2, 0), (0, 3)])
def test_build_rejects_invalid_loop(bad):
    loops = [np.array(l) for l in UNIT_TET_LOOPS]
    loops[1] = np.array(bad)
    with pytest.raises(MeshError, match="^non-watertight cell 0: ") as exc:
        build_polymesh(UNIT_TET_VERTS, [loops])
    assert exc.value.cell == 0


def test_build_rejects_face_used_by_three_cells():
    fwd = [np.array(l) for l in UNIT_TET_LOOPS]
    rev = [l[::-1].copy() for l in fwd]
    # the third cell's one loop is face 0 again, so it does not close
    with pytest.raises(MeshError, match="^non-watertight cell 2: ") as exc:
        build_polymesh(UNIT_TET_VERTS, [fwd, rev, [np.array((2, 3, 1))]])
    assert exc.value.cell == 2


def test_build_rejects_shared_face_with_same_orientation():
    fwd = [np.array(l) for l in UNIT_TET_LOOPS]
    # the same cycle as (1, 2, 3), rotated
    with pytest.raises(MeshError, match="^non-watertight cell 1: ") as exc:
        build_polymesh(UNIT_TET_VERTS, [fwd, [np.array((3, 1, 2))]])
    assert exc.value.cell == 1


@pytest.mark.parametrize("family, n", [("cubic", n) for n in range(1, 6)]
                         + [("tet", n) for n in range(1, 5)])
def test_structured_faces_numbered_by_first_appearance(family, n):
    """Rebuilding a structured mesh from its own outward cell loops changes no field."""
    m = vp.generate_cube_mesh(n) if family == "cubic" else vp.generate_tet_mesh(n)
    m2 = permuted_copy(m, np.arange(m.n_cells))
    for field in dataclasses.fields(m):
        a, b = getattr(m, field.name), getattr(m2, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


def test_voronoi_volume_against_monte_carlo():
    seeds = np.random.default_rng(3).random((20, 3))
    m = vp.voronoi_mesh_from_seeds(seeds)
    ci = 7
    n_samples = 10**6
    pts = np.random.default_rng(99).random((n_samples, 3))
    d2 = ((pts[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    inside = d2.argmin(axis=1) == ci
    p = inside.mean()
    sigma = np.sqrt(p * (1 - p) / n_samples)
    assert abs(m.cell_volume[ci] - p) <= 3 * sigma


def test_cell_centroid_matches_moment_oracle():
    m = vp.generate_voronoi_mesh(12, 4)
    for ci in range(3):
        vol = cell_monomial_integral(m, ci, (0, 0, 0))
        cx = np.array([cell_monomial_integral(m, ci, a) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        assert vol == pytest.approx(m.cell_volume[ci], abs=1e-13)
        assert np.allclose(cx / vol, m.cell_centroid[ci], atol=1e-12)


# ---------------------------------------------------------------------------
# interface classification


def test_interface_empty_on_aligned_cubic_mesh():
    m = vp.generate_cube_mesh(4)
    flags = vp.classify_interface(m, vp.box_levelset())
    assert not flags.any()


def test_interface_flagged_on_straddling_cell():
    m = vp.voronoi_mesh_from_seeds(np.array([[0.45, 0.25, 0.25], [0.9, 0.6, 0.6]]))
    flags = vp.classify_interface(m, vp.box_levelset())
    # first cell straddles the x=0.5 face of the box
    assert flags[0]


def test_interface_empty_when_surface_misses_domain():
    m = vp.generate_voronoi_mesh(30, 8)
    flags = vp.classify_interface(m, vp.box_levelset(threshold=2.0))
    assert not flags.any()


def test_interface_invariant_under_relabeling():
    m = vp.generate_voronoi_mesh(40, 9)
    flags = vp.classify_interface(m, vp.box_levelset())
    perm = np.random.default_rng(0).permutation(m.n_cells)
    m2 = permuted_copy(m, perm)
    flags2 = vp.classify_interface(m2, vp.box_levelset())
    assert np.array_equal(flags2, flags[perm])


@pytest.mark.parametrize(
    "make",
    [lambda: vp.generate_tet_mesh(3), lambda: vp.generate_voronoi_mesh(200, 5)],
    ids=["tet3", "voronoi200"],
)
def test_interface_matches_per_cell_loop(make):
    m = make()
    ball = lambda p: np.linalg.norm(p - 0.5, axis=1) - 0.3
    for ls in (vp.box_levelset(), ball):
        flags = vp.classify_interface(m, ls)
        assert flags.any() and not flags.all()
        assert np.array_equal(flags, interface_flags_per_cell(m, ls))


# ---------------------------------------------------------------------------
# quality report


def test_quality_cubic_ratios():
    m = vp.generate_cube_mesh(3)
    rep = vp.check_mesh_assumptions(m, gamma_min=0.1)
    assert rep.min_edge_face_ratio == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert rep.min_face_cell_ratio == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    assert rep.star_fail_cells == 0
    assert rep.passed


def test_quality_voronoi_star_shaped():
    m = vp.generate_voronoi_mesh(60, 3)
    rep = vp.check_mesh_assumptions(m, gamma_min=1e-6)
    assert rep.star_fail_cells == 0
    assert rep.star_fail_faces == 0
    assert rep.gamma_estimate() > 0


def test_quality_gamma_one_always_fails():
    for m in (vp.generate_cube_mesh(2), vp.generate_tet_mesh(1)):
        assert not vp.check_mesh_assumptions(m, gamma_min=1.0).passed


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.1])
def test_quality_rejects_meaningless_gamma_min(gamma):
    with pytest.raises(ValueError, match="gamma_min must be finite and >= 0"):
        vp.check_mesh_assumptions(vp.generate_cube_mesh(1), gamma_min=gamma)


def test_quality_gamma_zero_passes_a_regular_mesh():
    assert vp.check_mesh_assumptions(vp.generate_cube_mesh(1), gamma_min=0.0).passed


@pytest.mark.parametrize(
    "make",
    [
        lambda: vp.generate_cube_mesh(3),
        lambda: vp.generate_tet_mesh(2),
        lambda: vp.generate_voronoi_mesh(200, 5),
    ],
    ids=["cube3", "tet2", "voronoi200"],
)
def test_quality_report_matches_per_cell_oracle(make):
    m = make()
    rep = vp.check_mesh_assumptions(m)
    got = (rep.min_edge_face_ratio, rep.min_face_cell_ratio, rep.star_fail_faces, rep.star_fail_cells)
    assert got == mesh_quality_per_cell(m)


def test_quality_star_failures_match_per_cell_oracle():
    """Centroids moved out of their faces and cells: both star counters fire."""
    m = vp.generate_cube_mesh(2)
    fc = m.face_centroid.copy()
    for fi in (0, 5, 17):
        corner = m.vertices[face_loop(m, fi)[0]]
        fc[fi] = corner + 2.0 * (corner - fc[fi])   # in the face plane, outside the face
    cc = m.cell_centroid.copy()
    cc[[1, 6]] += 0.3                                # outside the cell
    m = copy.copy(m)
    # a constructed mesh's fields are fixed, and no construction yields these
    # centroids, so they are set past the guard
    object.__setattr__(m, "face_centroid", fc)
    object.__setattr__(m, "cell_centroid", cc)
    rep = vp.check_mesh_assumptions(m)
    got = (rep.min_edge_face_ratio, rep.min_face_cell_ratio, rep.star_fail_faces, rep.star_fail_cells)
    assert got == mesh_quality_per_cell(m)
    assert rep.star_fail_faces > 0 and rep.star_fail_cells > 0


def test_mesh_quadrature_error_names_the_lowest_star_failing_cell():
    """mesh_quadrature and check_mesh_assumptions read the same cone tets."""
    from vempb.mesh import _cone_tets
    from vempb.solver import mesh_quadrature

    m = vp.generate_cube_mesh(2)
    fc = m.face_centroid.copy()
    for fi in (0, 5, 17):
        corner = m.vertices[face_loop(m, fi)[0]]
        fc[fi] = corner + 2.0 * (corner - fc[fi])
    cc = m.cell_centroid.copy()
    cc[[1, 6]] += 0.3
    m = copy.copy(m)
    # a constructed mesh's fields are fixed, and no construction yields these
    # centroids, so they are set past the guard
    object.__setattr__(m, "face_centroid", fc)
    object.__setattr__(m, "cell_centroid", cc)
    cell, _, _, dets = _cone_tets(m)
    failing = np.unique(cell[dets <= 0])
    assert len(failing) == vp.check_mesh_assumptions(m).star_fail_cells > 0
    with pytest.raises(MeshError, match="not star-shaped") as err:
        mesh_quadrature(m)
    assert err.value.cell == failing[0]


def test_mean_size():
    m = vp.generate_cube_mesh(2)
    rep = vp.check_mesh_assumptions(m)
    assert rep.mean_size == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# VPM I/O


def test_roundtrip_exact():
    m = vp.generate_cube_mesh(2)
    import os, tempfile

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.vpm")
        vp.save_mesh(m, path)
        m2 = vp.load_mesh(path)
    assert np.array_equal(m2.vertices, m.vertices)
    for name in ("face_ptr", "face_vertex", "cell_ptr", "cell_face"):
        assert np.array_equal(getattr(m2, name), getattr(m, name))


def test_roundtrip_voronoi_geometry(tmp_path):
    m = vp.generate_voronoi_mesh(25, 12)
    path = tmp_path / "v.vpm"
    vp.save_mesh(m, path)
    m2 = vp.load_mesh(path)
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.allclose(m2.cell_volume, m.cell_volume, atol=0, rtol=0)


def _whole_file(*lines):
    """Edits that turn the saved 19-line cube-1 file into exactly ``lines``."""
    return dict(enumerate(lines + (None,) * (19 - len(lines)), 1))


# the neighbour of the cube-1 cell across x = 1, every face reference negated:
# vertices 8..11 at x = 2, faces 7..11 its own, face 1 shared
_INVERTED_NEIGHBOUR = {
    2: "vertices 12",
    10: "1 1 1\n2 0 0\n2 1 0\n2 0 1\n2 1 1",
    11: "faces 11",
    17: "4 0 2 3 1\n4 8 9 11 10\n4 3 7 11 9\n4 1 8 10 5\n4 5 10 11 7\n4 1 3 9 8",
    18: "cells 2",
    19: "6 1 2 3 4 5 6\n6 -7 1 -8 -9 -10 -11",
}


@pytest.mark.parametrize("edits, message", [
    ({1: "  \nvpm  1.0"}, "line 2: bad magic 'vpm  1.0', expected 'vpm 1'"),
    ({2: "vertices"}, "line 2: expected 'vertices <count>', got 'vertices'"),
    ({2: "vertices  8 9"}, "line 2: expected 'vertices <count>', got 'vertices  8 9'"),
    ({11: "faces six"}, "line 11: bad faces count 'six'"),
    ({18: "cells -1"}, "line 18: negative cells count"),
    ({18: "cells 0", 19: None}, "line 18: mesh must have at least one vertex, face, and cell"),
    ({5: "0 1"}, "line 5: vertex 2: expected 3 coordinates"),
    ({6: "1 1 zero"}, "line 6: vertex 3: bad coordinate"),
    ({13: "4 0 4 6 two"}, "line 13: face record 1: bad integer"),
    ({14: "5 2 6 7 3"}, "line 14: face record 2: count mismatch"),
    ({15: "2 0 1"}, "line 15: face record 3: fewer than 3 vertices"),
    ({16: "4 4 5 7 8"}, "line 16: face record 4: vertex index 8 out of range"),
    ({19: "6 1 2 3 4 5 6.0"}, "line 19: cell record 0: bad integer"),
    ({19: "7 1 2 3 4 5 6"}, "line 19: cell record 0: count mismatch"),
    ({19: "6 1 2 3 4 5 -7"}, "line 19: cell record 0: face index -7 out of range"),
    # blank and whitespace-only lines count in the line numbers
    ({13: "\n   \n4 0 4 6 -1"}, "line 15: face record 1: vertex index -1 out of range"),
    # of two bad records the first in file order is named
    ({14: "4 2 6 7 3 0", 16: "2 4 5"}, "line 14: face record 2: count mismatch"),
    ({7: "0 0", 15: "2 0 1"}, "line 7: vertex 4: expected 3 coordinates"),
    ({16: None, 17: None, 18: None, 19: None},
     "line 15: unexpected end of file while reading face 4"),
    ({16: "", 17: None, 18: None, 19: None},
     "line 16: unexpected end of file while reading face 4"),
    # topology errors name the cell's line, or the last record read
    ({18: "cells 2", 19: "5 1 2 3 4 5\n6 1 2 3 4 5 6"},
     "line 19: non-watertight cell 0: edge (0,1) is not paired with its reverse"),
    ({11: "faces 7", 17: "4 0 2 3 1\n3 0 1 2"},
     "line 20: face 6 referenced 0 times (expected 1 or 2)"),
    ({18: "cells 3", 19: "\n".join(["6 1 2 3 4 5 6"] * 3)},
     "line 21: face 0 referenced 3 times (expected 1 or 2)"),
    (_INVERTED_NEIGHBOUR, "line 29: interior face 0 used twice with the same orientation"),
    # geometry errors name the face's line, or the cell's
    ({18: "cells 2", 19: "6 1 2 3 4 5 6\n6 -1 -2 -3 -4 -5 -6"},
     "line 20: cell 1: non-positive volume -1.000e+00 (orientation error)"),
    ({10: "1 1 1.1"}, "line 16: face 4 not planar (max deviation 2.494e-02)"),
    # content after the last cell record is named before any topology check
    ({19: "6 1 2 3 4 5 6\n\n6 -1 -2 -3 -4 -5 -6\n6 1 2 3 4 5 6"},
     "line 21: unexpected content after cell record 0"),
    # a coordinate that parses but is not finite
    ({6: "1 1 nan"}, "line 6: vertex 3: non-finite coordinate"),
    ({6: "1 inf 1"}, "line 6: vertex 3: non-finite coordinate"),
    ({6: "1e400 1 1"}, "line 6: vertex 3: non-finite coordinate"),
    # record, topology and header faults, each once its own test
    ({12: "4 99 3 7 5"}, "line 12: face record 0: vertex index 99 out of range"),
    ({19: "6 1 2 3 4 5 99"}, "line 19: cell record 0: face index 99 out of range"),
    ({19: "0"}, "line 19: cell record 0: no face references"),
    ({19: "5 1 2 3 4 5"},
     "line 19: non-watertight cell 0: edge (0,1) is not paired with its reverse"),
    (_whole_file("vpm 1", "vertices 2", "0 0 0"),
     "line 3: unexpected end of file while reading vertex 1"),
    (_whole_file("vpm 2", "vertices 0", "faces 0", "cells 0"),
     "line 1: bad magic 'vpm 2', expected 'vpm 1'"),
    (_whole_file("vpm 1", "vertices 0", "faces 0", "cells 0"),
     "line 4: mesh must have at least one vertex, face, and cell"),
])
def test_load_parse_error_messages(tmp_path, edits, message):
    """Each edit of a saved cube-1 file raises its full message, line number first."""
    path = tmp_path / "m.vpm"
    vp.save_mesh(vp.generate_cube_mesh(1), path)
    lines = path.read_text().splitlines()
    for no, text in edits.items():
        lines[no - 1] = text
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")
    with pytest.raises(VpmParseError) as err:
        vp.load_mesh(path)
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].split()[1])
