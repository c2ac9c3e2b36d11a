import warnings

import numpy as np
import pytest

import vempb as vp
from vempb.solver import Workspace

from _oracles import manufactured_linear, reference_errors_per_cell
from test_mesh import permuted_copy

# printed errors and orders of the reference cubic-mesh table; mesh size
# halves between consecutive rows
TABLE_E_L2 = [4.63e-20, 2.36e-20, 8.17e-21, 2.34e-21, 5.32e-22]
TABLE_L2_ORDER = [0.97, 1.53, 1.80, 2.15]
TABLE_E_H1 = [3.43e-19, 2.86e-19, 1.56e-19, 7.21e-20, 2.73e-20]
TABLE_H1_ORDER = [0.26, 0.88, 1.11, 1.40]
TABLE_H = [0.25, 0.125, 0.0625, 0.03125, 0.015625]


def test_mesh_size_values():
    assert vp.mesh_size(vp.generate_cube_mesh(2)) == pytest.approx(0.5, abs=1e-14)
    assert vp.mesh_size(vp.generate_tet_mesh(4)) == pytest.approx(384 ** (-1 / 3), abs=1e-14)
    assert vp.mesh_size(vp.generate_voronoi_mesh(64, 0)) == pytest.approx(0.25, abs=1e-12)


def test_convergence_order_reference_pairs():
    o1 = vp.convergence_order((4.63e-20, 2.36e-20), (0.25, 0.125))
    assert o1 == pytest.approx(0.97, abs=0.005)
    o2 = vp.convergence_order((2.36e-20, 8.17e-21), (0.125, 0.0625))
    assert o2 == pytest.approx(1.53, abs=0.005)


def test_convergence_order_exact_linear_decay():
    assert vp.convergence_order((0.3, 0.15), (1.0, 0.5)) == pytest.approx(1.0, abs=1e-14)


def test_convergence_order_input_validation():
    with pytest.raises(ValueError):
        vp.convergence_order((0.0, 1.0), (1.0, 0.5))
    with pytest.raises(ValueError):
        vp.convergence_order((1.0, 0.5), (0.5, 1.0))


def test_reference_table_orders_reproduced():
    """Pairwise orders from the printed errors match the printed two-decimal
    orders to one unit in the last digit."""
    for printed, errors in ((TABLE_L2_ORDER, TABLE_E_L2), (TABLE_H1_ORDER, TABLE_E_H1)):
        for i, expect in enumerate(printed):
            o = vp.convergence_order(
                (errors[i], errors[i + 1]), (TABLE_H[i], TABLE_H[i + 1])
            )
            assert abs(round(o, 2) - expect) <= 0.01 + 1e-12


def test_fitted_order_recovers_slope():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    e = 3.0 * h**1.7
    assert vp.fitted_order(h, e, last=3) == pytest.approx(1.7, abs=1e-12)


@pytest.mark.parametrize("sizes, errors, last, message", [
    ((0.2, 0.2), (0.3, 0.1), 3, "sizes must decrease"),
    ((0.1, 0.2), (0.1, 0.3), 3, "sizes must decrease"),
    ((0.2, 0.1), (np.nan, 0.1), 3, "must be positive and finite"),
    ((0.2, 0.1), (0.3, 0.0), 3, "must be positive and finite"),
    ((np.inf, 0.1), (0.3, 0.1), 3, "must be positive and finite"),
    ((0.2, 0.1, 0.05), (0.3, 0.2), 3, "one error per size"),
    # a pairwise order needs exactly two levels, a fitted one at least two
    ((0.2,), (0.3,), 3, "two levels"),
    ((0.2, 0.1, 0.05), (0.3, 0.1, 0.03), 1, "two levels"),
    ((0.2, 0.1, 0.05), (0.3, 0.1, 0.03), 0, "two levels"),
    ((0.2, 0.1, 0.05), (0.3, 0.1, 0.03), -1, "two levels"),
], ids=["equal-sizes", "increasing-sizes", "nan-error", "zero-error", "inf-size", "lengths",
        "one-level", "last-1", "last-0", "last-minus-1"])
@pytest.mark.parametrize("order", ["pairwise", "fitted"])
def test_orders_reject_invalid_levels(order, sizes, errors, last, message):
    """Both order functions reject the same levels, before any warning."""
    with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
        warnings.simplefilter("error")
        if order == "fitted":
            vp.fitted_order(sizes, errors, last)
        else:
            vp.convergence_order(errors, sizes)


# ---------------------------------------------------------------------------
# error norms


def test_errors_vanish_for_linear_interpolant():
    load = manufactured_linear((0.2, 1.0, -0.7, 0.3))
    for m in (vp.generate_cube_mesh(2), vp.generate_voronoi_mesh(25, 3)):
        u = load.u_exact(m.vertices)
        e2, e1 = Workspace(m).error_norms(u, load.u_exact, load.grad_u_exact)
        assert e2 <= 1e-12
        assert e1 <= 1e-12


def test_l2_error_of_zero_solution_is_field_norm():
    load = vp.manufactured_sine()
    m = vp.generate_cube_mesh(4)
    e, _ = Workspace(m).error_norms(np.zeros(m.n_vertices), load.u_exact, load.grad_u_exact)
    assert e == pytest.approx(0.5**1.5, abs=1e-4)


def test_h1_interpolant_error_halves_per_refinement():
    rng = np.random.default_rng(0)
    c = rng.normal(size=6)

    def u(p):
        p = np.atleast_2d(p)
        return c[0] * p[:, 0] ** 2 + c[1] * p[:, 1] ** 2 + c[2] * p[:, 2] ** 2 + \
            c[3] * p[:, 0] * p[:, 1] + c[4] * p[:, 1] * p[:, 2] + c[5] * p[:, 0]

    def grad(p):
        p = np.atleast_2d(p)
        return np.column_stack([
            2 * c[0] * p[:, 0] + c[3] * p[:, 1] + c[5],
            2 * c[1] * p[:, 1] + c[3] * p[:, 0] + c[4] * p[:, 2],
            2 * c[2] * p[:, 2] + c[4] * p[:, 1],
        ])

    errs = []
    for n in (4, 8):
        m = vp.generate_cube_mesh(n)
        errs.append(Workspace(m).error_norms(u(m.vertices), u, grad)[1])
    ratio = errs[1] / errs[0]
    assert 0.5 * 0.85 <= ratio <= 0.5 * 1.15


def test_error_norms_invariant_under_reorder_and_reload(tmp_path):
    load = vp.manufactured_sine()
    m = vp.generate_voronoi_mesh(30, 4)
    rng = np.random.default_rng(1)
    u = rng.normal(size=m.n_vertices)
    e2, e1 = Workspace(m).error_norms(u, load.u_exact, load.grad_u_exact)

    perm = rng.permutation(m.n_cells)
    m2 = permuted_copy(m, perm)
    e2_perm, e1_perm = Workspace(m2).error_norms(u, load.u_exact, load.grad_u_exact)
    assert abs(e2_perm - e2) <= 1e-13
    assert abs(e1_perm - e1) <= 1e-13

    path = tmp_path / "m.vpm"
    vp.save_mesh(m, path)
    m3 = vp.load_mesh(path)
    e2_load, e1_load = Workspace(m3).error_norms(u, load.u_exact, load.grad_u_exact)
    assert abs(e2_load - e2) <= 1e-13
    assert abs(e1_load - e1) <= 1e-13


# ---------------------------------------------------------------------------
# study harness


def test_single_level_study_has_no_orders():
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    rep = vp.run_convergence_study([lambda: vp.generate_cube_mesh(2)], phys, load)
    assert len(rep.rows) == 1
    assert rep.rows[0].order_l2 is None
    assert rep.rows[0].order_h1 is None


def test_study_requires_manufactured_load():
    with pytest.raises(ValueError, match="manufactured"):
        vp.run_convergence_study(
            [lambda: vp.generate_cube_mesh(2)], vp.PhysicsConfig(), vp.regularized_load()
        )


def test_study_aborts_with_partial_report():
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()

    def boom():
        raise vp.SolverError("synthetic failure")

    with pytest.raises(vp.SolverError) as err:
        vp.run_convergence_study([lambda: vp.generate_cube_mesh(2), boom], phys, load)
    partial = err.value.study_report
    assert len(partial.rows) == 1
    assert err.value.study_level == 2


def test_study_rows_and_files(tmp_path):
    phys = vp.PhysicsConfig()
    load = vp.manufactured_sine()
    rep = vp.run_convergence_study(
        [lambda: vp.generate_cube_mesh(2), lambda: vp.generate_cube_mesh(4)],
        phys,
        load,
        metadata={"case": "smoke"},
    )
    assert [r.h for r in rep.rows] == [0.5, 0.25]
    assert rep.rows[1].order_l2 is not None

    csv = tmp_path / "report.csv"
    rep.to_csv(csv)
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1].split(",")[:5] == ["level", "cells", "dof", "h", "e_l2"]
    assert lines[2].split(",")[5] == "-"          # first row has no order
    assert len(lines) == 2 + len(rep.rows)

    plot = tmp_path / "report.plotdat"
    rep.to_plotdat(plot)
    rows = [l.split() for l in plot.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2 and len(rows[0]) == 5
    # reference lines share the coarsest anchor
    assert float(rows[0][1]) == pytest.approx(float(rows[0][3]), abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(float(rows[0][4]), abs=1e-12)
    # slope-2 line drops by 2*log10(2) per halving
    assert float(rows[0][3]) - float(rows[1][3]) == pytest.approx(2 * np.log10(2), abs=1e-12)


# ---------------------------------------------------------------------------
# reference-solution comparison


def test_reference_same_mesh_identical_solution_gives_zero():
    m = vp.generate_cube_mesh(2)
    u = np.random.default_rng(2).normal(size=m.n_vertices)
    e2, e1 = vp.compare_to_reference(m, u, m, u)
    assert e2 <= 1e-14
    assert e1 <= 1e-14


def test_reference_linear_fields_match_to_roundoff():
    load = manufactured_linear((0.1, 0.8, -0.4, 0.2))
    coarse = vp.generate_tet_mesh(2)
    fine = vp.generate_tet_mesh(4)
    e2, e1 = vp.compare_to_reference(
        coarse, load.u_exact(coarse.vertices), fine, load.u_exact(fine.vertices)
    )
    assert e2 <= 1e-12
    assert e1 <= 1e-12


def test_reference_rejects_non_nested():
    cube, tet = vp.generate_cube_mesh(2), vp.generate_tet_mesh(4)
    u_c = np.zeros(cube.n_vertices)
    u_t = np.zeros(tet.n_vertices)
    with pytest.raises(ValueError, match="nested|family"):
        vp.compare_to_reference(cube, u_c, tet, u_t)
    with pytest.raises(ValueError, match="nested"):
        vp.compare_to_reference(
            vp.generate_cube_mesh(3), np.zeros(4**3), cube, u_c
        )
    vor = vp.generate_voronoi_mesh(8, 0)
    with pytest.raises(ValueError):
        vp.compare_to_reference(vor, np.zeros(vor.n_vertices), vor, np.zeros(vor.n_vertices))


@pytest.mark.parametrize("make", [vp.generate_cube_mesh, vp.generate_tet_mesh], ids=["cube", "tet"])
def test_reference_matches_per_cell_loop(make):
    coarse, fine = make(2), make(4)
    rng = np.random.default_rng(5)
    u_h = rng.normal(size=coarse.n_vertices)
    u_ref = rng.normal(size=fine.n_vertices)     # no symmetry that could hide a misplaced cell
    got = vp.compare_to_reference(coarse, u_h, fine, u_ref)
    want = reference_errors_per_cell(coarse, u_h, fine, u_ref)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_reference_locates_coarse_nodes_once(monkeypatch):
    """The value and gradient references share one location of the coarse nodes."""
    calls = []
    locate = vp.analysis._locate_structured

    def counting(mesh, points):
        calls.append(len(points))
        return locate(mesh, points)

    monkeypatch.setattr(vp.analysis, "_locate_structured", counting)
    coarse, fine = vp.generate_tet_mesh(2), vp.generate_tet_mesh(4)
    rng = np.random.default_rng(3)
    vp.compare_to_reference(coarse, rng.normal(size=coarse.n_vertices),
                            fine, rng.normal(size=fine.n_vertices))
    assert calls == [len(Workspace(coarse).weights)]


def test_reference_locates_each_block_once(monkeypatch):
    """Over several node blocks, every coarse node is located exactly once."""
    located = []
    locate = vp.analysis._locate_structured

    def recording(mesh, points):
        located.append(points.copy())
        return locate(mesh, points)

    coarse, fine = vp.generate_tet_mesh(4), vp.generate_tet_mesh(8)
    rng = np.random.default_rng(4)
    u_c, u_f = rng.normal(size=coarse.n_vertices), rng.normal(size=fine.n_vertices)
    whole = vp.compare_to_reference(coarse, u_c, fine, u_f)
    monkeypatch.setattr(vp.solver, "BLOCK_NODES", 5000)
    monkeypatch.setattr(vp.analysis, "_locate_structured", recording)
    blocked = vp.compare_to_reference(coarse, u_c, fine, u_f)
    ws = Workspace(coarse)
    assert len(located) == len(ws.block_cells) - 1 > 1
    # blocks may run on several threads and finish in any order: match them as a set
    blocks = [ws.points[nodes] for _, nodes, _ in ws._blocks()]
    key = lambda a: a.tobytes()
    assert all(np.array_equal(a, b)
               for a, b in zip(sorted(located, key=key), sorted(blocks, key=key)))
    assert blocked == whole


@pytest.mark.parametrize("bad", ["u_h", "u_ref", "coarse projectors", "fine projectors"])
def test_reference_rejects_mismatched_inputs(bad):
    coarse, fine = vp.generate_tet_mesh(2), vp.generate_tet_mesh(4)
    u_c, u_f = np.zeros(coarse.n_vertices), np.zeros(fine.n_vertices)
    args = {"coarse_mesh": coarse, "u_h": u_c, "fine_mesh": fine, "u_ref": u_f}
    if bad == "u_h":
        args["u_h"] = u_f           # the fine solution passed as the coarse one
    elif bad == "u_ref":
        args["u_ref"] = u_c
    elif bad == "coarse projectors":
        args["coarse_projectors"] = vp.build_projectors(fine)
    else:
        args["fine_projectors"] = vp.build_projectors(coarse)
    with pytest.raises(ValueError, match=bad):
        vp.compare_to_reference(**args)


def test_voronoi_study_errors_decrease_monotonically(voronoi_study):
    e2 = voronoi_study.errors_l2()
    e1 = voronoi_study.errors_h1()
    assert all(b < a for a, b in zip(e2, e2[1:]))
    assert all(b < a for a, b in zip(e1, e1[1:]))


def test_reference_device_close_to_true_errors(cube_study):
    """Errors measured against a fine projected reference track the true ones."""
    coarse_mesh, coarse_projs, u_coarse = cube_study.solutions[0]   # n = 4
    fine_mesh, fine_projs, u_fine = cube_study.solutions[3]         # n = 32
    e2_ref, e1_ref = vp.compare_to_reference(
        coarse_mesh, u_coarse, fine_mesh, u_fine,
        coarse_projectors=coarse_projs, fine_projectors=fine_projs,
    )
    e2_true = cube_study.rows[0].e_l2
    e1_true = cube_study.rows[0].e_h1
    assert abs(e2_ref - e2_true) <= 0.10 * e2_true
    assert abs(e1_ref - e1_true) <= 0.10 * e1_true
