"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  The expensive convergence studies are shared session
fixtures (see conftest).
"""

import contextlib
import time

import numpy as np

import vempb as vp
from vempb.solver import mesh_quadrature
from vempb.solver import Workspace

from _oracles import (
    cell_projector_blocks, cell_vertex_ids, manufactured_linear, p1_tet_stiffness, residual_with,
)
from test_forms import random_tet_mesh


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {label}")
        raise
    print(f"[criterion {num}] PASS: {label}")


def test_criterion_1_projector_reproduction(random_cells):
    with criterion(1, "projectors reproduce P1 on >=100 random cells (<=1e-12, <10s)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        assert len(random_cells) >= 100
        worst = 0.0
        by_mesh = {}
        for m, ci in random_cells:
            if id(m) not in by_mesh:
                by_mesh[id(m)] = vp.build_projectors(m)
            # (vertex_ids, pi_nabla) of the cell, read back from the operators
            vids, pi_nabla = cell_projector_blocks(by_mesh[id(m)], ci)[:2]
            for a0, a in [(1.0, np.zeros(3)), (0.0, np.eye(3)[0]), (0.0, np.eye(3)[1]),
                          (0.0, np.eye(3)[2]), (rng.normal(), rng.normal(size=3))]:
                dofs = a0 + m.vertices[vids] @ a
                xe, h = m.cell_centroid[ci], m.cell_diameter[ci]
                expect = np.concatenate([[a0 + a @ xe], h * a])
                worst = max(worst, float(np.abs(pi_nabla @ dofs - expect).max()))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"coefficient error {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_patch_test():
    with criterion(2, "patch test exact to 1e-10 on cube/tet/Voronoi (<30s)"):
        t0 = time.perf_counter()
        ls = lambda p: -np.ones(len(p))
        phys = vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)
        load = manufactured_linear((0.4, 1.0, -2.0, 0.5))
        meshes = [
            vp.generate_cube_mesh(8),        # 512 cells
            vp.generate_tet_mesh(5),         # 750 cells
            vp.generate_voronoi_mesh(200, 1),
        ]
        for m in meshes:
            assert m.n_cells <= 1000
            u, _ = vp.newton_solve(m, phys, load)
            err = np.abs(u - load.u_exact(m.vertices)).max()
            assert err <= 1e-10, f"{m.family}: vertex error {err:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_single_tet_fem_oracle():
    with criterion(3, "local stiffness on 20 random tets = linear FEM to 1e-12"):
        rng = np.random.default_rng(42)
        ls = lambda p: -np.ones(len(p))
        phys = vp.PhysicsConfig(eps_m=1.0, eps_s=1.0, kappa=0.0, charges=[], levelset=ls)
        for _ in range(20):
            m = random_tet_mesh(rng)
            K = Workspace(m).stiffness(phys).toarray()   # one cell, vertices 0..3
            K_ref = p1_tet_stiffness(m.vertices)
            assert np.abs(K - K_ref).max() <= 1e-12


def test_criterion_4_reference_table_arithmetic():
    with criterion(4, "order formula reproduces the 8 printed cubic-table orders (+-0.01)"):
        h = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
        e_l2 = [4.63e-20, 2.36e-20, 8.17e-21, 2.34e-21, 5.32e-22]
        l2_printed = [0.97, 1.53, 1.80, 2.15]
        e_h1 = [3.43e-19, 2.86e-19, 1.56e-19, 7.21e-20, 2.73e-20]
        h1_printed = [0.26, 0.88, 1.11, 1.40]
        for errors, printed in ((e_l2, l2_printed), (e_h1, h1_printed)):
            for i, expect in enumerate(printed):
                o = vp.convergence_order((errors[i], errors[i + 1]), (h[i], h[i + 1]))
                # compare at the table's two-decimal precision
                assert abs(round(o, 2) - expect) <= 0.01 + 1e-12, (
                    f"order {o:.4f} vs printed {expect}"
                )


def test_criterion_5_uncut_rates(cube_study, tet_study):
    with criterion(5, "manufactured rates on uncut meshes: L2 in [1.8,2.2], H1 in [0.85,1.3] (<5min)"):
        for name, study in (("cubic", cube_study), ("tet", tet_study)):
            f2, f1 = study.fitted_orders(3)
            assert 1.8 <= f2 <= 2.2, f"{name}: L2 slope {f2:.3f}"
            assert 0.85 <= f1 <= 1.3, f"{name}: H1 slope {f1:.3f}"
            assert study.metadata["elapsed"] < 300.0, f"{name}: {study.metadata['elapsed']:.0f}s"
            print(f"  {name}: fitted L2 {f2:.3f}, H1 {f1:.3f}, "
                  f"{study.metadata['elapsed']:.0f}s")


def test_criterion_6_cut_interface_rates(voronoi_study):
    with criterion(6, "Voronoi (cut interface) rates: L2 >= 1.7, H1 >= 0.85 (<10min)"):
        f2, f1 = voronoi_study.fitted_orders(3)
        assert f2 >= 1.7, f"L2 slope {f2:.3f}"
        assert f1 >= 0.85, f"H1 slope {f1:.3f}"
        assert voronoi_study.metadata["elapsed"] < 600.0
        print(f"  voronoi: fitted L2 {f2:.3f}, H1 {f1:.3f}, "
              f"{voronoi_study.metadata['elapsed']:.0f}s")


def test_criterion_7_newton_behavior(cube_study, tet_study):
    with criterion(7, "Newton: <=8 iterations, bounded quadratic ratio, Jacobian = FD residual"):
        for study in (cube_study, tet_study):
            for sr in study.solve_reports:
                assert sr.newton_iterations <= 8
                hist = sr.residual_history
                assert hist[-1] <= 1e-10 * hist[0]
                ratios = [hist[k + 1] / hist[k] ** 2 for k in range(len(hist) - 1)]
                assert max(ratios[-2:]) <= 1.0, f"quadratic ratios {ratios[-2:]}"

        m = vp.generate_cube_mesh(4)
        phys = vp.PhysicsConfig()
        load = vp.manufactured_sine()
        ws = Workspace(m)
        A = ws.stiffness(phys)
        F = ws.load_vector(phys, load)
        rng = np.random.default_rng(7)
        u = rng.normal(size=m.n_vertices) * 0.3
        J = (A + ws.nonlinear(phys, u)[1]).toarray()
        free = ~m.boundary_vertex
        step = 1e-6
        J_fd = np.zeros_like(J)
        for k in range(m.n_vertices):
            up = u.copy(); up[k] += step
            dn = u.copy(); dn[k] -= step
            rp = residual_with(ws, phys, A, F, up)
            rm = residual_with(ws, phys, A, F, dn)
            J_fd[:, k] = (rp - rm) / (2 * step)
        rel = np.abs(J[free] - J_fd[free]).max() / np.abs(J[free]).max()
        assert rel <= 1e-6, f"FD relative error {rel:.3e}"


def test_criterion_8_monotonicity():
    with criterion(8, "screened nonlinearity monotone on 100 solvent samples (>= -1e-12)"):
        phys = vp.PhysicsConfig()
        k2 = phys.kappa_bar_sq_solvent
        pool = []
        for m in (vp.generate_cube_mesh(4), vp.generate_voronoi_mesh(100, 3)):
            phi = phys.levelset(m.vertices)
            points, weights, _, _, cell_ptr, *_ = mesh_quadrature(m)
            for ci in range(m.n_cells):
                if phi[cell_vertex_ids(m, ci)].min() > 0:   # strictly in the solvent
                    nodes = slice(cell_ptr[ci], cell_ptr[ci + 1])
                    pool.append((points[nodes], weights[nodes]))
        assert len(pool) >= 100
        rng = np.random.default_rng(8)
        idx = rng.integers(len(pool), size=100)
        for k in idx:
            pts, w = pool[k]
            au, bv = rng.normal(size=4), rng.normal(size=4)
            G = phys.coulomb_potential(pts)
            u = au[0] + pts @ au[1:]
            v = bv[0] + pts @ bv[1:]
            lhs = w @ ((k2 * np.sinh(u + G) - k2 * np.sinh(v + G)) * (u - v))
            rhs = k2 * (w @ (u - v) ** 2)
            assert lhs - rhs >= -1e-12


def test_criterion_9_partition_and_determinism(cube_study, tmp_path):
    with criterion(9, "partition sums exactly 1 (1e-12) and Voronoi is byte-deterministic"):
        meshes = [
            vp.generate_cube_mesh(1),
            vp.generate_cube_mesh(5),
            vp.generate_tet_mesh(3),
            vp.generate_voronoi_mesh(64, 6),
            vp.generate_voronoi_mesh(512, 6),
        ]
        meshes += [sol[0] for sol in cube_study.solutions]
        for m in meshes:
            assert abs(m.total_volume() - 1.0) <= 1e-12, f"{m.family} n_cells={m.n_cells}"

        a = vp.generate_voronoi_mesh(64, 9)
        b = vp.generate_voronoi_mesh(64, 9)
        pa, pb = tmp_path / "a.vpm", tmp_path / "b.vpm"
        vp.save_mesh(a, pa)
        vp.save_mesh(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
