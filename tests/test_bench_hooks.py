"""The entry points the benchmark harness in ``perfbench/`` calls and wraps.

``perfbench/tracer.py`` patches module attributes and instance methods of
vempb by name, and ``perfbench/workloads.py`` calls a fixed set of
functions with fixed arguments.  These tests fail when a change to the
package removes or renames one of them, before a traced bench run would.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import vempb
import vempb.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("mesh", "projectors", "solver", "analysis", "cli")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _module_attrs():
    return {(name, attr): value
            for name in MODULES for attr, value in vars(getattr(vempb, name)).items()}


def _changed(before):
    """Module attributes added, removed or rebound since ``before``."""
    after = _module_attrs()
    return {key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)}


def test_tracer_install_and_uninstall_restore_every_attribute():
    before = _module_attrs()
    tracer = _load_tracer().Tracer()
    tracer.install(vempb)
    try:
        patched = _changed(before)
        assert ("solver", "Workspace") in patched
        assert ("analysis", "cell_quadrature") in patched
        # a Workspace built through the wrapper gets its methods wrapped too
        mesh = vempb.mesh.generate_cube_mesh(2)
        physics = vempb.forms.PhysicsConfig()
        ws = vempb.solver.Workspace(mesh)
        tracer.instrument_physics(physics)
        load = vempb.forms.manufactured_sine()
        u, _ = vempb.solver.newton_solve(mesh, physics, load, workspace=ws)
        ws.error_norms(u, load.u_exact, load.grad_u_exact)
    finally:
        tracer.uninstall()
    assert not _changed(before)
    assert not {"stiffness", "load_vector", "nonlinear", "error_norms"} & set(vars(ws))
    assert not {"epsilon", "coulomb_potential"} & set(vars(physics))
    spans = {s.name for s in tracer.spans}
    assert {"solver.workspace", "solver.newton", "solver.stiffness", "solver.load",
            "solver.jacobian", "solver.cg", "analysis.error_norms",
            "forms.coeff"} <= spans


def test_workload_calls_bind_to_current_signatures():
    mesh = vempb.mesh.generate_cube_mesh(1)
    projectors = vempb.projectors.build_projectors(mesh)
    ws = vempb.solver.Workspace(mesh, projectors)
    physics = vempb.forms.PhysicsConfig()
    load = vempb.forms.manufactured_sine()
    u = np.zeros(mesh.n_vertices)
    config = vempb.solver.NewtonConfig()
    calls = [
        (vempb.solver.assemble_residual, (mesh, physics, load, u), {"workspace": ws}),
        (vempb.solver.newton_solve, (mesh, physics, load, config), {"workspace": ws}),
        (vempb.solver.Workspace, (mesh, projectors), {}),
        (vempb.analysis.compare_to_reference, (mesh, u, mesh, u, projectors, projectors), {}),
        (ws.error_norms, (u, load.u_exact, load.grad_u_exact), {}),
        (vempb.cli.write_solution_csv, ("solution.csv", mesh, u), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def test_setup_counts_read_current_fields():
    """The mesh and Workspace fields ``workloads.setup_counts`` reads for every case."""
    mesh = vempb.mesh.generate_cube_mesh(2)
    ws = vempb.solver.Workspace(mesh)
    counts = (mesh.n_cells, mesh.n_faces, len(ws.groups), len(ws.weights),
              _load_tracer().quad_bytes(ws))
    # 8 cubes, 36 faces, one 8-DoF group, 8 cells * 24 cone tetrahedra * 14 nodes
    assert counts == (8, 36, 1, 2688, 172104)
    # projectors.dof_groups reads len(ws.groups): the number of distinct DoF
    # counts, as the projectors were once stored in one group per count
    for mesh, n_groups in ((vempb.mesh.generate_cube_mesh(3), 1),
                           (vempb.mesh.generate_tet_mesh(2), 1),
                           (vempb.mesh.generate_voronoi_mesh(64, 0), 14)):
        assert len(vempb.solver.Workspace(mesh).groups) == n_groups
