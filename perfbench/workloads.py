"""The benchmark's three batch PB jobs and the checks on their outputs.

Each workload is one closed-loop case run in a single process: build the
meshes, solve, and compute an accuracy figure, the way ``vempb solve`` and
``vempb study`` run.  The case looks every vempb callable up on its module at
call time, so the traced run can substitute timing wrappers without touching
the package; untraced cases call the package as shipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import quad_bytes

NAMES = ("cube-sine", "voronoi-sine", "tet-screened")

# cube cells per axis, Voronoi seed count, tet cells per axis (coarse, fine)
SIZES = {"cube-sine": 24, "voronoi-sine": 1024, "tet-screened": (6, 12)}
# tiny sizes for the smoke mode; the recorded values in spec.json do not apply to them
SMOKE_SIZES = {"cube-sine": 4, "voronoi-sine": 64, "tet-screened": (2, 4)}
# the strongest charge that converges honestly today (see spec.json "exclusions")
TET_CHARGE = (5.0, (0.25, 0.25, 0.25))
TET_KAPPA = 4.0

# counts that repeat exactly between cases of one run (and one seed)
COUNT_KEYS = (
    "mesh.cells",
    "mesh.faces",
    "projectors.dof_groups",
    "solver.quad_points",
    "solver.quad_bytes",
    "solver.newton_iterations",
    "solver.damping_events",
    "solver.cg_calls",
    "solver.cg_iterations",
)


@dataclass
class Setup:
    mesh: object
    projectors: list
    ws: object


@dataclass
class Solve:
    setup: Setup
    physics: object
    load: object
    config: object
    u: np.ndarray
    report: object


@dataclass
class Case:
    total_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    setups: list[Setup] = field(default_factory=list)
    solves: list[Solve] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    csv_path: Path | None = None
    seeds: np.ndarray | None = None

    def counts(self) -> dict[str, int]:
        c = dict.fromkeys(COUNT_KEYS, 0)
        c.update(setup_counts(self.setups))
        for s in self.solves:
            c["solver.newton_iterations"] += s.report.newton_iterations
            c["solver.damping_events"] += s.report.damping_events
            c["solver.cg_calls"] += len(s.report.cg_iterations)
            c["solver.cg_iterations"] += sum(s.report.cg_iterations)
        return c


def setup_counts(setups: list[Setup]) -> dict[str, int]:
    """Mesh and quadrature sizes summed over the meshes of a case."""
    return {
        "mesh.cells": sum(s.mesh.n_cells for s in setups),
        "mesh.faces": sum(s.mesh.n_faces for s in setups),
        "projectors.dof_groups": sum(len(s.ws.groups) for s in setups),
        "solver.quad_points": sum(len(s.ws.weights) for s in setups),
        "solver.quad_bytes": sum(quad_bytes(s.ws) for s in setups),
    }


def voronoi_seeds(seed: int, n_seeds: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n_seeds, 3))


def mesh_builders(vp, name: str, seed: int, smoke: bool):
    """(generator, argument) per mesh of the case, looked up on ``vempb.mesh`` now."""
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    if name == "cube-sine":
        return [(vp.mesh.generate_cube_mesh, size)]
    if name == "voronoi-sine":
        return [(vp.mesh.voronoi_mesh_from_seeds, voronoi_seeds(seed, size))]
    return [(vp.mesh.generate_tet_mesh, n) for n in size]


def build(vp, builders) -> list[Setup]:
    """Mesh generation, projectors and Workspace for each mesh of a case."""
    out = []
    for make, arg in builders:
        mesh = make(arg)
        projectors = vp.projectors.build_projectors(mesh)
        out.append(Setup(mesh, projectors, vp.solver.Workspace(mesh, projectors)))
    return out


def run_case(vp, name: str, seed: int, smoke: bool, tracer, tmpdir: Path) -> Case:
    """One timed case: meshes -> solutions -> accuracy figure."""
    case = Case()
    builders = mesh_builders(vp, name, seed, smoke)
    if name == "voronoi-sine":
        case.seeds = builders[0][1]
    t0 = time.perf_counter()
    case.setups = build(vp, builders)
    case.setup_s = time.perf_counter() - t0

    if name == "tet-screened":
        physics = vp.forms.PhysicsConfig(kappa=TET_KAPPA, charges=[TET_CHARGE])
        load = vp.forms.regularized_load()
    else:
        physics = vp.forms.PhysicsConfig()
        load = vp.forms.manufactured_sine()
    if tracer is not None:
        tracer.instrument_physics(physics)
    config = vp.solver.NewtonConfig()
    for s in case.setups:
        t = time.perf_counter()
        u, report = vp.solver.newton_solve(s.mesh, physics, load, config, workspace=s.ws)
        case.solve_s += time.perf_counter() - t
        case.solves.append(Solve(s, physics, load, config, u, report))

    if name == "tet-screened":
        (coarse, fine) = case.solves
        e_l2, e_h1 = vp.analysis.compare_to_reference(
            coarse.setup.mesh, coarse.u, fine.setup.mesh, fine.u,
            coarse.setup.projectors, fine.setup.projectors,
        )
    else:
        (s,) = case.solves
        e_l2, e_h1 = s.setup.ws.error_norms(s.u, load.u_exact, load.grad_u_exact)
    case.outputs = {"e_l2": e_l2, "e_h1": e_h1}
    if name == "cube-sine":
        case.csv_path = tmpdir / "solution.csv"
        vp.cli.write_solution_csv(case.csv_path, case.solves[0].setup.mesh, case.solves[0].u)
    case.total_s = time.perf_counter() - t0
    return case


# ---------------------------------------------------------------------------
# correctness checks (untimed, run with no wrappers installed)


def _close(value: float, recorded: float, rel: float) -> bool:
    return abs(value - recorded) <= rel * abs(recorded)


def check_case(vp, name: str, case: Case, spec: dict, smoke: bool) -> list[str]:
    """Failed checks of one case, as messages; empty when every output is right."""
    tol = spec["tolerances"]
    rec = spec["recorded"].get(name, {})
    bad = []
    for i, s in enumerate(case.solves):
        r = s.report
        tag = f"solve {i}"
        if not r.converged:
            bad.append(f"{tag}: not converged")
            continue
        if not np.all(np.isfinite(s.u)):
            bad.append(f"{tag}: non-finite solution")
            continue
        target = s.config.rel_tol * r.residual_history[0] + s.config.abs_tol
        res = vp.solver.assemble_residual(
            s.setup.mesh, s.physics, s.load, s.u, workspace=s.setup.ws
        )
        rnorm = float(np.linalg.norm(res))
        if not rnorm <= target:
            bad.append(f"{tag}: residual {rnorm:.3e} above the claimed target {target:.3e}")
        if not rnorm <= tol["residual_abs_max"]:
            bad.append(f"{tag}: residual {rnorm:.3e} above {tol['residual_abs_max']:g}")
        if not smoke and name == "tet-screened":
            want = rec["max_abs_u"][i]
            if not _close(r.max_abs_u, want, tol["value_rel"]):
                bad.append(f"{tag}: max|u| {r.max_abs_u!r} != recorded {want!r}")

    e_l2, e_h1 = case.outputs["e_l2"], case.outputs["e_h1"]
    if not (np.isfinite(e_l2) and np.isfinite(e_h1)):
        bad.append("non-finite accuracy figure")
    elif not smoke and name in ("cube-sine", "tet-screened"):
        for key, val in (("e_l2", e_l2), ("e_h1", e_h1)):
            if not _close(val, rec[key], tol["value_rel"]):
                bad.append(f"{key} {val!r} != recorded {rec[key]!r}")
    elif not smoke:
        for key, val in (("e_l2", e_l2), ("e_h1", e_h1)):
            if not val <= spec["voronoi_bounds"][key]:
                bad.append(f"{key} {val!r} above bound {spec['voronoi_bounds'][key]!r}")

    if name == "voronoi-sine":
        mesh = case.setups[0].mesh
        if mesh.n_cells != len(case.seeds):
            bad.append(f"{mesh.n_cells} cells for {len(case.seeds)} seeds")
        vol_err = abs(mesh.total_volume() - 1.0)
        if not vol_err <= tol["volume_abs"]:
            bad.append(f"total volume off by {vol_err:.3e}")
    if name == "cube-sine":
        bad += _check_csv(case)
    return bad


def _check_csv(case: Case) -> list[str]:
    """The solution CSV holds one row per vertex and reads back bit-exactly."""
    mesh, u = case.solves[0].setup.mesh, case.solves[0].u
    lines = case.csv_path.read_text().splitlines()
    if lines[0] != "id,x,y,z,u" or len(lines) != mesh.n_vertices + 1:
        return [f"solution CSV has {len(lines)} lines for {mesh.n_vertices} vertices"]
    table = np.array([row.split(",") for row in lines[1:]], dtype=float)
    if not (np.array_equal(table[:, 0], np.arange(mesh.n_vertices))
            and np.array_equal(table[:, 1:4], mesh.vertices)
            and np.array_equal(table[:, 4], u)):
        return ["solution CSV does not read back to the mesh and solution"]
    return []
