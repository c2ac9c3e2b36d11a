"""Error norms, convergence orders, and the study harness.

Errors compare the exact field against the cellwise projected polynomial of
the discrete solution: the L2 norm of (u_ex - projection) and the H1
seminorm of its gradient defect, both by :meth:`Workspace.error_norms` on
the solver's own quadrature.  The mesh size is the averaged
(|Omega|/N_E)^(1/3) of :func:`~vempb.mesh.mesh_size`, and orders are
reported pairwise per refinement plus as a least-squares slope over the last
levels (the robust number quoted by the acceptance checks).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .forms import LoadSpec, PhysicsConfig
from .mesh import PolyMesh, _locate_structured, mesh_size
from .projectors import CellProjectorSet, build_projectors
from .solver import NewtonConfig, SolveReport, Workspace, newton_solve
# cell_quadrature stays importable here: perfbench/tracer.py wraps analysis.cell_quadrature
from .solver import cell_quadrature  # noqa: F401


def _checked_levels(errors: Sequence[float], sizes: Sequence[float]):
    """errors and sizes as float arrays, one per level; raises ValueError unless every
    value is finite and positive and the sizes strictly decrease."""
    e = np.asarray(errors, dtype=float)
    h = np.asarray(sizes, dtype=float)
    if e.ndim != 1 or e.shape != h.shape:
        raise ValueError(f"need one error per size, got shapes {e.shape} and {h.shape}")
    # written so that NaN fails
    if not np.all((0 < e) & (e < np.inf) & (0 < h) & (h < np.inf)):
        raise ValueError("errors and sizes must be positive and finite")
    if not np.all(np.diff(h) < 0):
        raise ValueError("sizes must decrease")
    return e, h


def convergence_order(errors: Sequence[float], sizes: Sequence[float]) -> float:
    """log(e2/e1) / log(h2/h1) for one refinement step."""
    e, h = _checked_levels(errors, sizes)
    if len(e) != 2:
        raise ValueError(f"need exactly two levels, got {len(e)}")
    return float(np.log(e[1] / e[0]) / np.log(h[1] / h[0]))


def fitted_order(sizes: Sequence[float], errors: Sequence[float], last: int = 3) -> float:
    """Least-squares slope of log(e) vs log(h) over the last ``last`` levels."""
    e, h = _checked_levels(errors, sizes)
    if min(last, len(h)) < 2:
        raise ValueError(f"need at least two levels, got the last {last} of {len(h)}")
    h, e = h[-last:], e[-last:]
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


@dataclass
class LevelResult:
    level: int
    n_cells: int
    dof: int
    h: float
    e_l2: float
    e_h1: float
    order_l2: float | None
    order_h1: float | None
    newton_iterations: int
    wall_time: float


@dataclass
class ConvergenceReport:
    rows: list[LevelResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    solve_reports: list[SolveReport] = field(default_factory=list)
    solutions: list = field(default_factory=list)   # (mesh, projectors, u) when kept

    def sizes(self) -> list[float]:
        return [r.h for r in self.rows]

    def errors_l2(self) -> list[float]:
        return [r.e_l2 for r in self.rows]

    def errors_h1(self) -> list[float]:
        return [r.e_h1 for r in self.rows]

    def fitted_orders(self, last: int = 3) -> tuple[float, float]:
        return (
            fitted_order(self.sizes(), self.errors_l2(), last),
            fitted_order(self.sizes(), self.errors_h1(), last),
        )

    def to_csv(self, path) -> None:
        """Table-layout CSV (orders blank on the first row); no timing columns."""
        lines = []
        if self.metadata:
            import json

            lines.append("# config " + json.dumps(self.metadata, sort_keys=True))
        lines.append("level,cells,dof,h,e_l2,l2_order,e_h1,h1_order,newton_iterations")
        for r in self.rows:
            o2 = f"{r.order_l2:.17g}" if r.order_l2 is not None else "-"
            o1 = f"{r.order_h1:.17g}" if r.order_h1 is not None else "-"
            lines.append(
                f"{r.level},{r.n_cells},{r.dof},{r.h:.17g},{r.e_l2:.17g},{o2},"
                f"{r.e_h1:.17g},{o1},{r.newton_iterations}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_plotdat(self, path) -> None:
        """log10 data columns plus slope-2/slope-1 reference lines anchored coarsest."""
        h = np.array(self.sizes())
        e2 = np.array(self.errors_l2())
        e1 = np.array(self.errors_h1())
        ref2 = e2[0] * (h / h[0]) ** 2
        ref1 = e1[0] * (h / h[0])
        lines = ["# log10_h log10_e_l2 log10_e_h1 log10_ref2 log10_ref1"]
        for row in np.column_stack([h, e2, e1, ref2, ref1]):
            lines.append(" ".join(f"{np.log10(v):.17g}" for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def run_convergence_study(
    mesh_factories: Sequence[Callable[[], PolyMesh]],
    physics: PhysicsConfig,
    load: LoadSpec,
    newton: NewtonConfig | None = None,
    metadata: dict | None = None,
    keep_solutions: bool = False,
) -> ConvergenceReport:
    """Solve the same problem on a refinement sequence and tabulate errors.

    Requires a manufactured load (the exact solution defines the errors).  A
    failing level aborts the study; the raised error carries the partial
    report as ``study_report`` and the failing level as ``study_level``.
    """
    if load.mode != "manufactured":
        raise ValueError("convergence studies need a manufactured load")
    report = ConvergenceReport(metadata=metadata or {})
    prev: LevelResult | None = None
    for level, factory in enumerate(mesh_factories, start=1):
        t0 = time.perf_counter()
        try:
            mesh = factory()
            ws = Workspace(mesh)
            u, sr = newton_solve(mesh, physics, load, newton, workspace=ws)
        except Exception as exc:
            exc.study_report = report
            exc.study_level = level
            raise
        e2, e1 = ws.error_norms(u, load.u_exact, load.grad_u_exact)
        h = mesh_size(mesh)
        row = LevelResult(
            level=level,
            n_cells=mesh.n_cells,
            dof=mesh.n_vertices,
            h=h,
            e_l2=e2,
            e_h1=e1,
            order_l2=convergence_order((prev.e_l2, e2), (prev.h, h)) if prev else None,
            order_h1=convergence_order((prev.e_h1, e1), (prev.h, h)) if prev else None,
            newton_iterations=sr.newton_iterations,
            wall_time=time.perf_counter() - t0,
        )
        report.rows.append(row)
        report.solve_reports.append(sr)
        if keep_solutions:
            report.solutions.append((mesh, ws.projectors, u))
        prev = row
    return report


# ---------------------------------------------------------------------------
# reference-solution comparison on nested structured meshes


def compare_to_reference(
    coarse_mesh: PolyMesh,
    u_h: np.ndarray,
    fine_mesh: PolyMesh,
    u_ref: np.ndarray,
    coarse_projectors: CellProjectorSet | None = None,
    fine_projectors: CellProjectorSet | None = None,
) -> tuple[float, float]:
    """Errors of u_h against the projected reference field on a nested fine mesh.

    The fine projection (cellwise linear) stands in for the exact solution
    inside the error integrals, which run over the coarse mesh's quadrature
    nodes; fine cells are located by structured indexing, so both meshes must
    come from the same structured generator with the fine resolution a
    multiple of the coarse one.
    """
    if coarse_mesh.family not in ("cubic", "tet") or fine_mesh.family != coarse_mesh.family:
        raise ValueError("reference comparison needs nested structured meshes of one family")
    if fine_mesh.n is None or coarse_mesh.n is None or fine_mesh.n % coarse_mesh.n != 0:
        raise ValueError(
            f"meshes are not nested (coarse n={coarse_mesh.n}, fine n={fine_mesh.n})"
        )
    for what, values, mesh in (("u_h", u_h, coarse_mesh), ("u_ref", u_ref, fine_mesh)):
        if len(values) != mesh.n_vertices:
            raise ValueError(f"{what} has {len(values)} values for {mesh.n_vertices} vertices")
    for what, projs, mesh in (
        ("coarse", coarse_projectors, coarse_mesh), ("fine", fine_projectors, fine_mesh)
    ):
        if projs is not None and projs.mesh is not mesh:
            raise ValueError(f"{what} projectors were built on another mesh")
    if fine_projectors is None:
        fine_projectors = build_projectors(fine_mesh)
    coeff_rows = np.ascontiguousarray(fine_projectors.value_coeffs(u_ref).T)
    grads = fine_projectors.gradients(u_ref)
    centroid_rows = np.ascontiguousarray(fine_mesh.cell_centroid.T)

    ws = Workspace(coarse_mesh, coarse_projectors)
    # error_norms hands both fields the same points array per node block, so each
    # block's fine cells are located once and shared by the two callables; blocks
    # run on several threads at once, so each thread keeps its own last block
    located = threading.local()

    def fine_cells(points):
        if getattr(located, "points", None) is not points:
            located.points, located.cells = points, _locate_structured(fine_mesh, points)
        return located.cells

    def ref_value(points):
        fid = fine_cells(points)
        xi = points.T - centroid_rows.take(fid, axis=1)
        xi /= fine_mesh.cell_diameter.take(fid)
        c = coeff_rows.take(fid, axis=1)
        return c[0] + xi[0] * c[1] + xi[1] * c[2] + xi[2] * c[3]

    def ref_gradient(points):
        return grads.take(fine_cells(points), axis=0)

    return ws.error_norms(u_h, ref_value, ref_gradient)
