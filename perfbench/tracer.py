"""Span recorder that times calls into vempb from outside the package.

The traced run replaces public callables (module attributes such as
``vempb.solver.cg_solve`` and methods of the ``Workspace`` and
``PhysicsConfig`` instances a workload creates) with wrappers that record a
span per call: name, start, end, parent span and run id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover; single-threaded calls nest, so that is the sum
of the children's durations.  ``uninstall`` puts every original back, so the
untraced runs execute the package exactly as shipped.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

ROOT_SPAN = "case"
_MISSING = object()

# span name -> per-layer metric holding its summed self time
SELF_TIME_METRIC = {
    ROOT_SPAN: "trace.unattributed_s",
    "solver.newton": "solver.newton_self_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root span
    run: int


def _n_points(points) -> int:
    return len(np.atleast_2d(points))


def quad_bytes(ws) -> int:
    """Bytes held by the Workspace's flat quadrature arrays, from their sizes."""
    return sum(a.nbytes for a in (ws.points, ws.weights, ws.xi, ws.cop, ws.cell_ptr))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._run = 0

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, run: int):
        """Root span of one traced case; every span opened inside carries ``run``."""
        self._run = run
        idx = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        """Time ``fn`` as a span; ``name`` may be a function of the call's arguments.

        ``count(counts, args, kwargs, result)`` adds the call's work counts.  A
        span nested directly in a span of the same name adds no counts, so a
        coefficient that calls another coefficient counts its points once.
        """

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None and (parent < 0 or self.spans[parent].name != span_name):
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` (a module attribute or an instance's method) by a wrapper."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def uninstall(self) -> None:
        """Put back every patched attribute; instances fall back to their class methods."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- vempb instrumentation ---------------------------------------------

    def install(self, vempb) -> None:
        """Wrap the module-level entry points each workload calls."""
        mesh, projectors, solver = vempb.mesh, vempb.projectors, vempb.solver
        analysis, cli = vempb.analysis, vempb.cli

        def mesh_counts(c, args, kwargs, m):
            c["mesh.cells"] += m.n_cells
            c["mesh.faces"] += m.n_faces

        for attr in ("generate_cube_mesh", "generate_tet_mesh", "voronoi_mesh_from_seeds"):
            self.patch(mesh, attr, "mesh.build", mesh_counts)
        self.patch(projectors, "build_projectors", "projectors.build")

        def workspace_counts(c, args, kwargs, ws):
            c["projectors.dof_groups"] += len(ws.groups)
            c["solver.quad_points"] += len(ws.weights)
            c["solver.quad_bytes"] += quad_bytes(ws)
            self.instrument_workspace(ws)

        self.patch(solver, "Workspace", "solver.workspace", workspace_counts)

        def newton_counts(c, args, kwargs, result):
            report = result[1]
            c["solver.newton_iterations"] += report.newton_iterations
            c["solver.damping_events"] += report.damping_events

        self.patch(solver, "newton_solve", "solver.newton", newton_counts)

        def cg_counts(c, args, kwargs, result):
            c["solver.cg_calls"] += 1
            c["solver.cg_iterations"] += result[1]

        self.patch(solver, "cg_solve", "solver.cg", cg_counts)
        self.patch(analysis, "compare_to_reference", "analysis.reference")

        def quad_counts(c, args, kwargs, result):
            c["polybasis.cell_quadrature_calls"] += 1

        self.patch(analysis, "cell_quadrature", "polybasis.cell_quadrature", quad_counts)

        def csv_counts(c, args, kwargs, result):
            c["cli.csv_bytes"] += os.path.getsize(args[0])

        self.patch(cli, "write_solution_csv", "cli.csv_write", csv_counts)

    def instrument_workspace(self, ws) -> None:
        self.patch(ws, "stiffness", "solver.stiffness")
        self.patch(ws, "load_vector", "solver.load")

        def nonlinear_name(args, kwargs):
            jac = kwargs.get("with_jacobian", args[2] if len(args) > 2 else True)
            return "solver.jacobian" if jac else "solver.residual"

        def nonlinear_counts(c, args, kwargs, result):
            c["solver.jacobian_calls" if result[1] is not None else "solver.residual_calls"] += 1

        self.patch(ws, "nonlinear", nonlinear_name, nonlinear_counts)
        self.patch(ws, "error_norms", "analysis.error_norms")

    def instrument_physics(self, physics) -> None:
        def points(metric):
            def count(c, args, kwargs, result):
                c[metric] += _n_points(args[0])

            return count

        for attr in ("epsilon", "kappa_bar_sq", "solvent_mask"):
            self.patch(physics, attr, "forms.coeff", points("forms.coeff_points"))
        for attr in ("coulomb_potential", "coulomb_gradient"):
            self.patch(physics, attr, "forms.coulomb", points("forms.coulomb_points"))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
            for s in self.spans
        ]
