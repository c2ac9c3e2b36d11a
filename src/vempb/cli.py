"""Command-line interface: mesh generation/inspection, solves, and studies.

One JSON config document drives solve/study runs; every section has defaults
matching the standard electrostatics setup (eps_m=2, eps_s=80,
kappa=1/(20*sqrt(2)), unit charge at the origin, molecular region the box
[0, t]^3 with t = physics.box_threshold = 0.5).
Unknown keys, and values whose JSON type is not their default's (null only
where the default is null), are rejected before any computation; the other
values are checked where they are used.  Given the same config
(including rng_seed) all produced artifacts are byte-identical; timings go
to stdout only.

Exit codes: 0 success, 2 validation/parse failure (a missing or unwritable
file included; mesh gen, solve and study check that their output
directories exist before they compute), 3 solver failure (also when its
partial state cannot be saved).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, mesh as meshmod, solver
from .forms import LoadSpec, PhysicsConfig, manufactured_sine
from .mesh import MeshError, PolyMesh, box_levelset
from .solver import NewtonConfig, SolverError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


_DEFAULT_PHYSICS = PhysicsConfig()
_DEFAULTS = {
    "physics": {
        "eps_m": _DEFAULT_PHYSICS.eps_m,
        "eps_s": _DEFAULT_PHYSICS.eps_s,
        "kappa": _DEFAULT_PHYSICS.kappa,
        "charges": [{"q": q, "x": list(x)} for q, x in _DEFAULT_PHYSICS.charges],
        "box_threshold": 0.5,
    },
    "mesh": {"family": "cubic", "n": 8, "n_seeds": None, "rng_seed": 0, "path": None},
    "load": {"mode": "manufactured"},
    "solver": dataclasses.asdict(NewtonConfig()),
    "study": {"levels": []},
    "output": {"solution": "solution.csv", "report": "report.csv", "plot": None},
}


# the JSON type of each value whose default is null; null stays allowed there
_NULL_DEFAULT_TYPES = {
    "n_seeds": "integer", "path": "string", "cg_max_iterations": "integer", "plot": "string",
}


# JSON type names of parsed values, bool before int: a boolean is not an integer
_JSON_TYPES = (("null", type(None)), ("boolean", bool), ("integer", int), ("number", float),
               ("string", str), ("array", list), ("object", dict))


def _json_type(value) -> str:
    return next(name for name, types in _JSON_TYPES if isinstance(value, types))


def _expect(where: str, value, kind: str, nullable: bool = False) -> None:
    """Raise ConfigError unless ``value`` has JSON type ``kind`` (an integer is a number)."""
    got = _json_type(value)
    if got == kind or (kind, got) == ("number", "integer") or (nullable and got == "null"):
        return
    kind += " or null" if nullable else ""
    raise ConfigError(f"{where} must be a JSON {kind}, got {json.dumps(value)}")


def _expect_like(where: str, value, section: str, key: str) -> None:
    """``value`` has the JSON type of the default of ``section.key``."""
    default = _DEFAULTS[section][key]
    if default is None:
        _expect(where, value, _NULL_DEFAULT_TYPES[key], nullable=True)
    else:
        _expect(where, value, _json_type(default))


def _merge_section(name: str, defaults: dict, given) -> dict:
    _expect(name, given, "object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(unknown)}")
    for key, value in given.items():
        _expect_like(f"{name}.{key}", value, name, key)
    out = dict(defaults)
    out.update(given)
    return out


def load_config(path) -> dict:
    """Parse and validate the run config, filling defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    cfg = {}
    for name, defaults in _DEFAULTS.items():
        cfg[name] = _merge_section(name, defaults, raw.get(name, {}))
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """The shapes inside the physics charges and the study levels."""
    ph = cfg["physics"]
    for i, ch in enumerate(ph["charges"]):
        where = f"physics.charges[{i}]"
        _expect(where, ch, "object")
        if set(ch) != {"q", "x"}:
            raise ConfigError(f"{where} must have the keys q and x, got {sorted(ch)}")
        _expect(f"{where}.q", ch["q"], "number")
        _expect(f"{where}.x", ch["x"], "array")
        if len(ch["x"]) != 3:
            raise ConfigError(f"{where}.x must have 3 coordinates, got {len(ch['x'])}")
        for v in ch["x"]:
            _expect(f"{where}.x", v, "number")
    for i, lvl in enumerate(cfg["study"]["levels"]):
        where = f"study.levels[{i}]"
        _expect(where, lvl, "object")
        unknown = set(lvl) - {"n", "n_seeds", "rng_seed", "path"}
        if unknown:
            raise ConfigError(f"unknown key(s) in study level: {sorted(unknown)}")
        for key, value in lvl.items():
            _expect_like(f"{where}.{key}", value, "mesh", key)


def build_physics(cfg: dict) -> PhysicsConfig:
    ph = cfg["physics"]
    return PhysicsConfig(
        eps_m=float(ph["eps_m"]),
        eps_s=float(ph["eps_s"]),
        kappa=float(ph["kappa"]),
        charges=[(float(c["q"]), tuple(float(v) for v in c["x"])) for c in ph["charges"]],
        levelset=box_levelset(float(ph["box_threshold"])),
    )


def build_load(cfg: dict) -> LoadSpec:
    ld = cfg["load"]
    if ld["mode"] != "manufactured":
        return LoadSpec(mode=ld["mode"])
    return manufactured_sine()


def build_mesh(mesh_cfg: dict) -> PolyMesh:
    family = mesh_cfg["family"]
    if family == "cubic":
        return meshmod.generate_cube_mesh(int(mesh_cfg["n"]))
    if family == "tet":
        return meshmod.generate_tet_mesh(int(mesh_cfg["n"]))
    if family == "voronoi":
        if mesh_cfg.get("n_seeds") is None:
            raise ConfigError("voronoi mesh needs n_seeds")
        return meshmod.generate_voronoi_mesh(int(mesh_cfg["n_seeds"]), int(mesh_cfg["rng_seed"]))
    if family == "file":
        if not mesh_cfg.get("path"):
            raise ConfigError("file mesh needs a path")
        return meshmod.load_mesh(mesh_cfg["path"])
    raise ConfigError(f"unknown mesh family {family!r}")


def build_newton(cfg: dict) -> NewtonConfig:
    return NewtonConfig(**cfg["solver"])


def write_solution_csv(path, mesh: PolyMesh, u: np.ndarray) -> None:
    if len(u) != mesh.n_vertices:
        raise ValueError(f"solution has {len(u)} values for {mesh.n_vertices} vertices")
    table = np.column_stack([np.arange(len(u)), mesh.vertices, u])
    np.savetxt(path, table, fmt=["%d"] + ["%.17g"] * 4, delimiter=",", header="id,x,y,z,u",
               comments="")


def _check_output_dirs(*paths) -> None:
    """Raise ``FileNotFoundError`` naming the first output path whose directory is missing."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: no directory {Path(path).parent}")


def _save_partial(write, path: str, what: str) -> None:
    """Write a failed run's partial results; a file-system error must not hide the failure."""
    try:
        write(path)
    except OSError as exc:
        print(f"partial {what} not saved: {exc}", file=sys.stderr)
    else:
        print(f"partial {what} saved to {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_mesh_gen(args) -> int:
    _check_output_dirs(args.out)
    m = build_mesh(vars(args))
    meshmod.save_mesh(m, args.out)
    print(f"wrote {args.out}: {m.n_vertices} vertices, {m.n_faces} faces, {m.n_cells} cells")
    return EXIT_OK


def cmd_mesh_check(args) -> int:
    # options first: a bad value exits before the file is parsed
    meshmod._check_gamma_min(args.gamma_min)
    levelset = box_levelset(args.threshold)
    m = meshmod.load_mesh(args.path)
    report = meshmod.check_mesh_assumptions(m, gamma_min=args.gamma_min)
    flags = meshmod.classify_interface(m, levelset)
    print(f"vertices: {m.n_vertices}  faces: {m.n_faces}  cells: {m.n_cells}")
    print(f"total volume: {m.total_volume():.17g}")
    print(f"mean size h: {report.mean_size:.17g}")
    print(f"min edge/face diameter ratio: {report.min_edge_face_ratio:.6g}")
    print(f"min face/cell diameter ratio: {report.min_face_cell_ratio:.6g}")
    print(f"gamma estimate: {report.gamma_estimate():.6g} (required {report.gamma_min:g})")
    print(f"star-shape failures: {report.star_fail_cells} cells, {report.star_fail_faces} faces")
    print(f"interface cells: {int(flags.sum())}")
    print(f"quality check: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out = args.out or cfg["output"]["solution"]
    _check_output_dirs(out)
    physics = build_physics(cfg)
    load = build_load(cfg)
    m = build_mesh(cfg["mesh"])
    newton = build_newton(cfg)

    workspace = solver.Workspace(m)
    try:
        u, report = solver.newton_solve(m, physics, load, newton, workspace=workspace)
    except SolverError as exc:
        _save_partial(lambda path: write_solution_csv(path, m, exc.u), f"{out}.failed", "state")
        raise

    write_solution_csv(out, m, u)
    hist = " ".join(f"{r:.3e}" for r in report.residual_history)
    print(f"wrote {out}")
    print(f"newton iterations: {report.newton_iterations}")
    print(f"residual history: {hist}")
    print(f"cg iterations: {report.cg_iterations}")
    print(f"damping events: {report.damping_events}")
    print(f"max |u|: {report.max_abs_u:.6g}")
    print(f"wall time: {report.wall_time:.3f} s")
    if load.mode == "manufactured":
        e2, e1 = workspace.error_norms(u, load.u_exact, load.grad_u_exact)
        print(f"e_l2: {e2:.17g}")
        print(f"e_h1: {e1:.17g}")
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = load_config(args.config)
    physics = build_physics(cfg)
    load = build_load(cfg)
    newton = build_newton(cfg)
    levels = cfg["study"]["levels"]
    if len(levels) < 2:
        raise ConfigError("need >= 2 study levels")
    factories = [functools.partial(build_mesh, {**cfg["mesh"], **lvl}) for lvl in levels]

    out = args.out or cfg["output"]["report"]
    plot = cfg["output"]["plot"] or str(Path(out).with_suffix(".plotdat"))
    _check_output_dirs(out, plot)
    try:
        report = analysis.run_convergence_study(
            factories, physics, load, newton, metadata=cfg
        )
    except Exception as exc:
        # a failing level carries the rows of the levels before it
        if hasattr(exc, "study_level"):
            print(f"study level {exc.study_level} failed", file=sys.stderr)
            if exc.study_report.rows:
                _save_partial(exc.study_report.to_csv, f"{out}.failed", "report")
        raise

    report.to_csv(out)
    report.to_plotdat(plot)
    print(f"wrote {out} and {plot}")
    print(f"{'level':>5} {'cells':>8} {'dof':>8} {'h':>12} "
          f"{'e_l2':>12} {'order':>7} {'e_h1':>12} {'order':>7} {'newton':>6} {'time[s]':>8}")
    for r in report.rows:
        o2 = f"{r.order_l2:7.2f}" if r.order_l2 is not None else "      -"
        o1 = f"{r.order_h1:7.2f}" if r.order_h1 is not None else "      -"
        print(f"{r.level:>5} {r.n_cells:>8} {r.dof:>8} {r.h:>12.5g} "
              f"{r.e_l2:>12.5g} {o2} {r.e_h1:>12.5g} {o1} "
              f"{r.newton_iterations:>6} {r.wall_time:>8.2f}")
    last = min(3, len(report.rows))
    f2, f1 = report.fitted_orders(last)
    print(f"fitted orders over last {last} levels: L2 {f2:.3f}, H1 {f1:.3f}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vempb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="mesh generation and inspection")
    msub = pm.add_subparsers(dest="mesh_command", required=True)
    pg = msub.add_parser("gen", help="generate a mesh file")
    pg.add_argument("--family", required=True, choices=("cubic", "tet", "voronoi"))
    pg.add_argument("--n", type=int, default=4, help="cells per axis (structured families)")
    pg.add_argument("--n-seeds", type=int, default=None, help="seed count (voronoi)")
    pg.add_argument("--rng-seed", type=int, default=0)
    pg.add_argument("-o", "--out", required=True)
    pg.set_defaults(func=cmd_mesh_gen)
    pc = msub.add_parser("check", help="validate a mesh file and print quality metrics")
    pc.add_argument("path")
    pc.add_argument("--gamma-min", type=float, default=0.05)
    pc.add_argument("--threshold", type=float, default=_DEFAULTS["physics"]["box_threshold"],
                    help="box level-set threshold for the interface count")
    pc.set_defaults(func=cmd_mesh_check)

    ps = sub.add_parser("solve", help="solve one configuration")
    ps.add_argument("-c", "--config", required=True)
    ps.add_argument("-o", "--out", default=None)
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("study", help="run a convergence study")
    pt.add_argument("-c", "--config", required=True)
    pt.add_argument("-o", "--out", default=None)
    pt.set_defaults(func=cmd_study)
    return p


def main(argv=None) -> int:
    """Run one command; the only place that maps failures to exit codes."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeshError, ValueError, OSError) as exc:   # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
