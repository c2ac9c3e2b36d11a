import json
import warnings

import numpy as np
import pytest

import vempb as vp
from vempb import cli
from vempb.solver import Workspace


def run(args):
    return cli.main(args)


def write_config(path, **overrides):
    cfg = {
        "physics": {"eps_m": 1.0, "eps_s": 1.0, "kappa": 0.0, "charges": []},
        "mesh": {"family": "cubic", "n": 2},
        "load": {"mode": "manufactured"},
    }
    for key, val in overrides.items():
        cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


def test_mesh_gen_writes_file(tmp_path, capsys):
    out = tmp_path / "m.vpm"
    assert run(["mesh", "gen", "--family", "cubic", "--n", "2", "-o", str(out)]) == 0
    m = vp.load_mesh(out)
    assert m.n_vertices == 27
    assert "27 vertices" in capsys.readouterr().out


def test_mesh_gen_rejects_bad_size(tmp_path, capsys):
    out = tmp_path / "m.vpm"
    assert run(["mesh", "gen", "--family", "tet", "--n", "0", "-o", str(out)]) == 2


def test_mesh_check_valid_file(tmp_path, capsys):
    out = tmp_path / "m.vpm"
    run(["mesh", "gen", "--family", "voronoi", "--n-seeds", "20", "--rng-seed", "3", "-o", str(out)])
    assert run(["mesh", "check", str(out)]) == 0
    text = capsys.readouterr().out
    assert "gamma estimate" in text
    assert "interface cells" in text


def test_mesh_check_corrupted_file(tmp_path, capsys):
    out = tmp_path / "m.vpm"
    run(["mesh", "gen", "--family", "cubic", "--n", "2", "-o", str(out)])
    text = out.read_text().splitlines()
    out.write_text("\n".join(text[: len(text) // 2]))  # truncate
    assert run(["mesh", "check", str(out)]) == 2
    assert "line" in capsys.readouterr().err


def test_mesh_check_cell_without_faces(tmp_path, capsys):
    out = tmp_path / "m.vpm"
    run(["mesh", "gen", "--family", "cubic", "--n", "1", "-o", str(out)])
    out.write_text(out.read_text().replace("6 1 2 3 4 5 6", "0"))
    assert run(["mesh", "check", str(out)]) == 2
    assert "line 19: cell record 0: no face references" in capsys.readouterr().err


def test_solve_linear_single_newton_iteration(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "newton iterations: 1" in text
    header = out.read_text().splitlines()[0]
    assert header == "id,x,y,z,u"


def test_solve_deterministic_output(tmp_path):
    cfg = write_config(tmp_path / "c.json", mesh={"family": "voronoi", "n_seeds": 30, "rng_seed": 5})
    out1, out2 = tmp_path / "u1.csv", tmp_path / "u2.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out1)]) == 0
    assert run(["solve", "-c", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_reported_error_matches_recomputation(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mesh": {"family": "cubic", "n": 8},
        "load": {"mode": "manufactured"},
    }))
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 0
    text = capsys.readouterr().out
    reported = float([l for l in text.splitlines() if l.startswith("e_l2:")][0].split()[1])

    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    u = rows[np.argsort(rows[:, 0].astype(int)), 4]
    m = vp.generate_cube_mesh(8)
    load = vp.manufactured_sine()
    e_l2, _ = Workspace(m).error_norms(u, load.u_exact, load.grad_u_exact)
    assert abs(e_l2 - reported) <= 1e-12


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mesh": {"family": "cubic", "n": 2}, "bogus": {}}))
    assert run(["solve", "-c", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("raw, where", [
    ({"solver": {"tol": 1.0}}, "solver"),
    ({"physics": {"levelset": {"type": "box", "treshold": 0.3}}}, "physics.levelset"),
], ids=["solver", "levelset"])
def test_unknown_nested_key_rejected(tmp_path, capsys, raw, where):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    assert run(["solve", "-c", str(cfg)]) == 2
    assert where in capsys.readouterr().err


def test_empty_solver_section_builds_default_newton_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", solver={})
    assert cli.build_newton(cli.load_config(cfg)) == vp.NewtonConfig()


def test_empty_physics_section_builds_default_physics_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", physics={})
    got, want = cli.build_physics(cli.load_config(cfg)), vp.PhysicsConfig()
    for name in ("eps_m", "eps_s", "kappa", "charges"):
        assert getattr(got, name) == getattr(want, name)


def test_study_two_levels(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        study={"levels": [{"n": 2}, {"n": 4}]},
        output={"report": str(tmp_path / "rep.csv"), "plot": str(tmp_path / "rep.plotdat")},
    )
    assert run(["study", "-c", str(cfg)]) == 0
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3  # header + 2 levels
    first, second = data[1].split(","), data[2].split(",")
    assert first[5] == "-" and first[7] == "-"
    float(second[5]); float(second[7])  # orders present on the refined level
    assert (tmp_path / "rep.plotdat").exists()
    assert "fitted orders" in capsys.readouterr().out


def test_study_single_level_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", study={"levels": [{"n": 2}]})
    assert run(["study", "-c", str(cfg)]) == 2
    assert "2 study levels" in capsys.readouterr().err


def test_study_deterministic_artifacts(tmp_path):
    rep1, rep2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cfg = write_config(
        tmp_path / "c.json",
        mesh={"family": "voronoi", "rng_seed": 2},
        study={"levels": [{"n_seeds": 20}, {"n_seeds": 60}]},
    )
    assert run(["study", "-c", str(cfg), "-o", str(rep1)]) == 0
    assert run(["study", "-c", str(cfg), "-o", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    assert rep1.with_suffix(".plotdat").read_bytes() == rep2.with_suffix(".plotdat").read_bytes()


def test_config_roundtrip_reproduces_report(tmp_path):
    """The effective config echoed in the report reproduces the results."""
    cfg = write_config(tmp_path / "c.json", study={"levels": [{"n": 2}, {"n": 3}]})
    rep1 = tmp_path / "r1.csv"
    assert run(["study", "-c", str(cfg), "-o", str(rep1)]) == 0
    echoed = json.loads(rep1.read_text().splitlines()[0].removeprefix("# config "))
    cfg2 = tmp_path / "echo.json"
    cfg2.write_text(json.dumps(echoed))
    rep2 = tmp_path / "r2.csv"
    assert run(["study", "-c", str(cfg2), "-o", str(rep2)]) == 0
    body1 = [l for l in rep1.read_text().splitlines() if not l.startswith("#")]
    body2 = [l for l in rep2.read_text().splitlines() if not l.startswith("#")]
    assert body1 == body2


def test_solver_failure_exits_3_and_saves_partial_state(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mesh": {"family": "cubic", "n": 2},
        "load": {"mode": "manufactured"},
        "solver": {"max_iterations": 1, "rel_tol": 1e-14},
    }))
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 3
    assert not out.exists()
    failed = tmp_path / "u.csv.failed"
    assert failed.exists()
    assert failed.read_text().startswith("id,x,y,z,u")
    assert "solver failure" in capsys.readouterr().err


def test_regularized_solve_runs(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mesh": {"family": "cubic", "n": 4},
        "load": {"mode": "regularized"},
    }))
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.isfinite(rows[:, 4]).all()
    assert np.abs(rows[:, 4]).max() > 0.0


def test_strong_charge_overflow_exits_3_and_saves_initial_state(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        physics={"charges": [{"q": 1e4, "x": [0.1, 0.1, 0.1]}]},
        mesh={"family": "cubic", "n": 4},
        load={"mode": "regularized"},
    )
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 3
    assert not out.exists()
    rows = np.loadtxt(tmp_path / "u.csv.failed", delimiter=",", skiprows=1)
    assert len(rows) == 125
    assert np.all(rows[:, 4] == 0.0)  # u0 of the regularized load
    assert "sinh argument" in capsys.readouterr().err


def test_manufactured_load_overflow_exits_3_and_saves_initial_state(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        physics={"charges": [{"q": 1e4, "x": [0.1, 0.1, 0.1]}]},
        mesh={"family": "cubic", "n": 4},
    )
    out = tmp_path / "u.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 3
    assert not out.exists()
    rows = np.loadtxt(tmp_path / "u.csv.failed", delimiter=",", skiprows=1)
    m = vp.generate_cube_mesh(4)
    u0 = np.zeros(m.n_vertices)
    u0[m.boundary_vertex] = vp.manufactured_sine().boundary_values(m.vertices[m.boundary_vertex])
    assert np.array_equal(rows[:, 4], u0)
    assert "load: sinh argument" in capsys.readouterr().err


def test_cg_iteration_limit_exits_3_and_saves_state(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        physics={},
        mesh={"family": "cubic", "n": 4},
        solver={"cg_max_iterations": 1},
    )
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 3
    assert not out.exists()
    assert (tmp_path / "u.csv.failed").read_text().startswith("id,x,y,z,u")
    assert "CG did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["max_iterations", "max_halvings", "cg_max_iterations"])
def test_negative_solver_limit_exits_2(tmp_path, capsys, limit):
    cfg = write_config(tmp_path / "c.json", solver={limit: -1})
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "u.csv.failed").exists()
    assert "must not be negative" in capsys.readouterr().err


def test_study_invalid_later_level_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        mesh={"family": "voronoi", "rng_seed": 1},
        study={"levels": [{"n_seeds": 20}, {"n_seeds": 0}]},
    )
    out = tmp_path / "r.csv"
    assert run(["study", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "study level 2" in err and "need at least one seed" in err
    assert not out.exists()


def test_study_regularized_load_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json", load={"mode": "regularized"}, study={"levels": [{"n": 2}, {"n": 3}]}
    )
    assert run(["study", "-c", str(cfg), "-o", str(tmp_path / "r.csv")]) == 2
    assert "manufactured load" in capsys.readouterr().err


BASE = '"physics": {"eps_m": 1.0, "eps_s": 1.0, "kappa": 0.0, "charges": []}, ' \
       '"mesh": {"family": "cubic", "n": 2}'


@pytest.mark.parametrize("command, body, named", [
    ("solve", BASE + ', "solver": {"max_iterations": null}', "solver.max_iterations"),
    ("solve", BASE + ', "solver": {"max_iterations": 1e400}', "solver.max_iterations"),
    ("solve", '"physics": {"eps_m": null}', "physics.eps_m"),
    ("solve", '"physics": {"charges": 5}', "physics.charges"),
    ("solve", '"physics": {"charges": [5]}', "physics.charges[0]"),
    ("solve", '"physics": {"charges": [{"q": null, "x": [0, 0, 0]}]}', "physics.charges[0].q"),
    ("solve", '"mesh": 5', "mesh"),
    ("study", BASE + ', "study": {"levels": 5}', "study.levels"),
    ("study", BASE + ', "study": {"levels": [{"n": 2}, {"n": null}]}', "study.levels[1].n"),
    ("solve", '"mesh": {"family": "voronoi", "n_seeds": 8, "rng_seed": null}', "mesh.rng_seed"),
    ("solve", BASE + ', "output": {"solution": 7}', "output.solution"),
    ("study", BASE + ', "study": {"levels": [{"n": 2}, {"n": 3}]}, "output": {"report": 1}',
     "output.report"),
], ids=["max_iterations-null", "max_iterations-1e400", "eps_m-null", "charges-5",
        "charges-[5]", "q-null", "mesh-5", "levels-5", "level-n-null", "rng_seed-null",
        "solution-7", "report-1"])
def test_mistyped_config_value_exits_2(tmp_path, monkeypatch, capsys, command, body, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text("{" + body + "}")
    assert run([command, "-c", "c.json"]) == 2
    err = capsys.readouterr().err
    assert f"error: {named} must be a JSON " in err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]   # nothing written


@pytest.mark.parametrize("section, key, value, message", [
    ("physics", "kappa", "Infinity", "kappa must be non-negative and finite"),
    ("physics", "kappa", "NaN", "kappa must be non-negative and finite"),
    ("physics", "eps_s", "Infinity", "permittivities must be positive and finite"),
    ("solver", "rel_tol", "NaN", "tolerances must be positive and finite"),
], ids=["kappa-inf", "kappa-nan", "eps_s-inf", "rel_tol-nan"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, section, key, value, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"mesh": {{"family": "cubic", "n": 2}}, "{section}": {{"{key}": {value}}}}}')
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "u.csv.failed").exists()


def test_pointwise_rhs_with_regularized_load_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", load={"mode": "regularized", "pointwise_rhs": True})
    assert run(["solve", "-c", str(cfg), "-o", str(tmp_path / "u.csv")]) == 2
    assert "unknown key(s) in 'load': ['pointwise_rhs']" in capsys.readouterr().err


def test_load_solution_key_exits_2(tmp_path, capsys):
    """sin(pi x) sin(pi y) sin(pi z) is the only manufactured load, so it has no key."""
    cfg = write_config(tmp_path / "c.json", load={"mode": "manufactured", "solution": "sine3"})
    out = tmp_path / "u.csv"
    assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 2
    assert "unknown key(s) in 'load': ['solution']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_write_solution_csv_rejects_u_of_another_length(tmp_path, extra):
    m = vp.generate_cube_mesh(2)
    out = tmp_path / "u.csv"
    with pytest.raises(ValueError, match=f"{m.n_vertices + extra} values for {m.n_vertices} "):
        cli.write_solution_csv(out, m, np.zeros(m.n_vertices + extra))
    assert not out.exists()


def test_null_accepted_where_the_default_is_null(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        mesh={"family": "cubic", "n": 2, "n_seeds": None, "path": None},
        solver={"cg_max_iterations": None},
        output={"plot": None},
    )
    assert run(["solve", "-c", str(cfg), "-o", str(tmp_path / "u.csv")]) == 0


def test_solve_on_a_mesh_file_matches_the_generated_mesh(tmp_path):
    vpm = tmp_path / "m.vpm"
    assert run(["mesh", "gen", "--family", "cubic", "--n", "3", "-o", str(vpm)]) == 0
    outputs = []
    for name, mesh in [("file", {"family": "file", "path": str(vpm)}),
                       ("cubic", {"family": "cubic", "n": 3})]:
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg.write_text(json.dumps({"mesh": mesh}))
        assert run(["solve", "-c", str(cfg), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mesh, message", [
    ({"family": "file"}, "file mesh needs a path"),
    ({"family": "hexagonal", "n": 2}, "unknown mesh family 'hexagonal'"),
    ({"family": "voronoi"}, "voronoi mesh needs n_seeds"),
])
def test_incomplete_mesh_section_exits_2(tmp_path, capsys, mesh, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mesh": mesh}))
    assert run(["solve", "-c", str(cfg), "-o", str(tmp_path / "u.csv")]) == 2
    assert message in capsys.readouterr().err
