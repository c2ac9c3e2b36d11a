"""The pooled sweeps: each starts and joins its own threads and gives the serial sweep's bits.

Each test sets the thread count of a pooled sweep through
``solver._sweep_threads``: to 8 or to 1, the one worker of a one-CPU
process, so both run on any number of CPUs.
``test_sweep_threads_follow_the_cpu_affinity`` sets the affinity mask
instead, so the count the package derives from it is checked on any host.
"""

import dataclasses
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import vempb as vp
from vempb import solver
from vempb.solver import Workspace

from test_solver import _screened_tet_physics


@pytest.fixture
def use_pool(monkeypatch):
    """use_pool(True) runs the pooled sweeps on 8 threads, use_pool(False) on one.

    8 threads are more than a test host has CPUs, so blocks interleave.
    """
    def use(pooled):
        monkeypatch.setattr(solver, "_sweep_threads", lambda: 8 if pooled else 1)

    return use


def _no_screening():
    return vp.PhysicsConfig(kappa=0.0)


LOAD_CASES = {
    "voronoi-screened": (lambda: vp.generate_voronoi_mesh(200, 4), _screened_tet_physics),
    "voronoi-unscreened": (lambda: vp.generate_voronoi_mesh(200, 4), _no_screening),
    "kuhn4-screened": (lambda: vp.generate_tet_mesh(4), _screened_tet_physics),
}


def _on_threads(fn, threads):
    """fn, recording the thread of every call in ``threads``."""

    def recorded(*args):
        threads.add(threading.get_ident())
        return fn(*args)

    return recorded


def _load_and_errors(mesh, physics, threads):
    ws = Workspace(mesh)
    load = vp.manufactured_sine()
    u = np.random.default_rng(5).normal(size=mesh.n_vertices) * 0.3
    F = ws.load_vector(physics, dataclasses.replace(
        load, u_exact=_on_threads(load.u_exact, threads),
        grad_u_exact=_on_threads(load.grad_u_exact, threads)))
    errors = ws.error_norms(u, _on_threads(load.u_exact, threads),
                            _on_threads(load.grad_u_exact, threads))
    return F, errors


@pytest.mark.parametrize("case", list(LOAD_CASES))
def test_pool_load_and_error_norms_match_serial(case, use_pool, monkeypatch):
    make, physics = LOAD_CASES[case]
    mesh = make()
    monkeypatch.setattr(solver, "BLOCK_NODES", 1000)
    assert len(Workspace(mesh).block_cells) - 1 > 8
    results, threads = {}, {}
    for pooled in (False, True):
        use_pool(pooled)
        threads[pooled] = set()
        results[pooled] = _load_and_errors(mesh, physics(), threads[pooled])
    # each sweep starts its own worker, so one worker still means more than one thread id
    assert threading.get_ident() not in threads[False] | threads[True]
    F, errors = results[True]
    assert np.array_equal(F, results[False][0])
    assert errors == results[False][1]


def test_pool_reference_errors_match_serial(use_pool, monkeypatch):
    """Blocks switching threads often still each get their own located fine cells."""
    coarse, fine = vp.generate_tet_mesh(4), vp.generate_tet_mesh(8)
    rng = np.random.default_rng(6)
    u_c, u_f = rng.normal(size=coarse.n_vertices), rng.normal(size=fine.n_vertices)
    monkeypatch.setattr(solver, "BLOCK_NODES", 300)
    n_blocks = len(Workspace(coarse).block_cells) - 1
    assert n_blocks > 100
    calls, locate = [], vp.analysis._locate_structured

    def counting(mesh, points):
        calls.append(len(points))
        return locate(mesh, points)

    monkeypatch.setattr(vp.analysis, "_locate_structured", counting)
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for pooled in (False, True):
            use_pool(pooled)
            errors.append(vp.compare_to_reference(coarse, u_c, fine, u_f))
    finally:
        sys.setswitchinterval(interval)
    assert errors[0] == errors[1]
    assert len(calls) == 2 * n_blocks


def test_pool_never_runs_physics_methods(use_pool, monkeypatch):
    """Every PhysicsConfig method runs on the calling thread, with the pool in use."""
    mesh = vp.generate_tet_mesh(4)
    physics = _screened_tet_physics()
    threads = set()
    for attr in ("solvent_mask", "epsilon", "kappa_bar_sq", "coulomb_potential",
                 "coulomb_gradient", "charge_arrays"):
        monkeypatch.setattr(physics, attr, _on_threads(getattr(physics, attr), threads))
    monkeypatch.setattr(solver, "BLOCK_NODES", 1000)
    use_pool(True)
    ws = Workspace(mesh)
    for load in (vp.manufactured_sine(), vp.regularized_load()):
        ws.load_vector(physics, load)
    ws.stiffness(physics)
    ws.nonlinear(physics, np.zeros(mesh.n_vertices))
    assert threads == {threading.get_ident()}


def test_sweep_threads_follow_the_cpu_affinity(monkeypatch):
    """Each pooled sweep builds one pool with a worker per CPU of the affinity mask."""
    monkeypatch.setattr(solver, "BLOCK_NODES", 1000)
    made = []

    def recorded_pool(*args, **kwargs):
        made.append(ThreadPoolExecutor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solver, "ThreadPoolExecutor", recorded_pool)
    mesh = vp.generate_tet_mesh(4)
    load = vp.manufactured_sine()
    u = np.random.default_rng(7).normal(size=mesh.n_vertices)
    ws = Workspace(mesh)
    errors = {}
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        made.clear()
        threads = set()
        errors[cpus] = ws.error_norms(u, _on_threads(load.u_exact, threads),
                                      _on_threads(load.grad_u_exact, threads))
        ws.load_vector(vp.PhysicsConfig(), load)
        assert [pool._max_workers for pool in made] == [cpus, cpus]
        assert threading.get_ident() not in threads
    assert errors[1] == errors[3]


def test_no_sweep_thread_outlives_its_sweep(use_pool, monkeypatch):
    """The threads a pooled error_norms ran its blocks on are joined when it returns."""
    monkeypatch.setattr(solver, "BLOCK_NODES", 1000)
    use_pool(True)
    mesh = vp.generate_tet_mesh(4)
    load = vp.manufactured_sine()
    names = set()

    def u_exact(points):
        names.add(threading.current_thread().name)
        return load.u_exact(points)

    Workspace(mesh).error_norms(np.zeros(mesh.n_vertices), u_exact, load.grad_u_exact)
    assert names and all(name.startswith("vempb-sweep") for name in names)
    assert not any(t.name.startswith("vempb-sweep") for t in threading.enumerate())


def _error_norms_on_cube3(_):
    mesh = vp.generate_cube_mesh(3)
    load = vp.manufactured_sine()
    return Workspace(mesh).error_norms(np.zeros(mesh.n_vertices), load.u_exact, load.grad_u_exact)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_pool_in_a_forked_child(use_pool, monkeypatch):
    """A child forked after pooled sweeps ran finishes its own pooled sweep."""
    monkeypatch.setattr(solver, "BLOCK_NODES", 1000)
    use_pool(True)
    want = _error_norms_on_cube3(0)
    with multiprocessing.get_context("fork").Pool(1) as children:
        assert children.apply_async(_error_norms_on_cube3, (0,)).get(timeout=60) == want
