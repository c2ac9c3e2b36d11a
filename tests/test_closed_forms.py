"""The regularized problem against exact radial solutions: the Born ion and its screened form.

A charge q at the centre c of a sphere of radius a, eps_m inside, eps_s
outside.  Without screening the potential is q/(eps_m r) + k/a inside and
q/(eps_s r) outside, k = q (1/eps_s - 1/eps_m); less the Coulomb part
G = q/(eps_m r), the regularized unknown is u = k/a inside and k/r outside.
With screening, ``_oracles.radial_ion`` solves the radial problem.  Either
u is also the Dirichlet data on the cube.

No mesh family fits a sphere, so cell faces cut the interface: the gates
bound the error of an unfitted interface, not the paper's optimal rates.
"""

import numpy as np

import vempb as vp
from vempb.solver import Workspace

from _oracles import GROUND_RADIUS, SPHERE_CENTRE as CENTRE, SPHERE_RADIUS as RADIUS, radial_ion

Q, EPS_M, EPS_S = 1.0, 2.0, 4.0
K = Q * (1.0 / EPS_S - 1.0 / EPS_M)


def _sphere(points):
    return np.linalg.norm(np.atleast_2d(points) - CENTRE, axis=1) - RADIUS


def _born_u(points):
    r = np.linalg.norm(np.atleast_2d(points) - CENTRE, axis=1)
    return K / np.maximum(r, RADIUS)


def _born_grad(points):
    rel = np.atleast_2d(points) - CENTRE
    r = np.linalg.norm(rel, axis=1)
    return np.where((r > RADIUS)[:, None], -K * rel / np.maximum(r, RADIUS)[:, None] ** 3, 0.0)


class _ExactLoad(vp.LoadSpec):
    """The regularized load with an exact u as Dirichlet data."""

    def __init__(self, u_exact):
        super().__init__(mode="regularized")
        self._u = u_exact

    def boundary_values(self, points):
        return self._u(points)


def _assert_unfitted_rates(kappa, u_exact, grad_exact):
    """On cube 8/16/32 the errors decrease at every level, at L2 slope >= 0.8, H1 >= 0.4."""
    physics = vp.PhysicsConfig(eps_m=EPS_M, eps_s=EPS_S, kappa=kappa,
                               charges=[(Q, tuple(CENTRE))], levelset=_sphere)
    sizes, e_l2, e_h1 = [], [], []
    for n in (8, 16, 32):
        ws = Workspace(vp.generate_cube_mesh(n))
        u, report = vp.newton_solve(ws.mesh, physics, _ExactLoad(u_exact), workspace=ws)
        assert report.converged
        l2, h1 = ws.error_norms(u, u_exact, grad_exact)
        sizes.append(vp.mesh.mesh_size(ws.mesh))
        e_l2.append(l2)
        e_h1.append(h1)
    assert all(b < a for a, b in zip(e_l2, e_l2[1:])), e_l2
    assert all(b < a for a, b in zip(e_h1, e_h1[1:])), e_h1
    assert vp.fitted_order(sizes, e_l2) >= 0.8, e_l2
    assert vp.fitted_order(sizes, e_h1) >= 0.4, e_h1


def test_born_ion_errors_decrease_at_the_unfitted_rates():
    _assert_unfitted_rates(0.0, _born_u, _born_grad)


def test_radial_ion_without_screening_is_the_grounded_born_ion():
    """At kappa = 0 the radial solution is the Born field less its value at the ground radius."""
    u, grad = radial_ion(Q, EPS_M, EPS_S, 0.0)
    points = np.random.default_rng(0).random((2000, 3))
    assert np.abs(u(points) - (_born_u(points) - Q / (EPS_S * GROUND_RADIUS))).max() <= 1e-9
    assert np.abs(grad(points) - _born_grad(points)).max() <= 1e-9


def test_screened_radial_ion_errors_decrease_at_the_unfitted_rates():
    _assert_unfitted_rates(4.0, *radial_ion(Q, EPS_M, EPS_S, 4.0))
